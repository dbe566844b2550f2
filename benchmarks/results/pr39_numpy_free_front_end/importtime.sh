#!/bin/bash
# What `mrlbm serve` imports, and where: `python -X importtime -m repro
# serve` on one checkout, through /healthz and one tiny job to its seal.
#
#   benchmarks/results/pr39_numpy_free_front_end/importtime.sh SRC OUT
#
# SRC is a checkout's src/ directory; OUT receives the importtime table.
# The job process is forked from the server and inherits -X importtime,
# so its rows (the imports it makes after its fork) follow the server's.
src=$1 out=$2
work=$(mktemp -d ./importtime.XXXXXX)
sock=$work/s.sock
PYTHONPATH="$src" OPENBLAS_NUM_THREADS=1 python -X importtime -m repro serve \
    --workers 1 --uds "$sock" --root "$work/jobs" > /dev/null 2> "$out" &
server=$!
until curl -s --unix-socket "$sock" http://localhost/healthz > /dev/null 2>&1
do sleep 0.05; done
curl -s --unix-socket "$sock" -X POST http://localhost/jobs -d '{"kind":
    "taylor-green", "scheme": "MR-P", "lattice": "D2Q9", "shape": [16, 16],
    "steps": 4}' > /dev/null
until curl -s --unix-socket "$sock" http://localhost/jobs/job-000001 \
        | grep -q '"state": "done"'; do sleep 0.05; done
curl -s -X POST --unix-socket "$sock" http://localhost/shutdown > /dev/null
wait $server
rm -rf "$work"
