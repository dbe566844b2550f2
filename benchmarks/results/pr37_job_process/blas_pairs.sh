#!/bin/bash
# BLAS threads of a forked rank: ROADMAP item 2's channel command on two
# process ranks, in the environment a user has (OPENBLAS_NUM_THREADS
# unset), alternating a parent and a change checkout, plus the change
# with the variable pinned to 1 for reference.
#
#   benchmarks/results/pr37_job_process/blas_pairs.sh PARENT_SRC CHANGE_SRC [PAIRS]
#
# PARENT_SRC / CHANGE_SRC are the two checkouts' src/ directories. Odd
# pairs run the parent first, even pairs the change first. Each line is
# "pair side MLUPS".
parent=$1 change=$2 pairs=${3:-5}
cmd="run --problem channel --lattice D3Q19 --shape 128,48,48 --scheme MR-P
     --ranks 2 --backend process --accel fused --steps 40"
one() {     # one() SRC [ENV...]: the cohort's MLUPS
    env -u OPENBLAS_NUM_THREADS "${@:2}" PYTHONPATH="$1" python -m repro $cmd \
        | awk '/cohort:/ {print $2; exit}'
}
for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) = 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
        src=$parent; [ "$side" = change ] && src=$change
        echo "$i $side $(one "$src")"
    done
    echo "$i change-pinned $(one "$change" OPENBLAS_NUM_THREADS=1)"
done
