#!/bin/bash
# ms/step of a 2-rank process run of porous2d's medium on the sparse core,
# parent and change alternating: ./sparse_ranks.sh PARENT CHANGE [ROUNDS]
# (and the same run on the fused core, for the item-8 comparison).
# ms/step is the cohort's slowest-rank pace: total fluid nodes / MLUPS.
export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1
export MALLOC_MMAP_MAX_=0 MALLOC_TRIM_THRESHOLD_=1099511627776
for round in $(seq 1 "${3:-3}"); do
  for tree in "$1" "$2"; do
    for accel in sparse fused; do
      for scheme in ST MR-P; do
        out=$(cd "$tree" && PYTHONPATH=src python -m repro.cli run \
          --problem porous --shape 768,768 --scheme "$scheme" --ranks 2 \
          --backend process --accel "$accel" --steps 60 2>&1)
        echo "$out" | awk -v r="$round" -v t="$(basename "$tree")" \
          -v a="$accel" -v s="$scheme" '
          /rank [0-9]+: .* fluid nodes/ { gsub(",", "", $3); n += $3 }
          /cohort:/ { m = $2 }
          END { printf "round %s %s %s %s: %.2f ms/step (%.2f MLUPS)\n",
                       r, t, a, s, n / (m * 1000), m }'
      done
    done
  done
done
