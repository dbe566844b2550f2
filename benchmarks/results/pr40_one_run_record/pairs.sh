#!/bin/bash
# Alternating perfbench pairs of two checkouts (odd pairs parent first).
#
#   pairs.sh N PARENT_DIR CHANGE_DIR OUT_DIR [perfbench args...]
#
# Each run writes OUT_DIR/<side>/p<i>/result.json; judge them with
#   python3 perfbench/run.py --compare OUT_DIR/parent OUT_DIR/change
n=$1; parent=$2; change=$3; out=$4; shift 4
mkdir -p "$out"
for i in $(seq 1 "$n"); do
  if [ $((i % 2)) = 1 ]; then order="parent change"; else order="change parent"; fi
  for side in $order; do
    if [ "$side" = parent ]; then dir=$parent; else dir=$change; fi
    ( cd "$dir" && python3 perfbench/run.py --out "$out/$side/p$i" "$@" \
        > "$out/$side-p$i.log" 2>&1; echo "$side p$i rc=$?" >> "$out/rc.txt" )
  done
done
