#!/usr/bin/env python3
"""Summarize two run_mutations.py result files (the parent's, the change's).

    python summarize.py PARENT.json CHANGE.json > mutation_results.txt

Per mutation: how many ids fail on each side, per test file, whether the
change catches every mutation the parent catches, and whether a side
catches it only through ``aa`` ids (the ``aa`` suites, or an id with an
``aa`` parameter), which item 6 of the roadmap deletes.
"""

import collections
import json
import re
import sys

from run_mutations import MUTATIONS


def is_aa(nodeid: str) -> bool:
    """An id of the ``aa`` suites, of an ``aa`` class or test, or with an
    ``aa`` parameter."""
    name, _, params = nodeid.partition("[")
    tokens = set(re.split(r"[^A-Za-z]+", name) + re.split(r"[- \]]", params))
    return "aa" in tokens or "AA" in name or "nplace" in name


def per_file(ids):
    return collections.Counter(i.split("::")[0] for i in ids)


def main(parent_path: str, change_path: str) -> None:
    parent, change = (json.load(open(p)) for p in (parent_path, change_path))
    lost = []
    for mid, (path, old, new, what) in MUTATIONS.items():
        a, b = parent[mid]["failed"], change[mid]["failed"]
        print(f"== {mid}: {what}")
        print(f"   {path}")
        print(f"   - {old.strip().splitlines()[0]}")
        print(f"   + {new.strip().splitlines()[0]}")
        for side, ids in (("parent", a), ("change", b)):
            aa_only = ids and all(is_aa(i) for i in ids)
            print(f"   {side}: {len(ids)} ids fail"
                  + ("  (only aa ids)" if aa_only else ""))
            for f, n in sorted(per_file(ids).items()):
                print(f"      {n:5d} {f}")
        if a and not b:
            lost.append(mid)
        print()
    caught = [m for m in MUTATIONS if parent[m]["failed"]]
    print(f"parent catches {len(caught)} of {len(MUTATIONS)}; the change "
          f"catches {sum(bool(change[m]['failed']) for m in caught)} of "
          f"those; caught by the parent only: {lost or 'none'}")


if __name__ == "__main__":
    main(*sys.argv[1:3])
