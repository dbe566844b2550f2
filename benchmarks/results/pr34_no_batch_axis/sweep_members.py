"""Every sweep member's final fields, dumped for a bit-for-bit compare.

usage: PYTHONPATH=CHECKOUT/src python sweep_members.py OUT.npz
       python sweep_members.py --compare A.npz B.npz

The grid is ST / MR-P / MR-R x taylor-green / channel / forced-channel x
two D2Q9 shapes, each with 4 tau x 2 u_max members, stepped 25 times.
Where ``repro.ensemble.EnsembleRunner`` is importable (a checkout with
the batch axis) the 8 members of a group step in lockstep through it;
elsewhere ``run_sweep`` steps each member alone. ``rho`` / ``u`` of
every member go to OUT.npz under ``<fingerprint>/rho|u``; ``--compare``
reports every member whose arrays are not ``np.array_equal``.
"""
import sys
from unittest import mock

import numpy as np

SCHEMES = ("ST", "MR-P", "MR-R")
KINDS = ("taylor-green", "channel", "forced-channel")
SHAPES = ((24, 16), (40, 22))
TAUS = (0.6, 0.8, 1.0, 1.3)
U_MAXES = (0.03, 0.05)
STEPS = 25


def dump(out):
    from repro import ensemble

    runner = getattr(ensemble, "EnsembleRunner", None)
    arrays = {}
    for kind in KINDS:
        for scheme in SCHEMES:
            for shape in SHAPES:
                specs, _ = ensemble.expand_sweep(kind, [scheme], ["D2Q9"],
                                                 [shape], TAUS, U_MAXES)
                if runner is not None:
                    members = [ensemble.build_sweep_member(s) for s in specs]
                    runner(members).run(STEPS)
                else:
                    members, build = [], ensemble.build_sweep_member
                    with mock.patch.object(
                            ensemble, "build_sweep_member",
                            lambda s: members.append(build(s)) or members[-1]):
                        ensemble.run_sweep(specs, STEPS)
                for spec, member in zip(specs, members):
                    rho, u = member.macroscopic()
                    fp = spec.fingerprint()
                    arrays[f"{fp}/rho"], arrays[f"{fp}/u"] = rho, u
                print(kind, scheme, shape, len(members), "members",
                      "lockstep" if runner else "one by one", flush=True)
    np.savez(out, **arrays)


def compare(a, b):
    a, b = np.load(a), np.load(b)
    names = sorted(set(a.files) | set(b.files))
    broken = [n for n in names if n not in a.files or n not in b.files
              or not np.array_equal(a[n], b[n])]
    print(f"{len(names) // 2} members, {len(names)} arrays: "
          f"{len(names) - len(broken)} np.array_equal, {len(broken)} not")
    for n in broken:
        print("  differs:", n)
    return 1 if broken else 0


if __name__ == "__main__":
    if sys.argv[1] == "--compare":
        sys.exit(compare(*sys.argv[2:4]))
    dump(sys.argv[1])
