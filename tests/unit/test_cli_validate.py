"""Unit tests for the ``mrlbm validate`` physics smoke command and for
the input validation of ``mrlbm run --ranks N``."""

import pytest

from repro.cli import main


def test_validate_fast_passes(mrlbm):
    out = mrlbm("validate --fast")
    assert out.count("PASS") == 6          # 3 schemes x 2 flows
    assert "FAIL" not in out
    assert "all validations passed" in out


@pytest.mark.parametrize("backend", ["emulated", "process"])
@pytest.mark.parametrize("accel", ["reference", "fused"])
@pytest.mark.parametrize("scheme", ["ST", "MR-P", "MR-R"])
def test_distributed_run_refuses_negative_viscosity(scheme, accel, backend,
                                                    mrlbm, leaked_segments):
    """``--tau 0.4 --ranks 2`` used to run to exit 0 (ST, fused) or die
    with a traceback after the header (MR-P): now one ERROR line, exit 2,
    before the header and before any rank is forked."""
    assert mrlbm(f"run --problem forced-channel --scheme {scheme} --shape "
                 f"24,12 --ranks 2 --steps 5 --tau 0.4 --accel {accel} "
                 f"--backend {backend}", rc=2) == (
        "ERROR: tau must exceed 1/2, got 0.4\n")
    assert leaked_segments() == []


@pytest.mark.parametrize("backend", ["emulated", "process"])
@pytest.mark.parametrize("ranks,text", [
    ("0", "need at least one rank"),
    ("9", "9 slabs need a global extent of at least 27 along axis 0, got 24"),
])
def test_distributed_run_refuses_rank_counts(ranks, text, backend, mrlbm,
                                             leaked_segments):
    """``RunSpec`` says it, before the header and before any fork."""
    assert mrlbm(f"run --problem forced-channel --shape 24,12 --ranks "
                 f"{ranks} --steps 5 --backend {backend}",
                 rc=2) == f"ERROR: {text}\n"
    assert leaked_segments() == []


@pytest.mark.parametrize("flag,value", [("--scheme", "XX"),
                                        ("--accel", "bogus")])
def test_unknown_scheme_and_accel_names_exit_2(flag, value, capsys):
    """The parser's ``choices`` meet them first: exit 2, the name shown."""
    with pytest.raises(SystemExit) as exit_:
        main(["run", "--problem", "forced-channel", "--shape", "24,12",
              "--ranks", "2", "--steps", "5", flag, value])
    assert exit_.value.code == 2
    assert repr(value) in capsys.readouterr().err


@pytest.mark.parametrize("backend", ["emulated", "process"])
def test_distributed_run_refuses_multispeed_lattice(backend, mrlbm,
                                                    leaked_segments):
    """``--lattice D3Q39 --ranks 2`` used to print MLUPS for a wrong
    field (the same command without ``--ranks`` was always refused)."""
    err = mrlbm("run --lattice D3Q39 --shape 12,8,8 --steps 3 --ranks 2 "
                f"--backend {backend}", rc=2)
    assert err.startswith("ERROR: D3Q39 is a multi-speed lattice")
    assert "halo 1 node wide" in err
    assert leaked_segments() == []
