"""Injectivity of RunSpec.fingerprint() and checkpoint version handling.

The v1 encoding concatenated ``key + repr(value)`` for every option
without any delimiting, so ``{"x1": 2}`` and ``{"x": 12}`` fed the hash
the same byte stream and collided (the fingerprint gates checkpoint
resume and job-server dedup, so a collision silently serves the wrong
physics). v2 length-prefixes every field; these tests pin the fix.
"""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.io.checkpoint import validate_checkpoint_manifest
from repro.parallel.runtime import FINGERPRINT_VERSION, RunSpec


def spec_with(options):
    """A fixed-problem RunSpec differing only in its options dict.

    The digest is a pure function of the field values, so the arbitrary
    option names these tests feed it are set past the constructor's
    option-name validation (frozen dataclass, hence ``__setattr__``).
    """
    spec = RunSpec("periodic", "MR-P", "D2Q9", (16, 16), 2, tau=0.8)
    object.__setattr__(spec, "options", options)
    return spec


class TestInjectivity:
    """Distinct specs must produce distinct digests."""

    def test_regression_pair(self):
        """The original collision: {"x1": 2} vs {"x": 12}."""
        a = spec_with({"x1": 2}).fingerprint()
        b = spec_with({"x": 12}).fingerprint()
        assert a != b

    def test_key_value_boundary(self):
        """Moving characters across the key/value boundary changes it."""
        assert (spec_with({"ab": "c"}).fingerprint()
                != spec_with({"a": "bc"}).fingerprint())

    def test_adjacent_options_boundary(self):
        """Moving content between adjacent options changes it."""
        assert (spec_with({"a": "xy", "b": ""}).fingerprint()
                != spec_with({"a": "x", "b": "y"}).fingerprint())

    def test_scalar_type_disambiguated(self):
        """1 (int) and "1" (str) hash differently."""
        assert (spec_with({"n": 1}).fingerprint()
                != spec_with({"n": "1"}).fingerprint())

    def test_array_shape_disambiguated(self):
        """Same bytes, different shape -> different digest."""
        flat = np.arange(6, dtype=np.float64)
        assert (spec_with({"u0": flat.reshape(2, 3)}).fingerprint()
                != spec_with({"u0": flat.reshape(3, 2)}).fingerprint())

    def test_array_dtype_disambiguated(self):
        """Same values, different dtype -> different digest."""
        assert (spec_with({"u0": np.zeros(4, np.float64)}).fingerprint()
                != spec_with({"u0": np.zeros(4, np.float32)}).fingerprint())

    def test_array_vs_scalar_repr(self):
        """An ndarray option never collides with a lookalike string."""
        arr = np.array([1.0, 2.0])
        assert (spec_with({"u0": arr}).fingerprint()
                != spec_with({"u0": repr(arr)}).fingerprint())

    def test_stable_across_pickle(self):
        """The digest is a pure function of the spec's field values."""
        import pickle

        spec = spec_with({"u_max": 0.05})
        assert pickle.loads(pickle.dumps(spec)).fingerprint() \
            == spec.fingerprint()

    def test_problem_fields_matter(self):
        """kind/scheme/lattice/shape/tau all feed the digest."""
        base = spec_with({}).fingerprint()
        assert RunSpec("periodic", "MR-R", "D2Q9", (16, 16), 2,
                       tau=0.8).fingerprint() != base
        assert RunSpec("periodic", "MR-P", "D2Q9", (16, 16), 2,
                       tau=0.9).fingerprint() != base
        assert RunSpec("periodic", "MR-P", "D2Q9", (16, 8), 2,
                       tau=0.8).fingerprint() != base


option_values = st.one_of(
    st.integers(-10**6, 10**6),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=8),
    st.booleans(),
)
option_dicts = st.dictionaries(
    st.text(st.characters(codec="ascii", categories=["L", "N"]),
            min_size=1, max_size=6),
    option_values, max_size=4)


@settings(max_examples=200, deadline=None)
@given(d1=option_dicts, d2=option_dicts)
def test_distinct_options_distinct_fingerprints(d1, d2):
    """Property: unequal option dicts never share a fingerprint."""
    assume(d1 != d2)
    assert spec_with(d1).fingerprint() != spec_with(d2).fingerprint()


def resume(saved, version=None, fingerprint="def", shape=(16, 16)) -> None:
    """Validate a 16x16 MR-P checkpoint whose manifest holds the digest
    ``saved`` under ``version`` (none: v1, the pre-fix encoding) against a
    run of ``fingerprint`` and ``shape``."""
    extra = {"fingerprint": saved}
    if version is not None:
        extra["fingerprint_version"] = version
    validate_checkpoint_manifest(
        {"scheme": "MR-P", "lattice": "D2Q9", "shape": [16, 16], "tau": 0.8,
         "extra": extra}, scheme="MR-P", lattice="D2Q9", shape=shape,
        tau=0.8, fingerprint=fingerprint,
        fingerprint_version=FINGERPRINT_VERSION)


class TestVersionedResume:
    """Cross-version checkpoints warn instead of failing spuriously."""

    def test_same_version_match_passes(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            resume("abc", FINGERPRINT_VERSION, fingerprint="abc")

    def test_same_version_mismatch_raises(self):
        with pytest.raises(ValueError, match="fingerprint differs"):
            resume("abc", FINGERPRINT_VERSION)

    def test_old_version_mismatch_warns_not_raises(self):
        """A v1 checkpoint resumes under v2 with a warning, not an error."""
        with pytest.warns(UserWarning, match="fingerprint encoding"):
            resume("abc")

    def test_old_version_still_checks_fields(self):
        """Version skew only skips the digest check, not the field checks."""
        with pytest.warns(UserWarning, match="fingerprint encoding"), \
                pytest.raises(ValueError, match="shape"):
            resume("abc", shape=(32, 16))

    def test_v2_checkpoint_says_the_defaults_changed(self):
        """Under v3 a distributed kind takes its single-domain defaults:
        the warning says how to continue the v2 problem."""
        with pytest.warns(UserWarning, match="Kind defaults changed in v3.*"
                          "explicitly to continue the same problem"):
            resume("abc", 2)
