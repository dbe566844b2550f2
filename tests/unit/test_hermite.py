"""Unit tests for the discrete Hermite tensor machinery."""

import numpy as np
import pytest

from repro.lattice import get_lattice
from repro.lattice.hermite import (distinct_index_tuples,
                                   distinct_tensor_columns, hermite_tensors,
                                   index_multiplicity,
                                   symmetric_contraction_weights)


@pytest.fixture
def d2q9_c():
    return get_lattice("D2Q9").c


class TestHermiteTensors:
    def test_h0_is_one(self, d2q9_c):
        h = hermite_tensors(d2q9_c, 1 / 3, 0)
        assert np.array_equal(h[0], np.ones(9))

    def test_h1_is_velocity(self, d2q9_c):
        h = hermite_tensors(d2q9_c, 1 / 3, 1)
        assert np.allclose(h[1], d2q9_c)

    def test_h2_explicit_formula(self, d2q9_c):
        cs2 = 1 / 3
        h = hermite_tensors(d2q9_c, cs2, 2)
        c = d2q9_c.astype(float)
        expected = np.einsum("qa,qb->qab", c, c) - cs2 * np.eye(2)
        assert np.allclose(h[2], expected)

    def test_h3_explicit_formula(self, d2q9_c):
        cs2 = 1 / 3
        h = hermite_tensors(d2q9_c, cs2, 3)
        c = d2q9_c.astype(float)
        eye = np.eye(2)
        ccc = np.einsum("qa,qb,qc->qabc", c, c, c)
        corr = (
            np.einsum("qa,bc->qabc", c, eye)
            + np.einsum("qb,ac->qabc", c, eye)
            + np.einsum("qc,ab->qabc", c, eye)
        )
        assert np.allclose(h[3], ccc - cs2 * corr)

    def test_h4_explicit_formula(self, d2q9_c):
        cs2 = 1 / 3
        h = hermite_tensors(d2q9_c, cs2, 4)
        c = d2q9_c.astype(float)
        eye = np.eye(2)
        c4 = np.einsum("qa,qb,qc,qd->qabcd", c, c, c, c)
        # Six delta-contracted second-order terms.
        cc = np.einsum("qa,qb->qab", c, c)
        corr2 = (
            np.einsum("qab,cd->qabcd", cc, eye)
            + np.einsum("qac,bd->qabcd", cc, eye)
            + np.einsum("qad,bc->qabcd", cc, eye)
            + np.einsum("qbc,ad->qabcd", cc, eye)
            + np.einsum("qbd,ac->qabcd", cc, eye)
            + np.einsum("qcd,ab->qabcd", cc, eye)
        )
        corr0 = (
            np.einsum("ab,cd->abcd", eye, eye)
            + np.einsum("ac,bd->abcd", eye, eye)
            + np.einsum("ad,bc->abcd", eye, eye)
        )
        expected = c4 - cs2 * corr2 + cs2 * cs2 * corr0[None]
        assert np.allclose(h[4], expected)

    def test_tensors_are_symmetric(self, lattice):
        h = lattice.h
        assert np.allclose(h[2], np.swapaxes(h[2], 1, 2))
        for perm in ((0, 2, 1, 3), (0, 3, 2, 1), (0, 1, 3, 2)):
            assert np.allclose(h[3], np.transpose(h[3], perm))

    def test_weighted_orthogonality_low_orders(self, lattice):
        """<H_m, H_n>_w = 0 for m != n with m+n <= 3 (lattice symmetry)."""
        w, h = lattice.w, lattice.h
        assert np.allclose(np.einsum("q,q...->...", w, h[1]), 0)
        assert np.allclose(np.einsum("q,qab->ab", w, h[2]), 0)
        assert np.allclose(np.einsum("q,qa,qbc->abc", w, h[1], h[2]), 0)

    def test_h2_second_moment_identity(self, lattice):
        """sum_i w_i H2_iab H2_icd has the isotropic cs4 structure."""
        w, h2 = lattice.w, lattice.h[2]
        d = lattice.d
        got = np.einsum("q,qab,qcd->abcd", w, h2, h2)
        eye = np.eye(d)
        expected = lattice.cs4 * (
            np.einsum("ac,bd->abcd", eye, eye) + np.einsum("ad,bc->abcd", eye, eye)
        )
        assert np.allclose(got, expected)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            hermite_tensors(np.zeros(3), 1 / 3, 2)       # not 2D
        with pytest.raises(ValueError):
            hermite_tensors(np.zeros((3, 2)), 1 / 3, -1)  # negative order


class TestDistinctIndexMachinery:
    def test_distinct_tuples_2d_order2(self):
        assert distinct_index_tuples(2, 2) == [(0, 0), (0, 1), (1, 1)]

    def test_distinct_tuples_3d_order2(self):
        assert distinct_index_tuples(3, 2) == [
            (0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)
        ]

    def test_distinct_tuples_order0(self):
        assert distinct_index_tuples(3, 0) == [()]

    def test_counts(self):
        # Number of distinct symmetric components: C(d+n-1, n).
        assert len(distinct_index_tuples(3, 3)) == 10
        assert len(distinct_index_tuples(3, 4)) == 15
        assert len(distinct_index_tuples(2, 4)) == 5

    def test_multiplicity(self):
        assert index_multiplicity((0, 0)) == 1
        assert index_multiplicity((0, 1)) == 2
        assert index_multiplicity((0, 0, 1)) == 3
        assert index_multiplicity((0, 1, 2)) == 6
        assert index_multiplicity((0, 0, 1, 1)) == 6
        assert index_multiplicity((0, 1, 1, 2)) == 12

    def test_multiplicities_sum_to_full_tensor(self):
        for d, n in ((2, 2), (2, 3), (3, 2), (3, 3), (3, 4)):
            w = symmetric_contraction_weights(d, n)
            assert w.sum() == d ** n

    def test_distinct_columns_roundtrip(self, lattice):
        cols, tuples, mults = distinct_tensor_columns(lattice.h[2])
        # Full contraction == weighted distinct contraction.
        rng = np.random.default_rng(0)
        sym = rng.standard_normal((lattice.d,) * 2)
        sym = sym + sym.T
        full = np.einsum("qab,ab->q", lattice.h[2], sym)
        distinct = sum(
            m * cols[:, k] * sym[t] for k, (t, m) in enumerate(zip(tuples, mults))
        )
        assert np.allclose(full, distinct)

    def test_distinct_columns_rejects_scalar(self):
        with pytest.raises(ValueError):
            distinct_tensor_columns(np.float64(3.0))
