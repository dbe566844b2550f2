"""The weather probe: fixed work on fixed inputs, one number per run."""

import numpy as np
import pytest

from perfbench.weather import NOMINAL_S, Probe


def test_passes_are_timed_and_weather_is_their_median_over_nominal():
    probe = Probe()
    probe.sample(3)
    assert len(probe.passes) == 3 and all(t > 0 for t in probe.passes)
    assert probe.weather == pytest.approx(sorted(probe.passes)[1] / NOMINAL_S)


def test_a_pass_leaves_its_inputs_as_it_found_them():
    probe, fresh = Probe(), Probe()
    probe.sample(2)
    assert np.array_equal(probe._f, fresh._f)
    assert np.array_equal(probe._fs, fresh._fs)
    assert all(np.array_equal(s, t)
               for s, t in zip(probe._tables, fresh._tables))
    assert np.isfinite(probe._h).all() and np.isfinite(probe._hs).all()
