"""Schäfer–Turek flow-past-a-cylinder reference data.

The DFG benchmark (Schäfer & Turek 1996) fixes a circular cylinder of
diameter ``D`` in a plane channel of height ``4.1 D``, centered ``2 D``
downstream of the inlet and ``2 D`` above the bottom wall, with a
parabolic inlet of mean speed ``U = 2/3 U_max``:

* **Re = 20** (case 2D-1): steady flow with a recirculation bubble;
  reference drag coefficient ``C_D in [5.57, 5.59]``.
* **Re = 100** (case 2D-2): periodic Kármán vortex street; reference
  Strouhal number ``St in [0.295, 0.305]`` and peak drag
  ``C_D_max in [3.22, 3.24]``.

The lattice realization is the registered ``schafer-turek`` problem kind
(:func:`repro.service.registry.schafer_turek`): build it with
``build_single("schafer-turek", scheme, "D2Q9", (22 d, round(4.1 d) + 2),
tau=schafer_turek_tau(re, d, u_max), u_max=u_max)`` and read its drag
and lift with ``solver.results()``. This module holds what the
cylinder validation tier (``tests/integration/test_cylinder_validation.py``)
checks that against: the reference bands, the relaxation time of a
Reynolds number and the shedding Strouhal number of a lift series.
"""

from __future__ import annotations

import numpy as np

from ..lattice import get_lattice

__all__ = ["SCHAFER_TUREK", "schafer_turek_tau", "strouhal_number"]

#: Reference bands of the DFG benchmark (Schäfer & Turek 1996).
SCHAFER_TUREK = {
    20: {"c_d": (5.57, 5.59), "c_l": (0.0104, 0.0110)},
    100: {"c_d_max": (3.22, 3.24), "c_l_max": (0.99, 1.01),
          "strouhal": (0.295, 0.305)},
}


def schafer_turek_tau(re: float, d: float, u_max: float) -> float:
    """D2Q9 relaxation time of Reynolds number ``U d / nu``, ``U = 2/3 u_max``."""
    return get_lattice("D2Q9").tau_for_viscosity(2.0 * u_max / 3.0 * d / re)


def strouhal_number(lift_series: np.ndarray, u_mean: float, diameter: float,
                    sample_interval: float = 1.0) -> float:
    """Shedding Strouhal number ``f D / U`` from a lift-coefficient series.

    The dominant frequency comes from the peak of the Hann-windowed
    spectrum, refined by a parabolic fit through the three bins around
    the peak (series of ~20 shedding periods resolve ``St`` to well
    under a percent).
    """
    x = np.asarray(lift_series, dtype=np.float64)
    if x.size < 16:
        raise ValueError(f"need at least 16 samples, got {x.size}")
    x = x - x.mean()
    window = np.hanning(x.size)
    amp = np.abs(np.fft.rfft(x * window))
    freqs = np.fft.rfftfreq(x.size, d=sample_interval)
    amp[0] = 0.0
    k = int(np.argmax(amp))
    if amp[k] == 0.0:
        raise ValueError("lift series has no oscillatory content")
    f = freqs[k]
    if 0 < k < amp.size - 1:
        # Parabolic (quadratic-interpolation) peak refinement.
        a, b, c = amp[k - 1], amp[k], amp[k + 1]
        denom = a - 2.0 * b + c
        if denom != 0.0:
            f = freqs[k] + 0.5 * (a - c) / denom * (freqs[1] - freqs[0])
    return float(f * diameter / u_mean)
