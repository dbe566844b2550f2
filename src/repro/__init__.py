"""repro — Moment representation of regularized lattice Boltzmann methods.

Reproduction of Valero-Lara, Vetter, Gounley & Randles, *Moment
Representation of Regularized Lattice Boltzmann Methods on NVIDIA and AMD
GPUs* (SC 2023).

Top-level re-exports cover the most common entry points; see the
subpackages for the full API:

* :mod:`repro.lattice` — velocity sets, Hermite tensors, moment metadata.
* :mod:`repro.core` — moment algebra, equilibria, collision operators,
  streaming.
* :mod:`repro.boundary` — bounce-back, Zou-He and regularized
  finite-difference velocity boundaries.
* :mod:`repro.geometry` — channels, cavities, node-type masks.
* :mod:`repro.solver` — ST / MR-P / MR-R reference solvers.
* :mod:`repro.gpu` — virtual-GPU substrate (devices, memory tracking,
  block executor, ST and MR kernels).
* :mod:`repro.perf` — roofline, footprint and MFLUPS performance models.
* :mod:`repro.obs` — telemetry, exporters, run manifests, stability
  watchdog and the profiling harness.
* :mod:`repro.parallel` — distributed slab decomposition.
* :mod:`repro.analysis` — observables, forces, stability margins.
* :mod:`repro.refinement` — two-level grid refinement.
* :mod:`repro.validation` — analytic solutions and error norms.
* :mod:`repro.bench` — paper table/figure regeneration harness.
"""

from ._lazy import lazy_exports

# Resolved on first use, so ``import repro`` (and the job server's front
# end) loads no numpy; the descriptors are built by their first reader.
__getattr__ = lazy_exports(__name__, {
    "lattice": ("get_lattice", "D2Q9", "D3Q19", "D3Q27", "D3Q39"),
})

__version__ = "1.0.0"

__all__ = ["get_lattice", "D2Q9", "D3Q19", "D3Q27", "D3Q39", "__version__"]
