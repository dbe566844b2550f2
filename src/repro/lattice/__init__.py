"""Lattice velocity sets, Hermite tensors and moment-space metadata.

Every name resolves on first use: the velocity sets (:mod:`.sets`) are
plain Python, so a caller that only checks a lattice name imports no
numpy; a descriptor is built by the first :func:`get_lattice` of it.
"""

from .._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, {
    "descriptor": ("LatticeDescriptor", "build_descriptor"),
    "hermite": ("hermite_tensors", "distinct_index_tuples",
                "distinct_tensor_columns", "index_multiplicity",
                "symmetric_contraction_weights"),
    "sets": ("get_lattice", "available_lattices", "lattice_info",
             "LatticeInfo", "D1Q3", "D2Q9", "D3Q15", "D3Q19", "D3Q27",
             "D3Q39"),
})

__all__ = [
    "LatticeDescriptor",
    "build_descriptor",
    "hermite_tensors",
    "distinct_index_tuples",
    "distinct_tensor_columns",
    "index_multiplicity",
    "symmetric_contraction_weights",
    "get_lattice",
    "available_lattices",
    "lattice_info",
    "LatticeInfo",
    "D1Q3",
    "D2Q9",
    "D3Q15",
    "D3Q19",
    "D3Q27",
    "D3Q39",
]
