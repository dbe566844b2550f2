"""The benchmark's workloads, by the names BENCHMARK.json gives them."""

from . import box3d, porous2d, ranks2, served

WORKLOADS = {module.NAME: module
             for module in (box3d, porous2d, ranks2, served)}
