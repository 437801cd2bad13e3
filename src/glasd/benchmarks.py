"""Standard box-domain test functions and their correlation-manifold variants.

The manifold variant of a function vectorizes the off-diagonal entries of a
correlation matrix (both (p,q) and (q,p), row-major) and rescales them before
applying the standard formula, so the identity matrix maps to the zero
vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainMismatchError
from .optimizer import BoxDomain


# The reductions below are the ones np.mean, np.sum and np.prod perform
# (np.mean is np.add.reduce divided by the count), called without the
# wrappers' per-call overhead, so the values are bit-identical.

def ackley(x):
    x = np.asarray(x, dtype=float)
    d = x.size
    return (-20.0 * math.exp(-0.2 * math.sqrt(float(np.add.reduce(x * x)) / d))
            - math.exp(float(np.add.reduce(np.cos(2 * math.pi * x))) / d)
            + 20.0 + math.e)


def griewank(x):
    x = np.asarray(x, dtype=float)
    i = np.arange(1, x.size + 1)
    return float((x * x).sum() / 4000.0 - np.cos(x / np.sqrt(i)).prod() + 1.0)


def rastrigin(x):
    x = np.asarray(x, dtype=float)
    return float(10.0 * x.size + (x * x - 10.0 * np.cos(2 * math.pi * x)).sum())


def rosenbrock(x):
    x = np.asarray(x, dtype=float)
    return float((100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (x[:-1] - 1.0) ** 2).sum())


def sumsquares(x):
    x = np.asarray(x, dtype=float)
    return float((np.arange(1, x.size + 1) * x * x).sum())


# name -> (function, conventional box bounds, off-diagonal scale)
BENCHMARKS = {
    "ackley": (ackley, (-32.768, 32.768), 10.0),
    "griewank": (griewank, (-600.0, 600.0), 100.0),
    "rastrigin": (rastrigin, (-5.12, 5.12), 10.0),
    "rosenbrock": (rosenbrock, (-5.0, 10.0), 100.0),
    "sumsquares": (sumsquares, (-10.0, 10.0), 10.0),
}

VARIANTS = ("box", "corr-manifold")


@dataclass(frozen=True)
class BenchmarkSpec:
    """One benchmark instance: function, variant, and problem size.

    ``dim`` is the vector length of the box variant, or the matrix dimension
    M of the corr-manifold variant.  The off-diagonal ``scale`` of the
    corr-manifold variant is fixed per function (``BENCHMARKS``), so it is a
    read-only property, not a parameter.
    """

    name: str
    variant: str = "box"
    dim: int = 2

    def __post_init__(self):
        if self.name not in BENCHMARKS:
            raise ValueError(f"unknown benchmark {self.name!r}")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.variant == "corr-manifold":
            if self.dim < 2:
                raise ValueError("matrix dimension must be >= 2")
        elif self.dim < 1:
            raise ValueError("box dimension must be >= 1")
        elif self.name == "rosenbrock" and self.dim < 2:
            # the box form sums over adjacent pairs, so at dimension 1 it is 0 everywhere
            raise ValueError("rosenbrock box dimension must be >= 2")

    @property
    def scale(self) -> float:
        """Factor applied to the off-diagonal entries by the corr-manifold variant."""
        return BENCHMARKS[self.name][2]


@lru_cache(maxsize=64)
def _offdiag_mask(M: int) -> np.ndarray:
    mask = ~np.eye(M, dtype=bool)
    mask.flags.writeable = False
    return mask


def vec_offdiag(C: np.ndarray, scale: float) -> np.ndarray:
    """Scaled off-diagonal entries, all ordered pairs, row-major; length M(M-1)."""
    C = np.asarray(C, dtype=float)
    return scale * C[_offdiag_mask(C.shape[0])]


def eval_benchmark(spec: BenchmarkSpec, point) -> float:
    """Evaluate the benchmark at a vector (box) or correlation matrix (manifold)."""
    func = BENCHMARKS[spec.name][0]
    if spec.variant == "box":
        x = np.asarray(point, dtype=float)
        if x.shape != (spec.dim,):
            raise DomainMismatchError(f"expected a vector of length {spec.dim}")
        return func(x)
    C = np.asarray(point, dtype=float)
    if C.shape != (spec.dim, spec.dim):
        raise DomainMismatchError(f"expected a {spec.dim} x {spec.dim} matrix")
    return func(vec_offdiag(C, spec.scale))


def benchmark_box_domain(name: str, dim: int) -> BoxDomain:
    """Conventional bounds for the box variant."""
    lo, hi = BENCHMARKS[name][1]
    return BoxDomain(np.full(dim, lo), np.full(dim, hi))


def corr_objective(spec: BenchmarkSpec):
    """Matrix objective for the corr-manifold variant of this benchmark."""
    if spec.variant != "corr-manifold":
        raise ValueError("spec is not a corr-manifold benchmark")
    func = BENCHMARKS[spec.name][0]
    scale = spec.scale
    return lambda C: func(vec_offdiag(C, scale))
