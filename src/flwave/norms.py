"""Weighted Fourier-Lebesgue norms, cone seminorms, and mixed kernel norms.

All frequency sums use counting measure on the centered lattice, so
Parseval and the Hoelder/Young arguments hold verbatim.  Sums run in a
fixed lexicographic lattice order for bit-reproducible results.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cones import Cone, cone_mask
from .grid import (Signal, TorusGrid, _lp_reduce, _transform_rows,
                   finite_kernel, forward_transform, kernel_size)
from .weights import Weight

__all__ = [
    "FLNormSpec",
    "KernelGrid",
    "fl_norm",
    "cone_seminorm",
    "mixed_norm",
    "sequence_norm",
]

@dataclass(frozen=True)
class FLNormSpec:
    """Exponent and weight of a Fourier-Lebesgue norm."""

    q: float = 1.0
    weight: Weight = Weight.power(0.0)

    def __post_init__(self):
        if self.q < 1:
            raise ValueError(f"exponent must satisfy q >= 1, got {self.q}")


@dataclass(frozen=True)
class KernelGrid:
    """Dense two-variable kernel F(k, l) over lattice pairs.

    Row index is the output frequency k, column index the inner frequency
    l, both row-major over the centered lattice of ``grid``.
    """

    grid: TorusGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        N = kernel_size(self.grid)
        vals = np.asarray(self.values, dtype=complex).reshape(N, N)
        object.__setattr__(self, "values", finite_kernel(vals))


def sequence_norm(values: np.ndarray, q: float) -> float:
    """Counting-measure l^q norm of a coefficient array (sup at q=inf)."""
    if q < 1:
        raise ValueError(f"exponent must satisfy q >= 1, got {q}")
    mags = np.abs(np.asarray(values)).ravel()
    return float(_lp_reduce(mags, q)) if mags.size else 0.0


def fl_norm(f: Signal, spec: FLNormSpec) -> float:
    """(sum_k |F(k) w(k)|^q)^(1/q) with the forward-transform convention."""
    coeffs = forward_transform(f).coeffs
    return sequence_norm(coeffs * spec.weight.on_lattice(f.grid), spec.q)


def _fl_rows(grid: TorusGrid, values: np.ndarray, spec: FLNormSpec):
    """fl_norm of each row of a (T, n^d) value stack, in one transform."""
    coeffs = _transform_rows(grid, values) * spec.weight.on_lattice(grid)
    return _lp_reduce(np.abs(coeffs), spec.q)


def cone_seminorm(f: Signal, cone: Cone, spec: FLNormSpec) -> float:
    """FL seminorm restricted to lattice frequencies inside an open cone.

    The origin is excluded (cones live in R^d minus 0).
    """
    mask = cone_mask(f.grid, cone)
    w = spec.weight.on_lattice(f.grid)
    return sequence_norm(forward_transform(f).coeffs[mask] * w[mask], spec.q)


def mixed_norm(F: KernelGrid, p: float, q: float, order: int) -> float:
    """Iterated norm of a kernel over lattice pairs (counting measure).

    order 1: inner p-norm over the first variable k, outer q-norm over l;
    order 2: inner q-norm over the second variable l, outer p-norm over k.
    """
    return float(_mixed_rows(np.abs(F.values), p, q, order))


def _mixed_rows(mags: np.ndarray, p: float, q: float, order: int):
    """mixed_norm of each kernel in a stack of magnitudes (..., N, N)."""
    if p < 1 or q < 1:
        raise ValueError("mixed norm exponents must be >= 1")
    if order == 1:  # inner over k, one value per l
        return _lp_reduce(_lp_reduce(mags, p, axis=-2), q)
    if order == 2:  # inner over l, one value per k
        return _lp_reduce(_lp_reduce(mags, q), p)
    raise ValueError(f"order must be 1 or 2, got {order}")


def _ratio(num: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """num / denom, and 0 where the denominator is not positive."""
    return np.divide(num, denom, out=np.zeros_like(num), where=denom > 0)

