"""Compactly supported analysis windows on the torus grid.

Shapes:

* ``gauss``: periodized Gaussian truncated where it falls below 1e-16 of
  its peak, so the support diameter is ``width`` cells (sigma = width/17).
* ``hann``: raised cosine on ``width`` cells.
* ``flattop``: unit plateau of half the width with Gaussian skirts; used
  as the outer cutoff in cone-split constructions.

A window is a function of the periodic cell distance to its centre
(``TorusGrid.distances``).  Scans evaluate it once per (grid, spec), at
the origin (``origin_window``): distances between cells do not change
under a shift by whole cells, so the window centred at any cell is that
origin window rolled there exactly.
``windowed_spectra`` turns a signal and a sequence of cells into the
spectra of the windowed signal, one per cell, in one reused buffer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .grid import Signal, TorusGrid, _prefactor

__all__ = ["WindowSpec", "window_signal", "window_values", "origin_window",
           "windowed_spectra"]

GAUSS_TRUNC_SIGMAS = np.sqrt(2.0 * np.log(1e16))  # ~8.58 sigma at 1e-16


@dataclass(frozen=True)
class WindowSpec:
    """Window shape and full support width in grid cells."""

    shape: str = "gauss"
    width: float = 16.0

    def __post_init__(self):
        if self.shape not in ("gauss", "hann", "flattop"):
            raise ValueError(f"unknown window shape {self.shape!r}")
        if self.width < 4:
            raise ValueError(f"window width must be >= 4 cells, got {self.width}")

    def narrowed(self, factor: float) -> "WindowSpec":
        return WindowSpec(self.shape, max(4.0, self.width * factor))


def window_values(grid: TorusGrid, spec: WindowSpec, center) -> np.ndarray:
    """Window samples over the grid, peak value 1 at the center."""
    if spec.width >= grid.n:
        raise ValueError(
            f"window width {spec.width} does not fit on the torus (n={grid.n})"
        )
    dist = grid.distances(center)
    half = spec.width / 2.0
    if spec.shape == "gauss":
        sigma = spec.width / (2.0 * GAUSS_TRUNC_SIGMAS)
        vals = np.exp(-(dist**2) / (2.0 * sigma**2))
        vals[dist > half] = 0.0
    elif spec.shape == "hann":
        vals = np.where(dist <= half,
                        np.cos(np.pi * dist / spec.width) ** 2, 0.0)
    else:  # flattop
        plateau = spec.width / 4.0
        sigma = (half - plateau) / GAUSS_TRUNC_SIGMAS
        out = np.clip(dist - plateau, 0.0, None)
        vals = np.exp(-(out**2) / (2.0 * sigma**2))
        vals[dist > half] = 0.0
    return vals


def window_signal(f: Signal, spec: WindowSpec, center) -> Signal:
    """Pointwise product of f with the window centered at a grid index."""
    return Signal(f.grid, f.values * window_values(f.grid, spec, center))


_ORIGIN_CACHE: dict = {}


def origin_window(grid: TorusGrid, spec: WindowSpec) -> np.ndarray:
    """Read-only window samples centred at the origin cell, shape
    ``grid.shape``, cached per (grid, spec)."""
    key = (grid, spec)
    if key not in _ORIGIN_CACHE:
        w0 = window_values(grid, spec, (0,) * grid.d).reshape(grid.shape)
        w0.flags.writeable = False
        _ORIGIN_CACHE[key] = w0
    return _ORIGIN_CACHE[key]


def windowed_spectra(f: Signal, w0: np.ndarray, cells):
    """Yield, per integer cell c, the forward transform of f times the
    origin window ``w0`` rolled to c, in unshifted ``fftn`` order.

    Every spectrum is written into one buffer, overwritten by the next:
    the product by 2^d block products of f and w0 (no rolled copy), the
    transform in place, then the prefactor.  A spectrum that is not
    finite raises ValueError.
    """
    n = f.grid.n
    vals, buf = f.reshaped(), np.empty(f.grid.shape, dtype=complex)
    for cell in cells:
        # per axis: samples c..n-1 meet window 0..n-c-1, samples 0..c-1
        # meet window n-c..n-1
        pieces = [[(slice(c, n), slice(0, n - c))]
                  + ([(slice(0, c), slice(n - c, n))] if c else [])
                  for c in (int(c) % n for c in np.atleast_1d(cell))]
        for block in itertools.product(*pieces):
            at, w_at = zip(*block)
            np.multiply(vals[at], w0[w_at], out=buf[at])
        np.fft.fftn(buf, out=buf)
        buf *= _prefactor(f.grid)
        if not np.all(np.isfinite(buf)):
            raise ValueError("spectrum coefficients must be finite")
        yield buf
