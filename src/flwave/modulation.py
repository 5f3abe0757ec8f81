"""Short-time Fourier transform and modulation-space norms.

The STFT reuses the forward-transform convention: V(x_j, k) is the
transform of f times the conjugated window translated to x_j.  Positions
are sampled on the full grid (no hop), and modulation norms use counting
measure in both variables, so the mixed-norm monotonicity in (p, q) is
exact on the lattice.  The p = q = 2 case collapses to the product of
the signal and window energies by per-column Parseval.

The window is evaluated once, at the origin (``windows.origin_window``):
periodic cell distances are integer-valued, so the window at cell c is
the origin window rolled by c, a strided view of the origin window tiled
twice per axis.  One generator runs one batched FFT per index of the
first position axis into reused buffers; ``stft`` shifts each block into
its output, and ``modulation_norm`` reduces each block over positions as
it comes, never holding V.

``modulation_sup_profile`` reads the near cells' spectra from
``windows.windowed_spectra`` (one reused buffer) and takes the running
max of their magnitudes in ``fftn`` order, shifting once at the end.
``modulation_wavefront``, the third wave-front scan mode, fits the cones
of that profile near each position over every direction at once;
``modulation_direction_verdict`` fits one direction, with its weight
evaluated on that cone's points alone.  Both decide through the spectral
estimators' verdict kernel (``wavefront._band_sums`` and ``_verdicts``)
and floor against the signal's cached scale (``Signal.peak_off_origin``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bilinear import conjugate_exponent
from .calculus import numerical_support
from .grid import Signal, TorusGrid, _lp_reduce, _prefactor, lattice
# not called here: kept bound so that tracers which rebind forward_transform
# in every flwave module keep finding it in this one
from .grid import forward_transform  # noqa: F401
from .norms import FLNormSpec, fl_norm
from .wavefront import (WavefrontQuery, WavefrontReport, _band_sums,
                        _fl_bound, _scan, _segment_table, _verdicts,
                        _weight_terms)
from .weights import Weight
from .windows import WindowSpec, origin_window, windowed_spectra

__all__ = [
    "SpaceFreqWeight",
    "stft",
    "modulation_norm",
    "equivalence_check",
    "embedding_check",
    "modulation_sup_profile",
    "modulation_direction_verdict",
    "modulation_wavefront",
]


@dataclass(frozen=True)
class SpaceFreqWeight:
    """Product weight <k>^s <x>^t on phase space."""

    s: float = 0.0
    t: float = 0.0

    def factors(self, grid: TorusGrid) -> tuple:
        """(<x_j>^t over positions, <k>^s over the centered lattice)."""
        pts = grid.sample_points()
        pos = (1.0 + np.sum(pts**2, axis=-1)) ** (self.t / 2.0)
        return pos, lattice(grid).brackets**self.s


def _stft_window(grid: TorusGrid) -> WindowSpec:
    """The default STFT window: Gaussian, n/4 cells wide but at least 8."""
    return WindowSpec("gauss", max(8, grid.n // 4))


def _neighbourhood(n: int) -> tuple:
    """(radius, step) of the sup-profile neighbourhood at n cells per axis:
    an eighth and a sixteenth of the n/4 scan stride, at least 2 cells;
    criterion 9c certifies the modulation scan at it."""
    return max(2, n // 32), max(2, n // 64)


def _rolled_windows(grid: TorusGrid, window: WindowSpec) -> np.ndarray:
    """Conjugated window centered at every cell c, as a view indexed [c][j]."""
    # the window is real, so it is its own conjugate
    tiled = np.tile(origin_window(grid, window), (2,) * grid.d)
    views = np.lib.stride_tricks.sliding_window_view(tiled, grid.shape)
    return views[(slice(grid.n, 0, -1),) * grid.d]


def _stft_blocks(f: Signal, window: WindowSpec):
    """Yield the unshifted STFT rows, shape (n,)*(d-1) + (n,)*d, of each
    first position index: one ``fftn`` per block, all into one buffer."""
    axes = tuple(range(-f.grid.d, 0))
    rolled = _rolled_windows(f.grid, window)
    prod = np.empty(rolled.shape[1:], dtype=complex)
    spec = np.empty_like(prod)
    for c0 in range(f.grid.n):
        np.multiply(f.reshaped(), rolled[c0], out=prod)
        np.fft.fftn(prod, axes=axes, out=spec)
        spec *= _prefactor(f.grid)
        if not np.all(np.isfinite(spec)):
            raise ValueError("spectrum coefficients must be finite")
        yield spec


def stft(f: Signal, window: WindowSpec) -> np.ndarray:
    """V(x_j, k): rows are window positions, columns lattice frequencies,
    each ``_stft_blocks`` block ``fftshift``-ed into the output."""
    out = np.empty(f.grid.shape * 2, dtype=complex)
    for c0, block in enumerate(_stft_blocks(f, window)):
        out[c0] = np.fft.fftshift(block, axes=tuple(range(-f.grid.d, 0)))
    return out.reshape(f.grid.size, f.grid.size)


def modulation_norm(f: Signal, p: float, q: float,
                    w: SpaceFreqWeight | None = None,
                    window: WindowSpec | None = None) -> float:
    """Outer l^q over frequency of inner l^p over position of |V w|.

    Counting measure in both variables keeps the (p, q) monotonicity
    exact.  The inner sums are taken block by block as the STFT is
    produced, in unshifted frequency order, in buffers reused across
    blocks: peak memory O(N n^(d-1)), not O(N^2).
    """
    if p < 1 or q < 1:
        raise ValueError("modulation norm exponents must be >= 1")
    grid = f.grid
    window = window or _stft_window(grid)
    pos, freq = (w or SpaceFreqWeight()).factors(grid)
    freq = np.fft.ifftshift(freq.reshape(grid.shape)).ravel()
    pos = pos.reshape(grid.n, -1)
    rows = pos.shape[1]
    # row 0 carries the running sum above one block's terms, so numpy's
    # row-by-row axis-0 sum adds in the order of one sum over all of V
    buf, wts = np.zeros((rows + 1, grid.size)), np.empty((rows, grid.size))
    reduce = np.maximum.reduce if np.isinf(p) else np.add.reduce
    sums = None
    for c0, block in enumerate(_stft_blocks(f, window)):
        np.abs(block.reshape(wts.shape), out=buf[1:])
        buf[1:] *= np.multiply(pos[c0, :, None], freq, out=wts)
        if not np.isinf(p):
            buf[1:] **= p
        buf[0] = sums = reduce(buf, axis=0, out=sums)
    sums = np.fft.fftshift(sums.reshape(grid.shape)).ravel()
    return float(_lp_reduce(sums if np.isinf(p) else np.float_power(
        sums, 1.0 / p), q))


def equivalence_check(f: Signal, q: float, s: float,
                      window: WindowSpec) -> dict:
    """Ratio of the p = 2 modulation norm to the Fourier-Lebesgue norm for
    localized signals.

    The two norms are equivalent on signals of fixed compact support;
    the ratio (not its value) is the regression quantity.  Signals whose
    numerical support exceeds half the torus are rejected, since the
    equivalence constant degenerates there.
    """
    frac = np.count_nonzero(numerical_support(f)) / f.grid.size
    if frac > 0.5:
        raise ValueError(
            f"support covers {frac:.2f} of the torus; norms inequivalent"
        )
    w = Weight.power(s)
    mod = modulation_norm(f, 2.0, q, SpaceFreqWeight(s=s), window)
    fl = fl_norm(f, FLNormSpec(q, w))
    ratio = mod / fl if fl > 0 else 0.0
    # witnesses for the two sides of the equivalence
    return {"ratio": ratio,
            "upper_ratio": fl / mod if mod > 0 else 0.0,
            "support_fraction": frac}


def embedding_check(f: Signal, q: float, p1: float, p2: float,
                    window: WindowSpec) -> dict:
    """Modulation norms bracket the Fourier-Lebesgue norm.

    Needs p1 <= min(q, q') and max(q, q') <= p2; returns the two bracket
    constants (empirical) plus the exact monotonicity ratio in p.
    """
    qp = conjugate_exponent(q)
    if p1 > min(q, qp) + 1e-12 or p2 < max(q, qp) - 1e-12:
        raise ValueError("needs p1 <= min(q, q') <= max(q, q') <= p2")
    upper = modulation_norm(f, p2, q, window=window)
    lower = modulation_norm(f, p1, q, window=window)
    fl = fl_norm(f, FLNormSpec(q, Weight.power(0.0)))
    mono = upper / lower if lower > 0 else 0.0
    return {
        "upper_over_fl": upper / fl if fl > 0 else 0.0,
        "fl_over_lower": fl / lower if lower > 0 else 0.0,
        "p_monotonicity_ratio": mono,
    }


def modulation_sup_profile(f: Signal, x0, window: WindowSpec,
                           position_radius: int | None = None,
                           position_step: int | None = None) -> np.ndarray:
    """Per-frequency sup of |V(x, k)| over window positions near x0.

    Shared by all direction verdicts at the same scan point.  The near
    positions lie within ``position_radius`` cells of x0, on the cells
    whose indices are multiples of ``position_step``; either one left
    None is ``_neighbourhood(n)``'s.
    """
    radius, step = _neighbourhood(f.grid.n)
    return np.fft.fftshift(_unshifted_sup_profile(
        f, x0, window,
        radius if position_radius is None else position_radius,
        step if position_step is None else position_step)).ravel()


def _unshifted_sup_profile(f: Signal, x0, window: WindowSpec,
                           position_radius, position_step) -> np.ndarray:
    """``modulation_sup_profile`` in ``fftn`` order, shape ``grid.shape``:
    the running max of |spectrum| over the near cells' windowed spectra."""
    grid = f.grid
    w0 = origin_window(grid, window)  # raises for a window wider than n
    # the max is exact, so the order of the near cells does not matter
    cells = np.argwhere((grid.distances(x0) <= position_radius).reshape(
        grid.shape))
    sup_v, mags = np.zeros(grid.shape), np.empty(grid.shape)
    for spec in windowed_spectra(
            f, w0, cells[np.all(cells % position_step == 0, axis=-1)]):
        np.maximum(sup_v, np.abs(spec, out=mags), out=sup_v)
    return sup_v


def modulation_direction_verdict(f: Signal, x0, direction, q: float,
                                 s: float, window: WindowSpec,
                                 aperture: float, octaves, rel_floor: float,
                                 sup_v: np.ndarray | None = None) -> dict:
    """Wave-front verdict from cone-restricted modulation content.

    Per frequency, takes the sup of |V(x, k)| over positions near x0
    (pass a precomputed ``sup_v`` profile to amortize), then runs the
    same annulus decay fit as the spectral estimator on the cone.
    """
    grid = f.grid
    if sup_v is None:
        sup_v = modulation_sup_profile(f, x0, window)
    # the weight <k>^s on this cone's points alone, the bits of on_lattice
    table = _segment_table(grid, (direction,), aperture, octaves).centred
    w = _weight_terms(lattice(grid).brackets[table.index]**s, q)
    [[regular]], [[slope]], _ = _verdicts(
        table, *_band_sums(table, sup_v, [w], q), q,
        rel_floor * f.peak_off_origin, _fl_bound(grid.d, q))
    return {"verdict": "regular" if regular else "singular",
            "slope": float(slope)}


def modulation_wavefront(f: Signal, query: WavefrontQuery) -> WavefrontReport:
    """``modulation_direction_verdict`` at every position and direction of
    the query (weight ``query.spec.weight``, floor ``query.rel_floor``):
    one sup profile per position, one cone fit over all directions."""
    radius, step = _neighbourhood(f.grid.n)
    return _scan(f, query, "modulation", (_unshifted_sup_profile(
        f, x0, query.window, radius, step) for x0 in query.positions))
