"""Synthetic signals with analytically known singular structure.

Every entry carries a wave-front oracle: position regions (grid cells),
direction sets, and the minimal weight order at which the default
estimator flags the region.  Estimator transitions sit a fixed margin
below the true norm-membership transition (the summability margin), so
oracle orders are stated for the estimator, with the underlying spectral
law documented per constructor.

Singular supports are aligned to the default scan stride so that window
tails at neighboring scan positions fall below the mass floor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import Signal, TorusGrid, impulse

__all__ = [
    "CorpusEntry",
    "make_smooth",
    "make_delta",
    "make_edge",
    "make_power_cusp",
    "make_example_sum",
    "standard_corpus",
    "corpus_entry",
    "ALWAYS_SINGULAR",
]

ALWAYS_SINGULAR = -99.0  # min_order sentinel: singular at every scanned s


@dataclass(frozen=True)
class OracleComponent:
    """One singular component: cells x direction bins x minimal order."""

    cells: tuple  # grid index vectors on the singular support
    directions: tuple | str  # unit vectors, or "all"
    min_order: float  # estimator flags the component when s > min_order


@dataclass(frozen=True)
class CorpusEntry:
    id: str
    signal: Signal
    oracle_wf: tuple = ()
    oracle_fl: dict = field(default_factory=dict)  # (q, s) -> bool membership
    classical_singular_cells: tuple = ()

    def expected_singular(self, query_s: float):
        """(cells, directions) pairs the estimator must flag at order query_s.

        Refuses queries that sit within 0.3 of a component's transition
        order; oracle verdicts are only meaningful with margin.
        """
        out = []
        for comp in self.oracle_wf:
            if comp.min_order != ALWAYS_SINGULAR and \
                    abs(query_s - comp.min_order) < 0.3:
                raise ValueError(
                    f"query order {query_s} too close to transition "
                    f"{comp.min_order} of {self.id}"
                )
            if query_s > comp.min_order:
                out.append(comp)
        return out


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def make_smooth(grid: TorusGrid, seed: int = 0, degree: int = 4) -> CorpusEntry:
    """Random trigonometric polynomial; empty wave-front oracle."""
    if degree > grid.n // 4:
        raise ValueError("degree must stay below n/4")
    rng = np.random.default_rng(seed)
    pts = grid.sample_points()
    vals = np.zeros(grid.size, dtype=complex)
    for _ in range(3 + degree):
        k = rng.integers(-degree, degree + 1, size=grid.d)
        amp = rng.standard_normal() + 1j * rng.standard_normal()
        vals += amp * np.exp(1j * pts @ k.astype(float))
    return CorpusEntry(id=f"smooth-{seed}", signal=Signal(grid, vals))


def make_delta(grid: TorusGrid, x_star) -> CorpusEntry:
    """Unit impulse: flat spectrum, singular in every direction at x*."""
    x_star = tuple(int(c) % grid.n for c in np.atleast_1d(x_star))
    sig = impulse(grid, x_star)
    comp = OracleComponent(cells=(x_star,), directions="all",
                           min_order=ALWAYS_SINGULAR)
    # flat spectrum arithmetic: in FL^inf_0; outside FL^q_s once the
    # weighted tail grows, in particular for every s > d/q
    oracle_fl = {(np.inf, 0.0): True, (1.0, float(grid.d)): False,
                 (2.0, float(grid.d)): False}
    return CorpusEntry(id="delta", signal=sig, oracle_wf=(comp,),
                       oracle_fl=oracle_fl,
                       classical_singular_cells=(x_star,))


def make_edge(grid: TorusGrid, axis: int = 0, offset: int = 0) -> CorpusEntry:
    """Periodized jump across the grid line {x_axis = offset*h} (d=2 only).

    A sawtooth in the transversal coordinate: one jump per period, C^inf
    elsewhere, spectrum ~ 1/k along the normal.
    """
    if grid.d != 2:
        raise ValueError("edges are 2-D corpus entries")
    n = grid.n
    pts = grid.sample_points()
    u = (pts[:, axis] - offset * grid.h) / (2 * np.pi)
    vals = (u % 1.0) - 0.5 + 0j
    normal = [0.0, 0.0]
    normal[axis] = 1.0
    cells = []
    for t in range(n):
        cell = [0, 0]
        cell[axis] = offset % n
        cell[1 - axis] = t
        cells.append(tuple(cell))
    comp = OracleComponent(
        cells=tuple(cells),
        directions=(tuple(normal), tuple(-c for c in normal)),
        min_order=ALWAYS_SINGULAR,
    )
    return CorpusEntry(id=f"edge-ax{axis}", signal=Signal(grid, vals),
                       oracle_wf=(comp,),
                       classical_singular_cells=tuple(cells))


def make_power_cusp(grid: TorusGrid, a: float, x_star: int) -> CorpusEntry:
    """Compact |x-x*|^a bump (d=1, non-integer a > 0).

    Spectrum decays like |k|^-(a+1), so the order-s scan flags x* once
    s exceeds roughly a (the estimator transition sits at a - margin).
    """
    if grid.d != 1:
        raise ValueError("power cusps are 1-D corpus entries")
    if a <= 0 or float(a).is_integer():
        raise ValueError("cusp exponent must be positive and non-integer")
    n = grid.n
    x_star = int(x_star) % n
    pts = grid.sample_points()[:, 0]
    u = (pts - x_star * grid.h + np.pi) % (2 * np.pi) - np.pi
    # Gaussian envelope: spectrally clean away from the cusp itself (a
    # compact-support taper would add a slow sub-exponential onset law),
    # numerically nil at the antipode
    sigma = 0.34
    envelope = np.exp(-(u**2) / (2 * sigma**2))
    vals = (np.abs(u) ** a) * envelope + 0j
    comp = OracleComponent(cells=((x_star,),), directions="all",
                           min_order=a - 0.25)
    oracle_fl = {(1.0, max(0.0, a - 1.0)): True, (1.0, a + 1.0): False}
    return CorpusEntry(id=f"cusp-{a}", signal=Signal(grid, vals),
                       oracle_wf=(comp,), oracle_fl=oracle_fl,
                       classical_singular_cells=((x_star,),))


def _texture_bump(grid: TorusGrid, center: float, sigma_cells: float,
                  gamma: float, k_min: int, rng) -> np.ndarray:
    """Gaussian-enveloped bump modulated by power-law spectral texture.

    The texture occupies every frequency k_min <= |k| <= n/2 with
    amplitude <k>^-gamma and random phases, so the local spectral
    envelope obeys a clean gamma-order power law across the analysis
    octaves; a dense law survives the analysis window's spectral blur,
    which an octave-spaced carrier ladder does not.  The Gaussian
    envelope keeps the onset free of compact-support kinks.
    """
    pts = grid.sample_points()[:, 0]
    u = (pts - center * grid.h + np.pi) % (2 * np.pi) - np.pi
    sigma = sigma_cells * grid.h
    envelope = np.exp(-(u**2) / (2 * sigma**2))
    vals = np.zeros(grid.size)
    for k in range(k_min, grid.n // 2 + 1):
        amp = (1.0 + k * k) ** (-gamma / 2.0)
        phase = rng.uniform(0, 2 * np.pi)
        vals += amp * np.cos(k * pts + phase)
    return envelope * vals


def make_example_sum(grid: TorusGrid, count: int = 3) -> CorpusEntry:
    """Sum of disjoint modulated bumps marching toward x = 0 (d=1).

    Component j (1-based) occupies an interval approaching the origin as
    j grows and carries spectral envelope order gamma_j in (j+2, j+3], so
    it sits inside the order-(j+2) Fourier-Lebesgue class but outside the
    order-(j+3) one; the weighted tail check at order j+3 exceeds ten
    times the order-(j+2) value.  Components are sup-normalized and
    summed with weights 1/j^2.  At x = 0 only the deepest component is
    visible to the default window, so a classical scan fails there while
    every moderate-order scan passes.
    """
    if grid.d != 1:
        raise ValueError("the graded-bump example is a 1-D entry")
    if count > 4:
        raise ValueError("count is limited to 4 by grid resolution")
    n = grid.n
    rng = np.random.default_rng(5)  # the bumps' texture phases
    stride = max(8, n // 4)  # default scan stride at this grid size
    # component j: Gaussian envelope (center, sigma) in cells.  Component
    # centers sit on the scan grid (windows at other scan positions stay
    # below the mass floor), except the deepest one whose tail reaches the
    # origin: the origin's verdicts are governed by its envelope order.
    geometry = {
        1: (3 * stride, stride / 8.0),
        2: (2 * stride, 3 * stride / 32.0),
        3: (0.3125 * stride, stride / 16.0),
        4: (0.125 * stride, stride / 32.0),
    }
    # spectral envelope orders: dense-texture law with the order-(j+2)
    # weighted value moderate and the order-(j+3) tail >= 10x larger
    gammas = {1: 3.25, 2: 5.25, 3: 6.0, 4: 6.75}
    # estimator-level transition orders, calibrated at n=256 defaults
    # (window blur flattens steep laws, so these sit below gamma - 1.25)
    min_orders = {1: 2.0, 2: 3.2, 3: 3.5, 4: 3.7}
    k_min = max(3, n // 32 + n // 64)
    vals = np.zeros(grid.size, dtype=complex)
    comps = []
    spans = []
    for j in range(1, count + 1):
        center, sigma = geometry[j]
        lo, hi = int(center - 4 * sigma), int(np.ceil(center + 4 * sigma))
        bump = _texture_bump(grid, center, sigma, gammas[j], k_min, rng)
        m_j = np.max(np.abs(bump))
        if m_j == 0:
            raise ValueError("degenerate bump construction")
        vals += bump / (j * j * m_j)
        spans.append((lo, hi))
        comps.append(OracleComponent(
            cells=tuple((c % n,) for c in range(lo, hi + 1)),
            directions="all",
            min_order=min_orders[j],
        ))
    # effective supports (4-sigma footprints) must be disjoint
    for (lo1, hi1), (lo2, hi2) in zip(spans, spans[1:]):
        if not hi2 < lo1:
            raise ValueError("component footprints must be disjoint")
    classical = tuple((c % n,) for lo, hi in spans for c in range(lo, hi + 1))
    return CorpusEntry(
        id=f"graded-sum-{count}",
        signal=Signal(grid, vals),
        oracle_wf=tuple(comps),
        classical_singular_cells=classical + ((0,),),
    )


def standard_corpus(d: int, n: int) -> tuple:
    """The acceptance corpus for one dimension (n >= 16)."""
    if n < 16:
        raise ValueError(f"the standard corpus needs n >= 16 (its smooth "
                         f"entry has degree 4 <= n/4); got n = {n}")
    if d == 1 and n in (36, 38, 44, 46):
        raise ValueError(f"the 1-D standard corpus excludes n = 36, 38, 44 "
                         f"and 46, where the 4-sigma footprints of its "
                         f"graded-sum bumps overlap; got n = {n}")
    grid = TorusGrid(d, n)
    if d == 1:
        stride = n // 4
        return (
            make_smooth(grid, seed=1),
            make_delta(grid, (2 * stride,)),
            make_power_cusp(grid, 0.5, 3 * stride),
            make_power_cusp(grid, 2.5, stride),
            make_example_sum(grid, count=3),
        )
    if d == 2:
        stride = n // 4
        return (
            make_smooth(grid, seed=2),
            make_delta(grid, (2 * stride, 2 * stride)),
            make_edge(grid, axis=0, offset=0),
            make_edge(grid, axis=1, offset=stride),
        )
    raise ValueError("corpus targets d in {1, 2}")


def corpus_entry(entries: tuple, entry_id: str) -> CorpusEntry:
    """The entry of ``entries`` (a ``standard_corpus``) named ``entry_id``,
    or whose id continues it after a dash ("smooth" names "smooth-1")."""
    for entry in entries:
        if entry.id == entry_id or entry.id.startswith(entry_id + "-"):
            return entry
    raise ValueError(f"unknown corpus id {entry_id!r} at "
                     f"d={entries[0].signal.grid.d}")
