"""Wave-front set estimation by windowed spectral cone analysis.

A cone seminorm is always finite on a finite lattice, so regularity is
decided by the decay of dyadic annulus statistics.  For a weighted
coefficient array the estimator computes, per octave m with
2^m <= |k| < 2^(m+1),

    A_m = (mean over annulus-and-cone of |F(k) w(k)|^q)^(1/q)

(the count-normalized l^q average; max at q=inf), fits the slope of
log2 A_m against m by least squares over the query's octave range, and
declares the direction regular when slope <= -(d/q + SLOPE_MARGIN).  The
count normalization makes the threshold equivalent to summability of
the weighted tail: sum_m count_m * A_m^q converges exactly when the
mass slope stays below -d/q.

All annulus statistics come from one cached segment table per (grid,
directions, aperture, octaves): an int32 gather index that lists each
direction cone's lattice points, banded by octave, as positions of the
unshifted ``fftn`` output.  A scan reads its spectra from
``windows.windowed_spectra``, one reused buffer rolling the cached origin
window to each position; its weight is permuted to ``fftn`` order once.

Every estimator (``estimate_wavefront``, ``classical_wavefront``,
``superior_scan``, ``regular_directions`` and both modulation verdicts)
decides a position through one kernel, ``_decide``: the spectrum's |F| is
gathered and reduced by one ``reduceat`` over the band starts, then per
weight the weighted spectrum is reduced again (a classical scan reuses
the first reduction), giving the averages and cone seminorms of every
direction at once, and one array fit and one array verdict decide every
direction under every weight.

Annuli whose content falls below a relative floor are dropped from the
fit; if nothing in the fit range rises above the floor the direction is
regular outright (an empty cone cannot carry a singularity).

Classical (C-infinity) scans use the same machinery with q = inf and no
weight, declaring a direction regular when the fitted decay order
beta = -slope reaches the query threshold T.
"""

from __future__ import annotations

import copy
import csv
import itertools
import json
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .cones import Cone, cone_mask
from .grid import (Signal, Spectrum, TorusGrid, forward_transform,
                   inverse_transform, lattice)
from .norms import FLNormSpec
from .weights import Weight
from .windows import (WindowSpec, origin_window, window_values,
                      windowed_spectra)

__all__ = [
    "WavefrontQuery",
    "WavefrontReport",
    "default_query",
    "regular_directions",
    "estimate_wavefront",
    "classical_wavefront",
    "superior_scan",
    "split_regular",
    "report_included_in",
    "oracle_recovery",
]

SLOPE_MARGIN = 0.25  # summability margin on the fitted slope
REL_FLOOR = 1e-4  # annulus content below floor*scale is treated as absent
CLASSICAL_REL_FLOOR = 1e-9  # max statistics need deeper usable octaves
REGULAR_SENTINEL = -99.0  # slope recorded when the floor rule decides


@dataclass(frozen=True)
class WavefrontQuery:
    """Scan configuration for the wave-front estimators."""

    positions: tuple  # grid index vectors
    directions: tuple  # unit vectors
    window: WindowSpec
    aperture: float
    spec: FLNormSpec
    decay_threshold: float = 6.0  # classical T
    octaves: tuple = (3, 6)  # inclusive fit range [m_lo, m_hi]
    rel_floor: float = REL_FLOOR
    classical_rel_floor: float = CLASSICAL_REL_FLOOR

    def __post_init__(self):
        if not (0 < self.aperture <= np.pi / 2):
            raise ValueError("aperture must lie in (0, pi/2]")
        if self.octaves[0] > self.octaves[1]:
            raise ValueError("octave range is empty")

    def validate(self, grid: TorusGrid):
        cells = np.asarray(self.positions, dtype=float)
        if not np.array_equal(cells, np.round(cells)):
            raise ValueError("scan positions must be integer grid cells")
        if self.window.width >= grid.n:
            raise ValueError("window larger than torus")
        if self.octaves[1] > int(np.log2(grid.n // 2)):
            raise ValueError(f"octave {self.octaves[1]} exceeds log2(n/2) "
                             f"for n={grid.n}")


def directions_for(d: int, count: int = 32) -> tuple:
    """Direction bins: ``count`` unit vectors (d=2) or the two signs (d=1)."""
    if d == 1:
        return ((1.0,), (-1.0,))
    if d > 2:
        raise ValueError(f"direction bins exist for d = 1 and 2, not d = {d}")
    if count < 4:
        raise ValueError("need at least 4 direction bins")
    angles = 2.0 * np.pi * np.arange(count) / count
    return tuple((float(np.cos(a)), float(np.sin(a))) for a in angles)


def default_query(grid: TorusGrid, spec: FLNormSpec | None = None,
                  bins: int = 32) -> WavefrontQuery:
    """Desk-scale defaults: Gaussian window, scan positions every n/4.

    Window widths trade position isolation against spectral resolution:
    the spectral mainlobe must stay a fraction of the lowest fit octave
    (or slope fits blur across annuli and steep laws read shallow), while
    scan positions must sit far enough apart that the window tail at a
    neighboring singularity falls below the mass floor.  Widths of n/2
    cells (1-D) and 3n/4 (2-D, where 32 direction bins need the tighter
    mainlobe) against the n/4 stride satisfy both at desk scales.
    """
    n, d = grid.n, grid.d
    if spec is None:
        spec = FLNormSpec(q=1.0, weight=Weight.power(2.75 if d == 1 else 1.0))
    step = max(1, n // 4)
    positions = tuple(itertools.product(range(0, n, step), repeat=d))
    if d == 1:
        # the top octave holds only the unpaired -n/2 row; stop below it,
        # and keep at least three octaves in range on small grids
        window = WindowSpec("gauss", max(8, n // 2))
        m_hi = int(np.log2(n // 2)) - 1
        octaves = (max(1, min(4, m_hi - 2)), m_hi)
        rel_floor, classical_floor, threshold = 1e-6, 1e-8, 7.0
    else:
        window = WindowSpec("gauss", max(16, (3 * n) // 4))
        m_hi = int(np.log2(n // 2))
        octaves = (max(1, min(3, m_hi - 2)), m_hi)
        rel_floor, classical_floor, threshold = REL_FLOOR, 1e-6, 6.0
    return WavefrontQuery(
        positions=positions,
        directions=directions_for(d, bins),
        window=window,
        aperture=np.pi / 16 if d > 1 else np.pi / 2,
        spec=spec,
        decay_threshold=threshold,
        octaves=octaves,
        rel_floor=rel_floor,
        classical_rel_floor=classical_floor,
    )


# ---------------------------------------------------------------------------
# Annulus statistics and the decay fit
# ---------------------------------------------------------------------------


class _SegmentTable:
    """Every cone's lattice points, grouped into octave bands.

    ``index`` lists, direction after direction, the cone's lattice points
    (origin excluded) as flat positions of the unshifted ``fftn`` output,
    stably sorted into bands: below m_lo, one band per octave m_lo..m_hi,
    above m_hi.  Inside a band the points keep the row-major order of the
    centred lattice.  ``counts`` holds the band sizes, shape
    (directions, octaves + 2); ``starts`` are the offsets of the non-empty
    bands, where one ``reduceat`` over the gathered values begins a sum.
    Cones overlap, so a point may appear under several directions.
    """

    def __init__(self, grid: TorusGrid, directions, aperture, octaves):
        m_lo, m_hi = octaves
        top = m_hi - m_lo + 2
        # origin -> octave -1; every other point has |k| >= 1
        norms = lattice(grid).norms
        octave = np.floor(np.log2(np.maximum(norms, 0.5))).astype(np.int8)
        band = np.clip(octave - (m_lo - 1), 0, top)
        index, counts = [], []
        for direction in directions:
            pts = np.flatnonzero(cone_mask(grid, Cone(direction, aperture)))
            index.append(pts[np.argsort(band[pts], kind="stable")])
            counts.append(np.bincount(band[pts], minlength=top + 1))
        self.grid, self.octaves = grid, octaves
        self.index = _shift_positions(grid)[np.concatenate(index)]
        self.counts = np.array(counts)
        flat = self.counts.ravel()
        self.filled = flat > 0
        self.starts = (np.cumsum(flat) - flat)[self.filled]

    @cached_property
    def centred(self) -> "_SegmentTable":
        """The table over centred-lattice arrays.  Its one user is
        ``modulation.modulation_direction_verdict``, which the benchmark's
        criterion-9c op calls per direction; both go once that op calls
        ``modulation_wavefront`` instead."""
        other = copy.copy(self)
        other.index = _shift_positions(self.grid)[self.index]
        return other


def _shift_positions(grid: TorusGrid) -> np.ndarray:
    """int32 map between flat positions of the centred lattice and of the
    ``fftn`` output, either way (for even n the shift is an involution)."""
    return np.fft.fftshift(np.arange(grid.size, dtype=np.int32).reshape(
        grid.shape)).ravel()


_TABLE_CACHE: dict = {}


def _segment_table(grid: TorusGrid, directions, aperture,
                   octaves) -> _SegmentTable:
    key = (grid.d, grid.n, tuple(tuple(t) for t in directions),
           float(aperture), tuple(octaves))
    if key not in _TABLE_CACHE:
        _TABLE_CACHE[key] = _SegmentTable(grid, *key[2:])
    return _TABLE_CACHE[key]


def _unshifted(grid: TorusGrid, centred: np.ndarray) -> np.ndarray:
    """A new array of centred-lattice values in ``fftn`` order, shape
    ``grid.shape`` (an exact permutation)."""
    return np.fft.ifftshift(centred.reshape(grid.shape))


def _band_reduce(table: _SegmentTable, values: np.ndarray, q: float,
                 scratch=None) -> np.ndarray:
    """Per (direction, band): sum of |values|^q, or max at q=inf; 0 if empty.

    ``values`` are in ``fftn`` order (centred for ``table.centred``).
    ``scratch``, two float arrays of the sizes of ``values`` and
    ``table.index``, receives |values| and the gathered terms in place of
    new arrays.
    """
    mags, terms = scratch or (None, None)
    mags = np.abs(values.reshape(-1), out=mags)
    # the index is in range; unlike "raise", "clip" writes straight to out
    terms = np.take(mags, table.index, out=terms, mode="clip")
    out = np.zeros(table.counts.size)
    if np.isinf(q):
        out[table.filled] = np.maximum.reduceat(terms, table.starts)
    else:
        terms **= q
        out[table.filled] = np.add.reduceat(terms, table.starts)
    return out.reshape(table.counts.shape)


def annulus_averages(table: _SegmentTable, raw_bands: np.ndarray,
                     bands: np.ndarray, q: float):
    """Annulus statistics of every cone in the table at once.

    Takes the ``_band_reduce`` sums of the unweighted and the weighted
    coefficients.  Returns (raw_avgs, avgs, seminorms): the
    count-normalized l^q annulus averages of each (max at q=inf), of
    shape (directions, octaves) with NaN where the annulus is empty, and
    the weighted l^q norm over each whole cone (0 for an empty cone).
    """
    inner = table.counts[:, 1:-1]

    def averages(bands):
        bands = bands[:, 1:-1]
        if not np.isinf(q):
            bands = (bands / np.maximum(inner, 1)) ** (1.0 / q)
        return np.where(inner > 0, bands, np.nan)

    seminorms = (bands.max(axis=1) if np.isinf(q)
                 else bands.sum(axis=1) ** (1.0 / q))
    return averages(raw_bands), averages(bands), seminorms


def fit_decay_slope(averages: np.ndarray, usable: np.ndarray, octaves):
    """LSQ slopes of log2(average) vs octave, one per row.

    ``averages`` and ``usable`` have shape (directions, octaves); an
    annulus enters its row's fit when it is usable and its average is
    positive.  Returns (slopes, used): the slopes, NaN where fewer than
    two annuli carry content, and the number of annuli each row fitted.
    The centred least-squares sums add exact zeros at unused annuli, and
    numpy adds fewer than 8 values left to right, so up to 7 octaves a
    slope is bit for bit the fit over its row's used annuli alone.
    """
    ok = usable & (averages > 0)
    used = ok.sum(axis=1)
    slopes = np.full(len(ok), np.nan)
    rows = used >= 2
    if not rows.any():
        return slopes, used
    ok, k = ok[rows], used[rows, None]
    ms = np.where(ok, np.arange(octaves[0], octaves[1] + 1, dtype=float), 0.0)
    logs = np.log2(np.where(ok, averages[rows], 1.0))  # 0 where unused
    dm = np.where(ok, ms - ms.sum(axis=1, keepdims=True) / k, 0.0)
    dl = np.where(ok, logs - logs.sum(axis=1, keepdims=True) / k, 0.0)
    slopes[rows] = (dm * dl).sum(axis=1) / (dm * dm).sum(axis=1)
    return slopes, used


def _fl_bound(d, q) -> float:
    """Largest regular slope under the summability rule."""
    return -((0.0 if np.isinf(q) else d / q) + SLOPE_MARGIN)


def _decide(table: _SegmentTable, spec: np.ndarray, weights, q, floor,
            bound, product: np.ndarray, scratch=None):
    """Verdicts of every table cone on one spectrum ``spec`` (in the
    table's order) under each weight: (regular, slopes, seminorms), each
    of shape (weights, directions).  The verdict kernel of every estimator.

    The unweighted bands are reduced once; per weight, spec * w goes into
    ``product`` (spec itself only for a single weight, else spec is left
    unchanged) and is reduced, while None reuses the unweighted bands.
    Usability is decided on the unweighted averages against ``floor``, so
    it does not move with the weight; the slopes fit the weighted
    averages.  A cone is regular when its slope is <= ``bound``, or
    outright (slope REGULAR_SENTINEL) below two usable annuli: an empty
    cone or an isolated spectral blob, band-limited with no growing tail.
    """
    raw = _band_reduce(table, spec, q, scratch)
    regular = np.empty((len(weights), len(table.counts)), dtype=bool)
    slopes, seminorms = np.empty(regular.shape), np.empty(regular.shape)
    for i, w in enumerate(weights):
        bands = raw if w is None else _band_reduce(
            table, np.multiply(spec, w, out=product), q, scratch)
        raw_avgs, avgs, seminorms[i] = annulus_averages(table, raw, bands, q)
        fit, used = fit_decay_slope(avgs, raw_avgs > floor, table.octaves)
        fitted = used >= 2
        regular[i] = ~fitted | (fit <= bound)
        slopes[i] = np.where(fitted, fit, REGULAR_SENTINEL)
    return regular, slopes, seminorms


# ---------------------------------------------------------------------------
# Reports and the tolerance matcher
# ---------------------------------------------------------------------------


class WavefrontRecord(NamedTuple):
    x0: tuple
    theta: tuple
    verdict: str  # "regular" | "singular"
    slope: float
    seminorm: float


@dataclass(frozen=True, eq=False)
class WavefrontReport:
    """Verdicts of one scan over the query's positions x directions.

    ``singular_mask``, ``slopes`` and ``seminorms`` have shape
    (positions, directions); ``records`` lists the same entries
    position-major, built once on first use.
    """

    grid: TorusGrid
    query: WavefrontQuery
    singular_mask: np.ndarray
    slopes: np.ndarray
    seminorms: np.ndarray
    mode: str = "fl"

    @cached_property
    def cells(self) -> np.ndarray:
        """Scan positions as integer grid indices, shape (positions, d)."""
        return np.array([np.atleast_1d(x) for x in self.query.positions],
                        dtype=int).reshape(-1, self.grid.d)

    @cached_property
    def records(self) -> tuple:
        thetas = [tuple(t) for t in self.query.directions]
        return tuple(
            WavefrontRecord(tuple(x0), theta,
                            "singular" if flag else "regular", slope, semi)
            for x0, flags, slopes, semis in zip(
                self.cells.tolist(), self.singular_mask.tolist(),
                self.slopes.tolist(), self.seminorms.tolist())
            for theta, flag, slope, semi in zip(thetas, flags, slopes, semis)
        )

    def singular(self) -> list:
        return [r for r, flag in zip(self.records, self.singular_mask.flat)
                if flag]

    def verdict_at(self, x0, theta) -> str:
        x0 = tuple(int(c) for c in np.atleast_1d(x0))
        cells = [tuple(c) for c in self.cells.tolist()]
        near = np.all(np.isclose(self.query.directions, theta, atol=1e-9),
                      axis=1)
        if x0 in cells and near.any():
            return self.records[cells.index(x0) * near.size
                                + int(near.argmax())].verdict
        raise KeyError(f"no record at {x0}, {theta}")

    def to_json(self) -> str:
        rows = [
            {
                "x0": list(r.x0),
                "theta": list(r.theta),
                "verdict": r.verdict,
                "slope": r.slope,
                "seminorm": r.seminorm,
            }
            for r in self.records
        ]
        return json.dumps({"mode": self.mode, "records": rows},
                          sort_keys=True)

    def write_csv(self, path: str):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x0", "theta", "verdict", "slope", "seminorm"])
            for r in self.records:
                writer.writerow([
                    " ".join(str(c) for c in r.x0),
                    " ".join(f"{t:.6f}" for t in r.theta),
                    r.verdict, f"{r.slope:.6f}", f"{r.seminorm:.8e}",
                ])


def _merge_singular(r1: WavefrontReport,
                    r2: WavefrontReport) -> WavefrontReport:
    """Union of singular verdicts: singular wherever either report is."""
    take = r2.singular_mask
    return replace(r1, singular_mask=r1.singular_mask | take,
                   slopes=np.where(take, r2.slopes, r1.slopes),
                   seminorms=np.where(take, r2.seminorms, r1.seminorms))


def _nearest_bins(directions, thetas) -> np.ndarray:
    """Index of the direction bin with the largest dot product, per theta."""
    return np.argmax(np.asarray(thetas, dtype=float)
                     @ np.asarray(directions, dtype=float).T, axis=1)


def _reach(report: WavefrontReport, cells, targets, cell_tol, bin_tol,
           support) -> np.ndarray:
    """Scan entries of ``report`` within tolerance of a target entry.

    ``targets`` is a (len(cells), directions) mask over the report's
    direction bins.  Returns the (positions, directions) mask of entries
    within cell_tol cells of a target's cell and bin_tol bins of its
    direction, under the rule stated in ``report_included_in``.  A
    ``support`` mask over the grid first dilates the cell ball by it.
    """
    grid, n = report.grid, report.grid.n
    delta = (np.indices(grid.shape) + n / 2) % n - n / 2
    ball = np.sqrt(np.sum(delta**2, axis=0)) <= cell_tol
    if support is not None:
        # Minkowski sum ball + support: a cyclic convolution of indicators
        # counts integer overlaps, so > 0.5 is exact
        ball = np.fft.ifftn(np.fft.fftn(ball) * np.fft.fftn(
            support.reshape(grid.shape))).real > 0.5
    diff = (report.cells[:, None, :] - cells[None, :, :]) % n
    near_pos = ball[tuple(np.moveaxis(diff, -1, 0))]
    bins = _nearest_bins(report.query.directions, report.query.directions)
    gap = (bins[:, None] - bins[None, :]) % len(bins)
    near_bin = np.minimum(gap, len(bins) - gap) <= bin_tol
    return (near_pos.astype(int) @ targets.astype(int)
            @ near_bin.astype(int)) > 0


def report_included_in(left: WavefrontReport, right: WavefrontReport,
                       cell_tol: float = 2.0, bin_tol: int = 1,
                       support: np.ndarray | None = None) -> dict:
    """Check singular(left) within (cell_tol, bin_tol) of singular(right).

    The tolerance rule of every verdict match in flwave: an entry at
    (x, theta) is matched by one at (y, eta) when the periodic Euclidean
    distance between the grid cells x and y (``TorusGrid.cell_distance``)
    is at most cell_tol, and the nearest direction bins of theta and eta
    lie at most bin_tol bins apart around the circle of bins.  Every
    singular verdict on the left must be matched by a right-side singular
    verdict.  A ``support`` mask over the grid cells shifts each right
    cell by every support cell first (the set supp + WF of a
    convolution).  Both reports must come from one grid, positions and
    directions (ValueError otherwise).  Returns {"holds", "violations"},
    the violations in record order.
    """
    if left.grid != right.grid or \
            not np.array_equal(left.cells, right.cells) or \
            not np.array_equal(left.query.directions, right.query.directions):
        raise ValueError(
            "reports were scanned at different positions or directions")
    near = _reach(left, right.cells, right.singular_mask, cell_tol, bin_tol,
                  support)
    violations = [{"x0": list(r.x0), "theta": list(r.theta)}
                  for r, bad in zip(left.records,
                                    (left.singular_mask & ~near).flat) if bad]
    return {"holds": not violations, "violations": violations}


def oracle_recovery(report: WavefrontReport, components, cell_tol,
                    bin_tol) -> tuple:
    """(missed components, extra singular records) against an oracle.

    A component (``cells``, and ``directions`` as vectors or "all") is
    found when a singular verdict matches one of its cells and directions
    under the ``report_included_in`` rule; a singular verdict that no
    component matches is extra.
    """
    singular = report.singular_mask
    covered = np.zeros_like(singular)
    missed = []
    for comp in components:
        cells = np.asarray(comp.cells, dtype=int).reshape(-1, report.grid.d)
        targets = np.zeros((len(cells), singular.shape[1]), dtype=bool)
        if comp.directions == "all":
            targets[:] = True
        else:
            targets[:, _nearest_bins(report.query.directions,
                                     comp.directions)] = True
        reach = _reach(report, cells, targets, cell_tol, bin_tol, None)
        if not np.any(reach & singular):
            missed.append(comp)
        covered |= reach
    extras = [r for r, bad in zip(report.records, (singular & ~covered).flat)
              if bad]
    return missed, extras


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------


def regular_directions(f: Signal, spec: FLNormSpec, aperture: float,
                       direction_count: int = 32, octaves=None) -> dict:
    """Partition direction bins of a (pre-windowed) signal into Theta/Sigma.

    The caller is responsible for localizing f first; this routine only
    reads the global spectrum.  Returns {"theta": [...], "sigma": [...],
    "slopes": {direction: slope}}.
    """
    grid = f.grid
    dirs = directions_for(grid.d, direction_count)
    if octaves is None:
        m_hi = int(np.log2(grid.n // 2))
        octaves = (max(1, m_hi - 3), m_hi)
    coeffs = _unshifted(grid, forward_transform(f).coeffs)
    [regular], [slopes], _ = _decide(
        _segment_table(grid, dirs, aperture, octaves), coeffs,
        [_unshifted(grid, spec.weight.on_lattice(grid))], spec.q,
        REL_FLOOR * f.peak_off_origin, _fl_bound(grid.d, spec.q), coeffs)
    return {"theta": [t for t, ok in zip(dirs, regular) if ok],
            "sigma": [t for t, ok in zip(dirs, regular) if not ok],
            "slopes": dict(zip(dirs, slopes.tolist()))}


def _scan(f: Signal, query: WavefrontQuery, mode: str,
          spectra=None) -> WavefrontReport:
    """Scan in ``mode`` "fl", "classical" or "modulation".

    ``spectra`` yields one array of shape ``grid.shape`` per query
    position, in ``fftn`` order (default: ``windowed_spectra`` of f); the
    kernel weights each in place once its unweighted bands are reduced.
    """
    grid = f.grid
    query.validate(grid)
    classical = mode == "classical"
    if classical and query.octaves[1] - query.octaves[0] + 1 < 3:
        raise ValueError("classical scan needs at least 3 octaves")
    if classical:
        rel = query.classical_rel_floor
        q, w, bound = np.inf, None, -query.decay_threshold
    else:
        rel, q = query.rel_floor, query.spec.q
        w = _unshifted(grid, query.spec.weight.on_lattice(grid))
        bound = _fl_bound(grid.d, q)
    # global reference scale: the floor must not depend on how much of the
    # signal the window catches, or far-away windows see pure noise
    floor = rel * f.peak_off_origin
    table = _segment_table(grid, query.directions, query.aperture,
                           query.octaves)
    if spectra is None:
        spectra = windowed_spectra(f, origin_window(grid, query.window),
                                   query.positions)
    scratch = (np.empty(grid.size), np.empty(table.index.size))
    shape = (len(query.positions), len(query.directions))
    regular, slopes, seminorms = (np.empty(shape, dtype=bool),
                                  np.empty(shape), np.empty(shape))
    for i, spec in enumerate(spectra):
        regular[i], slopes[i], seminorms[i] = _decide(
            table, spec, [w], q, floor, bound, spec, scratch)
    return WavefrontReport(grid, query, ~regular, slopes, seminorms, mode)


def estimate_wavefront(f: Signal, query: WavefrontQuery) -> WavefrontReport:
    """Fourier-Lebesgue wave-front scan over (position, direction) pairs."""
    return _scan(f, query, "fl")


def _scan_at_order(f: Signal, q, s) -> WavefrontReport:
    """FL scan of f with its grid's default query at the weight <k>^s."""
    spec = FLNormSpec(q, Weight.power(float(s)))
    return estimate_wavefront(f, default_query(f.grid, spec))


def classical_wavefront(f: Signal, query: WavefrontQuery) -> WavefrontReport:
    """Rapid-decay (C^infinity) scan: regular iff decay order >= threshold."""
    return _scan(f, query, "classical")


def superior_scan(f: Signal, query: WavefrontQuery, s_list) -> dict:
    """Largest weight order passing at each (position, direction).

    Two variants per scan point:

    * ``fixed``: one window and one cone serve every order in s_list;
      the pass set is monotone (a down-set) because the fitted slope is
      increasing in s while the threshold stays put.
    * ``adaptive``: each order may shrink the window and the cone; passes
      when any configuration in a dyadic ladder does.  This realizes the
      exists-a-cutoff/exists-a-cone reading, which can pass strictly more
      orders than the fixed variant.
    """
    s_list = list(s_list)
    if not s_list:
        raise ValueError("s_list must be non-empty")
    if any(b > a for a, b in zip(s_list[1:], s_list)):
        raise ValueError("s_list must be ascending")
    grid = f.grid
    query.validate(grid)
    q = query.spec.q
    bound = _fl_bound(grid.d, q)
    floor = query.rel_floor * f.peak_off_origin
    ladders = [(1.0, 1.0), (0.5, 1.0), (0.25, 1.0)]
    if grid.d > 1:
        ladders += [(1.0, 0.5), (0.5, 0.5)]
    # one spectrum stream per width factor, one table per aperture factor
    spectra = {wf: windowed_spectra(
        f, origin_window(grid, query.window.narrowed(wf)), query.positions)
        for wf, _ in ladders}
    tables = {af: _segment_table(grid, query.directions,
                                 query.aperture * af, query.octaves)
              for _, af in ladders}
    weights = [_unshifted(grid, Weight.power(float(s)).on_lattice(grid))
               for s in s_list]
    mags, weighted = np.empty(grid.size), np.empty(grid.shape, dtype=complex)
    scratch = {af: (mags, np.empty(table.index.size))
               for af, table in tables.items()}
    out = {}
    for x0, *specs in zip(query.positions, *spectra.values()):
        coeffs = dict(zip(spectra, specs))
        # passes[ladder, order, direction]; ladder 0 is the fixed variant
        passes = np.array([_decide(tables[af], coeffs[wf], weights, q, floor,
                                   bound, weighted, scratch[af])[0]
                           for wf, af in ladders])
        cell = tuple(int(c) for c in np.atleast_1d(x0))
        for i, direction in enumerate(query.directions):
            fixed = passes[0, :, i].tolist()
            adaptive = passes[:, :, i].any(axis=0).tolist()
            out[(cell, tuple(direction))] = {
                "s_list": s_list, "fixed_pass": fixed,
                "adaptive_pass": adaptive,
                "fixed_max_index": _last_true_prefix(fixed),
                "adaptive_max_index": _last_true_prefix(adaptive)}
    return out


def _last_true_prefix(flags) -> int:
    return (list(flags) + [False]).index(False) - 1


# ---------------------------------------------------------------------------
# Cone-split decomposition
# ---------------------------------------------------------------------------


def split_regular(f: Signal, x0, cone: Cone, spec: FLNormSpec,
                  inner_window: WindowSpec, outer_window: WindowSpec):
    """Split the outer-localized signal into a cone part and a remainder.

    g carries the full spectral mass of outer*f inside the cone (so its
    FL norm is finite by construction) and h = outer*f - g has spectrum
    identically zero on the cone.  The inner window must live where the
    outer one is flat at 1, so that inner*(outer*f) == inner*f.
    """
    grid = f.grid
    outer_vals = window_values(grid, outer_window, x0)
    inner_vals = window_values(grid, inner_window, x0)
    support = inner_vals > 1e-15
    if np.any(np.abs(outer_vals[support] - 1.0) > 1e-12):
        raise ValueError("inner window must sit where the outer window is 1")
    localized = Signal(grid, f.values * outer_vals)
    coeffs = forward_transform(localized).coeffs
    g = inverse_transform(Spectrum(grid, np.where(cone_mask(grid, cone),
                                                  coeffs, 0.0)))
    return g, localized - g
