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
window to each position.

Every estimator (``estimate_wavefront``, ``classical_wavefront``,
``superior_scan``, ``regular_directions`` and both modulation verdicts)
reduces a spectrum through one kernel, ``_band_sums``: its |F| is
gathered once into table order and reduced by one ``reduceat`` over the
band starts.  A weight w > 0 is real, so |F w|^q = |F|^q w^q: each
weight is gathered into table order once per scan (``_weight_terms``),
and its w^q multiplies the gathered terms before a second ``reduceat``
(a classical scan reuses the first reduction).  ``_verdicts`` turns the
band sums into the averages and cone seminorms, one array fit and one
array verdict: a scan keeps every position's sums and decides all of its
(position, direction) cones in one call, and the single-spectrum
estimators decide one spectrum under each of their weights.

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
REGULAR_SENTINEL = -99.0  # slope recorded when the floor rule decides
CELL_TOL = 2.0  # verdict matches (report_included_in): grid cells ...
BIN_TOL = 1  # ... and direction bins, the windowed estimator's blur


@dataclass(frozen=True)
class WavefrontQuery:
    """Scan configuration for the wave-front estimators."""

    positions: tuple  # grid index vectors
    directions: tuple  # unit vectors
    window: WindowSpec
    aperture: float
    spec: FLNormSpec
    decay_threshold: float  # classical T
    octaves: tuple  # inclusive fit range [m_lo, m_hi]
    rel_floor: float
    classical_rel_floor: float

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
        """The table over centred-lattice arrays: its ``index`` gathers the
        same points, in the same order, from arrays in ``lattice`` order.
        Scans gather their weights (``Weight.on_lattice``) through it;
        ``regular_directions`` and ``modulation_direction_verdict`` decide
        centred spectra on it, the latter evaluating its weight on the
        gathered points alone."""
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


def _band_sums(table: _SegmentTable, spec: np.ndarray, weights, q: float):
    """Per (direction, band) sums of one spectrum's cone terms: the sum of
    |F|^q, or the max at q=inf; 0 if the band is empty.

    ``spec`` is in ``fftn`` order (centred for ``table.centred``) and is
    not written.  Its |F| is gathered once into table order and reduced
    as the raw bands, shape (directions, octaves + 2).  Each weight is a
    ``_weight_terms`` array in table order that multiplies the gathered
    terms (|F w|^q = |F|^q w^q for w > 0) before its own reduction; None
    reuses the raw bands.  Returns (raw, bands), bands of shape (weights,
    directions, octaves + 2).
    """
    terms = np.take(np.abs(spec.reshape(-1)), table.index)
    if np.isinf(q):
        reduceat = np.maximum.reduceat
    else:
        reduceat = np.add.reduceat
        terms **= q

    def reduce(values):
        out = np.zeros(table.counts.size)
        out[table.filled] = reduceat(values, table.starts)
        return out.reshape(table.counts.shape)

    raw = reduce(terms)
    return raw, np.array([
        raw if w is None else reduce(terms * w)
        for w in weights])


def _weight_terms(w: np.ndarray, q: float) -> np.ndarray:
    """Weight values gathered into a table's order, as the factors of its
    gathered terms: w^q, or w itself at q=inf (the max of |F| w)."""
    return w if np.isinf(q) else w**q


def annulus_averages(table: _SegmentTable, raw_bands: np.ndarray,
                     bands: np.ndarray, q: float):
    """Annulus statistics of every cone in the table at once.

    Takes ``_band_sums`` sums of the unweighted and the weighted terms,
    each of shape (..., directions, octaves + 2).  Returns (raw_avgs,
    avgs, seminorms): the count-normalized l^q annulus averages of each
    (max at q=inf), of shape (..., directions, octaves) with NaN where the
    annulus is empty, and the weighted l^q norm over each whole cone (0
    for an empty cone).
    """
    inner = table.counts[:, 1:-1]

    def averages(bands):
        bands = bands[..., 1:-1]
        if not np.isinf(q):
            bands = (bands / np.maximum(inner, 1)) ** (1.0 / q)
        return np.where(inner > 0, bands, np.nan)

    seminorms = (bands.max(axis=-1) if np.isinf(q)
                 else bands.sum(axis=-1) ** (1.0 / q))
    return averages(raw_bands), averages(bands), seminorms


def fit_decay_slope(averages: np.ndarray, usable: np.ndarray, octaves):
    """LSQ slopes of log2(average) vs octave, one per row.

    ``averages`` has shape (..., octaves), one row per cone, and
    ``usable`` broadcasts against it; an annulus enters its row's fit
    when it is usable and its average is positive.  Returns (slopes,
    used), of shape (...): the slopes, NaN where fewer than two annuli
    carry content, and the number of annuli each row fitted.  The
    centred least-squares sums add exact zeros at unused annuli, and
    numpy adds fewer than 8 values left to right, so up to 7 octaves a
    slope is bit for bit the fit over its row's used annuli alone, however
    many rows are fitted together.
    """
    ok = usable & (averages > 0)
    used = ok.sum(axis=-1)
    slopes = np.full(used.shape, np.nan)
    rows = used >= 2
    if not rows.any():
        return slopes, used
    ok, k = ok[rows], used[rows][:, None]
    ms = np.where(ok, np.arange(octaves[0], octaves[1] + 1, dtype=float), 0.0)
    logs = np.log2(np.where(ok, averages[rows], 1.0))  # 0 where unused
    dm = np.where(ok, ms - ms.sum(axis=1, keepdims=True) / k, 0.0)
    dl = np.where(ok, logs - logs.sum(axis=1, keepdims=True) / k, 0.0)
    slopes[rows] = (dm * dl).sum(axis=1) / (dm * dm).sum(axis=1)
    return slopes, used


def _fl_bound(d, q) -> float:
    """Largest regular slope under the summability rule."""
    return -(d / q + SLOPE_MARGIN)


def _verdicts(table: _SegmentTable, raw: np.ndarray, bands: np.ndarray, q,
              floor, bound):
    """(regular, slopes, seminorms) of ``_band_sums`` sums: raw of shape
    (..., directions, octaves + 2) and bands broadcasting against it, the
    verdicts of shape (..., directions) after the bands' shape.

    Usability is decided on the unweighted averages against ``floor``, so
    it does not move with the weight; the slopes fit the weighted
    averages.  A cone is regular when its slope is <= ``bound``, or
    outright (slope REGULAR_SENTINEL) below two usable annuli: an empty
    cone or an isolated spectral blob, band-limited with no growing tail.
    """
    raw_avgs, avgs, seminorms = annulus_averages(table, raw, bands, q)
    fit, used = fit_decay_slope(avgs, raw_avgs > floor, table.octaves)
    fitted = used >= 2
    return (~fitted | (fit <= bound), np.where(fitted, fit, REGULAR_SENTINEL),
            seminorms)


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
        """One record per entry; a position's records share one x0 tuple
        and every position's share the direction tuples."""
        thetas = [tuple(t) for t in self.query.directions]
        return tuple(
            WavefrontRecord(x0, theta, "singular" if flag else "regular",
                            slope, semi)
            for x0, flags, slopes, semis in zip(
                map(tuple, self.cells.tolist()), self.singular_mask.tolist(),
                self.slopes.tolist(), self.seminorms.tolist())
            for theta, flag, slope, semi in zip(thetas, flags, slopes, semis)
        )

    def rows(self) -> list:
        """``records`` as JSON objects: the records of ``to_json`` and of
        ``flwave wavefront``'s report."""
        return [{"x0": list(r.x0), "theta": list(r.theta),
                 "verdict": r.verdict, "slope": r.slope,
                 "seminorm": r.seminorm} for r in self.records]

    def singular(self) -> list:
        return [r for r, flag in zip(self.records, self.singular_mask.flat)
                if flag]

    def to_json(self) -> str:
        return json.dumps({"mode": self.mode, "records": self.rows()},
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
    grid = report.grid
    ball = (grid.distances() <= cell_tol).reshape(grid.shape)
    if support is not None:
        # Minkowski sum ball + support: a cyclic convolution of indicators
        # counts integer overlaps, so > 0.5 is exact
        ball = np.fft.ifftn(np.fft.fftn(ball) * np.fft.fftn(
            support.reshape(grid.shape))).real > 0.5
    near_pos = ball.ravel()[grid.flat(report.cells[:, None, :]
                                      - cells[None, :, :])]
    bins = _nearest_bins(report.query.directions, report.query.directions)
    gap = (bins[:, None] - bins[None, :]) % len(bins)
    near_bin = np.minimum(gap, len(bins) - gap) <= bin_tol
    return (near_pos.astype(int) @ targets.astype(int)
            @ near_bin.astype(int)) > 0


def report_included_in(left: WavefrontReport, right: WavefrontReport,
                       cell_tol: float = CELL_TOL, bin_tol: int = BIN_TOL,
                       support: np.ndarray | None = None) -> dict:
    """Check singular(left) within (cell_tol, bin_tol) of singular(right).

    The tolerance rule of every verdict match in flwave: an entry at
    (x, theta) is matched by one at (y, eta) when the periodic Euclidean
    distance between the grid cells x and y (``TorusGrid.distances``) is
    at most cell_tol, and the nearest direction bins of theta and eta
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


def oracle_recovery(report: WavefrontReport, components, cell_tol=CELL_TOL,
                    bin_tol=BIN_TOL) -> tuple:
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

    The direction split of the wave-front definition: Theta holds the
    directions whose cone seminorm of the localized f decays at the
    weight's order, Sigma the rest, and WF at x0 is the complement of the
    union of the Thetas.  The caller is responsible for localizing f
    first; this routine only reads the global spectrum.  Returns
    {"theta": [...], "sigma": [...], "slopes": {direction: slope}}.
    """
    grid = f.grid
    dirs = directions_for(grid.d, direction_count)
    if octaves is None:
        m_hi = int(np.log2(grid.n // 2))
        octaves = (max(1, m_hi - 3), m_hi)
    table = _segment_table(grid, dirs, aperture, octaves).centred
    w = _weight_terms(spec.weight.on_lattice(grid)[table.index], spec.q)
    [regular], [slopes], _ = _verdicts(
        table, *_band_sums(table, forward_transform(f).coeffs, [w], spec.q),
        spec.q, REL_FLOOR * f.peak_off_origin, _fl_bound(grid.d, spec.q))
    return {"theta": [t for t, ok in zip(dirs, regular) if ok],
            "sigma": [t for t, ok in zip(dirs, regular) if not ok],
            "slopes": dict(zip(dirs, slopes.tolist()))}


def _scan(f: Signal, query: WavefrontQuery, mode: str,
          spectra=None) -> WavefrontReport:
    """Scan in ``mode`` "fl", "classical" or "modulation".

    ``spectra`` yields one array of shape ``grid.shape`` per query
    position, in ``fftn`` order (default: ``windowed_spectra`` of f).  Each
    position's band sums are kept, and one ``_verdicts`` call fits every
    (position, direction) cone at once.
    """
    grid = f.grid
    query.validate(grid)
    classical = mode == "classical"
    if classical and query.octaves[1] - query.octaves[0] + 1 < 3:
        raise ValueError("classical scan needs at least 3 octaves")
    table = _segment_table(grid, query.directions, query.aperture,
                           query.octaves)
    if classical:
        rel = query.classical_rel_floor
        q, w, bound = np.inf, None, -query.decay_threshold
    else:
        rel, q = query.rel_floor, query.spec.q
        w = _weight_terms(query.spec.weight.on_lattice(grid)[
            table.centred.index], q)
        bound = _fl_bound(grid.d, q)
    # global reference scale: the floor must not depend on how much of the
    # signal the window catches, or far-away windows see pure noise
    floor = rel * f.peak_off_origin
    if spectra is None:
        spectra = windowed_spectra(f, origin_window(grid, query.window),
                                   query.positions)
    raw = np.empty((len(query.positions), *table.counts.shape))
    bands = np.empty_like(raw)
    for i, spec in enumerate(spectra):
        raw[i], [bands[i]] = _band_sums(table, spec, [w], q)
    regular, slopes, seminorms = _verdicts(table, raw, bands, q, floor,
                                           bound)
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
    lattice_weights = [Weight.power(float(s)).on_lattice(grid)
                       for s in s_list]
    weights = {af: [_weight_terms(w[table.centred.index], q)
                    for w in lattice_weights]
               for af, table in tables.items()}
    out = {}
    for x0, *specs in zip(query.positions, *spectra.values()):
        coeffs = dict(zip(spectra, specs))
        # passes[ladder, order, direction]; ladder 0 is the fixed variant
        passes = np.array([_verdicts(
            tables[af], *_band_sums(tables[af], coeffs[wf], weights[af], q),
            q, floor, bound)[0] for wf, af in ladders])
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


def split_regular(f: Signal, x0, cone: Cone, inner_window: WindowSpec,
                  outer_window: WindowSpec):
    """Split the outer-localized signal into a cone part and a remainder.

    The cone split of the product wave-front proofs: a localized factor
    is written as g + h, with g carrying the full spectral mass of
    outer*f inside the cone (so every weighted FL norm of g is finite on
    the lattice) and h = outer*f - g spectrally zero on the cone.  The
    inner window must live where the outer one is flat at 1, so that
    inner*(outer*f) == inner*f.
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
