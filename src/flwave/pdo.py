"""Discrete symbol calculus and microlocal transport checks.

Symbols a(x, k) act through the standard quantization

    (a(x,D) f)(x_j) = (2 pi)^(-d/2) sum_k a(x_j, k) F(k) e^(i k.x_j)

which reduces to an exact Fourier multiplier when a is x-independent and
to pointwise multiplication when a is frequency-independent.

``transport_check`` scans f and Af at their orders with the grid's
default query (``wavefront._scan_at_order``), matches singular sets
under ``report_included_in``'s default tolerance, and marks the
characteristic scan points, where the lower bound |a| > 0.1 |k|^m beyond
|k| = 4 fails, in one (positions x directions) mask: one symbol
evaluation per position, one in total for a multiplier.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .cones import Cone, cone_mask
from .grid import Signal, Spectrum, TorusGrid, _read_json_object, \
    forward_transform, inverse_transform, kernel_size, lattice
from .wavefront import _scan_at_order, report_included_in

__all__ = [
    "Symbol",
    "multiplier_symbol",
    "quantize_apply",
    "noncharacteristic_at",
    "char_set_scan",
    "transport_check",
    "parse_symbol",
]

TWO_PI = 2.0 * np.pi
CHAR_C, CHAR_R = 0.1, 4.0  # transport's lower bound |a| > c |k|^m, |k| > R


@dataclass(frozen=True)
class Symbol:
    """Symbol of order m with an evaluator a(x, k).

    ``evaluator`` maps (points, freqs) arrays of shapes (N, d), (M, d) to
    an (N, M) array.  x-independent symbols may set ``multiplier`` for
    the fast path.
    """

    order: float
    evaluator: object = field(repr=False)
    x_independent: bool = False
    label: str = "symbol"

    def on_lattice(self, grid: TorusGrid) -> np.ndarray:
        """Multiplier values a(k) for x-independent symbols."""
        if not self.x_independent:
            raise ValueError("symbol depends on x; no single multiplier")
        ks = lattice(grid).points.astype(float)
        return np.ravel(self.evaluator(np.zeros((1, grid.d)), ks))

    def table(self, grid: TorusGrid) -> np.ndarray:
        """Dense a(x_j, k) over grid x lattice (``kernel_size`` guards it)."""
        N = kernel_size(grid)
        return np.asarray(self.evaluator(
            grid.sample_points(), lattice(grid).points.astype(float)
        )).reshape(N, N)


def multiplier_symbol(order: float, func, label: str = "multiplier") -> Symbol:
    """x-independent symbol from a function of the frequency array."""

    def evaluator(xs, ks):
        vals = np.asarray(func(np.atleast_2d(ks)), dtype=complex)
        return np.broadcast_to(vals, (np.atleast_2d(xs).shape[0], vals.size))

    return Symbol(order=order, evaluator=evaluator, x_independent=True,
                  label=label)


def quantize_apply(a: Symbol, f: Signal) -> Signal:
    """Apply a(x, D) to a signal."""
    grid = f.grid
    coeffs = forward_transform(f).coeffs
    pref = TWO_PI ** (-grid.d / 2.0)
    if a.x_independent:
        # multiplier path: modify coefficients, invert exactly
        return inverse_transform(Spectrum(grid, coeffs * a.on_lattice(grid)))
    table = a.table(grid)
    pts = grid.sample_points()
    ks = lattice(grid).points.astype(float)
    phases = np.exp(1j * pts @ ks.T)  # e^(i k.x_j), (n^d, n^d)
    return Signal(grid, pref * np.sum(table * phases * coeffs[None, :],
                                      axis=1))


def noncharacteristic_at(a: Symbol, x0, direction, c: float, R: float,
                         aperture: float, grid: TorusGrid) -> bool:
    """One entry of ``char_set_scan``, negated: |a| > c |k|^m holds."""
    return not char_set_scan(a, [x0], [direction], c, R, aperture, grid)[0, 0]


def char_set_scan(a: Symbol, positions, directions, c: float, R: float,
                  aperture: float, grid: TorusGrid) -> np.ndarray:
    """(positions, directions) mask, True where |a(x, k)| > c |k|^m fails
    on the direction's cone beyond radius R at a cell within n/16 cells of
    the position (``TorusGrid.distances``): one symbol evaluation per
    position, one for a multiplier."""
    if R >= grid.n // 2:
        raise ValueError(f"R = {R} leaves no testable frequencies (n = {grid.n})")
    lat = lattice(grid)
    beyond = lat.norms > R
    cones = np.array([cone_mask(grid, Cone(tuple(t), aperture))[beyond]
                      for t in directions])
    if not np.all(np.any(cones, axis=1)):
        raise ValueError("no lattice frequencies in the test cone")
    ks = lat.points[beyond].astype(float)
    bound = c * lat.norms[beyond] ** a.order
    pts = grid.sample_points()

    def flags(xs):
        vals = np.abs(np.asarray(a.evaluator(xs, ks)))
        return np.any(cones & ~np.all(vals > bound, axis=0), axis=1)

    if a.x_independent:
        # a multiplier's rows are all equal: one point serves every position
        return np.repeat([flags(pts[:1])], len(positions), axis=0)
    return np.array([flags(pts[grid.distances(x0) <= grid.n / 16.0])
                     for x0 in np.reshape(positions, (-1, grid.d))],
                    dtype=bool).reshape(-1, len(cones))


def transport_check(a: Symbol, f: Signal, q: float, s: float) -> dict:
    """Microlocal transport of wave fronts under the operator.

    Three verdict-level reports: the operator cannot create singularities
    (WF of Af at order s-m inside WF of f at s); at non-characteristic
    scan points, regularity of Af at s-m forces regularity of f at s; and
    the union form WF_s(f) within WF_s(Af) plus the characteristic set.
    """
    Af = quantize_apply(a, f)
    rep_f = _scan_at_order(f, q, s)
    rep_Af = _scan_at_order(Af, q, s - a.order)
    forward = report_included_in(rep_Af, rep_f)

    query = rep_f.query
    char = char_set_scan(a, query.positions, query.directions, CHAR_C,
                         CHAR_R, query.aperture, f.grid)
    # Af regular at a point and no singular Af nearby is exactly "no
    # singular Af within tolerance": the neighbourhood holds the point
    off_char = replace(rep_f, singular_mask=rep_f.singular_mask & ~char)
    lift = report_included_in(off_char, rep_Af)
    union = report_included_in(off_char, _scan_at_order(Af, q, s))
    return {
        "forward_holds": forward["holds"],
        "forward_violations": forward["violations"],
        "lift_holds": lift["holds"],
        "lift_violations": lift["violations"],
        "union_holds": union["holds"],
        "union_violations": union["violations"],
        "char_points": sorted((r.x0, r.theta) for r, flag
                              in zip(rep_f.records, char.flat) if flag),
    }


def parse_symbol(text: str, grid: TorusGrid) -> Symbol:
    """CLI symbol syntax: "poly:c0,c1,..." (polynomial in |k|),
    "laplace+1", "dx1", or "table:<path>" (JSON {order, values})."""
    if text == "laplace+1":
        return multiplier_symbol(
            2.0, lambda ks: 1.0 + np.sum(ks**2, axis=-1), "laplace+1")
    if text == "dx1":
        return multiplier_symbol(1.0, lambda ks: ks[:, 0], "dx1")
    if text.startswith("poly:"):
        coeffs = [float(c) for c in text[5:].split(",")]

        def func(ks):
            mag = np.sqrt(np.sum(ks**2, axis=-1))
            out = np.zeros(ks.shape[0], dtype=complex)
            for power, cv in enumerate(coeffs):
                out += cv * mag**power
            return out

        return multiplier_symbol(float(len(coeffs) - 1), func, text)
    if text.startswith("table:"):
        payload = _read_json_object(text[6:], ("values",))
        vals = np.asarray(payload["values"], dtype=complex)
        table = vals.reshape(grid.size, grid.size)

        def evaluator(xs, ks, _table=table, _grid=grid):
            # exact-grid x and lattice k only
            ks, cells = np.atleast_2d(ks), np.atleast_2d(xs) / _grid.h
            for vals, kind in ((ks, "lattice frequencies"),
                               (cells, "grid points")):
                if np.any(np.abs(np.rint(vals) - vals) > 1e-9):
                    raise ValueError(f"table symbol defined on {kind} only")
            cols = lattice(_grid).index_of(np.rint(ks).astype(int))
            rows = _grid.flat(np.rint(cells).astype(int))
            return _table[np.ix_(rows, cols)]

        return Symbol(order=float(payload.get("order", 0.0)),
                      evaluator=evaluator, label=text)
    raise ValueError(f"cannot parse symbol spec {text!r}")
