"""Norm-bound certification and wave-front inclusions for products
and convolutions.

The l^1-regime bounds are exact lattice theorems (discrete Young and
Hoelder carry constant one), so those checks certify hard inequalities.
Each norm check is written once, as ``*_rows`` over row stacks ((T, n^d)
sample values, one instance per row); ``*_check`` runs it on one row.
The critical-index product bounds have non-constructive constants; they
are reported together with an n-doubling stability diagnostic.  The
wave-front checks scan each side at its stated order with the grid's
default query (``wavefront._scan_at_order``) and match the singular
sets under ``report_included_in``'s default tolerance of two cells and
one direction bin, the blur of the windowed estimator.
"""

from __future__ import annotations

import numpy as np

from .bilinear import conjugate_exponent, d_over_conjugate
from .grid import Signal, Spectrum, TorusGrid, _check_same_grid, \
    _convolve_rows, cyclic_convolve, forward_transform, inverse_transform, \
    lattice
from .norms import FLNormSpec, _fl_rows, _ratio
from .wavefront import (
    _merge_singular,
    _scan_at_order,
    default_query,
    estimate_wavefront,
    report_included_in,
)
from .weights import Weight

__all__ = [
    "moderation_constant",
    "product_norm_check",
    "convolve_norm_check",
    "product_critical_norm_check",
    "algebra_check",
    "wf_convolution_check",
    "wf_product_check",
    "wf_derivative_check",
]

TWO_PI = 2.0 * np.pi


def moderation_constant(grid: TorusGrid, w: Weight, w1: Weight, w2: Weight,
                        wrapped: bool) -> float:
    """Scan of max w(k+l) / (w1(k) w2(l)) over all lattice pairs.

    With ``wrapped`` the sum k+l is reduced onto the centered lattice,
    matching the spectral convolution of the pointwise product; plain
    sums match the convolution bound (same-argument weights).
    """
    lat = lattice(grid)
    pts = lat.points
    sums = pts[:, None, :] + pts[None, :, :]
    if wrapped:
        sums = grid.wrap(sums)
    num = w.evaluate_points(sums.reshape(-1, grid.d)).reshape(len(pts), -1)
    den = w1.evaluate_points(pts)[:, None] * w2.evaluate_points(pts)[None, :]
    return float(np.max(num / den))


def _one_row(signals, rows, *args) -> dict:
    """The report of a ``*_rows`` check on one instance, as plain floats."""
    for f in signals[1:]:
        _check_same_grid(signals[0].grid, f.grid)
    rep = rows(signals[0].grid, *(f.values[None] for f in signals), *args)
    return {k: tuple(float(a[0]) for a in v) if isinstance(v, tuple)
            else float(v[0]) if isinstance(v, np.ndarray) else v
            for k, v in rep.items()}


def product_norm_check(f1: Signal, f2: Signal, q, q1, q2,
                       w: Weight, w1: Weight, w2: Weight) -> dict:
    """Ratio of the product's weighted norm to the factor-norm product.

    Requires the Young-type exponent relation with slack and the weight
    moderation w(k+l) <= C w1(k) w2(l) (scanned with wrap, matching the
    spectral convolution).  In the exact-exponent l^1 regime with C = 1
    the ratio is a lattice theorem: it cannot exceed (2 pi)^(-d/2).
    """
    return _one_row((f1, f2), product_norm_rows, q, q1, q2, w, w1, w2)


def product_norm_rows(grid: TorusGrid, v1, v2, q, q1, q2,
                      w: Weight, w1: Weight, w2: Weight) -> dict:
    """product_norm_check of each row pair of two value stacks."""
    if not 1.0 / q1 + 1.0 / q2 >= 1.0 + 1.0 / q - 1e-12:
        raise ValueError("exponents must satisfy 1/q1 + 1/q2 >= 1 + 1/q")
    c_scan = moderation_constant(grid, w, w1, w2, wrapped=True)
    lhs = _fl_rows(grid, v1 * v2, FLNormSpec(q, w))
    n1 = _fl_rows(grid, v1, FLNormSpec(q1, w1))
    n2 = _fl_rows(grid, v2, FLNormSpec(q2, w2))
    return {"ratio": _ratio(lhs, n1 * n2), "C_scan": c_scan, "lhs": lhs,
            "factor_norms": (n1, n2),
            "exact_regime": q == 1 and q1 == 1 and q2 == 1
            and c_scan <= 1 + 1e-12}


def convolve_norm_check(f1: Signal, f2: Signal, q, q1, q2,
                        w: Weight, w1: Weight, w2: Weight) -> dict:
    """Normalized convolution bound ratio; certified <= 1 on the lattice.

    Preconditions: 1/q1 + 1/q2 = 1/q and w <= C w1 w2 pointwise (same
    argument).  Discrete Hoelder then bounds the normalized ratio by one.
    """
    return _one_row((f1, f2), convolve_norm_rows, q, q1, q2, w, w1, w2)


def convolve_norm_rows(grid: TorusGrid, v1, v2, q, q1, q2,
                       w: Weight, w1: Weight, w2: Weight) -> dict:
    """convolve_norm_check of each row pair of two value stacks."""
    if abs(1.0 / q1 + 1.0 / q2 - 1.0 / q) > 1e-12:
        raise ValueError("exponents must satisfy 1/q1 + 1/q2 = 1/q")
    pts = lattice(grid).points
    c_scan = float(np.max(w.evaluate_points(pts) / (
        w1.evaluate_points(pts) * w2.evaluate_points(pts))))
    lhs = _fl_rows(grid, _convolve_rows(grid, v1, v2), FLNormSpec(q, w))
    n1 = _fl_rows(grid, v1, FLNormSpec(q1, w1))
    n2 = _fl_rows(grid, v2, FLNormSpec(q2, w2))
    denom = (TWO_PI ** (grid.d / 2.0)) * c_scan * n1 * n2
    return {"ratio": _ratio(lhs, denom), "C_scan": c_scan, "lhs": lhs,
            "factor_norms": (n1, n2)}


def product_critical_norm_check(f1: Signal, f2: Signal, q, s1, s2, r,
                                s=None) -> dict:
    """Critical-index product bound ratio with hypothesis echo.

    Defaults s to the critical value s1 + s2 - min(d/q, d/q'); the
    constant is non-constructive, so only the ratio is reported (pair
    with an n-doubling run for the stability diagnostic).
    """
    return _one_row((f1, f2), product_critical_rows, q, s1, s2, r, s)


def product_critical_rows(grid: TorusGrid, v1, v2, q, s1, s2, r,
                          s=None) -> dict:
    """product_critical_norm_check of each row pair of two value stacks."""
    d = grid.d
    dqp = d_over_conjugate(q, d)
    if s is None:
        s = min(s1, s2, s1 + s2 - dqp)
    if q > 2 and r <= d * (1 - 2.0 / q):
        raise ValueError("needs r > d(1 - 2/q) when q > 2")
    if q <= 2 and r != 0:
        raise ValueError("needs r = 0 when q <= 2")
    if s1 + s2 < 0:
        raise ValueError("needs s1 + s2 >= 0")
    if s > min(s1, s2) + 1e-12:
        raise ValueError("needs s <= min(s1, s2)")
    if s > s1 + s2 - dqp + 1e-12:
        raise ValueError("needs s <= s1 + s2 - d/q'")
    lhs = _fl_rows(grid, v1 * v2, FLNormSpec(q, Weight.power(s)))
    n1 = _fl_rows(grid, v1, FLNormSpec(q, Weight.power(s1)))
    n2 = _fl_rows(grid, v2, FLNormSpec(q, Weight.power(s2 + r)))
    return {"ratio": _ratio(lhs, n1 * n2), "s": s,
            "hypotheses": {"q": q, "s1": s1, "s2": s2, "r": r}}


def algebra_check(fs: list, g: Signal, q, q0, s) -> dict:
    """Iterated-product module bound with the per-factor constant.

    Needs q0 <= q and the order condition s >= d/q' (1 <= q < 2) or
    s > d(3/q' - 1) (q >= 2).  Reports ratio and C = ratio^(1/(N+1)).
    """
    return _one_row((g, *fs), lambda grid, vg, *vs: algebra_rows(
        grid, vs, vg, q, q0, s))


def algebra_rows(grid: TorusGrid, fs, g, q, q0, s) -> dict:
    """algebra_check of each row: factor stacks ``fs``, module stack g."""
    d = grid.d
    qp = conjugate_exponent(q)
    dqp = d_over_conjugate(q, d)
    if q0 > q:
        raise ValueError("needs q0 <= q")
    if q < 2 and s < dqp - 1e-12:
        raise ValueError("needs s >= d/q' for 1 <= q < 2")
    if q >= 2 and s <= d * (3.0 / qp - 1.0) + 1e-12:
        raise ValueError("needs s > d(3/q' - 1) for q >= 2")
    prod = g
    for f in fs:
        prod = prod * f
    w = Weight.power(s)
    lhs = _fl_rows(grid, prod, FLNormSpec(q, w))
    denom = _fl_rows(grid, g, FLNormSpec(q0, w))
    for f in fs:
        denom = denom * _fl_rows(grid, f, FLNormSpec(q, w))
    N = len(fs)
    ratio = _ratio(lhs, denom)
    return {
        "ratio": ratio,
        "per_factor_constant": np.float_power(ratio, 1.0 / (N + 1)),
        "N": N,
    }


# ---------------------------------------------------------------------------
# Wave-front inclusion checks
# ---------------------------------------------------------------------------


def numerical_support(f: Signal) -> np.ndarray:
    """Mask of the grid cells where |f| exceeds 1e-8 * max|f|."""
    mags = np.abs(f.values)
    return mags > 1e-8 * np.max(mags)


def wf_convolution_check(f1: Signal, f2: Signal) -> dict:
    """Estimated WF(f1*f2) against supp(f1) + WF(f2), within tolerance."""
    query = default_query(f1.grid)
    left = estimate_wavefront(cyclic_convolve(f1, f2), query)
    right = estimate_wavefront(f2, query)
    return {**report_included_in(left, right,
                                 support=numerical_support(f1)),
            "left_singular": int(left.singular_mask.sum()),
            "right_singular": int(right.singular_mask.sum())}


def wf_product_check(f1: Signal, f2: Signal, mode: str, q, s1, s2,
                     r: float = 0.0, s: float | None = None) -> dict:
    """Verdict-level product wave-front inclusions at the stated scales.

    Modes "dominant" and "dominant_low" bound the product (at scale s2,
    or at a lower scale s) by the first factor at scale |s2| under the
    two exponent-condition variants; mode "union_critical" bounds the
    product at the critical scale by the union of both factors at the
    minimal admissible scales N1, N2 (echoed in ``hypotheses``).
    """
    d = f1.grid.d
    dqp = d_over_conjugate(q, d)
    dq = d / q
    hypotheses = {"mode": mode, "q": q, "s1": s1, "s2": s2, "r": r}
    product = f1 * f2
    if mode == "dominant":
        need = 0.0 if q == 1 else dqp
        if s1 - abs(s2) < need - 1e-12:
            raise ValueError("needs s1 - |s2| >= d/q' (or >= 0 at q = 1)")
        left = _scan_at_order(product, q, s2)
        right = _scan_at_order(f1, q, abs(s2))
    elif mode == "dominant_low":
        if s is None:
            raise ValueError("case 2 needs the target order s")
        if s < 0:
            raise ValueError("needs s >= 0")
        bound = s1 + s2 if q == 1 else s1 + s2 - dqp
        strict = 0 if q == 1 else 1e-12
        if not (bound >= s + strict):
            raise ValueError("needs s1 + s2 - d/q' > s (>= at q = 1)")
        if s2 - s < dqp - 1e-12:
            raise ValueError("needs s2 - s >= d/q'")
        hypotheses["s"] = s
        left = _scan_at_order(product, q, s)
        right = _scan_at_order(f1, q, abs(s2))
    elif mode == "union_critical":
        if s1 + s2 <= 0:
            raise ValueError("needs s1 + s2 > 0")
        if q > 2 and r <= d * (1 - 2.0 / q):
            raise ValueError("needs r > d(1 - 2/q) when q > 2")
        crit = s1 + s2 - min(dq, dqp)
        margin = d * max(0.0, 1 - 2.0 / q)
        slack = 0.0 if np.isinf(q) else 1e-9
        N1 = s1 + abs(s2) + margin + slack
        N2 = s2 + abs(s1) + margin + slack
        hypotheses.update({"s": crit, "N1": N1, "N2": N2})
        left = _scan_at_order(product, q, crit)
        right = _merge_singular(_scan_at_order(f1, q, N1),
                                _scan_at_order(f2, q, N2))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return {**report_included_in(left, right), "hypotheses": hypotheses}


def wf_derivative_check(f: Signal, axis: int, q, s) -> dict:
    """Differentiation moves the wave front down one weight order.

    Checks WF at order s of the spectral derivative against WF at order
    s + 1 of the signal (one derivative costs exactly one bracket power).
    """
    coeffs = forward_transform(f).coeffs
    k_axis = lattice(f.grid).points[:, axis].astype(float)
    df = inverse_transform(Spectrum(f.grid, coeffs * 1j * k_axis))
    return report_included_in(_scan_at_order(df, q, s),
                              _scan_at_order(f, q, s + 1.0))
