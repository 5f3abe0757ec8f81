"""Polynomial nonlinearities, jets, and the regularity-bootstrap ledger.

The bootstrap is pure index arithmetic mirroring the iterative proof:
each round converts known regularity of order sigma + k + (m-1)r into
order sigma + n through the nonlinearity estimate and elliptic
inversion, while sigma stays within [s, 2s - d/q'].  The final index is
the closed form 2s + n - d/q' whenever the preconditions pass; every
violated precondition is rejected by name.  The numerical fixed-point
demo is a separate, weaker corroboration on an invertible multiplier.

``wf_nonlinearity_check`` scans the nonlinearity and each factor at its
order with the grid's default query (``wavefront._scan_at_order``) and
matches singular sets under ``report_included_in``'s default tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .bilinear import d_over_conjugate
from .grid import Signal, Spectrum, forward_transform, inverse_transform, lattice
from .pdo import Symbol, quantize_apply
from .wavefront import _merge_singular, _scan_at_order, report_included_in

__all__ = [
    "PolynomialNonlinearity",
    "Jet",
    "BootstrapLedger",
    "eval_nonlinearity",
    "jet",
    "wf_nonlinearity_check",
    "bootstrap_indices",
    "demo_solve",
]


@dataclass(frozen=True)
class PolynomialNonlinearity:
    """Polynomial without constant term in N arguments.

    terms: list of (multi-index alpha over the arguments, coefficient),
    where each coefficient is a Signal (x-dependent) or a scalar and
    0 < |alpha| <= degree.
    """

    n_args: int
    terms: tuple

    def __post_init__(self):
        norm_terms = []
        for alpha, coeff in self.terms:
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != self.n_args:
                raise ValueError("multi-index length must match n_args")
            if sum(alpha) < 1:
                raise ValueError("terms must have |alpha| >= 1")
            norm_terms.append((alpha, coeff))
        object.__setattr__(self, "terms", tuple(norm_terms))

    @property
    def degree(self) -> int:
        return max(sum(alpha) for alpha, _ in self.terms)


def eval_nonlinearity(G: PolynomialNonlinearity, args: list) -> Signal:
    """Pointwise sum over terms of coeff(x) * prod args_i(x)^alpha_i."""
    if len(args) != G.n_args:
        raise ValueError(f"expected {G.n_args} arguments, got {len(args)}")
    grid = args[0].grid
    for a in args[1:]:
        if a.grid != grid:
            raise ValueError("arguments must share a grid")
    out = np.zeros(grid.size, dtype=complex)
    for alpha, coeff in G.terms:
        term = np.ones(grid.size, dtype=complex)
        for exponent, arg in zip(alpha, args):
            if exponent:
                term = term * arg.values**exponent
        if isinstance(coeff, Signal):
            if coeff.grid != grid:
                raise ValueError("coefficient grid mismatch")
            term = term * coeff.values
        else:
            term = term * coeff
        out += term
    return Signal(grid, out)


@dataclass(frozen=True)
class Jet:
    """Spectrally computed partial derivatives up to a fixed order."""

    order: int
    components: tuple  # Signals, graded-lexicographic multi-index order
    multi_indices: tuple


def _graded_multi_indices(d: int, k: int) -> list:
    out = []
    for total in range(k + 1):
        out.extend(sorted(_compositions(total, d), reverse=True))
    return out


def _compositions(total: int, d: int) -> list:
    if d == 1:
        return [(total,)]
    out = []
    for head in range(total, -1, -1):
        for rest in _compositions(total - head, d - 1):
            out.append((head,) + rest)
    return out


def jet(f: Signal, k: int) -> Jet:
    """All spectral derivatives of order <= k; binomial(d+k, k) entries."""
    if k < 0:
        raise ValueError("jet order must be nonnegative")
    grid = f.grid
    coeffs = forward_transform(f).coeffs
    freqs = lattice(grid).points.astype(float)
    comps = []
    indices = _graded_multi_indices(grid.d, k)
    for beta in indices:
        mult = np.ones(grid.size, dtype=complex)
        for axis, power in enumerate(beta):
            if power:
                mult = mult * (1j * freqs[:, axis]) ** power
        comps.append(inverse_transform(Spectrum(grid, coeffs * mult)))
    expected = math.comb(grid.d + k, k)
    if len(comps) != expected:
        raise RuntimeError("jet component count mismatch")
    return Jet(order=k, components=tuple(comps), multi_indices=tuple(indices))


def wf_nonlinearity_check(G: PolynomialNonlinearity, fs: list, q, s, sigma,
                          r) -> dict:
    """Wave front of G(x, f_1..f_N) inside the union of lifted factors.

    Preconditions: s >= d/q' (strict at q = infinity), s <= sigma <=
    2s - d/q', r >= d/q'.  The target scan runs at order sigma and the
    factor scans at sigma + (m-1) r.
    """
    dqp = d_over_conjugate(q, fs[0].grid.d)
    if np.isinf(q):
        if s <= dqp:
            raise ValueError("needs s > d/q' when q = infinity")
    elif s < dqp - 1e-12:
        raise ValueError("needs s >= d/q'")
    if not (s - 1e-12 <= sigma <= 2 * s - dqp + 1e-12):
        raise ValueError("needs s <= sigma <= 2s - d/q'")
    if r < dqp - 1e-12:
        raise ValueError("needs r >= d/q'")
    lifted = sigma + (G.degree - 1) * r
    left = _scan_at_order(eval_nonlinearity(G, fs), q, sigma)
    merged = reduce(_merge_singular,
                    [_scan_at_order(f, q, lifted) for f in fs])
    return {**report_included_in(left, merged),
            "hypotheses": {"q": q, "s": s, "sigma": sigma, "r": r,
                           "lifted_order": lifted}}


@dataclass(frozen=True)
class BootstrapLedger:
    """Trace of the regularity-bootstrap index iteration."""

    inputs: dict
    accepted: bool
    trace: tuple = ()
    final_index: float | None = None
    rejection: str | None = None


def bootstrap_indices(q, d, s, k, m, r, n, variant: int) -> BootstrapLedger:
    """Run the bootstrap index calculus; reject by named inequality.

    Variant 1 requires the order-budget inequality
    s + n >= d/q' + k + (m-1) r; variant 2 is the first-exponent case
    (q = 1) and never consumes the (m-1) r budget, so its outcome is
    independent of the polynomial degree.
    """
    inputs = {"q": q, "d": d, "s": s, "k": k, "m": m, "r": r, "n": n,
              "variant": variant}

    def reject(name):
        return BootstrapLedger(inputs=inputs, accepted=False, rejection=name)

    if not (q >= 1):
        return reject("q >= 1")
    if variant not in (1, 2):
        return reject("variant in {1, 2}")
    if variant == 2 and q != 1:
        return reject("variant 2 requires q = 1")
    dqp = d_over_conjugate(q, d)
    if s < dqp - 1e-12:
        return reject("s >= d/q'")
    if variant == 1 and r < dqp - 1e-12:
        return reject("r >= d/q'")
    if n <= k:
        return reject("n > k")
    consumption = k + (m - 1) * r if variant == 1 else k
    if variant == 1 and s + n < dqp + consumption - 1e-12:
        return reject("s + n >= d/q' + k + (m-1)r")
    gain = n - consumption
    if gain <= 0 and s > dqp + 1e-12:
        return reject("n > k + (m-1)r (positive bootstrap gain)")
    cap = 2 * s - dqp
    sigma = float(s)
    trace = []
    iteration = 0
    while True:
        iteration += 1
        use = min(sigma, cap)
        trace.append((iteration, use, gain))
        if use >= cap - 1e-12:
            final = cap + n
            break
        sigma = min(use + gain, cap)
        if iteration > 10000:
            raise RuntimeError("bootstrap failed to terminate")
    return BootstrapLedger(inputs=inputs, accepted=True, trace=tuple(trace),
                           final_index=float(final))


def demo_solve(P: Symbol, G: PolynomialNonlinearity | None, source: Signal,
               tol: float = 1e-10, max_iter: int = 200,
               jet_order: int = 0) -> dict:
    """Fixed-point solve of P(D) f = G(x, jet(f)) + source.

    The paper's semilinear equation P(x,D)f = G(x, J_k f), with a source
    term, for an x-independent P: its solutions are what the wave-front
    gain at non-characteristic points is about.  P must be an invertible
    x-independent multiplier.  Divergence raises; on return the relative
    residual is below tol.
    """
    if not P.x_independent:
        raise ValueError("demo solver needs an x-independent symbol")
    grid = source.grid
    mult = P.on_lattice(grid)
    if np.min(np.abs(mult)) <= 0:
        raise ValueError("symbol is not invertible on the lattice")

    def solve_linear(rhs: Signal) -> Signal:
        coeffs = forward_transform(rhs).coeffs
        return inverse_transform(Spectrum(grid, coeffs / mult))

    f = solve_linear(source)
    if G is None:
        return {"solution": f, "iterations": 0, "residual": 0.0}
    src_norm = np.linalg.norm(source.values)
    for it in range(1, max_iter + 1):
        args = list(jet(f, jet_order).components)
        rhs = eval_nonlinearity(G, args) + source
        f_next = solve_linear(rhs)
        update = np.linalg.norm(f_next.values - f.values)
        denom = max(np.linalg.norm(f_next.values), 1e-300)
        f = f_next
        if not np.all(np.isfinite(f.values)):
            raise RuntimeError("fixed-point iteration diverged")
        if update / denom < tol:
            break
    else:
        raise RuntimeError(f"no convergence within {max_iter} iterations")
    lhs = quantize_apply(P, f)
    rhs = eval_nonlinearity(G, list(jet(f, jet_order).components)) + source
    residual = np.linalg.norm(lhs.values - rhs.values) / max(src_norm, 1e-300)
    return {"solution": f, "iterations": it, "residual": float(residual)}
