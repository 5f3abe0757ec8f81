"""Kernel-weighted bilinear convolution on the frequency lattice.

T_F(f, g)(k) = sum_l F(k, l) f(l) g(k - l), with k - l wrapped onto the
centered lattice.  On the finite lattice the mixed-norm bounds for this
map hold with constant one (the Hoelder/Minkowski steps are exact), so
the bound checks below certify hard inequalities; only the weighted
variant carries a non-constructive constant, which is reported with an
n-stability diagnostic instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .cones import RegionMask
from .grid import TorusGrid, _lp_reduce, finite_kernel, lattice
from .norms import KernelGrid, _mixed_rows, _ratio
from .rng import trial_stacks
from .weights import Weight

__all__ = [
    "PowerKernelSpec",
    "power_kernel",
    "apply_tf",
    "tf_dual_pair",
    "verify_tf_bound",
    "kernel_slice_norms",
    "tail_slice_norms",
]


@dataclass(frozen=True)
class PowerKernelSpec:
    """Exponents of the power kernel <k>^t0 <k-l>^t1 <l>^t2."""

    t0: float
    t1: float
    t2: float


def power_kernel(grid: TorusGrid, spec: PowerKernelSpec) -> np.ndarray:
    """Dense power kernel over lattice pairs (plain differences): the real
    (N, N) array <k>^t0 <k-l>^t1 <l>^t2, row k and column l."""
    lat = lattice(grid)
    # <k-l>^t1 is raised once per difference, then laid over the pairs
    kernel = lat.brackets[:, None] ** spec.t0 * lat.over_pairs(
        np.sqrt(1.0 + lat.diff_sq_norms) ** spec.t1)
    kernel *= lat.brackets[None, :] ** spec.t2
    return finite_kernel(kernel)


def apply_tf(F: KernelGrid, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """T_F(f, g)(k) = sum_l F(k, l) f(l) g(k - l), periodic in k - l."""
    grid = F.grid
    f = np.asarray(f, dtype=complex).ravel()
    g = np.asarray(g, dtype=complex).ravel()
    if f.size != grid.size or g.size != grid.size:
        raise ValueError("lattice size mismatch between kernel and arrays")
    return _tf_rows(grid, F.values[None], f[None], g[None])[0]


def _tf_rows(grid: TorusGrid, kernels: np.ndarray, f: np.ndarray,
             g: np.ndarray) -> np.ndarray:
    """apply_tf over stacks: kernels (T, N, N), f and g (T, N)."""
    gmat = g[:, lattice(grid).wrap_index]  # g(k - l) over pairs
    return np.matmul(kernels * gmat, f[..., None])[..., 0]


def tf_dual_pair(F: KernelGrid, f, g, h) -> tuple:
    """Both sides of the transpose identity for T_F.

    lhs = <T_F(f,g), h>; rhs = <T_G(h, g~), f> with G the transposed
    kernel and g~ the reflection of g.  Equal on the lattice (finite
    rearrangement), up to rounding.  This is the duality step that moves
    the paper's T_F bounds between exponents q and q'; ``verify duality``
    checks it on trial stacks through ``tf_dual_rows``.
    """
    rows = [np.asarray(a, dtype=complex).ravel()[None] for a in (f, g, h)]
    lhs, rhs = tf_dual_rows(F.grid, F.values[None], *rows)
    return complex(lhs[0]), complex(rhs[0])


def tf_dual_rows(grid: TorusGrid, kernels, f, g, h) -> tuple:
    """tf_dual_pair over stacks: kernels (T, N, N), f, g, h (T, N)."""
    lhs = np.sum(_tf_rows(grid, kernels, f, g) * h, axis=-1)
    rhs = np.sum(_tf_rows(grid, kernels.transpose(0, 2, 1), h,
                          _reflect(grid, g)) * f, axis=-1)
    return lhs, rhs


def _reflect(grid: TorusGrid, g: np.ndarray) -> np.ndarray:
    """g(-k) along the last axis, with -n/2 wrapping to itself."""
    return g[..., grid.flat(grid.n // 2 - lattice(grid).points)]


def _tf_case_grid(case: int, q: float, r: float, trials: int, n: int,
                 d: int = 1) -> TorusGrid:
    """The lattice of one ``verify_tf_bound`` run, once its arguments meet
    the case's hypotheses (a ``ValueError`` names the first that fails)."""
    grid = TorusGrid(d, n)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if case == 2:
        if q <= 2:
            raise ValueError("case 2 requires q > 2")
        if r <= d * (1 - 2.0 / q):
            raise ValueError(f"case 2 requires r > d(1-2/q) = {d*(1-2.0/q)}")
    if case == 3 and q > 2:
        raise ValueError("case 3 requires q <= 2")
    return grid


def verify_tf_bound(case: int, q: float, r: float = 0.0, trials: int = 200,
                    seed: int = 0, n: int = 16, d: int = 1) -> dict:
    """Randomized certification of the three mixed-norm bounds for T_F.

    Cases 1 and 3 are exact lattice inequalities (ratio <= 1); case 2
    carries a non-constructive constant and reports the empirical maximum
    instead.  Adversarial one-hot and heavy-tail instances are mixed in to
    exercise the equality cases.  Trials whose denominator vanishes are
    skipped; ``worst_seed`` is the first trial reaching the maximum.
    """
    grid = _tf_case_grid(case, q, r, trials, n, d)
    qp = conjugate_exponent(q)
    # case 2 spends its first trials on the structured instances
    pinned = [] if case != 2 else [
        tuple(a[:trials] for a in _structured_instances(grid, q, r))]
    first = len(pinned[0][0]) if pinned else 0
    stacks = chain(pinned, trial_stacks(grid, seed, f"tf-bounds case {case}",
                                        range(first, trials), 2, kernel=True))
    ratios = np.concatenate([_tf_ratios(grid, case, q, qp, r, *stack)
                             for stack in stacks])
    max_ratio = float(np.max(ratios))
    return {"case": case, "q": q, "r": r, "trials": trials, "n": n, "d": d,
            "max_ratio": max_ratio,
            "worst_seed": int(np.argmax(ratios)) if max_ratio > 0 else None,
            "exact": case in (1, 3)}


def _tf_ratios(grid, case, q, qp, r, kernels, f, g) -> np.ndarray:
    """Per-trial bound ratio of one case, 0 where the denominator is 0."""
    out_norm = _lp_reduce(np.abs(_tf_rows(grid, kernels, f, g)), q)
    fn = _lp_reduce(np.abs(f), q)
    mags = np.abs(kernels)
    if case == 1:
        kn = _mixed_rows(mags, np.inf, qp, order=2)
    elif case == 2:
        kn = _mixed_rows(mags, q, np.inf, order=1)
        g = g * Weight.power(r).on_lattice(grid)
    else:
        kn = _mixed_rows(mags, qp, np.inf, order=1)
    return _ratio(out_norm, kn * fn * _lp_reduce(np.abs(g), q))


def conjugate_exponent(q: float) -> float:
    if q == 1:
        return np.inf
    if np.isinf(q):
        return 1.0
    return q / (q - 1.0)


def d_over_conjugate(q, d) -> float:
    """d/q' for the conjugate exponent q' of q: 0 at q = 1, d at q = inf."""
    return d * (1.0 - 1.0 / q)


def _structured_instances(grid: TorusGrid, q: float, r: float) -> tuple:
    """Near-extremal instances that pin the weighted bound's constant.

    A one-hot second argument with a concentrated kernel column turns the
    ratio into |g(0)| over the weighted norm of g; the Hoelder-extremal
    profile g = <k>^(-r(1 + q0/q)) with q0 = q/(q-2) then realizes the
    constant up to lattice truncation, making the reported maximum stable
    as the lattice grows.  Returned as stacks (kernels, f, g) of 3 rows.
    """
    lat = lattice(grid)
    N = grid.size
    origin = lat.index_of((0,) * grid.d)
    q0 = q / (q - 2.0)
    g = np.stack([lat.brackets ** (-e) + 0j
                  for e in (r * (1.0 + q0 / q), r, 2.0 * r)])
    f = np.zeros((3, N), dtype=complex)
    f[:, origin] = 1.0
    kernels = np.zeros((3, N, N), dtype=complex)
    kernels[:, origin, origin] = 1.0
    return kernels, f, g


# ---------------------------------------------------------------------------
# Slice-norm certification for the power kernel
# ---------------------------------------------------------------------------


def _log_branch(t: float, target: float) -> str:
    if abs(t - target) < 1e-12:
        return "log"
    return "above" if t > target else "below"


def _slice_bound_regions12(spec, p, brackets, region):
    """Bound formula per slice <k> for regions 1 and 2 (eta sums)."""
    dp = 1.0 / p  # d/p with d = 1
    t_in = spec.t2 if region == 1 else spec.t1
    t_out = spec.t2 if region == 2 else spec.t1
    base = brackets ** (spec.t0 + t_out)
    branch = _log_branch(t_in, -dp)
    if branch == "log":
        return base * (1.0 + np.log(brackets)) ** dp, branch
    return base * (1.0 + brackets ** (t_in + dp)), branch


def _slice_bound_regions345(spec, p, brackets, region):
    """Bound formula per slice <l> for regions 3, 4, 5 (xi sums)."""
    dp = 1.0 / p
    if region == 3:
        return brackets ** (spec.t1 + spec.t2), "bounded"
    branch = _log_branch(spec.t0, -dp)
    if branch == "log":
        return (brackets ** (spec.t1 + spec.t2)
                * (1.0 + np.log(brackets)) ** dp), branch
    if branch == "above":
        return brackets ** (spec.t0 + spec.t1 + spec.t2 + dp), branch
    return brackets ** (spec.t1 + spec.t2), branch


def kernel_slice_norms(spec: PowerKernelSpec, regions: RegionMask,
                       p: float) -> dict:
    """Per-region slice norms of the power kernel with fitted constants.

    Regions 1-2 take the l^p norm over the second variable for each first
    slice; regions 3-5 take it over the first variable for each second
    slice.  For each region the smallest constant C with every computed
    value <= C * bound is fitted; residuals are computed v - C*bound <= 0.
    Each region is reduced in place through its mask (``_lp_reduce``'s
    ``where``): the kernel is the one (N, N) float array held, besides
    the terms of the reduction running.
    """
    if p < 1:
        raise ValueError("slice norm exponent must be >= 1")
    grid = regions.grid
    mags = power_kernel(grid, spec)
    brackets = lattice(grid).brackets
    out = {}
    for j, mask in enumerate(regions.masks, start=1):
        if j in (1, 2):
            slices = _lp_reduce(mags, p, axis=1, where=mask)
            bound, branch = _slice_bound_regions12(spec, p, brackets, j)
        else:
            slices = _lp_reduce(mags, p, axis=0, where=mask)
            bound, branch = _slice_bound_regions345(spec, p, brackets, j)
        out[j] = _fitted_constant(slices, bound, branch)
    return out


def tail_slice_norms(grid: TorusGrid, spec: PowerKernelSpec, c: float,
                     R: float, p: float) -> dict:
    """Slice norms over the separated tail region with its two branches.

    The region keeps pairs with |l - k| >= c|k| and both brackets >= R;
    admissible exponents satisfy t1 + t2 < -d/p (p < infinity) or
    t1 + t2 <= 0 (p = infinity).
    """
    if p < 1:
        raise ValueError("slice norm exponent must be >= 1")
    d = grid.d
    dp = d / p
    if np.isinf(p):
        if spec.t1 + spec.t2 > 0:
            raise ValueError("needs t1 + t2 <= 0 at p = infinity")
    elif spec.t1 + spec.t2 >= -dp:
        raise ValueError(f"needs t1 + t2 < -d/p = {-dp}")
    lat = lattice(grid)
    k_abs = lat.norms[:, None]
    k_br = lat.brackets[:, None]
    l_br = lat.brackets[None, :]
    kl_abs = lat.over_pairs(np.sqrt(lat.diff_sq_norms))
    mask = (kl_abs >= c * k_abs) & (k_br >= R) & (l_br >= R)  # |l-k| >= c|k|
    slices = _lp_reduce(power_kernel(grid, spec), p, axis=1, where=mask)
    brackets = lat.brackets
    if spec.t2 >= -dp:
        bound = brackets**spec.t0
        branch = "t2 >= -d/p"
    else:
        bound = brackets**spec.t0 * (1.0 + brackets**spec.t1)
        branch = "t2 < -d/p"
    return _fitted_constant(slices, bound, branch)


def _fitted_constant(slices, bound, branch: str) -> dict:
    """Smallest C with every nonzero slice <= C * bound, and the residual."""
    nz = slices > 0
    if not np.any(nz):
        return {"C": 0.0, "branch": branch, "max_residual": 0.0, "slices": 0}
    C = float(np.max(slices[nz] / bound[nz]))
    return {"C": C, "branch": branch,
            "max_residual": float(np.max(slices[nz] - C * bound[nz])),
            "slices": int(np.count_nonzero(nz))}
