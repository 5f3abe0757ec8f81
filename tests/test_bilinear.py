"""Bilinear kernel map: duality, mixed-norm bounds, slice norms."""

import numpy as np
import pytest

from flwave.bilinear import (
    PowerKernelSpec,
    apply_tf,
    kernel_slice_norms,
    tail_slice_norms,
    tf_dual_pair,
    verify_tf_bound,
)
from flwave.cones import omega_masks
from flwave.grid import TorusGrid, lattice
from flwave.norms import KernelGrid
from flwave.rng import random_coeffs, random_kernel, trial_stacks


def _trials(g, seed, trials, count):
    """Each trial's kernel and ``count`` coefficient arrays, in order."""
    for stacks in trial_stacks(g, seed, "bilinear", range(trials), count,
                               kernel=True):
        for K, *rows in zip(*stacks):
            yield KernelGrid(g, K), *rows


def _direct_tf(grid, F, f, g):
    n = grid.n
    lat = lattice(grid).points[:, 0]
    out = np.zeros(grid.size, dtype=complex)
    for i, k in enumerate(lat):
        for j, l in enumerate(lat):
            kl = (k - l + n // 2) % n - n // 2
            out[i] += F.values[i, j] * f[j] * g[kl + n // 2]
    return out


def test_apply_tf_constant_kernel_is_convolution():
    g = TorusGrid(1, 8)
    rng = np.random.default_rng(0)
    F = KernelGrid(g, np.ones((8, 8)))
    f, h = random_coeffs(g, rng, 2)
    assert np.max(np.abs(apply_tf(F, f, h) - _direct_tf(g, F, f, h))) < 1e-12


def test_apply_tf_zero_factor():
    g = TorusGrid(1, 8)
    rng = np.random.default_rng(1)
    F = KernelGrid(g, random_kernel(g, rng, 1)[0])
    (f,) = random_coeffs(g, rng, 1)
    assert np.all(apply_tf(F, f, np.zeros(8)) == 0)


def test_apply_tf_direct_sum_oracle():
    g = TorusGrid(1, 8)
    for F, f, h in _trials(g, 3, 10, 2):
        got = apply_tf(F, f, h)
        want = _direct_tf(g, F, f, h)
        assert np.max(np.abs(got - want)) < 1e-13 * max(1, np.max(np.abs(want)))


def test_dual_pair_zero_kernel():
    g = TorusGrid(1, 8)
    rng = np.random.default_rng(2)
    F = KernelGrid(g, np.zeros((8, 8)))
    f, h, k = random_coeffs(g, rng, 3)
    lhs, rhs = tf_dual_pair(F, f, h, k)
    assert lhs == 0 and rhs == 0


def test_dual_pair_random():
    g = TorusGrid(1, 8)
    for F, f, h, k in _trials(g, 11, 50, 3):
        lhs, rhs = tf_dual_pair(F, f, h, k)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def test_dual_pair_separable_closed_form():
    # rank-one kernel: both sides factor into explicit sums
    g = TorusGrid(1, 8)
    rng = np.random.default_rng(4)
    u = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    F = KernelGrid(g, np.outer(u, v))
    f, h, k = random_coeffs(g, rng, 3)
    lhs, rhs = tf_dual_pair(F, f, h, k)
    n = g.n
    lat = lattice(g).points[:, 0]
    closed = 0.0 + 0.0j
    for i, kk in enumerate(lat):
        for j, l in enumerate(lat):
            kl = (kk - l + n // 2) % n - n // 2
            closed += u[i] * v[j] * f[j] * h[kl + n // 2] * k[i]
    assert abs(lhs - closed) < 1e-12 * max(abs(closed), 1.0)
    assert abs(lhs - rhs) < 1e-12 * max(abs(lhs), 1.0)


def test_bound_case1_young():
    # constant kernel at q = 1 reduces to the discrete Young inequality
    rep = verify_tf_bound(1, q=1.0, trials=150, seed=5, n=8)
    assert rep["max_ratio"] <= 1 + 1e-10


@pytest.mark.parametrize("q", [1.0, 2.0, 4.0, np.inf])
def test_bound_case1(q):
    rep = verify_tf_bound(1, q=q, trials=100, seed=6, n=8)
    assert rep["max_ratio"] <= 1 + 1e-10


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0])
def test_bound_case3(q):
    rep = verify_tf_bound(3, q=q, trials=100, seed=7, n=8)
    assert rep["max_ratio"] <= 1 + 1e-10


def test_bound_case3_rejects_large_q():
    with pytest.raises(ValueError):
        verify_tf_bound(3, q=4.0)


def test_bound_case2_stability():
    r16 = verify_tf_bound(2, q=4.0, r=0.6, trials=100, seed=8, n=16)
    r32 = verify_tf_bound(2, q=4.0, r=0.6, trials=100, seed=8, n=32)
    assert r16["max_ratio"] > 0
    change = abs(r32["max_ratio"] - r16["max_ratio"]) / r16["max_ratio"]
    assert change < 0.2


def test_bound_case2_validation():
    with pytest.raises(ValueError):
        verify_tf_bound(2, q=2.0, r=1.0)
    with pytest.raises(ValueError):
        verify_tf_bound(2, q=4.0, r=0.4)


# ---------------------------------------------------------------------------
# Slice norms
# ---------------------------------------------------------------------------


def _regions256():
    return omega_masks(TorusGrid(1, 256), delta=0.5, R=8.0)


def test_slice_norms_decaying_branch():
    rep = kernel_slice_norms(PowerKernelSpec(0, 0, -2), _regions256(), p=1.0)
    assert rep[1]["branch"] == "below"
    assert rep[1]["C"] > 0
    assert rep[1]["max_residual"] <= 1e-9


def test_slice_norms_log_branch():
    rep = kernel_slice_norms(PowerKernelSpec(0, 0, -1), _regions256(), p=1.0)
    assert rep[1]["branch"] == "log"
    assert rep[1]["max_residual"] <= 1e-9


def test_slice_norms_bounded_region3():
    rep = kernel_slice_norms(PowerKernelSpec(0, 0, 0), _regions256(), p=np.inf)
    assert rep[3]["max_residual"] <= 1e-9
    # the bound for the third region is <l>^(t1+t2) = 1 here
    assert rep[3]["C"] <= 1.0 + 1e-9


def test_slice_norms_all_branches_region45():
    for t0, branch in ((-0.5, "above"), (-1.0, "log"), (-2.0, "below")):
        rep = kernel_slice_norms(PowerKernelSpec(t0, 0, 0), _regions256(),
                                 p=1.0)
        for j in (4, 5):
            assert rep[j]["branch"] == branch
            assert rep[j]["max_residual"] <= 1e-9


def test_slice_norm_constant_stability_in_range():
    # sub-critical branch: the fitted constant saturates as the range grows
    spec = PowerKernelSpec(0, 0, -2)
    c_small = kernel_slice_norms(
        spec, omega_masks(TorusGrid(1, 128), 0.5, 8.0), p=1.0)[1]["C"]
    c_large = kernel_slice_norms(
        spec, omega_masks(TorusGrid(1, 256), 0.5, 8.0), p=1.0)[1]["C"]
    assert c_large <= c_small * 1.05 or c_large >= c_small  # saturating
    assert abs(c_large - c_small) / c_small < 0.1


def test_tail_slice_norms_branches():
    g = TorusGrid(1, 256)
    rep = tail_slice_norms(g, PowerKernelSpec(0, 0, -2), c=0.5, R=4.0, p=1.0)
    assert rep["branch"] == "t2 < -d/p"
    assert rep["max_residual"] <= 1e-9
    rep = tail_slice_norms(g, PowerKernelSpec(0, -2, 0), c=0.5, R=4.0, p=1.0)
    assert rep["branch"] == "t2 >= -d/p"
    assert rep["max_residual"] <= 1e-9
    rep = tail_slice_norms(g, PowerKernelSpec(1, -1, 0), c=0.5, R=4.0,
                           p=np.inf)
    assert rep["max_residual"] <= 1e-9


def test_tail_slice_norms_validation():
    g = TorusGrid(1, 64)
    with pytest.raises(ValueError):
        tail_slice_norms(g, PowerKernelSpec(0, 0, 0), c=0.5, R=4.0, p=1.0)
