"""Fourier-Lebesgue norms, cone seminorms, and mixed kernel norms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flwave.cones import Cone
from flwave.grid import (
    Signal,
    TorusGrid,
    forward_transform,
    impulse,
    lp_norm,
    random_signal,
    single_mode,
    zero_signal,
)
from flwave.norms import (
    FLNormSpec,
    KernelGrid,
    cone_seminorm,
    fl_norm,
    mixed_norm,
    sequence_norm,
)
from flwave.pdo import multiplier_symbol
from flwave.weights import Weight
from flwave.windows import WindowSpec, window_values

TWO_PI = 2.0 * np.pi


def test_fl_norm_zero():
    g = TorusGrid(1, 8)
    assert fl_norm(zero_signal(g), FLNormSpec(1.0)) == 0.0


def test_fl_norm_single_mode_weighted():
    # single mode at k=1 weighted by <1>^2 = 2
    g = TorusGrid(1, 8)
    val = fl_norm(single_mode(g, 1.0), FLNormSpec(1.0, Weight.power(2.0)))
    assert abs(val - 2.0 * np.sqrt(TWO_PI)) < 1e-10
    assert abs(val - 5.01326) < 1e-5


def test_fl_norm_parseval_match():
    g = TorusGrid(1, 32)
    f = random_signal(g, np.random.default_rng(0))
    n2 = fl_norm(f, FLNormSpec(2.0))
    assert abs(n2 - lp_norm(f, 2.0)) < 1e-10 * n2


def test_lp_sums_that_overflow_or_underflow_give_the_norm():
    # the impulse's flat spectrum c = (2 pi)^(-1/2) h: weighted by <k>^6
    # its 30th powers overflow, unweighted its 200th powers underflow to 0
    g = TorusGrid(1, 256)
    c = (2.0 * np.pi) ** -0.5 * g.h
    got = fl_norm(impulse(g), FLNormSpec(30.0, Weight.power(6.0)))
    log_terms = 30.0 * (np.log(c) + 6.0 * np.log(
        np.hypot(1.0, np.arange(-128, 128))))
    assert np.isclose(np.log(got), np.logaddexp.reduce(log_terms) / 30.0,
                      rtol=1e-13, atol=0)
    got = fl_norm(impulse(g), FLNormSpec(200.0, Weight.power(0.0)))
    assert np.isclose(got, c * 256 ** (1 / 200), rtol=1e-14, atol=0)
    for x in (1e200, 1e-161):  # squares overflow; squares are subnormal
        got = sequence_norm(np.array([x, x]), 2.0)
        assert np.isclose(got, x * np.sqrt(2.0), rtol=1e-15, atol=0)


def test_fl_norm_exponent_validation():
    with pytest.raises(ValueError):
        FLNormSpec(0.5)


def test_local_fl_norm():
    # the localized norm is fl_norm of cutoff * f
    g = TorusGrid(1, 16)
    f = random_signal(g, np.random.default_rng(1))
    ones = Signal(g, np.ones(16))
    spec = FLNormSpec(1.0)
    assert abs(fl_norm(ones * f, spec) - fl_norm(f, spec)) < 1e-12
    assert fl_norm(zero_signal(g) * f, spec) == 0.0
    with pytest.raises(ValueError, match="grid mismatch"):
        zero_signal(TorusGrid(1, 8)) * f


def test_local_fl_norm_windowed_direct_sum():
    # windowed DFT direct-summation oracle
    g = TorusGrid(1, 16)
    f = random_signal(g, np.random.default_rng(2))
    win = Signal(g, window_values(g, WindowSpec("hann", 8), (4,)))
    spec = FLNormSpec(1.5, Weight.power(0.5))
    got = fl_norm(win * f, spec)
    pts = g.sample_points()[:, 0]
    prod = f.values * win.values
    acc = 0.0
    for k in range(-8, 8):
        coeff = (TWO_PI**-0.5) * g.h * np.sum(prod * np.exp(-1j * k * pts))
        acc += (abs(coeff) * (1 + k * k) ** 0.25) ** 1.5
    assert abs(got - acc ** (1 / 1.5)) < 1e-12


def test_cone_seminorm_full_cone_excludes_origin():
    g = TorusGrid(1, 16)
    f = random_signal(g, np.random.default_rng(3))
    spec = FLNormSpec(2.0)
    full = cone_seminorm(f, Cone((1.0,), np.pi), spec)
    coeffs = forward_transform(f).coeffs
    expected = np.sqrt(np.sum(np.abs(coeffs) ** 2)
                       - abs(coeffs[8]) ** 2)
    assert abs(full - expected) < 1e-12


def test_cone_seminorm_mode_outside_halfline():
    g = TorusGrid(1, 8)
    f = single_mode(g, 1.0)
    val = cone_seminorm(f, Cone((-1.0,), np.pi / 2), FLNormSpec(1.0))
    assert val < 1e-12


def test_cone_seminorm_masked_direct_sum():
    # 2-D cone mass against a direct masked sum
    g = TorusGrid(2, 8)
    f = random_signal(g, np.random.default_rng(4))
    cone = Cone((1.0, 0.0), np.pi / 4)
    spec = FLNormSpec(1.0, Weight.power(0.0))
    got = cone_seminorm(f, cone, spec)
    coeffs = forward_transform(f).reshaped()
    acc = 0.0
    for i, k1 in enumerate(range(-4, 4)):
        for j, k2 in enumerate(range(-4, 4)):
            if k1 == 0 and k2 == 0:
                continue
            ang = np.arccos(np.clip(k1 / np.hypot(k1, k2), -1, 1))
            if ang < np.pi / 4:
                acc += abs(coeffs[i, j])
    assert abs(got - acc) < 1e-12
    assert got > 0


def test_cone_aperture_validation():
    with pytest.raises(ValueError):
        Cone((1.0,), 0.0)


def test_mixed_norm_single_entry():
    g = TorusGrid(1, 8)
    vals = np.zeros((8, 8), dtype=complex)
    vals[2, 5] = 5.0
    F = KernelGrid(g, vals)
    for p in (1.0, 2.0, np.inf):
        for q in (1.0, 3.0, np.inf):
            for order in (1, 2):
                assert abs(mixed_norm(F, p, q, order) - 5.0) < 1e-14


def test_mixed_norm_separable():
    g = TorusGrid(1, 8)
    rng = np.random.default_rng(5)
    u = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    F = KernelGrid(g, np.outer(u, v))
    p, q = 1.5, 3.0
    expected = (np.sum(np.abs(u) ** p) ** (1 / p)
                * np.sum(np.abs(v) ** q) ** (1 / q))
    assert abs(mixed_norm(F, p, q, 1) - expected) < 1e-12


def test_mixed_norm_direct_sum_oracle():
    g = TorusGrid(1, 8)
    rng = np.random.default_rng(6)
    vals = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    F = KernelGrid(g, vals)
    p, q = 2.0, 3.0
    inner = np.array([np.sum(np.abs(vals[:, l]) ** p) ** (1 / p)
                      for l in range(8)])
    expected = np.sum(inner**q) ** (1 / q)
    assert abs(mixed_norm(F, p, q, 1) - expected) < 1e-13
    inner2 = np.array([np.sum(np.abs(vals[k, :]) ** q) ** (1 / q)
                       for k in range(8)])
    expected2 = np.sum(inner2**p) ** (1 / p)
    assert abs(mixed_norm(F, p, q, 2) - expected2) < 1e-13


def test_mixed_norm_diagonal_collapse():
    g = TorusGrid(1, 8)
    rng = np.random.default_rng(7)
    vals = rng.standard_normal((8, 8))
    F = KernelGrid(g, vals)
    for p in (1.0, 2.0, 4.0):
        full = np.sum(np.abs(vals) ** p) ** (1 / p)
        assert abs(mixed_norm(F, p, p, 1) - full) < 1e-12
        assert abs(mixed_norm(F, p, p, 2) - full) < 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_kernel_grid_rejects_non_finite_values(bad):
    vals = np.ones((8, 8), dtype=complex)
    vals[3, 5] = bad
    with pytest.raises(ValueError, match="kernel values must be finite"):
        KernelGrid(TorusGrid(1, 8), vals)


def test_kernel_size_guard():
    # every array over lattice pairs goes through one size check
    grid = TorusGrid(2, 128)
    symbol = multiplier_symbol(0.0, lambda ks: np.ones(ks.shape[0]))
    for build in (lambda: KernelGrid(grid, np.zeros((1, 1))),
                  lambda: symbol.table(grid)):
        with pytest.raises(ValueError, match="kernel lattice too large"):
            build()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 5000))
def test_weight_monotonicity(seed):
    g = TorusGrid(1, 16)
    f = random_signal(g, np.random.default_rng(seed))
    hi = fl_norm(f, FLNormSpec(1.5, Weight.power(1.0)))
    lo = fl_norm(f, FLNormSpec(1.5, Weight.power(0.5)))
    assert lo <= hi * (1 + 1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 5000))
def test_exponent_monotonicity(seed):
    # counting-measure l^q norms decrease as q grows
    g = TorusGrid(1, 16)
    f = random_signal(g, np.random.default_rng(seed))
    w = Weight.power(0.5)
    n1 = fl_norm(f, FLNormSpec(1.0, w))
    n2 = fl_norm(f, FLNormSpec(2.0, w))
    ninf = fl_norm(f, FLNormSpec(np.inf, w))
    assert ninf <= n2 * (1 + 1e-12)
    assert n2 <= n1 * (1 + 1e-12)


def test_cone_monotonicity():
    g = TorusGrid(2, 16)
    f = random_signal(g, np.random.default_rng(11))
    spec = FLNormSpec(1.0)
    small = cone_seminorm(f, Cone((1.0, 0.0), np.pi / 8), spec)
    large = cone_seminorm(f, Cone((1.0, 0.0), np.pi / 3), spec)
    assert small <= large * (1 + 1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 5000))
def test_triangle_inequality(seed):
    g = TorusGrid(1, 16)
    rng = np.random.default_rng(seed)
    f, h = random_signal(g, rng), random_signal(g, rng)
    spec = FLNormSpec(1.5, Weight.power(0.5))
    assert fl_norm(f + h, spec) <= \
        (fl_norm(f, spec) + fl_norm(h, spec)) * (1 + 1e-12)
    cone = Cone((1.0,), np.pi / 2)
    assert cone_seminorm(f + h, cone, spec) <= \
        (cone_seminorm(f, cone, spec)
         + cone_seminorm(h, cone, spec)) * (1 + 1e-12)
