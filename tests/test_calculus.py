"""Product/convolution norm certification and wave-front inclusions."""

import numpy as np
import pytest

from flwave.calculus import (
    algebra_check,
    convolve_norm_check,
    moderation_constant,
    product_critical_norm_check,
    product_critical_rows,
    product_norm_check,
    wf_convolution_check,
    wf_derivative_check,
    wf_product_check,
)
from flwave.corpus import make_delta, make_power_cusp, make_smooth, \
    standard_corpus
from flwave.grid import Signal, TorusGrid, forward_transform, impulse, \
    random_signal, single_mode
from flwave.norms import FLNormSpec, fl_norm
from flwave.rng import trial_stacks
from flwave.weights import Weight

TWO_PI = 2.0 * np.pi
W0 = Weight.power(0.0)


def _trials(g, seed, trials, count):
    """Each trial's ``count`` signals, in order, from the trial blocks."""
    for stacks in trial_stacks(g, seed, "calculus", range(trials), count):
        for rows in zip(*stacks):
            yield [Signal(g, row) for row in rows]


def test_product_l1_certified():
    g = TorusGrid(1, 16)
    worst = 0.0
    for f1, f2 in _trials(g, 0, 100, 2):
        rep = product_norm_check(f1, f2, 1, 1, 1, W0, W0, W0)
        worst = max(worst, rep["ratio"])
    assert worst <= 1 + 1e-10
    # the sharp discrete constant is (2 pi)^(-d/2)
    assert worst <= TWO_PI**-0.5 + 1e-10


def test_product_constant_factor():
    # multiplying by the constant one only costs the moderation constant
    g = TorusGrid(1, 16)
    f = random_signal(g, np.random.default_rng(1))
    ones = Signal(g, np.ones(16))
    rep = product_norm_check(f, ones, 1, 1, 1, W0, W0, W0)
    n1 = fl_norm(f, FLNormSpec(1.0, W0))
    none = fl_norm(ones, FLNormSpec(1.0, W0))
    assert abs(rep["lhs"] - n1) < 1e-10
    assert abs(rep["ratio"] - n1 / (n1 * none)) < 1e-12


def test_product_single_modes_closed_form():
    g = TorusGrid(1, 16)
    f1, f2 = single_mode(g, 2.0), single_mode(g, 3.0)
    w = Weight.power(1.0)
    rep = product_norm_check(f1, f2, 1, 1, 1, w, w, w)
    # product is the single mode at k = 5; all norms explicit
    b5, b2, b3 = (np.sqrt(1 + k * k) for k in (5, 2, 3))
    expected = (b5 * np.sqrt(TWO_PI)) / (b2 * np.sqrt(TWO_PI) * b3 * np.sqrt(TWO_PI))
    assert abs(rep["ratio"] - expected) < 1e-12


def test_product_precondition():
    g = TorusGrid(1, 8)
    f = random_signal(g, np.random.default_rng(2))
    with pytest.raises(ValueError):
        product_norm_check(f, f, 1, 4, 4, W0, W0, W0)


def test_convolve_identity_element():
    g = TorusGrid(1, 16)
    f = random_signal(g, np.random.default_rng(3))
    unit = impulse(g, value=1.0 / g.h)
    rep = convolve_norm_check(f, unit, 1, 1, np.inf, W0, W0, W0)
    # f * unit = f; the denominator carries (2 pi)^(d/2) times the norms
    n1 = fl_norm(f, FLNormSpec(1.0, W0))
    nu = fl_norm(unit, FLNormSpec(np.inf, W0))
    assert abs(rep["ratio"] - n1 / (np.sqrt(TWO_PI) * n1 * nu)) < 1e-10


def test_convolve_certified_random():
    g = TorusGrid(1, 16)
    worst = 0.0
    for f1, f2 in _trials(g, 4, 100, 2):
        rep = convolve_norm_check(f1, f2, 1.0, 2.0, 2.0, W0, W0, W0)
        worst = max(worst, rep["ratio"])
        rep = convolve_norm_check(f1, f2, np.inf, np.inf, np.inf, W0, W0, W0)
        worst = max(worst, rep["ratio"])
    assert worst <= 1 + 1e-10


def test_convolve_weighted_certified():
    g = TorusGrid(1, 16)
    w, w1, w2 = Weight.power(1.0), Weight.power(0.5), Weight.power(0.5)
    worst = 0.0
    for f1, f2 in _trials(g, 5, 50, 2):
        rep = convolve_norm_check(f1, f2, 2.0, 4.0, 4.0, w, w1, w2)
        worst = max(worst, rep["ratio"])
    assert worst <= 1 + 1e-10


def test_convolve_same_modes_closed_form():
    g = TorusGrid(1, 16)
    f = single_mode(g, 2.0)
    rep = convolve_norm_check(f, f, 1.0, 2.0, 2.0, W0, W0, W0)
    # conv = 2 pi e^{2ix}: fl1 = 2pi sqrt(2pi); factors sqrt(2pi) each
    expected = (TWO_PI * np.sqrt(TWO_PI)) / (
        np.sqrt(TWO_PI) * np.sqrt(TWO_PI) * np.sqrt(TWO_PI))
    assert abs(rep["ratio"] - expected) < 1e-10


def test_convolve_precondition():
    g = TorusGrid(1, 8)
    f = random_signal(g, np.random.default_rng(6))
    with pytest.raises(ValueError):
        convolve_norm_check(f, f, 1.0, 1.0, 1.0, W0, W0, W0)


def test_moderation_constant_wrap_peetre():
    g = TorusGrid(1, 16)
    c = moderation_constant(g, Weight.power(1.0), Weight.power(1.0),
                            Weight.power(1.0), wrapped=True)
    assert c <= np.sqrt(2) + 1e-12


def test_critical_product_l1_reduction():
    g = TorusGrid(1, 16)
    worst = 0.0
    for f1, f2 in _trials(g, 7, 50, 2):
        rep = product_critical_norm_check(f1, f2, 1.0, 0.0, 0.0, 0.0, s=0.0)
        worst = max(worst, rep["ratio"])
    assert worst <= 1 + 1e-10


def _lq_dual(y, q):
    """The direction of unit l^q' norm on which y attains its l^q norm."""
    z = np.abs(y) ** (q - 1) * np.exp(1j * np.angle(y))
    return z / np.linalg.norm(z, q / (q - 1))


def _critical_ascent(f1, f2, q, s1, s2, r, s, rounds=15):
    """Largest critical-product ratio met on an ascent from (f1, f2).

    With one factor held, the ratio is the l^q -> l^q gain of a linear map
    of the other factor's weighted spectrum, which Boyd's power method
    ("The power method for l^p norms", Linear Algebra Appl. 9, 1974)
    raises; the two factors take turns.
    """
    g = f1.grid
    eye = np.eye(g.size, dtype=complex)
    F = np.stack([forward_transform(Signal(g, e)).coeffs for e in eye], 1)
    F_inv = np.linalg.inv(F)
    ws, w1, w2 = (Weight.power(t).on_lattice(g) for t in (s, s1, s2 + r))
    v = [f1.values, f2.values]
    best = product_critical_norm_check(f1, f2, q, s1, s2, r, s=s)["ratio"]
    for _ in range(rounds):
        for side, w in ((1, w2), (0, w1)):
            A = ws[:, None] * (F @ (v[1 - side][:, None] * F_inv)) / w
            x = w * (F @ v[side])
            for _ in range(3):
                x = _lq_dual(A.conj().T @ _lq_dual(A @ x, q), q / (q - 1))
            v[side] = F_inv @ (x / w)
            best = max(best, product_critical_rows(
                g, v[0][None], v[1][None], q, s1, s2, r, s)["ratio"][0])
    return best


def test_critical_product_stability():
    # random pairs sit far below the constant (at seed 8 their maxima are
    # 0.104 at n = 16 and 0.029 at n = 32), so the best random pair at
    # each n starts an ascent toward it
    ratios = {}
    for n in (16, 32):
        g = TorusGrid(1, n)
        worst = 0.0
        for f1, f2 in _trials(g, 8, 100, 2):
            rep = product_critical_norm_check(f1, f2, 4.0, 1.0, 1.0, 0.6,
                                              s=1.0)
            if rep["ratio"] > worst:
                worst, start = rep["ratio"], (f1, f2)
        ratios[n] = _critical_ascent(*start, 4.0, 1.0, 1.0, 0.6, 1.0)
        assert ratios[n] >= worst
    assert abs(ratios[32] - ratios[16]) / ratios[16] < 0.5


def test_critical_product_zero_factor():
    g = TorusGrid(1, 16)
    f = random_signal(g, np.random.default_rng(9))
    from flwave.grid import zero_signal

    rep = product_critical_norm_check(f, zero_signal(g), 1.0, 1.0, 1.0, 0.0,
                                      s=1.0)
    assert rep["ratio"] == 0.0


def test_critical_product_preconditions():
    g = TorusGrid(1, 8)
    f = random_signal(g, np.random.default_rng(10))
    with pytest.raises(ValueError):
        product_critical_norm_check(f, f, 4.0, 1.0, 1.0, 0.3, s=1.0)
    with pytest.raises(ValueError):
        product_critical_norm_check(f, f, 1.0, 1.0, -2.0, 0.0)


def test_algebra_l1_certified():
    g = TorusGrid(1, 16)
    worst = 0.0
    for *fs, h in _trials(g, 11, 50, 4):
        rep = algebra_check(fs, h, 1.0, 1.0, 0.0)
        worst = max(worst, rep["per_factor_constant"])
    assert worst <= 1 + 1e-10


def test_algebra_single_factor_reduces_to_product():
    g = TorusGrid(1, 16)
    rng = np.random.default_rng(12)
    f, h = random_signal(g, rng), random_signal(g, rng)
    rep = algebra_check([f], h, 1.0, 1.0, 0.0)
    prod = product_norm_check(f, h, 1, 1, 1, W0, W0, W0)
    assert abs(rep["ratio"] - prod["ratio"]) < 1e-12


def test_algebra_zero_module_element():
    g = TorusGrid(1, 16)
    from flwave.grid import zero_signal

    rep = algebra_check([random_signal(g, np.random.default_rng(13))],
                        zero_signal(g), 1.0, 1.0, 0.0)
    assert rep["ratio"] == 0.0


def test_algebra_preconditions():
    g = TorusGrid(1, 8)
    f = random_signal(g, np.random.default_rng(14))
    with pytest.raises(ValueError):
        algebra_check([f], f, 1.0, 2.0, 0.0)
    with pytest.raises(ValueError):
        algebra_check([f], f, 1.0, 1.0, -1.0)


def test_product_spectral_convolution_duality():
    # pointwise product computed two ways agrees to rounding
    from flwave.bilinear import apply_tf
    from flwave.grid import forward_transform
    from flwave.norms import KernelGrid

    g = TorusGrid(1, 16)
    rng = np.random.default_rng(15)
    f1, f2 = random_signal(g, rng), random_signal(g, rng)
    lhs = forward_transform(f1 * f2).coeffs
    F1 = KernelGrid(g, np.ones((16, 16)))
    conv = apply_tf(F1, forward_transform(f2).coeffs,
                    forward_transform(f1).coeffs)
    rhs = (TWO_PI ** -0.5) * conv
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1, np.max(np.abs(lhs)))


# ---------------------------------------------------------------------------
# Wave-front inclusion checks (desk-scale corpus)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def grid256():
    return TorusGrid(1, 256)


def test_wf_convolution_translated_cusp(grid256):
    # delta at y* translates the cusp's singularity by y*
    delta = make_delta(grid256, (128,))
    cusp = make_power_cusp(grid256, 2.5, 64)
    rep = wf_convolution_check(delta.signal, cusp.signal)
    assert rep["holds"], rep["violations"]
    assert rep["left_singular"] > 0  # translated singularity present


def test_wf_convolution_smooth_pair(grid256):
    s1 = make_smooth(grid256, seed=3, degree=2)
    s2 = make_smooth(grid256, seed=4, degree=2)
    rep = wf_convolution_check(s1.signal, s2.signal)
    assert rep["holds"]
    assert rep["left_singular"] == 0


def test_wf_product_dominant(grid256):
    cusp = make_power_cusp(grid256, 0.5, 192)
    smooth = make_smooth(grid256, seed=1, degree=3)
    rep = wf_product_check(cusp.signal, smooth.signal, "dominant",
                           q=1.0, s1=0.75, s2=0.7)
    assert rep["holds"], rep["violations"]


def test_wf_product_dominant_low(grid256):
    cusp = make_power_cusp(grid256, 0.5, 192)
    smooth = make_smooth(grid256, seed=1, degree=3)
    rep = wf_product_check(cusp.signal, smooth.signal, "dominant_low",
                           q=1.0, s1=0.05, s2=0.7, s=0.7)
    assert rep["holds"], rep["violations"]


def test_wf_product_flags_a_factor_outside_its_class():
    # cusp-2.5 lies outside FL_{s2} at s2 = 3: the product's singularity
    # at cell 64 has no match in the wave front of the smooth factor
    smooth, cusp = standard_corpus(1, 256)[0], standard_corpus(1, 256)[3]
    rep = wf_product_check(smooth.signal, cusp.signal, "dominant",
                           q=1, s1=6, s2=3)
    assert not rep["holds"]
    assert rep["violations"] == [{"x0": [64], "theta": [1.0]},
                                 {"x0": [64], "theta": [-1.0]}]


def test_wf_product_mode_validation(grid256):
    smooth = make_smooth(grid256, seed=1)
    with pytest.raises(ValueError):
        wf_product_check(smooth.signal, smooth.signal, "dominant",
                         q=2.0, s1=0.1, s2=0.5)
    with pytest.raises(ValueError):
        wf_product_check(smooth.signal, smooth.signal, "unknown",
                         q=1.0, s1=1.0, s2=0.0)


def test_wf_derivative_cusp(grid256):
    # a = 3.5 keeps the truncated-spectrum ringing of the spectral
    # derivative below the mass floor over the weighted fit range
    cusp = make_power_cusp(grid256, 3.5, 64)
    for s in (2.0, 3.3):
        rep = wf_derivative_check(cusp.signal, axis=0, q=1.0, s=s)
        assert rep["holds"], rep["violations"]
    # nontrivial at the higher order: the derivative is genuinely flagged
    from flwave.grid import Spectrum, forward_transform, inverse_transform, lattice
    from flwave.wavefront import _scan_at_order

    coeffs = forward_transform(cusp.signal).coeffs
    kx = lattice(grid256).points[:, 0].astype(float)
    df = inverse_transform(Spectrum(grid256, coeffs * 1j * kx))
    left = _scan_at_order(df, 1.0, 3.3)
    assert len(left.singular()) > 0


def test_wf_derivative_smooth(grid256):
    smooth = make_smooth(grid256, seed=6, degree=3)
    rep = wf_derivative_check(smooth.signal, axis=0, q=1.0, s=2.0)
    assert rep["holds"]


def test_algebra_constant_stable_in_factor_count():
    g = TorusGrid(1, 16)
    rng = np.random.default_rng(20)
    constants = []
    for N in (1, 2, 3):
        worst = 0.0
        for *fs, h in _trials(g, 21 + N, 30, N + 1):
            rep = algebra_check(fs, h, 1.0, 1.0, 0.0)
            worst = max(worst, rep["per_factor_constant"])
        constants.append(worst)
    assert all(c <= 1 + 1e-10 for c in constants)
    assert max(constants) / min(constants) < 3.0
