"""Nonlinearities, jets, the bootstrap ledger, and the demo solver."""

import numpy as np
import pytest

from flwave.corpus import make_power_cusp, make_smooth
from flwave.grid import Signal, TorusGrid, random_signal, single_mode
from flwave.pdo import multiplier_symbol
from flwave.semilinear import (
    PolynomialNonlinearity,
    bootstrap_indices,
    demo_solve,
    eval_nonlinearity,
    jet,
    wf_nonlinearity_check,
)


def test_identity_term():
    g = TorusGrid(1, 16)
    f = random_signal(g, np.random.default_rng(0))
    G = PolynomialNonlinearity(1, (((1,), 1.0),))
    out = eval_nonlinearity(G, [f])
    assert np.array_equal(out.values, f.values)


def test_pointwise_product_term():
    g = TorusGrid(1, 16)
    rng = np.random.default_rng(1)
    f1, f2 = random_signal(g, rng), random_signal(g, rng)
    G = PolynomialNonlinearity(2, (((1, 1), 1.0),))
    out = eval_nonlinearity(G, [f1, f2])
    assert np.max(np.abs(out.values - (f1 * f2).values)) < 1e-14


def test_x_dependent_coefficient_per_sample_oracle():
    g = TorusGrid(1, 16)
    rng = np.random.default_rng(2)
    f = random_signal(g, rng)
    coeff = random_signal(g, rng)
    G = PolynomialNonlinearity(1, (((2,), coeff),))
    out = eval_nonlinearity(G, [f])
    for j in range(16):
        assert abs(out.values[j] - coeff.values[j] * f.values[j] ** 2) < 1e-14


def test_nonlinearity_validation():
    with pytest.raises(ValueError):
        PolynomialNonlinearity(1, (((0,), 1.0),))  # |alpha| = 0
    g = TorusGrid(1, 16)
    G = PolynomialNonlinearity(2, (((1, 1), 1.0),))
    with pytest.raises(ValueError):
        eval_nonlinearity(G, [random_signal(g, np.random.default_rng(3))])


def test_jet_order_zero():
    g = TorusGrid(1, 16)
    f = random_signal(g, np.random.default_rng(4))
    J = jet(f, 0)
    assert len(J.components) == 1
    assert np.max(np.abs(J.components[0].values - f.values)) < 1e-12


def test_jet_mode_eigenfunction():
    g = TorusGrid(1, 16)
    m = single_mode(g, 1.0)
    J = jet(m, 1)
    assert len(J.components) == 2
    assert np.max(np.abs(J.components[1].values - 1j * m.values)) < 1e-12


def test_jet_2d_counts_and_finite_differences():
    g = TorusGrid(2, 32)
    f = make_smooth(g, seed=5, degree=3).signal
    J = jet(f, 2)
    assert len(J.components) == 6  # binomial(4, 2)
    # finite-difference cross-check of the first derivative
    dx = J.components[J.multi_indices.index((1, 0))]
    vals = f.reshaped()
    fd = (np.roll(vals, -1, axis=0) - np.roll(vals, 1, axis=0)) / (2 * g.h)
    err = np.max(np.abs(dx.reshaped() - fd))
    scale = np.max(np.abs(dx.values))
    assert err < 0.05 * scale  # second-order finite differences


def test_bootstrap_reference_cases():
    L = bootstrap_indices(1, 1, 1, 0, 2, 0, 2, 1)
    assert L.accepted and L.final_index == 4.0
    L = bootstrap_indices(2, 1, 1, 0, 2, 0.5, 2, 1)
    assert L.accepted and abs(L.final_index - 3.5) < 1e-12
    L = bootstrap_indices(2, 2, 0.5, 0, 2, 1, 2, 1)
    assert not L.accepted and L.rejection == "s >= d/q'"


def test_bootstrap_closed_form_and_trace_bound():
    cases = [
        (1, 1, 2.0, 1, 2, 0.0, 3, 1),
        (2, 1, 1.5, 0, 3, 0.5, 2, 1),
        (np.inf, 1, 1.5, 0, 2, 1.5, 2, 1),
        (2, 2, 1.5, 1, 2, 1.0, 3, 1),
    ]
    for q, d, s, k, m, r, n, variant in cases:
        L = bootstrap_indices(q, d, s, k, m, r, n, variant)
        assert L.accepted, (L.rejection, (q, d, s))
        dqp = 0.0 if q == 1 else (d if np.isinf(q) else d * (1 - 1 / q))
        assert abs(L.final_index - (2 * s + n - dqp)) < 1e-9
        gain = n - k - (m - 1) * r
        if gain > 0:
            bound = int(np.ceil((s - dqp) / gain)) + 1
            assert len(L.trace) <= bound
        sigmas = [row[1] for row in L.trace]
        assert all(b >= a - 1e-12 for a, b in zip(sigmas, sigmas[1:]))


def test_bootstrap_rejections_by_name():
    assert bootstrap_indices(2, 1, 1, 0, 2, 0.1, 2, 1).rejection == "r >= d/q'"
    assert bootstrap_indices(1, 1, 0.5, 2, 3, 1, 1, 1).rejection == "n > k"
    assert bootstrap_indices(
        1, 1, 0.5, 2, 3, 1, 3, 1).rejection == "s + n >= d/q' + k + (m-1)r"
    assert bootstrap_indices(2, 1, 1, 0, 2, 0.5, 2, 2).rejection == \
        "variant 2 requires q = 1"


def test_bootstrap_variant2_degree_independent():
    finals = [bootstrap_indices(1, 1, 2, 1, m, 0.7, 3, 2).final_index
              for m in (2, 3, 5)]
    assert finals[0] == finals[1] == finals[2] == 7.0


def test_demo_solve_linear():
    g = TorusGrid(1, 16)
    P = multiplier_symbol(2.0, lambda ks: 1.0 + np.sum(ks**2, axis=-1))
    src = single_mode(g, 2.0)
    out = demo_solve(P, None, src)
    assert np.max(np.abs(out["solution"].values - src.values / 5.0)) < 1e-12


def test_demo_solve_contraction():
    g = TorusGrid(1, 32)
    P = multiplier_symbol(2.0, lambda ks: 1.0 + np.sum(ks**2, axis=-1))
    src = make_smooth(g, seed=6, degree=2).signal
    G = PolynomialNonlinearity(1, (((2,), 0.05),))
    out = demo_solve(P, G, src, tol=1e-11)
    assert out["residual"] < 1e-10


def test_demo_solve_noninvertible_symbol():
    g = TorusGrid(1, 16)
    P = multiplier_symbol(1.0, lambda ks: ks[:, 0])  # vanishes at k = 0
    with pytest.raises(ValueError):
        demo_solve(P, None, single_mode(g, 1.0))


def test_demo_solve_divergence():
    g = TorusGrid(1, 16)
    P = multiplier_symbol(0.0, lambda ks: np.full(ks.shape[0], 0.1))
    G = PolynomialNonlinearity(1, (((2,), 50.0),))
    src = Signal(g, np.full(16, 3.0 + 0j))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises((RuntimeError, ValueError, OverflowError)):
            demo_solve(P, G, src, max_iter=40)


def test_demo_solve_regularity_lift():
    # the elliptic inverse lifts the solution two orders above the source
    g = TorusGrid(1, 256)
    P = multiplier_symbol(2.0, lambda ks: 1.0 + np.sum(ks**2, axis=-1))
    cusp = make_power_cusp(g, 0.5, 64)
    out = demo_solve(P, None, cusp.signal)
    from flwave.wavefront import _scan_at_order

    # source singular at order 0.75; solution regular there
    src_rep = _scan_at_order(cusp.signal, 1.0, 0.75)
    sol_rep = _scan_at_order(out["solution"], 1.0, 0.75)
    assert len(src_rep.singular()) > 0
    assert len(sol_rep.singular()) == 0
    # and singular again once the scan order is raised by the gain
    lifted = _scan_at_order(out["solution"], 1.0, 2.75)
    assert len(lifted.singular()) > 0


def test_wf_nonlinearity_square_of_cusp():
    g = TorusGrid(1, 256)
    cusp = make_power_cusp(g, 0.5, 192)
    G = PolynomialNonlinearity(1, (((2,), 1.0),))
    rep = wf_nonlinearity_check(G, [cusp.signal], q=1.0, s=1.25, sigma=1.25,
                                r=0.5)
    assert rep["holds"], rep["violations"]


def test_wf_nonlinearity_smooth_arguments():
    g = TorusGrid(1, 256)
    fs = [make_smooth(g, seed=s, degree=3).signal for s in (1, 2)]
    G = PolynomialNonlinearity(2, (((1, 1), 1.0), ((2, 0), 0.5)))
    rep = wf_nonlinearity_check(G, fs, q=1.0, s=1.0, sigma=1.0, r=0.0)
    assert rep["holds"]


def test_wf_nonlinearity_preconditions():
    g = TorusGrid(1, 256)
    f = make_smooth(g, seed=1).signal
    G = PolynomialNonlinearity(1, (((2,), 1.0),))
    with pytest.raises(ValueError):
        wf_nonlinearity_check(G, [f], q=2.0, s=0.1, sigma=0.1, r=1.0)
    with pytest.raises(ValueError):
        wf_nonlinearity_check(G, [f], q=1.0, s=1.0, sigma=3.0, r=0.0)
