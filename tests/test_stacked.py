"""Stacked-trial checks against per-trial reference loops.

The references evaluate one instance at a time: one signal, one
``forward_transform`` and one scalar norm per trial.  Equality is exact
(``==``): evaluating a stack must not move a single bit.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flwave.rng as rng_mod
from flwave.bilinear import (
    _reflect,
    conjugate_exponent,
    tf_dual_rows,
    verify_tf_bound,
)
from flwave.calculus import (
    algebra_rows,
    convolve_norm_rows,
    product_critical_rows,
    product_norm_rows,
)
from flwave.cli import VERIFY, main
from flwave.grid import Signal, TorusGrid, forward_transform, lattice
from flwave.norms import KernelGrid, _axis_norm
from flwave.weights import Weight

TWO_PI = 2.0 * np.pi
W0 = Weight.power(0.0)
QS = (1.0, 2.0, np.inf)


# ---------------------------------------------------------------------------
# Per-trial references
# ---------------------------------------------------------------------------


def _seq_norm(values, q):
    mags = np.abs(np.asarray(values)).ravel()
    if mags.size == 0:
        return 0.0
    if np.isinf(q):
        return float(np.max(mags))
    return float(np.sum(mags**q) ** (1.0 / q))


def _fl_norm(f, q, w):
    return _seq_norm(forward_transform(f).coeffs * w.on_lattice(f.grid), q)


def _convolve(f, g):
    fa = np.fft.fftn(f.reshaped())
    ga = np.fft.fftn(g.reshaped())
    return Signal(f.grid, (np.fft.ifftn(fa * ga) * f.grid.h**f.grid.d).ravel())


def _mixed(F, p, q, order):
    mags = np.abs(F.values)
    if order == 1:
        return _seq_norm(_axis_norm(mags, p, axis=0), q)
    return _seq_norm(_axis_norm(mags, q, axis=1), p)


def _apply_tf(F, f, g):
    return (F.values * g[lattice(F.grid).wrap_index]) @ f


def _ref_product(f1, f2, q, q1, q2, w, w1, w2):
    denom = _fl_norm(f1, q1, w1) * _fl_norm(f2, q2, w2)
    lhs = _fl_norm(f1 * f2, q, w)
    return lhs / denom if denom > 0 else 0.0


def _ref_convolve(f1, f2, q, q1, q2, w, w1, w2):
    pts = lattice(f1.grid).points
    c_scan = float(np.max(w.evaluate_points(pts) / (
        w1.evaluate_points(pts) * w2.evaluate_points(pts))))
    lhs = _fl_norm(_convolve(f1, f2), q, w)
    denom = (TWO_PI ** (f1.grid.d / 2.0)) * c_scan \
        * _fl_norm(f1, q1, w1) * _fl_norm(f2, q2, w2)
    return lhs / denom if denom > 0 else 0.0


def _ref_critical(f1, f2, q, s1, s2, r, s):
    lhs = _fl_norm(f1 * f2, q, Weight.power(s))
    denom = _fl_norm(f1, q, Weight.power(s1)) \
        * _fl_norm(f2, q, Weight.power(s2 + r))
    return lhs / denom if denom > 0 else 0.0


def _ref_algebra(fs, g, q, q0, s):
    prod = g
    for f in fs:
        prod = prod * f
    w = Weight.power(s)
    lhs = _fl_norm(prod, q, w)
    denom = _fl_norm(g, q0, w)
    for f in fs:
        denom *= _fl_norm(f, q, w)
    ratio = lhs / denom if denom > 0 else 0.0
    return ratio ** (1.0 / (len(fs) + 1)) if ratio > 0 else 0.0


def _ref_dual(F, f, g, h):
    lhs = complex(np.sum(_apply_tf(F, f, g) * h))
    G = KernelGrid(F.grid, F.values.T)
    return lhs, complex(np.sum(_apply_tf(G, h, _reflect(F.grid, g)) * f))


def _rel_error(lhs, rhs):
    return abs(lhs - rhs) / max(abs(lhs), 1.0)


def _structured(grid, q, r):
    lat = lattice(grid)
    origin = lat.index_of((0,) * grid.d)
    out = []
    for exponent in (r * (1.0 + (q / (q - 2.0)) / q), r, 2.0 * r):
        f = np.zeros(grid.size, dtype=complex)
        f[origin] = 1.0
        column = np.zeros((grid.size, grid.size), dtype=complex)
        column[origin, origin] = 1.0
        out.append((KernelGrid(grid, column), f,
                    lat.brackets ** (-exponent) + 0j))
    return out


def _ref_tf_bound(case, q, r, trials, seed, n, d):
    grid = TorusGrid(d, n)
    qp = conjugate_exponent(q)
    weight_r = Weight.power(r).on_lattice(grid)
    structured = _structured(grid, q, r) if case == 2 else []
    max_ratio, worst = 0.0, None
    for t in range(trials):
        if t < len(structured):
            F, f, g = structured[t]
        else:
            rng = rng_mod.trial_rng(seed, t)
            F = rng_mod.random_kernel(grid, rng)
            f = rng_mod.random_coeffs(grid, rng)
            g = rng_mod.random_coeffs(grid, rng)
        out_norm = _seq_norm(_apply_tf(F, f, g), q)
        fn = _seq_norm(f, q)
        if case == 1:
            kn, gn = _mixed(F, np.inf, qp, 2), _seq_norm(g, q)
        elif case == 2:
            kn, gn = _mixed(F, q, np.inf, 1), _seq_norm(g * weight_r, q)
        else:
            kn, gn = _mixed(F, qp, np.inf, 1), _seq_norm(g, q)
        denom = kn * fn * gn
        if denom == 0:
            continue
        if out_norm / denom > max_ratio:
            max_ratio, worst = out_norm / denom, t
    return max_ratio, worst


def _signals(grid, seed, trials, count):
    """Per-trial draws of ``count`` signals, as the loops made them."""
    out = []
    for t in range(trials):
        rng = rng_mod.trial_rng(seed, t)
        out.append([Signal(grid, rng_mod.random_coeffs(grid, rng))
                    for _ in range(count)])
    return out


def _stacked(grid, seed, trials, count, rows):
    """Per-trial values of ``rows`` over the stacked draws."""
    return np.concatenate([rows(*stacks) for stacks in rng_mod.trial_stacks(
        grid, seed, range(trials), count)])


def _critical_params(q, d):
    """(s1, s2, r, s) meeting the critical-product hypotheses at q."""
    r = 0.0 if q <= 2 else d + 0.5
    return 1.0, 1.5, r, 0.5


# ---------------------------------------------------------------------------
# Exact agreement of the stacked checks
# ---------------------------------------------------------------------------

_CASES = st.tuples(st.sampled_from([1, 2]), st.sampled_from([4, 6, 8]))


@settings(max_examples=30, deadline=None)
@given(dn=_CASES, q=st.sampled_from(QS), seed=st.integers(0, 2**32 - 1),
       trials=st.integers(1, 12))
def test_norm_checks_match_per_trial_loops(dn, q, seed, trials):
    grid = TorusGrid(*dn)
    d = grid.d
    w = Weight.power(0.5)
    pairs = _signals(grid, seed, trials, 2)
    got = _stacked(grid, seed, trials, 2, lambda a, b: product_norm_rows(
        grid, a, b, q, 1.0, 1.0, w, w, w)["ratio"])
    assert list(got) == [_ref_product(f1, f2, q, 1.0, 1.0, w, w, w)
                         for f1, f2 in pairs]
    for args in ((q, 2.0 * q, 2.0 * q, w, W0, w), (np.inf,) * 3 + (W0,) * 3):
        got = _stacked(grid, seed, trials, 2, lambda a, b: convolve_norm_rows(
            grid, a, b, *args)["ratio"])
        assert list(got) == [_ref_convolve(f1, f2, *args) for f1, f2 in pairs]
    crit = (q,) + _critical_params(q, d)
    got = _stacked(grid, seed, trials, 2, lambda a, b: product_critical_rows(
        grid, a, b, *crit)["ratio"])
    assert list(got) == [_ref_critical(f1, f2, *crit) for f1, f2 in pairs]
    s = 3.0 * d + 1.0  # meets s >= d/q' and s > d(3/q' - 1)
    got = _stacked(grid, seed, trials, 4, lambda a, b, c, g: algebra_rows(
        grid, (a, b, c), g, q, 1.0, s)["per_factor_constant"])
    assert list(got) == [_ref_algebra(fs[:3], fs[3], q, 1.0, s)
                         for fs in _signals(grid, seed, trials, 4)]


@settings(max_examples=30, deadline=None)
@given(dn=_CASES, seed=st.integers(0, 2**32 - 1), trials=st.integers(1, 8))
def test_dual_pairs_match_per_trial_loop(dn, seed, trials):
    grid = TorusGrid(*dn)
    want = []
    for t in range(trials):
        rng = rng_mod.trial_rng(seed, t)
        F = rng_mod.random_kernel(grid, rng)
        want.append(_ref_dual(F, *(rng_mod.random_coeffs(grid, rng)
                                   for _ in range(3))))
    got = []
    for stacks in rng_mod.trial_stacks(grid, seed, range(trials), 3,
                                       kernel=True):
        got += zip(*(map(complex, side)
                     for side in tf_dual_rows(grid, *stacks)))
    assert got == want


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from([1, 2, 3]), q=st.sampled_from(QS),
       dn=_CASES, seed=st.integers(0, 2**32 - 1), trials=st.integers(1, 9))
def test_verify_tf_bound_matches_per_trial_loop(case, q, dn, seed, trials):
    d, n = dn
    if case == 2:  # needs q > 2 and r > d(1 - 2/q)
        q, r = np.inf, d + 0.2
    elif case == 3 and q > 2:
        q, r = 2.0, 0.0
    else:
        r = 0.0
    rep = verify_tf_bound(case, q=q, r=r, trials=trials, seed=seed, n=n, d=d)
    assert (rep["max_ratio"], rep["worst_seed"]) == _ref_tf_bound(
        case, q, r, trials, seed, n, d)


def test_case2_structured_instances_lead():
    # the three structured instances are trials 0-2; the pinned ratio
    # is reached by one of them
    rep = verify_tf_bound(2, q=4.0, r=0.6, trials=40, seed=3, n=8)
    assert (rep["max_ratio"], rep["worst_seed"]) == _ref_tf_bound(
        2, 4.0, 0.6, 40, 3, 8, 1)
    assert rep["worst_seed"] in (0, 1, 2)
    for trials in (1, 2, 3, 4):
        short = verify_tf_bound(2, q=4.0, r=0.6, trials=trials, seed=3, n=8)
        assert (short["max_ratio"], short["worst_seed"]) == _ref_tf_bound(
            2, 4.0, 0.6, trials, 3, 8, 1)


def test_worst_seed_is_first_trial_reaching_maximum(monkeypatch):
    # every trial draws the same instance, so every ratio ties
    monkeypatch.setattr(rng_mod, "trial_rng",
                        lambda seed, t: np.random.default_rng(seed))
    for case in (1, 3):
        rep = verify_tf_bound(case, q=1.0, trials=6, seed=5, n=8)
        assert rep["max_ratio"] > 0 and rep["worst_seed"] == 0
    rep = verify_tf_bound(2, q=4.0, r=0.6, trials=6, seed=5, n=8)
    assert rep["worst_seed"] == _ref_tf_bound(2, 4.0, 0.6, 6, 5, 8, 1)[1]


@pytest.mark.parametrize("share", [0.5, 1.0])
def test_zero_denominators_are_skipped(monkeypatch, share):
    # a share of the coefficient draws are zero, so their trials have a
    # vanishing denominator
    draw = rng_mod.random_coeffs

    def sometimes_zero(grid, rng):
        out = draw(grid, rng)
        return out * 0 if rng.random() < share else out

    monkeypatch.setattr(rng_mod, "random_coeffs", sometimes_zero)
    for case in (1, 3):
        rep = verify_tf_bound(case, q=2.0, trials=12, seed=9, n=8)
        want = _ref_tf_bound(case, 2.0, 0.0, 12, 9, 8, 1)
        assert (rep["max_ratio"], rep["worst_seed"]) == want
        if share == 1.0:
            assert want == (0.0, None)
    grid = TorusGrid(1, 8)
    pairs = _signals(grid, 9, 12, 2)
    got = _stacked(grid, 9, 12, 2, lambda a, b: product_norm_rows(
        grid, a, b, 1.0, 1.0, 1.0, W0, W0, W0)["ratio"])
    assert list(got) == [_ref_product(f1, f2, 1.0, 1.0, 1.0, W0, W0, W0)
                         for f1, f2 in pairs]


# ---------------------------------------------------------------------------
# Chunked stacks
# ---------------------------------------------------------------------------


def test_trial_stacks_chunks_under_the_byte_budget(monkeypatch):
    grid = TorusGrid(1, 8)
    N = grid.size
    # three trials (one kernel and two coefficient arrays each) per chunk
    monkeypatch.setattr(rng_mod, "STACK_BYTES", 3 * 16 * N * (N + 2) + 7)
    chunks = list(rng_mod.trial_stacks(grid, 4, range(2, 10), 2,
                                       kernel=True))
    assert [len(c[0]) for c in chunks] == [3, 3, 2]
    kernels, f, g = (np.concatenate(parts) for parts in zip(*chunks))
    for i, t in enumerate(range(2, 10)):
        rng = rng_mod.trial_rng(4, t)
        assert np.array_equal(kernels[i],
                              rng_mod.random_kernel(grid, rng).values)
        assert np.array_equal(f[i], rng_mod.random_coeffs(grid, rng))
        assert np.array_equal(g[i], rng_mod.random_coeffs(grid, rng))
    # a budget below one trial still makes progress, one trial per stack
    monkeypatch.setattr(rng_mod, "STACK_BYTES", 1)
    assert [len(c[0]) for c in rng_mod.trial_stacks(grid, 4, range(3), 1)] \
        == [1, 1, 1]


@pytest.mark.parametrize("budget", [1, 5000])
def test_chunked_checks_match_one_stack(monkeypatch, capsys, budget):
    argvs = [["verify", t, "--seed", "11", "--trials", "10", "--n", "8"]
             for t in ("tf-bounds", "duality", "young-conv", "product",
                       "algebra")] + [
        ["verify", "product-critical", "--seed", "11", "--trials", "10"]]

    def run_all():
        out = []
        for argv in argvs:
            assert main(argv) == 0
            out.append(capsys.readouterr().out)
        return out

    whole = run_all()
    monkeypatch.setattr(rng_mod, "STACK_BYTES", budget)
    assert run_all() == whole
    rep = verify_tf_bound(2, q=4.0, r=0.6, trials=10, seed=11, n=8)
    assert (rep["max_ratio"], rep["worst_seed"]) == _ref_tf_bound(
        2, 4.0, 0.6, 10, 11, 8, 1)


# ---------------------------------------------------------------------------
# CLI targets against their former per-trial handlers
# ---------------------------------------------------------------------------


def _ref_target(target, seed, trials, q, d, n):
    grid = TorusGrid(d, n)
    if target == "duality":
        worst = 0.0
        for t in range(trials):
            rng = rng_mod.trial_rng(seed, t)
            F = rng_mod.random_kernel(grid, rng)
            worst = max(worst, _rel_error(*_ref_dual(
                F, *(rng_mod.random_coeffs(grid, rng) for _ in range(3)))))
        return worst
    if target == "young-conv":
        worst = 0.0
        for f1, f2 in _signals(grid, seed, trials, 2):
            worst = max(worst, _ref_convolve(f1, f2, q, 2 * q, 2 * q,
                                             W0, W0, W0))
            worst = max(worst, _ref_convolve(f1, f2, np.inf, np.inf, np.inf,
                                             W0, W0, W0))
        return worst
    if target == "product":
        return max([0.0] + [_ref_product(f1, f2, 1.0, 1.0, 1.0, W0, W0, W0)
                            for f1, f2 in _signals(grid, seed, trials, 2)])
    if target == "algebra":
        return max([0.0] + [_ref_algebra(fs[:3], fs[3], 1.0, 1.0, 0.0)
                            for fs in _signals(grid, seed, trials, 4)])
    ratios = {}
    for m in (16, 32):
        g = TorusGrid(1, m)
        ones = Signal(g, np.ones(m))
        worst = _ref_critical(ones, ones, 4.0, 1.0, 1.0, 0.6, 1.0)
        for f1, f2 in _signals(g, seed, trials, 2):
            worst = max(worst, _ref_critical(f1, f2, 4.0, 1.0, 1.0, 0.6, 1.0))
        ratios[str(m)] = worst
    return ratios


_KEY = {"duality": "max_rel_error", "young-conv": "max_ratio",
        "product": "max_ratio", "algebra": "max_constant",
        "product-critical": "ratios"}


@settings(max_examples=25, deadline=None)
@given(target=st.sampled_from(sorted(_KEY)), seed=st.integers(0, 2**32 - 1),
       trials=st.integers(1, 10), q=st.sampled_from([1.0, 2.0]),
       dn=_CASES)
def test_cli_targets_match_per_trial_handlers(target, seed, trials, q, dn):
    import contextlib
    import io

    d, n = dn
    flags = {"trials": trials, "q": q, "d": d, "n": n}
    if target == "product-critical":  # its reference pins q = 4, the default
        del flags["q"]
    argv = ["verify", target, "--seed", str(seed)]
    for flag, value in flags.items():
        if flag in VERIFY[target][1]:  # a flag outside the row is an error
            argv += [f"--{flag}", str(value)]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main(argv)
    payload = json.loads(buf.getvalue().strip().splitlines()[-1])
    assert payload[_KEY[target]] == _ref_target(target, seed, trials, q, d, n)


def test_product_critical_pins_the_constant(capsys):
    # the (ones, ones) pair makes the n-doubling growth exactly one at the
    # seed the benchmark probes, which failed without it
    assert main(["verify", "product-critical", "--seed", "1465339468"]) == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["pass"] is True
    assert payload["ratios"] == _ref_target("product-critical", 1465339468,
                                            200, 4.0, 1, 16)


def test_zero_trials_rejected_by_the_library():
    with pytest.raises(ValueError, match="trials must be >= 1"):
        verify_tf_bound(1, q=1.0, trials=0)
