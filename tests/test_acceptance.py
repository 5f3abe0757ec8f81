"""Acceptance suite: one test per criterion, each printing a verdict line.

Exact lattice identities and certified inequalities run at their stated
trial counts and tolerances; estimator-level checks run on the standard
corpus at n = 256 (d = 1) and n = 128 (d = 2) with the blur tolerance of
two grid cells and one direction bin.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from flwave.bilinear import (
    PowerKernelSpec,
    kernel_slice_norms,
    tail_slice_norms,
    tf_dual_pair,
    verify_tf_bound,
)
from flwave.calculus import (
    convolve_norm_check,
    product_critical_norm_check,
    product_norm_check,
    wf_convolution_check,
    wf_derivative_check,
    wf_product_check,
)
from flwave.cones import omega_masks
from flwave.corpus import make_delta, make_power_cusp, make_smooth, \
    standard_corpus
from flwave.grid import (
    Signal,
    TorusGrid,
    cyclic_convolve,
    forward_transform,
    inverse_transform,
    random_signal,
)
from flwave.modulation import (
    embedding_check,
    equivalence_check,
    modulation_wavefront,
)
from flwave.norms import FLNormSpec, KernelGrid
from flwave.pdo import multiplier_symbol, transport_check
from flwave.rng import trial_stacks
from flwave.semilinear import PolynomialNonlinearity, bootstrap_indices, \
    wf_nonlinearity_check
from flwave.wavefront import (
    BIN_TOL,
    CELL_TOL,
    classical_wavefront,
    default_query,
    estimate_wavefront,
    oracle_recovery,
    regular_directions,
    report_included_in,
    superior_scan,
)
from flwave.weights import Weight
from flwave.windows import WindowSpec, window_signal

EXACT = 1e-10

TWO_PI = 2.0 * np.pi


def _trials(g, seed, trials, count, kernel=False):
    """Each trial's instance arrays, in order, from the trial blocks."""
    for stacks in trial_stacks(g, seed, "acceptance", range(trials), count,
                               kernel):
        yield from zip(*stacks)


def _verdict(criterion: str, passed: bool, detail: str = ""):
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] {criterion}" + (f" ({detail})" if detail else ""))
    assert passed, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# Criterion 1: exact lattice identities
# ---------------------------------------------------------------------------


def test_criterion_1_exact_identities():
    start = time.time()
    grids = [TorusGrid(1, 16), TorusGrid(1, 32), TorusGrid(2, 8),
             TorusGrid(2, 16)]
    worst_parseval = worst_round = worst_conv = 0.0
    for t in range(500):
        rng = np.random.default_rng(101 ^ t)
        g = grids[t % len(grids)]
        f = random_signal(g, rng)
        F = forward_transform(f)
        lhs = np.sum(np.abs(F.coeffs) ** 2)
        rhs = g.h**g.d * np.sum(np.abs(f.values) ** 2)
        worst_parseval = max(worst_parseval, abs(lhs - rhs) / max(lhs, 1e-300))
        back = inverse_transform(F)
        worst_round = max(worst_round,
                          np.max(np.abs(back.values - f.values))
                          / max(np.max(np.abs(f.values)), 1e-300))
        h2 = random_signal(g, rng)
        conv = forward_transform(cyclic_convolve(f, h2)).coeffs
        prod = (TWO_PI ** (g.d / 2.0)) * F.coeffs \
            * forward_transform(h2).coeffs
        worst_conv = max(worst_conv, np.max(np.abs(conv - prod))
                         / max(np.max(np.abs(prod)), 1e-300))
    worst_dual = 0.0
    for g in (TorusGrid(1, 16), TorusGrid(1, 8)):
        for K, f, h2, k in _trials(g, 102, 250, 3, kernel=True):
            lhs, rhs = tf_dual_pair(KernelGrid(g, K), f, h2, k)
            worst_dual = max(worst_dual, abs(lhs - rhs) / max(abs(lhs), 1.0))
    elapsed = time.time() - start
    ok = (worst_parseval <= EXACT and worst_round <= EXACT
          and worst_conv <= EXACT and worst_dual <= EXACT and elapsed < 60)
    _verdict(
        "criterion 1: exact lattice identities",
        ok,
        f"parseval {worst_parseval:.2e}, roundtrip {worst_round:.2e}, "
        f"convolution {worst_conv:.2e}, duality {worst_dual:.2e}, "
        f"{elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 2: certified inequalities
# ---------------------------------------------------------------------------


def test_criterion_2_certified_inequalities():
    start = time.time()
    worst = {}
    for q in (1.0, 2.0, 4.0, np.inf):
        rep = verify_tf_bound(1, q=q, trials=1000, seed=201, n=8)
        worst[f"case1 q={q}"] = rep["max_ratio"]
    for q in (1.0, 1.5, 2.0):
        rep = verify_tf_bound(3, q=q, trials=1000, seed=202, n=8)
        worst[f"case3 q={q}"] = rep["max_ratio"]
    g = TorusGrid(1, 16)
    w0 = Weight.power(0.0)
    young = prod = 0.0
    for rows in _trials(g, 203, 500, 2):
        f1, f2 = (Signal(g, row) for row in rows)
        young = max(young,
                    convolve_norm_check(f1, f2, 1.0, 2.0, 2.0,
                                        w0, w0, w0)["ratio"])
        young = max(young,
                    convolve_norm_check(f1, f2, np.inf, np.inf, np.inf,
                                        w0, w0, w0)["ratio"])
        prod = max(prod,
                   product_norm_check(f1, f2, 1, 1, 1, w0, w0, w0)["ratio"])
    elapsed = time.time() - start
    bad = {k: v for k, v in worst.items() if v > 1 + EXACT}
    ok = not bad and young <= 1 + EXACT and prod <= 1 + EXACT \
        and elapsed < 120
    _verdict(
        "criterion 2: certified inequalities",
        ok,
        f"bilinear bounds max {max(worst.values()):.6f}, "
        f"young {young:.6f}, product {prod:.6f}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 3: empirical constant stability
# ---------------------------------------------------------------------------


def test_criterion_3_constant_stability():
    tf = {}
    for n in (16, 32):
        tf[n] = verify_tf_bound(2, q=4.0, r=0.6, trials=200, seed=301,
                                n=n)["max_ratio"]
    tf_change = abs(tf[32] - tf[16]) / tf[16]
    crit = {}
    for n in (16, 32):
        g = TorusGrid(1, n)
        # deterministic near-extremal pair first: concentrated spectra pin
        # the constant, random trials probe around it
        ones = Signal(g, np.ones(g.size, dtype=complex))
        worst = product_critical_norm_check(ones, ones, 4.0, 1.0, 1.0,
                                            0.6, s=1.0)["ratio"]
        for rows in _trials(g, 302, 200, 2):
            rep = product_critical_norm_check(
                *(Signal(g, row) for row in rows), 4.0, 1.0, 1.0, 0.6, s=1.0)
            worst = max(worst, rep["ratio"])
        crit[n] = worst
    crit_change = abs(crit[32] - crit[16]) / crit[16]
    ok = tf_change < 0.5 and crit_change < 0.5
    _verdict(
        "criterion 3: constant stability under n doubling",
        ok,
        f"weighted bilinear {tf_change:.1%}, critical product "
        f"{crit_change:.1%}",
    )


# ---------------------------------------------------------------------------
# Criterion 4: slice-norm certification
# ---------------------------------------------------------------------------


def test_criterion_4_slice_norms():
    start = time.time()
    grid = TorusGrid(1, 256)  # lattice range +-128
    regions = omega_masks(grid, delta=0.5, R=8.0)
    triples = [
        (0, 0, -2), (0, 0, -1), (0, 0, -0.5),
        (0, -2, 0), (0, -1, 0), (0, -0.5, 0),
        (0.5, -0.3, -0.4), (-0.5, 0, 0), (-1, 0, 0), (-2, 0, 0),
        (0.3, -1.2, -0.7), (-1.5, -1, -1),
    ]
    branches = set()
    worst_residual = -np.inf
    for t0, t1, t2 in triples:
        rep = kernel_slice_norms(PowerKernelSpec(t0, t1, t2), regions, p=1.0)
        for j, r in rep.items():
            branches.add((j if j < 4 else 4, r["branch"]))
            worst_residual = max(worst_residual, r["max_residual"])
    tails = [
        (1.0, (0, 0, -2)), (1.0, (0, -2, 0)),
        (2.0, (0.5, -1, -1)), (np.inf, (1, -1, 0)),
    ]
    for p, spec in tails:
        rep = tail_slice_norms(grid, PowerKernelSpec(*spec), 0.5, 4.0, p)
        worst_residual = max(worst_residual, rep["max_residual"])
    elapsed = time.time() - start
    # both log branches plus the power branches of every region family
    needed = {(1, "log"), (2, "log"), (4, "log"), (1, "below"), (1, "above"),
              (2, "below"), (2, "above"), (3, "bounded"), (4, "above"),
              (4, "below")}
    ok = needed <= branches and worst_residual <= 1e-9 and elapsed < 120
    _verdict(
        "criterion 4: slice-norm bounds across all branches",
        ok,
        f"{len(triples)} triples, 4 tail configs, max residual "
        f"{worst_residual:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 5: corpus oracle recovery
# ---------------------------------------------------------------------------


def _oracle_recovery(entry, query):
    report = estimate_wavefront(entry.signal, query)
    missed, extras = oracle_recovery(
        report, entry.expected_singular(query.spec.weight.s), CELL_TOL,
        BIN_TOL)
    return [comp.cells[0] for comp in missed], [rec.x0 for rec in extras]


def test_criterion_5_corpus_oracles():
    start = time.time()
    failures = []
    for d, n in ((1, 256), (2, 128)):
        corpus = standard_corpus(d, n)
        query = default_query(corpus[0].signal.grid)
        for entry in corpus:
            missed, extras = _oracle_recovery(entry, query)
            if missed or extras:
                failures.append((d, entry.id, missed, extras))
    elapsed = time.time() - start
    _verdict(
        "criterion 5: wave-front oracle recovery",
        not failures and elapsed < 300,
        f"9 entries, {elapsed:.1f}s" + (f", failures {failures}"
                                        if failures else ""),
    )


# ---------------------------------------------------------------------------
# Criterion 6: inclusion theorems at verdict level
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def corpus1():
    return standard_corpus(1, 256)


@pytest.fixture(scope="module")
def corpus2():
    return standard_corpus(2, 128)


def test_criterion_6a_windowing(corpus1):
    # localizing cannot create singular directions (one-bin tolerance)
    g = TorusGrid(1, 256)
    spec = FLNormSpec(1.0, Weight.power(2.75))
    violations = []
    for entry in corpus1:
        base = regular_directions(entry.signal, spec, np.pi / 2, 2,
                                  octaves=(4, 6))
        base_sigma = {tuple(t) for t in base["sigma"]}
        for center in ((64,), (192,)):
            windowed = window_signal(entry.signal, WindowSpec("gauss", 128),
                                     center)
            out = regular_directions(windowed, spec, np.pi / 2, 2,
                                     octaves=(4, 6))
            for t in out["sigma"]:
                if tuple(t) not in base_sigma:
                    violations.append((entry.id, center, t))
    _verdict("criterion 6a: windowing adds no singular directions",
             not violations, str(violations) if violations else "5 entries")


def test_criterion_6b_monotonicity_ladder(corpus1, corpus2):
    rungs = {
        1: [(1.0, 3.75), (2.0, 3.3), (np.inf, 2.6)],
        2: [(1.0, 1.5), (2.0, 1.25), (np.inf, 1.0)],
    }
    violations = []
    for d, corpus in ((1, corpus1), (2, corpus2)):
        query = default_query(corpus[0].signal.grid)
        for entry in corpus:
            reports = []
            for q, s in rungs[d]:
                spec = FLNormSpec(q, Weight.power(s))
                reports.append(estimate_wavefront(
                    entry.signal, replace(query, spec=spec)))
            for lo, hi in zip(reports, reports[1:]):
                lo_verdicts = {(r.x0, r.theta): r.verdict for r in lo.records}
                for rec in hi.records:
                    if rec.verdict == "singular" and \
                            lo_verdicts[(rec.x0, rec.theta)] == "regular":
                        violations.append((d, entry.id, rec.x0, rec.theta))
    _verdict("criterion 6b: wave front decreases along the (q, w) ladder",
             not violations, str(violations[:4]) if violations else
             "3 rungs x 9 entries")


def test_criterion_6c_derivative_rule():
    g = TorusGrid(1, 256)
    entries = [make_smooth(g, seed=6, degree=3),
               make_power_cusp(g, 3.5, 64)]
    violations = []
    for entry in entries:
        for s in (2.0, 3.3):
            rep = wf_derivative_check(entry.signal, axis=0, q=1.0, s=s)
            if not rep["holds"]:
                violations.append((entry.id, s, rep["violations"]))
    _verdict("criterion 6c: derivative shifts the wave front by one order",
             not violations, str(violations) if violations else
             "2 entries x 2 orders")


def test_criterion_6d_convolution(corpus1):
    g = TorusGrid(1, 256)
    delta = make_delta(g, (128,))
    cusp = corpus1[3]
    smooth = make_smooth(g, seed=3, degree=2)
    checks = [
        wf_convolution_check(delta.signal, cusp.signal),
        wf_convolution_check(smooth.signal, make_smooth(g, seed=4).signal),
        wf_convolution_check(smooth.signal, cusp.signal),
    ]
    ok = all(c["holds"] for c in checks)
    nontrivial = checks[0]["left_singular"] > 0
    _verdict("criterion 6d: convolution translates the wave front",
             ok and nontrivial,
             f"3 pairs, translated singularities {checks[0]['left_singular']}")


def test_criterion_6e_products(corpus1, corpus2):
    g = TorusGrid(1, 256)
    cusp05 = make_power_cusp(g, 0.5, 192)
    smooth = make_smooth(g, seed=1, degree=3)
    rep1 = wf_product_check(cusp05.signal, smooth.signal, "dominant",
                            q=1.0, s1=0.75, s2=0.7)
    rep2 = wf_product_check(cusp05.signal, smooth.signal, "dominant_low",
                            q=1.0, s1=0.05, s2=0.7, s=0.7)
    # union bound, nontrivially: two cusps of different orders at
    # different positions, both genuinely inside their norm classes (the
    # constant offset keeps the product from vanishing off-support)
    ones = Signal(g, np.ones(g.size, dtype=complex))
    cusp_a = make_power_cusp(g, 2.5, 64)
    cusp_b = make_power_cusp(g, 3.5, 192)
    f2 = cusp_b.signal + ones
    rep3 = wf_product_check(cusp_a.signal, f2, "union_critical",
                            q=1.0, s1=2.0, s2=3.0)
    # transversal edges: membership forces q = 2, where the critical scan
    # order sits below the edge singularity onset (inclusion holds with an
    # empty left side)
    edge_x, edge_y = corpus2[2], corpus2[3]
    rep4 = wf_product_check(edge_x.signal, edge_y.signal, "union_critical",
                            q=2.0, s1=0.4, s2=0.4)
    from flwave.wavefront import _scan_at_order

    left = _scan_at_order(cusp_a.signal * f2, 1.0, 5.0)
    ok = rep1["holds"] and rep2["holds"] and rep3["holds"] and rep4["holds"]
    _verdict("criterion 6e: product wave-front inclusions",
             ok and len(left.singular()) > 0,
             f"two-factor bounds + unions; union left side carries "
             f"{len(left.singular())} singular verdicts")


def test_criterion_6f_nonlinearity():
    g = TorusGrid(1, 256)
    cusp = make_power_cusp(g, 0.5, 192)
    G = PolynomialNonlinearity(1, (((2,), 1.0),))
    rep = wf_nonlinearity_check(G, [cusp.signal], q=1.0, s=1.25,
                                sigma=1.25, r=0.5)
    smooths = [make_smooth(g, seed=s, degree=3).signal for s in (1, 2)]
    G3 = PolynomialNonlinearity(
        2, (((1, 1), 1.0), ((2, 1), 0.5), ((0, 1), 1.0)))
    rep2 = wf_nonlinearity_check(G3, smooths, q=1.0, s=1.0, sigma=1.0, r=0.0)
    _verdict("criterion 6f: polynomial nonlinearity wave-front bound",
             rep["holds"] and rep2["holds"],
             "square of cusp + cubic of smooth pair")


def test_criterion_6g_transport(corpus1, corpus2):
    g = TorusGrid(1, 256)
    cusp = corpus1[3]
    suite = [
        multiplier_symbol(0.0, lambda ks: np.ones(ks.shape[0]), "one"),
        multiplier_symbol(2.0, lambda ks: 1.0 + np.sum(ks**2, axis=-1),
                          "laplace+1"),
    ]
    oks, details = [], []
    for sym in suite:
        rep = transport_check(sym, cusp.signal, q=1.0, s=2.75)
        oks.append(rep["forward_holds"] and rep["lift_holds"]
                   and rep["union_holds"])
        details.append(sym.label)
    k1 = multiplier_symbol(1.0, lambda ks: ks[:, 0], "dx1")
    edge = corpus2[3]  # normals along the second axis: characteristic for k1
    rep = transport_check(k1, edge.signal, q=1.0, s=1.0)
    oks.append(rep["forward_holds"] and rep["lift_holds"]
               and rep["union_holds"])
    details.append("dx1-on-edge")
    _verdict("criterion 6g: microlocal transport and characteristic union",
             all(oks), ", ".join(details))


# ---------------------------------------------------------------------------
# Criterion 7: strictness exhibit
# ---------------------------------------------------------------------------


def test_criterion_7_strictness(corpus1):
    entry = corpus1[4]
    g = entry.signal.grid
    query = replace(default_query(g), positions=((0,),))
    classical = classical_wavefront(entry.signal, query)
    classically_singular = all(
        rec.verdict == "singular" for rec in classical.records)
    scans_pass = []
    for s in (0.0, 1.0, 2.0):
        spec = FLNormSpec(1.0, Weight.power(s))
        rep = estimate_wavefront(entry.signal, replace(query, spec=spec))
        scans_pass.append(all(r.verdict == "regular" for r in rep.records))
    sup = superior_scan(entry.signal, query, [0.0, 1.0, 2.0, 3.0, 6.0])
    fixed_fails_high = all(not rec["fixed_pass"][-1] for rec in sup.values())
    adaptive_passes = all(all(rec["adaptive_pass"]) for rec in sup.values())
    ok = classically_singular and all(scans_pass) and fixed_fails_high \
        and adaptive_passes
    _verdict(
        "criterion 7: strict inclusion exhibit at the origin",
        ok,
        f"classical singular {classically_singular}, order scans pass "
        f"{scans_pass}, fixed fails high {fixed_fails_high}, adaptive "
        f"passes {adaptive_passes}",
    )


# ---------------------------------------------------------------------------
# Criterion 8: bootstrap ledger table
# ---------------------------------------------------------------------------


def test_criterion_8_bootstrap_table():
    inf = np.inf
    # (q, d, s, k, m, r, n, variant, expected final or rejection name)
    table = [
        (1, 1, 1.0, 0, 2, 0.0, 2, 1, 4.0),
        (1, 1, 2.0, 1, 2, 0.0, 3, 1, 7.0),
        (1, 2, 2.0, 1, 3, 0.5, 3, 1, 7.0),
        (1, 1, 0.0, 0, 2, 0.0, 1, 1, 1.0),
        (2, 1, 1.0, 0, 2, 0.5, 2, 1, 3.5),
        (2, 1, 1.5, 0, 3, 0.5, 2, 1, 4.5),
        (2, 2, 1.5, 1, 2, 1.0, 3, 1, 5.0),
        (2, 2, 1.0, 0, 2, 1.0, 3, 1, 4.0),
        (inf, 1, 1.5, 0, 2, 1.5, 2, 1, 4.0),
        (inf, 1, 2.0, 1, 2, 1.0, 3, 1, 6.0),
        (inf, 2, 2.0, 0, 2, 2.0, 3, 1, 5.0),
        (1, 1, 2.0, 1, 2, 0.7, 3, 2, 7.0),
        (1, 1, 2.0, 1, 3, 0.7, 3, 2, 7.0),
        (1, 1, 2.0, 1, 5, 0.7, 3, 2, 7.0),
        (1, 2, 1.0, 0, 4, 0.0, 2, 2, 4.0),
        (2, 2, 0.5, 0, 2, 1.0, 2, 1, "s >= d/q'"),
        (2, 1, 1.0, 0, 2, 0.1, 2, 1, "r >= d/q'"),
        (1, 1, 0.5, 2, 3, 1.0, 3, 1, "s + n >= d/q' + k + (m-1)r"),
        (1, 1, 1.0, 2, 2, 0.0, 1, 1, "n > k"),
        (2, 1, 1.0, 0, 2, 0.5, 2, 2, "variant 2 requires q = 1"),
    ]
    start = time.time()
    failures = []
    for row in table:
        q, d, s, k, m, r, n, variant, expected = row
        ledger = bootstrap_indices(q, d, s, k, m, r, n, variant)
        if isinstance(expected, str):
            if ledger.accepted or ledger.rejection != expected:
                failures.append((row, ledger.rejection))
        else:
            dqp = 0.0 if q == 1 else (d if np.isinf(q) else d * (1 - 1 / q))
            closed = 2 * s + n - dqp
            if not ledger.accepted or \
                    abs(ledger.final_index - expected) > 1e-9 or \
                    abs(ledger.final_index - closed) > 1e-9:
                failures.append((row, ledger))
    elapsed = time.time() - start
    _verdict(
        "criterion 8: bootstrap ledger 20-case table",
        not failures and elapsed < 1.0,
        f"{len(table)} cases, {elapsed * 1000:.0f}ms"
        + (f", failures {failures}" if failures else ""),
    )


# ---------------------------------------------------------------------------
# Criterion 9: modulation equivalences
# ---------------------------------------------------------------------------


def test_criterion_9a_embedding_monotonicity():
    g = TorusGrid(1, 64)
    window = WindowSpec("gauss", 16)
    worst = 0.0
    for t in range(200):
        rng = np.random.default_rng(901 ^ t)
        profile = np.exp(-((np.arange(64) - 32.0) ** 2) / 8.0)
        vals = profile * (rng.standard_normal(64)
                          + 1j * rng.standard_normal(64))
        rep = embedding_check(Signal(g, vals), q=2.0, p1=1.0, p2=np.inf,
                              window=window)
        worst = max(worst, rep["p_monotonicity_ratio"])
    _verdict("criterion 9a: modulation norm monotone in the inner exponent",
             worst <= 1 + EXACT, f"max ratio {worst:.6f} over 200 trials")


def test_criterion_9b_equivalence_spread():
    g = TorusGrid(1, 64)
    window = WindowSpec("gauss", 16)
    # p = q = 2 baseline: the ratio is the window energy, identical for
    # every signal (a regression constant rather than a spread statement)
    profile = np.exp(-((np.arange(64) - 32.0) ** 2) / 8.0)
    base = [equivalence_check(Signal(g, profile * (1.0 + 0.1 * k)), 2.0,
                              0.0, window)["ratio"] for k in range(3)]
    assert max(base) / min(base) < 1 + 1e-10
    # q = 1 exercises signal-dependent ratios; equivalence bounds the
    # spread across equal-support random bumps
    ratios = []
    for t in range(100):
        rng = np.random.default_rng(902 ^ t)
        vals = profile * (rng.standard_normal(64)
                          + 1j * rng.standard_normal(64))
        ratios.append(equivalence_check(Signal(g, vals), 1.0, 0.0,
                                        window)["ratio"])
    spread = max(ratios) / min(ratios)
    _verdict("criterion 9b: local norm equivalence with bounded spread",
             1.0 < spread < 10.0, f"spread {spread:.2f} over 100 signals")


def test_criterion_9c_wavefront_agreement():
    start = time.time()
    mismatches = []
    for d, n in ((1, 256), (2, 128)):
        corpus = standard_corpus(d, n)
        grid = corpus[0].signal.grid
        query = default_query(grid)
        for entry in corpus:
            est = estimate_wavefront(entry.signal, query)
            mod = modulation_wavefront(entry.signal, query)
            # matched at the same position within BIN_TOL bins, both ways
            for left, right, side in ((mod, est, "mod-only"),
                                      (est, mod, "est-only")):
                found = report_included_in(left, right, 0, BIN_TOL)
                mismatches.extend((d, entry.id, tuple(v["x0"]),
                                   tuple(v["theta"]), side)
                                  for v in found["violations"])
    elapsed = time.time() - start
    _verdict(
        "criterion 9c: spectral and modulation wave-front verdicts agree",
        not mismatches,
        f"9 entries, {elapsed:.1f}s"
        + (f", mismatches {mismatches[:4]}" if mismatches else ""),
    )
