"""Command-line front end: norms, wave-front scans, verification targets.

All randomness flows from a single --seed through per-trial streams, so
identical invocations produce byte-identical JSON reports.  Exit codes:
0 when every assertion of the selected target passes, 1 on verification
failure (with a JSON failure report), 2 on usage errors: bad arguments,
and bad input or unreadable files, reported as {"error", "status": "error"}.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .bilinear import verify_tf_bound, tf_dual_rows, kernel_slice_norms, \
    tail_slice_norms, PowerKernelSpec
from .calculus import (
    algebra_rows,
    convolve_norm_rows,
    product_critical_rows,
    product_norm_rows,
    wf_convolution_check,
    wf_product_check,
)
from .cones import omega_masks
from .corpus import make_delta, make_edge, make_example_sum, make_power_cusp, \
    make_smooth, standard_corpus
from .grid import TorusGrid, read_signal, write_signal
from .modulation import embedding_check, equivalence_check, modulation_norm, \
    modulation_wavefront, SpaceFreqWeight
from .norms import FLNormSpec, KernelGrid, fl_norm, mixed_norm
from .pdo import parse_symbol, transport_check
from .rng import trial_rng, trial_stacks
from .semilinear import bootstrap_indices
from .wavefront import (
    classical_wavefront,
    default_query,
    estimate_wavefront,
    oracle_recovery,
)
from .weights import Weight, parse_weight
from .windows import WindowSpec

VERIFY_TARGETS = (
    "tf-bounds", "duality", "young-conv", "product", "product-critical",
    "wf-product", "wf-conv", "algebra", "slice-norms", "transport",
    "bootstrap", "modulation-equiv", "corpus-oracles",
)


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--seed", type=int, default=0)
    parser = argparse.ArgumentParser(
        prog="flwave",
        description="Weighted Fourier-Lebesgue norms and wave-front scans "
                    "on the discrete torus",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_norm = sub.add_parser("norm", help="norms of an input signal",
                            parents=[shared])
    p_norm.add_argument("--input", required=True)
    p_norm.add_argument("--space", choices=("fl", "mixed", "mod", "cone"),
                        default="fl")
    p_norm.add_argument("--q", type=float, default=1.0)
    p_norm.add_argument("--p", type=float, default=2.0)
    p_norm.add_argument("--weight", type=str, default="s:0")
    p_norm.add_argument("--order", type=int, default=1,
                        help="mixed-norm nesting order (1 or 2)")
    p_norm.add_argument("--window", type=float, default=0,
                        help="window width in cells for modulation norms")
    p_norm.add_argument("--direction", type=str, default="axis:1",
                        help='cone axis: "dir:<radians>" or "axis:x1,...,xd"')
    p_norm.add_argument("--aperture", type=float, default=np.pi / 8)

    p_wf = sub.add_parser("wavefront", help="scan and report",
                          parents=[shared])
    p_wf.add_argument("--input", required=True)
    p_wf.add_argument("--mode", choices=("fl", "classical", "modulation"),
                      default="fl")
    p_wf.add_argument("--q", type=float, default=1.0)
    p_wf.add_argument("--s", type=float, default=None)
    p_wf.add_argument("--bins", type=int, default=32)
    p_wf.add_argument("--out", type=str, default=None)
    p_wf.add_argument("--csv", type=str, default=None)

    p_corpus = sub.add_parser("corpus", help="list or emit corpus entries",
                              parents=[shared])
    corpus_sub = p_corpus.add_subparsers(dest="corpus_command", required=True)
    corpus_sub.add_parser("list")
    p_emit = corpus_sub.add_parser("emit")
    p_emit.add_argument("--id", required=True)
    p_emit.add_argument("--n", type=int, default=256)
    p_emit.add_argument("--d", type=int, default=1)
    p_emit.add_argument("--out", required=True)

    p_verify = sub.add_parser("verify", help="run a verification target",
                              parents=[shared])
    p_verify.add_argument("target", choices=VERIFY_TARGETS)
    p_verify.add_argument("--trials", type=int, default=200)
    p_verify.add_argument("--q", type=float, default=1.0)
    p_verify.add_argument("--r", type=float, default=0.0)
    p_verify.add_argument("--n", type=float, default=None,
                          help="lattice size per axis (norm targets) or "
                               "operator order (bootstrap)")
    p_verify.add_argument("--d", type=int, default=1)
    p_verify.add_argument("--case", type=int, default=1)
    p_verify.add_argument("--s", type=float, default=1.0)
    p_verify.add_argument("--k", type=int, default=0)
    p_verify.add_argument("--m", type=int, default=2)
    p_verify.add_argument("--variant", type=int, default=1)
    p_verify.add_argument("--symbol", type=str, default="laplace+1",
                          help="symbol spec for the transport target")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "trials", 1) < 1:  # no trials certify nothing
        parser.error(f"--trials must be >= 1, got {args.trials}")
    try:
        if args.command == "norm":
            report = _run_norm(args)
        elif args.command == "wavefront":
            report = _run_wavefront(args)
        elif args.command == "corpus":
            report = _run_corpus(args)
        else:
            report = _run_verify(args)
    except (ValueError, OSError) as exc:  # could not run: a usage error
        print(json.dumps({"error": str(exc), "status": "error"},
                         sort_keys=True))
        return 2
    report["build"] = f"flwave-{__version__}"
    passed = report.get("pass", True)
    print(json.dumps(report, sort_keys=True, default=_jsonable))
    return 0 if passed else 1


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    return str(obj)


def _echo(args, keys) -> dict:
    return {k: getattr(args, k) for k in keys if hasattr(args, k)}


def _run_norm(args) -> dict:
    sig = read_signal(args.input)
    weight = parse_weight(args.weight)
    if args.space == "fl":
        value = fl_norm(sig, FLNormSpec(args.q, weight))
    elif args.space == "cone":
        from .cones import Cone, parse_direction
        from .norms import cone_seminorm

        axis = parse_direction(args.direction)
        value = cone_seminorm(sig, Cone(axis, args.aperture),
                              FLNormSpec(args.q, weight))
    elif args.space == "mixed":
        kernel = KernelGrid(sig.grid, np.outer(sig.values, sig.values))
        value = mixed_norm(kernel, args.p, args.q, args.order)
    else:
        width = args.window or max(8, sig.grid.n // 4)
        value = modulation_norm(
            sig, args.p, args.q,
            SpaceFreqWeight(s=weight.s if weight.kind == "power" else 0.0),
            WindowSpec("gauss", width))
    print(value)
    return {"space": args.space, "value": value,
            "params": _echo(args, ("q", "p", "weight", "order"))}


def _run_wavefront(args) -> dict:
    sig = read_signal(args.input)
    query = default_query(sig.grid, bins=args.bins)
    if args.s is not None:
        query = replace(query,
                        spec=FLNormSpec(args.q, Weight.power(args.s)))
    scan = {"fl": estimate_wavefront, "classical": classical_wavefront,
            "modulation": modulation_wavefront}[args.mode]
    report = scan(sig, query)
    text = report.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    if args.csv:
        report.write_csv(args.csv)
    return {"mode": args.mode, "records": json.loads(text)["records"],
            "n_singular": len(report.singular()),
            "params": _echo(args, ("q", "s", "bins"))}


_CORPUS_IDS = ("smooth", "delta", "edge", "cusp-0.5", "cusp-2.5",
               "graded-sum")


def _run_corpus(args) -> dict:
    if args.corpus_command == "list":
        return {"entries": list(_CORPUS_IDS)}
    grid = TorusGrid(args.d, args.n)
    stride = max(4, args.n // 4)
    if args.id == "smooth":
        entry = make_smooth(grid, seed=1)
    elif args.id == "delta":
        entry = make_delta(grid, (2 * stride,) * args.d)
    elif args.id == "edge":
        entry = make_edge(grid, axis=0, offset=0)
    elif args.id == "cusp-0.5":
        entry = make_power_cusp(grid, 0.5, 3 * stride)
    elif args.id == "cusp-2.5":
        entry = make_power_cusp(grid, 2.5, stride)
    elif args.id == "graded-sum":
        entry = make_example_sum(grid, count=3)
    else:
        raise ValueError(f"unknown corpus id {args.id!r}")
    write_signal(entry.signal, args.out)
    return {"id": entry.id, "out": args.out, "n": args.n, "d": args.d}


# ---------------------------------------------------------------------------
# Verify targets
# ---------------------------------------------------------------------------


def _run_verify(args) -> dict:
    if args.n is None:
        if args.target == "bootstrap":
            raise ValueError("bootstrap requires the operator order --n")
        args.n = 16
    handler = {
        "tf-bounds": _verify_tf_bounds,
        "duality": _verify_duality,
        "young-conv": _verify_young,
        "product": _verify_product,
        "product-critical": _verify_product_critical,
        "wf-product": _verify_wf_product,
        "wf-conv": _verify_wf_conv,
        "algebra": _verify_algebra,
        "slice-norms": _verify_slice_norms,
        "transport": _verify_transport,
        "bootstrap": _verify_bootstrap,
        "modulation-equiv": _verify_modulation,
        "corpus-oracles": _verify_corpus,
    }[args.target]
    report = handler(args)
    report["target"] = args.target
    report["seed"] = args.seed
    return report


EXACT_TOL = 1.0 + 1e-10


def _verify_tf_bounds(args) -> dict:
    n = int(args.n)
    reports = [
        verify_tf_bound(1, q=args.q, trials=args.trials, seed=args.seed, n=n),
        verify_tf_bound(3, q=min(args.q, 2.0), trials=args.trials,
                        seed=args.seed, n=n),
        verify_tf_bound(2, q=max(args.q, 4.0), r=args.r or 0.6,
                        trials=args.trials, seed=args.seed, n=n),
    ]
    ok = all(r["max_ratio"] <= EXACT_TOL for r in reports if r["exact"])
    return {"pass": bool(ok), "reports": reports}


def _worst(grid: TorusGrid, args, coeffs: int, values,
           kernel: bool = False) -> float:
    """Largest of ``values(*stacks)`` over the trial stacks, at least 0."""
    return float(max(0.0, *(np.max(values(*stacks)) for stacks in trial_stacks(
        grid, args.seed, range(args.trials), coeffs, kernel))))


def _verify_duality(args) -> dict:
    grid = TorusGrid(args.d, int(args.n))

    def rel_errors(kernels, f, g, h):
        lhs, rhs = tf_dual_rows(grid, kernels, f, g, h)
        diff = lhs - rhs  # np.hypot is abs() of a Python complex
        return np.hypot(diff.real, diff.imag) / np.maximum(
            np.hypot(lhs.real, lhs.imag), 1.0)

    worst = _worst(grid, args, 3, rel_errors, kernel=True)
    return {"pass": bool(worst <= 1e-10), "max_rel_error": worst,
            "trials": args.trials}


def _verify_young(args) -> dict:
    grid = TorusGrid(args.d, int(args.n))
    w0 = Weight.power(0.0)
    q1 = 2.0 * args.q
    worst = _worst(grid, args, 2, lambda f1, f2: [
        convolve_norm_rows(grid, f1, f2, q, qi, qi, w0, w0, w0)["ratio"]
        for q, qi in ((args.q, q1), (np.inf, np.inf))])
    return {"pass": bool(worst <= EXACT_TOL), "max_ratio": worst,
            "trials": args.trials}


def _verify_product(args) -> dict:
    grid = TorusGrid(args.d, int(args.n))
    w0 = Weight.power(0.0)
    worst = _worst(grid, args, 2, lambda f1, f2: product_norm_rows(
        grid, f1, f2, 1.0, 1.0, 1.0, w0, w0, w0)["ratio"])
    return {"pass": bool(worst <= EXACT_TOL), "max_ratio": worst,
            "trials": args.trials}


def _verify_product_critical(args) -> dict:
    q = args.q if args.q > 2 else 4.0
    r = args.r or 0.6
    ratios = {}
    for n in (16, 32):
        grid = TorusGrid(1, n)

        def ratio(f1, f2):
            return product_critical_rows(grid, f1, f2, q, 1.0, 1.0, r,
                                         s=1.0)["ratio"]

        # f1 = f2 = 1 first: its concentrated spectra pin the constant
        ones = np.ones((1, n), dtype=complex)
        ratios[n] = max(float(ratio(ones, ones)[0]),
                        _worst(grid, args, 2, ratio))
    growth = ratios[32] / ratios[16] if ratios[16] > 0 else np.inf
    return {"pass": bool(abs(growth - 1.0) < 0.5), "ratios": ratios,
            "growth": growth}


def _verify_wf_product(args) -> dict:
    n = max(int(args.n), 256)
    corpus = standard_corpus(1, n)
    smooth = corpus[0]
    cusp = corpus[3]
    rep = wf_product_check(smooth.signal, cusp.signal, "dominant",
                           q=1.0, s1=6.0, s2=2.0)
    return {"pass": bool(rep["holds"]), "violations": rep["violations"]}


def _verify_wf_conv(args) -> dict:
    n = max(int(args.n), 256)
    grid = TorusGrid(1, n)
    corpus = standard_corpus(1, n)
    delta = corpus[1]
    bump = make_smooth(grid, seed=3, degree=2)
    rep = wf_convolution_check(bump.signal, delta.signal)
    return {"pass": bool(rep["holds"]), "violations": rep["violations"]}


def _verify_algebra(args) -> dict:
    grid = TorusGrid(args.d, int(args.n))
    worst = _worst(grid, args, 4, lambda f1, f2, f3, g: algebra_rows(
        grid, (f1, f2, f3), g, 1.0, 1.0, 0.0)["per_factor_constant"])
    return {"pass": bool(worst <= EXACT_TOL), "max_constant": worst,
            "trials": args.trials}


def _verify_slice_norms(args) -> dict:
    grid = TorusGrid(1, 256)
    regions = omega_masks(grid, delta=0.5, R=8.0)
    triples = [
        (0, 0, -2), (0, 0, -1), (0, 0, -0.5), (0, -2, 0), (0, -1, 0),
        (0, -0.5, 0), (0.5, -0.3, -0.4), (-0.5, 0, 0), (-1, 0, 0),
        (-2, 0, 0), (0.3, -1.2, -0.7), (-1.5, -1, -1),
    ]
    results = []
    ok = True
    for t0, t1, t2 in triples:
        rep = kernel_slice_norms(PowerKernelSpec(t0, t1, t2), regions, p=1.0)
        for j, r in rep.items():
            ok = ok and r["max_residual"] <= 1e-9
        results.append({"triple": [t0, t1, t2], "regions": rep})
    tails = [
        {"p": 1.0, "spec": (0, 0, -2), "c": 0.5, "R": 4.0},
        {"p": 1.0, "spec": (0, -2, 0), "c": 0.5, "R": 4.0},
        {"p": 2.0, "spec": (0.5, -1, -1), "c": 0.5, "R": 4.0},
        {"p": np.inf, "spec": (1, -1, 0), "c": 0.5, "R": 4.0},
    ]
    for cfg in tails:
        rep = tail_slice_norms(grid, PowerKernelSpec(*cfg["spec"]),
                               cfg["c"], cfg["R"], cfg["p"])
        ok = ok and rep["max_residual"] <= 1e-9
        results.append({"tail": cfg, "report": rep})
    return {"pass": bool(ok), "cases": len(results)}


def _verify_transport(args) -> dict:
    n = max(int(args.n), 256)
    corpus = standard_corpus(1, n)
    cusp = corpus[3]
    symbol = parse_symbol(args.symbol, cusp.signal.grid)
    rep = transport_check(symbol, cusp.signal, q=1.0,
                          s=2.75 + max(0.0, symbol.order - 2.0))
    ok = rep["forward_holds"] and rep["lift_holds"] and rep["union_holds"]
    return {"pass": bool(ok),
            "forward_violations": rep["forward_violations"],
            "lift_violations": rep["lift_violations"],
            "union_violations": rep["union_violations"]}


def _verify_bootstrap(args) -> dict:
    ledger = bootstrap_indices(args.q, args.d, args.s, args.k, args.m,
                               args.r, args.n, args.variant)
    if ledger.accepted:
        print(f"final_index {ledger.final_index}")
    return {
        "pass": bool(ledger.accepted),
        "accepted": ledger.accepted,
        "final_index": ledger.final_index,
        "rejection": ledger.rejection,
        "trace": [list(row) for row in ledger.trace],
        "params": _echo(args, ("q", "d", "s", "k", "m", "r", "n", "variant")),
    }


def _verify_modulation(args) -> dict:
    grid = TorusGrid(1, 64)
    window = WindowSpec("gauss", 16)
    worst_mono = 0.0
    ratios = []
    for t in range(min(args.trials, 100)):
        rng = trial_rng(args.seed, t)
        center = 32
        profile = np.exp(-((np.arange(64) - center) ** 2) / 8.0)
        vals = profile * (rng.standard_normal(64)
                          + 1j * rng.standard_normal(64))
        from .grid import Signal

        sig = Signal(grid, vals)
        rep = embedding_check(sig, q=2.0, p1=1.0, p2=np.inf, window=window)
        worst_mono = max(worst_mono, rep["p_monotonicity_ratio"])
        ratios.append(equivalence_check(sig, 2.0, 0.0, window)["ratio"])
    spread = max(ratios) / min(ratios)
    ok = worst_mono <= EXACT_TOL and spread < 10.0
    return {"pass": bool(ok), "monotonicity": worst_mono,
            "equivalence_spread": spread}


def _verify_corpus(args) -> dict:
    failures = []
    for d, n in ((1, 256), (2, 128)):
        corpus = standard_corpus(d, n)
        query = default_query(corpus[0].signal.grid)
        for entry in corpus:
            # oracle components within two cells and one direction bin
            missed, extras = oracle_recovery(
                estimate_wavefront(entry.signal, query),
                entry.expected_singular(query.spec.weight.s), 2.0, 1)
            if missed or extras:
                detail = (f"missed component at {missed[0].cells[0]}"
                          if missed else
                          f"extra singular verdict at {extras[0].x0}")
                failures.append({"entry": entry.id, "d": d, "detail": detail})
    return {"pass": not failures, "failures": failures}


if __name__ == "__main__":
    sys.exit(main())
