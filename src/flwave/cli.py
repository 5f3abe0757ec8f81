"""Command-line front end: norms, wave-front scans, verification targets.

Commands and their flags:

- ``norm --input F``: ``--space {fl,mixed,mod,cone}``, ``--q``, ``--p``,
  ``--weight``, ``--order``, ``--window``, ``--direction``, ``--aperture``.
  ``mixed`` takes no weight but ``s:0`` and ``mod`` only ``s:`` weights.
- ``wavefront --input F``: ``--mode {fl,classical,modulation}``, ``--q``,
  ``--s``, ``--bins``, ``--out``, ``--csv``.  The scan runs the default
  query at exponent ``--q``; ``--s`` replaces its weight by <k>^s.
- ``corpus list`` and ``corpus emit --id ID --out F``: ``--d``, ``--n``.
  ID names an entry of ``standard_corpus(d, n)`` by its id or by the id
  prefix before a dash (``smooth`` is ``smooth-1`` at d = 1).
- ``verify TARGET``: ``--seed``, ``--trials``, ``--q``, ``--r``, ``--n``,
  ``--d``, ``--s``, ``--k``, ``--m``, ``--variant``, ``--symbol``.  The
  targets are the keys of ``VERIFY``.

All randomness flows from verify's --seed through per-trial streams, so
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
from functools import partial

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
from .cones import Cone, omega_masks, parse_direction
from .corpus import make_smooth, standard_corpus
from .grid import Signal, TorusGrid, read_signal, write_signal
from .modulation import embedding_check, equivalence_check, modulation_norm, \
    modulation_wavefront, SpaceFreqWeight
from .norms import FLNormSpec, KernelGrid, cone_seminorm, fl_norm, mixed_norm
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flwave",
        description="Weighted Fourier-Lebesgue norms and wave-front scans "
                    "on the discrete torus",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_norm = sub.add_parser("norm", help="norms of an input signal")
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

    p_wf = sub.add_parser("wavefront", help="scan and report")
    p_wf.add_argument("--input", required=True)
    p_wf.add_argument("--mode", choices=("fl", "classical", "modulation"),
                      default="fl")
    p_wf.add_argument("--q", type=float, default=1.0)
    p_wf.add_argument("--s", type=float, default=None)
    p_wf.add_argument("--bins", type=int, default=32)
    p_wf.add_argument("--out", type=str, default=None)
    p_wf.add_argument("--csv", type=str, default=None)

    p_corpus = sub.add_parser("corpus", help="list or emit corpus entries")
    corpus_sub = p_corpus.add_subparsers(dest="corpus_command", required=True)
    corpus_sub.add_parser("list")
    p_emit = corpus_sub.add_parser("emit")
    p_emit.add_argument("--id", required=True)
    p_emit.add_argument("--n", type=int, default=256)
    p_emit.add_argument("--d", type=int, default=1)
    p_emit.add_argument("--out", required=True)

    p_verify = sub.add_parser("verify", help="run a verification target")
    p_verify.add_argument("target", choices=VERIFY)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--trials", type=int, default=200)
    p_verify.add_argument("--q", type=float, default=1.0)
    p_verify.add_argument("--r", type=float, default=0.0)
    p_verify.add_argument("--n", type=float, default=None,
                          help="lattice size per axis (norm targets) or "
                               "operator order (bootstrap)")
    p_verify.add_argument("--d", type=int, default=1)
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
    if args.space == "mixed" and weight != Weight.power(0.0):
        raise ValueError("--space mixed takes no --weight but s:0")
    if args.space == "mod" and weight.kind != "power":
        raise ValueError("--space mod takes only s: --weight values")
    if args.space == "fl":
        value = fl_norm(sig, FLNormSpec(args.q, weight))
    elif args.space == "cone":
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
            SpaceFreqWeight(s=weight.s),
            WindowSpec("gauss", width))
    print(value)
    return {"space": args.space, "value": value,
            "params": _echo(args, ("q", "p", "weight", "order"))}


def _run_wavefront(args) -> dict:
    sig = read_signal(args.input)
    query = default_query(sig.grid, bins=args.bins)
    weight = query.spec.weight if args.s is None else Weight.power(args.s)
    query = replace(query, spec=FLNormSpec(args.q, weight))
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
    for entry in standard_corpus(args.d, args.n):
        if entry.id == args.id or entry.id.startswith(args.id + "-"):
            write_signal(entry.signal, args.out)
            return {"id": entry.id, "out": args.out, "n": args.n, "d": args.d}
    raise ValueError(f"unknown corpus id {args.id!r} at d={args.d}")


# ---------------------------------------------------------------------------
# Verify targets
# ---------------------------------------------------------------------------


def _run_verify(args) -> dict:
    if args.target == "bootstrap":  # --n is the real operator order
        if args.n is None:
            raise ValueError("bootstrap requires the operator order --n")
    else:
        n = 16.0 if args.n is None else args.n
        if not n.is_integer():
            raise ValueError(f"--n is a lattice size, got {n}")
        args.n = int(n)
    report = VERIFY[args.target](args)
    report["target"] = args.target
    report["seed"] = args.seed
    return report


EXACT_TOL = 1.0 + 1e-10
W0 = Weight.power(0.0)


def _verify_tf_bounds(args) -> dict:
    reports = [
        verify_tf_bound(1, q=args.q, trials=args.trials, seed=args.seed,
                        n=args.n),
        verify_tf_bound(3, q=min(args.q, 2.0), trials=args.trials,
                        seed=args.seed, n=args.n),
        verify_tf_bound(2, q=max(args.q, 4.0), r=args.r or 0.6,
                        trials=args.trials, seed=args.seed, n=args.n),
    ]
    ok = all(r["max_ratio"] <= EXACT_TOL for r in reports if r["exact"])
    return {"pass": bool(ok), "reports": reports}


def _worst(grid: TorusGrid, args, coeffs: int, values,
           kernel: bool = False) -> float:
    """Largest of ``values(*stacks)`` over the trial stacks, at least 0."""
    return float(max(0.0, *(np.max(values(*stacks)) for stacks in trial_stacks(
        grid, args.seed, range(args.trials), coeffs, kernel))))


def _trial_max(key: str, bound: float, coeffs: int, values,
               kernel: bool = False):
    """A target whose worst trial value must stay within ``bound``.

    Each trial draws a kernel (with ``kernel``) and ``coeffs`` coefficient
    rows on the ``--d``/``--n`` grid; ``values(grid, q, *stacks)`` gives
    the values of one trial stack, and the report names the worst ``key``.
    """
    def run(args) -> dict:
        grid = TorusGrid(args.d, args.n)
        worst = _worst(grid, args, coeffs, partial(values, grid, args.q),
                       kernel)
        return {"pass": bool(worst <= bound), key: worst,
                "trials": args.trials}

    return run


def _duality_errors(grid, q, kernels, f, g, h):
    lhs, rhs = tf_dual_rows(grid, kernels, f, g, h)
    diff = lhs - rhs  # np.hypot is abs() of a Python complex
    return np.hypot(diff.real, diff.imag) / np.maximum(
        np.hypot(lhs.real, lhs.imag), 1.0)


def _young_ratios(grid, q, f1, f2):
    return [convolve_norm_rows(grid, f1, f2, qo, qi, qi, W0, W0, W0)["ratio"]
            for qo, qi in ((q, 2.0 * q), (np.inf, np.inf))]


def _product_ratios(grid, q, f1, f2):
    return product_norm_rows(grid, f1, f2, 1.0, 1.0, 1.0, W0, W0, W0)["ratio"]


def _algebra_constants(grid, q, f1, f2, f3, g):
    return algebra_rows(grid, (f1, f2, f3), g, 1.0, 1.0,
                        0.0)["per_factor_constant"]


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
    n = max(args.n, 256)
    corpus = standard_corpus(1, n)
    smooth = corpus[0]
    cusp = corpus[3]
    rep = wf_product_check(smooth.signal, cusp.signal, "dominant",
                           q=1.0, s1=6.0, s2=2.0)
    return {"pass": bool(rep["holds"]), "violations": rep["violations"]}


def _verify_wf_conv(args) -> dict:
    n = max(args.n, 256)
    grid = TorusGrid(1, n)
    corpus = standard_corpus(1, n)
    delta = corpus[1]
    bump = make_smooth(grid, seed=3, degree=2)
    rep = wf_convolution_check(bump.signal, delta.signal)
    return {"pass": bool(rep["holds"]), "violations": rep["violations"]}


def _verify_slice_norms(args) -> dict:
    grid = TorusGrid(1, 256)
    regions = omega_masks(grid, delta=0.5, R=8.0)
    triples = [
        (0, 0, -2), (0, 0, -1), (0, 0, -0.5), (0, -2, 0), (0, -1, 0),
        (0, -0.5, 0), (0.5, -0.3, -0.4), (-0.5, 0, 0), (-1, 0, 0),
        (-2, 0, 0), (0.3, -1.2, -0.7), (-1.5, -1, -1),
    ]
    ok = True
    for triple in triples:
        rep = kernel_slice_norms(PowerKernelSpec(*triple), regions, p=1.0)
        for r in rep.values():
            ok = ok and r["max_residual"] <= 1e-9
    tails = [  # (p, kernel spec); each at c = 0.5, R = 4
        (1.0, (0, 0, -2)), (1.0, (0, -2, 0)), (2.0, (0.5, -1, -1)),
        (np.inf, (1, -1, 0)),
    ]
    for p, spec in tails:
        rep = tail_slice_norms(grid, PowerKernelSpec(*spec), 0.5, 4.0, p)
        ok = ok and rep["max_residual"] <= 1e-9
    return {"pass": bool(ok), "cases": len(triples) + len(tails)}


def _verify_transport(args) -> dict:
    n = max(args.n, 256)
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
    profile = np.exp(-((np.arange(64) - 32) ** 2) / 8.0)
    worst_mono = 0.0
    ratios = []
    for t in range(min(args.trials, 100)):
        rng = trial_rng(args.seed, t)
        vals = profile * (rng.standard_normal(64)
                          + 1j * rng.standard_normal(64))
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


# The verify targets: the parser's choices and the dispatch both read it.
VERIFY = {
    "tf-bounds": _verify_tf_bounds,
    "duality": _trial_max("max_rel_error", 1e-10, 3, _duality_errors,
                          kernel=True),
    "young-conv": _trial_max("max_ratio", EXACT_TOL, 2, _young_ratios),
    "product": _trial_max("max_ratio", EXACT_TOL, 2, _product_ratios),
    "product-critical": _verify_product_critical,
    "wf-product": _verify_wf_product,
    "wf-conv": _verify_wf_conv,
    "algebra": _trial_max("max_constant", EXACT_TOL, 4, _algebra_constants),
    "slice-norms": _verify_slice_norms,
    "transport": _verify_transport,
    "bootstrap": _verify_bootstrap,
    "modulation-equiv": _verify_modulation,
    "corpus-oracles": _verify_corpus,
}


if __name__ == "__main__":
    sys.exit(main())
