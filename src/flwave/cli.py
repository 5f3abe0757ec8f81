"""Command-line front end: norms, wave-front scans, verification targets.

Commands: ``norm --input F --space S``, ``wavefront --input F --mode M``,
``corpus list``, ``corpus emit --id ID --out F`` and ``verify TARGET``.
Each space, mode or target takes the flags of its row in ``NORM``,
``WAVEFRONT`` or ``VERIFY``, which README.md lists with their defaults.
Any other flag is a usage error: it would change nothing in the output.

All randomness flows from verify's --seed: each randomized target draws
its trials in blocks, one generator per (seed, target, block), so
identical invocations produce byte-identical JSON reports and different
seeds draw different trials.  Exit codes:
0 when every assertion of the selected target passes, 1 on verification
failure (with a JSON failure report), 2 on usage errors: bad arguments,
and bad input or unreadable files, reported as {"error", "status": "error"}.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from functools import partial

import numpy as np

from . import __version__
from .bilinear import verify_tf_bound, _tf_case_grid, tf_dual_rows, \
    kernel_slice_norms, tail_slice_norms, PowerKernelSpec
from .calculus import (
    algebra_rows,
    convolve_norm_rows,
    product_critical_rows,
    product_norm_rows,
    wf_convolution_check,
    wf_product_check,
)
from .cones import Cone, omega_masks, parse_direction
from .corpus import corpus_entry, make_smooth, standard_corpus
from .grid import Signal, TorusGrid, read_signal, write_signal
from .modulation import embedding_check, equivalence_check, modulation_norm, \
    modulation_wavefront, SpaceFreqWeight, _stft_window
from .norms import FLNormSpec, KernelGrid, cone_seminorm, fl_norm, mixed_norm
from .pdo import parse_symbol, transport_check
from .rng import gaussian_trials, trial_stacks
from .semilinear import bootstrap_indices
from .wavefront import (
    classical_wavefront,
    default_query,
    estimate_wavefront,
    oracle_recovery,
)
from .weights import Weight, parse_weight
from .windows import WindowSpec


# The type of every flag in a table row.  verify's --n is real: a lattice
# size per axis, or the operator order of bootstrap.
FLAG_TYPES = {"q": float, "s": float, "r": float, "n": float, "p": float,
              "window": float, "aperture": float, "d": int, "k": int,
              "m": int, "trials": int, "order": int, "bins": int,
              "variant": int, "weight": str, "direction": str, "symbol": str}
# The domain of a float flag: finite values, and inf for the exponents.
_EXPONENTS = {"q", "p"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flwave",
        description="Weighted Fourier-Lebesgue norms and wave-front scans "
                    "on the discrete torus",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_norm = sub.add_parser("norm", help="norms of an input signal",
                            argument_default=argparse.SUPPRESS)
    p_norm.add_argument("--input", required=True)
    p_norm.add_argument("--space", choices=NORM, default="fl")
    _add_flags(p_norm, NORM)

    p_wf = sub.add_parser("wavefront", help="scan and report",
                          argument_default=argparse.SUPPRESS)
    p_wf.add_argument("--input", required=True)
    p_wf.add_argument("--mode", choices=WAVEFRONT, default="fl")
    _add_flags(p_wf, WAVEFRONT)
    p_wf.add_argument("--out", default=None)
    p_wf.add_argument("--csv", default=None)

    p_corpus = sub.add_parser("corpus", help="list or emit corpus entries")
    corpus_sub = p_corpus.add_subparsers(dest="corpus_command", required=True)
    corpus_sub.add_parser("list")
    p_emit = corpus_sub.add_parser("emit")
    p_emit.add_argument("--id", required=True)
    p_emit.add_argument("--n", type=int, default=256)
    p_emit.add_argument("--d", type=int, default=1)
    p_emit.add_argument("--out", required=True)

    p_verify = sub.add_parser("verify", help="run a verification target",
                              argument_default=argparse.SUPPRESS)
    p_verify.add_argument("target", choices=VERIFY)
    p_verify.add_argument("--seed", type=int, default=0)
    _add_flags(p_verify, VERIFY)
    return parser


def _add_flags(parser, table: dict) -> None:
    """Add the flags of every row of ``table``, unset unless given."""
    for flag in dict.fromkeys(f for _, row in table.values() for f in row):
        parser.add_argument(f"--{flag}", type=FLAG_TYPES[flag])


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        if args.command == "corpus":
            report = _run_corpus(args)
        else:
            table, pick, body = COMMANDS[args.command]
            choice = getattr(args, pick.lstrip("-"))
            run, row = table[choice]
            named = f"{pick} {choice}" if pick.startswith("-") else choice
            _settle(args, row, f"{args.command} {named}")
            report = body(args, run, row)
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
    return {k: getattr(args, k) for k in keys}


def _settle(args, row: dict, where: str) -> None:
    """Reject a flag given to ``where`` outside ``row`` or outside its
    domain (a NaN, or an infinity other than an exponent's inf), then fill
    in the row's defaults."""
    for flag, value in vars(args).items():  # in command-line order
        if flag not in FLAG_TYPES:
            continue
        if flag not in row:
            raise ValueError(f"{where} does not read --{flag}")
        if FLAG_TYPES[flag] is float and not (
                math.isfinite(value) or (flag in _EXPONENTS
                                         and value == math.inf)):
            domain = "finite or inf" if flag in _EXPONENTS else "finite"
            raise ValueError(f"--{flag} must be {domain}, got {value}")
    for flag, value in row.items():
        vars(args).setdefault(flag, value)


def _run_norm(args, norm, row) -> dict:
    value = norm(read_signal(args.input), args)
    print(value)
    return {"space": args.space, "value": value, "params": _echo(args, row)}


def _fl(sig: Signal, args) -> float:
    return fl_norm(sig, FLNormSpec(args.q, parse_weight(args.weight)))


def _mixed(sig: Signal, args) -> float:
    kernel = KernelGrid(sig.grid, np.outer(sig.values, sig.values))
    return mixed_norm(kernel, args.p, args.q, args.order)


def _mod(sig: Signal, args) -> float:
    weight = parse_weight(args.weight)
    if weight.kind != "power":
        raise ValueError("--space mod takes only s: --weight values")
    if args.window is None:
        args.window = float(_stft_window(sig.grid).width)
    return modulation_norm(sig, args.p, args.q, SpaceFreqWeight(s=weight.s),
                           WindowSpec("gauss", args.window))


def _cone(sig: Signal, args) -> float:
    if args.aperture is not None and sig.grid.d == 1:  # d = 1: two half-lines
        raise ValueError("--aperture sets a 2-D cone's half-angle; a 1-D "
                         "cone is a half-line")
    args.aperture = np.pi / 8 if args.aperture is None else args.aperture
    spec = FLNormSpec(args.q, parse_weight(args.weight))
    return cone_seminorm(
        sig, Cone(parse_direction(args.direction), args.aperture), spec)


# Each space's norm and the flags it reads, with their defaults; a None
# window is the default STFT window's width, a None aperture pi/8.  mixed
# applies no weight.
NORM = {
    "fl": (_fl, {"q": 1.0, "weight": "s:0"}),
    "mixed": (_mixed, {"q": 1.0, "p": 2.0, "order": 1}),
    "mod": (_mod, {"q": 1.0, "p": 2.0, "weight": "s:0", "window": None}),
    "cone": (_cone, {"q": 1.0, "weight": "s:0", "direction": "axis:1",
                     "aperture": None}),
}


def _run_wavefront(args, scan, row) -> dict:
    sig = read_signal(args.input)
    if args.bins is not None and sig.grid.d == 1:  # d = 1 has two signs
        raise ValueError("--bins sets 2-D direction bins; a 1-D scan has "
                         "the two signs")
    args.bins = 32 if args.bins is None else args.bins
    query = default_query(sig.grid, bins=args.bins)
    if "s" in row:  # the classical scan reads neither: q = inf, no weight
        args.s = query.spec.weight.s if args.s is None else args.s
        query = replace(query, spec=FLNormSpec(args.q, Weight.power(args.s)))
    report = scan(sig, query)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report.to_json())
    if args.csv:
        report.write_csv(args.csv)
    return {"mode": args.mode, "records": report.rows(),
            "n_singular": len(report.singular()),
            "params": _echo(args, row)}


# Each mode's scan (looked up when it runs, so a rebound one runs) and the
# flags it reads, with their defaults: a None s is the default query's
# weight order, None bins are 32.
_SCAN = {"q": 1.0, "s": None, "bins": None}
WAVEFRONT = {
    "fl": (lambda *a: estimate_wavefront(*a), _SCAN),
    "classical": (lambda *a: classical_wavefront(*a), {"bins": None}),
    "modulation": (lambda *a: modulation_wavefront(*a), _SCAN),
}


def _run_corpus(args) -> dict:
    if args.corpus_command == "list":  # the ids do not depend on n
        return {"entries": {str(d): [e.id for e in standard_corpus(d, 16)]
                            for d in (1, 2)}}
    entry = corpus_entry(standard_corpus(args.d, args.n), args.id)
    write_signal(entry.signal, args.out)
    return {"id": entry.id, "out": args.out, "n": args.n, "d": args.d}


# ---------------------------------------------------------------------------
# Verify targets
# ---------------------------------------------------------------------------


def _run_verify(args, run, row) -> dict:
    if args.seed < 0:  # a seed keys the trial blocks with n >= 0
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    if "trials" in row and args.trials < 1:  # no trials certify nothing
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    if args.target == "bootstrap":  # --n is the real operator order
        if args.n is None:
            raise ValueError("bootstrap requires the operator order --n")
    elif "n" in row:
        if not float(args.n).is_integer():
            raise ValueError(f"--n is a lattice size, got {args.n}")
        args.n = int(args.n)
    return {**run(args), "target": args.target, "seed": args.seed}


EXACT_TOL = 1.0 + 1e-10
W0 = Weight.power(0.0)


def _verify_tf_bounds(args) -> dict:
    # case 3 needs q <= 2 and case 2 q > 2: they run at min(q, 2), max(q, 4)
    cases = ((1, args.q, 0.0), (3, min(args.q, 2.0), 0.0),
             (2, max(args.q, 4.0), args.r))
    for case, q, r in cases:  # every case's hypotheses before any trial
        _tf_case_grid(case, q, r, args.trials, args.n)
    reports = [verify_tf_bound(case, q, r, args.trials, args.seed, args.n)
               for case, q, r in cases]
    ok = all(r["max_ratio"] <= EXACT_TOL for r in reports if r["exact"])
    return {"pass": bool(ok), "reports": reports}


def _worst(grid: TorusGrid, args, coeffs: int, values,
           kernel: bool = False) -> float:
    """Largest of ``values(*stacks)`` over the trial stacks, at least 0."""
    return float(max(0.0, *(np.max(values(*stacks)) for stacks in trial_stacks(
        grid, args.seed, args.target, range(args.trials), coeffs, kernel))))


def _trial_max(key: str, bound: float, coeffs: int, values, args,
               kernel: bool = False) -> dict:
    """Run a target whose worst trial value must stay within ``bound``.

    Each trial draws a kernel (with ``kernel``) and ``coeffs`` coefficient
    rows on the ``--d``/``--n`` grid; ``values(grid, *stacks)`` gives the
    values of one trial stack, and the report names the worst ``key``.
    """
    grid = TorusGrid(args.d, args.n)
    worst = _worst(grid, args, coeffs, partial(values, grid), kernel)
    return {"pass": bool(worst <= bound), key: worst, "trials": args.trials}


def _duality_errors(grid, kernels, f, g, h):
    lhs, rhs = tf_dual_rows(grid, kernels, f, g, h)
    diff = lhs - rhs  # np.hypot is abs() of a Python complex
    return np.hypot(diff.real, diff.imag) / np.maximum(
        np.hypot(lhs.real, lhs.imag), 1.0)


def _young_ratios(grid, f1, f2, q):
    return [convolve_norm_rows(grid, f1, f2, qo, qi, qi, W0, W0, W0)["ratio"]
            for qo, qi in ((q, 2.0 * q), (np.inf, np.inf))]


def _verify_young_conv(args) -> dict:
    return _trial_max("max_ratio", EXACT_TOL, 2,
                      partial(_young_ratios, q=args.q), args)


def _product_ratios(grid, f1, f2):
    return product_norm_rows(grid, f1, f2, 1.0, 1.0, 1.0, W0, W0, W0)["ratio"]


def _algebra_constants(grid, f1, f2, f3, g):
    return algebra_rows(grid, (f1, f2, f3), g, 1.0, 1.0,
                        0.0)["per_factor_constant"]


def _verify_product_critical(args) -> dict:
    ratios = {}
    for n in (16, 32):
        grid = TorusGrid(1, n)

        def ratio(f1, f2):
            return product_critical_rows(grid, f1, f2, args.q, 1.0, 1.0,
                                         args.r, s=1.0)["ratio"]

        # f1 = f2 = 1 first: its concentrated spectra pin the constant
        ones = np.ones((1, n), dtype=complex)
        ratios[n] = max(float(ratio(ones, ones)[0]),
                        _worst(grid, args, 2, ratio))
    growth = ratios[32] / ratios[16] if ratios[16] > 0 else np.inf
    return {"pass": bool(abs(growth - 1.0) < 0.5), "ratios": ratios,
            "growth": growth}


def _verify_wf_product(args) -> dict:
    corpus = standard_corpus(1, 256)
    rep = wf_product_check(corpus_entry(corpus, "smooth").signal,
                           corpus_entry(corpus, "cusp-2.5").signal,
                           "dominant", q=1.0, s1=6.0, s2=2.0)
    return {"pass": bool(rep["holds"]), "violations": rep["violations"]}


def _verify_wf_conv(args) -> dict:
    bump = make_smooth(TorusGrid(1, 256), seed=3, degree=2)
    rep = wf_convolution_check(bump.signal,
                               corpus_entry(standard_corpus(1, 256),
                                            "delta").signal)
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
    cusp = corpus_entry(standard_corpus(1, 256), "cusp-2.5").signal
    symbol = parse_symbol(args.symbol, cusp.grid)
    rep = transport_check(symbol, cusp, q=1.0,
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
    for row in gaussian_trials(args.seed, args.target, range(args.trials),
                               64):
        sig = Signal(grid, profile * row)
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
            missed, extras = oracle_recovery(
                estimate_wavefront(entry.signal, query),
                entry.expected_singular(query.spec.weight.s))
            if missed or extras:
                detail = (f"missed component at {missed[0].cells[0]}"
                          if missed else
                          f"extra singular verdict at {extras[0].x0}")
                failures.append({"entry": entry.id, "d": d, "detail": detail})
    return {"pass": not failures, "failures": failures}


# Each target's runner and the flags it reads besides --seed, which every
# target takes, with their defaults.  The 1-D oracle targets (wf-product,
# wf-conv, transport) run at n = 256, the size their corpus is calibrated at.
_TRIALS_DN = {"trials": 200, "d": 1, "n": 16}
VERIFY = {
    "tf-bounds": (_verify_tf_bounds,
                  {"trials": 200, "q": 1.0, "r": 0.6, "n": 16}),
    "duality": (partial(_trial_max, "max_rel_error", 1e-10, 3,
                        _duality_errors, kernel=True), _TRIALS_DN),
    "young-conv": (_verify_young_conv,
                   {"trials": 200, "q": 1.0, "d": 1, "n": 16}),
    "product": (partial(_trial_max, "max_ratio", EXACT_TOL, 2,
                        _product_ratios), _TRIALS_DN),
    "product-critical": (_verify_product_critical,
                         {"trials": 200, "q": 4.0, "r": 0.6}),
    "wf-product": (_verify_wf_product, {}),
    "wf-conv": (_verify_wf_conv, {}),
    "algebra": (partial(_trial_max, "max_constant", EXACT_TOL, 4,
                        _algebra_constants), _TRIALS_DN),
    "slice-norms": (_verify_slice_norms, {}),
    "transport": (_verify_transport, {"symbol": "laplace+1"}),
    "bootstrap": (_verify_bootstrap,
                  {"q": 1.0, "d": 1, "s": 1.0, "k": 0, "m": 2, "r": 0.0,
                   "n": None, "variant": 1}),
    "modulation-equiv": (_verify_modulation, {"trials": 100}),
    "corpus-oracles": (_verify_corpus, {}),
}

# Each command's table, the argument that picks its row, and what runs it.
COMMANDS = {"norm": (NORM, "--space", _run_norm),
            "wavefront": (WAVEFRONT, "--mode", _run_wavefront),
            "verify": (VERIFY, "target", _run_verify)}

# Parsing leaves the parser as it was, so every call shares one.
PARSER = build_parser()


if __name__ == "__main__":
    sys.exit(main())
