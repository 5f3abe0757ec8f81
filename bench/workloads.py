"""Workload definitions: inputs, request streams, operations and checks.

Every operation calls flwave through module attributes
(``wavefront.estimate_wavefront``), never through names imported here,
so the tracer's wrappers see each call.

A workload seed fixes the request order, the ladder orders, the sampled
scan points, the trial ``--seed`` values and the random signals.  Requests
are dealt in rounds with a fixed class mix, so every seed measures the
same share of each request class.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import flwave.calculus as calculus
import flwave.cli as cli
import flwave.corpus as corpus
import flwave.grid as grid_mod
import flwave.modulation as modulation
import flwave.semilinear as semilinear
import flwave.wavefront as wavefront
import flwave.windows as windows
from flwave.norms import FLNormSpec
from flwave.weights import Weight

WORKLOADS = ("scan", "modulation", "certify")
REFS_PATH = Path(__file__).resolve().parent / "refs" / "verdicts.json"

CELL_TOL = 2.0  # oracle tolerance: grid cells ...
BIN_TOL = 1  # ... and direction bins

# criterion-6b ladder orders at d=2, plus the classical scan
SCAN_KINDS = (("fl", 1.0, 1.0), ("fl", 1.0, 1.5), ("fl", 2.0, 1.25),
              ("fl", np.inf, 1.0), ("classical", None, None))
SCAN_SIZES = (128, 256)
SCAN_ROUND = (128, 128, 128, 128, 256)  # 4/5 of scans at n=128

MOD_N = 128  # criterion-9c scan points
STFT_GRID = (2, 32)  # (d, n) of the random modulation-norm signals
STFT_SIGNALS = 16
STFT_EXPONENTS = ((2.0, 2.0), (1.0, 2.0), (2.0, 1.0), (np.inf, 1.0))
MOD_ROUND = ("9c", "9c", "9c", "stft")  # p50 and p90 inside the 9c class

CERTIFY_TARGETS = ("tf-bounds", "duality", "young-conv", "product",
                   "product-critical", "algebra", "slice-norms", "bootstrap",
                   "wf-product", "wf-conv", "transport")
# Requests per round and class (20 per round).  Nine requests per round
# run faster than duality and nine slower, so p50 sits in the middle of
# the duality class; young-conv, the slowest class, is the top fifth, so
# p90 sits in its middle (see README.md).
CERTIFY_ROUND = {
    "verify:bootstrap": 2, "wf_derivative": 2, "superior_scan": 1,
    "wf_nonlinearity": 1, "verify:wf-conv": 1, "verify:transport": 1,
    "verify:wf-product": 1, "verify:duality": 2, "verify:slice-norms": 1,
    "verify:product": 1, "verify:algebra": 1, "verify:product-critical": 1,
    "verify:tf-bounds": 1, "verify:young-conv": 4,
}
# `verify product-critical` fails for most trial seeds >= 192 at the
# commit that introduced this benchmark (README.md, "Known defects").
TRIAL_SEEDS = 128
KNOWN_DEFECT_PROBE = ("product-critical", 1465339468)
# accepted rows of the acceptance suite's bootstrap table
BOOTSTRAP_FLAGS = ("--q", "--d", "--s", "--k", "--m", "--r", "--n",
                   "--variant")
BOOTSTRAP_ROWS = (
    (1, 1, 1.0, 0, 2, 0.0, 2, 1), (1, 1, 2.0, 1, 2, 0.0, 3, 1),
    (1, 2, 2.0, 1, 3, 0.5, 3, 1), (1, 1, 0.0, 0, 2, 0.0, 1, 1),
    (2, 1, 1.0, 0, 2, 0.5, 2, 1), (2, 1, 1.5, 0, 3, 0.5, 2, 1),
    (2, 2, 1.5, 1, 2, 1.0, 3, 1), (2, 2, 1.0, 0, 2, 1.0, 3, 1),
    ("inf", 1, 1.5, 0, 2, 1.5, 2, 1), ("inf", 1, 2.0, 1, 2, 1.0, 3, 1),
    ("inf", 2, 2.0, 0, 2, 2.0, 3, 1), (1, 1, 2.0, 1, 2, 0.7, 3, 2),
    (1, 1, 2.0, 1, 3, 0.7, 3, 2), (1, 1, 2.0, 1, 5, 0.7, 3, 2),
    (1, 2, 1.0, 0, 4, 0.0, 2, 2),
)
DERIVATIVE_ORDERS = (2.0, 3.3)
SUPERIOR_ORDERS = (0.0, 1.0, 2.0, 3.0, 6.0)


@dataclass(frozen=True)
class Request:
    cls: str  # request class: p50/p90 must each fall inside one class
    key: tuple  # what to run, resolved against the workload inputs


class Inputs:
    """Generated inputs of one workload: flwave receives only these."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        getattr(self, f"_make_{workload}")()

    def _make_scan(self):
        self.corpora, self.queries = {}, {}
        for n in SCAN_SIZES:
            entries = corpus.standard_corpus(2, n)
            base = wavefront.default_query(entries[0].signal.grid)
            self.corpora[n] = entries
            self.queries[n] = [
                base if mode == "classical"
                else replace(base, spec=FLNormSpec(q, Weight.power(s)))
                for mode, q, s in SCAN_KINDS]

    def _make_modulation(self):
        entries = corpus.standard_corpus(2, MOD_N)
        self.corpora = {MOD_N: entries}
        self.query = wavefront.default_query(entries[0].signal.grid)
        d, n = STFT_GRID
        g = grid_mod.TorusGrid(d, n)
        rng = np.random.default_rng([self.seed, 1])
        self.signals = [
            grid_mod.Signal(g, rng.standard_normal(g.size)
                            + 1j * rng.standard_normal(g.size))
            for _ in range(STFT_SIGNALS)]

    def _make_certify(self):
        g = grid_mod.TorusGrid(1, 256)
        entries = corpus.standard_corpus(1, 256)
        self.graded = entries[4]
        self.origin_query = replace(wavefront.default_query(g),
                                    positions=((0,),))
        self.derivative_signals = [
            corpus.make_smooth(g, seed=6, degree=3).signal,
            corpus.make_power_cusp(g, 3.5, 64).signal]
        self.cusp = corpus.make_power_cusp(g, 0.5, 192).signal
        self.smooth_pair = [corpus.make_smooth(g, seed=s, degree=3).signal
                            for s in (1, 2)]

    # -- request stream -----------------------------------------------------

    def requests(self):
        """Endless request stream fixed by the workload seed."""
        rnd = random.Random(self.seed)
        decks: dict = {}

        def deal(name, items):
            if not decks.get(name):
                deck = list(items)
                rnd.shuffle(deck)
                decks[name] = deck
            return decks[name].pop()

        while True:
            batch = list(self._round(deal, rnd))
            rnd.shuffle(batch)
            yield from batch

    def _round(self, deal, rnd):
        if self.workload == "scan":
            combos = [(e, k) for e in range(4) for k in range(len(SCAN_KINDS))]
            for n in SCAN_ROUND:
                yield Request(f"n{n}", (n,) + deal(n, combos))
        elif self.workload == "modulation":
            points = [(e, p) for e in range(4)
                      for p in range(len(self.query.positions))]
            norms = [(i, j) for i in range(STFT_SIGNALS)
                     for j in range(len(STFT_EXPONENTS))]
            for cls in MOD_ROUND:
                yield Request(cls, deal(cls, points if cls == "9c"
                                        else norms))
        else:
            for cls, count in CERTIFY_ROUND.items():
                for _ in range(count):
                    yield Request(cls, self._certify_key(cls, deal, rnd))

    def _certify_key(self, cls, deal, rnd):
        if cls == "verify:bootstrap":
            args = tuple(a for flag, value in zip(BOOTSTRAP_FLAGS,
                                                  deal(cls, BOOTSTRAP_ROWS))
                         for a in (flag, str(value)))
            return ("bootstrap", rnd.randrange(TRIAL_SEEDS), args)
        if cls.startswith("verify:"):
            return (cls[len("verify:"):], rnd.randrange(TRIAL_SEEDS), ())
        if cls == "wf_derivative":
            return deal(cls, [(i, s) for i in range(2)
                              for s in DERIVATIVE_ORDERS])
        if cls == "wf_nonlinearity":
            return (deal(cls, [0, 1]),)
        return ()

    def warmup_requests(self) -> list:
        """One representative request per class (fills lazy caches)."""
        first: dict = {}
        stream = self.requests()
        while len(first) < len(self.classes()):
            req = next(stream)
            first.setdefault(req.cls, req)
        return [first[c] for c in self.classes()]

    def classes(self) -> tuple:
        if self.workload == "scan":
            return tuple(f"n{n}" for n in SCAN_SIZES)
        if self.workload == "modulation":
            return ("9c", "stft")
        return tuple(CERTIFY_ROUND)

    # -- operations ---------------------------------------------------------

    def execute(self, req: Request):
        """Run one operation; returns its compact output."""
        return getattr(self, f"_op_{self.workload}")(req)

    def _op_scan(self, req):
        n, entry, kind = req.key
        scan = (wavefront.classical_wavefront
                if SCAN_KINDS[kind][0] == "classical"
                else wavefront.estimate_wavefront)
        report = scan(self.corpora[n][entry].signal, self.queries[n][kind])
        return (verdict_string(r.verdict for r in report.records),
                tuple((r.x0, r.theta) for r in report.singular()))

    def _op_modulation(self, req):
        if req.cls == "stft":
            sig, exps = req.key
            p, q = STFT_EXPONENTS[exps]
            return modulation.modulation_norm(self.signals[sig], p, q)
        entry, pos = req.key
        return ninec_verdicts(self.corpora[MOD_N][entry].signal, self.query,
                              self.query.positions[pos])

    def _op_certify(self, req):
        if req.cls.startswith("verify:"):
            target, seed, extra = req.key
            return run_cli(["verify", target, "--seed", str(seed), *extra])
        if req.cls == "wf_derivative":
            sig, s = req.key
            return calculus.wf_derivative_check(
                self.derivative_signals[sig], axis=0, q=1.0, s=s)["holds"]
        if req.cls == "wf_nonlinearity":
            return self._nonlinearity(req.key[0])
        sup = wavefront.superior_scan(self.graded.signal, self.origin_query,
                                      SUPERIOR_ORDERS)
        # criterion 7: the fixed variant fails at the top order while the
        # adaptive variant passes every order
        return (all(not rec["fixed_pass"][-1] for rec in sup.values())
                and all(all(rec["adaptive_pass"]) for rec in sup.values()))

    def _nonlinearity(self, variant):
        PN = semilinear.PolynomialNonlinearity
        if variant == 0:
            G = PN(1, (((2,), 1.0),))
            rep = semilinear.wf_nonlinearity_check(
                G, [self.cusp], q=1.0, s=1.25, sigma=1.25, r=0.5)
        else:
            G = PN(2, (((1, 1), 1.0), ((2, 1), 0.5), ((0, 1), 1.0)))
            rep = semilinear.wf_nonlinearity_check(
                G, self.smooth_pair, q=1.0, s=1.0, sigma=1.0, r=0.0)
        return rep["holds"]

    # -- checks -------------------------------------------------------------

    def check(self, req: Request, out, refs: dict) -> str:
        """Empty string when the output is correct, else the reason."""
        return getattr(self, f"_check_{self.workload}")(req, out, refs)

    def _check_scan(self, req, out, refs):
        n, entry, kind = req.key
        ref = refs["scan"][scan_ref_key(self.corpora[n][entry], n, kind)]
        verdicts, singular = out
        if verdicts != ref["verdicts"]:
            return "verdict grid differs from reference"
        if SCAN_KINDS[kind][0] == "fl":
            found = oracle_mismatch(self.corpora[n][entry],
                                    self.queries[n][kind], singular)
            if list(found) != ref["oracle_mismatch"]:
                return f"oracle mismatch (missed, extra) = {found}"
        return ""

    def _check_modulation(self, req, out, refs):
        if req.cls == "9c":
            entry, pos = req.key
            key = ninec_ref_key(self.corpora[MOD_N][entry],
                                self.query.positions[pos])
            return "" if out == refs["9c"][key] else \
                "9c verdicts differ from reference"
        sig, exps = req.key
        want = stft_norm_reference(self.signals[sig], *STFT_EXPONENTS[exps])
        if not abs(out - want) <= 1e-9 * abs(want):
            return f"modulation norm {out!r} != reference {want!r}"
        return ""

    def _check_certify(self, req, out, refs):
        if req.cls.startswith("verify:"):
            code, last_line = out
            try:
                passed = json.loads(last_line).get("pass") is True
            except ValueError:
                return "no JSON report on the last output line"
            return "" if code == 0 and passed else \
                f"exit {code}, report {last_line[:200]}"
        return "" if out is True else f"{req.cls} check does not hold"


def run_cli(argv: list) -> tuple:
    """flwave's CLI in-process, stdout captured: (exit code, last line)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    lines = buf.getvalue().strip().splitlines()
    return code, lines[-1] if lines else ""


def verdict_string(verdicts) -> str:
    return "".join("S" if v == "singular" else "R" for v in verdicts)


def ninec_verdicts(signal, query, x0) -> str:
    """One criterion-9c scan point: sup profile plus every direction."""
    n = signal.grid.n
    sup_v = modulation.modulation_sup_profile(
        signal, x0, query.window, position_radius=max(2, n // 32),
        position_step=max(2, n // 64))
    return verdict_string(
        modulation.modulation_direction_verdict(
            signal, x0, theta, query.spec.q, query.spec.weight.s,
            query.window, query.aperture, query.octaves,
            rel_floor=query.rel_floor, sup_v=sup_v)["verdict"]
        for theta in query.directions)


def scan_ref_key(entry, n: int, kind: int) -> str:
    mode, q, s = SCAN_KINDS[kind]
    return f"n{n}/{entry.id}/{mode}" + ("" if q is None else f":q{q}:s{s}")


def ninec_ref_key(entry, x0) -> str:
    return f"{entry.id}/" + ",".join(str(c) for c in x0)


def oracle_mismatch(entry, query, singular) -> tuple:
    """(missed components, extra singular verdicts) against the oracle.

    A verdict matches a component within CELL_TOL cells (periodic) and
    BIN_TOL direction bins of one of its directions.
    """
    grid = entry.signal.grid
    dirs = np.asarray(query.directions, dtype=float)
    nb = len(dirs)
    expected = entry.expected_singular(query.spec.weight.s)

    def nearest_bin(theta):
        return int(np.argmax(dirs @ np.asarray(theta, dtype=float)))

    def covers(comp, x0, theta):
        delta = (np.asarray(comp.cells, dtype=float) - np.asarray(x0)
                 + grid.n / 2) % grid.n - grid.n / 2
        if not np.any(np.sqrt(np.sum(delta**2, axis=1)) <= CELL_TOL):
            return False
        if comp.directions == "all":
            return True
        b = nearest_bin(theta)
        return any(min((b - t) % nb, (t - b) % nb) <= BIN_TOL
                   for t in map(nearest_bin, comp.directions))

    missed = sum(1 for comp in expected
                 if not any(covers(comp, x0, th) for x0, th in singular))
    extra = sum(1 for x0, th in singular
                if not any(covers(comp, x0, th) for comp in expected))
    return missed, extra


def stft_norm_reference(signal, p: float, q: float) -> float:
    """Unweighted modulation norm with one batched FFT over all rows.

    Independent of flwave's per-row STFT loop: the window at center c is
    the window at the origin rolled by c, as the periodic distance makes
    it, and every row is transformed in a single call.
    """
    g = signal.grid
    n, d = g.n, g.d
    window = windows.WindowSpec("gauss", max(8, n // 4))
    w0 = windows.window_values(g, window, (0,) * d).reshape(g.shape)
    f = signal.values.reshape(g.shape)
    rows = np.stack([f * np.conj(np.roll(w0, c, axis=tuple(range(d))))
                     for c in np.ndindex(g.shape)])
    axes = tuple(range(1, d + 1))
    V = np.fft.fftshift(np.fft.fftn(rows, axes=axes), axes=axes)
    mags = np.abs(V.reshape(g.size, g.size)) * (2.0 * np.pi) ** (-d / 2.0) \
        * g.h**d
    inner = (np.max(mags, axis=0) if np.isinf(p)
             else np.sum(mags**p, axis=0) ** (1.0 / p))
    return float(np.max(inner) if np.isinf(q)
                 else np.sum(inner**q) ** (1.0 / q))


def load_refs() -> tuple:
    """(references, sha256 of the reference file)."""
    raw = REFS_PATH.read_bytes()
    return json.loads(raw), hashlib.sha256(raw).hexdigest()
