"""flwave benchmark: one workload per process, one client, closed loop.

Usage (from the repository root):

    python3 bench/run.py --workload scan --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
same requests untraced and then traced, and reports per-layer metrics.
Times are reported at a fixed reference speed measured by a calibration
kernel between ops; wall-clock figures are in the info line.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import os

# before numpy is imported anywhere: apply_tf's matmul must not start
# BLAS threads, the loop has exactly one client thread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_OPS = 100  # p90 needs at least 10 samples beyond it
# Reference speed: the speed at which calibrate() takes CAL_REF_NS.  Op
# times are reported at that speed, from the calibrations around each op.
CAL_REF_NS = 1_000_000
CAL_WINDOW = 5  # calibrations on each side of an op in its speed estimate
SETUP_PROBES = 3  # fresh processes timed for setup_s
TRACE_UNTRACED_SHARE = 0.45  # of --seconds, before the traced replay
END_TO_END = (("op_p50_ms", "ms"), ("op_p90_ms", "ms"), ("ops_per_s", "1/s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"), ("pass_share", "ratio"))
WAITING_NOTE = ("no waiting metric: one client thread in a closed loop, so "
                "no request ever queues")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program():
    """Import flwave from this checkout's src/, or exit without a result."""
    if not (SRC / "flwave" / "__init__.py").is_file():
        sys.exit(f"error: no flwave sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import flwave

    if Path(flwave.__file__).resolve().parent != SRC / "flwave":
        sys.exit(f"error: imported flwave from {flwave.__file__}")


def percentile(samples, pct: float) -> tuple:
    """Nearest-rank percentile and how many samples lie beyond it."""
    xs = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(xs)))
    return xs[rank - 1], len(xs) - rank


def class_at(samples, pct: float) -> dict:
    """The request class that dominates the latencies around a percentile.

    ``samples`` are (latency, class) pairs.  The neighbourhood is the
    samples within 5% of the ranks on either side of the percentile's
    rank; purity is the dominant class's share of it.  Purity near 1
    means the percentile sits inside one class, not on the boundary
    between two.
    """
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered))) - 1
    width = max(1, len(ordered) // 20)
    near = [c for _, c in ordered[max(0, rank - width):rank + width + 1]]
    cls = max(sorted(set(near)), key=near.count)
    return {"class": cls, "purity": near.count(cls) / len(near)}


def setup(workload: str, seed: int):
    """Inputs plus one untimed warm-up per request class."""
    import workloads

    inputs = workloads.Inputs(workload, seed)
    for req in inputs.warmup_requests():
        inputs.execute(req)
    return inputs


class Record(NamedTuple):
    req: object
    out: object  # the op's compact output, None if it raised
    ns: int  # wall time of the op
    err: str | None
    cal_ns: int  # calibrate() time just before the op


def calibrate() -> int:
    """Time a fixed kernel that never touches flwave: a Python loop and
    small numpy array arithmetic, like the mix inside flwave's ops."""
    t0 = time.perf_counter_ns()
    acc = 0
    for i in range(10000):
        acc += i * i
    a = np.arange(4096.0)
    for _ in range(25):
        a = np.sqrt(a * a + 1.0)
    return time.perf_counter_ns() - t0


def timed_loop(inputs, stream, seconds: float, min_ops: int, run=None):
    """Closed loop: each request is sent when the previous one returned.

    A calibration runs between ops, outside their timing.  Returns
    (records, wall seconds of the loop).
    """
    records = []
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline or len(records) < min_ops:
        req = next(stream, None)
        if req is None:  # a finite replay ran out
            break
        cal_ns = calibrate()
        out, err = None, None
        t0 = time.perf_counter_ns()
        try:
            out = run(len(records), req) if run else inputs.execute(req)
        except Exception:  # an op that raises counts as failed
            err = traceback.format_exc(limit=-3)
        records.append(Record(req, out, time.perf_counter_ns() - t0, err,
                              cal_ns))
    return records, time.perf_counter() - start


def reference_ms(records) -> list:
    """Each op's time in ms at the reference speed.

    The machine's speed drifts by tens of percent over seconds (shared
    host), and the drift hits the calibration kernel and the ops alike.
    Scaling each op by CAL_REF_NS over the median of the calibrations
    around it removes most of that drift from run-to-run comparisons.
    """
    cal = [r.cal_ns for r in records]
    return [r.ns / 1e6 * CAL_REF_NS / statistics.median(
                cal[max(0, i - CAL_WINDOW):i + CAL_WINDOW + 1])
            for i, r in enumerate(records)]


def check_all(inputs, records, refs) -> list:
    """Reasons for every failed op (raised or wrong output)."""
    failures = []
    for i, r in enumerate(records):
        reason = r.err or inputs.check(r.req, r.out, refs)
        if reason:
            failures.append({"op": i, "class": r.req.cls,
                             "key": repr(r.req.key), "reason": reason})
    return failures


def setup_probes(workload: str, seed: int) -> list:
    """Set-up times of fresh processes started one after another.

    Each is (seconds from process start to ready, calibrate() time in
    that process right after it was ready).
    """
    probes = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            ready = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            cal = proc.stdout.readline()
            proc.stdout.close()
            code = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if ready.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup probe failed (exit {code})")
        probes.append((elapsed, int(cal)))
    return probes


def machine_info() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def class_summary(records, ms) -> dict:
    by_cls: dict = {}
    for r, t in zip(records, ms):
        by_cls.setdefault(r.req.cls, []).append(t)
    return {c: {"ops": len(v), "min_ms": min(v),
                "median_ms": statistics.median(v), "max_ms": max(v)}
            for c, v in sorted(by_cls.items())}


def known_defects(workload: str) -> dict:
    """Untimed probes of defects known at the benchmark's first commit."""
    import workloads

    if workload != "certify":
        return {}
    target, seed = workloads.KNOWN_DEFECT_PROBE
    code, last = workloads.run_cli(["verify", target, "--seed", str(seed)])
    return {f"verify {target} --seed {seed}": {
        "exit": code, "pass": json.loads(last).get("pass")}}


def run_untraced(args, inputs, refs, info):
    records, wall = timed_loop(inputs, inputs.requests(), args.seconds,
                               MIN_OPS)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = check_all(inputs, records, refs)
    ms = reference_ms(records)
    lat = list(zip(ms, (r.req.cls for r in records)))
    p90, beyond = percentile(ms, 90)
    raw_ms = [r.ns / 1e6 for r in records]
    probes = setup_probes(args.workload, args.seed)
    attempted = len(records)
    metrics = {
        "op_p50_ms": statistics.median(ms),
        "op_p90_ms": p90,
        "ops_per_s": attempted / (sum(ms) / 1e3),
        "setup_s": statistics.median(t * CAL_REF_NS / cal
                                     for t, cal in probes),
        "peak_rss_mb": peak_rss_mb,
        "pass_share": 1.0 - len(failures) / attempted,
    }
    info.update({
        "ops": attempted, "loop_s": wall, "p90_samples_beyond": beyond,
        "p50_class": class_at(lat, 50), "p90_class": class_at(lat, 90),
        "failed_share": len(failures) / attempted,
        "wall_clock": {
            "op_p50_ms": statistics.median(raw_ms),
            "op_p90_ms": percentile(raw_ms, 90)[0],
            "ops_per_s": attempted / (sum(raw_ms) / 1e3),
            "setup_s": statistics.median(t for t, _ in probes),
            "median_speed": CAL_REF_NS / statistics.median(
                r.cal_ns for r in records)},
        "setup_probe_s": probes, "classes": class_summary(records, ms),
        "known_defects": known_defects(args.workload),
        "failures": failures[:10],
    })
    return attempted, len(failures), {
        name: (metrics[name], unit) for name, unit in END_TO_END}


def run_traced(args, inputs, refs, info):
    import spans

    phase_a, _ = timed_loop(inputs, inputs.requests(),
                            args.seconds * TRACE_UNTRACED_SHARE, 1)
    tracer = spans.Tracer()
    tracer.install()
    replay = iter([r.req for r in phase_a])
    remaining = args.seconds * (1 - TRACE_UNTRACED_SHARE)
    try:
        phase_b, _ = timed_loop(
            inputs, replay, remaining, 1,
            run=lambda i, req: tracer.run_op(i, inputs.execute, req))
    finally:
        bindings = tracer.bindings()
        tracer.uninstall()
    restored = all(getattr(ns, attr) is orig for ns, attr, orig in bindings)
    records = phase_a + phase_b
    failures = check_all(inputs, records, refs)
    matched = phase_a[:len(phase_b)]
    faithful = [(a.out, a.err) for a in matched] == \
        [(b.out, b.err) for b in phase_b]
    if not faithful:
        failures.append({"reason": "traced outputs differ from untraced"})
    if not restored:
        failures.append({"reason": "uninstall left a wrapper bound"})
    # both phases at the reference speed, so drift between them cancels
    layer = tracer.per_layer(
        sum(reference_ms(phase_b)) / sum(reference_ms(matched)) - 1.0)
    OUT.mkdir(exist_ok=True)
    np.savez(OUT / f"spans-{args.workload}.npz", **tracer.span_arrays())
    info.update({
        "untraced_ops": len(phase_a), "traced_ops": len(phase_b),
        "trace_faithful": faithful, "bindings_restored": restored,
        "wrapped_bindings": len(bindings),
        "min_span_self_ns": tracer.min_self_ns(),
        "spans": len(tracer.fid),
        "failed_share": len(failures) / len(records),
        "failures": failures[:10],
    })
    return len(records), len(failures), layer


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(BENCH))
    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}")
    inputs = setup(args.workload, args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        print(statistics.median(calibrate() for _ in range(5)), flush=True)
        return 0
    refs, digest = workloads.load_refs()
    info = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "verdict_digest": digest, "machine": machine_info(),
            "load": "closed loop, 1 client, 1 process",
            "waiting": WAITING_NOTE}
    run = run_traced if args.trace else run_untraced
    attempted, failed, metrics = run(args, inputs, refs, info)
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:14.6g} {unit}")
    print(json.dumps({"info": info}, default=str))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
