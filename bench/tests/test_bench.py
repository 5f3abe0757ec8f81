"""Self-tests of the benchmark harness (not of flwave).

    python3 -m pytest bench/tests -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_program()

import spans  # noqa: E402
import workloads as wl  # noqa: E402


# -- percentile rule ----------------------------------------------------------


def test_p90_needs_ten_samples_beyond():
    value, beyond = run.percentile(range(1, 101), 90)
    assert (value, beyond) == (90, 10)
    _, beyond = run.percentile(range(1, 100), 90)
    assert beyond < 10  # 99 samples are too few for a p90
    assert run.MIN_OPS == 100


def test_class_at_reports_purity():
    samples = [(float(i), "fast") for i in range(80)] + \
        [(100.0 + i, "slow") for i in range(20)]
    assert run.class_at(samples, 50) == {"class": "fast", "purity": 1.0}
    assert run.class_at(samples, 90) == {"class": "slow", "purity": 1.0}
    edge = run.class_at(samples, 80)
    assert edge["purity"] < 1.0


def test_reference_time_cancels_a_uniform_slowdown():
    ref = run.CAL_REF_NS
    steady = [run.Record(None, None, 5_000_000, None, ref)
              for _ in range(20)]
    # the second half runs on a machine twice as slow: ops and
    # calibrations both take twice as long
    drifting = steady[:10] + [r._replace(ns=2 * r.ns, cal_ns=2 * ref)
                              for r in steady[10:]]
    assert run.reference_ms(steady) == [5.0] * 20
    assert run.reference_ms(drifting)[:5] == [5.0] * 5
    assert run.reference_ms(drifting)[-5:] == [5.0] * 5


# -- self time ----------------------------------------------------------------


def test_self_time_of_nested_spans():
    # root [0, 100] > a [10, 40] > a1 [15, 25];  root > b [50, 90]
    parents = np.array([-1, 0, 1, 0])
    starts = np.array([0, 10, 15, 50])
    ends = np.array([100, 40, 25, 90])
    own = spans.self_times(parents, ends - starts)
    assert own.tolist() == [30, 20, 10, 40]
    for parent in range(4):
        children = own[parents == parent]
        assert children.sum() <= (ends - starts)[parent]


def test_tracer_spans_nest_and_self_times_are_non_negative():
    import flwave.grid as grid
    import flwave.norms as norms
    from flwave.weights import Weight

    g = grid.TorusGrid(1, 16)
    f = grid.Signal(g, np.arange(16.0))
    tracer = spans.Tracer()
    tracer.install()
    try:
        for op in range(3):
            tracer.run_op(op, norms.fl_norm, f,
                          norms.FLNormSpec(1.0, Weight.power(1.0)))
    finally:
        tracer.uninstall()
    arrays = tracer.span_arrays()
    names = list(arrays["names"])
    fl = names.index("norms.fl_norm")
    ft = names.index("grid.forward_transform")
    # forward_transform runs inside fl_norm inside the op span
    ft_spans = np.flatnonzero(arrays["fid"] == ft)
    assert len(ft_spans) == 3
    assert all(arrays["fid"][arrays["parent"][i]] == fl for i in ft_spans)
    assert tracer.min_self_ns() >= 0
    layer = tracer.per_layer(0.0)
    assert list(layer) == spans.per_layer_metric_names()
    assert layer["norms.fl_norm.calls"][0] == 1.0
    assert layer["grid.forward_transform.bytes"][0] == 16 * 16
    assert layer["grid.forward_transform.unique_share"][0] == 1.0 / 1.0


def test_errors_are_counted_per_module():
    import flwave.grid as grid
    import flwave.windows as windows

    tracer = spans.Tracer()
    tracer.install()
    try:
        with pytest.raises(ValueError):
            tracer.run_op(0, windows.window_values, grid.TorusGrid(1, 8),
                          windows.WindowSpec("gauss", 16), (0,))
    finally:
        tracer.uninstall()
    layer = tracer.per_layer(0.0)
    assert layer["windows.errors"][0] == 1
    assert layer["grid.errors"][0] == 0


# -- wrapper installation -----------------------------------------------------


def _originals():
    import importlib

    out = {}
    for mod, names in spans.WRAPPED:
        module = importlib.import_module(f"flwave.{mod}")
        for name in names:
            if "." in name:
                cls, meth = name.split(".")
                out[f"{mod}.{name}"] = getattr(module, cls).__dict__[meth]
            else:
                out[f"{mod}.{name}"] = getattr(module, name)
    return out


def test_installer_reaches_every_flwave_namespace():
    import flwave
    import flwave.cli
    import flwave.grid
    import flwave.modulation

    originals = _originals()
    wrapped_ids = {id(f) for f in originals.values()}
    tracer = spans.Tracer()
    tracer.install()
    try:
        for mod in spans._flwave_modules():
            for attr, value in vars(mod).items():
                assert id(value) not in wrapped_ids, \
                    f"{mod.__name__}.{attr} still bound to the original"
        assert flwave.modulation.forward_transform is \
            flwave.grid.forward_transform
        assert flwave.modulation.forward_transform is not \
            originals["grid.forward_transform"]
        assert flwave.cli.estimate_wavefront is not \
            originals["wavefront.estimate_wavefront"]
        assert flwave.forward_transform is flwave.grid.forward_transform
        assert flwave.grid.TorusGrid.__dict__["cell_distance"] is not \
            originals["grid.TorusGrid.cell_distance"]
        bound = {(ns.__name__, attr) for ns, attr, _ in tracer.bindings()}
        assert ("flwave.modulation", "forward_transform") in bound
        assert ("flwave.cli", "estimate_wavefront") in bound
    finally:
        bindings = tracer.bindings()
        tracer.uninstall()
    for ns, attr, original in bindings:
        assert getattr(ns, attr) is original
    assert _originals() == originals


def test_calculus_check_list_is_complete():
    import inspect

    import flwave.calculus as calculus

    defined = {name for name, obj in vars(calculus).items()
               if name.endswith("_check") and inspect.isfunction(obj)
               and obj.__module__ == calculus.__name__}
    listed = set(dict(spans.WRAPPED)["calculus"])
    assert defined == listed


# -- checks and failed_share --------------------------------------------------


@pytest.fixture(scope="module")
def refs():
    return wl.load_refs()[0]


def test_wrong_verdict_counts_as_failed(refs):
    inputs = wl.Inputs("modulation", 0)
    req = wl.Request("9c", (1, 10))  # the delta's own scan point
    good = inputs.execute(req)
    bad = ("R" if good[0] == "S" else "S") + good[1:]
    records = [run.Record(req, good, 1, None, 1),
               run.Record(req, bad, 1, None, 1),
               run.Record(req, None, 1, "ValueError: raised", 1)]
    failures = run.check_all(inputs, records, refs)
    assert [f["op"] for f in failures] == [1, 2]
    assert len(failures) / len(records) == pytest.approx(2 / 3)


def test_failed_verification_counts_as_failed(refs):
    inputs = wl.Inputs("certify", 0)
    req = wl.Request("verify:duality", ("duality", 3, ()))
    good = inputs.execute(req)
    assert inputs.check(req, good, refs) == ""
    report = json.loads(good[1])
    report["pass"] = False
    assert inputs.check(req, (0, json.dumps(report)), refs)
    assert inputs.check(req, (1, good[1]), refs)


def test_stft_reference_matches_closed_form():
    inputs = wl.Inputs("modulation", 3)
    sig = inputs.signals[0]
    g = sig.grid
    window = wl.windows.WindowSpec("gauss", max(8, g.n // 4))
    w = wl.windows.window_values(g, window, (0,) * g.d)
    # p = q = 2: per-column Parseval collapses the norm to energies
    closed = np.sqrt(g.h**g.d * np.sum(np.abs(sig.values) ** 2)
                     * np.sum(w**2))
    assert wl.stft_norm_reference(sig, 2.0, 2.0) == pytest.approx(closed,
                                                                  rel=1e-12)


# -- request streams ----------------------------------------------------------


def _first(inputs, count):
    stream = inputs.requests()
    return [next(stream) for _ in range(count)]


def test_seed_fixes_the_request_sequence():
    a = _first(wl.Inputs("certify", 5), 60)
    assert a == _first(wl.Inputs("certify", 5), 60)
    assert a != _first(wl.Inputs("certify", 6), 60)


@pytest.mark.parametrize("workload,round_size", [
    ("scan", len(wl.SCAN_ROUND)), ("modulation", len(wl.MOD_ROUND)),
    ("certify", sum(wl.CERTIFY_ROUND.values()))])
def test_every_round_has_the_fixed_class_mix(workload, round_size):
    from collections import Counter

    inputs = wl.Inputs(workload, 9)
    reqs = _first(inputs, 3 * round_size)
    rounds = [Counter(r.cls for r in reqs[i:i + round_size])
              for i in range(0, len(reqs), round_size)]
    assert rounds[0] == rounds[1] == rounds[2]


# -- the contract file --------------------------------------------------------


def test_benchmark_json_matches_the_harness():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == \
        spans.per_layer_metric_names()
    assert len(spec["per_layer"]) <= 128
