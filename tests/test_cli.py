"""CLI exit codes, determinism, and report formats."""

import argparse
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import flwave.bilinear as bilinear
import flwave.cli as cli
import flwave.rng as rng_mod
from flwave.cli import NORM, VERIFY, WAVEFRONT, build_parser, main
from flwave.corpus import standard_corpus
from flwave.grid import TorusGrid, read_signal, write_signal, zero_signal
from flwave.modulation import modulation_wavefront
from flwave.norms import FLNormSpec
from flwave.wavefront import (BIN_TOL, default_query, estimate_wavefront,
                              report_included_in)


SRC = str(Path(__file__).resolve().parents[1] / "src")


def _module_run(argv):
    """Run ``python -m flwave.cli`` in a child that imports this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (SRC, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "flwave.cli", *argv],
                          capture_output=True, env=env)


def _run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_norm_zero_signal(tmp_path, capsys):
    path = tmp_path / "zero.json"
    write_signal(zero_signal(TorusGrid(1, 8)), str(path))
    code, out = _run(["norm", "--input", str(path), "--space", "fl",
                      "--q", "2", "--weight", "s:0"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "0.0"


def test_bootstrap_reference_case(capsys):
    code, out = _run(["verify", "bootstrap", "--q", "1", "--s", "1",
                      "--n", "2", "--k", "0", "--m", "2", "--r", "0"],
                     capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "final_index 4.0"
    payload = json.loads(lines[-1])
    assert payload["final_index"] == 4.0
    assert payload["pass"] is True


def test_bootstrap_rejection_exits_nonzero(capsys):
    code, out = _run(["verify", "bootstrap", "--q", "2", "--d", "2",
                      "--s", "0.5", "--n", "2", "--k", "0", "--m", "2",
                      "--r", "1"], capsys)
    assert code == 1
    payload = json.loads(out.strip().splitlines()[-1])
    assert payload["rejection"] == "s >= d/q'"


def test_duality_target(capsys):
    code, out = _run(["verify", "duality", "--trials", "60", "--seed", "7"],
                     capsys)
    assert code == 0
    payload = json.loads(out.strip().splitlines()[-1])
    assert payload["pass"] is True
    assert payload["max_rel_error"] <= 1e-10


def test_reports_byte_identical(capsys):
    _, out1 = _run(["verify", "young-conv", "--trials", "20", "--seed", "3",
                    "--n", "8"], capsys)
    _, out2 = _run(["verify", "young-conv", "--trials", "20", "--seed", "3",
                    "--n", "8"], capsys)
    assert out1 == out2


def test_usage_error_exit_code():
    proc = _module_run(["frobnicate"])
    assert proc.returncode == 2


def test_unknown_verify_target_exit_code():
    proc = _module_run(["verify", "nope"])
    assert proc.returncode == 2


def test_corpus_emit_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "entry.json"
    code, out = _run(["corpus", "emit", "--id", "cusp-2.5", "--n", "256",
                      "--out", str(out_path)], capsys)
    assert code == 0
    sig = read_signal(str(out_path))
    assert sig.grid == TorusGrid(1, 256)
    assert np.max(np.abs(sig.values)) > 0


def test_corpus_list(tmp_path, capsys):
    # every listed id emits at its own dimension, and nothing else is built
    code, out = _run(["corpus", "list"], capsys)
    assert code == 0
    entries = json.loads(out)["entries"]
    assert entries == {str(d): [e.id for e in standard_corpus(d, 32)]
                       for d in (1, 2)}
    assert "graded-sum-3" in entries["1"] and "edge-ax1" in entries["2"]
    out_path = str(tmp_path / "entry.json")
    for d, ids in entries.items():
        for entry_id in ids:
            code, out = _run(["corpus", "emit", "--id", entry_id, "--d", d,
                              "--n", "32", "--out", out_path], capsys)
            assert code == 0, out
            assert json.loads(out)["id"] == entry_id
            assert read_signal(out_path).grid == TorusGrid(int(d), 32)


def test_wavefront_scan_outputs(tmp_path, capsys):
    sig_path = tmp_path / "sig.json"
    code, _ = _run(["corpus", "emit", "--id", "delta", "--n", "256",
                    "--out", str(sig_path)], capsys)
    assert code == 0
    report_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    code, out = _run(["wavefront", "--input", str(sig_path),
                      "--out", str(report_path), "--csv", str(csv_path)],
                     capsys)
    assert code == 0
    payload = json.loads(report_path.read_text())
    assert any(r["verdict"] == "singular" for r in payload["records"])
    assert csv_path.read_text().startswith("x0,")
    # stdout carries the records of the --out file (WavefrontReport.to_json)
    stdout = json.loads(out.strip().splitlines()[-1])
    assert stdout["records"] == payload["records"]
    assert report_path.read_text() == json.dumps(
        {"mode": "fl", "records": stdout["records"]}, sort_keys=True)


def test_wavefront_modulation_mode_matches_library(tmp_path, capsys):
    entry = standard_corpus(2, 64)[2]
    sig_path = tmp_path / "sig.bin"
    write_signal(entry.signal, str(sig_path))
    code, out = _run(["wavefront", "--input", str(sig_path),
                      "--mode", "modulation"], capsys)
    assert code == 0
    payload = json.loads(out.strip().splitlines()[-1])
    report = modulation_wavefront(read_signal(str(sig_path)),
                                  default_query(entry.signal.grid))
    assert payload["mode"] == "modulation"
    assert payload["records"] == json.loads(report.to_json())["records"]


@pytest.mark.parametrize("d, n", [(1, 256), (2, 128)])
def test_modulation_mode_agrees_with_the_fl_scan(tmp_path, capsys, d, n):
    # criterion 9c's reading: the CLI's modulation scan is the library's
    # default one, and each side's singular verdicts are matched by the
    # other's at the same position within BIN_TOL bins
    sig_path = tmp_path / "sig.bin"
    for entry in standard_corpus(d, n):
        write_signal(entry.signal, str(sig_path))
        code, out = _run(["wavefront", "--input", str(sig_path),
                          "--mode", "modulation"], capsys)
        query = default_query(entry.signal.grid)
        mod = modulation_wavefront(entry.signal, query)
        assert code == 0
        assert json.loads(out.splitlines()[-1])["records"] == json.loads(
            mod.to_json())["records"], entry.id
        est = estimate_wavefront(entry.signal, query)
        for left, right in ((mod, est), (est, mod)):
            assert report_included_in(left, right, 0, BIN_TOL)["holds"], \
                entry.id


def test_norm_on_missing_file_fails(capsys):
    code, out = _run(["norm", "--input", "/nonexistent.json"], capsys)
    assert code == 2
    payload = json.loads(out.strip().splitlines()[-1])
    assert "error" in payload and payload["status"] == "error"


def test_norm_on_a_file_with_bad_magic_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "sig.flw"
    write_signal(zero_signal(TorusGrid(1, 8)), str(path))
    path.write_bytes(b"FLW2" + path.read_bytes()[4:])
    code, out = _run(["norm", "--input", str(path)], capsys)
    assert code == 2
    assert json.loads(out) == {"error": "bad magic; not an FLW1 signal file",
                               "status": "error"}


def _cusp_and_table(tmp_path):
    """A d = 1 n = 16 corpus signal file and a table weight file w = 2."""
    sig = standard_corpus(1, 16)[2].signal
    sig_path, table_path = tmp_path / "f.json", tmp_path / "w.json"
    write_signal(sig, str(sig_path))
    table_path.write_text(json.dumps(
        {"d": 1, "n": 16, "values": [2.0] * sig.grid.size}))
    return str(sig_path), f"table:{table_path}"


@pytest.mark.parametrize("space, weight", [("mixed", "s:0"),
                                           ("mixed", "s:3"),
                                           ("mixed", "table"),
                                           ("mod", "table")])
def test_norm_weight_that_the_space_ignores_is_a_usage_error(
        tmp_path, capsys, space, weight):
    sig_path, table = _cusp_and_table(tmp_path)
    code, out = _run(["norm", "--input", sig_path, "--space", space,
                      "--weight", table if weight == "table" else weight],
                     capsys)
    assert code == 2
    payload = json.loads(out)
    assert set(payload) == {"error", "status"}
    assert payload["status"] == "error" and "--weight" in payload["error"]


@pytest.mark.parametrize("space, weight", [("mod", "s:1")])
def test_norm_weight_that_the_space_applies_runs(tmp_path, capsys, space,
                                                 weight):
    sig_path, _ = _cusp_and_table(tmp_path)
    code, out = _run(["norm", "--input", sig_path, "--space", space,
                      "--weight", weight], capsys)
    assert code == 0 and float(out.splitlines()[0]) > 0


def test_norm_mod_window_zero_is_a_usage_error(tmp_path, capsys):
    # before, --window 0 ran at the default max(8, n/4) cells in silence
    sig_path, _ = _cusp_and_table(tmp_path)
    code, out = _run(["norm", "--input", sig_path, "--space", "mod",
                      "--window", "0"], capsys)
    assert (code, json.loads(out)) == (2, {
        "error": "window width must be >= 4 cells, got 0.0",
        "status": "error"})


_ROWS = [("norm --space", c) for c in NORM] + \
    [("wavefront --mode", c) for c in WAVEFRONT]


@pytest.mark.parametrize("command, choice", _ROWS,
                         ids=[f"{c} {x}" for c, x in _ROWS])
def test_params_echo_the_row_with_the_values_used(tmp_path, capsys, command,
                                                  choice):
    # a None default echoes what it stands for: at n = 64 a window of
    # max(8, n/4) = 16 cells, an aperture of pi/8, 32 bins, and the 1-D
    # default query's weight order 2.75
    sig = tmp_path / "cusp.json"
    write_signal(standard_corpus(1, 64)[3].signal, str(sig))
    row = (NORM if command == "norm --space" else WAVEFRONT)[choice][1]
    code, out = _run([*command.split(), choice, "--input", str(sig),
                      *(["--q", "2"] if "q" in row else [])], capsys)
    used = {**row, "q": 2.0, "window": 16.0, "aperture": np.pi / 8,
            "bins": 32, "s": 2.75}
    assert code == 0
    assert json.loads(out.splitlines()[-1])["params"] == {
        flag: used[flag] for flag in row}


@pytest.mark.parametrize("space", ["fl", "cone"])
def test_norm_table_weight_scales_the_norm(tmp_path, capsys, space):
    sig_path, table = _cusp_and_table(tmp_path)
    values = []
    for weight in ("s:0", table):
        code, out = _run(["norm", "--input", sig_path, "--space", space,
                          "--weight", weight], capsys)
        assert code == 0
        values.append(float(out.splitlines()[0]))
    assert values[0] > 0
    assert values[1] == pytest.approx(2.0 * values[0], rel=1e-12)


def test_verify_that_cannot_run_is_a_usage_error(capsys):
    # an odd lattice size is bad input, not a failed verification
    code, out = _run(["verify", "tf-bounds", "--n", "3"], capsys)
    assert code == 2
    payload = json.loads(out.strip().splitlines()[-1])
    assert payload == {"error": "n must be even and >= 4, got 3",
                       "status": "error"}


def test_jobs_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "corpus-oracles", "--jobs", "2"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("target, trials", [("young-conv", "0"),
                                            ("product", "-3"),
                                            ("tf-bounds", "0")])
def test_trials_below_one_is_a_usage_error(capsys, target, trials):
    # no trials would certify nothing
    code, out = _run(["verify", target, "--trials", trials], capsys)
    assert code == 2
    assert json.loads(out) == {"error": f"--trials must be >= 1, got {trials}",
                               "status": "error"}


def test_wavefront_q_sets_the_scan_exponent(tmp_path, capsys):
    entry = standard_corpus(1, 256)[2]
    sig_path = tmp_path / "cusp.json"
    write_signal(entry.signal, str(sig_path))
    code, out = _run(["wavefront", "--input", str(sig_path), "--q", "2"],
                     capsys)
    assert code == 0
    payload = json.loads(out.strip().splitlines()[-1])
    query = default_query(entry.signal.grid)
    query = replace(query, spec=FLNormSpec(2.0, query.spec.weight))
    report = estimate_wavefront(read_signal(str(sig_path)), query)
    assert payload["params"]["q"] == 2.0
    assert payload["records"] == json.loads(report.to_json())["records"]


@pytest.mark.parametrize("argv", [
    ["verify", "product", "--n", "16.5"],
    ["verify", "tf-bounds", "--n", "8.9"],
    ["verify", "duality", "--n", "inf"],
    ["verify", "young-conv", "--n", "nan"],
])
def test_non_integer_lattice_size_is_a_usage_error(capsys, argv):
    code, out = _run(argv, capsys)
    assert code == 2
    payload = json.loads(out.strip().splitlines()[-1])
    assert payload["status"] == "error" and "--n" in payload["error"]


@pytest.mark.parametrize("argv", [
    ["verify", "product", "--case", "1"],
    ["norm", "--input", "f.json", "--seed", "3"],
    ["wavefront", "--input", "f.json", "--seed", "3"],
    ["corpus", "--seed", "3", "emit", "--id", "delta", "--out", "f.json"],
])
def test_flags_that_would_do_nothing_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "flwave" in capsys.readouterr().err  # argparse's usage error


def test_corpus_emit_reads_the_library_corpus(tmp_path, capsys):
    out_path = tmp_path / "smooth.bin"
    code, out = _run(["corpus", "emit", "--id", "smooth", "--d", "2",
                      "--n", "64", "--out", str(out_path)], capsys)
    assert code == 0
    entry = standard_corpus(2, 64)[0]
    assert json.loads(out)["id"] == entry.id
    assert np.array_equal(read_signal(str(out_path)).values,
                          entry.signal.values)


def test_verify_targets_are_the_table(capsys):
    # each command's choices, and README's flag table of each, are its rows
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = re.search(r"Verify targets: `([^`]*)`", readme).group(1)
    assert listed.split() == list(VERIFY)
    for command, dest, table, header in (
            ("norm", "space", NORM, "| space | flags (default) |"),
            ("wavefront", "mode", WAVEFRONT, "| mode | flags (default) |"),
            ("verify", "target", VERIFY,
             "| target | flags besides `--seed` (default) |")):
        pick = next(a for a in sub.choices[command]._actions
                    if a.dest == dest)
        assert list(pick.choices) == list(table)
        assert _readme_rows(readme, header) == {c: row for c, (_, row)
                                                in table.items()}


def _readme_rows(readme: str, header: str) -> dict:
    """The README flag table under ``header`` as {choice: {flag: default}}.

    A default in parentheses says what a None stands for; a note in
    parentheses may follow a value."""
    table = readme.split(header)[1]
    rows = {}
    for line in table.splitlines()[2:]:
        cells = line.strip().split(" | ")
        if len(cells) != 2:
            break
        row = {}
        for flag, text in re.findall(r"`--(\w+)` ([^,|]+)", cells[1]):
            text = text.split(" (")[0].strip()  # drop a trailing note
            try:
                row[flag] = None if text.startswith("(") else json.loads(text)
            except ValueError:
                row[flag] = text
        for choice in re.findall(r"`([^`]+)`", cells[0]):
            assert choice not in rows
            rows[choice] = row
    return rows


# --trials 0 would be a usage error of its own where the target reads it
_FLAG_VALUES = {"trials": "0", "q": "2", "r": "0.5", "n": "128", "d": "1",
                "s": "1", "k": "0", "m": "2", "variant": "1",
                "symbol": "dx1", "p": "1", "weight": "s:0", "order": "2",
                "window": "8", "direction": "axis:1", "aperture": "0.3"}
# (what runs, its arguments, a flag it does not read): every pair that the
# tables reject, each flag of a command's rows outside one row
_UNREAD = [
    (f"{command} {choice}", ["--n", "2"] if choice == "bootstrap" else argv,
     flag)
    for command, table, argv in (
        ("verify", VERIFY, []), ("norm --space", NORM, ["--input", "{sig}"]),
        ("wavefront --mode", WAVEFRONT, ["--input", "{sig}"]))
    for choice, (_, row) in table.items()
    for flag in sorted({f for _, r in table.values() for f in r} - set(row))]


def test_unread_flag_pairs_are_counted():
    kinds = [where.split()[0] for where, _, _ in _UNREAD]
    assert [kinds.count(k) for k in ("verify", "norm", "wavefront")] == \
        [100, 15, 2]


@pytest.mark.parametrize("where, argv, flag", _UNREAD,
                         ids=[f"{w} --{f}" for w, _, f in _UNREAD])
def test_flag_the_run_does_not_read_is_a_usage_error(tmp_path, capsys, where,
                                                    argv, flag):
    # before, each of these ran and printed what it prints without the flag
    sig = tmp_path / "cusp.json"
    write_signal(standard_corpus(1, 64)[3].signal, str(sig))
    code, out = _run([*where.split(), *(a.format(sig=sig) for a in argv),
                      f"--{flag}", _FLAG_VALUES[flag]], capsys)
    assert code == 2
    assert json.loads(out) == {"error": f"{where} does not read --{flag}",
                               "status": "error"}


def test_product_critical_runs_at_the_given_q(capsys):
    code, out = _run(["verify", "product-critical", "--q", "1.5"], capsys)
    assert (code, json.loads(out)) == (2, {
        "error": "needs r = 0 when q <= 2", "status": "error"})
    code, out = _run(["verify", "product-critical", "--q", "1.5", "--r", "0"],
                     capsys)
    payload = json.loads(out)
    assert code == 0 and payload["pass"] is True
    assert payload["growth"] == 1.0


def test_negative_seed_is_a_usage_error(capsys):
    # before, numpy's OverflowError escaped as a traceback (exit 1)
    code, out = _run(["verify", "product", "--seed", "-1"], capsys)
    assert (code, json.loads(out)) == (2, {
        "error": "--seed must be >= 0, got -1", "status": "error"})


def test_tf_bounds_runs_at_the_given_r(capsys):
    code, out = _run(["verify", "tf-bounds", "--r", "0"], capsys)
    assert code == 2
    assert "case 2 requires r >" in json.loads(out)["error"]


def test_tf_bounds_checks_every_case_before_any_trial(capsys, monkeypatch):
    # before, cases 1 and 3 drew and ran all their trials first
    calls, trial_stacks = [], bilinear.trial_stacks

    def counted(*args, **kwargs):
        calls.append(args)
        return trial_stacks(*args, **kwargs)

    monkeypatch.setattr(bilinear, "trial_stacks", counted)
    code, out = _run(["verify", "tf-bounds", "--r", "0"], capsys)
    assert code == 2 and calls == []
    code, _ = _run(["verify", "tf-bounds", "--trials", "4"], capsys)
    assert code == 0 and len(calls) == 3


def test_modulation_equiv_runs_the_given_trials(capsys, monkeypatch):
    # 120 trials: the first three blocks, and one check per trial
    blocks, signals = [], []
    trial_rng, equivalence_check = rng_mod.trial_rng, cli.equivalence_check

    def counted_rng(*key):
        blocks.append(key)
        return trial_rng(*key)

    def counted_check(sig, *args):
        signals.append(sig.values.tobytes())
        return equivalence_check(sig, *args)

    monkeypatch.setattr(rng_mod, "trial_rng", counted_rng)
    monkeypatch.setattr(cli, "equivalence_check", counted_check)
    code, _ = _run(["verify", "modulation-equiv", "--trials", "120"], capsys)
    assert code == 0
    assert blocks == [(0, "modulation-equiv", b) for b in range(3)]
    assert len(signals) == len(set(signals)) == 120


@pytest.mark.parametrize("d, direction, sizes", [
    (2, None, "1 components, the grid has d = 2"),  # the default axis:1
    (2, "axis:1,0,0", "3 components, the grid has d = 2"),
    (1, "dir:0.5", "2 components, the grid has d = 1"),
])
def test_cone_direction_of_another_dimension_is_a_usage_error(
        tmp_path, capsys, d, direction, sizes):
    # before, 2-D input failed inside numpy's matmul, and dir: on 1-D input
    # was not checked
    sig = tmp_path / "sig.json"
    write_signal(standard_corpus(d, 64)[2].signal, str(sig))
    code, out = _run(["norm", "--input", str(sig), "--space", "cone",
                      *(["--direction", direction] if direction else [])],
                     capsys)
    assert (code, json.loads(out)) == (2, {
        "error": f"cone axis has {sizes}", "status": "error"})


def test_cone_aperture_on_a_1d_signal_is_a_usage_error(tmp_path, capsys):
    # a 1-D cone is a half-line: before, every aperture gave one value
    sig = tmp_path / "cusp.json"
    write_signal(standard_corpus(1, 64)[3].signal, str(sig))
    code, out = _run(["norm", "--input", str(sig), "--space", "cone",
                      "--aperture", "0.3"], capsys)
    payload = json.loads(out)
    assert code == 2 and set(payload) == {"error", "status"}
    assert "--aperture" in payload["error"]
    delta = tmp_path / "delta.json"  # on 2-D input it sets the half-angle
    write_signal(standard_corpus(2, 64)[1].signal, str(delta))
    values = []
    for aperture in ("0.2", "0.6"):
        code, out = _run(["norm", "--input", str(delta), "--space", "cone",
                          "--direction", "axis:1,0", "--aperture", aperture],
                         capsys)
        assert code == 0
        assert json.loads(out.splitlines()[-1])["params"]["aperture"] == \
            float(aperture)
        values.append(float(out.splitlines()[0]))
    assert values[0] < values[1]


@pytest.mark.parametrize("argv", [
    ["--id", "edge", "--d", "1"],  # not in the 1-D corpus
    ["--id", "delta", "--d", "3", "--n", "16"],  # no 3-D corpus
    ["--id", "delta", "--n", "36"],  # the graded sum does not fit n = 36
])
def test_corpus_emit_outside_the_corpus_is_a_usage_error(tmp_path, capsys,
                                                         argv):
    code, out = _run(["corpus", "emit", *argv, "--out",
                      str(tmp_path / "x.json")], capsys)
    assert code == 2
    assert json.loads(out)["status"] == "error"
    assert not (tmp_path / "x.json").exists()


def test_wavefront_bins_on_a_1d_signal_is_a_usage_error(tmp_path, capsys):
    # a 1-D scan has the two signs as its directions: --bins would do nothing
    sig_path = tmp_path / "cusp.json"
    write_signal(standard_corpus(1, 256)[3].signal, str(sig_path))
    for bins in ("32", "3"):
        code, out = _run(["wavefront", "--input", str(sig_path), "--bins",
                          bins], capsys)
        assert code == 2
        payload = json.loads(out)
        assert set(payload) == {"error", "status"}
        assert payload["status"] == "error" and "--bins" in payload["error"]
    code, out = _run(["wavefront", "--input", str(sig_path)], capsys)
    assert code == 0 and json.loads(out)["params"]["bins"] == 32


def test_wavefront_bins_sets_the_2d_direction_bins(tmp_path, capsys):
    sig_path = tmp_path / "edge.bin"
    write_signal(standard_corpus(2, 64)[2].signal, str(sig_path))
    code, out = _run(["wavefront", "--input", str(sig_path), "--bins", "16"],
                     capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["params"]["bins"] == 16
    assert payload["params"]["s"] == 1.0  # the 2-D default query's order
    assert len(payload["records"]) == 16 * len(
        default_query(TorusGrid(2, 64)).positions)


@pytest.mark.parametrize("argv, payload, missing", [
    (["norm", "--input", "{sig}"], {"d": 1, "n": 16, "re": [0.0] * 16},
     "'im'"),
    (["wavefront", "--input", "{sig}"], [1, 16], "not a JSON object"),
    (["norm", "--input", "{ok}", "--weight", "table:{sig}"],
     {"d": 1, "n": 16}, "'values'"),
    (["verify", "transport", "--symbol", "table:{sig}"], {"order": 0.0},
     "'values'"),
])
def test_malformed_json_input_is_a_usage_error(tmp_path, capsys, argv,
                                               payload, missing):
    # bad input must not read as a failed verification (exit 1)
    bad, ok = tmp_path / "bad.json", tmp_path / "ok.json"
    bad.write_text(json.dumps(payload))
    write_signal(zero_signal(TorusGrid(1, 16)), str(ok))
    code, out = _run([a.format(sig=bad, ok=ok) for a in argv], capsys)
    assert code == 2
    report = json.loads(out)
    assert set(report) == {"error", "status"}
    assert report["status"] == "error" and missing in report["error"]


# The deterministic verify targets' last report lines, compared exactly.
# ``transport --symbol dx1`` exits 1, a known failure: A f scans singular
# at cells 0 and 128, away from the cusp at cell 64 where f is singular.
_PASS = '"build": "flwave-0.1.0", '
_PINNED = [
    (["wf-product"], 0,
     '{' + _PASS + '"pass": true, "seed": 0, "target": "wf-product", '
     '"violations": []}'),
    (["wf-conv"], 0,
     '{' + _PASS + '"pass": true, "seed": 0, "target": "wf-conv", '
     '"violations": []}'),
    (["slice-norms"], 0,
     '{' + _PASS + '"cases": 16, "pass": true, "seed": 0, '
     '"target": "slice-norms"}'),
    (["corpus-oracles"], 0,
     '{' + _PASS + '"failures": [], "pass": true, "seed": 0, '
     '"target": "corpus-oracles"}'),
    (["bootstrap", "--n", "2"], 0,
     '{"accepted": true, ' + _PASS + '"final_index": 4.0, "params": '
     '{"d": 1, "k": 0, "m": 2, "n": 2.0, "q": 1.0, "r": 0.0, "s": 1.0, '
     '"variant": 1}, "pass": true, "rejection": null, "seed": 0, '
     '"target": "bootstrap", "trace": [[1, 1.0, 2.0], [2, 2.0, 2.0]]}'),
    (["transport"], 0,
     '{' + _PASS + '"forward_violations": [], "lift_violations": [], '
     '"pass": true, "seed": 0, "target": "transport", '
     '"union_violations": []}'),
    (["transport", "--symbol", "poly:1,0,1"], 0,
     '{' + _PASS + '"forward_violations": [], "lift_violations": [], '
     '"pass": true, "seed": 0, "target": "transport", '
     '"union_violations": []}'),
    (["transport", "--symbol", "dx1"], 1,
     '{' + _PASS + '"forward_violations": [{"theta": [1.0], "x0": [0]}, '
     '{"theta": [-1.0], "x0": [0]}, {"theta": [1.0], "x0": [128]}, '
     '{"theta": [-1.0], "x0": [128]}], "lift_violations": [], '
     '"pass": false, "seed": 0, "target": "transport", '
     '"union_violations": []}'),
]


@pytest.mark.parametrize("argv, code, last", _PINNED,
                         ids=[" ".join(a) for a, _, _ in _PINNED])
def test_deterministic_verify_report_is_pinned(capsys, argv, code, last):
    got, out = _run(["verify", *argv], capsys)
    assert (got, out.strip().splitlines()[-1]) == (code, last)


_EXP, _FIN = "must be finite or inf, got", "must be finite, got"


@pytest.mark.parametrize("argv, error", [
    (["verify", "tf-bounds", "--q", "nan"], f"--q {_EXP} nan"),
    (["verify", "tf-bounds", "--r", "nan"], f"--r {_FIN} nan"),
    (["verify", "tf-bounds", "--q=-inf"], f"--q {_EXP} -inf"),
    (["verify", "young-conv", "--q", "nan"], f"--q {_EXP} nan"),
    (["verify", "bootstrap", "--n", "1e400"], f"--n {_FIN} inf"),
    (["norm", "--input", "{sig}", "--space", "fl", "--q", "nan"],
     f"--q {_EXP} nan"),
    (["norm", "--input", "{sig}", "--space", "mod", "--p", "nan"],
     f"--p {_EXP} nan"),
    (["wavefront", "--input", "{sig}", "--s", "nan"], f"--s {_FIN} nan"),
    (["wavefront", "--input", "{sig}", "--s", "inf"], f"--s {_FIN} inf"),
])
def test_a_flag_outside_its_domain_is_a_usage_error(tmp_path, capsys, argv,
                                                    error):
    # a NaN used to pass tf-bounds and young-conv with every ratio 0
    sig = tmp_path / "f.json"
    write_signal(standard_corpus(1, 16)[2].signal, str(sig))
    code, out = _run([a.format(sig=sig) for a in argv], capsys)
    assert code == 2
    assert json.loads(out) == {"error": error, "status": "error"}


def test_an_exponent_may_be_inf(tmp_path, capsys):
    sig = tmp_path / "f.json"
    write_signal(standard_corpus(1, 16)[2].signal, str(sig))
    code, out = _run(["norm", "--input", str(sig), "--q", "inf"], capsys)
    assert code == 0 and json.loads(out.splitlines()[-1])["params"]["q"] \
        == float("inf")
    code, out = _run(["verify", "tf-bounds", "--q", "inf", "--r", "1.5",
                      "--trials", "2"], capsys)
    report = json.loads(out)
    assert code == 0 and report["pass"]
    assert [r["q"] for r in report["reports"]] == [float("inf"), 2.0,
                                                   float("inf")]
