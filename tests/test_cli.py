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

from flwave.cli import VERIFY, build_parser, main
from flwave.corpus import standard_corpus
from flwave.grid import TorusGrid, read_signal, write_signal, zero_signal
from flwave.modulation import modulation_wavefront
from flwave.norms import FLNormSpec
from flwave.wavefront import default_query, estimate_wavefront


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


def test_corpus_list(capsys):
    code, out = _run(["corpus", "list"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert "graded-sum" in payload["entries"]


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


def test_norm_on_missing_file_fails(capsys):
    code, out = _run(["norm", "--input", "/nonexistent.json"], capsys)
    assert code == 2
    payload = json.loads(out.strip().splitlines()[-1])
    assert "error" in payload and payload["status"] == "error"


def _cusp_and_table(tmp_path):
    """A d = 1 n = 16 corpus signal file and a table weight file w = 2."""
    sig = standard_corpus(1, 16)[2].signal
    sig_path, table_path = tmp_path / "f.json", tmp_path / "w.json"
    write_signal(sig, str(sig_path))
    table_path.write_text(json.dumps(
        {"d": 1, "n": 16, "values": [2.0] * sig.grid.size}))
    return str(sig_path), f"table:{table_path}"


@pytest.mark.parametrize("space, weight", [("mixed", "s:3"),
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


@pytest.mark.parametrize("space, weight", [("mixed", "s:0"), ("mod", "s:1")])
def test_norm_weight_that_the_space_applies_runs(tmp_path, capsys, space,
                                                 weight):
    sig_path, _ = _cusp_and_table(tmp_path)
    code, out = _run(["norm", "--input", sig_path, "--space", space,
                      "--weight", weight], capsys)
    assert code == 0 and float(out.splitlines()[0]) > 0


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
    with pytest.raises(SystemExit) as exc:
        main(["verify", target, "--trials", trials])
    assert exc.value.code == 2
    assert "--trials must be >= 1" in capsys.readouterr().err


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
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    target = next(a for a in sub.choices["verify"]._actions
                  if a.dest == "target")
    assert list(target.choices) == list(VERIFY)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = re.search(r"Verify targets: `([^`]*)`", readme).group(1)
    assert listed.split() == list(VERIFY)


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
