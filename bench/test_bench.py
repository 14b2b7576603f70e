"""Tests of the benchmark harness: tiny smoke runs of every workload, the
self-time arithmetic, the instrumentation and BENCHMARK.json's agreement with
the code."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from layers import PER_LAYER  # noqa: E402
from run import END_TO_END, WORKLOAD_NAMES  # noqa: E402
from spans import Probe, Recorder, Span, busy_and_self, instrument  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_untraced_prints_every_metric(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", "0", "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert list(result["metrics"]) == [name for name, _ in END_TO_END]
    for name, unit in END_TO_END:
        metric = result["metrics"][name]
        assert metric["unit"] == unit and math.isfinite(metric["value"])
        assert metric["value"] > 0
        assert any(
            line.startswith(f"{workload}: {name} ") and f" {unit}" in line
            for line in lines
        ), name
    assert f"{workload}: fail_ratio 0.0 ratio" in lines[-2]


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_traced_reports_every_layer_metric(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.05",
                 "--trace", "1", "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"]
    assert [(n, m["unit"]) for n, m in result["metrics"].items()] == PER_LAYER
    assert result["metrics"]["bench.op.busy_s"]["value"] > 0
    assert "tracing overhead" in proc.stdout


def test_refuses_to_run_without_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "spectra", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_on_hand_built_span_tree():
    spans = [
        Span("a", 0.0, 10.0, None, 0),
        Span("b", 1.0, 4.0, 0, 0),
        Span("d", 1.5, 2.0, 1, 0),
        Span("c", 3.0, 6.0, 0, 0),  # overlaps b: covered once
        Span("e", 20.0, 25.0, None, 1),
        Span("e", 21.0, 22.0, 4, 1),  # nested call of the same name
    ]
    got = busy_and_self(spans)
    assert got["a"] == pytest.approx((10.0, 5.0))
    assert got["b"] == pytest.approx((3.0, 2.5))
    assert got["c"] == pytest.approx((3.0, 3.0))
    assert got["d"] == pytest.approx((0.5, 0.5))
    assert got["e"] == pytest.approx((5.0, 5.0))


def test_recorder_nests_spans_under_the_open_one():
    rec = Recorder()
    rec.op = 7
    with rec.span("outer"):
        with rec.span("inner"):
            pass
    with rec.span("next"):
        pass
    assert [(s.name, s.parent, s.op) for s in rec.spans] == [
        ("outer", None, 7), ("inner", 0, 7), ("next", None, 7)
    ]
    assert all(s.end >= s.start for s in rec.spans)


def test_instrument_wraps_every_alias_and_restores_them():
    sys.path.insert(0, str(ROOT / "src"))
    from etklab import etk, learning

    original = etk.gram_matrix_real
    assert learning.gram_matrix_real is original
    rec = Recorder()
    with instrument(rec, [Probe("etklab.etk:gram_matrix_real", "gram"),
                          Probe("etklab.etk:no_such_function", "missing")]):
        assert etk.gram_matrix_real is not original
        assert learning.gram_matrix_real is etk.gram_matrix_real
        kernel = etk.polynomial_etk(2, 1.0, 2)
        learning.self_gram(kernel, [[0.1, 0.2], [0.3, 0.4]])
    assert etk.gram_matrix_real is original and learning.gram_matrix_real is original
    assert [s.name for s in rec.spans] == ["gram"]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == WORKLOAD_NAMES
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
