"""Tests of the benchmark itself: ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import layers
import run
import workloads
from report import MIN_BEYOND, metric_spec, tail_percentile
from repro.engine import StreamingInference
from repro.models import make_model
from spans import Target, Tracer, self_times

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent

TINY_STREAM = replace(
    workloads.WORKLOADS["stream-gt-tgcn"], name="tiny-stream", scale=0.05,
    snapshots=8,
)
TINY_SERVE = replace(
    workloads.WORKLOADS["serve-gt-2shard"], name="tiny-serve", scale=0.05,
    snapshots=8,
)


@pytest.fixture
def tiny_workloads(monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, TINY_STREAM.name, TINY_STREAM)
    monkeypatch.setitem(workloads.WORKLOADS, TINY_SERVE.name, TINY_SERVE)


def _result(capsys, argv) -> dict:
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def test_self_times_subtract_direct_children_only():
    spans = [
        ("root", 0.0, 10.0, None),
        ("a", 1.0, 4.0, 0),
        ("a.inner", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_tracer_stack_nests_wrapped_calls():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap(lambda: None, "inner")
    outer = tracer.wrap(lambda: (inner(), inner()), "outer")
    outer()
    # outer spans ticks 0..5, each inner one tick
    assert [s[3] for s in tracer.spans] == [None, 0, 0]
    assert tracer.self_seconds() == {"outer": 3.0, "inner": 2.0}
    assert tracer.total_seconds("outer") == 5.0


def test_wrappers_are_removed_after_the_traced_run():
    model_cls = type(make_model("T-GCN", 8, 8, seed=0))
    targets = layers.trace_targets(model_cls)
    before = [t.owner.__dict__.get(t.attr, "absent") for t in targets]
    tracer = Tracer(targets)
    with pytest.raises(KeyError):
        with tracer:
            assert all(
                getattr(t.owner, t.attr) is not b
                for t, b in zip(targets, before)
            )
            raise KeyError("leave the block by an exception")
    after = [t.owner.__dict__.get(t.attr, "absent") for t in targets]
    assert all(a is b for a, b in zip(after, before))
    # inherited methods were shadowed on the concrete class, then removed
    assert "cell_step_rows" not in model_cls.__dict__


def test_trace_targets_cover_every_self_time_metric():
    names = {t.name for t in layers.trace_targets(object)}
    assert names == set(layers._SELF_TIME)


def test_tracer_counts_at_the_call_boundary():
    class Box:
        def size(self, n):
            return n

    tracer = Tracer([Target(Box, "size", "box.size",
                            lambda tr, a, k, r: tr.counts.__setitem__(
                                "n", tr.counts["n"] + r))])
    with tracer:
        Box().size(3)
        Box().size(4)
    Box().size(5)
    assert tracer.counts["n"] == 7
    assert len(tracer.spans) == 2


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def test_p90_needs_ten_samples_beyond_it():
    assert tail_percentile(list(range(100)), 90) == 89
    assert tail_percentile(list(range(99)), 90) is None
    # ties at the percentile do not count as beyond it
    assert tail_percentile([1.0] * 95 + [2.0] * 9, 90) is None
    assert MIN_BEYOND == 10


def test_untraced_run_omits_p90_with_too_few_windows(tiny_workloads, capsys,
                                                      monkeypatch):
    monkeypatch.setattr(run, "MIN_WINDOWS", 9)
    monkeypatch.setattr(workloads, "DRIFT_WINDOWS", 2)
    result = _result(capsys, ["--workload", "tiny-stream", "--seed", "1",
                              "--seconds", "0.01", "--trace", "0"])
    assert "window_p90_ms" not in result["metrics"]
    assert "window_p50_ms" in result["metrics"]
    assert result["correct"] is False


# ----------------------------------------------------------------------
# correctness checks
# ----------------------------------------------------------------------
def _corrupt_windows(monkeypatch):
    original = StreamingInference._process_window

    def corrupted(self):
        result = original(self)
        result.outputs[-1] = np.full_like(result.outputs[-1], np.nan)
        return result

    monkeypatch.setattr(StreamingInference, "_process_window", corrupted)


@pytest.mark.parametrize("workload", [TINY_STREAM, TINY_SERVE])
def test_corrupted_output_is_counted_failed(workload, monkeypatch):
    load = workloads.make_load(workload, seed=1)
    load.start()
    clean = run.closed_loop(load, 0, time.perf_counter, min_windows=4)
    assert not any(not s.ok for s in clean)

    _corrupt_windows(monkeypatch)
    load.start()
    samples = run.closed_loop(load, 0, time.perf_counter, min_windows=4)
    assert any(not s.ok for s in samples if s.windows)


def test_reference_mismatch_is_counted_failed(monkeypatch):
    load = workloads.make_load(TINY_STREAM, seed=1)
    load.start()
    run.closed_loop(load, 0, time.perf_counter,
                    min_windows=workloads.DRIFT_WINDOWS)
    checked, failed, drift = load.check()
    assert (checked, failed) == (workloads.IDENTITY_WINDOWS, 0)
    assert 0 < drift < 1

    _corrupt_windows(monkeypatch)
    checked, failed, _ = load.check()
    assert failed == workloads.IDENTITY_WINDOWS


def test_serve_check_passes_on_the_tree():
    load = workloads.make_load(TINY_SERVE, seed=1)
    load.start()
    samples = run.closed_loop(load, 0, time.perf_counter,
                              min_windows=load.check_windows)
    checked, failed, drift = load.check()
    assert failed == 0 and checked > load.check_windows
    assert all(s.ok for s in samples) and drift > 0


# ----------------------------------------------------------------------
# seeds and metric names
# ----------------------------------------------------------------------
def test_bounce_walks_neighbouring_snapshots():
    walk = [workloads.bounce(4, i) for i in range(10)]
    assert walk == [0, 1, 2, 3, 2, 1, 0, 1, 2, 3]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_seed_changes_inputs_not_metric_names(tiny_workloads, capsys, trace):
    a = workloads.make_load(TINY_STREAM, seed=1)
    b = workloads.make_load(TINY_STREAM, seed=2)
    assert not np.array_equal(a.graphs[0][0].features, b.graphs[0][0].features)
    names = []
    for seed in ("1", "2"):
        result = _result(capsys, ["--workload", "tiny-stream", "--seed", seed,
                                  "--seconds", "0.01", "--trace", trace])
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        names.append(list(result["metrics"]))
    kind = "end_to_end" if trace == "0" else "per_layer"
    expected = metric_spec(ROOT / "BENCHMARK.json", kind)
    assert names[0] == names[1] == [name for name, _ in expected]


def test_serve_trace_reports_every_layer(tiny_workloads, capsys):
    result = _result(capsys, ["--workload", "tiny-serve", "--seed", "1",
                              "--seconds", "0.01", "--trace", "1"])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert result["correct"]
    assert metrics["resilience.checkpoint_save_share"] > 0
    assert metrics["serving.windows_per_release"] == TINY_SERVE.shards
    assert metrics["serving.shed_ratio"] == 0
    assert metrics["graphs.events_applied"] > 0


# ----------------------------------------------------------------------
# figures that must not depend on how long the loop ran
# ----------------------------------------------------------------------
def _header_and_result(capsys, argv) -> tuple[dict, dict]:
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[0]), json.loads(lines[-1])


def test_peak_rss_is_read_at_a_fixed_window_count(tiny_workloads, capsys,
                                                    monkeypatch):
    # stand in for RSS with the windows processed so far, so a reading
    # taken later in the loop would show as a larger figure
    processed = [0]
    original = StreamingInference._process_window

    def counted(self):
        processed[0] += 1
        return original(self)

    monkeypatch.setattr(StreamingInference, "_process_window", counted)
    monkeypatch.setattr(run, "_peak_rss_mb", lambda: float(processed[0]))
    monkeypatch.setattr(run, "MIN_WINDOWS", 16)
    figures = []
    for seconds in ("0.01", "1.5"):
        processed[0] = 0
        header, result = _header_and_result(
            capsys, ["--workload", "tiny-serve", "--seed", "1",
                     "--seconds", seconds, "--trace", "0"])
        figures.append((header["windows"],
                        result["metrics"]["peak_rss_mb"]["value"]))
    (short_windows, short_rss), (long_windows, long_rss) = figures
    assert long_windows > short_windows
    assert long_rss == short_rss


def test_serve_history_is_per_window_at_a_fixed_count(tiny_workloads, capsys):
    values = []
    for seconds in ("0.01", "1.5"):
        header, result = _header_and_result(
            capsys, ["--workload", "tiny-serve", "--seed", "1",
                     "--seconds", seconds, "--trace", "1"])
        metrics = result["metrics"]
        values.append((header["windows"],
                       metrics["serving.history_per_window"]["value"],
                       metrics["serving.backlog_max"]["value"]))
    assert values[1][0] > values[0][0]
    assert values[0][1:] == values[1][1:]


# ----------------------------------------------------------------------
# a run outside a checkout
# ----------------------------------------------------------------------
def test_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream-gt-tgcn",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
