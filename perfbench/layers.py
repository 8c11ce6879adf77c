"""Where the traced run records spans, and the per-layer metrics.

Each target is the name a caller resolves at call time: the streaming
engine imports ``similarity_scores``, ``union_adjacency`` and
``extract_affected_subgraph`` into :mod:`repro.engine.concurrent`, the
ingest guard imports ``apply_events`` into :mod:`repro.resilience.ingest`,
and the checkpoint store calls its module's ``save_checkpoint``.  Model
cells are wrapped on the model's concrete class, because GC-LSTM
overrides ``cell_step_rows``.

Each ``*_share`` metric is a span's self time (its duration minus its
child spans) over the whole traced phase, as a share of the traced call
time (``trace.window_s`` per window, queries excluded); multiply the two
for seconds per window.  Count metrics are taken over the first
:data:`COUNT_WINDOWS` windows of the traced phase, so they depend on the
seed only, never on how fast the host ran.  A layer a workload does not
reach reports 0.  The metric names and units are those of ``per_layer``
in ``BENCHMARK.json``.
"""

from __future__ import annotations

import repro.analysis.classify as classify_mod
import repro.engine.concurrent as concurrent_mod
import repro.resilience.checkpoint as checkpoint_mod
import repro.resilience.ingest as ingest_mod
from repro.engine import StreamingInference
from repro.graphs.snapshot import CSRSnapshot
from repro.serving import ShardCluster, ShardMap, ShardSupervisor, ShardWorker
from repro.serving.tenants import TenantGate
from repro.skipping.delta import DeltaCellCache
from repro.skipping.policy import SkippingPolicy

from spans import Target

__all__ = ["COUNT_WINDOWS", "layer_metrics", "trace_targets"]

#: windows (stream) or released tenant windows (serve) whose counters the
#: count metrics are read from
COUNT_WINDOWS = 8

#: span name -> self-time share metric
_SELF_TIME = {
    "graphs.aggregate": "graphs.aggregate_share",
    "graphs.apply_events": "graphs.apply_events_share",
    "analysis.classify": "analysis.classify_share",
    "analysis.union_adjacency": "analysis.union_adjacency_share",
    "analysis.subgraph": "analysis.subgraph_share",
    "analysis.similarity": "analysis.similarity_share",
    "models.cell_step": "models.cell_step_share",
    "skipping.decide": "skipping.decide_share",
    "skipping.partial_step": "skipping.partial_step_share",
    "skipping.refresh": "skipping.refresh_share",
    "engine.window": "engine.self_share",
    "resilience.checkpoint_save": "resilience.checkpoint_save_share",
    "resilience.ingest": "resilience.ingest_share",
    "serving.push": "serving.push_share",
    "serving.drain": "serving.drain_share",
    "serving.admit": "serving.admit_share",
    "serving.stitch": "serving.stitch_share",
    "serving.monitor": "serving.monitor_share",
    "serving.query": "serving.query_share",
}


def _count_aggregate(tracer, args, kwargs, result):
    tracer.counts["graphs.aggregate_calls"] += 1


def _count_events(tracer, args, kwargs, result):
    tracer.counts["graphs.events_applied"] += len(args[1])


def _count_classify(tracer, args, kwargs, result):
    tracer.counts["analysis.unaffected"] += int(result.unaffected_mask.sum())
    tracer.counts["analysis.vertices"] += len(result.labels)


def _count_subgraph(tracer, args, kwargs, result):
    tracer.counts["analysis.subgraph_vertices"] += result.num_vertices
    tracer.counts["analysis.subgraphs"] += 1


def _count_checkpoint(tracer, args, kwargs, result):
    target = args[1]
    tracer.counts["resilience.checkpoints"] += 1
    if hasattr(target, "getbuffer"):  # the store's in-memory blobs
        tracer.counts["resilience.checkpoint_bytes"] += target.getbuffer().nbytes


def trace_targets(model_cls) -> list[Target]:
    """Every wrapper the traced run installs, for a model class."""
    return [
        Target(CSRSnapshot, "aggregate", "graphs.aggregate",
               _count_aggregate),
        Target(ingest_mod, "apply_events", "graphs.apply_events",
               _count_events),
        Target(classify_mod, "classify_window", "analysis.classify",
               _count_classify),
        Target(concurrent_mod, "union_adjacency", "analysis.union_adjacency"),
        Target(concurrent_mod, "extract_affected_subgraph", "analysis.subgraph",
               _count_subgraph),
        Target(concurrent_mod, "similarity_scores", "analysis.similarity"),
        Target(model_cls, "cell_step_rows", "models.cell_step"),
        Target(SkippingPolicy, "decide", "skipping.decide"),
        Target(DeltaCellCache, "partial_step", "skipping.partial_step"),
        Target(DeltaCellCache, "refresh", "skipping.refresh"),
        Target(StreamingInference, "push", "engine.window"),
        Target(StreamingInference, "flush", "engine.window"),
        Target(checkpoint_mod, "save_checkpoint", "resilience.checkpoint_save",
               _count_checkpoint),
        Target(ingest_mod.GuardedIngest, "apply", "resilience.ingest"),
        Target(ShardCluster, "push", "serving.push"),
        Target(ShardCluster, "ingest", "serving.push"),
        Target(ShardCluster, "query", "serving.query"),
        Target(TenantGate, "admit", "serving.admit"),
        Target(ShardSupervisor, "monitor", "serving.monitor"),
        Target(ShardWorker, "drain", "serving.drain"),
        Target(ShardMap, "stitch", "serving.stitch"),
    ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer, *, windows: int, seconds: float, out_dim: int, counts: dict,
    counters, pushes: int, history_len: int, backlog_max: int,
) -> dict[str, float]:
    """Per-layer values except ``trace.overhead_ratio``.

    ``windows`` and ``seconds`` are the windows the traced phase completed
    and its total traced call time.  ``counts`` (tracer counts),
    ``counters`` (program counters), ``pushes``, ``history_len``
    (snapshots held in replay logs) and ``backlog_max`` (deepest shard
    queue so far) were read when the traced phase reached
    :data:`COUNT_WINDOWS` windows.
    """
    k = COUNT_WINDOWS
    out = {metric: 0.0 for metric in _SELF_TIME.values()}
    for span, own in tracer.self_seconds().items():
        if span in _SELF_TIME:
            out[_SELF_TIME[span]] = own / seconds
    out["engine.window_s"] = tracer.total_seconds("engine.window") / windows
    out["trace.window_s"] = seconds / windows

    cells = counters.cells_full + counters.cells_delta + counters.cells_skipped
    checkpoints = counts.get("resilience.checkpoints", 0)
    out.update({
        "graphs.aggregate_calls": counts.get("graphs.aggregate_calls", 0) / k,
        "graphs.events_applied": counts.get("graphs.events_applied", 0) / k,
        "analysis.unaffected_ratio": _ratio(
            counts.get("analysis.unaffected", 0),
            counts.get("analysis.vertices", 0)),
        "analysis.subgraph_vertices": _ratio(
            counts.get("analysis.subgraph_vertices", 0),
            counts.get("analysis.subgraphs", 0)),
        "skipping.skip_ratio": _ratio(counters.cells_skipped, cells),
        "skipping.delta_ratio": _ratio(counters.cells_delta, cells),
        "skipping.full_ratio": _ratio(counters.cells_full, cells),
        "skipping.delta_density": _ratio(
            counters.delta_nnz, counters.cells_delta * out_dim),
        "engine.aggregation_macs": counters.aggregation_macs,
        "engine.combination_macs": counters.combination_macs,
        "engine.cell_macs": counters.cell_macs,
        "engine.feature_words": counters.feature_words,
        "engine.structure_words": counters.structure_words,
        "engine.overhead_ops": counters.overhead_ops,
        "resilience.checkpoint_bytes": _ratio(
            counts.get("resilience.checkpoint_bytes", 0), checkpoints),
        "resilience.checkpoints": checkpoints / k,
        "resilience.dead_letters": counters.dead_letter_events,
        "resilience.retries": counters.retries,
        "serving.windows_per_release": counters.windows_processed / k,
        "serving.shed_ratio": _ratio(counters.shed_events, pushes),
        "serving.stale_serves": counters.stale_serves,
        "serving.history_per_window": history_len / k,
        "serving.backlog_max": backlog_max,
    })
    return out
