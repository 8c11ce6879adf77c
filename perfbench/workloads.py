"""The benchmark's workloads: inputs from a seed, the closed loop, checks.

Every workload is driven by one caller as a closed loop: the next
snapshot (or event batch) is pushed only after the previous call has
returned, which is how the synchronous ``push`` API is used.  The
program receives only the generated snapshots and event batches.

Inputs are a short generated dynamic graph walked back and forth
(0, 1, ..., S-1, S-2, ..., 1, 0, 1, ...), so consecutive pushes are
always neighbouring snapshots of one generated history and a run of any
length needs only S snapshots in memory.  Each push gets a fresh copy
made outside the timed call, because pushing rewrites the snapshot's
timestamp.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.adaptive import relative_drift
from repro.engine import ReferenceEngine, StreamingInference
from repro.graphs import load_dataset
from repro.graphs.dynamic import DynamicGraph, snapshot_delta
from repro.graphs.updates import delta_to_events
from repro.models import make_model
from repro.serving import ShardCluster

__all__ = [
    "WORKLOADS",
    "Sample",
    "ServeLoad",
    "StreamLoad",
    "Workload",
    "bounce",
    "make_load",
    "outputs_ok",
]

WINDOW = 4
HIDDEN = 32
#: leading windows replayed with skipping off and compared bit for bit
#: with the reference engine
IDENTITY_WINDOWS = 2
#: leading windows of the measured stream whose outputs are compared with
#: the reference engine for ``output_drift`` (a fixed prefix, so the
#: figure depends on the seed only, never on how fast the host ran)
DRIFT_WINDOWS = 8
#: windows pushed through a throwaway engine during set-up
WARM_WINDOWS = 2
#: seed of the model's weights.  It is fixed, as a deployed model's
#: weights are: ``--seed`` varies the inputs only.  Weights drawn from the
#: input seed made ``output_drift`` on FK spread 0.16 across ten seeds
#: (0.05 with fixed weights), because the skipping gate depends on them.
MODEL_SEED = 0


@dataclass(frozen=True)
class Workload:
    """One named input configuration (static: skipping on, default θ,
    no planner).  Why each was chosen: ``BENCHMARK.json`` and the
    README."""

    name: str
    kind: str  # "stream" | "serve"
    dataset: str
    scale: float
    model: str
    snapshots: int = 32  # generated per stream/tenant, walked back and forth
    tenants: int = 1
    shards: int = 1


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("stream-gt-tgcn", "stream", "GT", 1.0, "T-GCN"),
        Workload("stream-fk-gclstm", "stream", "FK", 0.25, "GC-LSTM"),
        Workload("serve-gt-2shard", "serve", "GT", 1.0, "T-GCN",
                 tenants=2, shards=2),
    )
}


def bounce(length: int, i: int) -> int:
    """Index of push ``i`` in a back-and-forth walk over ``length``
    snapshots."""
    if length < 2:
        return 0
    period = 2 * (length - 1)
    j = i % period
    return j if j < length else period - j


def outputs_ok(outputs, num_vertices: int, out_dim: int) -> bool:
    """Every output is a finite ``(num_vertices, out_dim)`` matrix."""
    return all(
        np.shape(o) == (num_vertices, out_dim) and bool(np.isfinite(o).all())
        for o in outputs
    )


@dataclass
class Sample:
    """One timed call of the closed loop."""

    seconds: float
    windows: int  # windows the call completed (stream) or released (serve)
    ok: bool


class _Load:
    """Shared input generation and model construction."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.graphs = [
            load_dataset(
                workload.dataset,
                scale=workload.scale,
                num_snapshots=workload.snapshots,
                seed=seed + k,
            )
            for k in range(workload.tenants)
        ]
        self.num_vertices = self.graphs[0].num_vertices
        self.out_dim = self.model().out_dim
        #: windows a measured phase must complete before :meth:`check`
        self.check_windows = DRIFT_WINDOWS * workload.tenants

    def model(self):
        return make_model(
            self.workload.model, self.graphs[0].dim, HIDDEN, seed=MODEL_SEED
        )

    def snapshot(self, tenant: int, j: int):
        graph = self.graphs[tenant]
        return graph[bounce(len(graph), j)].copy()

    def warm_up(self, clock) -> None:
        """Push a few windows through a throwaway engine."""
        self.start()
        i = 0
        windows = 0
        while windows < WARM_WINDOWS * self.workload.tenants:
            windows += self.step(i, clock).windows
            i += 1

    def _reference_check(self, snapshots, outputs) -> tuple[int, int, float]:
        """Skipping-off identity on the leading windows plus drift of
        ``outputs`` against the reference engine on ``snapshots``.

        Returns ``(windows checked, windows failed, drift)``."""
        ref = ReferenceEngine(self.model(), window_size=WINDOW).run(
            DynamicGraph([s.copy() for s in snapshots], name="reference")
        ).outputs
        exact = StreamingInference(
            self.model(), window_size=WINDOW, enable_skipping=False
        )
        failed = 0
        checked = IDENTITY_WINDOWS
        for w in range(IDENTITY_WINDOWS):
            got = []
            for snap in snapshots[w * WINDOW : (w + 1) * WINDOW]:
                result = exact.push(snap.copy())
                if result is not None:
                    got.extend(result.outputs)
            want = ref[w * WINDOW : (w + 1) * WINDOW]
            if len(got) != len(want) or not all(
                np.array_equal(a, b) for a, b in zip(got, want)
            ):
                failed += 1
        return checked, failed, relative_drift(ref, outputs)


class StreamLoad(_Load):
    """``StreamingInference`` fed one snapshot per call."""

    backlog_max = 0  # no queue in front of the engine

    def start(self) -> None:
        self.engine = StreamingInference(self.model(), window_size=WINDOW)
        self.pushed = []  # leading snapshots, for the reference check
        self.outputs = []  # leading outputs, for the reference check

    def step(self, i: int, clock) -> Sample:
        snap = self.snapshot(0, i)
        t0 = clock()
        result = self.engine.push(snap)
        seconds = clock() - t0
        if len(self.pushed) < DRIFT_WINDOWS * WINDOW:
            self.pushed.append(self.snapshot(0, i))
        if result is None:
            return Sample(seconds, 0, True)
        ok = outputs_ok(result.outputs, self.num_vertices, self.out_dim)
        if len(self.outputs) < DRIFT_WINDOWS * WINDOW:
            self.outputs.extend(result.outputs)
        return Sample(seconds, 1, ok)

    def counters(self):
        """Cumulative engine counters of the measured stream."""
        return self.engine.metrics

    def history_len(self) -> int:
        return 0  # the stream keeps no replay log

    def check(self) -> tuple[int, int, float]:
        """Reference checks, run after the timed loop."""
        if len(self.outputs) < DRIFT_WINDOWS * WINDOW:
            raise RuntimeError(
                f"run too short: {len(self.outputs) // WINDOW} windows,"
                f" the reference check needs {DRIFT_WINDOWS}"
            )
        return self._reference_check(self.pushed, self.outputs)


class ServeLoad(_Load):
    """``ShardCluster`` fed event batches, tenants taking turns, with a
    ``query`` after every push.  The first push of each tenant is a full
    snapshot; every later one is an event batch through ``ingest``."""

    def __init__(self, workload: Workload, seed: int):
        super().__init__(workload, seed)
        self.names = [f"tenant{k}" for k in range(workload.tenants)]
        # event batches turning snapshot a into its neighbour b, per tenant
        self.events = []
        for graph in self.graphs:
            batches = {}
            for a in range(len(graph) - 1):
                for x, y in ((a, a + 1), (a + 1, a)):
                    batches[x, y] = delta_to_events(
                        snapshot_delta(graph[x], graph[y]),
                        new_features=graph[y].features,
                    )
            self.events.append(batches)

    def start(self) -> None:
        w = self.workload
        self.cluster = ShardCluster(
            self.model, num_shards=w.shards, window_size=WINDOW
        )
        for name in self.names:
            self.cluster.register_tenant(name)
        self.backlog_max = 0
        self._served = [False] * len(self.names)

    def step(self, i: int, clock) -> Sample:
        k = i % len(self.names)
        j = i // len(self.names)
        name = self.names[k]
        graph = self.graphs[k]
        if j == 0:
            snap = self.snapshot(k, 0)
            t0 = clock()
            receipt = self.cluster.push(name, snap)
        else:
            batch = self.events[k][
                bounce(len(graph), j - 1), bounce(len(graph), j)
            ]
            t0 = clock()
            receipt = self.cluster.ingest(name, batch)
        seconds = clock() - t0
        released = [m for _, m in receipt.released]
        ok = receipt.accepted and outputs_ok(
            released, self.num_vertices, self.out_dim
        )
        self.backlog_max = max(
            self.backlog_max,
            max(wk.total_depth() for wk in self.cluster.workers),
        )
        self._served[k] = self._served[k] or bool(released)
        if self._served[k]:
            matrix, _ = self.cluster.query(name)
            ok = ok and outputs_ok([matrix], self.num_vertices, self.out_dim)
        return Sample(seconds, len(released) // WINDOW, ok)

    def counters(self):
        """Cumulative counters of the cluster (engine counters summed
        over shards)."""
        return self.cluster.metrics

    def history_len(self) -> int:
        """Snapshots held in the tenants' replay logs."""
        return sum(len(self.cluster.history(n)) for n in self.names)

    def check(self) -> tuple[int, int, float]:
        """Flush, then: nothing lost or dead-lettered, released outputs
        bit-identical to an unsharded stream over the admitted snapshots,
        skipping-off identity and drift against the reference engine.
        Runs after the timed loop."""
        checked = 0
        failed = 0
        drifts = []
        prefix = DRIFT_WINDOWS * WINDOW
        for name in self.names:
            self.cluster.flush(name)
            history = self.cluster.history(name)
            released = self.cluster.released(name)
            if len(history) < prefix:
                raise RuntimeError(
                    f"run too short: {len(history)} snapshots for {name},"
                    f" the reference check needs {prefix}"
                )
            checked += 1
            if len(released) != len(history) or len(self.cluster.dlq):
                failed += 1
            unsharded = StreamingInference(self.model(), window_size=WINDOW)
            got = []
            for snap in history[:prefix]:
                result = unsharded.push(snap.copy())
                if result is not None:
                    got.extend(result.outputs)
            for w in range(DRIFT_WINDOWS):
                checked += 1
                span = slice(w * WINDOW, (w + 1) * WINDOW)
                if not all(
                    np.array_equal(a, b)
                    for a, b in zip(got[span], released[span])
                ):
                    failed += 1
            c, f, drift = self._reference_check(
                history[:prefix], released[:prefix]
            )
            checked += c
            failed += f
            drifts.append(drift)
        return checked, failed, float(np.mean(drifts))


def make_load(workload: Workload, seed: int):
    """Generate the workload's inputs for ``seed``."""
    cls = StreamLoad if workload.kind == "stream" else ServeLoad
    return cls(workload, seed)
