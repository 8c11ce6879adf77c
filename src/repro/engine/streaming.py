"""Streaming (push-based) DGNN inference.

Production dynamic-graph services do not hold the whole history in
memory: snapshots arrive one at a time and results must come out with
bounded latency.  :class:`StreamingInference` wraps the TaGNN-S engine
in a push API:

- ``push(snapshot)`` appends one snapshot; once a full window has
  accumulated, the window is processed (classification, multi-snapshot
  GNN, similarity-gated cell updates) and the per-snapshot results come
  back;
- ``flush()`` processes a trailing partial window;
- recurrent state, the last GNN output, and weight-evolution state carry
  across windows exactly as in the batch engine — a test invariant is
  that pushing snapshot-by-snapshot produces **the same outputs** as one
  batch run over the whole sequence.

The stream only buffers, checks its input, keeps its position and merges
the metrics.  Everything it carries is one
:class:`~repro.engine.concurrent.WindowCarry`, and each complete window
runs through :meth:`ConcurrentEngine.step` — the executor
:meth:`ConcurrentEngine.run` folds over a whole graph — so all batching
semantics live in exactly one place.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graphs.dynamic import DynamicGraph
from ..graphs.snapshot import CSRSnapshot
from ..models.base import DGNNModel
from ..models.rnn import IdentityCell
from ..skipping.policy import SkipThresholds
from .concurrent import ConcurrentEngine, WindowCarry
from .metrics import ExecutionMetrics

__all__ = ["StreamingInference", "StreamResult"]


@dataclass
class StreamResult:
    """Outputs released by one push/flush call."""

    timestamps: list[int]
    outputs: list[np.ndarray]
    metrics: ExecutionMetrics = field(default_factory=ExecutionMetrics)


class StreamingInference:
    """Push-based wrapper around the topology-aware concurrent engine."""

    def __init__(
        self,
        model: DGNNModel,
        *,
        window_size: int = 4,
        thresholds: SkipThresholds | None = None,
        enable_skipping: bool = True,
        planner=None,
    ):
        self.model = model
        self.window_size = window_size
        self._engine = ConcurrentEngine(  # validates window_size
            model,
            window_size=window_size,
            thresholds=thresholds,
            enable_skipping=enable_skipping,
            planner=planner,
        )
        self._carry = WindowCarry(window_size)

    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Snapshots buffered but not yet processed."""
        return len(self._carry.pending)

    @property
    def metrics(self) -> ExecutionMetrics:
        """Aggregate counters over everything processed so far."""
        return self._carry.metrics

    @property
    def planner(self):
        """The adaptive planner driving this stream (None when static)."""
        return self._engine.planner

    def push(self, snapshot: CSRSnapshot) -> StreamResult | None:
        """Append one snapshot; returns results when a window completes.

        Shape mismatches fail *here* with a clear message rather than as
        a numpy broadcast error deep inside the window processing: the
        feature dimension must match the model's input width and the
        vertex count must equal the first pushed snapshot's.
        """
        if snapshot.dim != self.model.in_dim:
            raise ValueError(
                f"snapshot feature dimension {snapshot.dim} does not match"
                f" model input dimension {self.model.in_dim}"
            )
        carry = self._carry
        if carry.num_vertices is None:
            carry.num_vertices = snapshot.num_vertices
        elif snapshot.num_vertices != carry.num_vertices:
            raise ValueError(
                f"snapshot vertex count changed mid-stream: got"
                f" {snapshot.num_vertices}, stream carries"
                f" {carry.num_vertices}"
            )
        carry.pending.append(snapshot)
        if len(carry.pending) < self.window_size:
            return None
        return self._process_window()

    def flush(self) -> StreamResult | None:
        """Process a trailing partial window (end of stream)."""
        if not self._carry.pending:
            return None
        return self._process_window()

    # ------------------------------------------------------------------
    def _process_window(self) -> StreamResult:
        carry = self._carry
        snaps, carry.pending = carry.pending, []
        first_ts = carry.timestamp
        carry.timestamp += len(snaps)
        window = DynamicGraph(snaps, name=f"stream[{first_ts}]")
        result = self._engine.step(window, carry)
        carry.metrics = carry.metrics.merge(result.metrics)
        return StreamResult(
            timestamps=list(range(first_ts, carry.timestamp)),
            outputs=result.outputs,
            metrics=result.metrics,
        )

    # ------------------------------------------------------------------
    # carry-state checkpointing (repro.resilience.checkpoint)
    # ------------------------------------------------------------------
    def carry_state(self) -> WindowCarry:
        """Deep copy of every value carried across windows.

        The returned record is fully detached from the live stream, so
        :meth:`restore_carry` rolls back to exactly this point no matter
        what ran in between.  :mod:`repro.resilience.checkpoint`
        serialises it.
        """
        return self._carry.copy()

    def restore_carry(self, carry: WindowCarry) -> None:
        """Install a carry produced by :meth:`carry_state`.

        The stream resumes bit-identically from the captured boundary.
        The carry is copied in, so one checkpoint can be restored any
        number of times.  The model/config must match the one the carry
        was captured from.
        """
        if carry.window_size != self.window_size:
            raise ValueError(
                f"checkpoint window_size {carry.window_size} does not"
                f" match stream window_size {self.window_size}"
            )
        width = None if carry.h_prev is None else carry.h_prev.shape[1]
        if width is not None and width != self.model.out_dim:
            raise ValueError(
                f"checkpoint output width {width} does not"
                f" match model out_dim {self.model.out_dim}"
            )
        if carry.cache is not None and isinstance(
            self.model.cell, IdentityCell
        ):
            raise ValueError(
                "checkpoint carries a delta cache but the model has"
                " an identity cell"
            )
        self._carry = carry.copy()

    # ------------------------------------------------------------------
    # graceful degradation (repro.resilience.supervisor)
    # ------------------------------------------------------------------
    def adopt_window(
        self,
        snapshots: list[CSRSnapshot],
        outputs: list[np.ndarray],
        state,
        z_last: np.ndarray,
        metrics: ExecutionMetrics,
    ) -> StreamResult:
        """Install externally-computed results for the pending window.

        The resilience supervisor calls this after re-executing a failed
        window on the exact reference path: the stream adopts the given
        outputs/state as if it had processed the window itself, clears
        the pending buffer, and refreshes the delta cache so later
        windows' DELTA-mode updates read consistent pre-activations.
        """
        if not snapshots or len(snapshots) != len(outputs):
            raise ValueError("adopt_window needs one output per snapshot")
        carry = self._carry
        last = snapshots[-1]
        if carry.state is None:  # degraded before any window ran
            self._engine._init_carry(carry, last.num_vertices)
        first_ts = carry.timestamp
        carry.pending = []
        carry.timestamp += len(snapshots)
        carry.window_index += 1
        carry.state = state
        carry.h_prev = outputs[-1].copy()
        carry.z_prev = z_last
        carry.snap_prev = last
        carry.first = False
        carry.num_vertices = last.num_vertices
        cache = self._engine._delta_cache(carry)
        if cache is not None:
            rows = np.flatnonzero(last.present)
            cache.refresh(
                rows, z_last, self.model.recurrent_drive(state, last)
            )
        carry.metrics = carry.metrics.merge(metrics)
        return StreamResult(
            timestamps=list(range(first_ts, carry.timestamp)),
            outputs=outputs,
            metrics=metrics,
        )
