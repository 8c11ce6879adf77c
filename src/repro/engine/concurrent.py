"""TaGNN-S: the topology-aware concurrent execution engine (software).

This is the paper's approach in software form (evaluated as *TaGNN-S* in
Figs. 8–9):

1. **Window classification** — vertices of a K-snapshot window are split
   into unaffected / stable / affected (:mod:`repro.analysis.classify`)
   and the affected subgraph is extracted by the stable-rooted DFS.
2. **Multi-snapshot GNN** — snapshot 0 of the window is computed once as
   the *representative*; for later snapshots only the per-layer *changed
   sets* are recomputed.  The changed set of layer ``i`` is the closed
   (i-1)-hop neighbourhood of the stable∪affected set over the union
   adjacency: an unaffected vertex's layer-1 output is provably identical
   across the window, but deeper layers see change leaking in one hop per
   layer.  This makes the GNN phase *exact* while loading/computing
   unaffected vertices once per layer, as the paper claims.
3. **Similarity-aware cell skipping** — per consecutive snapshot pair,
   stable/affected vertices are scored with :math:`\\theta`; SKIP rows
   reuse the previous final feature, DELTA rows take the condensed
   partial update, FULL rows run the real cell.  Unaffected vertices are
   skipped directly without scoring (their :math:`\\theta` is exactly 1).

With ``enable_skipping=False`` the engine's outputs are bit-comparable to
the reference engine (a test invariant); with skipping on they differ by
the bounded approximation the accuracy benches quantify.

:meth:`ConcurrentEngine.step` is the only window executor: it runs one
window from a :class:`WindowCarry` (everything one window hands to the
next) and advances it.  :meth:`ConcurrentEngine.run` folds it over a
whole graph; :class:`~repro.engine.streaming.StreamingInference` calls it
once per buffered window.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from ..analysis import classify as classify_mod
from ..analysis.classify import WindowClassification
from ..analysis.similarity import similarity_scores
from ..analysis.subgraph import extract_affected_subgraph, union_adjacency
from ..graphs.dynamic import DynamicGraph
from ..graphs.snapshot import CSRSnapshot
from ..models.base import DGNNModel
from ..models.rnn import IdentityCell
from ..skipping.delta import DeltaCellCache
from ..skipping.policy import CellUpdateMode, SkippingPolicy, SkipThresholds
from .metrics import ExecutionMetrics
from .reference import EngineResult

__all__ = ["ConcurrentEngine", "WindowCarry", "WindowResult"]

#: EWMA smoothing for the engine's running Condense-Unit sparsity probe
#: (``delta_nnz`` over delta capacity), fed to the planner's profiles.
_DELTA_PROBE_ALPHA = 0.3

_CACHE_ARRAYS = ("zx", "zh", "z_input")


@dataclass
class WindowCarry:
    """Everything carried across a window boundary.

    :meth:`ConcurrentEngine.step` reads and advances ``window_index`` and
    ``state`` through ``first``; a stream also keeps its buffer
    (``pending``), position (``timestamp``), running ``metrics`` and
    pinned vertex count here, so one record is the whole checkpoint
    (:mod:`repro.resilience.checkpoint`).  ``state``, ``cache`` and
    ``h_prev`` stay ``None`` until the first window allocates them.
    """

    window_size: int
    pending: list[CSRSnapshot] = field(default_factory=list)
    timestamp: int = 0  # stream position of pending[0]
    window_index: int = 0  # windows executed; drives weight evolution
    metrics: ExecutionMetrics = field(default_factory=ExecutionMetrics)
    state: object = None  # per-vertex recurrent state
    #: delta-cache pre-activations ``zx``/``zh``/``z_input`` (None for
    #: identity cells)
    cache: dict[str, np.ndarray] | None = None
    h_prev: np.ndarray | None = None  # last output
    z_prev: np.ndarray | None = None  # last GNN output (delta baseline)
    snap_prev: CSRSnapshot | None = None
    first: bool = True  # nothing executed yet: next cell update is full
    num_vertices: int | None = None

    def copy(self) -> "WindowCarry":
        """Deep copy: shares no array, snapshot or counter with ``self``."""

        def opt(x):
            return None if x is None else x.copy()

        return replace(
            self,
            pending=[s.copy() for s in self.pending],
            metrics=ExecutionMetrics(**self.metrics.as_dict()),
            state=opt(self.state),
            cache=(
                None
                if self.cache is None
                else {k: v.copy() for k, v in self.cache.items()}
            ),
            h_prev=opt(self.h_prev),
            z_prev=opt(self.z_prev),
            snap_prev=opt(self.snap_prev),
        )


@dataclass
class WindowResult:
    """What one :meth:`ConcurrentEngine.step` produced."""

    outputs: list[np.ndarray]  # H^t per snapshot of the window
    metrics: ExecutionMetrics  # this window's counters only
    classification: WindowClassification
    plan: object  # the planner's ExecutionPlan, or None
    decisions: list  # the window's skipping decisions


class ConcurrentEngine:
    """The TaGNN-S engine.

    Parameters
    ----------
    model:
        Any :class:`DGNNModel`.
    window_size:
        Snapshots processed concurrently (paper default 4).
    thresholds:
        Skipping thresholds; defaults to the Fig. 14(a) optimum.
    epsilon:
        Delta-mode zero threshold fed to the Condense Unit.
    enable_overlap:
        The OADL half (multi-snapshot GNN with changed-set propagation).
        Off = recompute every vertex per snapshot (ablation WO/OADL).
    enable_skipping:
        The ADSC half (similarity-gated cell updates).  Off = full cell
        update everywhere (ablation WO/ADSC) and the engine is exact.
    planner:
        Optional :class:`~repro.adaptive.AdaptivePlanner`.  When set,
        each window is profiled and executed under the planner's
        :class:`~repro.adaptive.ExecutionPlan` — kernel and threshold
        choices per window — with realized latencies fed back online.
    """

    name = "TaGNN-S"

    def __init__(
        self,
        model: DGNNModel,
        *,
        window_size: int = 4,
        thresholds: SkipThresholds | None = None,
        epsilon: float = 1e-3,
        enable_overlap: bool = True,
        enable_skipping: bool = True,
        refresh_each_window: bool = True,
        planner=None,
    ):
        if window_size < 1:
            raise ValueError("window_size must be >= 1")
        self.model = model
        self.window_size = window_size
        self.policy = SkippingPolicy(thresholds)
        self.epsilon = epsilon
        self.enable_overlap = enable_overlap
        self.enable_skipping = enable_skipping
        #: full cell update on the first snapshot of each batch — the
        #: paper's per-batch recalculation that stops error accumulating
        #: over prolonged skipping (ablated by the design benches)
        self.refresh_each_window = refresh_each_window
        self.planner = planner
        #: running Condense-Unit sparsity probe (delta nnz over capacity)
        self._delta_probe = 0.0

    # ------------------------------------------------------------------
    def run(self, graph: DynamicGraph) -> EngineResult:
        """Fold :meth:`step` over the graph's consecutive windows."""
        k = self.window_size
        carry = WindowCarry(k)
        outputs: list[np.ndarray] = []
        decisions: list = []
        classifications = []
        plans = []
        for start in range(0, graph.num_snapshots, k):
            size = min(k, graph.num_snapshots - start)
            result = self.step(graph.window(start, size), carry)
            outputs.extend(result.outputs)
            decisions.extend(result.decisions)
            classifications.append(result.classification)
            if result.plan is not None:
                plans.append(result.plan)
            carry.metrics = carry.metrics.merge(result.metrics)

        extra = {"decisions": decisions, "classifications": classifications}
        if self.planner is not None:
            extra["plans"] = plans
        return EngineResult(outputs, carry.metrics, extra=extra)

    def step(self, window: DynamicGraph, carry: WindowCarry) -> WindowResult:
        """Execute one window from ``carry`` and advance it in place.

        Classify the window, plan it, drift-probe the plan when the
        planner asks, then run the changed-set GNN and the per-snapshot
        similarity-gated cell updates.  Only the window fields of
        ``carry`` change (``window_index`` through ``first``); the
        caller owns ``pending``, ``timestamp`` and ``metrics``.
        """
        model = self.model
        if carry.state is None:
            self._init_carry(carry, window.num_vertices)
        if hasattr(model, "advance_window"):
            model.advance_window(carry.window_index)

        m = ExecutionMetrics()
        # resolved at call time so tracers wrapping the module see it
        cls = classify_mod.classify_window(window)
        plan = self.plan_window(m, window, cls)

        # Drift probe: replay this window from a copy of the carry at the
        # *default* thresholds, then run the tuned plan — the relative
        # divergence between the two output sets is exactly the quantity
        # the drift budget bounds.  While the controller is still at the
        # defaults the divergence is zero by construction, so the probe
        # is free — that zero is what bootstraps the aggressiveness ramp.
        probe = plan is not None and self.planner.wants_probe()
        baseline = None
        if probe and plan.thresholds != SkipThresholds():
            baseline, _ = self._execute(
                window,
                cls,
                replace(plan, thresholds=SkipThresholds()),
                carry.copy(),
                ExecutionMetrics(),
                [],
            )

        decisions: list = []
        outputs, seconds = self._execute(
            window, cls, plan, carry, m, decisions
        )
        if plan is not None:
            self.planner.observe(plan, seconds)
        if probe:
            if baseline is None:
                drift = 0.0
            else:
                from ..adaptive import relative_drift

                drift = relative_drift(baseline, outputs)
            self.planner.observe_drift(drift)
            m.drift_probes += 1

        m.windows_processed += 1
        carry.window_index += 1
        return WindowResult(outputs, m, cls, plan, decisions)

    def _init_carry(self, carry: WindowCarry, n: int) -> None:
        """Allocate the recurrent state, delta cache and last output."""
        model = self.model
        carry.state = model.init_state(n)
        if not isinstance(model.cell, IdentityCell):
            # RNN-free models (IdentityCell) have no delta-cache
            # machinery: their "cell update" is free and always exact
            fresh = DeltaCellCache(model.cell, n)
            carry.cache = {k: getattr(fresh, k) for k in _CACHE_ARRAYS}
        carry.h_prev = np.zeros((n, model.out_dim), dtype=np.float32)

    def _delta_cache(self, carry: WindowCarry) -> DeltaCellCache | None:
        """The model's delta cache over ``carry.cache``'s arrays: its
        refreshes and partial steps update the carry in place."""
        if carry.cache is None:
            return None
        cache = DeltaCellCache(self.model.cell, len(carry.cache["zx"]))
        for name in _CACHE_ARRAYS:
            setattr(cache, name, carry.cache[name])
        return cache

    def _execute(self, window, cls, plan, carry, m, decisions):
        """Run one classified window under ``plan`` (the static
        configuration when None), advancing ``carry``.

        Returns the outputs and the GNN + cell-update seconds the
        planner's cost model learns from.  ``delta-condensed`` keeps the
        OADL changed-set path; ``batched-spmm`` turns it off and
        recomputes every snapshot — the two are bit-identical by
        construction.
        """
        overlap, policy = self.enable_overlap, self.policy
        if plan is not None:
            from ..adaptive import KernelChoice

            overlap = plan.kernel is KernelChoice.DELTA_CONDENSED
            policy = SkippingPolicy(plan.thresholds)
        self._account_overhead(
            m, window, self._subgraph_vertices(window, cls, plan)
        )
        base_modes = (m.cells_full, m.cells_delta, m.cells_skipped)
        base_delta_nnz = m.delta_nnz
        cache = self._delta_cache(carry)
        outputs: list[np.ndarray] = []
        t0 = time.perf_counter()  # repro: noqa R001 — planner latency feedback, not simulated time
        zs = self._gnn_window(m, window, cls, overlap=overlap)
        for t, snap in enumerate(window):
            # The first snapshot of every batch takes the full cell
            # update: the paper "recalculates similarity scores for
            # each vertex in the new batch, rather than reusing scores
            # and skipping decisions" to stop error accumulating over
            # prolonged skipping — a periodic state refresh is what
            # bounds the drift (and what keeps Table 5's loss < 1%).
            carry.h_prev, carry.state = self._rnn_step(
                m,
                snap,
                zs[t],
                carry,
                cache,
                cls,
                policy=policy,
                first=carry.first or (t == 0 and self.refresh_each_window),
                decisions=decisions,
            )
            outputs.append(carry.h_prev.copy())
            carry.z_prev, carry.snap_prev = zs[t], snap
            carry.first = False
            m.snapshots_processed += 1
        seconds = time.perf_counter() - t0  # repro: noqa R001 — planner latency feedback
        m.record_window_modes(
            m.cells_full - base_modes[0],
            m.cells_delta - base_modes[1],
            m.cells_skipped - base_modes[2],
        )
        self._update_delta_probe(
            m.cells_delta - base_modes[1], m.delta_nnz - base_delta_nnz
        )
        return outputs, seconds

    # ------------------------------------------------------------------
    # adaptive planning support (repro.adaptive)
    # ------------------------------------------------------------------
    def plan_window(self, m, window, cls):
        """Profile the window and ask the planner for an
        :class:`~repro.adaptive.ExecutionPlan` (None without a planner)."""
        if self.planner is None:
            return None
        from ..adaptive import profile_window

        profile = profile_window(
            window, cls, self.model, delta_nnz_ratio=self._delta_probe
        )
        prev_switches = self.planner.kernel_switches
        plan = self.planner.plan(profile)
        m.windows_planned += 1
        m.plan_kernel_switches += self.planner.kernel_switches - prev_switches
        return plan

    def _subgraph_vertices(self, window, cls, plan) -> int:
        """Affected-subgraph size for overhead accounting.

        The DFS extraction only feeds the OADL changed-set path, so under
        a full-recompute plan it is *skipped entirely* (a real saving the
        planner prices in) and the changed-vertex count stands in for the
        accounting."""
        from ..adaptive import KernelChoice

        if plan is not None and plan.kernel is not KernelChoice.DELTA_CONDENSED:
            return int((cls.labels != 0).sum())
        return int(extract_affected_subgraph(window, cls).num_vertices)

    def _update_delta_probe(self, delta_cells: int, delta_nnz: int) -> None:
        """Refresh the running Condense-Unit sparsity probe from one
        window's delta counters (survivor nnz over delta capacity)."""
        if delta_cells <= 0:
            return
        capacity = delta_cells * max(self.model.out_dim, 1)
        ratio = min(1.0, delta_nnz / capacity)
        self._delta_probe += _DELTA_PROBE_ALPHA * (ratio - self._delta_probe)

    # ------------------------------------------------------------------
    # GNN phase
    # ------------------------------------------------------------------
    def _gnn_window(self, m, window, cls, *, overlap) -> list[np.ndarray]:
        """Multi-snapshot GNN with changed-set propagation (exact)."""
        model = self.model
        if not overlap:
            # ablation WO/OADL: every snapshot fully recomputed through
            # the window kernel
            zs = model.gnn_forward_window(window.snapshots)
            for snap in window:
                self._account_full_gnn(m, snap)
            return zs

        # --- representative pass on snapshot 0 of the window -----------
        # For shrinking layers the combine output (y = xW + b) is stashed:
        # it is reusable verbatim at later snapshots for every row whose
        # input did not change — the core OADL saving.
        snap0 = window[0]
        rep_inputs: list[np.ndarray] = [snap0.features]
        rep_combined: list[np.ndarray | None] = []
        h = snap0.features
        for layer in model.gnn.layers:
            if layer.out_dim < layer.in_dim:
                y = layer.combine(h)
                rep_combined.append(y)
                h = layer.act(snap0.aggregate(y))
            else:
                rep_combined.append(None)
                h = layer.forward(snap0, h)
            rep_inputs.append(h)
        self._account_full_gnn(m, snap0)
        zs = [rep_inputs[-1]]

        if window.num_snapshots == 1:
            return zs

        # --- changed-set masks per layer -------------------------------
        changed0 = cls.labels != 0  # stable or affected (VertexClass order)
        u_indptr, u_indices = union_adjacency(window)
        masks = [changed0]
        for _ in range(len(model.gnn.layers) - 1):
            prev = masks[-1]
            grown = prev.copy()
            src = np.repeat(
                np.arange(window.num_vertices, dtype=np.int64),
                np.diff(u_indptr),
            )
            hit = prev[u_indices]
            if hit.any():
                grown[src[hit]] = True
            masks.append(grown)

        # --- later snapshots: recompute only the masked rows -----------
        for t in range(1, window.num_snapshots):
            snap = window[t]
            x = rep_inputs[0].copy()
            diff_rows = np.flatnonzero(
                (snap.features != rep_inputs[0]).any(axis=1)
            )
            x[diff_rows] = snap.features[diff_rows]
            m.feature_words += len(diff_rows) * window.dim  # only churned rows
            in_changed = np.zeros(window.num_vertices, dtype=bool)
            in_changed[diff_rows] = True
            for li, layer in enumerate(model.gnn.layers):
                mask = masks[li]
                out = rep_inputs[li + 1].copy()
                out[mask] = self._layer_rows(
                    m, layer, snap, x, mask, in_changed, rep_combined[li]
                )
                x = out
                in_changed = mask  # next layer's inputs changed on `mask`
            zs.append(x)
        return zs

    def _layer_rows(
        self, m, layer, snap, x, mask, in_changed, rep_y
    ) -> np.ndarray:
        """One GCN layer restricted to ``mask`` rows (exact under the
        mean-normalised aggregation, see :meth:`CSRSnapshot.aggregate`).

        ``in_changed`` marks rows whose *input* differs from the
        representative; only those rows' combine outputs are recomputed —
        the rest reuse ``rep_y``.
        """
        if layer.out_dim < layer.in_dim:
            y = rep_y.copy()
            rows = np.flatnonzero(in_changed)
            y[rows] = x[rows] @ layer.weight + layer.bias
            m.combination_macs += len(rows) * layer.in_dim * layer.out_dim
        else:
            y = x
        agg = snap.aggregate(y, rows=mask)[mask]
        edges = int(snap.degrees[mask].sum())
        m.aggregation_macs += edges * y.shape[1]
        m.feature_words += edges * y.shape[1]  # neighbour gathers
        m.structure_words += int(mask.sum()) + edges

        if layer.out_dim < layer.in_dim:
            res = agg
        else:
            res = agg @ layer.weight + layer.bias
            m.combination_macs += int(mask.sum()) * layer.in_dim * layer.out_dim
        return layer.act(res)

    def _account_full_gnn(self, m, snap) -> None:
        """Accounting of one full-GNN snapshot pass (the representative,
        or every snapshot when overlap is disabled)."""
        n_present = snap.num_present
        e = snap.num_edges
        m.structure_words += (snap.num_vertices + 1) + e
        for layer in self.model.gnn.layers:
            agg_dim = min(layer.in_dim, layer.out_dim)
            m.feature_words += n_present * layer.in_dim + e * agg_dim
            m.combination_macs += n_present * layer.in_dim * layer.out_dim
            m.aggregation_macs += e * agg_dim
        # weights loaded once per *window*, not per snapshot
        pass

    # ------------------------------------------------------------------
    # RNN phase
    # ------------------------------------------------------------------
    def _rnn_step(
        self,
        m,
        snap,
        z,
        carry: WindowCarry,
        cache,
        cls,
        *,
        policy: SkippingPolicy,
        first: bool,
        decisions: list,
    ):
        """One snapshot's cell update from ``carry``; returns the new
        output and recurrent state."""
        model = self.model
        z_prev, snap_prev, state = carry.z_prev, carry.snap_prev, carry.state
        present_rows = np.flatnonzero(snap.present)
        h_out = carry.h_prev.copy()

        if first or not self.enable_skipping or z_prev is None:
            rows = present_rows
            h_rows, st_rows = model.cell_step_rows(z, state, rows, snap)
            h_out[rows] = h_rows
            new_state = _splice_state(state, rows, st_rows)
            if cache is not None:
                cache.refresh(rows, z, model.recurrent_drive(state, snap))
            m.cells_full += len(rows)
            m.cell_macs += len(rows) * model.cell.flops_per_vertex() // 2
            m.output_words += len(rows) * model.out_dim
            return h_out, new_state

        # --- scored set: stable + affected vertices present now ----------
        scored_mask = (cls.labels != 0) & snap.present
        if snap_prev is not None:
            scored_mask &= snap_prev.present  # arrivals have no history
        arrivals = snap.present & ~(
            snap_prev.present if snap_prev is not None else snap.present
        )
        scored = np.flatnonzero(scored_mask)

        # pairwise feature stability between the two snapshots
        feat_stable = (
            (snap.features == snap_prev.features).all(axis=1)
            & snap.present
            & snap_prev.present
        )
        theta = similarity_scores(z_prev, z, snap_prev, snap, scored, feat_stable)
        m.overhead_ops += len(scored) * (z.shape[1] + 8)
        decision = policy.decide(scored, theta)
        decisions.append(decision)

        full_rows = decision.rows(CellUpdateMode.FULL)
        full_rows = np.union1d(full_rows, np.flatnonzero(arrivals))
        delta_rows = decision.rows(CellUpdateMode.DELTA)
        skip_rows = decision.rows(CellUpdateMode.SKIP)
        if cache is None:
            # identity cell: the "partial" update is the full (free) one
            full_rows = np.union1d(full_rows, delta_rows)
            delta_rows = np.empty(0, dtype=np.int64)

        new_state = state
        drive = model.recurrent_drive(state, snap)
        if len(full_rows):
            h_rows, st_rows = model.cell_step_rows(z, state, full_rows, snap)
            h_out[full_rows] = h_rows
            new_state = _splice_state(new_state, full_rows, st_rows)
            if cache is not None:
                cache.refresh(full_rows, z, drive)
            m.cells_full += len(full_rows)
            m.cell_macs += len(full_rows) * model.cell.flops_per_vertex() // 2
        if len(delta_rows):
            h_rows, st_rows, packed = cache.partial_step(
                delta_rows, z, state, epsilon=self.epsilon
            )
            h_out[delta_rows] = h_rows
            new_state = _splice_state(new_state, delta_rows, st_rows)
            full_cost = len(delta_rows) * model.cell.flops_per_vertex() // 2
            delta_cost = packed.nnz * model.cell.w_x.shape[1]
            m.cells_delta += len(delta_rows)
            m.delta_nnz += packed.nnz
            m.cell_macs += min(delta_cost, full_cost)
            m.cell_macs_saved += max(full_cost - delta_cost, 0)
        # skip rows + unaffected vertices: reuse previous output and state
        n_skip = len(skip_rows) + int(
            ((cls.labels == 0) & snap.present).sum()
        )
        m.cells_skipped += n_skip
        m.cell_macs_saved += n_skip * model.cell.flops_per_vertex() // 2

        m.output_words += (len(full_rows) + len(delta_rows)) * model.out_dim
        return h_out, new_state

    # ------------------------------------------------------------------
    def _account_overhead(self, m, window, subgraph_vertices: int) -> None:
        """Runtime overhead of the topology analysis itself — the cost
        that makes TaGNN-S only modestly faster than PiPAD (Fig. 8(a))
        and that the accelerator's MSDL pipelines absorb.

        ``subgraph_vertices`` is the affected-subgraph vertex count (or
        the changed-vertex estimate when a plan skipped the DFS)."""
        n = window.num_vertices
        e_total = sum(s.num_edges for s in window)
        # classification: feature compares + fingerprints + scatter
        m.overhead_ops += window.num_snapshots * n * window.dim
        m.overhead_ops += e_total
        # DFS traversal of the union adjacency
        m.overhead_ops += int(subgraph_vertices) + e_total
        # structure reads for the analysis
        m.structure_words += e_total + (n + 1) * window.num_snapshots


def _splice_state(state, rows, row_state):
    """Return a copy of ``state`` with ``rows`` replaced by ``row_state``."""
    new = state.copy()
    for k in vars(row_state):
        if k.startswith("_"):
            continue
        getattr(new, k)[rows] = getattr(row_state, k)
    return new
