"""The adaptive correctness contract, property-tested.

Two halves:

* **bit-identity by construction** — whatever kernel the planner
  picks, the outputs are *exactly* the static pipeline's (both kernels
  apply the same additions in the same order; all storage formats hold
  the same canonical content).  Only thresholds may change results.
* **bounded drift** — the one accuracy-affecting knob, auto-tuned
  :math:`(\\theta_s, \\theta_e)`, stays inside the configured drift
  budget at every probe, and a zero budget degenerates to the exact
  default-threshold pipeline.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adaptive import (
    AdaptiveConfig,
    AdaptivePlanner,
    KernelChoice,
    relative_drift,
)
from repro.engine import ConcurrentEngine, StreamingInference
from repro.formats import FORMATS, WindowSelection
from repro.graphs import (
    ChurnConfig,
    DynamicGraphSpec,
    generate_dynamic_graph,
    load_dataset,
)
from repro.models import make_model

SEED = 3


def random_graph(seed, n=60, t=6, churn_scale=1.0):
    return generate_dynamic_graph(
        DynamicGraphSpec(
            name="adaptive-prop",
            num_vertices=n,
            num_edges=180,
            dim=6,
            num_snapshots=t,
            churn=ChurnConfig().scaled(churn_scale),
            seed=seed,
        )
    )


def forced_planner(kernel: KernelChoice) -> AdaptivePlanner:
    """A planner that always picks ``kernel`` and never tunes thresholds
    (observed latencies rig the argmin; exploration is disabled)."""
    planner = AdaptivePlanner(
        AdaptiveConfig(explore_min_obs=0, tune_thresholds=False)
    )
    for k in KernelChoice:
        planner.cost_model.observe(k, 1e-9 if k is kernel else 1e3)
    return planner


def run_stream(model, graph, planner=None, window=4):
    stream = StreamingInference(model, window_size=window, planner=planner)
    outs = []
    for snap in graph:
        r = stream.push(snap)
        if r is not None:
            outs.extend(r.outputs)
    r = stream.flush()
    if r is not None:
        outs.extend(r.outputs)
    return outs, stream


class TestKernelBitIdentity:
    @given(
        seed=st.integers(min_value=0, max_value=5_000),
        model_name=st.sampled_from(["T-GCN", "CD-GCN", "GC-LSTM"]),
        kernel=st.sampled_from(list(KernelChoice)),
        churn=st.floats(min_value=0.3, max_value=2.5),
    )
    @settings(max_examples=24, deadline=None)
    def test_forced_kernel_matches_static_engine(
        self, seed, model_name, kernel, churn
    ):
        """Any kernel the planner can pick yields the static engine's
        outputs bit-for-bit, for arbitrary random workloads."""
        g = random_graph(seed, churn_scale=churn)
        static = ConcurrentEngine(
            make_model(model_name, g.dim, 8, seed=seed), window_size=4
        ).run(g)
        planner = forced_planner(kernel)
        adaptive = ConcurrentEngine(
            make_model(model_name, g.dim, 8, seed=seed),
            window_size=4,
            planner=planner,
        ).run(g)
        assert all(rec.plan.kernel is kernel for rec in planner.records)
        assert len(planner.records) == static.metrics.windows_processed
        for a, b in zip(static.outputs, adaptive.outputs):
            np.testing.assert_array_equal(a, b)

    @given(
        seed=st.integers(min_value=0, max_value=2_000),
        kernel=st.sampled_from(list(KernelChoice)),
    )
    @settings(max_examples=9, deadline=None)
    def test_forced_kernel_matches_static_streaming(self, seed, kernel):
        g = random_graph(seed)
        static, _ = run_stream(make_model("T-GCN", g.dim, 8, seed=seed), g)
        adaptive, _ = run_stream(
            make_model("T-GCN", g.dim, 8, seed=seed),
            g,
            planner=forced_planner(kernel),
        )
        assert len(static) == len(adaptive) == g.num_snapshots
        for a, b in zip(static, adaptive):
            np.testing.assert_array_equal(a, b)

    def test_untuned_planner_is_bit_identical_end_to_end(self):
        """Free kernel choice with threshold tuning off: the
        planner may reorder *work*, never *results*."""
        g = load_dataset("GT", num_snapshots=10, seed=SEED)
        static, _ = run_stream(make_model("T-GCN", g.dim, 16, seed=SEED), g)
        planner = AdaptivePlanner(AdaptiveConfig(tune_thresholds=False))
        adaptive, stream = run_stream(
            make_model("T-GCN", g.dim, 16, seed=SEED), g, planner=planner
        )
        for a, b in zip(static, adaptive):
            np.testing.assert_array_equal(a, b)
        assert stream.metrics.windows_planned == len(planner.records)


class TestStorageContentIdentity:
    @given(seed=st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=10, deadline=None)
    def test_all_formats_hold_identical_content(self, seed):
        """The paper's three storage formats (Fig. 13(b)) return the
        same canonical edge set."""
        g = random_graph(seed, t=4)
        rng = np.random.default_rng(seed)
        sources = np.unique(
            rng.choice(g.num_vertices, size=20, replace=False)
        )
        sel = WindowSelection(g.window(0, 4), sources)
        edges = {
            name: cls(sel).all_edges() for name, cls in FORMATS.items()
        }
        assert set(edges) == {"CSR", "O-CSR", "PMA"}
        ref = edges["O-CSR"]
        for name, e in edges.items():
            np.testing.assert_array_equal(e, ref)


class TestBoundedDrift:
    def _tuned_vs_default(self, budget, snapshots=16):
        g = load_dataset("GT", num_snapshots=snapshots, seed=SEED)
        default, _ = run_stream(make_model("T-GCN", g.dim, 16, seed=SEED), g)
        planner = AdaptivePlanner(AdaptiveConfig(drift_budget=budget))
        tuned, _ = run_stream(
            make_model("T-GCN", g.dim, 16, seed=SEED), g, planner=planner
        )
        return default, tuned, planner

    def test_probed_drift_never_exceeds_budget_unanswered(self):
        """Every probe's measured drift is either within budget or the
        controller retreated — and on this workload the tuned stream
        stays within budget at every probe."""
        default, tuned, planner = self._tuned_vs_default(budget=0.02)
        assert planner.probes_done >= 2
        assert planner.max_observed_drift <= planner.config.drift_budget
        # thresholds actually moved (the test would be vacuous otherwise)
        assert planner.aggressiveness > 0.0
        # end-to-end divergence stays small (a few multiples of the
        # per-window budget — windows compound through carried state)
        assert relative_drift(default, tuned) <= 10 * 0.02

    def test_zero_budget_is_bit_identical(self):
        default, tuned, planner = self._tuned_vs_default(budget=0.0)
        assert planner.aggressiveness == 0.0
        for a, b in zip(default, tuned):
            np.testing.assert_array_equal(a, b)

    def test_batch_run_probes_like_the_stream(self):
        """``ConcurrentEngine.run`` and a pushed-then-flushed stream share
        one window executor: with a threshold-tuning planner both run the
        same drift probes and produce the same outputs."""
        g = load_dataset("GT", num_snapshots=24, seed=SEED)
        batch_planner = AdaptivePlanner()
        batch = ConcurrentEngine(
            make_model("T-GCN", g.dim, 16, seed=SEED),
            window_size=4,
            planner=batch_planner,
        ).run(g)
        stream_planner = AdaptivePlanner()
        outs, stream = run_stream(
            make_model("T-GCN", g.dim, 16, seed=SEED), g, planner=stream_planner
        )
        assert len(outs) == len(batch.outputs) == g.num_snapshots
        for a, b in zip(outs, batch.outputs):
            np.testing.assert_array_equal(a, b)
        assert batch_planner.probes_done == stream_planner.probes_done >= 2
        assert batch_planner.aggressiveness == stream_planner.aggressiveness
        assert batch.metrics.drift_probes == stream.metrics.drift_probes

    def test_drift_recorded_in_metrics(self):
        g = load_dataset("GT", num_snapshots=12, seed=SEED)
        planner = AdaptivePlanner()
        _, stream = run_stream(
            make_model("T-GCN", g.dim, 16, seed=SEED), g, planner=planner
        )
        assert stream.metrics.drift_probes == planner.probes_done
        assert stream.metrics.windows_planned == len(planner.records)


class TestPlanBookkeeping:
    def test_window_mode_trajectory_matches_totals(self):
        g = load_dataset("GT", num_snapshots=8, seed=SEED)
        planner = AdaptivePlanner(AdaptiveConfig(tune_thresholds=False))
        _, stream = run_stream(
            make_model("T-GCN", g.dim, 16, seed=SEED), g, planner=planner
        )
        m = stream.metrics
        assert len(m.window_modes) == m.windows_processed
        assert sum(f for f, _, _ in m.window_modes) == m.cells_full
        assert sum(d for _, d, _ in m.window_modes) == m.cells_delta
        assert sum(s for _, _, s in m.window_modes) == m.cells_skipped

    def test_engine_result_carries_plans(self):
        g = load_dataset("GT", num_snapshots=8, seed=SEED)
        planner = AdaptivePlanner(AdaptiveConfig(tune_thresholds=False))
        result = ConcurrentEngine(
            make_model("T-GCN", g.dim, 16, seed=SEED),
            window_size=4,
            planner=planner,
        ).run(g)
        plans = result.extra["plans"]
        assert len(plans) == result.metrics.windows_processed
        assert all(p.kernel in KernelChoice for p in plans)
