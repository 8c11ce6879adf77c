"""Engine tests: exactness, savings, skipping behaviour, ablation flags.

The central invariant: ``ConcurrentEngine(enable_skipping=False)`` is
bit-exact against ``ReferenceEngine`` for every model — the multi-snapshot
GNN with changed-set propagation is an *identity*, not an approximation.
"""

import numpy as np
import pytest

from repro.engine import ConcurrentEngine, ReferenceEngine
from repro.graphs import load_dataset
from repro.models import MODEL_ZOO, make_model
from repro.skipping import SkipThresholds


@pytest.fixture(scope="module")
def graph():
    return load_dataset("GT", num_snapshots=8)


@pytest.fixture(scope="module")
def reference_results(graph):
    out = {}
    for name in MODEL_ZOO:
        model = make_model(name, graph.dim, 24, seed=5)
        out[name] = (model, ReferenceEngine(model, window_size=4).run(graph))
    return out


class TestReferenceEngine:
    def test_output_shapes(self, graph, reference_results):
        _, res = reference_results["T-GCN"]
        assert len(res.outputs) == graph.num_snapshots
        assert res.outputs[0].shape == (graph.num_vertices, 24)

    def test_metrics_populated(self, reference_results):
        _, res = reference_results["T-GCN"]
        m = res.metrics
        assert m.total_words > 0
        assert m.total_macs > 0
        assert m.cells_full > 0
        assert m.cells_skipped == 0
        assert m.snapshots_processed == 8

    def test_redundancy_accounted(self, reference_results):
        _, res = reference_results["T-GCN"]
        assert 0 < res.metrics.redundant_words < res.metrics.total_words

    def test_absent_rows_frozen(self, graph):
        """Vertices absent at t keep their previous output row."""
        model = make_model("T-GCN", graph.dim, 24, seed=5)
        res = ReferenceEngine(model).run(graph)
        for t in range(1, graph.num_snapshots):
            absent = ~graph[t].present
            if absent.any():
                np.testing.assert_array_equal(
                    res.outputs[t][absent], res.outputs[t - 1][absent]
                )

    def test_invalid_window_size(self, graph):
        model = make_model("T-GCN", graph.dim, 24)
        with pytest.raises(ValueError):
            ReferenceEngine(model, window_size=0)


class TestConcurrentEngineExactness:
    @pytest.mark.parametrize("name", sorted(MODEL_ZOO))
    def test_bit_exact_without_skipping(self, graph, reference_results, name):
        model, ref = reference_results[name]
        res = ConcurrentEngine(
            model, window_size=4, enable_skipping=False
        ).run(graph)
        for a, b in zip(res.outputs, ref.outputs):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("name", sorted(MODEL_ZOO))
    def test_exact_without_overlap_too(self, graph, reference_results, name):
        """Disabling OADL must not change semantics either."""
        model, ref = reference_results[name]
        res = ConcurrentEngine(
            model, window_size=4, enable_skipping=False, enable_overlap=False
        ).run(graph)
        for a, b in zip(res.outputs, ref.outputs):
            np.testing.assert_allclose(a, b, rtol=1e-5, atol=1e-6)

    def test_window_size_one_exact(self, graph, reference_results):
        model, ref = reference_results["T-GCN"]
        res = ConcurrentEngine(
            model, window_size=1, enable_skipping=False
        ).run(graph)
        for a, b in zip(res.outputs, ref.outputs):
            np.testing.assert_array_equal(a, b)

    def test_non_divisible_window(self, reference_results):
        """T=7 with window 4 -> windows of 4 and 3; still exact."""
        g7 = load_dataset("GT", num_snapshots=7)
        model = make_model("T-GCN", g7.dim, 24, seed=5)
        ref = ReferenceEngine(model, window_size=4).run(g7)
        res = ConcurrentEngine(model, window_size=4, enable_skipping=False).run(g7)
        for a, b in zip(res.outputs, ref.outputs):
            np.testing.assert_array_equal(a, b)


class TestConcurrentEngineSkipping:
    @pytest.mark.parametrize("name", sorted(MODEL_ZOO))
    def test_outputs_close_with_skipping(self, graph, reference_results, name):
        model, ref = reference_results[name]
        res = ConcurrentEngine(model, window_size=4).run(graph)
        # bounded approximation: mean absolute divergence stays small
        # (the ungated Elman cell in GCRN drifts the most of the zoo)
        err = np.mean(
            [np.abs(a - b).mean() for a, b in zip(res.outputs, ref.outputs)]
        )
        assert err < 0.08

    def test_skipping_saves_cell_macs(self, graph, reference_results):
        model, ref = reference_results["T-GCN"]
        res = ConcurrentEngine(model, window_size=4).run(graph)
        assert res.metrics.cells_skipped > 0
        assert res.metrics.cell_macs_saved > 0
        assert res.metrics.cell_macs < ref.metrics.cell_macs

    def test_overlap_saves_traffic_and_macs(self, graph, reference_results):
        model, ref = reference_results["T-GCN"]
        res = ConcurrentEngine(model, window_size=4, enable_skipping=False).run(graph)
        m = res.metrics
        assert m.feature_words < ref.metrics.feature_words
        assert m.aggregation_macs < ref.metrics.aggregation_macs
        assert m.combination_macs < ref.metrics.combination_macs

    def test_decisions_recorded(self, graph):
        model = make_model("T-GCN", graph.dim, 24, seed=5)
        res = ConcurrentEngine(model, window_size=4).run(graph)
        decisions = res.extra["decisions"]
        assert len(decisions) > 0
        modes = np.concatenate([d.modes for d in decisions])
        assert len(np.unique(modes)) >= 2  # policy actually differentiates

    def test_never_skip_thresholds(self, graph, reference_results):
        """theta_s = theta_e = 1 -> no vertex can exceed theta_e, so SKIP
        mode is impossible (vertices at exactly 1.0 take DELTA, which is
        lossless for an unchanged input)."""
        model, ref = reference_results["T-GCN"]
        res = ConcurrentEngine(
            model, window_size=4, thresholds=SkipThresholds(1.0, 1.0)
        ).run(graph)
        d = res.extra["decisions"]
        assert all(dd.counts()["skip"] == 0 for dd in d)
        # only the unaffected force-skip remains: divergence stays small
        err = np.mean(
            [np.abs(a - b).mean() for a, b in zip(res.outputs, ref.outputs)]
        )
        assert err < 0.02

    def test_wider_skip_band_saves_more(self, graph):
        model = make_model("T-GCN", graph.dim, 24, seed=5)
        narrow = ConcurrentEngine(
            model, window_size=4, thresholds=SkipThresholds(0.8, 0.9)
        ).run(graph)
        wide = ConcurrentEngine(
            model, window_size=4, thresholds=SkipThresholds(-0.9, 0.0)
        ).run(graph)
        assert wide.metrics.cells_skipped > narrow.metrics.cells_skipped

    def test_window_accounting(self, graph):
        model = make_model("T-GCN", graph.dim, 24, seed=5)
        res = ConcurrentEngine(model, window_size=4).run(graph)
        assert res.metrics.windows_processed == 2
        assert res.metrics.snapshots_processed == 8
        assert res.metrics.overhead_ops > 0

    def test_invalid_window_size(self, graph):
        model = make_model("T-GCN", graph.dim, 24)
        with pytest.raises(ValueError):
            ConcurrentEngine(model, window_size=0)


class TestPaperCounters:
    """The word/MAC counters the cycle simulator consumes, pinned on one
    seeded GT graph.  CD-GCN at hidden 24 takes a shrinking first layer
    (32 -> 24, combine before aggregate) and two square ones, so both
    changed-set layer paths are counted."""

    @pytest.mark.parametrize(
        "name, hidden, expected",
        [
            ("CD-GCN", 24, (8635824, 11284224, 8824336, 448168)),
            ("GC-LSTM", 16, (3784224, 3518976, 3910272, 349776)),
        ],
    )
    def test_counters_pinned(self, name, hidden, expected):
        g = load_dataset("GT", num_snapshots=8, seed=3)
        m = ConcurrentEngine(
            make_model(name, g.dim, hidden, seed=5), window_size=4
        ).run(g).metrics
        assert (
            m.aggregation_macs,
            m.combination_macs,
            m.feature_words,
            m.structure_words,
        ) == expected
