"""Tests for affected-subgraph extraction and the similarity score."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    VertexClass,
    classify_window,
    cosine_rows,
    extract_affected_subgraph,
    neighbor_stability_weights,
    similarity_scores,
    union_adjacency,
)
from repro.graphs import (
    CSRSnapshot,
    DynamicGraph,
    DynamicGraphSpec,
    build_csr,
    generate_dynamic_graph,
    load_dataset,
)


def union_oracle(window):
    """The per-key ``np.unique`` + ``build_csr`` union the kernel answers to."""
    n = window.num_vertices
    keys = []
    for s in window:
        src = np.repeat(np.arange(n, dtype=np.int64), s.degrees)
        keys.append(src * n + s.indices.astype(np.int64))
    merged = np.unique(np.concatenate(keys))
    return build_csr(n, merged // n, merged % n)


@pytest.fixture(scope="module")
def window():
    return load_dataset("GT", num_snapshots=6).window(0, 4)


class TestUnionAdjacency:
    def test_union_contains_every_snapshot(self, window):
        indptr, indices = union_adjacency(window)
        for s in window:
            for v in range(0, window.num_vertices, 97):
                row = s.neighbors(v)
                urow = indices[indptr[v] : indptr[v + 1]]
                assert np.isin(row, urow).all()

    def test_union_deduplicates(self, window):
        indptr, indices = union_adjacency(window)
        for v in range(0, window.num_vertices, 131):
            row = indices[indptr[v] : indptr[v + 1]]
            assert len(np.unique(row)) == len(row)

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n=st.integers(min_value=1, max_value=60),
        num_snapshots=st.integers(min_value=1, max_value=4),
        pool_size=st.sampled_from([0, 5, 80]),
        absent_frac=st.sampled_from([0.0, 0.3]),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_unique_oracle(self, seed, n, num_snapshots, pool_size, absent_frac):
        # snapshots draw from one shared edge pool (edges repeat across
        # snapshots) plus fresh edges; one of them is edgeless
        rng = np.random.default_rng(seed)
        pool = rng.integers(0, n, size=(pool_size, 2))
        edgeless = rng.integers(0, num_snapshots)
        snaps = []
        for t in range(num_snapshots):
            present = rng.random(n) >= absent_frac
            edges = np.concatenate([
                pool[rng.random(pool_size) < 0.6],
                rng.integers(0, n, size=(rng.integers(0, 20), 2)),
            ])
            keep = (edges[:, 0] != edges[:, 1]) & present[edges].all(axis=1)
            if t == edgeless:
                keep[:] = False
            snaps.append(
                CSRSnapshot.from_edges(n, edges[keep], present=present, timestamp=t)
            )
        window = DynamicGraph(snaps)
        got = union_adjacency(window)
        want = union_oracle(window)
        for g, w, dtype in zip(got, want, (np.int64, np.int32)):
            assert g.dtype == w.dtype == dtype
            assert g.tobytes() == w.tobytes()

    def test_loaded_window_matches_unique_oracle(self, window):
        got = union_adjacency(window)
        want = union_oracle(window)
        assert all(g.dtype == w.dtype and g.tobytes() == w.tobytes()
                   for g, w in zip(got, want))


class TestAffectedSubgraph:
    def test_coverage(self, window):
        sg = extract_affected_subgraph(window)
        assert sg.coverage_ok()

    def test_no_unaffected_inside(self, window):
        sg = extract_affected_subgraph(window)
        labels = sg.classification.labels
        assert np.all(labels[sg.vertices] != VertexClass.UNAFFECTED)

    def test_dfs_order_is_permutation_of_vertices(self, window):
        sg = extract_affected_subgraph(window)
        assert np.array_equal(np.sort(sg.dfs_order), sg.vertices)

    def test_roots_are_stable(self, window):
        sg = extract_affected_subgraph(window)
        labels = sg.classification.labels
        assert np.all(labels[sg.roots] == VertexClass.STABLE)

    def test_selection_matches_vertices(self, window):
        sg = extract_affected_subgraph(window)
        sel = sg.selection()
        assert np.array_equal(sel.sources, sg.vertices)

    def test_stats_fraction(self, window):
        sg = extract_affected_subgraph(window)
        st_ = sg.stats()
        assert 0 < st_["subgraph_fraction"] < 1
        assert st_["subgraph_vertices"] == sg.num_vertices

    def test_precomputed_classification_reused(self, window):
        c = classify_window(window)
        sg = extract_affected_subgraph(window, c)
        assert sg.classification is c

    def test_identical_window_empty_subgraph(self):
        n = 5
        f = np.ones((n, 2), dtype=np.float32)
        s0 = CSRSnapshot.from_edges(n, np.array([[0, 1]]), f)
        s1 = CSRSnapshot.from_edges(n, np.array([[0, 1]]), f.copy())
        sg = extract_affected_subgraph(DynamicGraph([s0, s1]))
        assert sg.num_vertices == 0

    @given(seed=st.integers(min_value=0, max_value=3000))
    @settings(max_examples=10, deadline=None)
    def test_coverage_property(self, seed):
        g = generate_dynamic_graph(
            DynamicGraphSpec(
                name="prop", num_vertices=100, num_edges=300, dim=3,
                num_snapshots=3, seed=seed,
            )
        )
        sg = extract_affected_subgraph(g)
        assert sg.coverage_ok()
        labels = sg.classification.labels
        assert np.all(labels[sg.vertices] != VertexClass.UNAFFECTED)


class TestCosineRows:
    def test_identical_rows_score_one(self):
        a = np.random.default_rng(0).standard_normal((5, 4))
        np.testing.assert_allclose(cosine_rows(a, a), 1.0, atol=1e-12)

    def test_opposite_rows_score_minus_one(self):
        a = np.random.default_rng(0).standard_normal((5, 4))
        np.testing.assert_allclose(cosine_rows(a, -a), -1.0, atol=1e-12)

    def test_orthogonal_rows_score_zero(self):
        a = np.array([[1.0, 0.0]])
        b = np.array([[0.0, 1.0]])
        np.testing.assert_allclose(cosine_rows(a, b), 0.0, atol=1e-12)

    def test_zero_norm_scores_zero(self):
        a = np.zeros((2, 3))
        b = np.ones((2, 3))
        np.testing.assert_array_equal(cosine_rows(a, b), [0.0, 0.0])

    def test_range_clipped(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((100, 8))
        b = rng.standard_normal((100, 8))
        c = cosine_rows(a, b)
        assert np.all((c >= -1.0) & (c <= 1.0))


class TestNeighborStability:
    def _pair(self):
        n = 6
        f = np.zeros((n, 2), dtype=np.float32)
        s0 = CSRSnapshot.from_edges(n, np.array([[0, 1], [0, 2], [0, 3]]), f)
        s1 = CSRSnapshot.from_edges(n, np.array([[0, 1], [0, 2], [0, 4]]), f.copy())
        return s0, s1

    def test_partial_overlap_with_all_stable(self):
        s0, s1 = self._pair()
        stable = np.ones(6, dtype=bool)
        w = neighbor_stability_weights(s0, s1, np.array([0]), stable)
        # common = {1, 2}, both stable -> weight 1
        assert w[0] == 1.0

    def test_unstable_common_neighbors_reduce_weight(self):
        s0, s1 = self._pair()
        stable = np.ones(6, dtype=bool)
        stable[1] = False
        w = neighbor_stability_weights(s0, s1, np.array([0]), stable)
        assert w[0] == 0.5  # one of two common neighbours stable

    def test_isolated_both_sides_weight_one(self):
        s0, s1 = self._pair()
        w = neighbor_stability_weights(s0, s1, np.array([5]), np.ones(6, bool))
        assert w[0] == 1.0

    def test_disjoint_neighborhoods_weight_zero(self):
        n = 4
        f = np.zeros((n, 1), dtype=np.float32)
        s0 = CSRSnapshot.from_edges(n, np.array([[0, 1]]), f)
        s1 = CSRSnapshot.from_edges(n, np.array([[0, 2]]), f.copy())
        w = neighbor_stability_weights(s0, s1, np.array([0]), np.ones(n, bool))
        assert w[0] == 0.0


class TestSimilarityScores:
    def test_identical_everything_scores_one(self, window):
        """Unaffected vertices (all common neighbours stable) with
        identical GNN outputs on an identical snapshot score exactly 1."""
        rng = np.random.default_rng(0)
        z = rng.standard_normal((window.num_vertices, 8))
        c = classify_window(window.window(0, 2))
        verts = np.flatnonzero(c.unaffected_mask & window[0].present)[:50]
        theta = similarity_scores(
            z, z, window[0], window[0], verts, c.feature_stable_mask
        )
        np.testing.assert_allclose(theta, 1.0, atol=1e-9)

    def test_range(self, window):
        rng = np.random.default_rng(0)
        z0 = rng.standard_normal((window.num_vertices, 8))
        z1 = rng.standard_normal((window.num_vertices, 8))
        stable = classify_window(window.window(0, 2)).feature_stable_mask
        verts = np.arange(0, window.num_vertices, 7)
        theta = similarity_scores(z0, z1, window[0], window[1], verts, stable)
        assert np.all((theta >= -1.0) & (theta <= 1.0))

    def test_feature_divergence_lowers_score(self, window):
        rng = np.random.default_rng(0)
        z0 = rng.standard_normal((window.num_vertices, 8))
        z1 = z0 + 0.05 * rng.standard_normal(z0.shape)
        z1_far = -z0
        stable = classify_window(window.window(0, 2)).feature_stable_mask
        verts = np.arange(0, window.num_vertices, 13)
        near = similarity_scores(z0, z1, window[0], window[1], verts, stable)
        far = similarity_scores(z0, z1_far, window[0], window[1], verts, stable)
        assert near.mean() > far.mean()
