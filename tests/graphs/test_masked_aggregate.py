"""Property tests: ``CSRSnapshot.aggregate(x, rows=mask)`` against a scatter oracle.

The changed-set GNN layers read ``aggregate(y, rows=mask)[mask]``, so the
masked rows must come out *byte-identical* to the plain ``np.add.at``
scatter over the edges whose source is in ``mask`` (CSR order), plus the
self-loop on ``mask``, times the mean-norm coefficients.  The oracle below
is that scatter, kept here as the reference the kernel answers to.

Every call must also leave the snapshot's arrays untouched: a kernel that
wrote through to ``indptr``/``indices``/``features``/``present`` would
corrupt every later window silently.

The kernel sums neighbour ranks with gather-adds while at least
``_RANK_MIN_ROWS`` rows are left and sends the hub rows' remaining edges
through ``np.add.at``.  The small graphs of the first property only reach
the hub path; ``test_rank_prefix_and_hub_tail_match_oracle`` builds graphs
that take both.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import CSRSnapshot, load_dataset
from repro.graphs.snapshot import _RANK_MIN_ROWS


def scatter_oracle(snap, x, mask, add_self_loops):
    coeff = snap.mean_norm_coeffs(add_self_loops=add_self_loops)
    src = np.repeat(np.arange(snap.num_vertices, dtype=np.int64), snap.degrees)
    sel = mask[src]
    out = np.zeros_like(x)
    np.add.at(out, src[sel], x[snap.indices[sel]])
    if add_self_loops:
        out[mask] += x[mask]
    out *= coeff[:, None]
    return out[mask]


def random_snapshot(rng, n, num_edges, dim, absent_frac):
    present = rng.random(n) >= absent_frac
    edges = rng.integers(0, n, size=(num_edges, 2))
    keep = (edges[:, 0] != edges[:, 1]) & present[edges].all(axis=1)
    feats = rng.standard_normal((n, dim)).astype(np.float32)
    feats[~present] = 0.0
    return CSRSnapshot.from_edges(n, edges[keep], feats, present=present)


def make_mask(rng, n, kind):
    if kind == "empty":
        return np.zeros(n, dtype=bool)
    if kind == "full":
        return np.ones(n, dtype=bool)
    return rng.random(n) < rng.uniform(0.05, 0.95)


@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n=st.integers(min_value=1, max_value=40),
    num_edges=st.sampled_from([0, 1, 15, 120]),
    absent_frac=st.sampled_from([0.0, 0.3]),
    mask_kind=st.sampled_from(["empty", "full", "random"]),
    dtype=st.sampled_from([np.float32, np.float64]),
    add_self_loops=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_masked_rows_match_scatter_oracle(
    seed, n, num_edges, absent_frac, mask_kind, dtype, add_self_loops
):
    rng = np.random.default_rng(seed)
    snap = random_snapshot(rng, n, num_edges, 4, absent_frac)
    x = rng.standard_normal((n, 5)).astype(dtype)
    mask = make_mask(rng, n, mask_kind)
    before = {
        name: getattr(snap, name).copy()
        for name in ("indptr", "indices", "features", "present")
    }
    x_before = x.copy()

    got = snap.aggregate(x, add_self_loops=add_self_loops, rows=mask)[mask]
    want = scatter_oracle(snap, x, mask, add_self_loops)

    assert got.dtype == want.dtype == dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    if mask_kind == "full":
        plain = snap.aggregate(x, add_self_loops=add_self_loops)
        assert plain.tobytes() == got.tobytes()
    for name, arr in before.items():
        after = getattr(snap, name)
        assert after.dtype == arr.dtype and after.tobytes() == arr.tobytes(), name
    assert x.tobytes() == x_before.tobytes()


def assert_matches_oracle_untouched(snap, x, mask, add_self_loops):
    before = {
        name: getattr(snap, name).copy()
        for name in ("indptr", "indices", "features", "present")
    }
    x_before = x.copy()
    rows = None if mask.all() else mask
    got = snap.aggregate(x, add_self_loops=add_self_loops, rows=rows)[mask]
    want = scatter_oracle(snap, x, mask, add_self_loops)
    assert got.dtype == want.dtype == x.dtype
    assert got.tobytes() == want.tobytes()
    for name, arr in before.items():
        after = getattr(snap, name)
        assert after.dtype == arr.dtype and after.tobytes() == arr.tobytes(), name
    assert x.tobytes() == x_before.tobytes()


def hub_snapshot(rng, n, absent_frac, hub_degree, extra_edges):
    """A cycle through the present vertices (every one has degree >= 2),
    one hub joined to ``hub_degree`` of them, and random extra edges."""
    present = rng.random(n) >= absent_frac
    ids = rng.permutation(np.flatnonzero(present))
    hub, rest = ids[0], ids[1:]
    cycle = np.stack([rest, np.roll(rest, 1)], axis=1)
    spokes = np.stack(
        [np.full(hub_degree, hub), rng.choice(rest, hub_degree, replace=False)], axis=1
    )
    extra = rng.choice(rest, size=(extra_edges, 2))
    extra = extra[extra[:, 0] != extra[:, 1]]
    feats = rng.standard_normal((n, 3)).astype(np.float32)
    feats[~present] = 0.0
    snap = CSRSnapshot.from_edges(
        n, np.concatenate([cycle, spokes, extra]), feats, present=present
    )
    return snap, hub, rest


@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n=st.integers(min_value=300, max_value=500),
    absent_frac=st.sampled_from([0.0, 0.2]),
    hub_degree=st.integers(min_value=200, max_value=230),
    extra_edges=st.sampled_from([0, 300, 1500]),
    masked=st.booleans(),
    dtype=st.sampled_from([np.float32, np.float64]),
    strided=st.booleans(),
    add_self_loops=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_rank_prefix_and_hub_tail_match_oracle(
    seed, n, absent_frac, hub_degree, extra_edges, masked, dtype, strided,
    add_self_loops,
):
    rng = np.random.default_rng(seed)
    snap, hub, rest = hub_snapshot(rng, n, absent_frac, hub_degree, extra_edges)
    mask = np.ones(n, dtype=bool)
    if masked:
        mask = rng.random(n) < 0.5
        mask[hub] = True
        mask[rest[:_RANK_MIN_ROWS]] = True
    x = rng.standard_normal((n, 10 if strided else 5)).astype(dtype)
    x[rng.random(x.shape) < 0.1] = -0.0
    if strided:
        x = x[:, ::2]
        assert not x.flags.c_contiguous
    # both regimes run: >= _RANK_MIN_ROWS rows of degree >= 2 give the rank
    # prefix at least two ranks, and the hub outlives it into the tail
    deg = np.sort(snap.degrees[mask])[::-1]
    assert 2 <= deg[_RANK_MIN_ROWS - 1] < snap.degrees[hub]
    assert_matches_oracle_untouched(snap, x, mask, add_self_loops)


@pytest.mark.parametrize("masked", [False, True])
def test_fk_snapshot_matches_oracle(masked):
    snap = load_dataset("FK", scale=0.25, num_snapshots=2, seed=1)[1]
    rng = np.random.default_rng(7)
    n = snap.num_vertices
    x = rng.standard_normal((n, 32)).astype(np.float32)
    x[rng.random(x.shape) < 0.05] = -0.0
    mask = rng.random(n) < 0.3 if masked else np.ones(n, dtype=bool)
    assert_matches_oracle_untouched(snap, x, mask, True)


def test_edgeless_snapshot_is_self_loop_only():
    n = 6
    present = np.array([True, True, False, True, True, False])
    snap = CSRSnapshot.from_edges(
        n, np.zeros((0, 2), dtype=np.int64), present=present, dim=3
    )
    x = np.arange(n * 3, dtype=np.float32).reshape(n, 3)
    mask = np.array([True, False, True, True, False, False])
    got = snap.aggregate(x, rows=mask)[mask]
    want = scatter_oracle(snap, x, mask, True)
    assert got.tobytes() == want.tobytes()
    # present rows with no neighbours keep their own feature; absent
    # rows have coefficient 0
    np.testing.assert_array_equal(got, [x[0], np.zeros(3), x[3]])
