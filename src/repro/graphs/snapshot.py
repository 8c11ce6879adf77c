"""CSR graph snapshots — the basic unit of a dynamic graph.

A :class:`CSRSnapshot` is one timestamped observation of an evolving graph,
stored in Compressed Sparse Row form over a *global* vertex-id space shared
by every snapshot of the same dynamic graph.  Vertices that are absent from
a snapshot keep their id (so ids are stable across time) but are flagged off
in the ``present`` mask and have empty adjacency rows.

The paper stores each snapshot in CSR (Section 2.1) and drives both the GNN
aggregation and the vertex-classification pipelines off this layout, so all
hot paths here are vectorised NumPy on the raw ``indptr``/``indices`` arrays
(per the HPC guide: no per-vertex Python loops, contiguous reads, views not
copies).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from ..check.shapes import contract

__all__ = [
    "CSRSnapshot",
    "FEAT_DTYPE",
    "PTR_DTYPE",
    "VID_DTYPE",
    "build_csr",
    "degrees_from_indptr",
]

# dtype conventions used across the whole package
VID_DTYPE = np.int32  # vertex ids
PTR_DTYPE = np.int64  # CSR row pointers
FEAT_DTYPE = np.float32  # vertex features

# ``CSRSnapshot.aggregate`` sums neighbour rank k with one gather-add while at
# least this many rows have degree > k; the hub rows' remaining edges go
# through one ``np.add.at``.  Any value gives the same bytes, only the speed
# changes.
_RANK_MIN_ROWS = 64


# src/dst carry independent symbols (and any dtype) on purpose: the body
# owns the equal-length ValueError and the asarray coercion, and the
# empty-graph idiom passes float64 ``np.array([])``.  dedup can shrink
# indices below the input edge count, hence the free return dim.
@contract("n, (e,) ?, (m,) ? -> (n+1,) i64, (*,) i32")
def build_csr(
    num_vertices: int,
    src: np.ndarray,
    dst: np.ndarray,
    *,
    dedup: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Build sorted CSR (``indptr``, ``indices``) from an edge list.

    Edges are directed ``src -> dst``; callers wanting an undirected graph
    pass both orientations.  Neighbour lists come out sorted ascending,
    which the rest of the package relies on for O(deg) set algebra
    (`np.intersect1d` on sorted rows, vectorised row comparisons).

    Parameters
    ----------
    num_vertices:
        Size of the global vertex-id space.
    src, dst:
        Equal-length integer arrays of endpoints; ids must lie in
        ``[0, num_vertices)``.
    dedup:
        Drop duplicate ``(src, dst)`` pairs (the default; snapshots are
        simple graphs in the paper's datasets).

    Returns
    -------
    (indptr, indices):
        ``indptr`` has length ``num_vertices + 1`` and dtype int64;
        ``indices`` holds sorted neighbour ids with dtype int32.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.shape != dst.shape:
        raise ValueError(f"src/dst length mismatch: {src.shape} vs {dst.shape}")
    if src.size:
        lo = min(src.min(), dst.min())
        hi = max(src.max(), dst.max())
        if lo < 0 or hi >= num_vertices:
            raise ValueError(
                f"edge endpoint out of range [0, {num_vertices}): min={lo} max={hi}"
            )
    # Sort by (src, dst) via a single composite key — one O(m log m) pass.
    key = src * np.int64(num_vertices) + dst
    order = np.argsort(key, kind="stable")
    key = key[order]
    if dedup and key.size:
        keep = np.empty(key.shape, dtype=bool)
        keep[0] = True
        np.not_equal(key[1:], key[:-1], out=keep[1:])
        key = key[keep]
    counts = np.bincount(key // num_vertices, minlength=num_vertices) if key.size else (
        np.zeros(num_vertices, dtype=np.int64)
    )
    indptr = np.zeros(num_vertices + 1, dtype=PTR_DTYPE)
    np.cumsum(counts, out=indptr[1:])
    indices = (key % num_vertices).astype(VID_DTYPE)
    return indptr, indices


@contract("(n+1,) i -> (n,) i")
def degrees_from_indptr(indptr: np.ndarray) -> np.ndarray:
    """Out-degrees as a view-friendly diff of the row-pointer array."""
    return np.diff(indptr)


@dataclass
class CSRSnapshot:
    """One graph snapshot :math:`G_t = (V_t, E_t, X_t)` in CSR form.

    Attributes
    ----------
    indptr, indices:
        Sorted CSR adjacency over the global id space (directed edges;
        undirected graphs store both orientations).
    features:
        ``(num_vertices, dim)`` float32 feature matrix :math:`X_t`.  Rows of
        absent vertices are zero and ignored.
    present:
        Boolean mask of vertices that exist at this timestamp.
    timestamp:
        Integer snapshot index within the parent dynamic graph.
    """

    indptr: np.ndarray
    indices: np.ndarray
    features: np.ndarray
    present: np.ndarray
    timestamp: int = 0
    _degrees: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.num_vertices
        if self.features.shape[0] != n:
            raise ValueError(
                f"features rows {self.features.shape[0]} != num_vertices {n}"
            )
        if self.present.shape[0] != n:
            raise ValueError(f"present mask length {self.present.shape[0]} != {n}")
        if self.indptr[0] != 0 or self.indptr[-1] != len(self.indices):
            raise ValueError("malformed indptr")

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Size of the global id space (present and absent vertices)."""
        return len(self.indptr) - 1

    @property
    def num_present(self) -> int:
        """Number of vertices that exist at this timestamp."""
        return int(self.present.sum())

    @property
    def num_edges(self) -> int:
        """Number of directed edges stored."""
        return len(self.indices)

    @property
    def dim(self) -> int:
        """Feature dimensionality."""
        return self.features.shape[1]

    @property
    def degrees(self) -> np.ndarray:
        """Per-vertex out-degree (cached)."""
        if self._degrees is None:
            self._degrees = degrees_from_indptr(self.indptr)
        return self._degrees

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbour ids of ``v`` — a zero-copy view into ``indices``."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """Membership test via binary search on the sorted row of ``u``."""
        row = self.neighbors(u)
        i = np.searchsorted(row, v)
        return bool(i < len(row) and row[i] == v)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        num_vertices: int,
        edges: np.ndarray | Iterable[tuple[int, int]],
        features: np.ndarray | None = None,
        *,
        present: np.ndarray | None = None,
        timestamp: int = 0,
        undirected: bool = True,
        dim: int = 1,
    ) -> "CSRSnapshot":
        """Build a snapshot from an ``(m, 2)`` edge array.

        When ``undirected`` (the default, matching the paper's datasets)
        each edge is stored in both directions.
        """
        edges = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
        if edges.size == 0:
            edges = edges.reshape(0, 2)
        src, dst = edges[:, 0], edges[:, 1]
        if undirected:
            src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        indptr, indices = build_csr(num_vertices, src, dst)
        if features is None:
            features = np.zeros((num_vertices, dim), dtype=FEAT_DTYPE)
        else:
            features = np.ascontiguousarray(features, dtype=FEAT_DTYPE)
        if present is None:
            present = np.ones(num_vertices, dtype=bool)
        return cls(indptr, indices, features, present, timestamp)

    def copy(self) -> "CSRSnapshot":
        """Deep copy (fresh arrays) — checkpoint/restore builds on this."""
        return CSRSnapshot(
            indptr=self.indptr.copy(),
            indices=self.indices.copy(),
            features=self.features.copy(),
            present=self.present.copy(),
            timestamp=self.timestamp,
        )

    # ------------------------------------------------------------------
    # GNN support
    # ------------------------------------------------------------------
    def mean_norm_coeffs(self, *, add_self_loops: bool = True) -> np.ndarray:
        r"""Per-vertex :math:`1/\hat d_v` coefficients of mean (random-walk)
        GCN normalisation, with :math:`\hat d_v = d_v + 1` when self-loops
        are added.  Absent vertices get coefficient 0.
        """
        d = self.degrees.astype(np.float64) + (1.0 if add_self_loops else 0.0)
        coeff = np.zeros_like(d)
        np.divide(1.0, d, out=coeff, where=d > 0)
        coeff[~self.present] = 0.0
        return coeff

    def aggregate(
        self,
        x: np.ndarray,
        *,
        add_self_loops: bool = True,
        rows: np.ndarray | None = None,
    ) -> np.ndarray:
        r"""Mean-normalised neighbourhood aggregation
        :math:`\hat D^{-1}(A + I)\, x`.

        This is the GNN module's "aggregation" operation (paper Fig. 1(b)).
        As on the accelerator's APE adder trees, each row receives its
        neighbours' features in CSR order, summed from zero.  The sum runs
        *rank-major*: rows with edges are ordered by degree (descending,
        stable), and rank ``k`` adds every such row's ``k``-th neighbour
        with one gather-add over the prefix of rows whose degree exceeds
        ``k``.  Once fewer than ``_RANK_MIN_ROWS`` rows remain, the hub
        rows' remaining edges go through one flattened ``np.add.at``, still
        in CSR order.  Each output element therefore sees exactly the
        additions, in exactly the order, of a per-edge ``np.add.at``
        scatter, so the result is byte-identical to it
        (``tests/graphs/test_masked_aggregate.py`` keeps that scatter as
        the oracle).

        ``rows`` (a boolean vertex mask) restricts the work to those rows:
        only their edges are summed, in CSR order, and only they get the
        self-loop; the other rows of the result are meaningless.  The
        changed-set GNN layers read ``aggregate(y, rows=mask)[mask]``.

        Mean (random-walk) normalisation — rather than Kipf–Welling's
        symmetric :math:`\hat D^{-1/2}(A+I)\hat D^{-1/2}` — is load-bearing
        for the whole reproduction: only under mean normalisation is the
        paper's claim true that an *unaffected* vertex (same neighbours,
        features, and neighbours' features) has an identical GNN output in
        every snapshot.  Under symmetric normalisation a neighbour's
        *degree* change elsewhere would alter its coefficient and leak into
        the vertex's output, so "compute unaffected vertices once per
        layer" would be an approximation instead of an identity.
        """
        coeff = self.mean_norm_coeffs(add_self_loops=add_self_loops)
        # C order whatever x's layout, so out.reshape(-1) below is a view
        out = np.zeros(x.shape, dtype=x.dtype)
        deg = self.degrees if rows is None else np.where(rows, self.degrees, 0)
        busy = np.flatnonzero(deg)
        if busy.size:
            order = busy[np.argsort(-deg[busy], kind="stable")]
            d = deg[order]
            starts = self.indptr[order]
            # ranks 0..k_max-1 each cover >= _RANK_MIN_ROWS rows
            k_max = int(d[_RANK_MIN_ROWS - 1]) if d.size >= _RANK_MIN_ROWS else 0
            acc = np.zeros((d.size, x.shape[1]), dtype=x.dtype)
            widths = np.searchsorted(-d, -np.arange(k_max), side="left")
            for k, n_k in enumerate(widths):
                acc[:n_k] += x[self.indices[starts[:n_k] + k]]
            out[order] = acc
            # hub tail: edges k_max.. of the rows with degree > k_max
            n_hub = int(np.searchsorted(-d, -k_max, side="left"))
            lens = d[:n_hub] - k_max
            if lens.size:
                skip = starts[:n_hub] + k_max - (np.cumsum(lens) - lens)
                edge = np.repeat(skip, lens) + np.arange(lens.sum())
                row = np.repeat(order[:n_hub], lens)
                flat = (row * x.shape[1])[:, None] + np.arange(x.shape[1])
                np.add.at(
                    out.reshape(-1), flat.reshape(-1), x[self.indices[edge]].reshape(-1)
                )
        if add_self_loops:
            if rows is None:
                out += x
            else:
                out[rows] += x[rows]
        out *= coeff[:, None]
        return out.astype(x.dtype, copy=False)

    # ------------------------------------------------------------------
    # structural comparisons (used by vertex classification)
    # ------------------------------------------------------------------
    def row_fingerprints(self) -> np.ndarray:
        """64-bit order-independent hash of each neighbour list.

        Two vertices with equal fingerprints across snapshots *almost
        certainly* kept the same neighbour set; the classifier uses this as
        a fast pre-filter before exact row comparison.
        """
        # Mix each neighbour id with a splitmix64-style finaliser, then sum
        # per row (sum is order-independent; rows are sorted anyway).
        x = self.indices.astype(np.uint64)
        x = (x + np.uint64(0x9E3779B97F4A7C15)) * np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
        out = np.zeros(self.num_vertices, dtype=np.uint64)
        if x.size:
            src = np.repeat(
                np.arange(self.num_vertices, dtype=np.int64), self.degrees
            )
            np.add.at(out, src, x)
        # Fold the degree in so "empty row" differs from "absent vertex".
        out += self.degrees.astype(np.uint64) * np.uint64(0xDA942042E4DD58B5)
        return out

    def same_row(self, other: "CSRSnapshot", v: int) -> bool:
        """Exact neighbour-list equality for one vertex across snapshots."""
        a = self.neighbors(v)
        b = other.neighbors(v)
        return len(a) == len(b) and bool(np.array_equal(a, b))

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def edge_array(self) -> np.ndarray:
        """Return the ``(m, 2)`` directed edge list (src, dst)."""
        src = np.repeat(np.arange(self.num_vertices, dtype=VID_DTYPE), self.degrees)
        return np.stack([src, self.indices], axis=1)

    def to_networkx(self):
        """Export present vertices/edges to a ``networkx.DiGraph`` (tests only)."""
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(np.flatnonzero(self.present).tolist())
        g.add_edges_from(map(tuple, self.edge_array().tolist()))
        return g

    def memory_bytes(self) -> int:
        """Footprint of the snapshot's arrays (structure + features)."""
        return (
            self.indptr.nbytes
            + self.indices.nbytes
            + self.features.nbytes
            + self.present.nbytes
        )
