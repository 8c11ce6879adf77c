"""Affected-subgraph extraction via DFS from stable roots.

Paper Section 3.1: stable vertices "serve as roots for a concurrent DFS
traversal" over the union topology of the window; every stable/affected
vertex reached is incorporated into the *affected subgraph*, which is the
unit TaGNN recomputes per snapshot (and stores in O-CSR).  Unaffected
vertices bound the traversal — the DFS never expands through them, which
is why the paper likens stable vertices to cut vertices.

Isolated affected components (e.g. a cluster of newly-arrived vertices
with no stable neighbour) are unreachable from any stable root; they are
added as extra roots afterwards so the subgraph is complete — correctness
requires *every* non-unaffected vertex to be recomputed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..check.shapes import contract
from ..formats.base import WindowSelection
from ..graphs.dynamic import DynamicGraph
from ..graphs.snapshot import PTR_DTYPE, VID_DTYPE
from .classify import VertexClass, WindowClassification, classify_window

__all__ = ["AffectedSubgraph", "extract_affected_subgraph", "union_adjacency"]


@contract("_ -> (m,) i64, (e,) i32")
def union_adjacency(window: DynamicGraph) -> tuple[np.ndarray, np.ndarray]:
    """CSR of the union of every snapshot's edges (deduplicated).

    Each snapshot contributes its keys ``src*n + dst`` in CSR order.  CSR
    rows are sorted, so the keys are sorted runs and the stable sort
    (timsort on int64) only merges them; adjacent duplicates are dropped
    and the CSR is read straight off the merged keys.  The result equals
    ``build_csr`` over the ``np.unique`` of all keys, byte for byte.
    """
    n = window.num_vertices
    row_base = np.arange(n, dtype=np.int64) * n
    keys = [np.repeat(row_base, s.degrees) + s.indices for s in window]
    merged = np.sort(np.concatenate(keys), kind="stable")
    if merged.size:
        keep = np.empty(merged.shape, dtype=bool)
        keep[0] = True
        np.not_equal(merged[1:], merged[:-1], out=keep[1:])
        merged = merged[keep]
    indptr = np.zeros(n + 1, dtype=PTR_DTYPE)
    np.cumsum(np.bincount(merged // n, minlength=n), out=indptr[1:])
    return indptr, (merged % n).astype(VID_DTYPE)


@dataclass
class AffectedSubgraph:
    """The affected subgraph of one window.

    Attributes
    ----------
    vertices:
        Sorted ids of every subgraph member (stable roots + affected).
    roots:
        The stable vertices used as DFS roots.
    dfs_order:
        Vertices in discovery order — the locality-friendly layout order
        the MSDL streams into O-CSR.
    classification:
        The window classification the extraction was based on.
    """

    window: DynamicGraph
    vertices: np.ndarray
    roots: np.ndarray
    dfs_order: np.ndarray
    classification: WindowClassification

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    def selection(self) -> WindowSelection:
        """The :class:`WindowSelection` storing this subgraph (feeds
        O-CSR construction)."""
        return WindowSelection(self.window, self.vertices)

    def coverage_ok(self) -> bool:
        """Every stable/affected vertex must be in the subgraph."""
        need = self.classification.recompute_vertices()
        return np.array_equal(np.intersect1d(need, self.vertices), need)

    def stats(self) -> dict:
        c = self.classification.counts()
        return {
            "subgraph_vertices": self.num_vertices,
            "roots": len(self.roots),
            **c,
            "subgraph_fraction": self.num_vertices / self.window.num_vertices,
        }


def extract_affected_subgraph(
    window: DynamicGraph,
    classification: WindowClassification | None = None,
    *,
    atol: float = 0.0,
) -> AffectedSubgraph:
    """Run the stable-rooted DFS and return the affected subgraph."""
    if classification is None:
        classification = classify_window(window, atol=atol)
    labels = classification.labels
    n = window.num_vertices
    indptr, indices = union_adjacency(window)

    expandable = labels != VertexClass.UNAFFECTED  # stable or affected
    visited = np.zeros(n, dtype=bool)
    dfs_order: list[int] = []

    roots = np.flatnonzero(labels == VertexClass.STABLE)

    def dfs(root: int) -> None:
        stack = [root]
        visited[root] = True
        while stack:
            v = stack.pop()
            dfs_order.append(v)
            row = indices[indptr[v] : indptr[v + 1]]
            # push unvisited stable/affected neighbours (reverse order so
            # traversal visits ascending ids first, matching a hardware
            # TFSM scanning the row left to right)
            for u in row[::-1].tolist():
                if expandable[u] and not visited[u]:
                    visited[u] = True
                    stack.append(u)

    for r in roots.tolist():
        if not visited[r]:
            dfs(r)
    # isolated affected components: add them as their own roots
    for v in np.flatnonzero(expandable & ~visited).tolist():
        dfs(v)

    order = np.asarray(dfs_order, dtype=np.int64)
    return AffectedSubgraph(
        window=window,
        vertices=np.sort(order) if order.size else order,
        roots=roots,
        dfs_order=order,
        classification=classification,
    )
