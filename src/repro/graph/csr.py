"""Frozen CSR (compressed sparse row) graph representation.

:class:`Graph` is the *build layer*: a mutable dict-of-sets structure
that generators grow edge by edge.  :class:`CSRGraph` is the *compute
layer*: an immutable, compact array representation produced by
:meth:`Graph.freeze` (or :func:`csr_from_graph`) that the vectorized
kernels in :mod:`repro.graph.kernels` operate on.  See
``docs/ARCHITECTURE.md`` for the split and when to freeze.

Layout
------
``indptr`` (int32, length n+1) and ``indices`` (int32, length 2m) hold
the adjacency structure: the neighbors of the node with index ``i`` are
``indices[indptr[i]:indptr[i+1]]``, sorted ascending.  Node identifiers
(any hashable) map to indices in graph insertion order, so a graph and
its frozen form agree on ``nodes()``.

The representation is **canonical**: two ``Graph`` instances with the
same node order and the same edge set freeze to bit-identical arrays,
regardless of the insertion history of their adjacency sets.  Thawing
(:meth:`CSRGraph.thaw`) rebuilds a ``Graph`` whose adjacency sets are
constructed in ascending-index order — the canonical form every
CSR-era compute path is defined against.

Both arrays are marked read-only; mutation must go through
``thaw() -> edit -> freeze()``.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.core import Graph

Node = Hashable
Edge = Tuple[Node, Node]

#: Bumped when the frozen layout changes incompatibly; recorded in cache
#: keys (see :mod:`repro.engine.cache`) so results computed against one
#: layout never collide with another.
CSR_LAYOUT_VERSION = 1

#: Rows converted to Python lists at a time by :meth:`CSRGraph.iter_edges`,
#: so streaming a huge graph's edges never holds all of them as objects.
_EDGE_BLOCK_ROWS = 1 << 14


class CSRGraph:
    """An immutable, array-backed undirected simple graph.

    Supports the read-only subset of the :class:`Graph` API (``nodes``,
    ``neighbors``, ``degree``, ``iter_edges`` ...) so graph-generic code
    can take either representation, plus index-level accessors
    (:meth:`index_of`, :meth:`node_at`) for the kernels.

    Examples
    --------
    >>> g = Graph([(0, 1), (1, 2)])
    >>> frozen = g.freeze()
    >>> frozen.number_of_nodes(), frozen.number_of_edges()
    (3, 2)
    >>> list(frozen.indices)
    [1, 0, 2, 1]
    >>> frozen.thaw().edges() == g.edges()
    True
    """

    __slots__ = (
        "indptr", "indices", "name", "_nodes", "_index", "_fingerprint", "_indptr64"
    )

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        nodes: Sequence[Node],
        name: str = "",
    ):
        if len(indptr) != len(nodes) + 1:
            raise ValueError(
                f"indptr has {len(indptr)} entries for {len(nodes)} nodes"
            )
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int32)
        self.indices = np.ascontiguousarray(indices, dtype=np.int32)
        self.indptr.flags.writeable = False
        self.indices.flags.writeable = False
        self.name = name
        # ``range`` labels (the streaming GraphBuilder's full-graph case)
        # are kept as a range: million-node graphs then cost O(1) label
        # storage instead of a million boxed ints.
        self._nodes = nodes if isinstance(nodes, range) else list(nodes)
        # node -> index dict, built on first non-integer-range lookup.
        self._index: Optional[Dict[Node, int]] = None
        # Memos (repro.engine.cache.graph_fingerprint, indptr64): safe
        # because the arrays and labels never change.  Not pickled.
        self._fingerprint: Optional[str] = None
        self._indptr64: Optional[np.ndarray] = None

    @property
    def indptr64(self) -> np.ndarray:
        """``indptr`` as read-only int64, the kernels' row-offset type."""
        if self._indptr64 is None:
            self._indptr64 = self.indptr.astype(np.int64)
            self._indptr64.flags.writeable = False
        return self._indptr64

    # ------------------------------------------------------------------
    # Node lookup (lazy index; O(1) arithmetic for range labels)
    # ------------------------------------------------------------------
    def _node_index(self) -> Dict[Node, int]:
        index = self._index
        if index is None:
            index = {node: i for i, node in enumerate(self._nodes)}
            self._index = index
        return index

    def _lookup(self, node: Node) -> Optional[int]:
        """Index of ``node``, or None if absent."""
        nodes = self._nodes
        if isinstance(nodes, range):
            # bool is an int subtype; dict lookup would equate True == 1,
            # so the arithmetic fast path must too.
            if not isinstance(node, (int, np.integer)):
                return None
            offset = int(node) - nodes.start
            if nodes.step != 1:
                if offset % nodes.step:
                    return None
                offset //= nodes.step
            return offset if 0 <= offset < len(nodes) else None
        return self._node_index().get(node)

    # ------------------------------------------------------------------
    # Graph-compatible read API
    # ------------------------------------------------------------------
    def __contains__(self, node: Node) -> bool:
        return self._lookup(node) is not None

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes)

    def number_of_nodes(self) -> int:
        return len(self._nodes)

    def number_of_edges(self) -> int:
        return len(self.indices) // 2

    def nodes(self) -> List[Node]:
        """All nodes, in the source graph's insertion order."""
        return list(self._nodes)

    def has_edge(self, u: Node, v: Node) -> bool:
        iu, iv = self._lookup(u), self._lookup(v)
        if iu is None or iv is None:
            return False
        row = self.indices[self.indptr[iu] : self.indptr[iu + 1]]
        pos = int(np.searchsorted(row, iv))
        return pos < len(row) and row[pos] == iv

    def neighbors(self, node: Node) -> List[Node]:
        """Neighbor nodes, ordered by ascending node index."""
        i = self.index_of(node)
        return [
            self._nodes[j]
            for j in self.indices[self.indptr[i] : self.indptr[i + 1]]
        ]

    def degree(self, node: Node) -> int:
        i = self.index_of(node)
        return int(self.indptr[i + 1] - self.indptr[i])

    def degrees(self) -> Dict[Node, int]:
        counts = np.diff(self.indptr)
        return {node: int(counts[i]) for i, node in enumerate(self._nodes)}

    def degree_sequence(self) -> List[int]:
        """Degrees of all nodes, descending."""
        counts = np.diff(self.indptr)
        return sorted((int(c) for c in counts), reverse=True)

    def average_degree(self) -> float:
        n = len(self._nodes)
        if n == 0:
            return 0.0
        return len(self.indices) / n

    def max_degree(self) -> int:
        if len(self._nodes) == 0:
            return 0
        return int(np.diff(self.indptr).max())

    def iter_edges(self) -> Iterator[Edge]:
        """Iterate edges once each, endpoints in ascending index order."""
        nodes = self._nodes
        for start in range(0, len(nodes), _EDGE_BLOCK_ROWS):
            bounds = self.indptr[start : start + _EDGE_BLOCK_ROWS + 1].tolist()
            base = bounds[0]
            block = self.indices[base : bounds[-1]].tolist()
            for i, (lo, hi) in enumerate(zip(bounds, bounds[1:]), start):
                lo, hi = lo - base, hi - base
                # Rows are sorted, so the neighbors above i are a suffix.
                u = nodes[i]
                for j in block[bisect_right(block, i, lo, hi) : hi]:
                    yield (u, nodes[j])

    def edges(self) -> List[Edge]:
        return list(self.iter_edges())

    # ------------------------------------------------------------------
    # Index-level accessors (the kernels' interface)
    # ------------------------------------------------------------------
    def index_of(self, node: Node) -> int:
        """The array index of ``node``; ``KeyError`` if absent."""
        i = self._lookup(node)
        if i is None:
            raise KeyError(node)
        return i

    def node_at(self, index: int) -> Node:
        """The node object at array ``index``."""
        return self._nodes[index]

    def node_list(self) -> List[Node]:
        """The internal index -> node list itself.  Do not mutate."""
        return self._nodes

    def neighbor_indices(self, index: int) -> np.ndarray:
        """The (read-only) neighbor-index slice of node ``index``."""
        return self.indices[self.indptr[index] : self.indptr[index + 1]]

    # ------------------------------------------------------------------
    # Conversion
    # ------------------------------------------------------------------
    def thaw(self) -> Graph:
        """Rebuild a mutable :class:`Graph` — the canonical thawed form.

        Nodes are inserted in index order and each adjacency set is
        populated in ascending-index order, so two equal CSR graphs thaw
        to graphs with identical internal iteration behaviour.  Round
        trip: ``graph.freeze().thaw()`` equals ``graph`` (same nodes,
        same edges).
        """
        g = Graph(name=self.name)
        nodes, indptr, indices = self._nodes, self.indptr, self.indices
        adj = {}
        for i, node in enumerate(nodes):
            adj[node] = {nodes[int(j)] for j in indices[indptr[i] : indptr[i + 1]]}
        g._adj = adj
        g._num_edges = len(indices) // 2
        return g

    def freeze(self) -> "CSRGraph":
        """Already frozen; returns ``self`` (mirrors ``Graph.freeze``)."""
        return self

    # ------------------------------------------------------------------
    # Pickling (worker processes receive CSR arrays, not dict-of-sets)
    # ------------------------------------------------------------------
    def __getstate__(self):
        return {
            "indptr": np.asarray(self.indptr),
            "indices": np.asarray(self.indices),
            "nodes": self._nodes,
            "name": self.name,
        }

    def __setstate__(self, state):
        self.__init__(
            state["indptr"], state["indices"], state["nodes"], state["name"]
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<CSRGraph{label} with {self.number_of_nodes()} nodes, "
            f"{self.number_of_edges()} edges>"
        )


def csr_from_graph(graph: Graph) -> CSRGraph:
    """Freeze a :class:`Graph` into its canonical :class:`CSRGraph`.

    Node indices follow the graph's insertion order; each CSR row is
    sorted ascending, so the arrays depend only on (node order, edge
    set), never on adjacency-set iteration order.
    """
    if isinstance(graph, CSRGraph):
        return graph
    nodes = graph.nodes()
    index = {node: i for i, node in enumerate(nodes)}
    n = len(nodes)
    indptr = np.zeros(n + 1, dtype=np.int64)
    for i, node in enumerate(nodes):
        indptr[i + 1] = indptr[i] + graph.degree(node)
    indices = np.empty(int(indptr[-1]), dtype=np.int32)
    for i, node in enumerate(nodes):
        row = sorted(index[v] for v in graph.neighbors(node))
        indices[int(indptr[i]) : int(indptr[i + 1])] = row
    return CSRGraph(indptr.astype(np.int32), indices, nodes, name=graph.name)
