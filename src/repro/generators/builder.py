"""Streaming edge sinks: one generator API from toy graphs to
million-node topologies.

Every generator in :mod:`repro.generators` takes an optional ``sink``
argument.  With ``sink=None`` the generator materializes the familiar
mutable dict-of-sets :class:`~repro.graph.core.Graph` exactly as before.
With a sink, the *same* emission core streams ``(u, v)`` edges into the
sink instead, and the generator returns whatever ``sink.finalize()``
produces — for :class:`GraphBuilder`, a frozen
:class:`~repro.graph.csr.CSRGraph` built straight from growing int32
buffers, without the dict form ever existing.

Both paths share one emission core per generator and therefore consume
the RNG identically, so for a given seed the dict build and the streamed
build have the *same edge set* (the ``streaming`` selfcheck family and
``tests/test_streaming_determinism.py`` enforce this for every
registered generator).

Sinks
-----
:class:`GraphSink`
    Thin adapter over a mutable :class:`Graph`; the legacy path.
:class:`GraphBuilder`
    The streaming path: amortized-doubling int32 edge buffers (with
    optional ``np.memmap`` spill for out-of-core builds and an optional
    on-disk :class:`EdgeSpool` tee), incremental degree tracking, and
    array component labelling (min-label hooking plus pointer jumping
    over the deduplicated edges) so connectivity queries and
    giant-component extraction never need the dict form.

Membership queries (``has_edge`` / ``degree`` / ``number_of_edges``)
switch a :class:`GraphBuilder` into *exact mode* lazily: a packed-int64
edge set and a degree array are materialized from the buffer on first
use and maintained incrementally afterwards.  Generators that never ask
(PLRG, B-A, Waxman) stay on the cheap append-only path, where duplicate
edges are simply dropped at finalize time.
"""

from __future__ import annotations

import os
import tempfile
from typing import Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.graph.core import Graph
from repro.graph.csr import CSRGraph

__all__ = [
    "EdgeSink",
    "GraphSink",
    "GraphBuilder",
    "EdgeSpool",
    "materialize_into",
]

_KEY_MASK = np.int64((1 << 32) - 1)


def _pack(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Order-free packed edge keys: ``min << 32 | max`` as int64."""
    lo = np.minimum(u, v).astype(np.int64)
    hi = np.maximum(u, v).astype(np.int64)
    return (lo << 32) | hi


def _unpack(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    return (keys >> 32), (keys & _KEY_MASK)


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """``np.unique(keys)`` for a fresh int64 array, which it sorts in
    place: sort plus adjacent-difference, never numpy's hash path."""
    keys.sort()
    fresh = np.empty(len(keys), dtype=bool)
    fresh[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
    return keys[fresh]


def _component_roots(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The smallest member id of each node's component over edges
    ``(a[i], b[i])``, as an int32 array of length ``n``.

    Min-label hooking: every root takes the smallest root found across
    its edges, then pointer jumping flattens the forest, until no edge
    joins two roots.  Labels only ever fall and each stays inside its
    node's component, so a root is its component's smallest id — the
    tie-break of the dict path's
    :func:`~repro.graph.traversal.connected_components`.
    """
    roots = np.arange(n, dtype=np.int32)
    while len(a):
        ra, rb = roots[a], roots[b]
        live = ra != rb
        if not live.any():
            break
        a, b, ra, rb = a[live], b[live], ra[live], rb[live]
        low = np.minimum(ra, rb)
        np.minimum.at(roots, ra, low)
        np.minimum.at(roots, rb, low)
        while True:
            jumped = roots[roots]
            if np.array_equal(jumped, roots):
                break
            roots = jumped
    return roots


class EdgeSink:
    """The protocol generators emit into.

    Concrete sinks override the bulk methods for speed; the base class
    provides the generic single-edge fallbacks, so a sink only *must*
    implement :meth:`add_node`, :meth:`add_edge`, the query quartet
    (:meth:`has_edge`, :meth:`degree`, :meth:`number_of_nodes`,
    :meth:`number_of_edges`), :meth:`connected` and :meth:`finalize`.

    Node labels are dense non-negative integers, allocated in insertion
    order — the convention every generator in this package already
    follows, and what makes giant-component extraction well defined on
    the streaming path (ties between equal-sized components go to the
    one containing the earliest-allocated node, exactly like
    :func:`repro.graph.traversal.largest_connected_component`).
    """

    def add_node(self, node: int) -> None:
        raise NotImplementedError

    def add_nodes_from(self, nodes: Iterable[int]) -> None:
        for node in nodes:
            self.add_node(node)

    def add_edge(self, u: int, v: int) -> None:
        raise NotImplementedError

    def add_edges_from(self, edges: Iterable[Tuple[int, int]]) -> None:
        for u, v in edges:
            self.add_edge(u, v)

    def add_chunk(self, chunk: np.ndarray) -> None:
        """Bulk-add a ``(k, 2)`` integer array of candidate edges."""
        for row in np.asarray(chunk):
            self.add_edge(int(row[0]), int(row[1]))

    def remove_edge(self, u: int, v: int) -> None:
        raise NotImplementedError

    def has_edge(self, u: int, v: int) -> bool:
        raise NotImplementedError

    def degree(self, node: int) -> int:
        raise NotImplementedError

    def number_of_nodes(self) -> int:
        raise NotImplementedError

    def number_of_edges(self) -> int:
        raise NotImplementedError

    def connected(self) -> bool:
        raise NotImplementedError

    def finalize(
        self, name: str = "", component: str = "all"
    ) -> Union[Graph, CSRGraph]:
        """Finish the build.  ``component`` is ``"all"`` or ``"giant"``."""
        raise NotImplementedError


class GraphSink(EdgeSink):
    """The legacy path: an :class:`EdgeSink` over a mutable ``Graph``.

    Generators route their dict build through this adapter so the same
    emission core serves both representations.  Endpoints are coerced to
    plain Python ints (cores may emit numpy scalars), keeping node
    labels — and therefore fingerprints, edge-list files and tests —
    byte-identical to the historical dict builds.
    """

    __slots__ = ("graph",)

    def __init__(self, graph: Optional[Graph] = None):
        self.graph = graph if graph is not None else Graph()

    def add_node(self, node: int) -> None:
        self.graph.add_node(int(node))

    def add_nodes_from(self, nodes: Iterable[int]) -> None:
        if isinstance(nodes, range):
            self.graph.add_nodes_from(nodes)
        else:
            self.graph.add_nodes_from(int(n) for n in nodes)

    def add_edge(self, u: int, v: int) -> None:
        self.graph.add_edge(int(u), int(v))

    def add_chunk(self, chunk: np.ndarray) -> None:
        add = self.graph.add_edge
        for row in np.asarray(chunk):
            add(int(row[0]), int(row[1]))

    def remove_edge(self, u: int, v: int) -> None:
        self.graph.remove_edge(int(u), int(v))

    def has_edge(self, u: int, v: int) -> bool:
        return self.graph.has_edge(int(u), int(v))

    def degree(self, node: int) -> int:
        return self.graph.degree(int(node))

    def number_of_nodes(self) -> int:
        return self.graph.number_of_nodes()

    def number_of_edges(self) -> int:
        return self.graph.number_of_edges()

    def connected(self) -> bool:
        from repro.graph.traversal import is_connected

        return is_connected(self.graph)

    def finalize(self, name: str = "", component: str = "all") -> Graph:
        from repro.generators.base import giant_component

        self.graph.name = name
        if component == "giant":
            return giant_component(self.graph)
        if component != "all":
            raise ValueError(f"unknown component selector {component!r}")
        return self.graph


class EdgeSpool:
    """An append-only on-disk edge list (raw little-endian int32 pairs).

    The durable complement to :class:`GraphBuilder`'s in-memory buffers:
    pass one as the builder's ``spool`` to tee every accepted edge to
    disk, or use it standalone to record a generation run once and
    rebuild CSR graphs from it later with :meth:`replay_into`.
    """

    _DTYPE = np.dtype("<i4")

    def __init__(self, path: str):
        self.path = path
        self._handle = open(path, "ab+")

    def append(self, chunk: np.ndarray) -> None:
        arr = np.ascontiguousarray(np.asarray(chunk), dtype=self._DTYPE)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("spool chunks must have shape (k, 2)")
        self._handle.write(arr.tobytes())

    def __len__(self) -> int:
        """Number of edges recorded so far."""
        self._handle.flush()
        return os.path.getsize(self.path) // (2 * self._DTYPE.itemsize)

    def chunks(self, chunk_edges: int = 1 << 16) -> Iterator[np.ndarray]:
        """Yield the recorded edges back as ``(k, 2)`` int32 arrays."""
        self._handle.flush()
        with open(self.path, "rb") as handle:
            while True:
                raw = handle.read(chunk_edges * 2 * self._DTYPE.itemsize)
                if not raw:
                    return
                flat = np.frombuffer(raw, dtype=self._DTYPE)
                yield flat.reshape(-1, 2)

    def __iter__(self) -> Iterator[np.ndarray]:
        return self.chunks()

    def replay_into(self, sink: EdgeSink) -> EdgeSink:
        for chunk in self.chunks():
            sink.add_chunk(chunk)
        return sink

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "EdgeSpool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class GraphBuilder(EdgeSink):
    """Streaming CSR builder: the sink that never builds the dict form.

    Edges accumulate in an amortized-doubling ``(capacity, 2)`` int32
    buffer; ``finalize`` sorts both edge directions into canonical CSR
    arrays and returns a :class:`CSRGraph`.  Duplicate edges and
    self-loops are tolerated on input (dropped by finalize), matching
    ``Graph.add_edge``'s silent-ignore semantics.

    Parameters
    ----------
    expect_nodes, expect_edges:
        Capacity hints; purely an allocation optimization.
    exact:
        Force exact mode up front (see module docstring) instead of
        activating it lazily on the first membership query.
    spill_dir:
        If set, edge buffers larger than ``spill_threshold`` edges are
        backed by ``np.memmap`` files under this directory instead of
        RAM (out-of-core builds).  Files are removed on ``close()``.
    spill_threshold:
        Buffer capacity (in edges) beyond which spilling kicks in.
    spool:
        Optional :class:`EdgeSpool`; every accepted edge is also
        appended there.
    """

    _MIN_CAPACITY = 1024

    def __init__(
        self,
        expect_nodes: int = 0,
        expect_edges: int = 0,
        exact: bool = False,
        spill_dir: Optional[str] = None,
        spill_threshold: int = 1 << 22,
        spool: Optional[EdgeSpool] = None,
    ):
        capacity = max(self._MIN_CAPACITY, int(expect_edges))
        self._buf = np.empty((capacity, 2), dtype=np.int32)
        self._spill_path: Optional[str] = None
        self._m = 0  # buffer rows in use (unique edges iff exact mode)
        self._n = max(0, int(expect_nodes))
        self.spill_dir = spill_dir
        self.spill_threshold = int(spill_threshold)
        self.spool = spool
        self._edge_set: Optional[set] = None
        self._degrees: Optional[np.ndarray] = None
        if exact:
            self._edge_set = set()
            self._degrees = np.zeros(max(self._n, 1), dtype=np.int64)
        self._removed = False

    # ------------------------------------------------------------------
    # Buffer management
    # ------------------------------------------------------------------
    def _grow_edges(self, need: int) -> None:
        capacity = len(self._buf)
        if need <= capacity:
            return
        while capacity < need:
            capacity *= 2
        if self.spill_dir is not None and capacity >= self.spill_threshold:
            fd, path = tempfile.mkstemp(
                prefix="graphbuilder-", suffix=".i32", dir=self.spill_dir
            )
            os.close(fd)
            fresh = np.memmap(path, dtype=np.int32, mode="w+", shape=(capacity, 2))
            old_spill = self._spill_path
            self._spill_path = path
        else:
            fresh = np.empty((capacity, 2), dtype=np.int32)
            old_spill = None
        fresh[: self._m] = self._buf[: self._m]
        self._buf = fresh
        if old_spill is not None:
            self._drop_spill_file(old_spill)

    def _drop_spill_file(self, path: str) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass

    def _ensure_node(self, top: int) -> None:
        if top > self._n:
            self._n = top
            if self._degrees is not None and top > len(self._degrees):
                fresh = np.zeros(max(top, 2 * len(self._degrees)), dtype=np.int64)
                fresh[: len(self._degrees)] = self._degrees
                self._degrees = fresh

    # ------------------------------------------------------------------
    # Exact mode (lazy membership structures)
    # ------------------------------------------------------------------
    def _activate_exact(self) -> None:
        if self._edge_set is not None:
            return
        keys = _sorted_unique(
            _pack(self._buf[: self._m, 0], self._buf[: self._m, 1])
        )
        self._edge_set = set(keys.tolist())
        lo, hi = _unpack(keys)
        self._grow_edges(len(keys))
        self._buf[: len(keys), 0] = lo
        self._buf[: len(keys), 1] = hi
        self._m = len(keys)
        degrees = np.bincount(lo, minlength=max(self._n, 1)) + np.bincount(
            hi, minlength=max(self._n, 1)
        )
        self._degrees = degrees.astype(np.int64)

    # ------------------------------------------------------------------
    # EdgeSink API
    # ------------------------------------------------------------------
    def add_node(self, node: int) -> None:
        node = int(node)
        if node < 0:
            raise ValueError("node labels must be non-negative integers")
        self._ensure_node(node + 1)

    def add_nodes_from(self, nodes: Iterable[int]) -> None:
        if isinstance(nodes, range):
            if len(nodes) and (nodes[0] < 0 or nodes[-1] < 0):
                raise ValueError("node labels must be non-negative integers")
            if len(nodes):
                self._ensure_node(max(nodes[0], nodes[-1]) + 1)
            return
        for node in nodes:
            self.add_node(node)

    def add_edge(self, u: int, v: int) -> None:
        u, v = int(u), int(v)
        if u == v:
            return
        if u < 0 or v < 0:
            raise ValueError("node labels must be non-negative integers")
        self._ensure_node((u if u > v else v) + 1)
        if self._edge_set is not None:
            key = (u << 32) | v if u < v else (v << 32) | u
            if key in self._edge_set:
                return
            self._edge_set.add(key)
            self._degrees[u] += 1
            self._degrees[v] += 1
        self._grow_edges(self._m + 1)
        self._buf[self._m, 0] = u
        self._buf[self._m, 1] = v
        self._m += 1
        if self.spool is not None:
            self.spool.append(self._buf[self._m - 1 : self._m])

    def add_chunk(self, chunk: np.ndarray) -> None:
        arr = np.asarray(chunk)
        if arr.size == 0:
            return
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("edge chunks must have shape (k, 2)")
        if arr.min() < 0:
            raise ValueError("node labels must be non-negative integers")
        arr = arr[arr[:, 0] != arr[:, 1]]  # drop self-loops
        if len(arr) == 0:
            return
        if self._edge_set is not None:
            for row in arr:
                self.add_edge(int(row[0]), int(row[1]))
            return
        self._ensure_node(int(arr.max()) + 1)
        self._grow_edges(self._m + len(arr))
        self._buf[self._m : self._m + len(arr)] = arr
        self._m += len(arr)
        if self.spool is not None:
            self.spool.append(arr)

    def remove_edge(self, u: int, v: int) -> None:
        u, v = int(u), int(v)
        self._activate_exact()
        key = (u << 32) | v if u < v else (v << 32) | u
        if key not in self._edge_set:
            raise KeyError(f"edge ({u!r}, {v!r}) not in graph")
        self._edge_set.remove(key)
        self._degrees[u] -= 1
        self._degrees[v] -= 1
        self._removed = True

    def has_edge(self, u: int, v: int) -> bool:
        u, v = int(u), int(v)
        if u >= self._n or v >= self._n or u < 0 or v < 0:
            return False
        self._activate_exact()
        key = (u << 32) | v if u < v else (v << 32) | u
        return key in self._edge_set

    def degree(self, node: int) -> int:
        node = int(node)
        if node < 0 or node >= self._n:
            raise KeyError(node)
        self._activate_exact()
        return int(self._degrees[node])

    def degrees(self) -> np.ndarray:
        """Current degree of every node (index == label), int64."""
        if self._edge_set is not None:
            return self._degrees[: self._n].copy()
        lo = self._buf[: self._m, 0]
        hi = self._buf[: self._m, 1]
        a, b = _unpack(_sorted_unique(_pack(lo, hi)))
        return (
            np.bincount(a, minlength=max(self._n, 1))
            + np.bincount(b, minlength=max(self._n, 1))
        )[: self._n].astype(np.int64)

    def number_of_nodes(self) -> int:
        return self._n

    def number_of_edges(self) -> int:
        self._activate_exact()
        return len(self._edge_set)

    # ------------------------------------------------------------------
    # Connectivity (array component labelling)
    # ------------------------------------------------------------------
    def _rebuild_from_set(self) -> None:
        """After removals the buffer is stale; recreate it from the set."""
        keys = np.fromiter(self._edge_set, dtype=np.int64, count=len(self._edge_set))
        keys.sort()
        lo, hi = _unpack(keys)
        self._m = len(keys)
        self._grow_edges(self._m)
        self._buf[: self._m, 0] = lo
        self._buf[: self._m, 1] = hi
        self._removed = False

    def connected(self) -> bool:
        # Connected iff every node's smallest-member root is node 0.
        return not self.component_roots().any()

    def component_roots(self) -> np.ndarray:
        """Smallest-member root id per node (length ``number_of_nodes``)."""
        return _component_roots(self._n, *self._unique_edges())

    # ------------------------------------------------------------------
    # Finalize
    # ------------------------------------------------------------------
    def _unique_edges(self) -> Tuple[np.ndarray, np.ndarray]:
        if self._removed:
            self._rebuild_from_set()
        lo = self._buf[: self._m, 0]
        hi = self._buf[: self._m, 1]
        if self._edge_set is not None:
            # Exact mode keeps the buffer duplicate-free already.
            return (
                np.minimum(lo, hi).astype(np.int64),
                np.maximum(lo, hi).astype(np.int64),
            )
        return _unpack(_sorted_unique(_pack(lo, hi)))

    def finalize(self, name: str = "", component: str = "all") -> CSRGraph:
        """Freeze the streamed edges into a canonical :class:`CSRGraph`.

        ``component="giant"`` keeps only the largest connected component
        (ties: the component containing the smallest node id, matching
        :func:`~repro.graph.traversal.largest_connected_component` on
        insertion-ordered integer labels); node labels are preserved.
        """
        if component not in ("all", "giant"):
            raise ValueError(f"unknown component selector {component!r}")
        a, b = self._unique_edges()
        n = self._n
        nodes: Union[range, List[int]] = range(n)
        if component == "giant" and n > 1:
            roots = _component_roots(n, a, b)
            # Sizes sit at root ids and argmax takes the first maximum:
            # the tied giant with the smallest member wins.
            keep = roots == np.argmax(np.bincount(roots, minlength=n))
            if not keep.all():
                remap = np.cumsum(keep) - 1
                mask = keep[a]
                a = remap[a[mask]]
                b = remap[b[mask]]
                nodes = np.flatnonzero(keep).tolist()
                n = len(nodes)
        src = np.concatenate([a, b])
        dst = np.concatenate([b, a])
        key = (src << 32) | dst
        del src, dst
        key.sort()
        indices = (key & _KEY_MASK).astype(np.int32)
        counts = np.bincount((key >> 32).astype(np.int64), minlength=n)
        del key
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        csr = CSRGraph(indptr.astype(np.int32), indices, nodes, name=name)
        self.close()
        return csr

    def close(self) -> None:
        """Release buffers (and any memmap spill file)."""
        spill = self._spill_path
        self._buf = np.empty((0, 2), dtype=np.int32)
        self._spill_path = None
        self._m = 0
        self._edge_set = None if self._edge_set is None else set()
        if self._degrees is not None:
            self._degrees = np.zeros(1, dtype=np.int64)
        if spill is not None:
            self._drop_spill_file(spill)


def materialize_into(
    sink: EdgeSink,
    graph: Graph,
    name: Optional[str] = None,
    component: str = "all",
    chunk_edges: int = 1 << 16,
):
    """Replay a materialized :class:`Graph` into a sink and finalize.

    The fallback for generators whose construction is inherently
    dict-backed (e.g. the Albert–Barabási rewiring step samples from the
    materialized edge list): the build happens on ``Graph`` as always,
    then streams into the caller's sink so the public contract — same
    edge set on either path, frozen output from a sink — still holds.
    """
    for node in graph.nodes():
        sink.add_node(node)
    pending: List[Tuple[int, int]] = []
    for u, v in graph.iter_edges():
        pending.append((u, v))
        if len(pending) >= chunk_edges:
            sink.add_chunk(np.asarray(pending, dtype=np.int64))
            pending.clear()
    if pending:
        sink.add_chunk(np.asarray(pending, dtype=np.int64))
    return sink.finalize(
        name=graph.name if name is None else name, component=component
    )
