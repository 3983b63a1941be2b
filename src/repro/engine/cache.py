"""On-disk result cache for metric series — self-healing and sharded.

Finished series are stored as JSON under ``.repro-cache/`` (or any
directory passed to :class:`MetricEngine`), one file per entry, keyed by
a content hash of

* the graph (node set + edge set),
* the metric name,
* the resolved parameters (including the seed).

Any change to the graph's edges, the metric parameters, or the seed
produces a different key, so stale hits are impossible; the cache never
needs invalidation beyond deleting files.  JSON float serialisation uses
``repr`` round-tripping, so cached series are bitwise-identical to
freshly computed ones.

Entries involving objects without a stable content representation — a
``random.Random`` seed or a policy :class:`Relationships` annotation —
are simply not cached (``cache_key`` returns ``None``).

Layout (many concurrent writers, see ``docs/SERVICE.md``):

* **Sharded directories** — entries live in hash-prefix subdirectories
  (``<cache>/ab/<key>.json``) so a hot shared cache never piles tens of
  thousands of files into one directory.  This is the only layout: a
  miss costs one ``open``.
* **Size-bounded LRU eviction** — with ``max_entries`` and/or
  ``max_bytes`` set, the least-recently-*used* entries (hits refresh an
  entry's mtime) are deleted after each write until the bound holds.
  The eviction scan is serialised through a ``.lock`` file so
  concurrent writers never race each other's scans; writers that find
  the lock busy simply skip their turn (the next write re-checks).
* **Quarantine is capped** — only the newest
  :data:`QUARANTINE_LIMIT` corrupt entries are kept for post-mortem;
  older ones are deleted when the cache is opened.

Durability contract (see ``docs/ROBUSTNESS.md``):

* **Writes are atomic and durable** — tmp file in the same directory,
  fsync, then ``os.replace``; a process killed mid-write can never leave
  a half-written entry under a live key, and two processes committing
  the same key concurrently both leave a complete, valid entry.
* **Every entry carries a content checksum** over its series, verified
  on read.
* **Corruption heals instead of raising** — an unparsable, truncated or
  checksum-mismatched entry is moved to ``<cache>/quarantine/`` (for
  post-mortem) and reported as a miss, so the series is recomputed and
  rewritten; one flipped byte can no longer poison later runs.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import tempfile
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple, Union

try:  # pragma: no cover - posix-only; eviction degrades gracefully
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None

from repro.graph.core import Graph
from repro.graph.csr import CSR_LAYOUT_VERSION, CSRGraph

# Bump when the engine's numeric behaviour changes, so old entries miss.
# v2: entries carry a content checksum (self-healing cache).
# v3: CSR-era results — balls are induced in canonical (ascending node
#     index) member order on the thawed frozen graph, which moves the
#     low bits of order-sensitive evaluators; v2 entries must not be
#     served for them.  (The sharded directory layout is *not* a format
#     change: entry payloads are unchanged.)
CACHE_VERSION = 3

#: The graph-representation schema cache keys are computed against:
#: ``(cache version, CSR layout version)``.  A change to the frozen
#: layout (:data:`repro.graph.csr.CSR_LAYOUT_VERSION`) re-keys every
#: entry even when the cache format itself is unchanged.
REPRESENTATION_VERSION = f"v{CACHE_VERSION}.csr{CSR_LAYOUT_VERSION}"

DEFAULT_CACHE_DIR = ".repro-cache"

#: Subdirectory (inside the cache root) where corrupt entries are moved.
QUARANTINE_DIR = "quarantine"

#: How many quarantined entries are kept (newest first); the rest are
#: deleted when the cache is opened.
QUARANTINE_LIMIT = 32

#: Hex characters of the key hash used as the shard directory name:
#: 2 -> 256 shards.
SHARD_WIDTH = 2

#: Name of the advisory lock file serialising eviction scans.
LOCK_FILE = ".lock"


def _series_checksum(series) -> str:
    payload = repr([(float(x), float(y)) for x, y in series])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def graph_fingerprint(graph: Union[Graph, CSRGraph]) -> str:
    """Content hash of a graph: its node set and edge set.

    Node identity is taken from ``repr`` so any hashable label works;
    edges are canonicalised (unordered endpoints, sorted list) so two
    graphs with the same structure always hash alike regardless of
    construction order.  Accepts either representation — a graph and
    its frozen :class:`~repro.graph.csr.CSRGraph` fingerprint alike.

    A frozen graph is immutable, so its digest is computed once and
    kept on the object (never pickled); later calls — every daemon
    request and engine pass about an already-loaded graph — are free.
    A mutable :class:`Graph` is hashed afresh on every call.
    """
    if not isinstance(graph, CSRGraph):
        return _content_digest(graph)
    digest = graph._fingerprint
    if digest is None:
        digest = graph._fingerprint = _content_digest(graph)
    return digest


def _content_digest(graph: Union[Graph, CSRGraph]) -> str:
    """The uncached hash behind :func:`graph_fingerprint`."""
    digest = hashlib.sha256()
    for label in sorted(repr(node) for node in graph.nodes()):
        digest.update(label.encode("utf-8"))
        digest.update(b"\x00")
    digest.update(b"--edges--")
    edge_labels = []
    for u, v in graph.iter_edges():
        a, b = sorted((repr(u), repr(v)))
        edge_labels.append(f"{a}\x01{b}")
    for label in sorted(edge_labels):
        digest.update(label.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


def cache_key(
    fingerprint: str, metric: str, params: Mapping[str, Any]
) -> Optional[str]:
    """Stable key for one (graph, metric, params) computation.

    Returns ``None`` when the computation is not cacheable: a live
    ``random.Random`` seed or a policy relationship annotation has no
    stable content representation.
    """
    if isinstance(params.get("seed"), random.Random):
        return None
    if params.get("rels") is not None:
        return None
    payload = repr(
        sorted((k, repr(v)) for k, v in params.items() if k != "rels")
    )
    digest = hashlib.sha256()
    digest.update(
        f"{REPRESENTATION_VERSION}|{metric}|{fingerprint}|".encode("utf-8")
    )
    digest.update(payload.encode("utf-8"))
    return f"{metric}-{digest.hexdigest()[:40]}"


def shard_for(key: str) -> str:
    """The shard directory name for ``key`` (a stable hash prefix)."""
    return hashlib.sha256(key.encode("utf-8")).hexdigest()[:SHARD_WIDTH]


class SeriesCache:
    """Sharded directory of cached series, one JSON file per key.

    Corrupt entries (truncated writes, flipped bytes, checksum
    mismatches) are quarantined on read and reported as misses — see the
    module docstring.  ``stats`` counts ``hits``/``misses``/
    ``quarantined``/``evicted`` for observability.

    Parameters
    ----------
    root:
        Cache directory (``.repro-cache/`` by default).
    max_entries, max_bytes:
        Size bounds enforced after each write by LRU eviction (hits
        refresh recency).  ``None`` (the default) disables the bound.
    quarantine_limit:
        How many quarantined entries to keep; older ones are deleted
        when the cache is opened.
    """

    def __init__(
        self,
        root: Optional[str] = None,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
        quarantine_limit: int = QUARANTINE_LIMIT,
    ):
        self.root = Path(root or DEFAULT_CACHE_DIR)
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.quarantine_limit = int(quarantine_limit)
        self.stats = {"hits": 0, "misses": 0, "quarantined": 0, "evicted": 0}
        self._prune_quarantine()

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------
    def path_for(self, key: str) -> Path:
        return self.root / shard_for(key) / f"{key}.json"

    def _iter_entries(self) -> Iterator[Path]:
        """Every committed entry in the shard subdirectories.
        Quarantine, tmp and lock files are skipped."""
        if not self.root.is_dir():
            return
        for path in sorted(self.root.iterdir()):
            if len(path.name) == SHARD_WIDTH and path.is_dir():
                for entry in sorted(path.glob("*.json")):
                    if not entry.name.startswith("."):
                        yield entry

    # ------------------------------------------------------------------
    # Quarantine
    # ------------------------------------------------------------------
    def _prune_quarantine(self) -> None:
        """Keep only the newest ``quarantine_limit`` quarantined entries.

        Runs at open time so an unattended daemon's quarantine directory
        cannot grow without bound across heal cycles.
        """
        target_dir = self.root / QUARANTINE_DIR
        if not target_dir.is_dir():
            return
        entries = []
        for path in target_dir.iterdir():
            try:
                entries.append((path.stat().st_mtime, str(path), path))
            except OSError:
                continue
        entries.sort(reverse=True)  # newest first; path breaks mtime ties
        for _mtime, _name, path in entries[max(0, self.quarantine_limit):]:
            try:
                path.unlink()
            except OSError:
                pass

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a corrupt entry aside so it is recomputed, not raised."""
        self.stats["quarantined"] += 1
        target_dir = self.root / QUARANTINE_DIR
        try:
            target_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, target_dir / path.name)
        except OSError:
            # Quarantine is best-effort; worst case delete the entry.
            try:
                path.unlink()
            except OSError:
                pass

    # ------------------------------------------------------------------
    # Read / write
    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[List[Tuple[float, float]]]:
        """The cached series for ``key``, or ``None`` on a miss.

        A corrupt or checksum-mismatched entry is quarantined and
        treated as a miss (the caller recomputes and rewrites it).  A
        hit refreshes the entry's mtime, making eviction LRU rather
        than FIFO.
        """
        path = self.path_for(key)
        try:
            handle = open(path, "r", encoding="utf-8")
        except OSError:
            self.stats["misses"] += 1
            return None
        try:
            with handle:
                payload = json.load(handle)
        except OSError:
            self.stats["misses"] += 1
            return None
        except ValueError:
            self._quarantine(path, "unparsable JSON")
            self.stats["misses"] += 1
            return None
        if not isinstance(payload, dict):
            self._quarantine(path, "not a JSON object")
            self.stats["misses"] += 1
            return None
        if payload.get("version") != CACHE_VERSION:
            # Old-format entries are stale, not corrupt: plain miss.
            self.stats["misses"] += 1
            return None
        try:
            series = [
                (point[0], point[1]) for point in payload["series"]
            ]
            checksum_ok = payload.get("checksum") == _series_checksum(series)
        except (KeyError, TypeError, IndexError, ValueError):
            self._quarantine(path, "malformed series")
            self.stats["misses"] += 1
            return None
        if not checksum_ok:
            self._quarantine(path, "checksum mismatch")
            self.stats["misses"] += 1
            return None
        try:
            os.utime(path)  # LRU recency: a hit keeps the entry young
        except OSError:
            pass
        self.stats["hits"] += 1
        return series

    def put(self, key: str, metric: str, series: List[Tuple]) -> None:
        """Store ``series``; atomic (tmp + fsync + rename), checksummed,
        then LRU-evict if a size bound is configured."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "version": CACHE_VERSION,
            "metric": metric,
            "series": [list(point) for point in series],
            "checksum": _series_checksum(series),
        }
        fd, tmp = tempfile.mkstemp(
            dir=str(path.parent), prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
                handle.flush()
                try:
                    os.fsync(handle.fileno())
                except OSError:  # pragma: no cover - exotic filesystems
                    pass
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._maybe_evict()

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------
    def _maybe_evict(self) -> int:
        """Enforce the size bounds; returns how many entries were evicted.

        The scan-and-delete is serialised through an advisory ``.lock``
        file so two writers never both walk the directory; a writer that
        finds the lock held skips (the holder is already evicting, and
        the next write re-checks).  Entry *writes* never take the lock —
        they are already atomic — so eviction can never block or corrupt
        a commit.
        """
        if self.max_entries is None and self.max_bytes is None:
            return 0
        lock_handle = None
        if fcntl is not None:
            try:
                lock_handle = open(self.root / LOCK_FILE, "a+")
                fcntl.flock(lock_handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                if lock_handle is not None:
                    lock_handle.close()
                return 0  # another process is evicting right now
        try:
            entries = []
            total_bytes = 0
            for path in self._iter_entries():
                try:
                    stat = path.stat()
                except OSError:
                    continue
                entries.append((stat.st_mtime, str(path), stat.st_size, path))
                total_bytes += stat.st_size
            entries.sort()  # oldest first; path breaks mtime ties
            evicted = 0
            while entries and (
                (self.max_entries is not None and len(entries) > self.max_entries)
                or (self.max_bytes is not None and total_bytes > self.max_bytes)
            ):
                _mtime, _name, size, path = entries.pop(0)
                try:
                    path.unlink()
                except OSError:
                    continue
                total_bytes -= size
                evicted += 1
            self.stats["evicted"] += evicted
            return evicted
        finally:
            if lock_handle is not None:
                try:
                    fcntl.flock(lock_handle.fileno(), fcntl.LOCK_UN)
                except OSError:  # pragma: no cover
                    pass
                lock_handle.close()

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def verify(self) -> Dict[str, int]:
        """Scan every entry, quarantining corrupt ones.

        Returns ``{"ok": n, "quarantined": n}``.  Useful after an
        unclean shutdown: a single pass leaves only entries that will
        load cleanly.
        """
        before = self.stats["quarantined"]
        ok = 0
        for path in list(self._iter_entries()):
            key = path.stem
            if self.get(key) is not None:
                ok += 1
        return {"ok": ok, "quarantined": self.stats["quarantined"] - before}

    def clear(self) -> int:
        """Delete every cache entry; returns the number removed."""
        removed = 0
        for path in list(self._iter_entries()):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed
