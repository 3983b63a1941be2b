"""The benchmark's workloads.

Each workload has the same shape:

* ``setup(seed)`` builds the inputs from the seed (timed as ``setup_s``);
* ``prepare(inputs)`` computes, untimed, whatever the answer check needs;
* ``run(inputs)`` does one measured iteration and returns an
  :class:`Iteration`: a verdict per operation and a latency per request.

The program only ever sees the generated inputs.  Where the paper's
tables pin the topologies (``paper-tables``) the seed relabels their
nodes with a seeded permutation: the bytes the program receives change
with the seed, the structure and therefore the work do not, so
run-to-run spread is machine noise rather than input luck.
``plrg-pool`` and ``daemon-mix`` draw fresh graphs from the seed.
See README.md for why each workload exists.
"""

from __future__ import annotations

import dataclasses
import os
import random
import shutil
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

import repro.analysis as analysis
import repro.harness as harness
import repro.harness.registry as harness_registry
import repro.hierarchy as hierarchy
from repro.engine import METRICS, MetricEngine, MetricRequest
from repro.generators import registry as generator_registry
from repro.generators.builder import GraphBuilder
from repro.graph.core import Graph
from repro.graph.io import read_edgelist, write_edgelist
from repro.routing import policy
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import ReproServer


@dataclasses.dataclass
class Iteration:
    """One measured pass over a workload's inputs."""

    wall: float
    #: One verdict per operation (a table row, a series or a daemon
    #: request): was its answer right?
    verdicts: List[bool]
    #: Latency in seconds of each request.  On the daemon a request is a
    #: scripted request; elsewhere it is the pair of checked tables or the
    #: pooled pass, since a table row is too short a sample to be steady
    #: and every series of a pass is delivered when the pass ends.
    latencies: List[float]
    #: Counts read from the program's own stats objects.
    counts: Dict[str, int] = dataclasses.field(default_factory=dict)
    #: Server start time, which belongs to set-up, not to ``wall``.
    extra_setup: float = 0.0
    cpu: float = 0.0


def relabel(graph: Graph, rng: random.Random) -> Tuple[Graph, Dict]:
    """``graph`` with nodes renamed by a seeded permutation of 0..n-1.

    Insertion order is kept, so the frozen CSR (indexed by insertion
    order) has exactly the same structure and every kernel does the same
    work on it.
    """
    nodes = graph.nodes()
    labels = list(range(len(nodes)))
    rng.shuffle(labels)
    mapping = dict(zip(nodes, labels))
    out = Graph(name=graph.name)
    out.add_nodes_from(mapping[v] for v in nodes)
    out.add_edges_from((mapping[u], mapping[v]) for u, v in graph.iter_edges())
    return out, mapping


def relabel_relationships(rels, graph: Graph, mapping: Dict):
    """The relationship annotation of ``graph`` under ``mapping``."""
    out = policy.Relationships()
    for u, v in graph.iter_edges():
        a, b = mapping[u], mapping[v]
        rel = rels.rel(u, v)  # what v is to u
        if rel == policy.PROVIDER:
            out.set_provider_customer(b, a)
        elif rel == policy.CUSTOMER:
            out.set_provider_customer(a, b)
        elif rel == policy.PEER:
            out.set_peer(a, b)
        else:
            out.set_sibling(a, b)
    return out


class Workload:
    name = ""
    #: Set-ups per run; ``setup_s`` is their median.
    setups = 3

    def __init__(self, scale: str, workdir: str):
        self.scale = scale
        self.workdir = workdir

    def setup(self, seed: int):
        raise NotImplementedError

    def prepare(self, inputs) -> None:
        """Untimed work the answer check needs (default: none)."""

    def run(self, inputs) -> Iteration:
        raise NotImplementedError


# ----------------------------------------------------------------------
# paper-tables: Section 4.4's signature table, then Section 5.1's
# link-value hierarchy table.
# ----------------------------------------------------------------------

# The benchmark suite's Section 4.4 settings (benchmarks/conftest.py).
SEC44_REQUESTS = (
    MetricRequest("expansion", num_centers=32, seed=1),
    MetricRequest("resilience", num_centers=6, max_ball_size=900, seed=1),
    MetricRequest("distortion", num_centers=6, max_ball_size=900, seed=1),
)
SEC44_ROWS = {
    "full": ("Mesh", "Random", "Tree", "AS", "RL", "PLRG", "Tiers", "TS", "Waxman"),
    "tiny": ("Tree", "PLRG", "TS"),
}
# (registry name, paper class, policy routing).  The RL core is left
# out: it alone takes about a minute per routing mode.
SEC51_ROWS = {
    "full": (
        ("Tree", "strict", False),
        ("TS", "strict", False),
        ("Tiers", "strict", False),
        ("AS", "moderate", False),
        ("PLRG", "moderate", False),
        ("Waxman", "loose", False),
        ("AS", "moderate", True),
    ),
    "tiny": (
        ("Tree", "strict", False),
        ("AS", "moderate", False),
        ("AS", "moderate", True),
    ),
}


class PaperTables(Workload):
    """Both tables in one iteration, so one run measures about half a
    minute of table work: a single table per run spreads too much on a
    small shared machine, and two runs' worth of each would not fit the
    benchmark's time budget."""

    name = "paper-tables"

    def setup(self, seed):
        harness_registry._CACHE.clear()
        rng = random.Random(seed)
        sec44 = [
            (name, relabel(harness.topology(name).graph, rng)[0])
            for name in SEC44_ROWS[self.scale]
        ]
        sec51 = {}
        for name, _cls, _policy in SEC51_ROWS[self.scale]:
            if name in sec51:
                continue
            entry = harness.topology(name, scale="small")
            graph, mapping = relabel(entry.graph, rng)
            rels = None
            if entry.relationships is not None:
                rels = relabel_relationships(entry.relationships, entry.graph, mapping)
            sec51[name] = (graph, rels)
        return sec44, sec51

    def run(self, inputs):
        sec44, sec51 = inputs
        engine = MetricEngine(use_cache=False)
        verdicts = []
        start = time.perf_counter()
        for name, graph in sec44:
            series = engine.compute(graph, SEC44_REQUESTS)
            letters = analysis.signature(
                series["expansion"],
                series["resilience"],
                series["distortion"],
                graph.number_of_nodes(),
            )
            verdicts.append(
                engine.last_run.ok and letters == analysis.PAPER_SIGNATURES[name]
            )
        for name, expected, use_policy in SEC51_ROWS[self.scale]:
            graph, rels = sec51[name]
            values = hierarchy.link_values(
                graph, rels=rels if use_policy else None, seed=1
            )
            distribution = hierarchy.normalized_rank_distribution(
                values, graph.number_of_nodes()
            )
            verdicts.append(hierarchy.classify_hierarchy(distribution) == expected)
        wall = time.perf_counter() - start
        return Iteration(
            wall=wall,
            verdicts=verdicts,
            latencies=[wall],
            counts={"engine.centers": engine.stats["centers_computed"]},
        )


# ----------------------------------------------------------------------
# plrg-pool: a streamed PLRG through the pooled engine.
# ----------------------------------------------------------------------

PLRG_NODES = {"full": 500_000, "tiny": 20_000}
PLRG_EXPONENT = 2.246
POOL_WORKERS = 2
POOL_REQUESTS = tuple(MetricRequest(name, seed=1) for name in METRICS)


class PlrgPool(Workload):
    name = "plrg-pool"
    setups = 2  # a set-up takes about 5 s

    def __init__(self, scale, workdir):
        super().__init__(scale, workdir)
        #: The first pooled pass's series; every later pass must match.
        self.first_series = None

    def setup(self, seed):
        spec = generator_registry.get("plrg")
        return spec.build(
            PLRG_NODES[self.scale], seed=seed, sink=GraphBuilder(),
            exponent=PLRG_EXPONENT,
        )

    def compute(self, csr, workers: int):
        engine = MetricEngine(workers=workers, use_cache=False)
        start = time.perf_counter()
        series = engine.compute(csr, POOL_REQUESTS)
        return time.perf_counter() - start, series, engine

    def run(self, csr):
        wall, series, engine = self.compute(csr, POOL_WORKERS)
        # A series is right when the run report says ok, it is not empty,
        # the PLRG classifies as HHL and it equals the first pass bitwise.
        letters = analysis.signature(
            series["expansion"], series["resilience"], series["distortion"],
            csr.number_of_nodes(),
        )
        if self.first_series is None:
            self.first_series = series
        verdicts = [
            bool(series[name])
            and engine.last_run.metrics[name].ok
            and series[name] == self.first_series[name]
            and (letters == "HHL"
                 or name not in ("expansion", "resilience", "distortion"))
            for name in (request.name for request in POOL_REQUESTS)
        ]
        return Iteration(
            wall=wall,
            verdicts=verdicts,
            latencies=[wall],
            counts={
                "engine.centers": engine.stats["centers_computed"],
                "runtime.shm_segments": engine.stats["shm_published"],
            },
        )


# ----------------------------------------------------------------------
# daemon-mix: a seeded request script against the in-process daemon.
# ----------------------------------------------------------------------

# (generator, nodes, params) for the edge lists the clients ask about.
DAEMON_GRAPHS = {
    "full": (
        ("plrg", 2400, {"exponent": PLRG_EXPONENT}),
        ("ba", 2000, {"m": 2}),
        ("glp", 2000, {}),
        ("brite", 2000, {"m": 2}),
        ("random", 2000, {}),
        ("waxman", 2000, {"alpha": 0.01, "beta": 0.30}),
    ),
    "tiny": (
        ("plrg", 200, {"exponent": PLRG_EXPONENT}),
        ("ba", 150, {"m": 2}),
    ),
}
# The cold requests asked about every graph: (op, payload without the
# graph).  Each costs several warm hits, so request latency has two
# modes: hits (graph fingerprint plus cache read) and computes.
DAEMON_REQUESTS = (
    ("metric", {"metric": "expansion", "params": {"num_centers": 200, "seed": 1}}),
    ("metric", {"metric": "resilience",
                "params": {"num_centers": 6, "max_ball_size": 600, "seed": 1}}),
    ("metric", {"metric": "vertex_cover",
                "params": {"num_centers": 10, "max_ball_size": 1500, "seed": 1}}),
    ("signature", {"centers": 6, "max_ball": 600, "seed": 2}),
)
# Cache hits replayed after each cold request.
HITS_PER_COLD = 4
CLIENTS = 2


@dataclasses.dataclass
class DaemonInputs:
    paths: List[str]
    #: Steps of (request for client 0, request for client 1), each a
    #: (graph index, request index) key or ``None`` (the client sits the
    #: step out).  The first request about a graph is sent by client 0
    #: alone, so the graph is loaded exactly once.  Later cold keys are
    #: sent by both clients at once, so the second coalesces onto the
    #: first.  On a hit step the clients ask about two different graphs,
    #: so no engine pass can fold them together.  Every count then
    #: repeats exactly for a seed.
    steps: List[Tuple[Optional[Tuple[int, int]], Optional[Tuple[int, int]]]]


def daemon_script(num_graphs: int, rng: random.Random):
    keys = [(g, r) for g in range(num_graphs) for r in range(len(DAEMON_REQUESTS))]
    rng.shuffle(keys)
    steps, cached = [], []
    for key in keys:
        loaded = any(k[0] == key[0] for k in cached)
        steps.append((key, key) if loaded else (key, None))
        cached.append(key)
        for _ in range(HITS_PER_COLD):
            first = rng.choice(cached)
            others = [k for k in cached if k[0] != first[0]]
            if others:
                steps.append((first, rng.choice(others)))
    return steps


def _wire(inputs: DaemonInputs, key):
    op, payload = DAEMON_REQUESTS[key[1]]
    return op, dict(payload, graph=inputs.paths[key[0]])


def _answer(op: str, result: Dict[str, Any]):
    """The comparable part of a response (or of a direct answer)."""
    if op == "metric":
        return [list(point) for point in result["series"]]
    return result["signature"], {
        name: [list(point) for point in values]
        for name, values in result["series"].items()
    }


class DaemonMix(Workload):
    name = "daemon-mix"
    setups = 5  # a set-up takes under a second

    def __init__(self, scale, workdir):
        super().__init__(scale, workdir)
        self._setups = 0
        self._replays = 0
        # Set-ups with one seed write identical files, so the answers
        # computed once hold for every set-up of the run.
        self.expected: Dict[Tuple[int, int], Any] = {}

    def setup(self, seed):
        self._setups += 1
        folder = os.path.join(self.workdir, f"graphs-{self._setups}")
        os.makedirs(folder)
        rng = random.Random(seed)
        paths = []
        for i, (generator, n, params) in enumerate(DAEMON_GRAPHS[self.scale]):
            graph = generator_registry.get(generator).build(
                n, seed=rng.randrange(2**31), **params
            )
            path = os.path.join(folder, f"{i}-{generator}.edges")
            write_edgelist(graph, path)
            paths.append(path)
        return DaemonInputs(paths=paths, steps=daemon_script(len(paths), rng))

    def prepare(self, inputs):
        """Direct engine answers for every key the script asks."""
        engine = MetricEngine(use_cache=False)
        graphs = {}
        for key in sorted({k for step in inputs.steps for k in step if k}):
            op, payload = _wire(inputs, key)
            if key[0] not in graphs:
                graphs[key[0]] = read_edgelist(payload["graph"])
            graph = graphs[key[0]]
            if op == "metric":
                request = MetricRequest(payload["metric"], payload["params"])
                series = engine.compute(graph, [request])
                result = {"series": series[request.name]}
            else:
                series = engine.compute(
                    graph,
                    analysis.signature_requests(
                        payload["centers"], payload["max_ball"], payload["seed"]
                    ),
                )
                result = {
                    "signature": analysis.signature(
                        series["expansion"], series["resilience"],
                        series["distortion"], graph.number_of_nodes(),
                    ),
                    "series": series,
                }
            self.expected[key] = _answer(op, result)

    def run(self, inputs):
        self._replays += 1
        cache_dir = os.path.join(self.workdir, f"cache-{self._replays}")
        started = time.perf_counter()
        # A relative socket path keeps clear of the unix socket length
        # limit wherever the checkout lives; the cwd is the work dir.
        server = ReproServer(
            socket_path=f"daemon-{self._replays}.sock",
            workers=0,
            cache_dir=cache_dir,
        ).start_in_background()
        extra_setup = time.perf_counter() - started
        # One slot per (step, client), so request i is the same scripted
        # request in every replay.
        ops: List[Optional[Tuple[float, bool]]] = [None] * (CLIENTS * len(inputs.steps))
        barrier = threading.Barrier(CLIENTS)
        errors: List[BaseException] = []

        def client(slot: int) -> None:
            try:
                with ServiceClient(socket_path=server.socket_path, timeout=120) as conn:
                    for index, step in enumerate(inputs.steps):
                        key = step[slot]
                        barrier.wait()
                        if key is None:
                            continue
                        op, payload = _wire(inputs, key)
                        sent = time.perf_counter()
                        try:
                            response = conn.request(op, payload)
                            ok = _answer(op, response["result"]) == self.expected[key]
                        except ServiceError:
                            ok = False
                        ops[CLIENTS * index + slot] = (time.perf_counter() - sent, ok)
            except BaseException as exc:  # reported below, never swallowed
                barrier.abort()
                errors.append(exc)

        try:
            threads = [
                threading.Thread(target=client, args=(slot,), name=f"bench-client-{slot}")
                for slot in range(CLIENTS)
            ]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall = time.perf_counter() - start
        finally:
            server.initiate_drain()
            closed = server.wait_closed(timeout=60)
        if errors:
            raise errors[0]
        if not closed:
            raise RuntimeError("daemon did not drain within 60 s")
        counters = server.scheduler.counters
        counts = {
            "service.coalesced": counters["coalesced"],
            "service.engine_passes": counters["engine_passes"],
            "service.series_computed": counters["series_computed"],
            "service.series_cached": counters["series_cached"],
            "service.graph_loads": server.scheduler.graphs.stats["loads"],
            "engine.cache_hits": server.cache.stats["hits"],
            "engine.cache_misses": server.cache.stats["misses"],
        }
        shutil.rmtree(cache_dir, ignore_errors=True)
        return Iteration(
            wall=wall,
            verdicts=[op[1] for op in ops if op is not None],
            latencies=[op[0] for op in ops if op is not None],
            counts=counts,
            extra_setup=extra_setup,
        )


WORKLOADS = {cls.name: cls for cls in (PaperTables, PlrgPool, DaemonMix)}
