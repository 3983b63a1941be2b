"""Command-line interface.

Lets downstream users generate topologies, compute the paper's metrics
on their own edge lists, and classify graphs — without writing Python:

    python -m repro generate plrg --n 2000 --out plrg.edges
    python -m repro info plrg.edges
    python -m repro metric plrg.edges expansion
    python -m repro signature plrg.edges --workers 4
    python -m repro hierarchy plrg.edges

Metric-computing commands (``metric``, ``signature``, ``compare``,
``report``, ``sweep``) run on the shared-ball
:class:`repro.engine.MetricEngine`: ``--workers N`` fans ball centers
across N processes and finished series are cached under
``.repro-cache/`` (disable with ``--no-cache``).  ``--deadline`` /
``--retries`` enable the supervised fault-tolerant runtime; ``sweep``
and ``report`` checkpoint to a ``--journal`` so a killed run restarted
with ``--resume`` recomputes nothing already finished (see
docs/ROBUSTNESS.md).

Unreadable or malformed graph files exit with status 2 and a one-line
``error: <file>: <reason>`` diagnostic instead of a traceback.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Dict, List, Optional

from repro.analysis import (
    SIGNATURE_HINTS,
    signature as metric_signature,
    signature_requests,
)
from repro.engine import MetricEngine, MetricRequest
from repro.runtime import RuntimePolicy
from repro.generators import GraphBuilder, TiersParams, TransitStubParams
from repro.generators import registry as generator_registry
from repro.graph.core import Graph
from repro.graph.io import read_edgelist, write_edgelist
from repro.harness import SWEEP_GRIDS, format_series, format_table
from repro.hierarchy import (
    classify_hierarchy,
    link_value_degree_correlation,
    link_values,
    normalized_rank_distribution,
)
from repro.metrics import degree_ccdf

__all__ = [
    "GENERATORS",
    "METRIC_CHOICES",
    "COMMANDS",
    "CLIError",
    "build_parser",
    "main",
    "cmd_generate",
    "cmd_info",
    "cmd_metric",
    "cmd_signature",
    "cmd_hierarchy",
    "cmd_compare",
    "cmd_report",
    "cmd_sweep",
    "cmd_merge_journals",
    "cmd_selfcheck",
    "cmd_serve",
    "cmd_query",
]


class CLIError(Exception):
    """A user-facing failure: printed as one line, exit status 2."""


def _load_graph(path: str) -> Graph:
    """Read an edge list, converting failures into a :class:`CLIError`
    naming the file (missing files, permissions, malformed lines, no
    edges at all)."""
    try:
        graph = read_edgelist(path)
    except (OSError, UnicodeDecodeError, ValueError) as exc:
        message = str(exc) or exc.__class__.__name__
        if str(path) not in message:
            message = f"{path}: {message}"
        raise CLIError(message) from exc
    if graph.number_of_edges() == 0:
        raise CLIError(f"{path}: edge list has no edges")
    return graph

def _cli_sink(a: argparse.Namespace) -> Optional[GraphBuilder]:
    """A streaming CSR sink when ``--stream`` was given, else None."""
    return GraphBuilder() if getattr(a, "stream", False) else None


# CLI name -> call into the GeneratorSpec registry.  Every entry routes
# through repro.generators.registry.get(name).build(...), so the CLI and
# the library share one front door; ``--stream`` swaps the dict build for
# the streaming CSR builder without changing the per-seed edge set.
GENERATORS: Dict[str, Callable[[argparse.Namespace], Graph]] = {
    name: (
        lambda a, _name=name: generator_registry.get(_name).build(
            a.n, sink=_cli_sink(a), **_cli_params(_name, a)
        )
    )
    for name in generator_registry.available()
}


def _cli_params(name: str, a: argparse.Namespace) -> Dict[str, object]:
    """Map the flat ``generate`` flag namespace onto a spec's params."""
    if name == "tree":
        return {"branching": a.k, "depth": a.depth}
    if name == "mesh":
        return {"rows": a.rows}
    if name == "linear":
        return {}
    if name == "random":
        return {"p": a.p, "seed": a.seed}
    if name == "waxman":
        return {"alpha": a.alpha, "beta": a.beta, "seed": a.seed}
    if name == "transit-stub":
        return {"params": TransitStubParams(), "seed": a.seed}
    if name == "tiers":
        return {"params": TiersParams(), "seed": a.seed}
    if name == "plrg":
        return {"exponent": a.exponent, "seed": a.seed}
    if name in ("ba", "brite"):
        return {"m": a.m, "seed": a.seed}
    if name == "ab":
        return {"m": a.m, "seed": a.seed}
    return {"seed": a.seed}  # glp, inet


def _add_generate(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("generate", help="generate a topology edge list")
    p.add_argument("generator", choices=sorted(GENERATORS))
    p.add_argument("--n", type=int, default=2000, help="node count")
    p.add_argument("--k", type=int, default=3, help="tree branching factor")
    p.add_argument("--depth", type=int, default=6, help="tree depth")
    p.add_argument("--rows", type=int, default=30, help="mesh side")
    p.add_argument("--p", type=float, default=0.002, help="G(n,p) edge prob")
    p.add_argument("--alpha", type=float, default=0.01, help="Waxman alpha")
    p.add_argument("--beta", type=float, default=0.30, help="Waxman beta")
    p.add_argument("--exponent", type=float, default=2.246, help="PLRG beta")
    p.add_argument("--m", type=int, default=2, help="links per node (BA/Brite)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--stream",
        action="store_true",
        help=(
            "build through the streaming GraphBuilder (constant-factor "
            "memory; same edge set per seed)"
        ),
    )
    p.add_argument("--out", required=True, help="output edge-list path")


# CLI spelling (dashed) -> engine metric name; degree-ccdf is computed
# directly (it is a whole-graph distribution, not a ball series).
METRIC_CHOICES: Dict[str, Optional[str]] = {
    "expansion": "expansion",
    "resilience": "resilience",
    "distortion": "distortion",
    "vertex-cover": "vertex_cover",
    "biconnectivity": "biconnectivity",
    "clustering": "clustering",
    "path-length": "path_length",
    "degree-ccdf": None,
}

# Axis labels for `metric` output, per engine metric.
_SERIES_LABELS: Dict[str, tuple] = {
    "expansion": ("E(h)", "h", "E"),
    "resilience": ("R(n)", "n", "R"),
    "distortion": ("D(n)", "n", "D"),
    "vertex_cover": ("vertex cover", "n", "cover"),
    "biconnectivity": ("biconnectivity", "n", "#bicomp"),
    "clustering": ("clustering", "n", "C"),
    "path_length": ("path length", "n", "len"),
}


def _add_graph_command(sub, name: str, help_text: str, extra=None) -> None:
    p = sub.add_parser(name, help=help_text)
    p.add_argument("edgelist", help="edge-list file (see `generate`)")
    if extra:
        extra(p)


def _add_engine_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes for ball centers (0 = serial)",
    )
    p.add_argument(
        "--no-cache",
        action="store_true",
        help="do not read or write the .repro-cache/ series cache",
    )
    p.add_argument(
        "--deadline",
        type=float,
        default=None,
        help=(
            "per-center deadline in seconds; enables the supervised "
            "fault-tolerant runtime (retries, pool respawn, degradation)"
        ),
    )
    p.add_argument(
        "--retries",
        type=int,
        default=None,
        help="retries per center before degrading (enables the runtime)",
    )


def _runtime_policy(args: argparse.Namespace) -> Optional[RuntimePolicy]:
    """The runtime policy implied by ``--deadline``/``--retries``.

    Without either flag this is ``None``: the engine runs fail-fast
    (one attempt per center, first error aborts), or under a default
    policy when ``REPRO_FAULTS`` injects faults — the engine decides that.
    """
    deadline = getattr(args, "deadline", None)
    retries = getattr(args, "retries", None)
    if deadline is None and retries is None:
        return None
    policy = RuntimePolicy()
    if deadline is not None:
        policy.deadline = deadline
    if retries is not None:
        policy.retries = retries
    return policy


def _make_engine(
    args: argparse.Namespace, journal: Optional[str] = None
) -> MetricEngine:
    return MetricEngine(
        workers=args.workers,
        use_cache=not args.no_cache,
        runtime=_runtime_policy(args),
        journal=journal,
    )


def _version() -> str:
    """The installed distribution version, falling back to the source
    tree's ``repro.__version__`` when running uninstalled."""
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:
        from repro import __version__

        return __version__


def _parse_tcp(text: str) -> tuple:
    """``host:port`` -> ``(host, port)`` for --tcp flags."""
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdigit():
        raise argparse.ArgumentTypeError(
            f"expected HOST:PORT, got {text!r}"
        )
    return (host or "127.0.0.1", int(port))


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse CLI (exposed for shell-completion tooling)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction toolkit for 'Network Topology Generators: "
            "Degree-Based vs. Structural' (SIGCOMM 2002)."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {_version()}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_generate(sub)
    _add_graph_command(sub, "info", "node/edge/degree summary")
    _add_graph_command(
        sub,
        "metric",
        "compute one metric series",
        extra=lambda p: (
            p.add_argument("metric_name", choices=sorted(METRIC_CHOICES)),
            p.add_argument("--centers", type=int, default=12),
            p.add_argument("--max-ball", type=int, default=900),
            p.add_argument("--seed", type=int, default=1),
            _add_engine_flags(p),
        ),
    )
    _add_graph_command(
        sub,
        "signature",
        "classify the graph's L/H signature (Section 4.4)",
        extra=lambda p: (
            p.add_argument("--centers", type=int, default=12),
            p.add_argument("--max-ball", type=int, default=900),
            p.add_argument("--seed", type=int, default=1),
            _add_engine_flags(p),
        ),
    )
    _add_graph_command(
        sub,
        "hierarchy",
        "link values + strict/moderate/loose class (Section 5)",
        extra=lambda p: p.add_argument("--seed", type=int, default=1),
    )
    compare = sub.add_parser(
        "compare", help="side-by-side metric report for several edge lists"
    )
    compare.add_argument("edgelists", nargs="+", help="edge-list files")
    compare.add_argument("--centers", type=int, default=6)
    compare.add_argument("--max-ball", type=int, default=500)
    compare.add_argument("--out", help="also write the markdown report here")
    _add_engine_flags(compare)
    report_p = sub.add_parser(
        "report",
        help=(
            "markdown comparison report with checkpoint/resume: a killed "
            "run restarted with --resume recomputes nothing finished"
        ),
    )
    report_p.add_argument("edgelists", nargs="+", help="edge-list files")
    report_p.add_argument("--centers", type=int, default=8)
    report_p.add_argument("--max-ball", type=int, default=700)
    report_p.add_argument("--seed", type=int, default=1)
    report_p.add_argument("--out", help="also write the markdown report here")
    report_p.add_argument(
        "--journal",
        default=".repro-report.jsonl",
        help="checkpoint journal path (JSONL, append-only)",
    )
    report_p.add_argument(
        "--resume",
        action="store_true",
        help="reload the journal and skip already-completed work",
    )
    _add_engine_flags(report_p)
    sweep_p = sub.add_parser(
        "sweep",
        help=(
            "Appendix C parameter sweep with checkpoint/resume "
            "(--classify attaches L/H signatures)"
        ),
    )
    sweep_p.add_argument(
        "--generator",
        action="append",
        dest="generators",
        choices=sorted(SWEEP_GRIDS),
        metavar="NAME",
        help="sweep only this generator (repeatable); default: all",
    )
    sweep_p.add_argument(
        "--classify",
        action="store_true",
        help="compute expansion/resilience/distortion signatures",
    )
    sweep_p.add_argument("--centers", type=int, default=6)
    sweep_p.add_argument("--max-ball", type=int, default=700)
    sweep_p.add_argument("--seed", type=int, default=5)
    sweep_p.add_argument(
        "--journal",
        default=".repro-sweep.jsonl",
        help="checkpoint journal path (JSONL, append-only)",
    )
    sweep_p.add_argument(
        "--resume",
        action="store_true",
        help="reload the journal and skip already-completed work",
    )
    sweep_p.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help=(
            "partition the sweep into N disjoint shards; this process "
            "computes only shard --shard-id, journaling to "
            "<journal>.shard-K.jsonl (merge with `repro merge-journals`)"
        ),
    )
    sweep_p.add_argument(
        "--shard-id",
        type=int,
        default=None,
        metavar="K",
        help="which shard of --shards this process computes (0-based)",
    )
    sweep_p.add_argument(
        "--lease-stale-after",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "take over a shard lease whose heartbeat is older than this "
            "(default 300); the lease guards each shard's segment"
        ),
    )
    _add_engine_flags(sweep_p)
    merge_p = sub.add_parser(
        "merge-journals",
        help=(
            "merge a partitioned sweep's journal segments into one "
            "canonical journal, byte-identical to an unsharded run "
            "(holes and missing shards exit non-zero)"
        ),
    )
    merge_p.add_argument(
        "--journal",
        default=".repro-sweep.jsonl",
        help="the base journal path the sharded sweep was aimed at",
    )
    merge_p.add_argument(
        "--out",
        default=None,
        help=(
            "write the merged journal here (default: the base journal "
            "path, so `repro sweep --resume` can fill any holes)"
        ),
    )
    merge_p.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="override the manifest's shard count",
    )
    selfcheck = sub.add_parser(
        "selfcheck",
        help=(
            "differential correctness fuzzer: graph routines vs. "
            "brute-force oracles and networkx, metric invariants, "
            "engine equivalence, determinism"
        ),
    )
    selfcheck.add_argument(
        "--rounds", type=int, default=50, help="random inputs per check family"
    )
    selfcheck.add_argument("--seed", type=int, default=0)
    selfcheck.add_argument(
        "--family",
        action="append",
        dest="families",
        metavar="NAME",
        help="run only this family (repeatable); default: all",
    )
    _add_serve(sub)
    _add_query(sub)
    return parser


def _add_serve(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "serve",
        help=(
            "run the long-lived analysis daemon (newline-delimited JSON "
            "over a unix socket; see docs/SERVICE.md)"
        ),
    )
    p.add_argument(
        "--socket",
        default=None,
        help=f"unix socket path (default {_service_default_socket()!r})",
    )
    p.add_argument(
        "--tcp",
        type=_parse_tcp,
        default=None,
        metavar="HOST:PORT",
        help="also listen on TCP (port 0 picks a free port)",
    )
    p.add_argument(
        "--max-pending",
        type=int,
        default=32,
        help="queue watermark past which requests answer 'busy'",
    )
    p.add_argument(
        "--cache-dir",
        default=None,
        help="series cache directory (default .repro-cache/)",
    )
    p.add_argument(
        "--max-cache-entries",
        type=int,
        default=None,
        help="LRU bound on cached series count (default unbounded)",
    )
    p.add_argument(
        "--max-cache-bytes",
        type=int,
        default=None,
        help="LRU bound on cached series bytes (default unbounded)",
    )
    _add_engine_flags(p)


def _add_query(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "query",
        help="send one request to a running `repro serve` daemon",
    )
    p.add_argument(
        "--socket",
        default=None,
        help=f"daemon unix socket (default {_service_default_socket()!r})",
    )
    p.add_argument(
        "--tcp",
        type=_parse_tcp,
        default=None,
        metavar="HOST:PORT",
        help="connect over TCP instead of the unix socket",
    )
    p.add_argument(
        "--request-deadline",
        type=float,
        default=None,
        help="per-request deadline in seconds, enforced by the daemon",
    )
    ops = p.add_subparsers(dest="query_op", required=True)
    metric = ops.add_parser("metric", help="one metric series")
    metric.add_argument("edgelist", help="edge-list path on the daemon host")
    metric.add_argument(
        "metric_name",
        choices=sorted(n for n, e in METRIC_CHOICES.items() if e is not None),
    )
    metric.add_argument("--centers", type=int, default=12)
    metric.add_argument("--max-ball", type=int, default=900)
    metric.add_argument("--seed", type=int, default=1)
    signature = ops.add_parser("signature", help="the L/H signature")
    signature.add_argument("edgelist", help="edge-list path on the daemon host")
    signature.add_argument("--centers", type=int, default=12)
    signature.add_argument("--max-ball", type=int, default=900)
    signature.add_argument("--seed", type=int, default=1)
    compare = ops.add_parser("compare", help="markdown comparison report")
    compare.add_argument("edgelists", nargs="+")
    compare.add_argument("--centers", type=int, default=6)
    compare.add_argument("--max-ball", type=int, default=500)
    compare.add_argument("--out", help="also write the report here")
    sweep_row = ops.add_parser("sweep-row", help="one Appendix-C sweep row")
    sweep_row.add_argument("generator", choices=sorted(SWEEP_GRIDS))
    sweep_row.add_argument(
        "--param",
        action="append",
        dest="params",
        default=[],
        metavar="NAME=VALUE",
        help="generator parameter (repeatable), e.g. --param n=400",
    )
    sweep_row.add_argument("--classify", action="store_true")
    sweep_row.add_argument("--centers", type=int, default=6)
    sweep_row.add_argument("--max-ball", type=int, default=700)
    sweep_row.add_argument("--seed", type=int, default=5)
    sweep_shard = ops.add_parser(
        "sweep-shard",
        help="run one shard of a partitioned sweep on the daemon host",
    )
    sweep_shard.add_argument(
        "--journal", required=True,
        help="base journal path on the daemon host",
    )
    sweep_shard.add_argument("--shards", type=int, required=True, metavar="N")
    sweep_shard.add_argument(
        "--shard-id", type=int, required=True, metavar="K"
    )
    sweep_shard.add_argument(
        "--generator",
        action="append",
        dest="generators",
        choices=sorted(SWEEP_GRIDS),
        metavar="NAME",
        help="sweep only this generator (repeatable); default: all",
    )
    sweep_shard.add_argument("--classify", action="store_true")
    sweep_shard.add_argument("--centers", type=int, default=6)
    sweep_shard.add_argument("--max-ball", type=int, default=700)
    sweep_shard.add_argument("--seed", type=int, default=5)
    sweep_shard.add_argument("--resume", action="store_true")
    sweep_shard.add_argument(
        "--lease-stale-after", type=float, default=None, metavar="SECONDS"
    )
    ops.add_parser("status", help="daemon queue/coalescing/cache counters")
    ops.add_parser("shutdown", help="ask the daemon to drain and exit")


def _service_default_socket() -> str:
    from repro.service import DEFAULT_SOCKET

    return DEFAULT_SOCKET


def cmd_generate(args: argparse.Namespace) -> int:
    """``generate``: write a generated topology as an edge list."""
    graph = GENERATORS[args.generator](args)
    write_edgelist(graph, args.out, header=f"generated by repro: {graph.name}")
    print(
        f"wrote {graph.name}: {graph.number_of_nodes()} nodes, "
        f"{graph.number_of_edges()} edges -> {args.out}"
    )
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    """``info``: node/edge/degree summary of an edge list."""
    graph = _load_graph(args.edgelist)
    degrees = sorted(graph.degrees().values())
    rows = [
        ["nodes", graph.number_of_nodes()],
        ["edges", graph.number_of_edges()],
        ["avg degree", f"{graph.average_degree():.2f}"],
        ["max degree", graph.max_degree()],
        ["median degree", degrees[len(degrees) // 2] if degrees else 0],
    ]
    print(format_table(["property", "value"], rows))
    return 0


def cmd_metric(args: argparse.Namespace) -> int:
    """``metric``: one metric series for an edge list."""
    graph = _load_graph(args.edgelist)
    engine_name = METRIC_CHOICES[args.metric_name]
    if engine_name is None:
        print(format_series("degree CCDF", degree_ccdf(graph), "k", "P(>=k)"))
        return 0
    params = {"num_centers": args.centers, "seed": args.seed}
    if engine_name != "expansion":
        params["max_ball_size"] = args.max_ball
    series = _make_engine(args).compute_one(graph, engine_name, **params)
    title, x_label, y_label = _SERIES_LABELS[engine_name]
    print(format_series(title, series, x_label, y_label))
    return 0


def cmd_signature(args: argparse.Namespace) -> int:
    """``signature``: the Section 4.4 L/H classification of a graph.

    All three basic metrics come from one shared engine pass, so
    resilience and distortion grow each ball once between them.
    """
    graph = _load_graph(args.edgelist)
    series = _make_engine(args).compute(
        graph,
        signature_requests(args.centers, args.max_ball, args.seed),
    )
    sig = metric_signature(
        series["expansion"],
        series["resilience"],
        series["distortion"],
        graph.number_of_nodes(),
    )
    _print_signature(sig)
    return 0


def _print_signature(sig: str) -> None:
    """Signature output shared by ``signature`` and ``query signature``
    (the request construction is shared too, via
    :func:`repro.analysis.signature_requests` — that pairing is what
    keeps daemon answers byte-identical to local runs)."""
    print(f"signature (expansion/resilience/distortion): {sig}")
    if sig in SIGNATURE_HINTS:
        print(f"interpretation: {SIGNATURE_HINTS[sig]}")


def cmd_hierarchy(args: argparse.Namespace) -> int:
    """``hierarchy``: Section 5 link values and hierarchy class."""
    graph = _load_graph(args.edgelist)
    if graph.number_of_nodes() > 900:
        print(
            "warning: link values are quadratic in nodes; this may take "
            "a long time (the paper used graph cores for the same reason)",
            file=sys.stderr,
        )
    values = link_values(graph, seed=args.seed)
    dist = normalized_rank_distribution(values, graph.number_of_nodes())
    print(format_series("link values", dist, "rank", "value"))
    print(f"hierarchy class: {classify_hierarchy(dist)}")
    corr = link_value_degree_correlation(graph, values)
    print(f"link-value/min-degree correlation: {corr:+.2f}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    """``compare``: side-by-side markdown report for edge lists."""
    from repro.harness import ReportInput, generate_report

    items = []
    for path in args.edgelists:
        name = os.path.splitext(os.path.basename(path))[0]
        items.append(ReportInput(name, _load_graph(path)))
    report = generate_report(
        items,
        num_centers=args.centers,
        max_ball_size=args.max_ball,
        workers=args.workers,
        use_cache=not args.no_cache,
        runtime=_runtime_policy(args),
    )
    print(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """``report``: checkpointed markdown report over edge lists.

    Every finished topology (and every finished metric center) is
    appended to ``--journal``; rerunning with ``--resume`` after a crash
    or Ctrl-C skips everything already journaled.
    """
    from repro.harness import ReportInput, generate_report
    from repro.runtime import Journal

    items = []
    for path in args.edgelists:
        name = os.path.splitext(os.path.basename(path))[0]
        items.append(ReportInput(name, _load_graph(path)))
    journal = Journal(args.journal)
    if args.resume:
        journal.load()
        _warn_corrupt_lines(args.journal, journal.corrupt_lines)
    else:
        journal.reset()
    report = generate_report(
        items,
        num_centers=args.centers,
        max_ball_size=args.max_ball,
        seed=args.seed,
        workers=args.workers,
        use_cache=not args.no_cache,
        runtime=_runtime_policy(args),
        journal=journal,
        resume=args.resume,
    )
    print(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report)
    return 0


def _warn_corrupt_lines(path: str, corrupt_lines: int) -> None:
    """One-line stderr notice when resume quarantined journal records."""
    if corrupt_lines:
        print(
            f"warning: {path}: quarantined {corrupt_lines} corrupt "
            "journal record(s) on load (work they held will be "
            "recomputed)",
            file=sys.stderr,
        )


def cmd_sweep(args: argparse.Namespace) -> int:
    """``sweep``: the Appendix C parameter sweep, checkpointed.

    All selected generators share one ``--journal``; ``--shards N
    --shard-id K`` computes only shard K's rows into the shard's own
    journal segment under a heartbeat lease (docs/ROBUSTNESS.md,
    "Partitioned sweeps").
    """
    from repro.harness import render_sweep_table, run_sweep
    from repro.runtime import DEFAULT_STALE_AFTER, LeaseHeldError, ManifestError

    if (args.shards is None) != (args.shard_id is None):
        raise CLIError("--shards and --shard-id must be given together")
    if args.shards is not None and args.shards <= 0:
        raise CLIError(f"--shards must be positive, got {args.shards}")
    if args.shards is not None and not 0 <= args.shard_id < args.shards:
        raise CLIError(
            f"--shard-id must be in [0, {args.shards}), got {args.shard_id}"
        )
    try:
        run = run_sweep(
            args.generators,
            classify=args.classify,
            num_centers=args.centers,
            max_ball_size=args.max_ball,
            seed=args.seed,
            workers=args.workers,
            use_cache=not args.no_cache,
            runtime=_runtime_policy(args),
            journal=args.journal,
            resume=args.resume,
            num_shards=args.shards,
            shard_id=args.shard_id,
            lease_stale_after=(
                args.lease_stale_after
                if args.lease_stale_after is not None
                else DEFAULT_STALE_AFTER
            ),
        )
    except (LeaseHeldError, ManifestError, ValueError) as exc:
        raise CLIError(str(exc)) from exc
    if args.resume:
        _warn_corrupt_lines(run.segment or args.journal, run.corrupt_lines)
    print(render_sweep_table(run.rows))
    if run.shard_id is not None:
        print(
            f"shard {run.shard_id}/{run.num_shards}: "
            f"{len(run.rows)} row(s) -> {run.segment}"
        )
        print(
            f"merge when all shards are done: "
            f"repro merge-journals --journal {args.journal}"
        )
    resumed = run.resumed_rows
    if resumed:
        print(
            f"{resumed}/{len(run.rows)} rows restored from "
            f"{run.segment or args.journal}"
        )
    return 0


def cmd_merge_journals(args: argparse.Namespace) -> int:
    """``merge-journals``: reassemble a partitioned sweep's journal.

    Prints the merged sweep table (byte-identical to what the unsharded
    ``repro sweep`` would have printed) and the merge summary.  Holes or
    missing shard segments are reported explicitly and exit with status
    3, so orchestration scripts can tell "merged clean" from "rerun the
    missing shards first".
    """
    from repro.harness import render_sweep_table, rows_from_journal
    from repro.runtime import ManifestError, merge_segments, read_manifest

    try:
        report = merge_segments(
            args.journal, out=args.out, num_shards=args.shards
        )
        manifest = read_manifest(args.journal)
    except (ManifestError, ValueError) as exc:
        raise CLIError(str(exc)) from exc
    rows = rows_from_journal(report.out, manifest["rows"])
    print(render_sweep_table(rows))
    print(f"merged -> {report.out}: {report.summary()}")
    for hole in report.holes:
        print(
            f"hole: row {hole['index']} (shard {hole['shard']}): "
            f"{hole['key']}",
            file=sys.stderr,
        )
    if report.missing_shards:
        print(
            "missing segments: rerun those shards with --resume, or "
            "finish holes with `repro sweep --resume --journal "
            f"{report.out}`",
            file=sys.stderr,
        )
    return 0 if report.ok else 3


def cmd_selfcheck(args: argparse.Namespace) -> int:
    """``selfcheck``: the repro.testing differential/fuzzing harness.

    Exit status is non-zero iff any check failed, so CI can gate on it;
    ``--rounds``/``--seed`` make every failure reproducible.
    """
    from repro.testing.selfcheck import run_selfcheck

    try:
        report = run_selfcheck(
            rounds=args.rounds, seed=args.seed, families=args.families
        )
    except ValueError as exc:  # --rounds below 1, unknown --family name
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if report.ok else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """``serve``: the long-lived analysis daemon (docs/SERVICE.md).

    Binds the unix socket (and ``--tcp`` listener), then serves until
    ``SIGTERM``/``SIGINT`` or a ``shutdown`` request drains it: admitted
    work is finished and answered before the sockets close.
    """
    from repro.service import DEFAULT_SOCKET, ReproServer

    socket_path = args.socket
    if socket_path is None and args.tcp is None:
        socket_path = DEFAULT_SOCKET
    server = ReproServer(
        socket_path=socket_path,
        tcp=args.tcp,
        max_pending=args.max_pending,
        workers=args.workers,
        use_cache=not args.no_cache,
        cache_dir=args.cache_dir,
        runtime=_runtime_policy(args),
        cache_max_entries=args.max_cache_entries,
        cache_max_bytes=args.max_cache_bytes,
    )
    where = []
    if socket_path is not None:
        where.append(f"unix:{socket_path}")
    print(f"repro serve: listening on {', '.join(where) or 'tcp'}", flush=True)
    server.serve_forever()
    print("repro serve: drained, bye", flush=True)
    return 0


def _sweep_row_params(pairs: List[str]) -> Dict[str, object]:
    """``--param n=400`` pairs -> a generator kwargs dict (ints, floats
    and strings, like the sweep grids use)."""
    params: Dict[str, object] = {}
    for pair in pairs:
        name, sep, text = pair.partition("=")
        if not sep or not name:
            raise CLIError(f"--param expects NAME=VALUE, got {pair!r}")
        try:
            value: object = int(text)
        except ValueError:
            try:
                value = float(text)
            except ValueError:
                value = text
        params[name] = value
    return params


def cmd_query(args: argparse.Namespace) -> int:
    """``query``: one request to a running daemon, printed exactly as
    the equivalent local command would print it."""
    import json as _json

    from repro.service import DEFAULT_SOCKET, ServiceClient, ServiceError

    socket_path = args.socket
    if socket_path is None and args.tcp is None:
        socket_path = DEFAULT_SOCKET
    deadline = args.request_deadline
    try:
        with ServiceClient(socket_path=socket_path, tcp=args.tcp) as client:
            if args.query_op == "metric":
                engine_name = METRIC_CHOICES[args.metric_name]
                params = {"num_centers": args.centers, "seed": args.seed}
                if engine_name != "expansion":
                    params["max_ball_size"] = args.max_ball
                series = client.metric(
                    args.edgelist, engine_name, params=params, deadline=deadline
                )
                title, x_label, y_label = _SERIES_LABELS[engine_name]
                print(format_series(title, series, x_label, y_label))
            elif args.query_op == "signature":
                result = client.signature(
                    args.edgelist,
                    centers=args.centers,
                    max_ball=args.max_ball,
                    seed=args.seed,
                    deadline=deadline,
                )
                _print_signature(result["signature"])
            elif args.query_op == "compare":
                report = client.compare(
                    args.edgelists,
                    centers=args.centers,
                    max_ball=args.max_ball,
                    deadline=deadline,
                )
                print(report)
                if args.out:
                    with open(args.out, "w", encoding="utf-8") as handle:
                        handle.write(report)
            elif args.query_op == "sweep-row":
                row = client.sweep_row(
                    args.generator,
                    _sweep_row_params(args.params),
                    classify=args.classify,
                    centers=args.centers,
                    max_ball=args.max_ball,
                    seed=args.seed,
                    deadline=deadline,
                )
                print(
                    format_table(
                        ["generator", "params", "nodes", "avg deg",
                         "signature", "status"],
                        [[
                            row["generator"],
                            row["params"],
                            row["nodes"],
                            f"{row['average_degree']:.2f}",
                            row["signature"] or "-",
                            row["status"] or "-",
                        ]],
                    )
                )
            elif args.query_op == "sweep-shard":
                from repro.harness import SweepRow, render_sweep_table

                result = client.sweep_shard(
                    args.journal,
                    args.shards,
                    args.shard_id,
                    generators=args.generators,
                    classify=args.classify,
                    centers=args.centers,
                    max_ball=args.max_ball,
                    seed=args.seed,
                    resume=args.resume,
                    stale_after=args.lease_stale_after,
                    deadline=deadline,
                )
                rows = [SweepRow(**row) for row in result["rows"]]
                print(render_sweep_table(rows))
                print(
                    f"shard {result['shard']}/{result['num_shards']}: "
                    f"{len(rows)} row(s) -> {result['segment']}"
                )
            elif args.query_op == "status":
                print(_json.dumps(client.status(), indent=2, sort_keys=True))
            elif args.query_op == "shutdown":
                client.shutdown()
                print("daemon draining")
    except ServiceError as exc:
        raise CLIError(f"daemon refused request ({exc.code}): {exc}") from exc
    except (ConnectionError, OSError) as exc:
        target = socket_path if args.tcp is None else f"{args.tcp}"
        raise CLIError(
            f"cannot reach daemon at {target}: {exc} (is `repro serve` running?)"
        ) from exc
    return 0


COMMANDS = {
    "generate": cmd_generate,
    "info": cmd_info,
    "metric": cmd_metric,
    "signature": cmd_signature,
    "hierarchy": cmd_hierarchy,
    "compare": cmd_compare,
    "report": cmd_report,
    "sweep": cmd_sweep,
    "merge-journals": cmd_merge_journals,
    "selfcheck": cmd_selfcheck,
    "serve": cmd_serve,
    "query": cmd_query,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    ``Ctrl-C`` anywhere inside a subcommand exits with the conventional
    130 (128+SIGINT) and a one-line notice instead of a traceback.
    """
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
