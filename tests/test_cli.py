"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.graph.io import read_edgelist, write_edgelist
from repro.generators import kary_tree, plrg


def test_generate_writes_edgelist(tmp_path, capsys):
    out = tmp_path / "tree.edges"
    code = main(["generate", "tree", "--k", "2", "--depth", "4", "--out", str(out)])
    assert code == 0
    graph = read_edgelist(out)
    assert graph.number_of_nodes() == 31
    assert "wrote" in capsys.readouterr().out


def test_generate_plrg_seeded(tmp_path):
    out1 = tmp_path / "a.edges"
    out2 = tmp_path / "b.edges"
    main(["generate", "plrg", "--n", "300", "--seed", "5", "--out", str(out1)])
    main(["generate", "plrg", "--n", "300", "--seed", "5", "--out", str(out2)])
    assert out1.read_text() == out2.read_text()


def test_info(tmp_path, capsys):
    out = tmp_path / "g.edges"
    write_edgelist(kary_tree(2, 3), out)
    assert main(["info", str(out)]) == 0
    text = capsys.readouterr().out
    assert "nodes" in text and "15" in text


def test_metric_expansion(tmp_path, capsys):
    out = tmp_path / "g.edges"
    write_edgelist(kary_tree(3, 4), out)
    assert main(["metric", str(out), "expansion"]) == 0
    assert "E(h)" in capsys.readouterr().out


def test_metric_degree_ccdf(tmp_path, capsys):
    out = tmp_path / "g.edges"
    write_edgelist(plrg(200, 2.3, seed=1), out)
    assert main(["metric", str(out), "degree-ccdf"]) == 0
    assert "CCDF" in capsys.readouterr().out


def test_signature_command(tmp_path, capsys):
    out = tmp_path / "g.edges"
    write_edgelist(plrg(400, 2.246, seed=2), out)
    code = main(
        ["signature", str(out), "--centers", "5", "--max-ball", "300"]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "signature" in text


def test_hierarchy_command(tmp_path, capsys):
    out = tmp_path / "g.edges"
    write_edgelist(kary_tree(3, 3), out)
    assert main(["hierarchy", str(out)]) == 0
    text = capsys.readouterr().out
    assert "hierarchy class" in text
    assert "strict" in text


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_generate_requires_out():
    with pytest.raises(SystemExit):
        main(["generate", "tree"])


def test_compare_command(tmp_path, capsys):
    a = tmp_path / "tree.edges"
    b = tmp_path / "plrg.edges"
    write_edgelist(kary_tree(3, 4), a)
    write_edgelist(plrg(300, 2.246, seed=4), b)
    out = tmp_path / "report.md"
    code = main(
        [
            "compare",
            str(a),
            str(b),
            "--centers",
            "4",
            "--max-ball",
            "150",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "tree" in text and "plrg" in text
    assert out.read_text().startswith("# Topology comparison report")


# ----------------------------------------------------------------------
# Hardening: bad input files exit 2 with a one-line diagnostic
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "argv",
    [
        ["info", "{path}"],
        ["metric", "{path}", "expansion"],
        ["signature", "{path}", "--centers", "3"],
        ["hierarchy", "{path}"],
        ["compare", "{path}"],
    ],
    ids=["info", "metric", "signature", "hierarchy", "compare"],
)
def test_missing_graph_file_exits_2_naming_the_file(tmp_path, capsys, argv):
    path = str(tmp_path / "does-not-exist.edges")
    code = main([arg.format(path=path) for arg in argv])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "does-not-exist.edges" in err
    assert len(err.strip().splitlines()) == 1  # one line, no traceback


def test_malformed_graph_file_exits_2_naming_the_file(tmp_path, capsys):
    path = tmp_path / "broken.edges"
    path.write_text("0 1\nnot an edge\n2 3\n")
    code = main(["metric", str(path), "expansion"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "broken.edges" in err


def test_compare_reports_bad_file_even_after_good_ones(tmp_path, capsys):
    good = tmp_path / "good.edges"
    write_edgelist(kary_tree(2, 3), good)
    bad = tmp_path / "bad.edges"
    bad.write_text("1 2\n7\n")  # short line: not an edge
    code = main(["compare", str(good), str(bad)])
    assert code == 2
    assert "bad.edges" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["info", "{path}"],
        ["signature", "{path}", "--centers", "3", "--no-cache"],
        ["hierarchy", "{path}"],
        ["compare", "{path}"],
        ["report", "{path}", "--no-cache", "--journal", "{journal}"],
    ],
    ids=["info", "signature", "hierarchy", "compare", "report"],
)
def test_edge_list_without_edges_exits_2(tmp_path, capsys, argv):
    # An empty (comments-only) edge list used to print a signature of
    # nothing, or crash deep in the hierarchy classifier.
    path = tmp_path / "empty.edges"
    path.write_text("# no edges here\n\n")
    journal = str(tmp_path / "j.jsonl")
    code = main([arg.format(path=path, journal=journal) for arg in argv])
    assert code == 2
    err = capsys.readouterr().err
    assert err.strip() == f"error: {path}: edge list has no edges"


# ----------------------------------------------------------------------
# sweep / report commands with checkpoint + resume
# ----------------------------------------------------------------------

def test_sweep_command_runs_and_resumes(tmp_path, capsys):
    journal = str(tmp_path / "sweep.jsonl")
    argv = [
        "sweep", "--generator", "glp", "--centers", "3",
        "--max-ball", "200", "--journal", journal,
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert "glp" in first

    assert main(argv + ["--resume"]) == 0
    resumed = capsys.readouterr().out
    assert "(resumed)" in resumed
    assert "restored from" in resumed


def test_report_command_writes_markdown_and_resumes(tmp_path, capsys):
    edges = tmp_path / "g.edges"
    write_edgelist(plrg(250, 2.246, seed=4), edges)
    out = tmp_path / "report.md"
    journal = str(tmp_path / "report.jsonl")
    argv = [
        "report", str(edges), "--centers", "3", "--max-ball", "150",
        "--journal", journal, "--out", str(out), "--no-cache",
    ]
    assert main(argv) == 0
    capsys.readouterr()
    assert out.read_text().startswith("# Topology comparison report")

    assert main(argv + ["--resume"]) == 0
    assert "Restored from checkpoint journal" in capsys.readouterr().out


def test_report_journals_centers_without_runtime_flags(tmp_path, capsys):
    # No --deadline/--retries: the per-center journal is still written,
    # so a killed report resumes mid-topology, not just between rows.
    edges = tmp_path / "g.edges"
    write_edgelist(plrg(250, 2.246, seed=4), edges)
    journal = tmp_path / "report.jsonl"
    argv = [
        "report", str(edges), "--centers", "3", "--max-ball", "150",
        "--journal", str(journal), "--no-cache",
    ]
    assert main(argv) == 0
    capsys.readouterr()
    keys = [json.loads(line)["k"] for line in journal.read_text().splitlines()]
    assert any(key.startswith("center|") for key in keys)
    assert keys[-1].startswith("reportrow|")


# ----------------------------------------------------------------------
# Partitioned sweeps: --shards / --shard-id / merge-journals
# ----------------------------------------------------------------------

@pytest.fixture
def tiny_sweep_grid():
    from repro.generators import erdos_renyi
    from repro.harness import SWEEP_GRIDS

    SWEEP_GRIDS["tinycli"] = (
        erdos_renyi,
        [{"n": 14, "p": 0.3}, {"n": 16, "p": 0.3}, {"n": 18, "p": 0.28}],
    )
    try:
        yield "tinycli"
    finally:
        del SWEEP_GRIDS["tinycli"]


@pytest.mark.parametrize(
    "extra",
    [
        ["--shards", "2"],                       # missing --shard-id
        ["--shard-id", "0"],                     # missing --shards
        ["--shards", "0", "--shard-id", "0"],    # non-positive N
        ["--shards", "2", "--shard-id", "2"],    # K out of [0, N)
        ["--shards", "2", "--shard-id", "-1"],
    ],
    ids=["no-id", "no-shards", "zero-shards", "id-too-big", "id-negative"],
)
def test_sweep_shard_flag_validation_exits_2(tmp_path, capsys, extra):
    journal = str(tmp_path / "sweep.jsonl")
    code = main(["sweep", "--journal", journal] + extra)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "shard" in err.lower()


def test_sharded_sweep_cli_merges_identical_to_unsharded(
    tmp_path, capsys, tiny_sweep_grid
):
    plain = str(tmp_path / "plain.jsonl")
    base_argv = ["sweep", "--generator", tiny_sweep_grid, "--no-cache"]
    assert main(base_argv + ["--journal", plain]) == 0
    plain_out = capsys.readouterr().out

    sharded = str(tmp_path / "sharded.jsonl")
    for shard in ("0", "1"):
        code = main(
            base_argv
            + ["--journal", sharded, "--shards", "2", "--shard-id", shard]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert f"shard {shard}/2" in out
        assert "merge-journals" in out

    assert main(["merge-journals", "--journal", sharded]) == 0
    merged_out = capsys.readouterr().out
    # The merged journal and the rendered table both reassemble exactly.
    assert (
        (tmp_path / "sharded.jsonl").read_bytes()
        == (tmp_path / "plain.jsonl").read_bytes()
    )
    plain_lines = plain_out.splitlines()
    assert merged_out.splitlines()[: len(plain_lines)] == plain_lines
    assert "rows merged" in merged_out


def test_merge_journals_reports_holes_and_exits_3(
    tmp_path, capsys, tiny_sweep_grid
):
    base = str(tmp_path / "sweep.jsonl")
    assert main([
        "sweep", "--generator", tiny_sweep_grid, "--no-cache",
        "--journal", base, "--shards", "2", "--shard-id", "0",
    ]) == 0
    capsys.readouterr()
    # Shard 1 never ran: the merge must say so and exit 3.
    assert main(["merge-journals", "--journal", base]) == 3
    captured = capsys.readouterr()
    assert "missing segments" in captured.err
    assert "hole: row 1" in captured.err


def test_merge_journals_without_manifest_exits_2(tmp_path, capsys):
    code = main(["merge-journals", "--journal", str(tmp_path / "no.jsonl")])
    assert code == 2
    assert "no sweep manifest" in capsys.readouterr().err


def test_sweep_resume_warns_about_corrupt_journal_records(
    tmp_path, capsys, tiny_sweep_grid
):
    journal = tmp_path / "sweep.jsonl"
    argv = [
        "sweep", "--generator", tiny_sweep_grid, "--no-cache",
        "--journal", str(journal),
    ]
    assert main(argv) == 0
    capsys.readouterr()
    with open(journal, "a", encoding="utf-8") as handle:
        handle.write('{"k": "torn-by-a-crash\n')
    assert main(argv + ["--resume"]) == 0
    captured = capsys.readouterr()
    assert "quarantined 1 corrupt journal record(s)" in captured.err
    assert str(journal) in captured.err


def test_report_resume_warns_about_corrupt_journal_records(tmp_path, capsys):
    edges = tmp_path / "g.edges"
    write_edgelist(kary_tree(2, 3), edges)
    journal = tmp_path / "report.jsonl"
    argv = [
        "report", str(edges), "--centers", "3", "--max-ball", "100",
        "--journal", str(journal), "--no-cache",
    ]
    assert main(argv) == 0
    capsys.readouterr()
    with open(journal, "a", encoding="utf-8") as handle:
        handle.write('{"k": "torn-by-a-crash\n')
    assert main(argv + ["--resume"]) == 0
    captured = capsys.readouterr()
    assert "quarantined 1 corrupt journal record(s)" in captured.err


# ----------------------------------------------------------------------
# version / interrupt behavior
# ----------------------------------------------------------------------

def test_version_flag(capsys):
    import repro

    with pytest.raises(SystemExit) as exit_info:
        main(["--version"])
    assert exit_info.value.code == 0
    assert repro.__version__ in capsys.readouterr().out


def test_keyboard_interrupt_exits_130(tmp_path, capsys, monkeypatch):
    """Ctrl-C in any subcommand: one-line notice, conventional 128+SIGINT
    exit status, no traceback."""
    from repro import cli

    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setitem(cli.COMMANDS, "info", interrupted)
    assert cli.main(["info", "whatever"]) == 130
    err = capsys.readouterr().err
    assert err == "interrupted\n"


@pytest.mark.parametrize("rounds", ["0", "-3"])
def test_selfcheck_rounds_below_one_exits_2(capsys, rounds):
    code = main(["selfcheck", "--rounds", rounds, "--family", "kernels"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "rounds" in captured.err
    assert captured.out == ""  # no family ran
