"""The benchmark's own tests: ``python3 -m pytest perfbench -q``.

Every workload runs at ``--scale tiny`` through the real entry point, so
these also exercise the child interpreter, the subreaper and the
leftover checks.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import textwrap

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)
WORKLOAD_NAMES = [w["name"] for w in BENCHMARK["workloads"]]


def bench(workload: str, seed: int = 1, trace: int = 0, cwd: str = ROOT):
    """Run the benchmark command at tiny scale; return (code, stdout)."""
    proc = subprocess.run(
        BENCHMARK["command"]
        + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout


def result_of(stdout: str):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def declared(section: str):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_workloads_match_benchmark_json():
    assert WORKLOAD_NAMES == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_untraced_smoke_prints_every_end_to_end_metric(workload):
    code, stdout = bench(workload)
    assert code == 0, stdout
    _info, result = result_of(stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


# Layers each workload bypasses: their per-layer metrics must read zero.
BYPASSED = {
    "paper-tables": ("service.", "runtime.", "engine.pool_efficiency",
                     "layer.service", "layer.runtime"),
    "plrg-pool": ("routing.", "hierarchy.", "service.", "graph.flow_cover",
                  "layer.routing", "layer.hierarchy", "layer.service"),
    "daemon-mix": ("routing.", "hierarchy.", "runtime.", "graph.flow_cover",
                   "engine.pool_efficiency", "layer.routing", "layer.hierarchy"),
}
# Layers each workload must exercise.
EXERCISED = {
    "paper-tables": ("graph.resilience_s", "graph.distortion_s", "graph.balls",
                     "engine.compute_s", "generators.build_s",
                     "graph.flow_cover_calls", "routing.dag_calls",
                     "routing.fraction_calls", "hierarchy.entries",
                     "hierarchy.value_self_s"),
    "plrg-pool": ("graph.bfs_calls", "graph.dict_eval_s", "graph.cover_biconn_s",
                  "runtime.shm_segments", "engine.pool_efficiency", "graph.freeze_s"),
    "daemon-mix": ("service.prepare_s", "service.engine_pass_s", "service.coalesced",
                   "engine.fingerprint_s", "engine.cache_hits", "engine.cache_put_s"),
}


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_runs_report_layers_and_repeat_counts(workload):
    runs = [bench(workload, seed=3, trace=1) for _ in range(2)]
    metrics = []
    for code, stdout in runs:
        assert code == 0, stdout
        _info, result = result_of(stdout)
        assert result["correct"]
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == declared("per_layer")
        metrics.append({name: m["value"] for name, m in result["metrics"].items()})
    first, second = metrics
    for name, unit in declared("per_layer").items():
        if unit == "count":
            assert first[name] == second[name], name
        if name.startswith(BYPASSED[workload]):
            assert first[name] == 0, name
    for name in EXERCISED[workload]:
        assert first[name] > 0, name


def _input_bytes(workload, seed, tmp_path):
    wl = workloads.WORKLOADS[workload]("tiny", str(tmp_path))
    inputs = wl.setup(seed)
    if workload == "paper-tables":
        sec44, sec51 = inputs
        return ([sorted(g.edges()) for _name, g in sec44],
                [sorted(g.edges()) for g, _rels in sec51.values()])
    if workload == "plrg-pool":
        return [inputs.indptr.tolist(), inputs.indices.tolist()]
    blobs = []
    for path in inputs.paths:
        with open(path, encoding="utf-8") as handle:
            blobs.append(handle.read())
    return blobs, inputs.steps


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_seed_fixes_inputs(workload, tmp_path):
    one = _input_bytes(workload, 1, tmp_path / "a")
    assert one == _input_bytes(workload, 1, tmp_path / "b")
    assert one != _input_bytes(workload, 2, tmp_path / "c")


def test_pooled_series_equal_serial_series_bitwise(tmp_path):
    wl = workloads.PlrgPool("tiny", str(tmp_path))
    csr = wl.setup(5)
    _wall, pooled, engine = wl.compute(csr, workers=workloads.POOL_WORKERS)
    assert engine.stats["shm_published"] == 1
    _wall, serial, _engine = wl.compute(csr, workers=0)
    assert pooled == serial


_GUARD = textwrap.dedent("""
    import json, sys
    import run
    run.become_subreaper()
    code, _out, problems = run.run_guarded(
        [sys.executable, "-c", sys.argv[1]], {}, sys.argv[2], 60, 0.5)
    print(json.dumps({"code": code, "problems": problems}))
""")


def guard(child_code: str, cwd) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", _GUARD, child_code, str(cwd)],
        env=dict(os.environ, PYTHONPATH=HERE), capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_leftover_check_passes_a_clean_child(tmp_path):
    assert guard("print('ok')", tmp_path) == {"code": 0, "problems": []}


def test_leftover_check_goes_red_on_an_orphaned_process(tmp_path):
    # The grandchild detaches (setsid) and outlives its parent.
    code = ("import subprocess; subprocess.Popen(['sleep', '30'], "
            "start_new_session=True)")
    problems = guard(code, tmp_path)["problems"]
    assert len(problems) == 1 and "left running" in problems[0]


def test_leftover_check_goes_red_on_shm_and_socket_leftovers(tmp_path):
    code = ("import os; open('/dev/shm/repro-csr-%d-0' % os.getpid(), 'w').close(); "
            "open('daemon.sock', 'w').close()")
    problems = guard(code, tmp_path)["problems"]
    assert any("shared-memory segment" in p for p in problems)
    assert any("socket daemon.sock" in p for p in problems)
    assert not [n for n in os.listdir("/dev/shm") if n.startswith("repro-csr-") and
                n.endswith("-0")]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, stdout = bench("paper-tables", cwd=str(tmp_path))
    assert code != 0
    assert '"metrics"' not in stdout
