"""Benchmark entry point: one run of one workload, printed as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The workload runs in a fresh
child interpreter (``child.py``) inside a work directory under
``.perfbench-work/``, so every run starts from the same state: no warm
registry, no cache, no journal.  This process makes itself the child
subreaper, so any process the run starts (pool workers, the
multiprocessing resource tracker) is re-parented here if it outlives its
parent.  After the child exits it waits for all of them; any process
still alive after a short grace period, any new ``/dev/shm/repro-csr-*``
segment and any socket file left in the work directory count as a failed
run.  The last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from typing import List, Optional, Set, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")
SHM_DIR = "/dev/shm"
SHM_PREFIX = "repro-csr-"
PR_SET_CHILD_SUBREAPER = 36
CHILD_TIMEOUT_S = 170.0
LEFTOVER_GRACE_S = 3.0
# Settings that would change which code paths the program takes.
SCRUBBED_ENV = ("REPRO_BATCH", "REPRO_TRANSPORT", "REPRO_FAULTS")


def become_subreaper() -> bool:
    """Adopt orphaned descendants (Linux ``PR_SET_CHILD_SUBREAPER``)."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        prctl = libc.prctl
    except (OSError, AttributeError):
        return False
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    return prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0


def children_of(pid: int) -> List[int]:
    """Live (or unreaped) processes whose parent is ``pid``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                stat = handle.read()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[1]) == pid:
            found.append(int(entry))
    return found


def reap() -> None:
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def settle_descendants(grace: float) -> List[int]:
    """Wait up to ``grace`` seconds for every child to end.

    Returns the pids that were still alive (they are killed and reaped).
    """
    deadline = time.monotonic() + grace
    while True:
        reap()
        alive = children_of(os.getpid())
        if not alive:
            return []
        if time.monotonic() >= deadline:
            break
        time.sleep(0.05)
    for pid in alive:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    for pid in alive:
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass
    return alive


def shm_segments() -> Set[str]:
    try:
        return {n for n in os.listdir(SHM_DIR) if n.startswith(SHM_PREFIX)}
    except OSError:
        return set()


def run_guarded(
    argv: List[str], env: dict, cwd: str, timeout: float, grace: float
) -> Tuple[int, str, List[str]]:
    """Run ``argv`` and check what it leaves behind.

    Returns ``(exit code, stdout, problems)``; ``problems`` names every
    leftover process, shared-memory segment and socket file (each is
    removed).  The caller must be the child subreaper for leftovers of
    grandchildren to be seen.
    """
    shm_before = shm_segments()
    problems: List[str] = []
    # Standard output goes to a file, not a pipe: a leftover process
    # holding the pipe open would otherwise stall the read.
    out_path = os.path.join(cwd, "child.out")
    with open(out_path, "wb") as out:
        child = subprocess.Popen(
            argv, env=env, cwd=cwd, stdout=out, start_new_session=True
        )
        try:
            child.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
            problems.append(f"timed out after {timeout:.0f} s")
    with open(out_path, "rb") as out:
        stdout = out.read()
    os.unlink(out_path)
    for pid in settle_descendants(grace):
        problems.append(f"process {pid} left running")
    for name in sorted(shm_segments() - shm_before):
        problems.append(f"shared-memory segment {name} left behind")
        try:
            os.unlink(os.path.join(SHM_DIR, name))
        except OSError:
            pass
    for dirpath, _dirs, files in os.walk(cwd):
        for name in files:
            if name.endswith(".sock"):
                problems.append(f"socket {name} left behind")
    return child.returncode, stdout.decode("utf-8", "replace"), problems


def parse_result(stdout: str) -> Optional[dict]:
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs for the benchmark's own tests")
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"error: no program source under {src}", file=sys.stderr)
        return 2
    become_subreaper()
    workdir = os.path.join(WORK_ROOT, f"run-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env.update(
        PYTHONPATH=os.pathsep.join([src, HERE]),
        PYTHONHASHSEED="0",
        TMPDIR=workdir,
    )
    command = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--scale", args.scale,
    ]
    try:
        code, stdout, problems = run_guarded(
            command, env, workdir, CHILD_TIMEOUT_S, LEFTOVER_GRACE_S
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    result = parse_result(stdout)
    if code != 0 or result is None:
        sys.stderr.write(stdout)
        print(f"error: the {args.workload} run failed (exit {code})", file=sys.stderr)
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        return 1
    lines = stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if problems:
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        result["correct"] = False
        result["failed"] += 1
        result["attempted"] += 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
