"""Prove that every workload's output check can fail.

For each workload, runs ``run.py --inject-wrong-output`` (the first
output is corrupted before the check) and requires exit code 1 with
``"correct": false``, and that no process the run started outlives it;
then runs the benchmark from a directory holding only
``BENCHMARK.json`` and ``perfbench/`` and requires a non-zero exit with
no result line. Exits 1 if any expectation fails.

Usage, from the repository root (about a minute on 2 CPUs)::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import ctypes
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("attack_train", "challenge_eval", "drive", "serve_stream")
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> bool:
    """Make processes orphaned by our children ours (Linux), so a process
    a run leaves behind shows up in :func:`leftovers`."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def leftovers() -> list:
    """Command lines of our child processes still running, each then
    waited for."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                ppid = int(handle.read().rsplit(")", 1)[1].split()[1])
            if ppid != os.getpid():
                continue
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                found.append(handle.read().replace(b"\0", b" ").decode().strip()
                             or f"pid {entry}")
            os.waitpid(int(entry), 0)
        except (OSError, ChildProcessError, ValueError, IndexError):
            pass
    return found


def run(cwd: str, workload: str, *extra: str) -> subprocess.CompletedProcess:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", "0", "--seconds", "1", "--trace", "0", *extra]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def main() -> int:
    failures = []
    watching = adopt_orphans()
    if not watching:
        print("cannot adopt orphaned processes here; leftover check skipped")
    for workload in WORKLOADS:
        proc = run(ROOT, workload, "--inject-wrong-output")
        result = last_json(proc.stdout)
        caught = proc.returncode == 1 and result is not None and result["correct"] is False
        verdict = proc.stderr.strip().splitlines()[-1] if proc.stderr.strip() else ""
        print(f"{workload:<15} wrong output -> exit {proc.returncode}: {verdict.strip()}")
        if not caught:
            failures.append(f"{workload}: injected wrong output not caught")
        left = leftovers() if watching else []
        if left:
            failures.append(f"{workload}: left processes running: {left}")

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-bare-") as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, WORKLOADS[0])
        print(f"{'bare directory':<15} -> exit {proc.returncode}")
        if proc.returncode == 0 or last_json(proc.stdout) is not None:
            failures.append("bare directory: expected a non-zero exit and no result")

    for failure in failures:
        print("FAIL", failure)
    print("selftest", "FAIL" if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
