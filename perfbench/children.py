"""Run the configcount CLI as child processes, one at a time.

Each child's peak RSS comes from ``os.wait4`` on that child alone;
``RUSAGE_CHILDREN`` would be a running maximum over every child so far.
Output goes to files, so a large stdout never blocks on a pipe.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class ChildResult:
    code: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def child_env(src: Path, pycache: Path) -> dict[str, str]:
    """Environment for every child: the checkout's sources, a bytecode cache of our own."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(src)
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    return env


def run_cli(args, cwd: Path, env: dict[str, str]) -> ChildResult:
    """``python -m configcount <args>`` in ``cwd``; wall time, peak RSS and stdout."""
    return run([sys.executable, "-m", "configcount", *args], cwd, env)


def run(argv, cwd: Path, env: dict[str, str], timeout_s: float = 60.0) -> ChildResult:
    """``argv`` in ``cwd``; wall time, peak RSS and stdout."""
    out_path, err_path = cwd / ".stdout", cwd / ".stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        # A hung child is killed at the deadline and reported by its signal status.
        timer = threading.Timer(timeout_s, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                       out_path.read_text(encoding="utf-8", errors="replace"),
                       err_path.read_text(encoding="utf-8", errors="replace"))

