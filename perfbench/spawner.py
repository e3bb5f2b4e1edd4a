"""Runs the predict-cli workload's child processes from a small process.

A child's peak RSS, as the kernel reports it, includes the RSS of the
process that spawned it: the pages it shares until it calls exec. The
benchmark process holds numpy, the phantoms and the speed reference, so
children spawned from it would all report its size. This helper imports
only the standard library, so its children report their own peak.

    python3 perfbench/spawner.py

Reads one JSON request per line on stdin, {"cmd", "cwd", "env",
"timeout"}, runs it to the end, and answers with one JSON line,
{"wall_s", "returncode", "stdout", "stderr", "timed_out"}, where wall_s
runs from the spawn to the child being reaped. On end of input it
answers {"peak_rss_mb"}: the largest peak RSS of any child, and exits.

``Spawner`` is the benchmark's side of it.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import time
from typing import Optional


def serve() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            req["cmd"], cwd=req["cwd"], env=req["env"], text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        timed_out = False
        try:
            stdout, stderr = proc.communicate(timeout=req["timeout"])
        except subprocess.TimeoutExpired:
            proc.kill()
            stdout, stderr = proc.communicate()
            timed_out = True
        wall = time.perf_counter() - t0
        reply = {"wall_s": wall, "returncode": proc.returncode, "stdout": stdout, "stderr": stderr,
                 "timed_out": timed_out}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0  # KiB on Linux
    sys.stdout.write(json.dumps({"peak_rss_mb": peak}) + "\n")
    return 0


class Spawner:
    """Starts the helper; `run` runs one command through it; `close` ends
    it and returns the largest child's peak RSS in MB."""

    def __init__(self, cwd: str):
        self._proc: Optional[subprocess.Popen] = subprocess.Popen(
            [sys.executable, __file__], cwd=cwd, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )

    def run(self, cmd, cwd: str, env: dict, timeout: float) -> dict:
        req = {"cmd": cmd, "cwd": cwd, "env": env, "timeout": timeout}
        self._proc.stdin.write(json.dumps(req) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"spawner exited with {self._proc.wait()}")
        return json.loads(line)

    def close(self) -> Optional[float]:
        """Ends the helper and waits for it; the peak RSS, or None if it
        had already gone."""
        proc, self._proc = self._proc, None
        if proc is None:
            return None
        peak = None
        try:
            proc.stdin.close()
            line = proc.stdout.readline()
            if line:
                peak = json.loads(line)["peak_rss_mb"]
        except (OSError, ValueError):
            pass
        finally:
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        return peak


if __name__ == "__main__":
    sys.exit(serve())
