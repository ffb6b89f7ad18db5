#!/usr/bin/env python3
"""One workload in a process of its own, driven over a pipe by run.py.

run.py starts this script as ``worker.py <workload> <run seed> <package>``,
where package is ``reglab_ref`` (the frozen copy in bench/reference) or
``reglab`` (src/), and sends one request per line:

    setup   import the package afresh and build the workload
    op <i>  run operation i of the workload

Each request is answered with one line, ``ok <seconds>`` (the time the
request took here) or ``error <message>``. EOF on stdin ends the process.

Two uses: the frozen copy runs every operation beside reglab's, apart from
reglab, so that the peak resident set run.py reports is reglab's alone; and a
worker on reglab times a set-up in a fresh interpreter. run.py pins itself
and its workers to one CPU and waits on each reply, so a worker never runs
at the same time as run.py and both see the same core's speed.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "work")
PACKAGES = {"reglab": os.path.join(ROOT, "src"),
            "reglab_ref": os.path.join(HERE, "reference")}


class Worker:
    """run.py's end of the pipe: each call returns the worker's time in s."""

    def __init__(self, workload: str, seed: int, package: str):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), workload, str(seed),
             package],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=ROOT)

    def _ask(self, request: str) -> float:
        self.proc.stdin.write(request + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"worker ended on {request!r}")
        word, _, rest = reply.rstrip("\n").partition(" ")
        if word != "ok":
            raise RuntimeError(f"worker, {request!r}: {rest}")
        return float(rest)

    def setup(self) -> float:
        return self._ask("setup")

    def run(self, index: int) -> float:
        return self._ask(f"op {index}")

    def close(self) -> None:
        """End the worker and wait until it has ended."""
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def serve(workload: str, seed: int, package: str) -> None:
    from workloads import WORKLOADS, fresh_import

    # requests are answered on the original stdout; anything the package
    # prints goes to stderr
    replies = os.fdopen(os.dup(1), "w")
    sys.stdout = sys.stderr
    workdir = os.path.join(WORK, f"{workload}-{package}")
    module = wl = None
    for line in sys.stdin:
        request = line.split()
        t0 = time.perf_counter()
        try:
            if request == ["setup"]:
                module = fresh_import(PACKAGES[package], package)
                wl = WORKLOADS[workload](module, workdir, seed)
                dt = time.perf_counter() - t0
                gc.freeze()  # as run.py does after its set-up
            elif request[0] == "op" and wl is not None:
                wl.run(module, wl.ops[int(request[1])])
                dt = time.perf_counter() - t0
            else:
                raise ValueError(f"bad request {line!r}")
            replies.write(f"ok {dt!r}\n")
        except Exception as exc:
            message = f"{type(exc).__name__}: {exc}".replace("\n", " ")
            replies.write(f"error {message[:500]}\n")
        replies.flush()


if __name__ == "__main__":
    serve(sys.argv[1], int(sys.argv[2]), sys.argv[3])
