"""Server hygiene for the serve workloads: spawn, talk to, stop, account for.

The benchmark drives ``python -m repro.runtime.server`` only through the
shipped launcher and clients (:func:`repro.runtime.client.spawn_server`,
:class:`~repro.runtime.client.RuntimeClient`, stdlib ``http.client``).  This
module adds what a measurement needs around them: the environment the spawned
server must inherit, a guaranteed stop, a check that nothing survived, and the
resident-set peak of every process involved.
"""

from __future__ import annotations

import http.client
import json
import os
import resource
import signal
import subprocess
import time
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: The serving stack under test: two process workers behind both front doors.
SERVER_ARGS = ("--workers", "2", "--pool-mode", "process", "--http-port", "0")


class SurvivorError(RuntimeError):
    """A server or worker process outlived its shutdown."""


def child_environment() -> Dict[str, str]:
    """Environment for every process the benchmark starts.

    ``spawn_server`` inherits the caller's environment, so ``PYTHONPATH`` must
    name this checkout's ``src`` or the server dies before it announces a port.
    Hash seed and BLAS threads are pinned so runs differ only in ``--seed``.
    """
    env = dict(os.environ)
    paths = [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT), str(SRC)] + [p for p in paths if p not in (str(ROOT), str(SRC))])
    env["PYTHONHASHSEED"] = "0"
    env["OMP_NUM_THREADS"] = "1"
    return env


def pin_to_one_cpu() -> None:
    """Confine this process, and every process it starts, to one CPU.

    On the two-vCPU virtual machines this runs on, waking the other vCPU
    costs 0.3-1 ms and varies two-fold from minute to minute, which swamps a
    1 ms reply; on one CPU a hand-over between client, server and worker is a
    context switch.  The price: two workers never overlap, so a call's time
    is the sum of their work, not the slower one's.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def descendants(pid: int) -> List[int]:
    """Every live process below ``pid`` (children of all its threads, deep)."""
    found: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for task in tasks:
        try:
            text = Path(f"/proc/{pid}/task/{task}/children").read_text()
        except OSError:
            continue
        for child in map(int, text.split()):
            found.append(child)
            found.extend(descendants(child))
    return found


def peak_rss_mb(pids: Sequence[int] = ()) -> float:
    """Largest resident-set peak among this process and ``pids``, in MB."""
    peaks = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                peaks.append(int(line.split()[1]) / 1024.0)
    return max(peaks)


class Server:
    """One spawned runtime server with a client on each front door."""

    def __init__(self) -> None:
        from repro.runtime.client import RuntimeClient, spawn_server

        os.environ.update(child_environment())
        self.process, host, port, http_host, http_port = spawn_server(
            list(SERVER_ARGS), expect_http=True)
        try:
            self.client = RuntimeClient(host, port, connect_retries=3)
            self.http = http.client.HTTPConnection(http_host, http_port,
                                                   timeout=60)
        except BaseException:
            self.process.kill()
            self.process.wait()
            raise
        #: Workers (and multiprocessing's tracker) seen under the server.
        self.worker_pids: List[int] = descendants(self.process.pid)

    def pids(self) -> List[int]:
        self.worker_pids = sorted(
            set(self.worker_pids) | set(descendants(self.process.pid)))
        return [self.process.pid] + self.worker_pids

    def post(self, path: str, payload: Any) -> Tuple[int, Any]:
        """One keep-alive HTTP round-trip with a JSON body and JSON reply."""
        self.http.request("POST", path, body=json.dumps(payload),
                          headers={"Content-Type": "application/json"})
        response = self.http.getresponse()
        raw = response.read()
        return response.status, json.loads(raw) if raw else None

    def stats(self) -> Dict[str, Any]:
        return self.client.stats()

    def metric(self, name: str) -> float:
        """Sum of one family's samples in the public ``metrics`` exposition."""
        text = self.client.roundtrip({"op": "metrics"})["text"]
        return sum(float(line.rsplit(" ", 1)[1]) for line in text.splitlines()
                   if line.startswith(name) and line[len(name)] in " {")

    def close(self) -> None:
        """Shut the server down, kill it if that fails, and prove it is gone."""
        from repro.errors import ReproError

        watched = self.pids()
        try:
            self.client.shutdown()
            self.process.wait(timeout=30)
        except (ReproError, OSError, subprocess.TimeoutExpired):
            pass    # the kill below is the fallback
        finally:
            clean = self.process.poll() == 0
            if self.process.poll() is None:
                self.process.kill()
                self.process.wait()
            self.client.close()
            self.http.close()
        survivors = _wait_gone(watched)
        for pid in survivors:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        if survivors:
            raise SurvivorError(f"processes {survivors} survived the server")
        if not clean:
            raise SurvivorError(
                f"server exited with {self.process.returncode}, not a clean 0")


def _wait_gone(pids: Sequence[int], timeout: float = 10.0) -> List[int]:
    """The ``pids`` still alive (zombies excluded) once ``timeout`` is up."""
    deadline = time.monotonic() + timeout
    alive = list(pids)
    while alive:
        alive = [pid for pid in alive if _is_running(pid)]
        if not alive or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    return alive


def _is_running(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"
