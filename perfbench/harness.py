"""Process, HTTP and statistics plumbing shared by every workload.

Everything the benchmark starts goes through :class:`Reaper`, which puts
each child in its own process group and kills and reaps the whole group on
every exit path (normal end, failed check, deadline, SIGINT/SIGTERM).
"""

from __future__ import annotations

import http.client
import json
import math
import os
import re
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional, Sequence


class CheckFailed(Exception):
    """An output check failed: the run reports no numbers."""


class Deadline(Exception):
    """The workload ran past its hard deadline."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# -- statistics ---------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_supported(n: int, q: float, beyond: int = 10) -> bool:
    """True when ``n`` samples leave at least ``beyond`` above the q-th
    percentile, the rule for reporting a tail."""
    return n - math.ceil(q / 100.0 * n) >= beyond


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


# -- processes ----------------------------------------------------------------


def _pgid_members(pgid: int) -> list[int]:
    """Live pids (zombies excluded) whose process group is ``pgid``."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                stat = fh.read().decode("ascii", "replace")
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2 :].split()
        if fields[0] != "Z" and int(fields[2]) == pgid:
            out.append(int(entry))
    return out


def vmhwm_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise CheckFailed(f"no VmHWM for pid {pid}")


class Reaper:
    """Owns every child process group the benchmark starts."""

    def __init__(self, log_dir: Path) -> None:
        self._procs: list[subprocess.Popen] = []
        self._log_dir = log_dir

    def popen(self, argv: Sequence[str], **kwargs) -> subprocess.Popen:
        proc = subprocess.Popen(list(argv), start_new_session=True, **kwargs)
        self._procs.append(proc)
        return proc

    def run_timed(
        self, argv: Sequence[str], *, stdout_path: Optional[Path] = None, **kwargs
    ) -> tuple[float, float]:
        """Run a child to completion; returns ``(wall_s, peak_rss_mb)``.

        The peak is ``ru_maxrss`` from ``wait4``: the largest of the child
        and every descendant it waited for.
        """
        err_path = self._log_dir / "child.err"
        out = open(stdout_path, "wb") if stdout_path else subprocess.DEVNULL
        try:
            with open(err_path, "wb") as err:
                t0 = time.perf_counter()
                proc = self.popen(argv, stdout=out, stderr=err, **kwargs)
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - t0
        finally:
            if stdout_path:
                out.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.kill(proc)
        check(
            proc.returncode == 0,
            f"{' '.join(argv[1:4])}... exited {proc.returncode}: "
            f"{err_path.read_text(errors='replace')[-2000:]}",
        )
        return wall, usage.ru_maxrss / 1024.0

    def kill(self, proc: subprocess.Popen, grace: float = 5.0) -> None:
        """Stop ``proc``'s whole process group and reap ``proc``."""
        for sig, wait_s in ((signal.SIGTERM, grace), (signal.SIGKILL, 10.0)):
            try:
                os.killpg(proc.pid, sig)
            except ProcessLookupError:
                pass
            if self._wait_gone(proc, wait_s):
                self._procs.remove(proc)
                return

    @staticmethod
    def _wait_gone(proc: subprocess.Popen, wait_s: float) -> bool:
        deadline = time.monotonic() + wait_s
        while True:
            if proc.poll() is not None and not _pgid_members(proc.pid):
                return True
            if time.monotonic() > deadline:
                return False
            time.sleep(0.02)

    def close(self) -> None:
        for proc in list(self._procs):
            self.kill(proc, grace=2.0)

    def survivors(self) -> list[int]:
        return [pid for p in self._procs for pid in _pgid_members(p.pid)]


def install_signal_handlers(deadline_s: float) -> None:
    """SIGALRM → :class:`Deadline`; SIGINT and SIGTERM → KeyboardInterrupt
    (SIGINT too, since a shell starts background jobs with it ignored), so
    the ``finally`` blocks that own child processes always run."""

    def on_alarm(signum, frame):
        raise Deadline(f"workload exceeded its {deadline_s:.0f} s deadline")

    def on_term(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGALRM, on_alarm)
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGTERM, on_term)
    signal.alarm(int(deadline_s))


# -- HTTP ----------------------------------------------------------------------


class Conn:
    """One persistent HTTP/1.1 connection to the daemon."""

    def __init__(self, url: str, timeout: float = 60.0) -> None:
        host, port = url.split("//", 1)[1].rsplit(":", 1)
        self._http = http.client.HTTPConnection(host, int(port), timeout=timeout)

    def request(
        self, method: str, path: str, body: Optional[bytes] = None
    ) -> tuple[int, dict]:
        if self._http.sock is None:
            self._http.connect()
            self._http.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        headers = {"Content-Type": "application/json"} if body else {}
        self._http.request(method, path, body=body, headers=headers)
        response = self._http.getresponse()
        data = response.read()
        return response.status, (json.loads(data) if data else {})

    def get(self, path: str) -> dict:
        status, payload = self.request("GET", path)
        check(status == 200, f"GET {path} -> {status}: {payload}")
        return payload

    def close(self) -> None:
        self._http.close()


_URL_RE = re.compile(r" on (http://[0-9.]+:[0-9]+) ")


class Daemon:
    """A ``repro-fgcs serve`` subprocess started with ``--port 0``."""

    def __init__(self, reaper: Reaper, argv: Sequence[str], log_path: Path, **kwargs):
        self.reaper = reaper
        self.argv = list(argv)
        self.log_path = log_path
        self.kwargs = kwargs
        self.proc: Optional[subprocess.Popen] = None
        self.url = ""

    def start(self, timeout: float = 90.0) -> float:
        """Spawn and wait for ``/healthz`` to report ready; returns the
        seconds from spawn to ready."""
        t0 = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.proc = self.reaper.popen(
                self.argv, stdout=subprocess.DEVNULL, stderr=log, **self.kwargs
            )
        deadline = time.monotonic() + timeout
        while not self.url:
            check(self.proc.poll() is None, f"daemon exited: {self.log_tail()}")
            check(time.monotonic() < deadline, "daemon printed no URL in time")
            match = _URL_RE.search(self.log_path.read_text(errors="replace"))
            if match:
                self.url = match.group(1)
            else:
                time.sleep(0.01)
        conn = Conn(self.url, timeout=10.0)
        try:
            while True:
                try:
                    status, payload = conn.request("GET", "/healthz")
                    if status == 200 and payload.get("ready"):
                        break
                except OSError:
                    conn.close()
                check(time.monotonic() < deadline, "daemon never became ready")
                time.sleep(0.01)
        finally:
            conn.close()
        return time.perf_counter() - t0

    def log_tail(self) -> str:
        try:
            return self.log_path.read_text(errors="replace")[-2000:]
        except OSError:
            return ""

    def pids(self) -> list[int]:
        return _pgid_members(self.proc.pid)

    def peak_rss_mb(self) -> float:
        """Sum of VmHWM over the daemon and every process in its group."""
        return sum(vmhwm_mb(pid) for pid in self.pids())

    def stop(self) -> None:
        """Graceful ``/v1/shutdown``, then kill and reap the group."""
        if self.proc is None:
            return
        if self.proc.poll() is None and self.url:
            conn = Conn(self.url, timeout=10.0)
            try:
                conn.request("POST", "/v1/shutdown")
                self.proc.wait(20.0)
            except (OSError, subprocess.TimeoutExpired, http.client.HTTPException):
                pass
            finally:
                conn.close()
        self.reaper.kill(self.proc)


def import_seconds(ctx, module: str, repeats: int = 3) -> float:
    """Median wall time of a fresh interpreter importing ``module``."""
    argv = [sys.executable, "-c", f"import {module}"]
    ctx.reaper.run_timed(argv, env=ctx.env)  # writes the bytecode cache
    return median(
        [ctx.reaper.run_timed(argv, env=ctx.env)[0] for _ in range(repeats)]
    )


def python_env(root: Path, work: Path) -> dict:
    """Environment for program subprocesses: the checkout's sources, and
    caches and temp files kept inside the benchmark's scratch dir."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["TMPDIR"] = str(work)
    env["XDG_CACHE_HOME"] = str(work / "cache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def cli(*args: str) -> list[str]:
    """argv for the ``repro-fgcs`` CLI run from the checkout's sources."""
    return [sys.executable, "-m", "repro.cli", *args]
