"""Background resource sampler: a bounded time series of process vitals.

A :class:`ResourceSampler` is a daemon thread that periodically reads
this process's resource usage — resident set size, cumulative CPU time,
open file descriptors, and block I/O bytes — into an in-memory time
series, then snapshots it for the run manifest's ``resources`` section
(schema v6) and the Chrome-trace counter track.  It turns claims like
"the fleet analysis stays under a 256 MB RSS ceiling" from a benchmark
assertion into first-class evidence attached to every telemetered run.

Sources, in order of preference:

* ``/proc/self/status`` (``VmRSS``) and ``/proc/self/stat`` for current
  RSS and CPU time, ``/proc/self/fd`` for the descriptor count, and
  ``/proc/self/io`` for cumulative read/write bytes — all Linux;
* portable fallbacks where ``/proc`` is unavailable: peak RSS via
  ``resource.getrusage`` (a monotone stand-in for current RSS) and CPU
  time via ``time.process_time``; fd and I/O series are omitted.

The series is **bounded**: when the buffer reaches ``max_samples`` it is
decimated (every second sample dropped) and the sampling interval
doubles, so a run of any length keeps at most ``max_samples`` points
with uniform spacing — the standard trick for fixed-memory monitoring.

The sampler never touches run *results* — it only reads ``/proc`` — and
it is only started by the CLI when telemetry output was requested
(``--metrics-out`` / ``--trace-out``), preserving the zero-cost-when-
disabled contract.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Optional

__all__ = ["ResourceSampler", "process_start", "read_process_stats"]

#: Fields every sample carries (missing sources report ``None``).
SAMPLE_FIELDS = (
    "rss_bytes",
    "cpu_seconds",
    "open_fds",
    "read_bytes",
    "write_bytes",
)

_PAGE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096
_CLK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def _proc_rss_bytes() -> Optional[int]:
    try:
        with open("/proc/self/statm", "rb") as fh:
            return int(fh.read().split()[1]) * _PAGE
    except (OSError, ValueError, IndexError):
        return None


def _proc_cpu_seconds() -> Optional[float]:
    try:
        with open("/proc/self/stat", "rb") as fh:
            fields = fh.read().rsplit(b")", 1)[1].split()
        # utime + stime are fields 14/15 of stat; after stripping the
        # "pid (comm)" prefix they are at offsets 11 and 12.
        return (int(fields[11]) + int(fields[12])) / _CLK
    except (OSError, ValueError, IndexError):
        return None


def process_start() -> Optional[float]:
    """When this process started, as a ``time.perf_counter()`` reading.

    ``/proc/self/stat`` field 22 (``starttime``) counts clock ticks since
    boot, so the process's age is ``CLOCK_BOOTTIME`` now minus it; the
    result is good to one tick (10 ms at 100 Hz).  ``None`` where
    ``/proc`` or ``CLOCK_BOOTTIME`` is unavailable.
    """
    try:
        with open("/proc/self/stat", "rb") as fh:
            fields = fh.read().rsplit(b")", 1)[1].split()
        # After stripping the "pid (comm)" prefix, field 22 is offset 19.
        started = int(fields[19]) / _CLK
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return None
    return time.perf_counter() - age


def _proc_open_fds() -> Optional[int]:
    try:
        return len(os.listdir("/proc/self/fd"))
    except OSError:
        return None


def _proc_io_bytes() -> tuple[Optional[int], Optional[int]]:
    try:
        read_bytes = write_bytes = None
        with open("/proc/self/io", "rb") as fh:
            for line in fh:
                if line.startswith(b"read_bytes:"):
                    read_bytes = int(line.split(b":")[1])
                elif line.startswith(b"write_bytes:"):
                    write_bytes = int(line.split(b":")[1])
        return read_bytes, write_bytes
    except (OSError, ValueError):
        return None, None


def read_process_stats() -> dict:
    """One sample of this process's vitals (portable; ``None`` = unknown)."""
    rss = _proc_rss_bytes()
    if rss is None:
        from .worker import max_rss_bytes

        # No /proc: fall back to the peak RSS, which at least bounds the
        # current value and keeps the series monotone.
        rss = max_rss_bytes() or None
    cpu = _proc_cpu_seconds()
    if cpu is None:
        cpu = time.process_time()
    read_bytes, write_bytes = _proc_io_bytes()
    return {
        "rss_bytes": rss,
        "cpu_seconds": cpu,
        "open_fds": _proc_open_fds(),
        "read_bytes": read_bytes,
        "write_bytes": write_bytes,
    }


class ResourceSampler:
    """Daemon-thread sampler with a decimating, fixed-size buffer."""

    def __init__(
        self, interval: float = 0.05, max_samples: int = 512
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        if max_samples < 8:
            raise ValueError("max_samples must be >= 8")
        self.interval = float(interval)
        self.max_samples = int(max_samples)
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._t: list[float] = []
        self._columns: dict[str, list] = {f: [] for f in SAMPLE_FIELDS}
        self._t0 = 0.0
        self.epoch_unix = 0.0

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "ResourceSampler":
        """Begin sampling (idempotent); takes an immediate first sample."""
        if self._thread is not None:
            return self
        self._t0 = time.perf_counter()
        self.epoch_unix = time.time()
        self._sample()
        self._thread = threading.Thread(
            target=self._run, name="repro-obs-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the thread and take one final sample (idempotent)."""
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None
        self._sample()

    def __enter__(self) -> "ResourceSampler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- sampling -------------------------------------------------------------

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self._sample()

    def _sample(self) -> None:
        stats = read_process_stats()
        now = time.perf_counter() - self._t0
        with self._lock:
            self._t.append(round(now, 4))
            for f in SAMPLE_FIELDS:
                self._columns[f].append(stats[f])
            if len(self._t) >= self.max_samples:
                # Decimate: keep every second sample, double the interval.
                # The buffer stays bounded with uniform spacing for runs
                # of any length.
                self._t = self._t[::2]
                for f in SAMPLE_FIELDS:
                    self._columns[f] = self._columns[f][::2]
                self.interval *= 2.0

    # -- export ---------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._t)

    def snapshot(self) -> dict:
        """The bounded series plus peaks, JSON-ready for the manifest.

        Series whose source was unavailable for every sample (e.g.
        ``open_fds`` without ``/proc``) are omitted rather than emitted
        as columns of ``null``.
        """
        from .worker import max_rss_bytes

        with self._lock:
            t = list(self._t)
            columns = {f: list(v) for f, v in self._columns.items()}
        samples: dict = {"t_s": t}
        for f in SAMPLE_FIELDS:
            if any(v is not None for v in columns[f]):
                samples[f] = columns[f]
        peak: dict = {}
        for f in ("rss_bytes", "open_fds"):
            values = [v for v in columns[f] if v is not None]
            if values:
                peak[f] = max(values)
        cpu = [v for v in columns["cpu_seconds"] if v is not None]
        if cpu:
            peak["cpu_seconds"] = max(cpu)
        return {
            "interval_s": self.interval,
            "n_samples": len(t),
            "samples": samples,
            "peak": peak,
            "max_rss_bytes": max_rss_bytes(),
        }
