"""Batched asynchronous ingest with bounded-queue backpressure.

PR 8's ingest applied every batch synchronously inside the HTTP handler:
correct, but each POST paid the full apply cost on the request path, and
a burst of writers could stall readers on the state lock.  This module
moves application off the request path without giving up one bit of the
ingest contract:

* **The batch's fate is still decided synchronously.**  At the enqueue
  boundary the batch is parsed and validated against the *effective*
  tails — the applied per-machine tails overlaid with the tails of every
  batch already queued — so ordering violations still 409 and duplicates
  are still counted in the response, exactly as the synchronous path
  answered.  What moves off the request path is only the count
  application, whose outcome validation has already fixed.
* **Bounded queue, explicit backpressure.**  The queue holds at most
  ``max_pending_events`` accepted-but-unapplied events.  A batch that
  would overflow it is rejected with
  :class:`~repro.errors.IngestBackpressureError` (HTTP 429 +
  ``Retry-After``) and leaves no trace — nothing dropped, nothing
  reordered; the client retries the identical batch later.  One
  oversized batch is admitted only into an *empty* queue, so a batch
  larger than the bound is ingestible rather than permanently bounced.
* **FIFO writer.**  A single daemon writer thread drains batches in
  enqueue order and applies each atomically
  (:meth:`~repro.serve.state.ServeState.apply_batch`), so the applied
  event order per machine equals the enqueue order — the same order the
  synchronous path would have produced.
* **Snapshot cadence.**  With ``snapshot_every=N`` the writer invokes
  the snapshot hook after every N applied batches (and :meth:`close`
  always flushes first), bounding how many applied batches a crash can
  lose beyond the last snapshot.

:meth:`flush` blocks until everything enqueued so far is applied — the
determinism point the differential tests (and ``POST /v1/flush``) use to
compare against batch replay.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Union

from ..errors import IngestBackpressureError, ServeError
from .state import IngestResult, ServeState, ValidatedBatch

__all__ = ["AsyncIngester", "IngestQueueStats"]


@dataclass(frozen=True)
class IngestQueueStats:
    """A snapshot of the ingest queue's accounting."""

    #: Accepted-but-unapplied events currently queued.
    depth_events: int
    #: Batches currently queued.
    depth_batches: int
    #: The queue bound (events).
    capacity_events: int
    #: Batches accepted onto the queue since start.
    enqueued_batches: int
    #: Batches the writer has applied.
    applied_batches: int
    #: Batches bounced with 429 (nothing enqueued).
    backpressure_rejections: int
    #: Snapshots the writer has taken.
    snapshots: int
    #: Snapshot attempts that raised (last error kept for /v1/stats).
    snapshot_failures: int


class AsyncIngester:
    """A bounded ingest queue drained by one background writer thread.

    Parameters
    ----------
    state:
        The live state batches validate against and apply to.
    max_pending_events:
        Queue bound: accepted events allowed to sit unapplied.  A batch
        that would overflow is rejected with
        :class:`IngestBackpressureError` unless the queue is empty.
    retry_after:
        The backoff hint (seconds) carried on rejections.
    snapshot_every:
        Take a snapshot after every N applied batches (``None`` = only
        on :meth:`close`).
    snapshot_fn:
        Zero-argument snapshot hook (typically
        ``lambda: state.save_overlay_snapshot(path)``).  Failures are
        counted, never fatal to the writer.
    """

    def __init__(
        self,
        state: ServeState,
        *,
        max_pending_events: int = 100_000,
        retry_after: float = 0.25,
        snapshot_every: Optional[int] = None,
        snapshot_fn: Optional[Callable[[], object]] = None,
    ) -> None:
        if max_pending_events < 1:
            raise ServeError("max_pending_events must be >= 1")
        if retry_after <= 0:
            raise ServeError("retry_after must be positive")
        if snapshot_every is not None and snapshot_every < 1:
            raise ServeError("snapshot_every must be >= 1")
        self._state = state
        self._capacity = max_pending_events
        self._retry_after = retry_after
        self._snapshot_every = snapshot_every
        self._snapshot_fn = snapshot_fn
        self._lock = threading.Lock()
        self._has_work = threading.Condition(self._lock)
        self._drained = threading.Condition(self._lock)
        self._queue: deque[ValidatedBatch] = deque()
        self._depth_events = 0
        # Effective tails = applied tails overlaid with queued batches'.
        # Grows like the state's own tail map (one entry per streamed
        # machine) and stays consistent with it by construction.
        self._shadow_tails: dict = {}
        self._accepted_horizon = 0
        self._applying = False
        self._closed = False
        self._enqueued = 0
        self._applied = 0
        self._rejections = 0
        self._snapshots = 0
        self._snapshot_failures = 0
        self._since_snapshot = 0
        self.last_snapshot_error: Optional[str] = None
        self._writer = threading.Thread(
            target=self._drain, name="fgcs-ingest-writer", daemon=True
        )
        self._writer.start()

    # -- enqueue side ---------------------------------------------------------

    def _tail_of(self, machine_id: int):
        tail = self._shadow_tails.get(machine_id)
        if tail is not None:
            return tail
        return self._state.tail_of(machine_id)

    def validate_only(
        self, events: Iterable[Union[dict, Sequence]], horizon: int = 0
    ) -> ValidatedBatch:
        """Decide a batch's fate against the effective tails, applying
        and enqueuing nothing — the dry-run half of the router's
        two-phase cross-worker ingest."""
        with self._lock:
            self._check_open()
            return self._state.validate_events(events, self._tail_of, horizon)

    def submit(
        self, events: Iterable[Union[dict, Sequence]], horizon: int = 0
    ) -> ValidatedBatch:
        """Validate a batch and enqueue it for application.

        Synchronous contract, deferred application: raises exactly what
        :meth:`ServeState.ingest` would raise (parse errors, ordering
        409s) plus :class:`IngestBackpressureError` when the queue is
        full, and returns the validated batch (same accepted/deduplicated
        counts, plus the projected horizon).  On return the batch is
        durable in the queue and its events are visible to the *next*
        batch's validation.  ``horizon`` declares the days before it
        observed once the batch applies, events or not.
        """
        with self._lock:
            self._check_open()
            batch = self._state.validate_events(events, self._tail_of, horizon)
            n_new = batch.n_accepted
            if n_new and self._depth_events and (
                self._depth_events + n_new > self._capacity
            ):
                self._rejections += 1
                raise IngestBackpressureError(
                    f"ingest queue full ({self._depth_events} events "
                    f"pending, bound {self._capacity}); retry after "
                    f"{self._retry_after}s",
                    retry_after=self._retry_after,
                )
            self._queue.append(batch)
            self._depth_events += n_new
            self._shadow_tails.update(batch.tails)
            self._accepted_horizon = max(self._accepted_horizon, batch.horizon_day)
            self._enqueued += 1
            self._has_work.notify()
            return batch

    @property
    def horizon_day(self) -> int:
        """First unobserved day once every accepted batch is applied —
        the state's horizon, without waiting for the writer."""
        return max(self._state.horizon_day, self._accepted_horizon)

    def _check_open(self) -> None:
        if self._closed:
            raise ServeError("ingest queue is closed")

    # -- writer side ----------------------------------------------------------

    def _drain(self) -> None:
        while True:
            with self._lock:
                while not self._queue and not self._closed:
                    self._has_work.wait()
                if not self._queue:
                    return
                batch = self._queue.popleft()
                self._applying = True
            try:
                self._state.apply_batch(batch)
            finally:
                with self._lock:
                    self._depth_events -= batch.n_accepted
                    self._applied += 1
                    self._applying = False
                    take_snapshot = False
                    if self._snapshot_every is not None and batch.n_accepted:
                        self._since_snapshot += 1
                        if self._since_snapshot >= self._snapshot_every:
                            self._since_snapshot = 0
                            take_snapshot = True
                    if not self._queue:
                        self._drained.notify_all()
            if take_snapshot:
                self.snapshot()

    def snapshot(self) -> bool:
        """Run the snapshot hook now (writer cadence calls this too)."""
        if self._snapshot_fn is None:
            return False
        try:
            self._snapshot_fn()
        except Exception as exc:
            with self._lock:
                self._snapshot_failures += 1
                self.last_snapshot_error = f"{type(exc).__name__}: {exc}"
            return False
        with self._lock:
            self._snapshots += 1
        return True

    # -- lifecycle ------------------------------------------------------------

    def flush(self, timeout: Optional[float] = None) -> bool:
        """Block until every batch enqueued so far is applied."""
        with self._lock:
            return self._drained.wait_for(
                lambda: not self._queue and not self._applying, timeout
            )

    def close(self, timeout: Optional[float] = None) -> None:
        """Drain the queue, stop the writer, take a final snapshot."""
        self.flush(timeout)
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._has_work.notify_all()
        self._writer.join(timeout)
        self.snapshot()

    def stats(self) -> IngestQueueStats:
        with self._lock:
            return IngestQueueStats(
                depth_events=self._depth_events,
                depth_batches=len(self._queue) + (1 if self._applying else 0),
                capacity_events=self._capacity,
                enqueued_batches=self._enqueued,
                applied_batches=self._applied,
                backpressure_rejections=self._rejections,
                snapshots=self._snapshots,
                snapshot_failures=self._snapshot_failures,
            )
