"""Block-level paging of predictor count state over an on-disk shard store.

PR 8's cold tier paged *whole shards*: a touch of any machine rebuilt the
shard's full ``(machines, n_days, 24)`` count block.  At 10³ machines
that is fine; at 10⁵–10⁶ a single shard's block is tens to hundreds of
megabytes and the resident-set ceiling is effectively ``hot_shards ×
shard_block`` — far too coarse to serve a million-machine fleet under a
fixed RSS budget.

:class:`BlockPager` replaces that with **fixed-size machine-range
blocks**: each shard's machine range is chopped into pieces of
``block_machines`` machines, and only the touched block's counts are
(re)built.

Two access patterns, two policies:

* **Point lookups** (:meth:`BlockPager.counts` / :meth:`BlockPager.cell`)
  go through a plain LRU: a resident block is a *hit*; a missing one is
  a *rebuild*, admitted as most-recently-used, and the least-recently
  used blocks are *evicted* until the bounds hold again.
* **Fleet sweeps** (:meth:`BlockPager.sweep`) visit every owned block
  once, so an LRU smaller than the fleet would evict, on every sweep,
  exactly the block the sweep needs next.  A sweep is therefore
  scan-resistant: it yields the resident blocks first (each a *hit*),
  then builds each missing block (each a *rebuild*) and admits it only
  while the bounds still have room; otherwise the block serves this
  sweep and is dropped.  A sweep never evicts, so it leaves the point
  lookups' working set exactly as it found it.

Rebuilds are cheap after a block's first touch.  The first touch
verifies the shard (below), memory-maps it, and locates the block's
event rows with two binary searches on the (machine-sorted)
``machine_id`` column — touching ``O(log n)`` pages, *not* the whole
file.  For binary shards it then records the block's byte offset and
row count, so every later rebuild reads exactly those rows with one
``np.fromfile`` — no header parse, no map.  The counts come from one
``bincount`` over the rows, and nothing of the file stays mapped, so
evicted or swept-through state really leaves the resident set.  JSONL
shards have no fixed row layout; they keep a one-deep parse cache.

Exactness: a block's counts are the corresponding machine rows of
:func:`repro.serve.state.counts_from_columns` on the whole shard —
integer event counts binned with the same ``np.divmod`` arithmetic, so
restriction to a machine sub-range commutes with counting and every
answer served through paging equals the unpaged (and batch) answer
exactly.  ``tests/test_serve_paging.py`` pins this, block size by block
size, through eviction churn and interleaved sweeps.

Verification: the shard file's SHA-256 is checked against the manifest
**once per shard** (first block touch), not per rebuild — per-rebuild
hashing would re-read the whole file and defeat the point of paging.
Corrupted-after-first-touch files still fail loudly: a rebuild that
reads fewer rows than it recorded raises :class:`TraceError`, and the
fingerprint pins the content the serve process started from.

``block_machines=None`` keeps whole-shard blocks (PR 8 behavior): every
block spans exactly one shard, and ``max_blocks`` bounds resident
*shards* — which is what the pre-existing ``--hot-shards`` flag still
means.
"""

from __future__ import annotations

import bisect
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional

import numpy as np

from ..errors import ServeError, TraceError
from ..traces.records import EVENT_DTYPE, EventColumns
from ..traces.shards import ShardedTraceDataset, _sha256_file
from ..units import DAY, HOUR

__all__ = ["BlockInfo", "BlockPager", "PagerStats"]


@dataclass(frozen=True)
class BlockInfo:
    """One pageable block: a machine sub-range of one shard."""

    index: int
    shard: int
    #: Global machine range ``[lo, hi)`` the block covers.
    lo: int
    hi: int

    @property
    def n_machines(self) -> int:
        return self.hi - self.lo


@dataclass(frozen=True)
class PagerStats:
    """A snapshot of the pager's accounting."""

    #: Blocks currently resident.
    resident_blocks: int
    #: Bytes of resident count blocks.
    resident_bytes: int
    #: Touches answered from a resident block (point lookups, and each
    #: resident block a sweep visits).
    hits: int
    #: Block (re)builds — the page-miss count, including the blocks a
    #: sweep builds and drops without admitting.
    rebuilds: int
    #: Resident blocks dropped to satisfy the bounds (point lookups only;
    #: sweeps never evict).
    evictions: int
    #: Total blocks in the table.
    n_blocks: int
    #: Configured block size (``None`` = whole-shard blocks).
    block_machines: Optional[int]


def counts_from_event_rows(
    rows: np.ndarray, n_machines: int, n_days: int, machine_base: int = 0
) -> np.ndarray:
    """Bin event rows into an ``(n_machines, n_days, 24)`` count block.

    The same ``np.divmod`` / ``np.floor_divide`` binning as
    :func:`repro.serve.state.counts_from_columns`, applied to an
    arbitrary slice of an event table whose machine ids start at
    ``machine_base`` — the block-restricted form of the whole-shard
    count matrix.
    """
    shape = (n_machines, n_days, 24)
    if rows.size == 0 or n_days == 0:
        return np.zeros(shape, dtype=np.int64)
    day, rem = np.divmod(rows["start"], DAY)
    hour = np.floor_divide(rem, HOUR).astype(np.int64)
    day = day.astype(np.int64)
    keep = day < n_days
    flat = (
        (rows["machine_id"].astype(np.int64)[keep] - machine_base)
        * (n_days * 24)
        + day[keep] * 24
        + hour[keep]
    )
    counts = np.bincount(flat, minlength=n_machines * n_days * 24)
    return counts.astype(np.int64, copy=False).reshape(shape)


class BlockPager:
    """An LRU of fixed-machine-range count blocks over a shard store.

    Parameters
    ----------
    store:
        The on-disk shard store blocks rebuild from.
    shard_lo, shard_hi:
        The contiguous shard range ``[shard_lo, shard_hi)`` this pager
        owns (a scale-out worker owns a slice of the fleet; the default
        is every shard).
    block_machines:
        Machines per block.  ``None`` keeps one block per shard.
    max_blocks:
        Resident-block ceiling (``None`` = unbounded).
    max_bytes:
        Resident-byte ceiling (``None`` = unbounded).  Both bounds may
        be active; eviction runs until both hold, always keeping at
        least one block resident.
    verify:
        Check each shard file's SHA-256 against the manifest on the
        shard's first block touch.

    Not internally locked: :class:`~repro.serve.state.ServeState` calls
    under its own lock, which also serializes the counters (and a sweep
    is consumed whole under that lock).
    """

    def __init__(
        self,
        store: ShardedTraceDataset,
        *,
        shard_lo: int = 0,
        shard_hi: Optional[int] = None,
        block_machines: Optional[int] = None,
        max_blocks: Optional[int] = None,
        max_bytes: Optional[int] = None,
        verify: bool = True,
    ) -> None:
        if block_machines is not None and block_machines < 1:
            raise ServeError("block_machines must be >= 1")
        if max_blocks is not None and max_blocks < 1:
            raise ServeError("max_blocks must be >= 1")
        if max_bytes is not None and max_bytes <= 0:
            raise ServeError("max_bytes must be positive")
        shard_hi = store.n_shards if shard_hi is None else shard_hi
        if not 0 <= shard_lo < shard_hi <= store.n_shards:
            raise ServeError(
                f"shard range [{shard_lo}, {shard_hi}) outside the store's "
                f"[0, {store.n_shards})"
            )
        self._store = store
        self._block_machines = block_machines
        self._max_blocks = max_blocks
        self._max_bytes = max_bytes
        self._verify = verify
        self.n_days = store.n_days
        self.blocks: list[BlockInfo] = []
        for s in range(shard_lo, shard_hi):
            info = store.manifest.shards[s]
            step = (
                info.n_machines
                if block_machines is None
                else block_machines
            )
            lo = info.machine_lo
            while lo < info.machine_hi:
                hi = min(lo + step, info.machine_hi)
                self.blocks.append(
                    BlockInfo(len(self.blocks), s, lo, hi)
                )
                lo = hi
        self.machine_lo = self.blocks[0].lo
        self.machine_hi = self.blocks[-1].hi
        self._block_los = [b.lo for b in self.blocks]
        self._lru: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self._resident_bytes = 0
        self._hits = 0
        self._rebuilds = 0
        self._evictions = 0
        self._verified: set[int] = set()
        # Binary-shard blocks already touched once: block index ->
        # (shard path, byte offset of the block's first event row, rows).
        self._rows: dict[int, tuple[Path, int, int]] = {}
        # One-deep cache of parsed columns for JSONL shards, so scanning
        # consecutive blocks of the same (non-zero-copy) shard parses the
        # file once, not once per block.
        self._jsonl_cache: Optional[tuple[int, EventColumns]] = None
        self._jsonl_lock = threading.Lock()

    # -- lookup ---------------------------------------------------------------

    def block_of(self, machine_id: int) -> int:
        """The block index owning a (global) machine id."""
        if not self.machine_lo <= machine_id < self.machine_hi:
            raise ServeError(
                f"machine {machine_id} outside the paged range "
                f"[{self.machine_lo}, {self.machine_hi})"
            )
        return bisect.bisect_right(self._block_los, machine_id) - 1

    def counts(self, block_id: int) -> np.ndarray:
        """The block's ``(n_machines, n_days, 24)`` counts, paging it in."""
        block = self._lru.get(block_id)
        if block is not None:
            self._lru.move_to_end(block_id)
            self._hits += 1
            return block
        block = self._build(self.blocks[block_id])
        self._rebuilds += 1
        self._admit(block_id, block)
        self._evict()
        return block

    def sweep(self) -> Iterator[tuple[BlockInfo, np.ndarray]]:
        """Every owned block once, with its counts — scan-resistant.

        Resident blocks come first (hits), then each missing block is
        built (a rebuild) and admitted only if the bounds still have
        room; otherwise it is yielded and dropped.  A sweep never evicts
        and never reorders the LRU.  Blocks arrive out of machine order:
        callers write each block's own rows.
        """
        resident = list(self._lru.items())
        for block_id, block in resident:
            self._hits += 1
            yield self.blocks[block_id], block
        seen = {block_id for block_id, _ in resident}
        for info in self.blocks:
            if info.index in seen:
                continue
            block = self._build(info)
            self._rebuilds += 1
            if self._within_bounds(
                len(self._lru) + 1, self._resident_bytes + block.nbytes
            ):
                self._admit(info.index, block)
            yield info, block

    def cell(self, machine_id: int, day: int, hour: int) -> int:
        """One machine-day-hour count, paging the owning block in."""
        info_id = self.block_of(machine_id)
        info = self.blocks[info_id]
        return int(self.counts(info_id)[machine_id - info.lo, day, hour])

    def stats(self) -> PagerStats:
        return PagerStats(
            resident_blocks=len(self._lru),
            resident_bytes=self._resident_bytes,
            hits=self._hits,
            rebuilds=self._rebuilds,
            evictions=self._evictions,
            n_blocks=len(self.blocks),
            block_machines=self._block_machines,
        )

    # -- internals ------------------------------------------------------------

    def _admit(self, block_id: int, block: np.ndarray) -> None:
        self._lru[block_id] = block
        self._resident_bytes += block.nbytes

    def _within_bounds(self, n_blocks: int, nbytes: int) -> bool:
        return (self._max_blocks is None or n_blocks <= self._max_blocks) and (
            self._max_bytes is None or nbytes <= self._max_bytes
        )

    def _evict(self) -> None:
        while len(self._lru) > 1 and not self._within_bounds(
            len(self._lru), self._resident_bytes
        ):
            _, evicted = self._lru.popitem(last=False)
            self._resident_bytes -= evicted.nbytes
            self._evictions += 1

    def _check_shard(self, shard: int) -> None:
        if shard in self._verified or not self._verify:
            return
        info = self._store.manifest.shards[shard]
        path = self._store.root / info.path
        try:
            digest = _sha256_file(path)
        except OSError as exc:
            raise TraceError(f"cannot read shard {path}: {exc}") from exc
        if digest != info.sha256:
            raise TraceError(
                f"shard {info.path} content fingerprint mismatch "
                f"(expected {info.sha256[:12]}…, got {digest[:12]}…); "
                "the file was corrupted or replaced"
            )
        self._verified.add(shard)

    def _shard_columns(self, shard: int) -> tuple[EventColumns, bool]:
        """The shard's event columns and whether the shard is binary: a
        fresh zero-copy map for binary shards, a one-deep parse cache for
        JSONL shards."""
        from ..traces.binio import is_binary_trace, open_columns

        info = self._store.manifest.shards[shard]
        path = self._store.root / info.path
        self._check_shard(shard)
        if is_binary_trace(path):
            _, columns, _ = open_columns(path, mmap=True)
            return columns, True
        with self._jsonl_lock:
            cached = self._jsonl_cache
            if cached is not None and cached[0] == shard:
                return cached[1], False
        from ..traces.io import load_dataset

        columns = EventColumns.from_dataset(load_dataset(path))
        with self._jsonl_lock:
            self._jsonl_cache = (shard, columns)
        return columns, False

    def _first_touch_rows(self, block: BlockInfo) -> np.ndarray:
        """Locate a block's event rows in its shard file.

        Binary shards: the mmap lives only for the duration of this call
        (the two ``searchsorted`` probes touch ``O(log n)`` pages), and
        the block's byte range is recorded so later rebuilds skip the
        header, the map and the probes.
        """
        shard_info = self._store.manifest.shards[block.shard]
        columns, binary = self._shard_columns(block.shard)
        if columns.n_machines != shard_info.n_machines:
            raise TraceError(
                f"shard {shard_info.path} holds {columns.n_machines} "
                f"machines, manifest says {shard_info.n_machines}"
            )
        # Shard files hold shard-local machine ids.
        local_lo = block.lo - shard_info.machine_lo
        local_hi = block.hi - shard_info.machine_lo
        mids = columns.events["machine_id"]
        row_lo = int(np.searchsorted(mids, local_lo, side="left"))
        row_hi = int(np.searchsorted(mids, local_hi, side="left"))
        if binary:
            # An empty table is a plain array, not a map; no rows to read.
            offset = (
                columns.events.offset + row_lo * EVENT_DTYPE.itemsize
                if row_hi > row_lo
                else 0
            )
            self._rows[block.index] = (
                self._store.root / shard_info.path,
                offset,
                row_hi - row_lo,
            )
        return columns.events[row_lo:row_hi]

    def _build(self, block: BlockInfo) -> np.ndarray:
        """(Re)build one block's counts from its shard file.

        The returned counts own their memory — nothing keeps file pages
        resident.
        """
        cached = self._rows.get(block.index)
        if cached is None:
            rows = self._first_touch_rows(block)
        else:
            rows = _read_rows(*cached)
        local_lo = block.lo - self._store.manifest.shards[block.shard].machine_lo
        return counts_from_event_rows(
            rows, block.n_machines, self.n_days, machine_base=local_lo
        )


def _read_rows(path: Path, offset: int, n_rows: int) -> np.ndarray:
    """Exactly ``n_rows`` event rows at byte ``offset`` of a binary shard."""
    if n_rows == 0:
        return np.empty(0, dtype=EVENT_DTYPE)
    try:
        rows = np.fromfile(path, dtype=EVENT_DTYPE, count=n_rows, offset=offset)
    except OSError as exc:
        raise TraceError(f"cannot read shard {path}: {exc}") from exc
    if rows.size != n_rows:
        raise TraceError(
            f"{path}: truncated binary shard (read {rows.size} of the "
            f"{n_rows} event rows recorded at first touch)"
        )
    return rows
