"""Fluid host-load signal synthesis for the long trace study.

Turns an :class:`~repro.workloads.labuser.EpisodePlanner` plan into the
monitor-sample stream a machine's resource monitor would record: a noisy
diurnal baseline host load, overload plateaus during CPU episodes, memory
exhaustion during memory episodes, and service silence during URR.  The
downstream detector (:mod:`repro.core.detector`) re-discovers the planted
episodes from the samples alone, mirroring the paper's methodology where
thresholds calibrated offline are applied to monitor data.

Everything is vectorized NumPy over the machine's full sample grid
(~800 k samples for 92 days at 10 s), so generating the 20-machine
testbed takes seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..config import FgcsConfig
from ..core.model import DEFAULT_GUEST_WORKING_SET_MB
from ..core.samples import SampleBatch
from ..errors import ConfigError
from ..rng import RngFactory
from ..units import DAY, HOUR
from .labuser import ActivityProfile, EpisodeKind, EpisodePlanner, PlannedEpisode

__all__ = [
    "MachineTrace",
    "MachineTraceGenerator",
    "SynthContext",
    "hourly_mean_load_columns",
    "preload_filter",
    "synth_context",
    "synthesize_samples",
    "synthesize_samples_columns",
]

#: Host load is kept this far above Th2 during overload plateaus so sample
#: noise can never split a planted episode in two.
_OVERLOAD_MARGIN: float = 0.06
#: Baseline host load stays this far below Th2 so noise never fakes an S3.
_BASELINE_MARGIN: float = 0.05


@dataclass(frozen=True)
class MachineTrace:
    """One machine's generated trace: the plan and the monitor samples."""

    machine_id: int
    episodes: tuple[PlannedEpisode, ...]
    samples: SampleBatch
    span: float


def preload_filter() -> None:
    """Import the AR(1) filter's ``scipy.signal`` now.

    ``scipy.signal`` is imported where :func:`_ar1` and :func:`_ar1_from`
    call ``lfilter``, so no process pays its ~1 s import unless it
    synthesizes.  Every entry point that maps synthesis over a worker pool
    calls this in the parent just before building the backend: fork-started
    workers then share the parent's loaded scipy pages instead of each
    importing (and dirtying) its own copy.
    """
    import scipy.signal  # noqa: F401


def _ar1(n: int, rng: np.random.Generator, *, corr_time: float, step: float) -> np.ndarray:
    """A unit-variance AR(1) series with the given correlation time."""
    rho = float(np.exp(-step / corr_time))
    eps = rng.standard_normal(n) * np.sqrt(1.0 - rho * rho)
    # Warm start from the stationary distribution.
    eps[0] = rng.standard_normal()
    import scipy.signal

    return scipy.signal.lfilter([1.0], [1.0, -rho], eps)


def synthesize_samples(
    episodes: list[PlannedEpisode],
    *,
    config: FgcsConfig,
    profile: ActivityProfile,
    rng: np.random.Generator,
    span: Optional[float] = None,
) -> SampleBatch:
    """Monitor samples for one machine over the whole span.

    The baseline load follows the lab's diurnal intensity with AR(1)
    variation, clipped safely below Th2; planted episodes override it.
    """
    span = config.testbed.duration if span is None else span
    period = config.monitor.period
    if period <= 0:
        raise ConfigError("monitor period must be positive")
    n = int(span / period)
    times = (np.arange(n) + 1) * period  # first sample one period in

    lab = config.lab
    th2 = config.thresholds.th2

    # --- baseline host load -------------------------------------------------
    intensity = profile.intensity(times)
    smooth = _ar1(n, rng, corr_time=10 * 60.0, step=period)
    # Logistic squash keeps the modulation in (0, 1) with mean ~0.5.
    usage_level = 1.0 / (1.0 + np.exp(-smooth))
    load = lab.light_load_mean + 2.0 * (
        lab.moderate_load_mean - lab.light_load_mean
    ) * intensity * usage_level
    np.clip(load, 0.0, th2 - _BASELINE_MARGIN, out=load)

    # --- baseline memory ----------------------------------------------------
    avail = config.testbed.machine_memory_mb - config.testbed.machine_kernel_mb
    mem_noise = _ar1(n, rng, corr_time=30 * 60.0, step=period)
    resident = 250.0 + 120.0 * intensity * (1.0 / (1.0 + np.exp(-mem_noise)))
    free = avail - resident

    up = np.ones(n, dtype=bool)

    # --- planted episodes ----------------------------------------------------
    guest_ws = DEFAULT_GUEST_WORKING_SET_MB
    for ep in episodes:
        i0 = int(np.searchsorted(times, ep.start, side="left"))
        i1 = int(np.searchsorted(times, ep.end, side="left"))
        if i1 <= i0:
            continue
        k = i1 - i0
        if ep.kind in (EpisodeKind.CPU, EpisodeKind.UPDATEDB, EpisodeKind.TRANSIENT):
            level = (
                lab.updatedb_load
                if ep.kind is EpisodeKind.UPDATEDB
                else 0.80
            )
            wobble = 0.08 * np.tanh(_ar1(k, rng, corr_time=5 * 60.0, step=period))
            seg = np.clip(level + wobble, th2 + _OVERLOAD_MARGIN, 1.0)
            load[i0:i1] = seg
        elif ep.kind is EpisodeKind.MEMORY:
            # A big compile/simulation: memory exhausted, CPU moderate.
            free[i0:i1] = rng.uniform(15.0, guest_ws - 25.0, size=k)
            load[i0:i1] = np.clip(
                0.40 + 0.10 * np.tanh(_ar1(k, rng, corr_time=5 * 60.0, step=period)),
                0.05,
                th2 - _BASELINE_MARGIN,
            )
        elif ep.kind.is_urr:
            up[i0:i1] = False

    # --- observation noise -----------------------------------------------------
    if config.monitor.noise_std > 0:
        noise = rng.normal(1.0, config.monitor.noise_std, size=n)
        load = load * noise
        # Noise must not push baseline over Th2 or overloads under it.
        over = load >= th2
        np.clip(load, 0.0, 1.0, out=load)
        load[over] = np.maximum(load[over], th2 + _OVERLOAD_MARGIN / 2)
        load[~over] = np.minimum(load[~over], th2 - _BASELINE_MARGIN / 2)

    return SampleBatch(times, load, free, up)


def _ar1_from(body: np.ndarray, eps0: float, rho: float) -> np.ndarray:
    """:func:`_ar1` applied to pre-drawn innovations.

    ``body`` is a slice of a batched ``standard_normal`` draw and ``eps0``
    the warm-start value that legacy ``_ar1`` drew second; reproducing the
    same ``eps`` array through ``lfilter`` keeps the series bit-identical
    to the per-call version.
    """
    eps = body * np.sqrt(1.0 - rho * rho)
    eps[0] = eps0
    import scipy.signal

    return scipy.signal.lfilter([1.0], [1.0, -rho], eps)


class SynthContext:
    """Machine-invariant precomputation shared across a fleet's synthesis.

    Everything here depends only on ``(config.lab, config.testbed,
    config.monitor.period)`` — the sample grid, the diurnal intensity and
    the load/memory modulation amplitudes are identical for every machine,
    so the columnar path computes them once per config instead of once per
    machine.  The arrays are marked read-only; per-machine state (AR(1)
    series, episode overrides) is always written into fresh buffers.
    """

    __slots__ = (
        "period",
        "span",
        "n",
        "times",
        "profile",
        "intensity",
        "load_amp",
        "mem_amp",
        "avail",
        "n_hours",
        "hour_idx",
    )

    def __init__(self, config: FgcsConfig) -> None:
        period = config.monitor.period
        if period <= 0:
            raise ConfigError("monitor period must be positive")
        span = config.testbed.duration
        lab = config.lab
        self.period = period
        self.span = span
        self.n = int(span / period)
        self.times = (np.arange(self.n) + 1) * period
        self.profile = ActivityProfile(lab, config.testbed)
        self.intensity = self.profile.intensity(self.times)
        # Same association order as the legacy expressions in
        # synthesize_samples: ((2.0 * (mod - light)) * intensity) and
        # (120.0 * intensity), so the remaining per-machine multiplies
        # produce bit-identical floats.
        self.load_amp = 2.0 * (lab.moderate_load_mean - lab.light_load_mean) * self.intensity
        self.mem_amp = 120.0 * self.intensity
        self.avail = config.testbed.machine_memory_mb - config.testbed.machine_kernel_mb
        self.n_hours = int(span // HOUR)
        self.hour_idx = np.minimum((self.times // HOUR).astype(np.int64), self.n_hours - 1)
        for name in ("times", "intensity", "load_amp", "mem_amp", "hour_idx"):
            getattr(self, name).setflags(write=False)


_CTX_CACHE: dict = {}
_CTX_CACHE_MAX = 8


def synth_context(config: FgcsConfig) -> SynthContext:
    """The (memoized) :class:`SynthContext` for a config."""
    key = (config.lab, config.testbed, config.monitor.period)
    ctx = _CTX_CACHE.get(key)
    if ctx is None:
        if len(_CTX_CACHE) >= _CTX_CACHE_MAX:
            _CTX_CACHE.clear()
        ctx = SynthContext(config)
        _CTX_CACHE[key] = ctx
    return ctx


_OVERLOAD_KINDS = (EpisodeKind.CPU, EpisodeKind.UPDATEDB, EpisodeKind.TRANSIENT)


def synthesize_samples_columns(
    episodes: list[PlannedEpisode],
    *,
    config: FgcsConfig,
    ctx: SynthContext,
    rng: np.random.Generator,
    counters: Optional[dict] = None,
) -> SampleBatch:
    """Columnar twin of :func:`synthesize_samples` — bit-identical output.

    The legacy path makes four ``standard_normal`` calls per machine plus
    two per episode; this one merges every run of consecutive normal draws
    into a single batched call and slices the block, which NumPy's
    generators guarantee yields the same stream values.  Episode windows
    are located with one batched ``searchsorted`` and the baseline uses
    the shared :class:`SynthContext` amplitudes, so per-machine work is
    the AR(1) filters and the elementwise assembly only.

    When ``counters`` is given, ``counters["rng.draws.signal"]`` is
    incremented by the number of variates consumed from ``rng``.
    """
    n = ctx.n
    period = ctx.period
    lab = config.lab
    th2 = config.thresholds.th2
    draws = 0

    # --- baseline load + memory --------------------------------------------
    # Legacy draw order: SN(n), SN(1) for the load AR(1), then SN(n), SN(1)
    # for the memory AR(1).  One block of 2n + 2 covers all four calls.
    block = rng.standard_normal(2 * n + 2)
    draws += 2 * n + 2
    rho_smooth = float(np.exp(-period / (10 * 60.0)))
    rho_mem = float(np.exp(-period / (30 * 60.0)))
    smooth = _ar1_from(block[0:n], block[n], rho_smooth)
    mem_noise = _ar1_from(block[n + 1 : 2 * n + 1], block[2 * n + 1], rho_mem)

    usage_level = 1.0 / (1.0 + np.exp(-smooth))
    load = lab.light_load_mean + ctx.load_amp * usage_level
    np.clip(load, 0.0, th2 - _BASELINE_MARGIN, out=load)

    resident = 250.0 + ctx.mem_amp * (1.0 / (1.0 + np.exp(-mem_noise)))
    free = ctx.avail - resident

    up = np.ones(n, dtype=bool)

    # --- planted episodes ----------------------------------------------------
    guest_ws = DEFAULT_GUEST_WORKING_SET_MB
    rho_ep = float(np.exp(-period / (5 * 60.0)))
    times = ctx.times
    if episodes:
        i0s = np.searchsorted(times, [ep.start for ep in episodes], side="left")
        i1s = np.searchsorted(times, [ep.end for ep in episodes], side="left")
        # Consecutive overload episodes (CPU/UPDATEDB/TRANSIENT) each draw
        # SN(k) + SN(1) and nothing else, so their innovations can be merged
        # into one batched call.  URR episodes and windows that round to
        # zero samples draw nothing and therefore do not break a run; a
        # MEMORY episode draws uniforms first, so it flushes the run.
        pending: list[tuple[int, int, float]] = []  # (i0, i1, level)
        pending_total = 0

        def _flush() -> None:
            nonlocal pending_total, draws
            if not pending:
                return
            blk = rng.standard_normal(pending_total)
            draws += pending_total
            off = 0
            for i0, i1, level in pending:
                k = i1 - i0
                wobble = 0.08 * np.tanh(_ar1_from(blk[off : off + k], blk[off + k], rho_ep))
                load[i0:i1] = np.clip(level + wobble, th2 + _OVERLOAD_MARGIN, 1.0)
                off += k + 1
            pending.clear()
            pending_total = 0

        for ep, i0, i1 in zip(episodes, i0s, i1s):
            i0 = int(i0)
            i1 = int(i1)
            if i1 <= i0:
                continue
            k = i1 - i0
            if ep.kind in _OVERLOAD_KINDS:
                level = lab.updatedb_load if ep.kind is EpisodeKind.UPDATEDB else 0.80
                pending.append((i0, i1, level))
                pending_total += k + 1
            elif ep.kind is EpisodeKind.MEMORY:
                _flush()
                free[i0:i1] = rng.uniform(15.0, guest_ws - 25.0, size=k)
                blk = rng.standard_normal(k + 1)
                draws += 2 * k + 1
                load[i0:i1] = np.clip(
                    0.40 + 0.10 * np.tanh(_ar1_from(blk[:k], blk[k], rho_ep)),
                    0.05,
                    th2 - _BASELINE_MARGIN,
                )
            elif ep.kind.is_urr:
                up[i0:i1] = False
        _flush()

    # --- observation noise -----------------------------------------------------
    if config.monitor.noise_std > 0:
        noise = rng.normal(1.0, config.monitor.noise_std, size=n)
        draws += n
        load = load * noise
        over = load >= th2
        np.clip(load, 0.0, 1.0, out=load)
        load[over] = np.maximum(load[over], th2 + _OVERLOAD_MARGIN / 2)
        load[~over] = np.minimum(load[~over], th2 - _BASELINE_MARGIN / 2)

    # SampleBatch.__init__ clips host load; the trusted path must match it.
    np.clip(load, 0.0, 1.0, out=load)

    if counters is not None:
        counters["rng.draws.signal"] = counters.get("rng.draws.signal", 0) + draws
    return SampleBatch.from_validated(times, load, free, up)


def hourly_mean_load_columns(samples: SampleBatch, ctx: SynthContext) -> np.ndarray:
    """:meth:`MachineTraceGenerator.hourly_mean_load` on a columnar batch,
    reusing the context's precomputed hour indices."""
    up = samples.machine_up
    idx = ctx.hour_idx[up]
    sums = np.bincount(idx, weights=samples.host_load[up], minlength=ctx.n_hours)
    counts = np.bincount(idx, minlength=ctx.n_hours)
    with np.errstate(invalid="ignore"):
        return np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)


class MachineTraceGenerator:
    """Generates per-machine traces for the simulated iShare testbed.

    Deterministic per ``(config.seed, machine_id)``: each machine draws
    from its own spawned random stream.

    Examples
    --------
    >>> from repro.config import FgcsConfig, TestbedConfig
    >>> cfg = FgcsConfig(testbed=TestbedConfig(n_machines=2, duration=2 * DAY))
    >>> gen = MachineTraceGenerator(cfg)
    >>> trace = gen.generate(0)
    >>> len(trace.samples) > 0
    True
    """

    def __init__(self, config: Optional[FgcsConfig] = None) -> None:
        self.config = config or FgcsConfig()
        self.profile = ActivityProfile(self.config.lab, self.config.testbed)
        self._rng_factory = RngFactory(self.config.seed)

    def busyness(self, machine_id: int) -> float:
        """The machine's fixed busyness factor (how popular its desk is)."""
        rng = self._rng_factory.generator("busyness", machine_id)
        return float(rng.uniform(0.86, 1.04))

    def plan(self, machine_id: int) -> list[PlannedEpisode]:
        """The episode plan for one machine (ground truth)."""
        rng = self._rng_factory.generator("plan", machine_id)
        return EpisodePlanner(
            self.profile, rng, busyness=self.busyness(machine_id)
        ).plan()

    def generate(self, machine_id: int) -> MachineTrace:
        """Plan episodes and synthesize the machine's monitor samples."""
        if not 0 <= machine_id < self.config.testbed.n_machines:
            raise ConfigError(
                f"machine_id {machine_id} outside testbed of "
                f"{self.config.testbed.n_machines}"
            )
        episodes = self.plan(machine_id)
        rng = self._rng_factory.generator("signal", machine_id)
        samples = synthesize_samples(
            episodes, config=self.config, profile=self.profile, rng=rng
        )
        return MachineTrace(
            machine_id=machine_id,
            episodes=tuple(episodes),
            samples=samples,
            span=self.config.testbed.duration,
        )

    def hourly_mean_load(self, trace: MachineTrace) -> np.ndarray:
        """Mean host load per wall-clock hour of the trace (NaN when the
        machine was down the whole hour) — a compact signal kept alongside
        events for prediction features."""
        n_hours = int(trace.span // HOUR)
        idx = np.minimum((trace.samples.times // HOUR).astype(np.int64), n_hours - 1)
        up = trace.samples.machine_up
        sums = np.bincount(
            idx[up], weights=trace.samples.host_load[up], minlength=n_hours
        )
        counts = np.bincount(idx[up], minlength=n_hours)
        with np.errstate(invalid="ignore"):
            return np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
