"""Exception hierarchy for the FGCS reproduction library."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library-specific errors."""


class SimulationError(ReproError):
    """Raised when the discrete-event simulation reaches an invalid state."""


class SchedulerError(SimulationError):
    """Raised on invalid OS-scheduler operations (e.g. unknown task)."""


class ConfigError(ReproError):
    """Raised for invalid configuration values."""


class ScenarioError(ConfigError):
    """Raised for invalid scenario documents, with the offending key path.

    ``path`` is a dotted/indexed locator into the scenario document
    (``"fleet.classes[1].weight"``); it is always part of ``str(err)`` so
    CLI consumers can print one actionable line without a traceback.
    """

    def __init__(self, path: str, message: str) -> None:
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}" if path else message)


class TraceError(ReproError):
    """Raised for malformed trace files or inconsistent trace datasets."""


class PredictionError(ReproError):
    """Raised when a predictor is queried before being fitted, or misused."""


class ExperimentError(ReproError):
    """Raised when an experiment harness is driven with invalid parameters."""


class FaultError(ReproError):
    """Raised for invalid fault plans or unrecoverable injected failures."""


class ServeError(ReproError):
    """Raised for invalid serving-layer requests or server misuse."""


class IngestOrderError(ServeError):
    """Raised when streamed events violate the ingest ordering contract.

    The serving layer accepts per-machine event streams whose start times
    never decrease; an event older than the machine's newest accepted
    event is rejected (the whole batch, atomically) rather than silently
    reordered.  Exact duplicates of the newest event are deduplicated
    instead — see ``repro.serve.state``.
    """


class NoHistoryError(ServeError):
    """Raised when a query window has no same-type history days yet."""


class WorkerRangeError(ServeError):
    """Raised when a scale-out worker is asked about a machine it does
    not own.

    The router owns the machine→worker map, so a correctly routed fleet
    never sees this; it surfaces misrouting (HTTP 421) instead of
    silently answering from the wrong worker's state.
    """


class IngestBackpressureError(ServeError):
    """Raised when the bounded ingest queue cannot take another batch.

    Carries ``retry_after`` (seconds), surfaced as HTTP 429 with a
    ``Retry-After`` header; the client backs off and retries — nothing
    is dropped or reordered.
    """

    def __init__(self, message: str, retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = retry_after


class RangeUnavailableError(ServeError):
    """Raised when a scale-out worker's machine range is down (crashed,
    respawning).

    Carries ``retry_after`` (seconds), surfaced as HTTP 503 with a
    ``Retry-After`` header for that range only; every other range keeps
    serving.
    """

    def __init__(self, message: str, retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = retry_after
