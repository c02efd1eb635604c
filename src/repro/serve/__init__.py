"""Availability-forecast serving layer.

The live counterpart of :mod:`repro.prediction`: a long-running daemon
(``repro-fgcs serve``) holding per-machine predictor state as hot/cold
tiered count blocks — paged at block granularity from mmap'd binary
shards (:mod:`repro.serve.paging`), updated in place by streamed events
through a bounded asynchronous ingest queue (:mod:`repro.serve.ingest`)
— and answering HTTP/JSON queries value-identical to the batch
:class:`HistoryWindowPredictor` on the same data.  One front
(:mod:`repro.serve.server`) answers over either one in-process state or,
with ``repro-fgcs serve --workers N``, a fleet of per-machine-range
worker processes (:mod:`repro.serve.router`).  ``repro-fgcs query`` is
the matching CLI client.

Names resolve on first access (PEP 562), so the client does not pay for
numpy or the state machinery.

See ``docs/serving.md``.
"""

from importlib import import_module

_EXPORTS = {
    ".client": ("ServeClient", "ServeRequestError"),
    ".ingest": ("AsyncIngester", "IngestQueueStats"),
    ".paging": ("BlockInfo", "BlockPager", "PagerStats"),
    ".router": ("FleetBackend", "WorkerSpec", "start_router"),
    ".server": ("LocalBackend", "ServeApp", "ServeHandle", "start_server"),
    ".state": ("IngestResult", "ServeState", "TierStats", "counts_from_columns"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module, __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_MODULE_OF))
