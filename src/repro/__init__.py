"""repro — reproduction of Ren & Eigenmann, "Empirical Studies on the
Behavior of Resource Availability in Fine-Grained Cycle Sharing Systems"
(ICPP 2006).

Quick tour
----------
>>> from repro import FgcsConfig, generate_dataset, cause_breakdown
>>> # (a small testbed for the doctest; the paper's is 20 machines x 92 days)
>>> import dataclasses
>>> from repro.config import TestbedConfig
>>> from repro.units import DAY
>>> cfg = FgcsConfig(testbed=TestbedConfig(n_machines=2, duration=3 * DAY))
>>> ds = generate_dataset(cfg)
>>> breakdown = cause_breakdown(ds)
>>> breakdown.totals.shape
(2,)

See README.md for the full tour and DESIGN.md for the system inventory.
"""

from importlib import import_module

from ._version import __version__

# Public names resolve on first access (PEP 562), so importing one
# subpackage (``repro.cli``, ``repro.serve``) does not import them all.
_EXPORTS = {
    ".analysis": (
        "cause_breakdown",
        "check_paper_landmarks",
        "daily_pattern",
        "interval_distribution",
    ),
    ".config": (
        "DEFAULT_CONFIG",
        "FgcsConfig",
        "LabWorkloadConfig",
        "MemoryConfig",
        "MonitorConfig",
        "SchedulerConfig",
        "TestbedConfig",
        "ThresholdConfig",
    ),
    ".contention": ("calibrate_thresholds", "measure_contention"),
    ".core": (
        "AvailState",
        "AvailabilityInterval",
        "BatchDetector",
        "MonitorSample",
        "MultiStateModel",
        "SampleBatch",
        "UnavailabilityDetector",
        "UnavailabilityEvent",
        "availability_intervals",
        "detect_events",
    ),
    ".fgcs": ("run_testbed",),
    ".prediction": ("HistoryWindowPredictor", "evaluate_predictors"),
    ".scheduling": ("run_scheduling_experiment",),
    ".traces": ("TraceDataset", "generate_dataset", "load_dataset", "save_dataset"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(["__version__", *_MODULE_OF])


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module, __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_MODULE_OF))
