"""Robustness layer: structured errors, input validation, atomic I/O.

Every entry point of the reproduction — trace/annotation archives, the
machine-spec parser, the simulators and the exhibit harnesses — trusts
its inputs to be well-formed.  This package makes that trust explicit
and enforced:

* :mod:`repro.robustness.errors` — the :class:`ReproError` exception
  hierarchy that all input rejections raise, carrying the offending
  file and field so failures are diagnosable without a traceback;
* :mod:`repro.robustness.validate` — validators for raw archives,
  traces and annotated traces (column presence, dtypes, value ranges,
  event-mask consistency);
* :mod:`repro.robustness.atomic` — write-temp-then-rename persistence,
  so an interrupted save never leaves a corrupt file at the
  destination path;
* :mod:`repro.robustness.faults` — a deterministic fault-injection
  harness: data-corruption faults for ``.npz`` archives (used by
  ``tests/test_fault_injection.py`` to prove every loader rejects bad
  input loudly instead of crashing or silently mis-simulating) and
  process-level faults (:class:`ProcessFaultPlan`: kill/hang/fail a
  sweep worker, crash the supervisor mid-journal-write) driving the
  chaos suite in ``tests/test_chaos.py``;
* :mod:`repro.robustness.journal` — the append-only, fsynced sweep
  journal that makes interrupted sweeps resumable;
* :mod:`repro.robustness.supervisor` — crash-safe supervised sweep
  execution (per-config timeouts, retry with exponential backoff,
  dead-letter quarantine, worker replacement, serial degradation).
  Imported lazily — ``from repro.robustness.supervisor import
  supervised_sweep`` — because it pulls in the sweep/engine stack.

See ``docs/ROBUSTNESS.md`` for the full contract.
"""

from repro.robustness.atomic import atomic_savez, atomic_write, atomic_write_text
from repro.robustness.errors import (
    ConfigError,
    ExhibitTimeout,
    InjectedCrash,
    InjectedFault,
    InternalError,
    JournalError,
    ReproError,
    SimulationError,
    SweepTimeout,
    TraceFormatError,
)
from repro.robustness.faults import (
    FAULTS,
    ProcessFaultPlan,
    inject_fault,
    tear_journal,
)
from repro.robustness.journal import SweepJournal, config_key
from repro.robustness.validate import (
    validate_annotated,
    validate_archive_columns,
    validate_trace,
)

__all__ = [
    "ReproError",
    "TraceFormatError",
    "ConfigError",
    "SimulationError",
    "ExhibitTimeout",
    "SweepTimeout",
    "JournalError",
    "InternalError",
    "InjectedFault",
    "InjectedCrash",
    "validate_trace",
    "validate_annotated",
    "validate_archive_columns",
    "atomic_write",
    "atomic_write_text",
    "atomic_savez",
    "FAULTS",
    "inject_fault",
    "ProcessFaultPlan",
    "tear_journal",
    "SweepJournal",
    "config_key",
]
