"""Deterministic fault injection: data corruption and process faults.

**Data-corruption faults** (PR 1) take a valid ``.npz`` archive on
disk and rewrite it with one controlled corruption; the test suite
then proves that every loader rejects the damaged file with a
diagnostic :class:`~repro.robustness.errors.ReproError` instead of
crashing with a raw traceback or — worse — silently loading wrong data
and emitting wrong MLP numbers.  The registry :data:`FAULTS` maps
fault names to injector callables; :func:`inject_fault` dispatches by
name.  Injectors that rewrite the archive go through
:mod:`repro.robustness.atomic`, so a fault file is itself always
completely written.

**Process-level faults** extend the harness to the supervised sweep
layer: a :class:`ProcessFaultPlan` (parsed from a spec string or the
``REPRO_PROCESS_FAULTS`` environment variable) deterministically
kills a sweep worker with SIGKILL at a named configuration, hangs it,
raises an injected failure, or crashes the supervisor itself mid-
journal-write.  The chaos suite (``tests/test_chaos.py``) uses these
to prove that a sweep under injected process faults finishes with
results bit-identical to a clean serial run.  All faults are pure
functions of their spec (no randomness), so failures reproduce
exactly.
"""

import dataclasses
import os
import signal
import time

import numpy as np

from repro.robustness.atomic import atomic_savez, atomic_write
from repro.robustness.errors import ConfigError, InjectedFault

#: Version key used by the trace/annotation archive format.
_VERSION_KEY = "__version__"


def _load_payload(path):
    """Read every array of an ``.npz`` archive into a plain dict."""
    with np.load(path, allow_pickle=False) as archive:
        return {name: archive[name] for name in archive.files}


def truncate_archive(path, keep_fraction=0.5):
    """Cut the archive file to its first *keep_fraction* of bytes.

    Models a save interrupted by a crash or a partial copy: the zip
    central directory is lost, so the file is unreadable as an
    archive.
    """
    with open(path, "rb") as handle:
        raw = handle.read()
    keep = max(1, int(len(raw) * keep_fraction))
    with atomic_write(path, "wb") as handle:
        handle.write(raw[:keep])


def drop_column(path, column="addr"):
    """Remove one column from the archive entirely."""
    payload = _load_payload(path)
    payload.pop(column, None)
    atomic_savez(path, **payload)


def add_extra_column(path, column="bogus"):
    """Add an unknown column the format does not define."""
    payload = _load_payload(path)
    length = max((len(v) for v in payload.values() if v.ndim), default=1)
    payload[column] = np.zeros(length, dtype=np.int64)
    atomic_savez(path, **payload)


def corrupt_dtype(path, column="addr"):
    """Rewrite one column with a float dtype instead of its integer."""
    payload = _load_payload(path)
    payload[column] = np.asarray(payload[column], dtype=np.float64)
    atomic_savez(path, **payload)


def inject_nan(path, column="addr"):
    """Replace one column's first value with NaN.

    Integer columns cannot hold NaN, so the rewrite necessarily turns
    the column float — exactly what a buggy pandas/numpy round-trip
    of the archive would produce.
    """
    payload = _load_payload(path)
    column_values = np.asarray(payload[column], dtype=np.float64)
    if column_values.size:
        column_values[0] = np.nan
    payload[column] = column_values
    atomic_savez(path, **payload)


def out_of_range_register(path, column="src1", value=4096):
    """Set a register-operand entry far outside the register file."""
    payload = _load_payload(path)
    column_values = payload[column].copy()
    if column_values.size:
        column_values[0] = value
    payload[column] = column_values
    atomic_savez(path, **payload)


def skew_version(path, delta=1):
    """Bump the archive's format version past what the library knows."""
    payload = _load_payload(path)
    version = int(payload[_VERSION_KEY][0]) + delta
    payload[_VERSION_KEY] = np.asarray([version], dtype=np.int64)
    atomic_savez(path, **payload)


def corrupt_mask(path, field="ann_dmiss"):
    """Set an annotation mask everywhere, breaking event consistency.

    A data-miss mask that marks ALU instructions (which cannot access
    memory) is the canonical silent-wrong-MLP corruption: the epoch
    engine would happily count the phantom misses.
    """
    payload = _load_payload(path)
    payload[field] = np.ones_like(payload[field])
    atomic_savez(path, **payload)


#: Registry of fault names to injector callables.
FAULTS = {
    "truncate": truncate_archive,
    "drop_column": drop_column,
    "extra_column": add_extra_column,
    "wrong_dtype": corrupt_dtype,
    "nan": inject_nan,
    "out_of_range_register": out_of_range_register,
    "version_skew": skew_version,
    "corrupt_mask": corrupt_mask,
}


def inject_fault(path, fault, **options):
    """Apply the named *fault* to the archive at *path*.

    Raises
    ------
    ConfigError
        If *fault* is not a registered fault name.
    """
    try:
        injector = FAULTS[fault]
    except KeyError:
        raise ConfigError(
            f"unknown fault {fault!r}; expected one of {sorted(FAULTS)}",
            field=fault,
        ) from None
    injector(path, **options)


# ---------------------------------------------------------------------
# Process-level faults (sweep supervision chaos harness)
# ---------------------------------------------------------------------

#: Fault kinds a :class:`ProcessFaultPlan` understands.
PROCESS_FAULT_KINDS = ("kill", "hang", "fail", "crash-journal")

#: How long a hung worker sleeps; the supervisor's per-config timeout
#: is expected to SIGKILL it (pool) or SIGALRM out of it (serial) long
#: before this elapses.
_HANG_SECONDS = 3600.0

#: Environment variable carrying the default fault spec.
FAULT_ENV = "REPRO_PROCESS_FAULTS"


@dataclasses.dataclass(frozen=True)
class ProcessFaultPlan:
    """A deterministic schedule of process-level faults.

    A plan is parsed from a whitespace/comma-separated spec of
    ``kind:label[@attempt]`` entries, e.g.::

        "kill:64A@1 hang:64C@1 crash-journal:64E@1 fail:128C"

    * ``kill`` — the worker running *label* SIGKILLs itself before
      simulating (models an OOM kill);
    * ``hang`` — the worker sleeps instead of simulating (models a
      livelocked or far-memory-stalled config);
    * ``fail`` — the worker raises :class:`InjectedFault` (an organic
      in-worker exception; also honoured by the serial backend);
    * ``crash-journal`` — the *supervisor* tears the journal record for
      *label* mid-write and dies (models a crash of the whole sweep).

    ``@attempt`` scopes an entry to one attempt number (1-based);
    omitting it fires the fault on every attempt — a poison config the
    supervisor must quarantine.  The plan is carried as its canonical
    spec string so it crosses process boundaries under any start
    method.
    """

    spec: str = ""
    entries: tuple = ()

    @classmethod
    def parse(cls, spec):
        """Parse a spec string (empty or ``None`` → the empty plan)."""
        entries = []
        for part in (spec or "").replace(",", " ").split():
            kind, _, rest = part.partition(":")
            if kind not in PROCESS_FAULT_KINDS or not rest:
                raise ConfigError(
                    f"bad process-fault entry {part!r}; expected"
                    f" kind:label[@attempt] with kind one of"
                    f" {PROCESS_FAULT_KINDS}",
                    field=part,
                )
            label, _, attempt = rest.partition("@")
            if attempt:
                try:
                    attempt = int(attempt)
                except ValueError:
                    raise ConfigError(
                        f"bad process-fault entry {part!r}: attempt"
                        f" {attempt!r} is not an integer",
                        field=part,
                    ) from None
            else:
                attempt = None
            entries.append((kind, label, attempt))
        canonical = " ".join(
            f"{kind}:{label}" + (f"@{attempt}" if attempt else "")
            for kind, label, attempt in entries
        )
        return cls(spec=canonical, entries=tuple(entries))

    @classmethod
    def from_env(cls):
        """The plan named by ``REPRO_PROCESS_FAULTS`` (usually empty)."""
        return cls.parse(os.environ.get(FAULT_ENV, ""))

    @property
    def empty(self):
        return not self.entries

    def _matches(self, kind, label, attempt):
        return any(
            entry_kind == kind and entry_label == label
            and (entry_attempt is None or entry_attempt == attempt)
            for entry_kind, entry_label, entry_attempt in self.entries
        )

    def should_crash_journal(self, label, attempt):
        """True when the supervisor must die journalling this record."""
        return self._matches("crash-journal", label, attempt)

    def apply_in_worker(self, label, attempt):
        """Fire any worker-scoped fault for (*label*, *attempt*).

        Called inside a sweep worker process right before simulating.
        ``kill`` entries SIGKILL the worker (no cleanup, like the OOM
        killer); ``hang`` entries sleep far past any sane per-config
        timeout; ``fail`` entries raise :class:`InjectedFault`.
        """
        if self._matches("kill", label, attempt):
            os.kill(os.getpid(), signal.SIGKILL)
        if self._matches("hang", label, attempt):
            time.sleep(_HANG_SECONDS)
        if self._matches("fail", label, attempt):
            raise InjectedFault(
                f"injected worker fault for config {label!r}"
                f" (attempt {attempt})",
                field=label,
            )

    def apply_serial(self, label, attempt):
        """Fire faults for the serial backend (which *is* the parent).

        ``kill`` entries are skipped — SIGKILLing the serial backend
        would kill the supervisor itself, which is what
        ``crash-journal`` models explicitly; ``hang`` and ``fail``
        behave as in workers (the serial per-config SIGALRM deadline
        recovers the hang).
        """
        if self._matches("hang", label, attempt):
            time.sleep(_HANG_SECONDS)
        if self._matches("fail", label, attempt):
            raise InjectedFault(
                f"injected worker fault for config {label!r}"
                f" (attempt {attempt})",
                field=label,
            )


def tear_journal(path, drop_bytes=16):
    """Cut the final *drop_bytes* bytes off a sweep journal.

    Models a supervisor crash mid-journal-write from the *outside* (the
    in-process variant is a ``crash-journal`` plan entry): the final
    record loses its tail, and replay must discard exactly that record
    and nothing else.
    """
    with open(path, "rb") as handle:
        raw = handle.read()
    keep = max(1, len(raw) - int(drop_bytes))
    with atomic_write(path, "wb") as handle:
        handle.write(raw[:keep])
