"""Binary trace and annotation persistence.

Traces round-trip through numpy ``.npz`` archives: one array per column
plus a small metadata record.  Annotated traces (trace + event masks)
round-trip the same way, so an annotation can be handed to another
process (the spawn-start spill of :mod:`repro.analysis.parallel`).
Both formats are versioned so an archive written by another layout is
rejected rather than silently misread.

Robustness contract (see ``docs/ROBUSTNESS.md``):

* all writes are atomic (temp file + rename via
  :mod:`repro.robustness.atomic`), so an interrupted save never leaves
  a partial archive at the destination;
* all loads validate the archive strictly — unreadable files, version
  skew, missing/unknown columns, wrong dtypes, unequal lengths,
  out-of-range values and inconsistent event masks all raise
  :class:`~repro.robustness.errors.TraceFormatError` naming the file
  and the field at fault.
"""

import zipfile

import numpy as np

from repro.robustness.atomic import atomic_savez
from repro.robustness.errors import TraceFormatError
from repro.robustness.validate import (
    validate_annotated,
    validate_archive_columns,
    validate_trace,
)
from repro.trace.trace import COLUMNS, Trace

#: Bump when the column schema changes.
FORMAT_VERSION = 1

#: Event masks persisted for an annotated trace.
ANNOTATION_FIELDS = (
    "dmiss", "pmiss", "pfuseful", "imiss", "mispred", "vp_outcome", "smiss"
)

#: Archive keys that carry metadata rather than column data.
_METADATA_KEYS = ("__version__", "__name__", "ann_measure_start")


def save_trace(trace, path):
    """Atomically write *trace* to *path* as a compressed ``.npz``.

    The archive is deflated at level 1 (see
    :func:`repro.robustness.atomic.atomic_savez`); :func:`load_trace`
    reads archives written at any level.
    """
    payload = {name: getattr(trace, name) for name, _ in COLUMNS}
    payload["__version__"] = np.asarray([FORMAT_VERSION], dtype=np.int64)
    payload["__name__"] = np.asarray([trace.name], dtype=np.str_)
    atomic_savez(path, **payload)


def _read_archive(path, kind):
    """Read every array of the archive at *path*, or reject it loudly."""
    try:
        with np.load(path, allow_pickle=False) as archive:
            return {name: archive[name] for name in archive.files}
    except TraceFormatError:
        raise
    except (zipfile.BadZipFile, ValueError, EOFError, KeyError, OSError) as error:
        raise TraceFormatError(
            f"unreadable {kind} archive ({error})", path=path
        ) from error


def _check_version(payload, path, kind):
    """Reject non-archives and format-version skew."""
    if "__version__" not in payload:
        raise TraceFormatError(
            f"not a repro {kind} archive (no version record)",
            path=path, field="__version__",
        )
    version = int(payload["__version__"][0])
    if version != FORMAT_VERSION:
        raise TraceFormatError(
            f"{kind} format version mismatch: file has {version},"
            f" library expects {FORMAT_VERSION}",
            path=path, field="__version__",
        )


def load_trace(path):
    """Read a trace previously written by :func:`save_trace`.

    Raises
    ------
    TraceFormatError
        If the archive is unreadable, has a different format version,
        is missing a column, contains an unknown column, or holds
        out-of-range values.  (A :class:`ValueError` handler keeps
        working: the error subclasses it.)
    """
    payload = _read_archive(path, "trace")
    _check_version(payload, path, "trace")
    name = str(payload["__name__"][0]) if "__name__" in payload else "trace"
    columns = {
        key: value
        for key, value in payload.items()
        if key not in _METADATA_KEYS
    }
    validate_archive_columns(columns, path=path)
    trace = Trace(
        {col: columns[col] for col, _ in COLUMNS}, name=name
    )
    return validate_trace(trace, path=path)


def save_annotated(annotated, path):
    """Atomically write an :class:`AnnotatedTrace` to *path*.

    The annotation's hierarchy/predictor configuration is not persisted
    (only its results are); the loader restores a default
    :class:`AnnotationConfig` as a placeholder.
    """
    payload = {name: getattr(annotated.trace, name) for name, _ in COLUMNS}
    payload.update({
        f"ann_{field}": getattr(annotated, field)
        for field in ANNOTATION_FIELDS
    })
    payload["ann_measure_start"] = np.asarray(
        [annotated.measure_start], dtype=np.int64
    )
    payload["__version__"] = np.asarray([FORMAT_VERSION], dtype=np.int64)
    payload["__name__"] = np.asarray([annotated.trace.name], dtype=np.str_)
    atomic_savez(path, **payload)


def load_annotated(path):
    """Read an annotated trace written by :func:`save_annotated`.

    Raises
    ------
    TraceFormatError
        Under the same strict-validation contract as
        :func:`load_trace`, plus the measure-start record and
        event-mask consistency: a mask that marks instructions which
        cannot raise its event (e.g. a data miss on an ALU op) is
        rejected rather than silently skewing MLP results.
    """
    from repro.trace.annotate import AnnotatedTrace, AnnotationConfig

    kind = "annotated-trace"
    payload = _read_archive(path, kind)
    _check_version(payload, path, kind)
    if "ann_measure_start" not in payload:
        raise TraceFormatError(
            f"not a repro {kind} archive (no measure-start record)",
            path=path, field="ann_measure_start",
        )
    columns = {
        key: value
        for key, value in payload.items()
        if key not in _METADATA_KEYS
    }
    validate_archive_columns(
        columns,
        path=path,
        annotation_fields=tuple(f"ann_{f}" for f in ANNOTATION_FIELDS),
    )
    name = str(payload["__name__"][0]) if "__name__" in payload else "trace"
    trace = Trace({col: columns[col] for col, _ in COLUMNS}, name=name)
    validate_trace(trace, path=path)
    masks = {field: columns[f"ann_{field}"] for field in ANNOTATION_FIELDS}
    for mask in masks.values():
        mask.setflags(write=False)
    annotated = AnnotatedTrace(
        trace=trace,
        measure_start=int(payload["ann_measure_start"][0]),
        config=AnnotationConfig(),
        **masks,
    )
    return validate_annotated(annotated, path=path, check_events=True)
