"""Validators for traces, annotations and their on-disk archives.

Three layers of checking, from raw bytes to model-level invariants:

1. :func:`validate_archive_columns` — a loaded ``.npz`` payload has
   exactly the expected keys, with the expected dtypes and equal
   lengths (catches truncation artifacts, dropped/extra columns, dtype
   corruption and NaN injection, which forces a float dtype);
2. :func:`validate_trace` — a constructed
   :class:`~repro.trace.trace.Trace` holds only in-range values:
   opcodes that name real :class:`~repro.isa.opclass.OpClass` members
   and register operands inside the architectural file;
3. :func:`validate_annotated` — an annotated trace is internally
   consistent: masks are boolean and trace-length, ``vp_outcome``
   uses only the defined codes, ``measure_start`` is in range, and
   (when ``check_events`` is set) every event mask marks only
   instructions of a class that can raise that event.

All rejections raise :class:`~repro.robustness.errors.TraceFormatError`
naming the file and field at fault.
"""

import numpy as np

from repro.isa.opclass import OpClass
from repro.isa.registers import NUM_REGS, REG_NONE
from repro.robustness.errors import TraceFormatError

#: Register-operand columns, bounded by the architectural register file.
_REGISTER_COLUMNS = ("dst", "src1", "src2", "src3")

#: Valid ``vp_outcome`` codes: n/a, correct, wrong, no-predict.
_VP_CODES = (-1, 0, 1, 2)


def _column_dtypes():
    """Expected numpy dtype per trace column."""
    # Imported lazily: repro.trace's package __init__ pulls in io.py,
    # which imports this module — a top-level import would be circular.
    from repro.trace.trace import COLUMNS

    return {name: np.dtype(dtype) for name, dtype in COLUMNS}


def validate_archive_columns(payload, path=None, annotation_fields=()):
    """Check a raw archive *payload* (mapping of name to array).

    Parameters
    ----------
    payload:
        Mapping of column name to numpy array, excluding the
        ``__version__`` / ``__name__`` metadata entries.
    path:
        File the payload came from, for diagnostics.
    annotation_fields:
        Extra ``ann_*`` mask names that must also be present (used by
        the annotated-trace loader); an empty tuple checks a plain
        trace archive.

    Raises
    ------
    TraceFormatError
        On a missing column, an unknown column, a wrong dtype, or
        unequal column lengths.
    """
    expected = _column_dtypes()
    for name in annotation_fields:
        expected[name] = (
            np.dtype(np.int8) if name == "ann_vp_outcome"
            else np.dtype(np.bool_)
        )
    for name in expected:
        if name not in payload:
            raise TraceFormatError(
                "required column is missing from the archive",
                path=path, field=name,
            )
    for name in payload:
        if name not in expected:
            # A plain-trace load may be pointed at an annotated
            # archive; its extra masks are legitimate, not corruption.
            if not annotation_fields and name.startswith("ann_"):
                continue
            raise TraceFormatError(
                "archive contains an unknown column",
                path=path, field=name,
            )
    lengths = {}
    for name, want in expected.items():
        array = payload[name]
        have = np.asarray(array).dtype
        if have != want:
            raise TraceFormatError(
                f"column has dtype {have}, expected {want}",
                path=path, field=name,
            )
        lengths[name] = len(array)
    if len(set(lengths.values())) > 1:
        raise TraceFormatError(
            f"columns have unequal lengths: {sorted(set(lengths.values()))}",
            path=path, field=None,
        )


def validate_trace(trace, path=None):
    """Check that *trace* holds only in-range opcode/register values.

    Column presence, dtypes and equal lengths are already enforced by
    the :class:`~repro.trace.trace.Trace` constructor; this adds the
    value-range invariants that a corrupt archive could still violate.

    Raises
    ------
    TraceFormatError
        Naming the offending column.
    """
    op = np.asarray(trace.op)
    valid_ops = np.asarray([int(o) for o in OpClass], dtype=op.dtype)
    if op.size and not np.isin(op, valid_ops).all():
        bad = int(op[~np.isin(op, valid_ops)][0])
        raise TraceFormatError(
            f"opcode {bad} is not a valid OpClass value",
            path=path, field="op",
        )
    for name in _REGISTER_COLUMNS:
        column = np.asarray(getattr(trace, name))
        if column.size and (
            int(column.min()) < REG_NONE or int(column.max()) >= NUM_REGS
        ):
            raise TraceFormatError(
                f"register operand outside [{REG_NONE}, {NUM_REGS})",
                path=path, field=name,
            )
    return trace


def _event_consistency(annotated, path):
    """Event masks may only mark instructions that can raise the event."""
    trace = annotated.trace
    checks = (
        ("dmiss", trace.load_like_mask(),
         "marks an instruction that does not read data memory"),
        ("pmiss", np.asarray(trace.op) == int(OpClass.PREFETCH),
         "marks a non-prefetch instruction"),
        ("pfuseful", np.asarray(annotated.pmiss),
         "marks a prefetch that did not leave the chip"),
        ("mispred", trace.branch_mask(),
         "marks a non-branch instruction"),
        ("smiss", np.asarray(trace.op) == int(OpClass.STORE),
         "marks a non-store instruction"),
    )
    for name, allowed, message in checks:
        mask = np.asarray(getattr(annotated, name))
        if bool((mask & ~allowed).any()):
            index = int(np.nonzero(mask & ~allowed)[0][0])
            raise TraceFormatError(
                f"{message} (first at index {index})",
                path=path, field=name,
            )


def validate_annotated(annotated, path=None, check_events=True):
    """Check an annotated trace's structural and event invariants.

    Parameters
    ----------
    annotated:
        The :class:`~repro.trace.annotate.AnnotatedTrace` to check.
    path:
        Source file, for diagnostics.
    check_events:
        When True (the loader/annotator default), also require each
        event mask to mark only instructions of a class that can raise
        the event.  The simulators pass False: hand-built test
        annotations deliberately place events freely, and the
        structural checks alone make simulation safe.

    A pass is remembered on *annotated* when every mask is a read-only
    array (as :func:`~repro.trace.annotate.annotate` and
    :func:`~repro.trace.io.load_annotated` make them), and a later
    ``check_events=False`` call on the same trace, masks and
    ``measure_start`` returns at once.  Reassigning a mask, the trace
    or ``measure_start`` makes the next call check again.

    Raises
    ------
    TraceFormatError
        Naming the offending mask.
    """
    from repro.trace.io import ANNOTATION_FIELDS

    pinned = _pinned_state(annotated, ANNOTATION_FIELDS)
    if not check_events and pinned is not None and _same_state(
            getattr(annotated, "_validated_state", None), pinned):
        return annotated
    _check_structure(annotated, path, ANNOTATION_FIELDS)
    if check_events:
        _event_consistency(annotated, path)
    if pinned is not None:
        annotated._validated_state = pinned
    return annotated


def _check_structure(annotated, path, fields):
    """The structural half of :func:`validate_annotated`."""
    n = len(annotated.trace)
    for name in fields:
        mask = np.asarray(getattr(annotated, name))
        want = np.dtype(np.int8) if name == "vp_outcome" else np.dtype(np.bool_)
        if mask.dtype != want:
            raise TraceFormatError(
                f"annotation mask has dtype {mask.dtype}, expected {want}",
                path=path, field=name,
            )
        if len(mask) != n:
            raise TraceFormatError(
                f"annotation mask length {len(mask)} != trace length {n}",
                path=path, field=name,
            )
    vp = np.asarray(annotated.vp_outcome)
    if vp.size and not np.isin(vp, np.asarray(_VP_CODES, dtype=vp.dtype)).all():
        bad = int(vp[~np.isin(vp, np.asarray(_VP_CODES, dtype=vp.dtype))][0])
        raise TraceFormatError(
            f"vp_outcome code {bad} is not one of {_VP_CODES}",
            path=path, field="vp_outcome",
        )
    measure_start = annotated.measure_start
    if not 0 <= int(measure_start) <= n:
        raise TraceFormatError(
            f"measure_start {measure_start} outside [0, {n}]",
            path=path, field="measure_start",
        )


def _pinned_state(annotated, fields):
    """What a remembered pass of *annotated* depends on, or None.

    None when some mask is writable: an in-place edit would keep its
    identity, so its pass cannot be remembered.
    """
    masks = [getattr(annotated, name) for name in fields]
    if not all(isinstance(mask, np.ndarray) and not mask.flags.writeable
               for mask in masks):
        return None
    return annotated.measure_start, [annotated.trace] + masks


def _same_state(remembered, pinned):
    """Whether *remembered* names the same objects as *pinned*.

    Compares identities: the remembered state holds its objects, so
    none of them can be freed and its id reused by a newcomer.
    """
    if remembered is None or remembered[0] != pinned[0]:
        return False
    return all(a is b for a, b in zip(remembered[1], pinned[1]))
