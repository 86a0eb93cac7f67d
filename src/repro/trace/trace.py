"""Columnar dynamic-instruction-stream container.

Traces can reach millions of instructions, so instructions are stored as
parallel numpy arrays (structure-of-arrays) instead of per-instruction
Python objects.  :meth:`Trace.instruction` materialises a single
:class:`~repro.isa.instruction.Instruction` on demand for debugging and
tests.  The compiled kernels read the columns (or int32/int64 columns
derived from them, such as the dependence graph of
:mod:`repro.core.depgraph`) directly; the Python oracles convert the
columns they need to lists once per run, which are faster to index in
their interpreter loops.
"""

import numpy as np

from repro.isa.instruction import Instruction
from repro.isa.opclass import OpClass

#: Column names and dtypes of the trace format, in canonical order.
COLUMNS = (
    ("op", np.int8),
    ("pc", np.int64),
    ("dst", np.int16),
    ("src1", np.int16),
    ("src2", np.int16),
    ("src3", np.int16),
    ("addr", np.int64),
    ("taken", np.bool_),
    ("target", np.int64),
    ("value", np.int64),
)

_COLUMN_NAMES = tuple(name for name, _ in COLUMNS)


class Trace:
    """An immutable dynamic instruction stream.

    Parameters
    ----------
    columns:
        Mapping from column name to a numpy array; all columns must have
        identical length.  See :data:`COLUMNS` for the schema.
    name:
        Optional workload name carried for reporting.
    """

    def __init__(self, columns, name="trace"):
        from repro.robustness.errors import TraceFormatError

        missing = set(_COLUMN_NAMES) - set(columns)
        if missing:
            raise TraceFormatError(
                f"trace is missing columns: {sorted(missing)}",
                field=sorted(missing)[0],
            )
        lengths = {len(columns[c]) for c in _COLUMN_NAMES}
        if len(lengths) > 1:
            raise TraceFormatError(
                f"trace columns have unequal lengths: {lengths}"
            )
        self.name = name
        for col_name, dtype in COLUMNS:
            try:
                array = np.asarray(columns[col_name], dtype=dtype)
            except (ValueError, TypeError) as error:
                raise TraceFormatError(
                    f"column cannot be converted to {np.dtype(dtype)}:"
                    f" {error}",
                    field=col_name,
                ) from error
            array.setflags(write=False)
            setattr(self, col_name, array)

    def __len__(self):
        return len(self.op)

    def __eq__(self, other):
        if not isinstance(other, Trace):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, c), getattr(other, c))
            for c in _COLUMN_NAMES
        )

    def __repr__(self):
        return f"Trace(name={self.name!r}, length={len(self)})"

    def columns(self):
        """Return a dict of column name to (read-only) numpy array."""
        return {c: getattr(self, c) for c in _COLUMN_NAMES}

    def instruction(self, index):
        """Materialise the :class:`Instruction` at position *index*."""
        return Instruction(
            op=OpClass(int(self.op[index])),
            pc=int(self.pc[index]),
            dst=int(self.dst[index]),
            src1=int(self.src1[index]),
            src2=int(self.src2[index]),
            src3=int(self.src3[index]),
            addr=int(self.addr[index]),
            taken=bool(self.taken[index]),
            target=int(self.target[index]),
            value=int(self.value[index]),
        )

    def instructions(self):
        """Yield every instruction as an :class:`Instruction` object.

        Intended for tests and small traces; simulators should read the
        columns directly.
        """
        for i in range(len(self)):
            yield self.instruction(i)

    def slice(self, start, stop):
        """Return a new :class:`Trace` over instructions ``[start, stop)``."""
        cols = {c: getattr(self, c)[start:stop].copy() for c in _COLUMN_NAMES}
        return Trace(cols, name=f"{self.name}[{start}:{stop}]")

    # -- convenience views used across the code base ------------------------

    def memory_mask(self):
        """Boolean array marking instructions that access data memory."""
        return (
            (self.op == OpClass.LOAD)
            | (self.op == OpClass.STORE)
            | (self.op == OpClass.PREFETCH)
            | (self.op == OpClass.CAS)
            | (self.op == OpClass.LDSTUB)
        )

    def load_like_mask(self):
        """Boolean array marking instructions that read data memory."""
        return (
            (self.op == OpClass.LOAD)
            | (self.op == OpClass.CAS)
            | (self.op == OpClass.LDSTUB)
        )

    def branch_mask(self):
        """Boolean array marking control-transfer instructions."""
        return self.op == OpClass.BRANCH

    def serializing_mask(self):
        """Boolean array marking serializing instructions."""
        return (
            (self.op == OpClass.CAS)
            | (self.op == OpClass.LDSTUB)
            | (self.op == OpClass.MEMBAR)
        )

    def opclass_counts(self):
        """Return a dict mapping :class:`OpClass` to dynamic count."""
        values, counts = np.unique(np.asarray(self.op), return_counts=True)
        return {OpClass(int(v)): int(c) for v, c in zip(values, counts)}
