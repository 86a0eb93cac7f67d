"""Compiled trace generation: drive ``_generate_kernel.c``.

The transaction scripts of :class:`~repro.workloads.database.DatabaseWorkload`,
:class:`~repro.workloads.specjbb.SpecJBBWorkload` and
:class:`~repro.workloads.specweb.SpecWebWorkload` have a C translation,
built, bound and checked by :mod:`repro.cbuild` from its one
declaration in :data:`GENERATE_CONTRACT`, like the simulator and
annotation kernels.  :meth:`SyntheticWorkload.generate
<repro.workloads.base.SyntheticWorkload.generate>` still runs
``setup(rng)`` in Python with the seeded :class:`random.Random`, then
calls :func:`generate` here, which hands the RNG state and the static
program to the kernel.  The kernel continues CPython's MT19937 draw
sequence exactly and writes the trace columns directly, so every trace
is byte-identical to the Python route's.

:func:`generate` is the one route decision: the kernel runs only for
exactly those three classes, with the kernel available and the inputs
inside :data:`GENERATE_CONTRACT`.  Anything else (``streaming``, a
subclass, parameters the Python route would reject, no ``cc``) returns
``None`` and takes the Python route, which stays the oracle.
"""

import ctypes
import math
import os

import numpy as np

from repro.cbuild import (
    KernelLoader,
    column_dtypes,
    contract_fields,
    opcode_defines,
)
from repro.isa.registers import REG_NONE
from repro.robustness.errors import InternalError
from repro.trace.trace import COLUMNS, Trace
from repro.workloads import base, database, specjbb, specweb, synthesis

_SOURCE_PATH = os.path.join(os.path.dirname(__file__), "_generate_kernel.c")

#: The generation kernel's contract: its one entry point, ``generate``,
#: declared once (see :class:`repro.cbuild.Param`), the boxes of its
#: sizes and the ranges of the ``Params`` and ``Region`` fields; the
#: ``Params`` scalars are laid out in this order.  :mod:`repro.cbuild`
#: renders the prototype and checks every call against the
#: declaration, and :mod:`repro.lint.certify.contracts` builds the C
#: proof's facts from it.  A probability crosses as the threshold
#: ``ceil(p * 2**53)`` and a ``randint(lo, hi)`` as ``lo`` and its span
#: ``hi - lo + 1``, so every ``_randbelow`` bound is below ``2**32``.
GENERATE_CONTRACT = {
    "symbols": {
        "n": [1, 1 << 26],
        "nflat": [1, 1 << 26],
        "nfuncs": [1, 1 << 20],
        "pool": [1, 1 << 26],
    },
    "entries": {
        "generate": {
            "returns": "int64_t",
            "params": [
                ["n", "int64_t"],
                ["nflat", "int64_t"],
                ["nfuncs", "int64_t"],
                ["pool", "int64_t"],
                ["p", "Params *"],
                ["mt", "uint32_t *", 624, 0, (1 << 32) - 1],
                ["t_kind", "const int8_t *", "nflat", 0, 4],
                ["t_a", "const int16_t *", "nflat", -1, 63],
                ["t_b", "const int16_t *", "nflat", -1, 63],
                ["t_c", "const int16_t *", "nflat", -1, 63],
                ["t_arg", "const int32_t *", "nflat", 0, 1 << 16],
                ["f_start", "const int64_t *", "nfuncs", 0, "nflat"],
                ["f_end", "const int64_t *", "nfuncs", 0, "nflat"],
                ["f_pc", "const int64_t *", "nfuncs", 0, 1 << 40],
                ["zipf", "const int64_t *", "nfuncs", 0, 1 << 53],
                # A PC is a motif block or function base (below 2^40)
                # plus an offset; branch targets and addresses add at
                # most one more such offset.
                ["op", "int8_t *", "n", 0, 8, "out"],
                ["pc", "int64_t *", "n", 0, 1 << 41, "out"],
                ["dst", "int16_t *", "n", -1, 63, "out"],
                ["src1", "int16_t *", "n", -1, 63, "out"],
                ["src2", "int16_t *", "n", -1, 63, "out"],
                ["src3", "int16_t *", "n", -1, 63, "out"],
                ["addr", "int64_t *", "n", 0, 1 << 42, "out"],
                ["taken", "uint8_t *", "n", 0, 1, "out"],
                ["target", "int64_t *", "n", 0, 1 << 42, "out"],
                ["value", "int64_t *", "n", 0, 1 << 52, "out"],
            ],
        },
    },
    "structs": {
        "Params": [
            [[0, 624], ["mt_index"]],
            [[0, 2], ["script"]],
            [[0, 1 << 40], [
                "start_pc", "fresh_base", "txn_base", "descent_base",
                "rows_base", "lock_base", "object_base", "alloc_base",
                "burst_base", "lookup_base",
            ]],
            [[0, 1 << 16], [
                "fresh_stride", "calls_lo", "descent_lo", "rows_lo",
                "row_spacing", "log_words_lo", "fields_lo", "objects_lo",
                "alloc_words_lo", "segments_lo", "extra_lo",
            ]],
            [[1, (1 << 32) - 1], [
                "calls_span", "descent_span", "rows_span",
                "log_words_span", "fields_span", "objects_span",
                "alloc_words_span", "segments_span", "extra_span",
            ]],
            [[0, 1 << 53], [
                "value_repeat", "chase_repeat", "predictable",
                "taken_side", "strong", "strong_not", "weak", "weak_not",
                "second_descent", "lock", "reuse", "data_bias",
                "second_field", "cold_object", "alloc", "recent_object",
                "second_line", "object_bias", "prefetch", "burst",
                "independent", "cold_lookup", "recent_file",
            ]],
            [[0, 1 << 32], [
                "descent_stride", "row_stride", "object_stride",
                "segment_stride", "descriptor_stride",
            ]],
            [[1, ["pool", 0]], ["pool_a_cap", "pool_b_cap"]],
        ],
        "Region": [
            [[0, 1 << 40], ["base"]],
            [[1, (1 << 32) - 1], ["slots", "lines"]],
            [[1, 1 << 8], ["word", "line_bytes"]],
            [[0, (1 << 32) - 2], ["cursor"]],
        ],
    },
}

#: The program tables (every column the kernel reads), with the dtypes
#: the kernel reads them as.
_TABLES = column_dtypes(GENERATE_CONTRACT["entries"]["generate"])

#: Template kinds the kernel reads (``T_*``); any other kind is a
#: no-operation, as in :meth:`CodeFootprint.call`.
_TEMPLATE_KINDS = {"alu": 0, "load": 1, "store": 2, "branch": 3}
_T_NOP = 4

_REGIONS = ("hot", "warm", "index", "rows", "log", "locks", "heap",
            "young", "files")

#: ``random()`` is a numerator over this denominator.
_DRAWS = 1 << 53


class _Region(ctypes.Structure):
    _fields_ = contract_fields(GENERATE_CONTRACT, "Region")


class _Params(ctypes.Structure):
    # The scalars in contract order, then the regions.
    _fields_ = (contract_fields(GENERATE_CONTRACT, "Params")
                + [(name, _Region) for name in _REGIONS])


#: The motif scripts' register conventions, by define prefix: the
#: module and the names of its ``_CHASE`` ... constants.
_REGISTERS = {
    "DB": (database, ("CTR", "CHASE", "ROWBASE", "FIELD0", "FIELD1", "CMP",
                      "LOCK", "LOGV")),
    "JBB": (specjbb, ("CTR", "OBJ", "FIELD", "LOCK", "ALLOC")),
    "WEB": (specweb, ("CTR", "BUF", "CHK", "DESC")),
}


def _defines():
    """``_generate_kernel.c``'s defines: the opcodes, the template kinds,
    a ``SCRIPT_*`` number per workload class, ``REG_NONE`` and each
    script's registers (``DB_CHASE`` is ``database._CHASE``)."""
    return {
        **opcode_defines(),
        **{f"T_{kind.upper()}": value
           for kind, value in _TEMPLATE_KINDS.items()},
        **{f"SCRIPT_{cls.__name__.removesuffix('Workload').upper()}":
           script for cls, (script, *_) in _SCRIPTS.items()},
        "REG_NONE": REG_NONE,
        **{f"{prefix}_{name}": getattr(module, f"_{name}")
           for prefix, (module, names) in _REGISTERS.items()
           for name in names},
    }


_loader = KernelLoader("generation", _SOURCE_PATH, GENERATE_CONTRACT,
                       _defines, {"Region": _Region, "Params": _Params})


def kernel_available():
    """Can the compiled generation kernel be used in this process?

    The first call probes (compiling if necessary); the outcome is
    cached for the life of the process either way.
    """
    return _loader.available()


def kernel_error():
    """Why the kernel is unavailable (``None`` when it loaded fine)."""
    return _loader.error()


# -- the static program ---------------------------------------------------


class _OutsideContract(Exception):
    """An input the kernel must not see; the Python route takes it."""


def _integer(value):
    if not isinstance(value, int):
        raise _OutsideContract(f"{value!r} is not an integer")
    return value


def _threshold(probability):
    """``ceil(p * 2**53)``: ``random() < p`` exactly when the draw's
    numerator lies below it."""
    if not isinstance(probability, (int, float)):
        raise _OutsideContract(f"probability {probability!r}")
    if not probability > 0:  # also NaN: random() < nan never holds
        return 0
    if probability >= 1:
        return _DRAWS
    return math.ceil(probability * _DRAWS)


def _span(bounds):
    """``randint(*bounds)`` as ``(lo, hi - lo + 1)``."""
    lo, hi = bounds
    return _integer(lo), _integer(hi) - lo + 1


def _region(region):
    if region is None:  # a region the script never reads
        return _Region(base=0, slots=1, word=1, lines=1, line_bytes=1)
    return _Region(
        base=region.base,
        slots=region.size // synthesis.WORD_BYTES,
        word=synthesis.WORD_BYTES,
        lines=region.num_lines,
        line_bytes=region.line_bytes,
        cursor=region._cursor,
    )


def _encode_template(ops):
    """One template's ops as the kernel's ``t_*`` rows."""
    rows = []
    for op in ops:
        kind = _TEMPLATE_KINDS.get(op[0], _T_NOP)
        if kind == _TEMPLATE_KINDS["alu"]:
            rows.append((kind, op[1], op[2], op[3], 0))
        elif kind == _TEMPLATE_KINDS["branch"]:
            rows.append((kind, op[2], -1, -1, op[1]))
        elif kind != _T_NOP:  # load / store: the region is the arg
            rows.append((kind, op[1], op[2], -1, int(op[3] != "hot")))
        else:
            rows.append((kind, -1, -1, -1, 0))
    return rows


def _code_tables(code):
    """The flattened program: each function's template at its offset,
    so a template op's index is its site id."""
    encoded = {}
    rows, starts, ends = [], [], []
    for function in code.functions:
        key = id(function.ops)
        if key not in encoded:
            encoded[key] = _encode_template(function.ops)
        starts.append(len(rows))
        rows.extend(encoded[key])
        ends.append(len(rows))
    kinds, first, second, third, args = zip(*rows) if rows else [()] * 5
    return {
        "t_kind": kinds, "t_a": first, "t_b": second, "t_c": third,
        "t_arg": args, "f_start": starts, "f_end": ends,
        "f_pc": [f.base_pc for f in code.functions],
        "zipf": code._sampler.draw_thresholds(),
    }


def _common(workload, rng, script, pools):
    """Params every script reads."""
    internal = rng.getstate()[1]
    branches = workload.branches
    strong, weak = branches.strong_bias, branches.weak_bias
    calls_lo, calls_span = _span(workload.calls_per_txn)
    params = {
        "mt_index": internal[-1],
        "script": script,
        "start_pc": base.START_PC,
        "fresh_base": synthesis.FRESH_VALUE_BASE,
        "fresh_stride": synthesis.FRESH_VALUE_STRIDE,
        "value_repeat": _threshold(workload.values.repeat_prob),
        "predictable": _threshold(branches.predictable_fraction),
        "taken_side": _threshold(synthesis.TAKEN_SIDE_PROBABILITY),
        "strong": _threshold(strong),
        "strong_not": _threshold(1.0 - strong),
        "weak": _threshold(weak),
        "weak_not": _threshold(1.0 - weak),
        "calls_lo": calls_lo,
        "calls_span": calls_span,
        "txn_base": workload.txn_base,
    }
    capacities = [_integer(pool.capacity) for pool in pools]
    params["pool_a_cap"] = capacities[0]
    params["pool_b_cap"] = capacities[-1]
    return params, internal[:-1], max(capacities)


def _database(w):
    descent_lo, descent_span = _span(w.descent_depth)
    rows_lo, rows_span = _span(w.rows_per_txn)
    words_lo, words_span = _span(database.LOG_WORDS)
    return {
        "chase_repeat": _threshold(w.chase_values.repeat_prob),
        "descent_base": w.descent_base,
        "rows_base": w.rows_base,
        "lock_base": w.lock_base,
        "descent_lo": descent_lo,
        "descent_span": descent_span,
        "rows_lo": rows_lo,
        "rows_span": rows_span,
        "row_spacing": _integer(w.row_spacing),
        "second_descent": _threshold(w.second_descent_probability),
        "lock": _threshold(w.lock_probability),
        "reuse": _threshold(w.reuse_fraction),
        "data_bias": _threshold(w.data_branch_bias),
        "descent_stride": database.DESCENT_STRIDE_LINES,
        "row_stride": database.ROW_STRIDE_LINES,
        "second_field": _threshold(database.SECOND_FIELD_PROBABILITY),
        "log_words_lo": words_lo,
        "log_words_span": words_span,
    }


def _specjbb(w):
    fields_lo, fields_span = _span(w.fields_per_object)
    objects_lo, objects_span = _span(w.objects_per_txn)
    words_lo, words_span = _span(specjbb.ALLOC_WORDS)
    return {
        "object_base": w.object_base,
        "alloc_base": w.alloc_base,
        "cold_object": _threshold(w.cold_object_probability),
        "fields_lo": fields_lo,
        "fields_span": fields_span,
        "objects_lo": objects_lo,
        "objects_span": objects_span,
        "alloc": _threshold(w.alloc_probability),
        "object_stride": specjbb.OBJECT_STRIDE_LINES,
        "recent_object": _threshold(specjbb.RECENT_OBJECT_PROBABILITY),
        "second_line": _threshold(specjbb.SECOND_LINE_PROBABILITY),
        "object_bias": _threshold(specjbb.OBJECT_BRANCH_BIAS),
        "alloc_words_lo": words_lo,
        "alloc_words_span": words_span,
    }


def _specweb(w):
    segments_lo, segments_span = _span(w.burst_segments)
    extra_lo, extra_span = _span(w.segment_extra_lines)
    return {
        "burst_base": w.burst_base,
        "lookup_base": w.lookup_base,
        "segments_lo": segments_lo,
        "segments_span": segments_span,
        "extra_lo": extra_lo,
        "extra_span": extra_span,
        "prefetch": _threshold(w.prefetch_fraction),
        "burst": _threshold(w.burst_probability),
        "independent": _threshold(w.independent_burst_fraction),
        "cold_lookup": _threshold(w.cold_lookup_probability),
        "segment_stride": specweb.SEGMENT_STRIDE_LINES,
        "descriptor_stride": specweb.DESCRIPTOR_STRIDE_LINES,
        "recent_file": _threshold(specweb.RECENT_FILE_PROBABILITY),
    }


#: The kernel's scripts, by exact workload class: the script number,
#: the params builder, the RecentPools (pool_a, then pool_b) and the
#: regions it reads.
_SCRIPTS = {
    database.DatabaseWorkload: (
        0, _database, ("recent_rows", "recent_nodes"),
        ("hot", "warm", "index", "rows", "log", "locks")),
    specjbb.SpecJBBWorkload: (
        1, _specjbb, ("recent_objects",),
        ("hot", "warm", "heap", "young", "locks")),
    specweb.SpecWebWorkload: (
        2, _specweb, ("recent_files",), ("hot", "warm", "files")),
}


def _program(workload, rng, length):
    """The ``generate`` arguments for *length* instructions of
    *workload*, all but the trace columns the kernel writes.

    Raises
    ------
    _OutsideContract
        If a parameter cannot cross as contract data (a non-integer
        count, a non-numeric probability, a malformed range, a value
        its C type cannot hold).
    """
    script, builder, pool_names, regions = _SCRIPTS[type(workload)]
    pools = [getattr(workload, name) for name in pool_names]
    try:
        common, words, pool = _common(workload, rng, script, pools)
        # Fields of the other scripts sit at their lower bounds.
        params = {name: lo
                  for (lo, _), names in GENERATE_CONTRACT["structs"]["Params"]
                  for name in names}
        params.update(common)
        params.update(builder(workload))
        tables = {**_code_tables(workload.code), "mt": words}
        tables = {name: np.asarray(tables[name], dtype=dtype)
                  for name, dtype in _TABLES.items()}
        struct = _Params(**params, **{
            name: _region(getattr(workload, name) if name in regions
                          else None)
            for name in _REGIONS})
    except (TypeError, ValueError, OverflowError) as error:
        raise _OutsideContract(str(error)) from error
    for name, value in params.items():
        if getattr(struct, name) != value:
            raise _OutsideContract(f"param {name} = {value!r} is not int64")
    return {
        "n": length,
        "nflat": len(tables["t_kind"]),
        "nfuncs": len(tables["f_pc"]),
        "pool": pool,
        "p": struct,
        **tables,
    }


def run_program(program, name):
    """Generate the trace a :func:`_program` describes, in C.

    Returns the :class:`~repro.trace.trace.Trace` of ``program["n"]``
    instructions named *name*.

    Raises
    ------
    repro.robustness.errors.InternalError
        If the kernel is unavailable (callers must check
        :func:`kernel_available` first), the inputs lie outside the
        contract, or the kernel's tables cannot be allocated.
    """
    n = program["n"]
    trace = {key: np.empty(n, dtype=dtype) for key, dtype in COLUMNS}
    written = _loader.call("generate", {**program, **trace})
    if written != n:
        raise InternalError("compiled generation kernel ran out of memory")
    return Trace(trace, name=name)


def generate(workload, rng, length):
    """*workload*'s trace of *length* instructions on the kernel, or
    ``None`` when it must take the Python route.

    *rng* is the generator's :class:`random.Random` right after
    ``workload.setup(rng)``.  This is the one route decision: the kernel
    runs only when ``type(workload)`` is exactly one of the three paper
    workloads, the kernel is available, and the inputs lie inside
    :data:`GENERATE_CONTRACT`.
    """
    if type(workload) not in _SCRIPTS or not _loader.available():
        return None
    try:
        program = _program(workload, rng, length)
    except _OutsideContract:
        return None
    if _loader.violation("generate", program) is not None:
        return None
    return run_program(program, workload.name)
