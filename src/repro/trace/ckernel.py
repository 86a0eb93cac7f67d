"""Compiled annotation kernel: bind and drive ``_annotate_kernel.c``.

Both layers of :mod:`repro.trace.annotate`, and the renaming behind
:mod:`repro.core.depgraph`, have a C translation, built and loaded by
:mod:`repro.cbuild` like the two simulator kernels:

* :func:`run_front_pass` — L1I/L1D filtering plus gshare and the BTB,
  for the memoised front pass with a fresh default predictor;
* :func:`run_back_pass` — the L2 replay of the front pass's stream,
  which sets the five off-chip masks;
* :func:`run_rename` — each instruction's register and memory
  producers over one trace region, as four int32 columns.

NumPy does the hashing before each call: every cache line, the
prefetched-line flags, dense ids of the stream's L2 lines and dense
ids of the memory operations' addresses.  The last-value predictor
stays in Python on both routes.

:func:`contract_violation` and :func:`rename_violation` say whether
the inputs lie inside :data:`ANNOTATE_CONTRACT`, the input ranges the
kernel's bounds and overflow proofs assume; :mod:`repro.trace.annotate`
and :mod:`repro.core.depgraph` send anything outside it, and every
call on a host without the kernel, to the Python loops.  Everything
is fail-soft: a missing compiler or an unwritable build directory
only marks the kernel unavailable.
"""

import collections
import ctypes
import importlib
import os

import numpy as np

from repro.cbuild import (
    KernelLoader,
    c_column,
    contract_bound,
    opcode_defines,
    render_header,
)
from repro.isa.opclass import OpClass
from repro.isa.registers import NUM_REGS, REG_ZERO
from repro.robustness.errors import InternalError

_SOURCE_PATH = os.path.join(os.path.dirname(__file__), "_annotate_kernel.c")

#: The input ranges the kernel certification assumes
#: (:mod:`repro.lint.certify.contracts` builds its facts from this
#: literal, and the ``plan-contract`` lint pass pins it).  Each column
#: is ``[length symbol, lo, hi]``; a bound may be ``[symbol, offset]``,
#: where a symbol may also be one of the :data:`_CONSTANTS` the header
#: defines.  ``addr`` reaches the kernel only through its lines,
#: ``dline``, and its dense ids, ``addr_id``.
ANNOTATE_CONTRACT = {
    "symbols": {
        "n": [0, 1 << 26],
        "m": [0, 1 << 27],
        "nlines": [0, 1 << 27],
        "naddrs": [0, 1 << 26],
        "sets": [1, 1 << 16],
        "assoc": [1, 16],
        "gshare": [1, 1 << 24],
        "btb_sets": [1, 1 << 16],
    },
    "columns": {
        "ops": ["n", 0, 8],
        "pc": ["n", 0, 1 << 62],
        "addr": ["n", 0, 1 << 62],
        "target": ["n", 0, 1 << 62],
        "taken": ["n", 0, 1],
        "cond": ["n", 0, 1],
        "fetch_line": ["n", 0, 1 << 62],
        "iline": ["n", 0, 1 << 62],
        "dline": ["n", 0, 1 << 62],
        "pf_fetch": ["n", 0, 1],
        "pf_data": ["n", 0, 1],
        "position": ["m", 0, ["n", -1]],
        "kind": ["m", 0, 5],
        "line": ["m", 0, 1 << 62],
        "line_id": ["m", 0, ["nlines", -1]],
        "owner": ["nlines", -1, ["n", -1]],
        "dst": ["n", -1, ["NUM_REGS", -1]],
        "src1": ["n", -1, ["NUM_REGS", -1]],
        "src2": ["n", -1, ["NUM_REGS", -1]],
        "src3": ["n", -1, ["NUM_REGS", -1]],
        "addr_id": ["n", -1, ["naddrs", -1]],
        "last_writer": ["NUM_REGS", -1, ["n", -1]],
        "last_store": ["naddrs", -1, ["n", -1]],
    },
    "geometry": {
        "l1i_sets": [1, 1 << 16],
        "l1i_assoc": [1, 16],
        "l1d_sets": [1, 1 << 16],
        "l1d_assoc": [1, 16],
    },
}

#: Kernel argument order of the two entry points' input columns.
_FRONT_COLUMNS = ("ops", "pc", "target", "taken", "cond", "fetch_line",
                  "iline", "dline", "pf_fetch", "pf_data")
_BACK_COLUMNS = ("position", "kind", "line", "line_id", "owner")
_RENAME_COLUMNS = ("ops", "dst", "src1", "src2", "src3", "addr_id",
                   "last_writer", "last_store")

#: The register file, as the header defines it and as contract bounds
#: may name it.
_CONSTANTS = {"NUM_REGS": NUM_REGS, "REG_ZERO": REG_ZERO}

#: The opcodes that access memory through their address: the loads,
#: the stores and the two atomics, which do both.
_MEMORY_OPS = tuple(int(op) for op in (OpClass.LOAD, OpClass.STORE,
                                       OpClass.CAS, OpClass.LDSTUB))

#: The BTB associativity of the kernel (``BTB_WAYS``): the default of
#: :class:`repro.branch.btb.BranchTargetBuffer`.
_BTB_WAYS = 4

#: The stream kinds of :mod:`repro.trace.annotate`, by name.
_STREAM_KINDS = ("FETCH_MISS", "LOAD_MISS", "STORE_MISS", "PREFETCH_MISS",
                 "FETCH_HIT", "LOAD_HIT")


class _Geometry(ctypes.Structure):
    _fields_ = [
        ("l1i_sets", ctypes.c_int64),
        ("l1i_assoc", ctypes.c_int64),
        ("l1d_sets", ctypes.c_int64),
        ("l1d_assoc", ctypes.c_int64),
    ]


_Entries = collections.namedtuple("_Entries", "front back rename")


def _layers():
    """:mod:`repro.trace.annotate`, which imports this module (the
    package re-exports the annotate() function over its name)."""
    return importlib.import_module("repro.trace.annotate")


def _header():
    """``_annotate_kernel.c``'s header: the opcodes, the stream kinds,
    ``BTB_WAYS``, the register file and the geometry struct."""
    layers = _layers()
    return render_header(
        {
            **opcode_defines(),
            **{name: getattr(layers, name) for name in _STREAM_KINDS},
            "BTB_WAYS": _BTB_WAYS,
            **_CONSTANTS,
        },
        {"Geometry": _Geometry},
    )


def _bind(lib):
    front = lib.annotate_front
    front.restype = ctypes.c_int64
    front.argtypes = (
        [ctypes.c_int64] * 4                      # n, sets, gshare, btb_sets
        + [ctypes.POINTER(_Geometry)]
        + [ctypes.c_void_p] * len(_FRONT_COLUMNS)
        + [ctypes.c_void_p] * 3                   # mispred, stream
    )
    back = lib.annotate_back
    back.restype = ctypes.c_int
    back.argtypes = (
        [ctypes.c_int64] * 5                      # n, m, nlines, sets, assoc
        + [ctypes.c_void_p] * len(_BACK_COLUMNS)
        + [ctypes.c_void_p] * 5                   # the five masks
    )
    rename = lib.annotate_rename
    rename.restype = None
    rename.argtypes = (
        [ctypes.c_int64] * 2                      # n, naddrs
        + [ctypes.c_void_p] * len(_RENAME_COLUMNS)
        + [ctypes.c_void_p] * 4                   # the producer columns
    )
    return _Entries(front, back, rename)


_loader = KernelLoader("annotation", _SOURCE_PATH, _bind, _header)


def kernel_available():
    """Can the compiled annotation kernel be used in this process?

    The first call probes (compiling if necessary); the outcome is
    cached for the life of the process either way.
    """
    return _loader.available()


def kernel_error():
    """Why the kernel is unavailable (``None`` when it loaded fine)."""
    return _loader.error()


def _geometry(config):
    hierarchy = config.hierarchy
    return _Geometry(
        l1i_sets=hierarchy.l1i.num_sets,
        l1i_assoc=hierarchy.l1i.associativity,
        l1d_sets=hierarchy.l1d.num_sets,
        l1d_assoc=hierarchy.l1d.associativity,
    )


def _front_symbols(trace, config, geometry):
    """The front pass's sizes; its L1 tables are sized for the larger
    L1 set count."""
    return {
        "n": len(trace),
        "sets": max(geometry.l1i_sets, geometry.l1d_sets),
        "gshare": config.gshare_entries,
        "btb_sets": config.btb_entries // _BTB_WAYS,
    }


def _is_power_of_two(value):
    return value > 0 and not value & (value - 1)


def _violation(symbols, columns, geometry=None):
    """Why these kernel inputs lie outside :data:`ANNOTATE_CONTRACT`,
    or ``None``."""
    for name, value in symbols.items():
        lo, hi = ANNOTATE_CONTRACT["symbols"][name]
        if not lo <= value <= hi:
            return f"size {name} = {value} outside [{lo}, {hi}]"
    bounds = {**symbols, **_CONSTANTS}
    for name, column in columns.items():
        length, lo, hi = ANNOTATE_CONTRACT["columns"][name]
        if len(column) != bounds[length]:
            return (f"column {name!r} has {len(column)} entries, not"
                    f" {length} = {bounds[length]}")
        if len(column):
            vmin, vmax = int(column.min()), int(column.max())
            lo_v = contract_bound(lo, bounds)
            hi_v = contract_bound(hi, bounds)
            if vmin < lo_v or vmax > hi_v:
                return (f"column {name!r} spans [{vmin}, {vmax}],"
                        f" outside [{lo_v}, {hi_v}]")
    if geometry is not None:
        for name, (lo, hi) in ANNOTATE_CONTRACT["geometry"].items():
            value = getattr(geometry, name)
            if not lo <= value <= hi:
                return f"geometry {name} = {value} outside [{lo}, {hi}]"
        if max(geometry.l1i_sets, geometry.l1d_sets) > symbols["sets"]:
            return (f"L1 tables sized for {symbols['sets']} sets, fewer"
                    " than the L1s have")
    return None


def contract_violation(trace, config):
    """Why annotating *trace* under *config* lies outside the kernel
    contract, or ``None`` when both passes may run in C.

    Predictor tables the Python classes reject (a gshare or BTB set
    count that is not a power of two) are outside too, so the Python
    route raises the same :class:`~repro.robustness.errors.ConfigError`
    it always did.
    """
    btb_sets, btb_rest = divmod(config.btb_entries, _BTB_WAYS)
    if btb_rest or not _is_power_of_two(btb_sets):
        return f"{config.btb_entries} BTB entries are not 4-way sets"
    if not _is_power_of_two(config.gshare_entries):
        return f"{config.gshare_entries} gshare entries"
    geometry = _geometry(config)
    l2 = config.hierarchy.l2
    columns = {name: getattr(trace, name) for name in ("pc", "addr", "target")}
    return (
        _violation(_front_symbols(trace, config, geometry), columns, geometry)
        or _violation({"sets": l2.num_sets, "assoc": l2.associativity}, {})
    )


def validate_annotate_contract(symbols, columns, geometry=None):
    """Enforce :data:`ANNOTATE_CONTRACT` on what is about to cross into C.

    Called by both drivers immediately before the kernel invocation:
    the kernel's bounds/overflow proof assumes exactly these ranges,
    so handing it anything outside them would void the certification.

    Raises
    ------
    repro.robustness.errors.InternalError
        If a size, a column's length or values, or a geometry field
        lies outside its contracted range.
    """
    violation = _violation(symbols, columns, geometry)
    if violation is not None:
        raise InternalError(
            f"annotation kernel input outside its contract: {violation}"
        )


def _member(values, distinct):
    """``np.isin(values, distinct)`` for a sorted, duplicate-free
    *distinct*, by binary search (a few prefetched lines against a
    trace-length column)."""
    if not len(distinct):
        return np.zeros(len(values), dtype=bool)
    index = np.minimum(np.searchsorted(distinct, values), len(distinct) - 1)
    return distinct[index] == values


def run_front_pass(trace, config):
    """The front pass of annotating *trace*, in C.

    Returns ``(mispred, position, kind, addr)``, bit-identical to
    :func:`repro.trace.annotate._run_front_pass` with a fresh default
    branch predictor.

    Raises
    ------
    repro.robustness.errors.InternalError
        If the kernel is unavailable (callers must check
        :func:`kernel_available` first), the inputs lie outside the
        contract, or the kernel's tables cannot be allocated.
    """
    _kernel = _loader.require().front
    hierarchy = config.hierarchy
    line_shift = hierarchy.l2.line_shift
    n = len(trace)
    pc = c_column(trace.pc, np.int64)
    addr = c_column(trace.addr, np.int64)
    fetch_line = pc >> line_shift
    data_line = addr >> line_shift
    # With the usual equal line sizes the L1 lines are the L2 lines.
    i_shift, d_shift = hierarchy.l1i.line_shift, hierarchy.l1d.line_shift
    iline = fetch_line if i_shift == line_shift else pc >> i_shift
    dline = data_line if d_shift == line_shift else addr >> d_shift
    # Only a line some prefetch touches can be awaiting a consumer.
    prefetch_lines = np.unique(data_line[trace.op == int(OpClass.PREFETCH)])
    columns = {
        "ops": c_column(trace.op, np.int8),
        "pc": pc,
        "addr": addr,
        "target": c_column(trace.target, np.int64),
        "taken": c_column(trace.taken, np.uint8),
        "cond": c_column((trace.src1 >= 0) | (trace.src2 >= 0), np.uint8),
        "fetch_line": fetch_line,
        "iline": iline,
        "dline": dline,
        "pf_fetch": c_column(_member(fetch_line, prefetch_lines), np.uint8),
        "pf_data": c_column(_member(data_line, prefetch_lines), np.uint8),
    }
    geometry = _geometry(config)
    symbols = _front_symbols(trace, config, geometry)
    mispred = np.zeros(n, dtype=bool)
    position = np.empty(2 * n, dtype=np.int32)
    kind = np.empty(2 * n, dtype=np.int8)

    # The kernel's bounds/overflow certification assumes exactly the
    # ANNOTATE_CONTRACT ranges (the plan-contract lint pass proves this
    # call dominates the kernel invocation).
    validate_annotate_contract(symbols, columns, geometry)

    count = _kernel(
        n, symbols["sets"], symbols["gshare"], symbols["btb_sets"],
        ctypes.byref(geometry),
        *(columns[name].ctypes.data for name in _FRONT_COLUMNS),
        mispred.ctypes.data, position.ctypes.data, kind.ctypes.data,
    )
    if count < 0:
        raise InternalError("compiled annotation kernel ran out of memory")
    position = position[:count].copy()
    kind = kind[:count].copy()
    layers = _layers()
    fetch = (kind == layers.FETCH_MISS) | (kind == layers.FETCH_HIT)
    return (mispred, position, kind,
            np.where(fetch, pc[position], addr[position]))


def run_back_pass(trace, front, config):
    """Replay *front*'s stream through the L2, in C.

    Returns the ``(dmiss, pmiss, pfuseful, imiss, smiss)`` masks,
    bit-identical to the L2 loop of :func:`repro.trace.annotate.back_pass`.

    Raises
    ------
    repro.robustness.errors.InternalError
        If the kernel is unavailable, the inputs lie outside the
        contract, or the L2 table cannot be allocated.
    """
    _kernel = _loader.require().back
    l2 = config.hierarchy.l2
    n = len(trace)
    line = front.addr >> l2.line_shift
    # Dense ids of the stream's lines index the prefetched-line owners.
    distinct, line_id = np.unique(line, return_inverse=True)
    nlines = len(distinct)
    columns = {
        "position": c_column(front.position, np.int32),
        "kind": c_column(front.kind, np.int8),
        "line": line,
        "line_id": line_id.astype(np.int32),
        "owner": np.full(nlines, -1, dtype=np.int32),
    }
    symbols = {
        "n": n,
        "m": len(line),
        "nlines": nlines,
        "sets": l2.num_sets,
        "assoc": l2.associativity,
    }
    masks = [np.zeros(n, dtype=bool) for _ in range(5)]

    # As in run_front_pass: the certified ranges hold on every path.
    validate_annotate_contract(symbols, columns)

    status = _kernel(
        n, symbols["m"], nlines, symbols["sets"], symbols["assoc"],
        *(columns[name].ctypes.data for name in _BACK_COLUMNS),
        *(mask.ctypes.data for mask in masks),
    )
    if status != 0:
        raise InternalError("compiled annotation kernel ran out of memory")
    return tuple(masks)


def _rename_inputs(trace, start, stop):
    """The opcode and register columns of ``trace[start:stop)``, as
    the renaming kernel reads them."""
    return {
        "ops": c_column(trace.op[start:stop], np.int8),
        **{name: c_column(getattr(trace, name)[start:stop], np.int16)
           for name in ("dst", "src1", "src2", "src3")},
    }


def rename_violation(trace, start, stop):
    """Why renaming ``trace[start:stop)`` lies outside the kernel
    contract, or ``None`` when it may run in C.

    A register outside ``[-1, NUM_REGS - 1]`` is outside, so the Python
    route treats it as it always did.
    """
    return _violation({"n": stop - start},
                      _rename_inputs(trace, start, stop))


def run_rename(trace, start, stop):
    """Rename registers and memory over ``trace[start:stop)``, in C.

    Returns a ``(4, n)`` int32 array whose rows are the ``prod1``,
    ``prod2``, ``prod3`` and ``memdep`` columns of
    :class:`repro.core.depgraph.DepGraph`, bit-identical to the Python
    loop :func:`repro.core.depgraph.rename_region`.

    Raises
    ------
    repro.robustness.errors.InternalError
        If the kernel is unavailable (callers must check
        :func:`kernel_available` first) or the inputs lie outside the
        contract.
    """
    _kernel = _loader.require().rename
    n = stop - start
    columns = _rename_inputs(trace, start, stop)
    # Dense ids of the memory operations' addresses index a flat
    # last-store table; every other instruction has id -1.
    memory = np.zeros(n, dtype=bool)
    for op in _MEMORY_OPS:
        memory |= columns["ops"] == op
    distinct, ids = np.unique(trace.addr[start:stop][memory],
                              return_inverse=True)
    addr_id = np.full(n, -1, dtype=np.int32)
    addr_id[memory] = ids
    columns["addr_id"] = addr_id
    columns["last_writer"] = np.full(NUM_REGS, -1, dtype=np.int32)
    columns["last_store"] = np.full(len(distinct), -1, dtype=np.int32)
    symbols = {"n": n, "naddrs": len(distinct)}
    producers = np.empty((4, n), dtype=np.int32)

    # As in run_front_pass: the certified ranges hold on every path.
    validate_annotate_contract(symbols, columns)

    _kernel(
        n, symbols["naddrs"],
        *(columns[name].ctypes.data for name in _RENAME_COLUMNS),
        *(row.ctypes.data for row in producers),
    )
    return producers
