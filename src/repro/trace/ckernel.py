"""Compiled annotation kernel: drive ``_annotate_kernel.c``.

Both layers of :mod:`repro.trace.annotate`, and the renaming behind
:mod:`repro.core.depgraph`, have a C translation, built, bound and
checked by :mod:`repro.cbuild` from their declarations in
:data:`ANNOTATE_CONTRACT`, like the two simulator kernels:

* :func:`run_front_pass` — L1I/L1D filtering plus gshare and the BTB,
  for the memoised front pass;
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

import ctypes
import importlib
import os

import numpy as np

from repro.branch.btb import BTB_WAYS
from repro.cbuild import KernelLoader, contract_fields, opcode_defines, params
from repro.isa.opclass import OpClass
from repro.isa.registers import NUM_REGS, REG_ZERO
from repro.robustness.errors import InternalError

_SOURCE_PATH = os.path.join(os.path.dirname(__file__), "_annotate_kernel.c")

#: The annotation kernel's contract: its three entry points, each
#: declared once (see :class:`repro.cbuild.Param`), the boxes of their
#: sizes and the ranges of the ``Geometry`` fields.  A bound may name a
#: size or ``NUM_REGS``, which the header defines.  :mod:`repro.cbuild`
#: renders the prototypes and checks every call against them, and
#: :mod:`repro.lint.certify.contracts` builds the C proof's facts from
#: them.
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
    "entries": {
        "annotate_front": {
            "returns": "int64_t",
            "params": [
                ["n", "int64_t"],
                ["sets", "int64_t"],
                ["gshare", "int64_t"],
                ["btb_sets", "int64_t"],
                ["geo", "const Geometry *"],
                ["ops", "const int8_t *", "n", 0, 8],
                ["pc", "const int64_t *", "n", 0, 1 << 62],
                ["target", "const int64_t *", "n", 0, 1 << 62],
                ["taken", "const uint8_t *", "n", 0, 1],
                ["cond", "const uint8_t *", "n", 0, 1],
                ["fetch_line", "const int64_t *", "n", 0, 1 << 62],
                ["iline", "const int64_t *", "n", 0, 1 << 62],
                ["dline", "const int64_t *", "n", 0, 1 << 62],
                ["pf_fetch", "const uint8_t *", "n", 0, 1],
                ["pf_data", "const uint8_t *", "n", 0, 1],
                ["mispred", "uint8_t *", "n", 0, 1, "out"],
                ["out_pos", "int32_t *", ["n", 0, 2], 0, ["n", -1], "out"],
                ["out_kind", "int8_t *", ["n", 0, 2], 0, 5, "out"],
            ],
        },
        "annotate_back": {
            "returns": "int",
            "params": [
                ["n", "int64_t"],
                ["m", "int64_t"],
                ["nlines", "int64_t"],
                ["sets", "int64_t"],
                ["assoc", "int64_t"],
                ["position", "const int32_t *", "m", 0, ["n", -1]],
                ["kind", "const int8_t *", "m", 0, 5],
                ["line", "const int64_t *", "m", 0, 1 << 62],
                ["line_id", "const int32_t *", "m", 0, ["nlines", -1]],
                ["owner", "int32_t *", "nlines", -1, ["n", -1]],
                ["dmiss", "uint8_t *", "n", 0, 1, "out"],
                ["pmiss", "uint8_t *", "n", 0, 1, "out"],
                ["pfuseful", "uint8_t *", "n", 0, 1, "out"],
                ["imiss", "uint8_t *", "n", 0, 1, "out"],
                ["smiss", "uint8_t *", "n", 0, 1, "out"],
            ],
        },
        "annotate_rename": {
            "returns": "void",
            "params": [
                ["n", "int64_t"],
                ["naddrs", "int64_t"],
                ["ops", "const int8_t *", "n", 0, 8],
                ["dst", "const int16_t *", "n", -1, ["NUM_REGS", -1]],
                ["src1", "const int16_t *", "n", -1, ["NUM_REGS", -1]],
                ["src2", "const int16_t *", "n", -1, ["NUM_REGS", -1]],
                ["src3", "const int16_t *", "n", -1, ["NUM_REGS", -1]],
                ["addr_id", "const int32_t *", "n", -1, ["naddrs", -1]],
                ["last_writer", "int32_t *", "NUM_REGS", -1, ["n", -1]],
                ["last_store", "int32_t *", "naddrs", -1, ["n", -1]],
                ["prod1", "int32_t *", "n", -1, ["n", -1], "out"],
                ["prod2", "int32_t *", "n", -1, ["n", -1], "out"],
                ["prod3", "int32_t *", "n", -1, ["n", -1], "out"],
                ["memdep", "int32_t *", "n", -1, ["n", -1], "out"],
            ],
        },
    },
    "structs": {
        "Geometry": [
            [[1, 1 << 16], ["l1i_sets", "l1d_sets"]],
            [[1, 16], ["l1i_assoc", "l1d_assoc"]],
        ],
    },
}

#: The opcodes that access memory through their address: the loads,
#: the stores and the two atomics, which do both.
_MEMORY_OPS = tuple(int(op) for op in (OpClass.LOAD, OpClass.STORE,
                                       OpClass.CAS, OpClass.LDSTUB))

#: The stream kinds of :mod:`repro.trace.annotate`, by name.
_STREAM_KINDS = ("FETCH_MISS", "LOAD_MISS", "STORE_MISS", "PREFETCH_MISS",
                 "FETCH_HIT", "LOAD_HIT")

#: The masks :func:`run_back_pass` returns: the out-parameters of
#: ``annotate_back``, in their declared order.
_MASKS = tuple(param.name for param in params(
    ANNOTATE_CONTRACT["entries"]["annotate_back"]) if param.out)


class _Geometry(ctypes.Structure):
    _fields_ = contract_fields(ANNOTATE_CONTRACT, "Geometry")


def _layers():
    """:mod:`repro.trace.annotate`, which imports this module (the
    package re-exports the annotate() function over its name)."""
    return importlib.import_module("repro.trace.annotate")


def _defines():
    """``_annotate_kernel.c``'s defines: the opcodes, the stream kinds,
    ``BTB_WAYS``, ``WAYS`` (the ways reserved per cache set: the largest
    associativity the contract admits) and the register file."""
    layers = _layers()
    return {
        **opcode_defines(),
        **{name: getattr(layers, name) for name in _STREAM_KINDS},
        "BTB_WAYS": BTB_WAYS,
        "WAYS": ANNOTATE_CONTRACT["symbols"]["assoc"][1],
        "NUM_REGS": NUM_REGS,
        "REG_ZERO": REG_ZERO,
    }


_loader = KernelLoader("annotation", _SOURCE_PATH, ANNOTATE_CONTRACT,
                       _defines, {"Geometry": _Geometry})


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
        "btb_sets": config.btb_entries // BTB_WAYS,
    }


def _is_power_of_two(value):
    return value > 0 and not value & (value - 1)


def contract_violation(trace, config):
    """Why annotating *trace* under *config* lies outside the kernel
    contract, or ``None`` when both passes may run in C.

    Predictor tables the Python classes reject (a gshare or BTB set
    count that is not a power of two) are outside too, so the Python
    route raises the same :class:`~repro.robustness.errors.ConfigError`
    it always did.
    """
    btb_sets, btb_rest = divmod(config.btb_entries, BTB_WAYS)
    if btb_rest or not _is_power_of_two(btb_sets):
        return (f"{config.btb_entries} BTB entries are not {BTB_WAYS}-way"
                " sets")
    if not _is_power_of_two(config.gshare_entries):
        return f"{config.gshare_entries} gshare entries"
    geometry = _geometry(config)
    l2 = config.hierarchy.l2
    # Every line either pass reads is a pc or an address shifted right,
    # so addresses inside the line range keep all of them inside it.
    return (
        _loader.violation("annotate_front", {
            **_front_symbols(trace, config, geometry), "geo": geometry,
            "pc": trace.pc, "target": trace.target, "dline": trace.addr,
        })
        or _loader.violation("annotate_back", {
            "sets": l2.num_sets, "assoc": l2.associativity,
        })
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
    :func:`repro.trace.annotate._run_front_pass`.

    Raises
    ------
    repro.robustness.errors.InternalError
        If the kernel is unavailable (callers must check
        :func:`kernel_available` first), the inputs lie outside the
        contract, or the kernel's tables cannot be allocated.
    """
    hierarchy = config.hierarchy
    line_shift = hierarchy.l2.line_shift
    n = len(trace)
    pc, addr = trace.pc, trace.addr
    fetch_line = pc >> line_shift
    data_line = addr >> line_shift
    # With the usual equal line sizes the L1 lines are the L2 lines.
    i_shift, d_shift = hierarchy.l1i.line_shift, hierarchy.l1d.line_shift
    iline = fetch_line if i_shift == line_shift else pc >> i_shift
    dline = data_line if d_shift == line_shift else addr >> d_shift
    # Only a line some prefetch touches can be awaiting a consumer.
    prefetch_lines = np.unique(data_line[trace.op == int(OpClass.PREFETCH)])
    geometry = _geometry(config)
    symbols = _front_symbols(trace, config, geometry)
    # The kernel sizes both L1 tables for `sets` sets; its certify
    # assume on the geometry rests on this check.
    if max(geometry.l1i_sets, geometry.l1d_sets) > symbols["sets"]:
        raise InternalError(f"L1 tables sized for {symbols['sets']} sets,"
                            " fewer than the L1s have")
    mispred = np.zeros(n, dtype=bool)
    position = np.empty(2 * n, dtype=np.int32)
    kind = np.empty(2 * n, dtype=np.int8)
    count = _loader.call("annotate_front", {
        **symbols,
        "geo": geometry,
        "ops": trace.op,
        "pc": pc,
        "target": trace.target,
        "taken": trace.taken,
        "cond": (trace.src1 >= 0) | (trace.src2 >= 0),
        "fetch_line": fetch_line,
        "iline": iline,
        "dline": dline,
        "pf_fetch": _member(fetch_line, prefetch_lines),
        "pf_data": _member(data_line, prefetch_lines),
        "mispred": mispred,
        "out_pos": position,
        "out_kind": kind,
    })
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
    l2 = config.hierarchy.l2
    n = len(trace)
    line = front.addr >> l2.line_shift
    # Dense ids of the stream's lines index the prefetched-line owners.
    distinct, line_id = np.unique(line, return_inverse=True)
    masks = {name: np.zeros(n, dtype=bool) for name in _MASKS}
    status = _loader.call("annotate_back", {
        "n": n,
        "m": len(line),
        "nlines": len(distinct),
        "sets": l2.num_sets,
        "assoc": l2.associativity,
        "position": front.position,
        "kind": front.kind,
        "line": line,
        "line_id": line_id.astype(np.int32),
        "owner": np.full(len(distinct), -1, dtype=np.int32),
        **masks,
    })
    if status != 0:
        raise InternalError("compiled annotation kernel ran out of memory")
    return tuple(masks.values())


def _rename_inputs(trace, start, stop):
    """The opcode and register columns of ``trace[start:stop)``, as
    the renaming kernel reads them."""
    return {
        "ops": trace.op[start:stop],
        **{name: getattr(trace, name)[start:stop]
           for name in ("dst", "src1", "src2", "src3")},
    }


def rename_violation(trace, start, stop):
    """Why renaming ``trace[start:stop)`` lies outside the kernel
    contract, or ``None`` when it may run in C.

    A register outside ``[-1, NUM_REGS - 1]`` is outside, so the Python
    route treats it as it always did.
    """
    return _loader.violation("annotate_rename", {
        "n": stop - start, **_rename_inputs(trace, start, stop)})


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
    producers = np.empty((4, n), dtype=np.int32)
    _loader.call("annotate_rename", {
        "n": n,
        "naddrs": len(distinct),
        **columns,
        "addr_id": addr_id,
        "last_writer": np.full(NUM_REGS, -1, dtype=np.int32),
        "last_store": np.full(len(distinct), -1, dtype=np.int32),
        **dict(zip(("prod1", "prod2", "prod3", "memdep"), producers)),
    })
    return producers
