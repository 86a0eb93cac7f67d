"""Compiled MLPsim kernel: bind and drive ``_mlpsim_kernel.c``.

MLPsim's compiled engine is a C translation of the oracles' epoch
scans, out-of-order and runahead (see ``_mlpsim_kernel.c``), built and
loaded by :mod:`repro.cbuild`.  One :func:`run_plan` call simulates
**many machine configurations against one shared columnar plan**,
which is what makes full-grid sweeps cheap: the trace columns are
prepared once and the per-config cost collapses to a few milliseconds
of compiled scanning.  The batch is cut into one slice per usable CPU
(:func:`repro.cbuild.run_slices`), each slice one kernel call on its
own thread.  Each config's ``runahead`` field selects its scan inside
its slice's call.

Everything here is fail-soft: a missing compiler, an unwritable build
directory or a failed compilation simply mark the kernel unavailable
(:func:`kernel_available` returns ``False``), and
:func:`repro.core.mlpsim.simulate` and :mod:`repro.core.batched` send
every config to the oracles.
"""

import ctypes
import os

import numpy as np

from repro.cbuild import KernelLoader, c_column, run_slices, verify_opcodes
from repro.core.columnar import (
    PLAN_CONTRACT,
    config_violation,
    validate_plan_contract,
)
from repro.core.results import MLPResult
from repro.core.termination import Inhibitor, InhibitorCounts
from repro.robustness.errors import InternalError

#: Inhibitor indices of the C kernel, in order.  Must match the INH_*
#: defines in ``_mlpsim_kernel.c``.
INHIBITOR_ORDER = (
    Inhibitor.IMISS_START,
    Inhibitor.MAXWIN,
    Inhibitor.MISPRED_BR,
    Inhibitor.IMISS_END,
    Inhibitor.MISSING_LOAD,
    Inhibitor.DEP_STORE,
    Inhibitor.SERIALIZE,
    Inhibitor.RUNAHEAD_LIMIT,
    Inhibitor.MSHR_LIMIT,
    Inhibitor.STORE_BUFFER,
    Inhibitor.END_OF_TRACE,
)

#: ``execute()`` status codes of the C kernel, keyed by the ``ST_*``
#: suffix.  The Python engines speak strings ("done", "defer",
#: "stop-done", "stop-defer"); the C scan encodes the same four
#: outcomes as these integers, and the ``kernel-constants`` lint pass
#: holds the ``ST_*`` defines in ``_mlpsim_kernel.c`` to this table.
_EXPECTED_STATUSES = {
    "DONE": 0, "DEFER": 1, "STOP_DONE": 2, "STOP_DEFER": 3,
}

_SOURCE_PATH = os.path.join(os.path.dirname(__file__), "_mlpsim_kernel.c")

_UNBOUNDED = 1 << 30

#: A runahead period never scans past the end of the region, so a
#: ``max_runahead`` beyond the longest certified region behaves exactly
#: like this cap.
_RUNAHEAD_CAP = PLAN_CONTRACT["n_max"] + 1


class _KernelConfig(ctypes.Structure):
    _fields_ = [
        ("rob", ctypes.c_int64),
        ("iw", ctypes.c_int64),
        ("fetch_buffer", ctypes.c_int64),
        ("serializing", ctypes.c_int64),
        ("load_in_order", ctypes.c_int64),
        ("load_wait_staddr", ctypes.c_int64),
        ("branch_in_order", ctypes.c_int64),
        ("mshr_cap", ctypes.c_int64),
        ("sb_cap", ctypes.c_int64),
        ("slow_bp", ctypes.c_int64),
        ("slow_bp_threshold", ctypes.c_int64),
        ("runahead", ctypes.c_int64),
        ("max_runahead", ctypes.c_int64),
    ]


class _KernelResult(ctypes.Structure):
    _fields_ = [
        ("epochs", ctypes.c_int64),
        ("accesses", ctypes.c_int64),
        ("dmiss_accesses", ctypes.c_int64),
        ("imiss_accesses", ctypes.c_int64),
        ("prefetch_accesses", ctypes.c_int64),
        ("store_accesses", ctypes.c_int64),
        ("store_epochs", ctypes.c_int64),
        ("inhibitors", ctypes.c_int64 * len(INHIBITOR_ORDER)),
        ("error_index", ctypes.c_int64),
    ]


def _verify_constants():
    """The C source hard-codes enum values; refuse to load on any skew."""
    verify_opcodes("_mlpsim_kernel.c")
    if len(INHIBITOR_ORDER) != len(Inhibitor):
        raise InternalError(
            "Inhibitor enum and the compiled kernel's INH_* table"
            " disagree; update _mlpsim_kernel.c and INHIBITOR_ORDER"
        )


def _bind(lib):
    fn = lib.mlpsim_batch
    fn.restype = ctypes.c_int
    fn.argtypes = [
        ctypes.c_int64,                       # n
        ctypes.c_void_p,                      # ops
        ctypes.c_void_p, ctypes.c_void_p,     # prod1, prod2
        ctypes.c_void_p, ctypes.c_void_p,     # prod3, memdep
        ctypes.c_void_p, ctypes.c_void_p,     # dmiss, imiss
        ctypes.c_void_p, ctypes.c_void_p,     # mispred, pmiss
        ctypes.c_void_p, ctypes.c_void_p,     # pfuseful, vp_ok
        ctypes.c_void_p, ctypes.c_void_p,     # smiss, scalar_mask
        ctypes.POINTER(_KernelConfig),
        ctypes.c_int64,
        ctypes.POINTER(_KernelResult),
    ]
    return fn


_loader = KernelLoader("MLPsim", _SOURCE_PATH, _bind, _verify_constants)


def kernel_available():
    """Can the compiled kernel be used in this process?

    The first call probes (compiling if necessary); the outcome is
    cached for the life of the process either way.
    """
    return _loader.available()


def kernel_error():
    """Why the kernel is unavailable (``None`` when it loaded fine)."""
    return _loader.error()


def _config_struct(machine):
    from repro.core.config import (
        BranchPolicy,
        LoadPolicy,
        SerializePolicy,
    )

    issue = machine.issue
    return _KernelConfig(
        rob=machine.rob,
        iw=machine.issue_window,
        fetch_buffer=machine.fetch_buffer,
        serializing=issue.serialize_policy == SerializePolicy.SERIALIZING,
        load_in_order=issue.load_policy == LoadPolicy.IN_ORDER,
        load_wait_staddr=issue.load_policy == LoadPolicy.WAIT_STORE_ADDR,
        branch_in_order=issue.branch_policy == BranchPolicy.IN_ORDER,
        mshr_cap=machine.max_outstanding or _UNBOUNDED,
        sb_cap=(machine.store_buffer
                if machine.store_buffer is not None else _UNBOUNDED),
        slow_bp=machine.slow_branch_predictor,
        slow_bp_threshold=int(machine.slow_bp_accuracy * 1024),
        runahead=machine.runahead,
        max_runahead=min(machine.max_runahead, _RUNAHEAD_CAP),
    )


def in_contract(machine):
    """Do *machine*'s kernel config fields lie inside the contracted ranges?

    A valid machine can exceed them (a ROB above 2**24, an MSHR file
    above 2**30); the kernel is not certified for it, so it runs on the
    oracles instead.
    """
    return config_violation(_config_struct(machine)) is None


def run_plan(plan, machines, workload):
    """Simulate every ``(label, machine)`` pair against *plan* in C.

    The batch runs as one kernel call per slice of configs, one slice
    per usable CPU, at the same time: the slices share the columns
    read-only and each call reuses its own scratch buffers across its
    configs.  Statuses are checked once every slice has finished, in
    grid order.  Returns ``{label: MLPResult}`` in input order,
    bit-identical whatever the number of slices.

    Raises
    ------
    repro.robustness.errors.InternalError
        If the kernel is unavailable (callers must check
        :func:`kernel_available` first) or a config made no progress —
        the same condition, same message, as the Python engines.
    """
    _kernel = _loader.require()
    pairs = list(machines)
    n = len(plan)

    ops = c_column(plan.ops, np.int8)
    prod1 = c_column(plan.prod1, np.int32)
    prod2 = c_column(plan.prod2, np.int32)
    prod3 = c_column(plan.prod3, np.int32)
    memdep = c_column(plan.memdep, np.int32)
    dmiss = c_column(plan.dmiss, np.uint8)
    imiss = c_column(plan.imiss, np.uint8)
    mispred = c_column(plan.mispred, np.uint8)
    pmiss = c_column(plan.pmiss, np.uint8)
    pfuseful = c_column(plan.pfuseful, np.uint8)
    vp_ok = c_column(plan.vp_ok, np.uint8)
    smiss = c_column(plan.smiss, np.uint8)
    scalar_mask = c_column(plan.scalar_mask, np.uint8)

    configs = (_KernelConfig * len(pairs))(
        *[_config_struct(machine) for _, machine in pairs]
    )
    results = (_KernelResult * len(pairs))()

    # The kernel's bounds/overflow certification assumes exactly the
    # PLAN_CONTRACT ranges; refuse to call it with anything outside
    # them (the plan-contract lint pass proves this call dominates the
    # kernel invocation).
    validate_plan_contract(plan, configs)

    def run_slice(lo, hi):
        return _kernel(
            n,
            ops.ctypes.data, prod1.ctypes.data, prod2.ctypes.data,
            prod3.ctypes.data, memdep.ctypes.data,
            dmiss.ctypes.data, imiss.ctypes.data, mispred.ctypes.data,
            pmiss.ctypes.data, pfuseful.ctypes.data, vp_ok.ctypes.data,
            smiss.ctypes.data, scalar_mask.ctypes.data,
            ctypes.byref(configs[lo]), hi - lo, ctypes.byref(results[lo]),
        )

    if any(run_slices(run_slice, len(pairs))):
        raise InternalError("compiled MLPsim kernel ran out of memory")

    out = {}
    for (label, machine), raw in zip(pairs, results):
        if raw.error_index >= 0:
            raise InternalError(
                "MLPsim made no progress in an epoch at instruction"
                f" {raw.error_index + plan.start}"
            )
        counts = InhibitorCounts.from_dict(
            dict(zip(INHIBITOR_ORDER, raw.inhibitors))
        )
        out[label] = MLPResult(
            workload=workload,
            machine_label=machine.label,
            instructions=n,
            accesses=raw.accesses,
            epochs=raw.epochs,
            dmiss_accesses=raw.dmiss_accesses,
            imiss_accesses=raw.imiss_accesses,
            prefetch_accesses=raw.prefetch_accesses,
            store_accesses=raw.store_accesses,
            store_epochs=raw.store_epochs,
            inhibitors=counts,
            epoch_records=None,
        )
    return out
