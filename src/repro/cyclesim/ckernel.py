"""Compiled cyclesim kernel: bind and drive ``_cyclesim_kernel.c``.

The cycle simulator's fast path is a C kernel held bit-identical to the
frozen reference (:mod:`repro.cyclesim.simulator_reference`), built and
loaded by :mod:`repro.cbuild` exactly like the MLPsim kernel.

One :func:`run_cycle_plan` call simulates **many pipeline
configurations against one shared cycle plan**: the per-instruction
tables are prepared once and the per-config cost is a compiled pipeline
walk, which is what makes the Table 3 grid (27 configs per workload)
cheap.  The batch is cut into one slice per usable CPU
(:func:`repro.cbuild.run_slices`), each slice one kernel call on its
own thread.

Everything is fail-soft: a missing compiler or unwritable build
directory marks the kernel unavailable (:func:`kernel_available`
returns ``False``) and :mod:`repro.cyclesim.simulator` runs the
reference simulator instead.
"""

import ctypes
import os

import numpy as np

from repro.cbuild import KernelLoader, c_column, run_slices, verify_opcodes
from repro.core.config import BranchPolicy, LoadPolicy, SerializePolicy
from repro.cyclesim.metrics import STALL_CATEGORIES, CycleMetrics
from repro.cyclesim.plan import validate_cycle_plan_contract
from repro.robustness.errors import InternalError

#: Per-config status codes of the C kernel (``ST_*`` defines).
_ST_OK = 0
_ST_DEADLOCK = 1

_SOURCE_PATH = os.path.join(os.path.dirname(__file__), "_cyclesim_kernel.c")


class _KernelConfig(ctypes.Structure):
    _fields_ = [
        ("rob", ctypes.c_int64),
        ("issue_window", ctypes.c_int64),
        ("fetch_buffer", ctypes.c_int64),
        ("fetch_width", ctypes.c_int64),
        ("dispatch_width", ctypes.c_int64),
        ("issue_width", ctypes.c_int64),
        ("commit_width", ctypes.c_int64),
        ("frontend_depth", ctypes.c_int64),
        ("alu_latency", ctypes.c_int64),
        ("branch_latency", ctypes.c_int64),
        ("l1_latency", ctypes.c_int64),
        ("l2_latency", ctypes.c_int64),
        ("miss_penalty", ctypes.c_int64),
        ("redirect_penalty", ctypes.c_int64),
        ("load_in_order", ctypes.c_int64),
        ("load_wait_staddr", ctypes.c_int64),
        ("branch_in_order", ctypes.c_int64),
        ("serializing", ctypes.c_int64),
        ("perfect_l2", ctypes.c_int64),
        ("event_skip", ctypes.c_int64),
    ]


class _KernelResult(ctypes.Structure):
    _fields_ = [
        ("cycles", ctypes.c_int64),
        ("offchip_accesses", ctypes.c_int64),
        ("dmiss_accesses", ctypes.c_int64),
        ("imiss_accesses", ctypes.c_int64),
        ("prefetch_accesses", ctypes.c_int64),
        ("nonzero_cycles", ctypes.c_int64),
        ("outstanding_integral", ctypes.c_int64),
        ("stalls", ctypes.c_int64 * len(STALL_CATEGORIES)),
        ("status", ctypes.c_int64),
        ("error_cycle", ctypes.c_int64),
        ("error_committed", ctypes.c_int64),
    ]


def _verify_constants():
    """The C source hard-codes enum values; refuse to load on any skew."""
    verify_opcodes("_cyclesim_kernel.c")


def _bind(lib):
    fn = lib.cyclesim_batch
    fn.restype = ctypes.c_int
    fn.argtypes = [
        ctypes.c_int64,                       # n
        ctypes.c_void_p,                      # ops
        ctypes.c_void_p, ctypes.c_void_p,     # prod1, prod2
        ctypes.c_void_p, ctypes.c_void_p,     # prod3, memdep
        ctypes.c_void_p, ctypes.c_void_p,     # addr_line, pc_line
        ctypes.c_void_p, ctypes.c_void_p,     # dmiss, imiss
        ctypes.c_void_p, ctypes.c_void_p,     # mispred, pmiss
        ctypes.c_void_p,                      # pfuseful
        ctypes.POINTER(_KernelConfig),
        ctypes.c_int64,
        ctypes.POINTER(_KernelResult),
    ]
    return fn


_loader = KernelLoader("cyclesim", _SOURCE_PATH, _bind, _verify_constants)


def kernel_available():
    """Can the compiled cyclesim kernel be used in this process?

    The first call probes (compiling if necessary); the outcome is
    cached for the life of the process either way.
    """
    return _loader.available()


def kernel_error():
    """Why the kernel is unavailable (``None`` when it loaded fine)."""
    return _loader.error()


def _config_struct(config):
    issue = config.issue
    return _KernelConfig(
        rob=config.rob,
        issue_window=config.issue_window,
        fetch_buffer=config.fetch_buffer,
        fetch_width=config.fetch_width,
        dispatch_width=config.dispatch_width,
        issue_width=config.issue_width,
        commit_width=config.commit_width,
        frontend_depth=config.frontend_depth,
        alu_latency=config.alu_latency,
        branch_latency=config.branch_latency,
        l1_latency=config.l1_latency,
        l2_latency=config.l2_latency,
        miss_penalty=config.miss_penalty,
        redirect_penalty=config.redirect_penalty,
        load_in_order=issue.load_policy == LoadPolicy.IN_ORDER,
        load_wait_staddr=issue.load_policy == LoadPolicy.WAIT_STORE_ADDR,
        branch_in_order=issue.branch_policy == BranchPolicy.IN_ORDER,
        serializing=issue.serialize_policy == SerializePolicy.SERIALIZING,
        perfect_l2=config.perfect_l2,
        event_skip=config.event_skip,
    )


def run_cycle_plan(plan, pairs, workload):
    """Simulate every ``(label, config)`` pair against *plan* in C.

    The batch runs as one kernel call per slice of configs, one slice
    per usable CPU, at the same time: the slices share the columns
    read-only and each call reuses its own scratch buffers across its
    configs.  Statuses are checked once every slice has finished, in
    grid order.  Returns ``{label: CycleMetrics}`` in input order,
    bit-identical to the frozen reference whatever the number of
    slices.

    Raises
    ------
    repro.robustness.errors.InternalError
        If the kernel is unavailable (callers must check
        :func:`kernel_available` first) or a config deadlocked — the
        same condition, same message, as the reference.
    """
    _kernel = _loader.require()
    pairs = list(pairs)
    n = len(plan)

    ops = c_column(plan.ops, np.int8)
    prod1 = c_column(plan.prod1, np.int32)
    prod2 = c_column(plan.prod2, np.int32)
    prod3 = c_column(plan.prod3, np.int32)
    memdep = c_column(plan.memdep, np.int32)
    addr_line = c_column(plan.addr_line, np.int64)
    pc_line = c_column(plan.pc_line, np.int64)
    dmiss = c_column(plan.dmiss, np.uint8)
    imiss = c_column(plan.imiss, np.uint8)
    mispred = c_column(plan.mispred, np.uint8)
    pmiss = c_column(plan.pmiss, np.uint8)
    pfuseful = c_column(plan.pfuseful, np.uint8)

    configs = (_KernelConfig * len(pairs))(
        *[_config_struct(config) for _, config in pairs]
    )
    results = (_KernelResult * len(pairs))()

    # The kernel's bounds/overflow certification assumes exactly the
    # CYCLE_PLAN_CONTRACT ranges; refuse to call it with anything
    # outside them (the plan-contract lint pass proves this call
    # dominates the kernel invocation).
    validate_cycle_plan_contract(plan, configs)

    def run_slice(lo, hi):
        return _kernel(
            n,
            ops.ctypes.data, prod1.ctypes.data, prod2.ctypes.data,
            prod3.ctypes.data, memdep.ctypes.data,
            addr_line.ctypes.data, pc_line.ctypes.data,
            dmiss.ctypes.data, imiss.ctypes.data, mispred.ctypes.data,
            pmiss.ctypes.data, pfuseful.ctypes.data,
            ctypes.byref(configs[lo]), hi - lo, ctypes.byref(results[lo]),
        )

    if any(run_slices(run_slice, len(pairs))):
        raise InternalError("compiled cyclesim kernel ran out of memory")

    out = {}
    for (label, config), raw in zip(pairs, results):
        if raw.status == _ST_DEADLOCK:
            raise InternalError(
                f"cycle simulator deadlocked at cycle {raw.error_cycle}"
                f" (committed {raw.error_committed}/{n})"
            )
        metrics = CycleMetrics(
            workload=workload,
            label=f"{config.issue_window}{config.issue.name}"
            + ("/perfL2" if config.perfect_l2 else ""),
            instructions=n,
            cycles=raw.cycles,
            offchip_accesses=raw.offchip_accesses,
            dmiss_accesses=raw.dmiss_accesses,
            imiss_accesses=raw.imiss_accesses,
            prefetch_accesses=raw.prefetch_accesses,
            nonzero_cycles=raw.nonzero_cycles,
            outstanding_integral=raw.outstanding_integral,
        )
        metrics.stall_cycles.update(zip(STALL_CATEGORIES, raw.stalls))
        out[label] = metrics
    return out
