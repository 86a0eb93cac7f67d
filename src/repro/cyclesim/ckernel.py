"""Compiled cyclesim kernel: drive ``_cyclesim_kernel.c``.

The cycle simulator's fast path is a C kernel held bit-identical to the
frozen reference (:mod:`repro.cyclesim.simulator_reference`), built,
bound and checked by :mod:`repro.cbuild` from its one declaration,
:data:`repro.cyclesim.plan.CYCLE_PLAN_CONTRACT`, exactly like the
MLPsim kernel.

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
reference simulator instead.  So does a config outside the kernel's
contracted ranges (:func:`in_contract`).
"""

import ctypes
import functools
import os

from repro.cbuild import KernelLoader, contract_fields, opcode_defines
from repro.core.config import BranchPolicy, LoadPolicy, SerializePolicy
from repro.cyclesim.metrics import STALL_CATEGORIES, CycleMetrics
from repro.cyclesim.plan import CYCLE_PLAN_CONTRACT
from repro.robustness.errors import InternalError

#: Per-config status codes of the C kernel (its ``ST_*`` names).
_ST_OK = 0
_ST_DEADLOCK = 1

_SOURCE_PATH = os.path.join(os.path.dirname(__file__), "_cyclesim_kernel.c")


class _KernelConfig(ctypes.Structure):
    _fields_ = contract_fields(CYCLE_PLAN_CONTRACT, "CycleConfig")


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


def _defines():
    """``_cyclesim_kernel.c``'s defines: the opcodes, a ``CAT_*`` index
    per stall category in :data:`STALL_CATEGORIES` order, the status
    codes, and the frozen reference's horizon ``NEVER`` and cache-line
    shift ``LINE_SHIFT`` (it imports this package, so they are read
    here, not at import)."""
    from repro.cyclesim.simulator_reference import _LINE_SHIFT, _NEVER

    return {
        **opcode_defines(),
        **{f"CAT_{category.upper()}": index
           for index, category in enumerate(STALL_CATEGORIES)},
        "N_CATEGORIES": len(STALL_CATEGORIES),
        "ST_OK": _ST_OK,
        "ST_DEADLOCK": _ST_DEADLOCK,
        "NEVER": _NEVER,
        "LINE_SHIFT": _LINE_SHIFT,
    }


_loader = KernelLoader(
    "cyclesim", _SOURCE_PATH, CYCLE_PLAN_CONTRACT, _defines,
    {"CycleConfig": _KernelConfig, "CycleResult": _KernelResult},
)


def kernel_available():
    """Can the compiled cyclesim kernel be used in this process?

    The first call probes (compiling if necessary); the outcome is
    cached for the life of the process either way.
    """
    return _loader.available()


def kernel_error():
    """Why the kernel is unavailable (``None`` when it loaded fine)."""
    return _loader.error()


@functools.lru_cache(maxsize=4096)
def _config_struct(config):
    """*config*'s ``CycleConfig``, built once and shared by the route
    check (:func:`in_contract`) and the driver (:func:`run_cycle_plan`);
    neither writes it."""
    issue = config.issue
    return _loader.struct(
        "CycleConfig",
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


@functools.lru_cache(maxsize=4096)
def in_contract(config):
    """Do *config*'s kernel fields lie inside the contracted ranges?

    A valid config can exceed them (a ROB above 2**20, a field no
    ``int64`` can hold); the kernel is not certified for it, so it runs
    on the frozen reference instead.  The verdict is remembered per
    config.
    """
    try:
        struct = _config_struct(config)
    except InternalError:
        return False
    return _loader.violation("cyclesim_batch", {
        "configs": (_KernelConfig * 1)(struct), "n_configs": 1}) is None


def run_cycle_plan(plan, pairs, workload):
    """Simulate every ``(label, config)`` pair against *plan*, a
    ``cyclesim_batch`` :class:`~repro.cbuild.Plan`, in C.

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
        :func:`kernel_available` first), the plan or a config lies
        outside :data:`~repro.cyclesim.plan.CYCLE_PLAN_CONTRACT`, or a
        config deadlocked — the same condition, same message, as the
        reference, with ``field`` set to that config's label.
    """
    pairs = list(pairs)
    n = len(plan)
    configs = (_KernelConfig * len(pairs))(
        *[_config_struct(config) for _, config in pairs]
    )
    results = (_KernelResult * len(pairs))()
    statuses = _loader.call("cyclesim_batch", {
        "n": n,
        **plan.columns,
        "configs": configs,
        "n_configs": len(pairs),
        "results": results,
    }, slices="n_configs")
    if any(statuses):
        raise InternalError("compiled cyclesim kernel ran out of memory")

    out = {}
    for (label, config), raw in zip(pairs, results):
        if raw.status == _ST_DEADLOCK:
            raise InternalError(
                f"cycle simulator deadlocked at cycle {raw.error_cycle}"
                f" (committed {raw.error_committed}/{n})",
                field=label,
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
