"""Compiled MLPsim kernel: drive ``_mlpsim_kernel.c``.

MLPsim's compiled engine is a C translation of the oracles' epoch
scans, out-of-order and runahead (see ``_mlpsim_kernel.c``), built,
bound and checked by :mod:`repro.cbuild` from its one declaration,
:data:`repro.core.columnar.PLAN_CONTRACT`.  One :func:`run_plan` call simulates
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
:func:`repro.core.mlpsim.simulate` and the sweep executor
(:mod:`repro.robustness.supervisor`) send every config to the oracles.
"""

import ctypes
import functools
import os

from repro.cbuild import KernelLoader, contract_fields, opcode_defines
from repro.core.columnar import PLAN_CONTRACT
from repro.core.config import BranchPolicy, LoadPolicy, SerializePolicy
from repro.core.mlpsim import NOT_EXECUTED
from repro.core.results import MLPResult
from repro.core.termination import Inhibitor, InhibitorCounts
from repro.robustness.errors import InternalError

_SOURCE_PATH = os.path.join(os.path.dirname(__file__), "_mlpsim_kernel.c")

_UNBOUNDED = 1 << 30

#: A runahead period never scans past the end of the region, so a
#: ``max_runahead`` beyond the longest certified region behaves exactly
#: like this cap.
_RUNAHEAD_CAP = PLAN_CONTRACT["symbols"]["n"][1] + 1


class _KernelConfig(ctypes.Structure):
    _fields_ = contract_fields(PLAN_CONTRACT, "KernelConfig")


class _KernelResult(ctypes.Structure):
    _fields_ = [
        ("epochs", ctypes.c_int64),
        ("accesses", ctypes.c_int64),
        ("dmiss_accesses", ctypes.c_int64),
        ("imiss_accesses", ctypes.c_int64),
        ("prefetch_accesses", ctypes.c_int64),
        ("store_accesses", ctypes.c_int64),
        ("store_epochs", ctypes.c_int64),
        ("inhibitors", ctypes.c_int64 * len(Inhibitor)),  # INH_* order
        ("error_index", ctypes.c_int64),  # -1, or the no-progress index
    ]


def _defines():
    """``_mlpsim_kernel.c``'s defines: the opcodes, an ``INH_*`` index
    per :class:`Inhibitor` in definition order and ``NOT_EXECUTED``."""
    return {
        **opcode_defines(),
        **{f"INH_{inhibitor.name}": index
           for index, inhibitor in enumerate(Inhibitor)},
        "INH_COUNT": len(Inhibitor),
        "NOT_EXECUTED": NOT_EXECUTED,
    }


_loader = KernelLoader(
    "MLPsim", _SOURCE_PATH, PLAN_CONTRACT, _defines,
    {"KernelConfig": _KernelConfig, "KernelResult": _KernelResult},
)


def kernel_available():
    """Can the compiled kernel be used in this process?

    The first call probes (compiling if necessary); the outcome is
    cached for the life of the process either way.
    """
    return _loader.available()


def kernel_error():
    """Why the kernel is unavailable (``None`` when it loaded fine)."""
    return _loader.error()


@functools.lru_cache(maxsize=4096)
def _config_struct(machine):
    """*machine*'s ``KernelConfig``, built once and shared by the route
    check (:func:`in_contract`) and the driver (:func:`run_plan`);
    neither writes it."""
    issue = machine.issue
    return _loader.struct(
        "KernelConfig",
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


@functools.lru_cache(maxsize=4096)
def in_contract(machine):
    """Do *machine*'s kernel config fields lie inside the contracted ranges?

    A valid machine can exceed them (a ROB above 2**24, an MSHR file
    above 2**30, a field no ``int64`` can hold); the kernel is not
    certified for it, so it runs on the oracles instead.  The verdict is
    remembered per machine.
    """
    try:
        struct = _config_struct(machine)
    except InternalError:
        return False
    return _loader.violation("mlpsim_batch", {
        "configs": (_KernelConfig * 1)(struct), "nconfigs": 1}) is None


def batched_supported(machine, record_sets=False):
    """Will *machine* run on the compiled kernel (vs the oracles)?

    True when the kernel is available, the run does not record epoch
    sets, and the machine's kernel config lies inside the contracted
    ranges (:func:`in_contract`).
    """
    return not record_sets and kernel_available() and in_contract(machine)


def run_plan(plan, machines, workload):
    """Simulate every ``(label, machine)`` pair against *plan*, an
    ``mlpsim_batch`` :class:`~repro.cbuild.Plan`, in C.

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
        :func:`kernel_available` first), the plan or a config lies
        outside :data:`~repro.core.columnar.PLAN_CONTRACT`, or a config
        made no progress — the same condition, same message, as the
        Python engines, with ``field`` set to that config's label.
    """
    pairs = list(machines)
    n = len(plan)
    configs = (_KernelConfig * len(pairs))(
        *[_config_struct(machine) for _, machine in pairs]
    )
    results = (_KernelResult * len(pairs))()
    statuses = _loader.call("mlpsim_batch", {
        "n": n,
        **plan.columns,
        "configs": configs,
        "nconfigs": len(pairs),
        "results": results,
    }, slices="nconfigs")
    if any(statuses):
        raise InternalError("compiled MLPsim kernel ran out of memory")

    out = {}
    for (label, machine), raw in zip(pairs, results):
        if raw.error_index >= 0:
            raise InternalError(
                "MLPsim made no progress in an epoch at instruction"
                f" {raw.error_index + plan.start}",
                field=label,
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
            inhibitors=InhibitorCounts.from_counts(raw.inhibitors),
            epoch_records=None,
        )
    return out
