"""Flat per-region input tables of the cycle simulator.

The cycle simulator's hot loop reads per-instruction facts — opcode,
producers, event flags, cache-line numbers — that are properties of the
*trace region alone*: unlike MLPsim plans there is no per-machine mask
group, because the cyclesim grid never flips perfect-* switches (the
``perfect_l2`` knob is applied at access time, not in the masks).  One
:class:`CyclePlan` therefore serves **every** configuration of a grid
sweep, which is what makes Table 3's 27 configs per workload cheap: the
decode/opclass, dependence and event tables are built once, the per
-config cost collapses to the compiled pipeline walk.

Like the columnar MLPsim plan, a cycle plan spills to a flat
``{name: array}`` payload so :mod:`repro.analysis.shm` can publish it
once and let sweep workers attach zero-copy; the schema version travels
with the payload so a stale publisher is rejected loudly.
"""

import dataclasses

import numpy as np

from repro.cbuild import column_dtypes, crossing
from repro.core.depgraph import depgraph_for
from repro.core.mlpsim import _event_arrays, resolve_region
from repro.robustness.errors import TraceFormatError

#: Version of the cycle-plan payload layout; bump on any change to the
#: column set or meaning so a stale shared segment cannot be misread.
CYCLE_SCHEMA_VERSION = 1

#: Cache-line shift shared with the simulator (64-byte lines).
LINE_SHIFT = 6

#: Payload key distinguishing a cycle plan from a columnar MLPsim plan
#: inside the shared-memory publication protocol.
CYCLE_META_KEY = "cycle_meta"

#: The cyclesim kernel's contract: its one entry point,
#: ``cyclesim_batch``, declared once (see :class:`repro.cbuild.Param`),
#: the boxes of its sizes and the ranges of the ``CycleConfig`` fields.
#: Producer columns keep the depgraph's ``-1`` sentinel (unlike MLPsim
#: plans, which rewrite it to ``n``).  :mod:`repro.cbuild` renders the
#: prototype and checks every call against the declaration, and
#: :mod:`repro.lint.certify.contracts` builds the C proof's facts from
#: it.  The plan's columns are the entry point's columns.
CYCLE_PLAN_CONTRACT = {
    "symbols": {"n": [0, 1 << 26], "n_configs": [0, 1 << 20]},
    "entries": {
        "cyclesim_batch": {
            "returns": "int",
            "params": [
                ["n", "int64_t"],
                ["ops", "const int8_t *", "n", 0, 8],
                ["prod1", "const int32_t *", "n", -1, ["n", -1]],
                ["prod2", "const int32_t *", "n", -1, ["n", -1]],
                ["prod3", "const int32_t *", "n", -1, ["n", -1]],
                ["memdep", "const int32_t *", "n", -1, ["n", -1]],
                ["addr_line", "const int64_t *", "n", 0, 1 << 57],
                ["pc_line", "const int64_t *", "n", 0, 1 << 57],
                ["dmiss", "const uint8_t *", "n", 0, 1],
                ["imiss", "const uint8_t *", "n", 0, 1],
                ["mispred", "const uint8_t *", "n", 0, 1],
                ["pmiss", "const uint8_t *", "n", 0, 1],
                ["pfuseful", "const uint8_t *", "n", 0, 1],
                ["configs", "const CycleConfig *", "n_configs"],
                ["n_configs", "int64_t"],
                ["results", "CycleResult *", "n_configs"],
            ],
        },
    },
    "structs": {
        "CycleConfig": [
            [[1, 1 << 20], ["rob", "issue_window", "fetch_buffer"]],
            [[1, 1 << 16], ["fetch_width", "dispatch_width", "issue_width",
                            "commit_width"]],
            [[0, 1 << 16], ["frontend_depth"]],
            [[0, 1 << 20], ["alu_latency", "branch_latency", "l1_latency",
                            "l2_latency", "miss_penalty",
                            "redirect_penalty"]],
            [[0, 1], ["load_in_order", "load_wait_staddr",
                      "branch_in_order", "serializing", "perfect_l2",
                      "event_skip"]],
        ],
    },
}

#: The plan's columns with the dtypes the kernel reads them as (a bool
#: column crosses as its uint8 view).
CYCLE_PLAN_COLUMNS = column_dtypes(
    CYCLE_PLAN_CONTRACT["entries"]["cyclesim_batch"])


@dataclasses.dataclass
class CyclePlan:
    """Structure-of-arrays input of the cycle simulator for one region.

    All columns have length ``n = stop - start``.  Producer columns keep
    the dependence graph's ``-1`` sentinel for "no producer in region";
    ``addr_line``/``pc_line`` are the byte addresses already shifted to
    cache-line numbers, so the inner loop never touches the trace.  The
    columns are read-only from construction on, so the kernel's call
    check scans each one once (see :class:`repro.cbuild.KernelLoader`).
    """

    start: int
    stop: int
    ops: np.ndarray
    prod1: np.ndarray
    prod2: np.ndarray
    prod3: np.ndarray
    memdep: np.ndarray
    addr_line: np.ndarray
    pc_line: np.ndarray
    dmiss: np.ndarray
    imiss: np.ndarray
    mispred: np.ndarray
    pmiss: np.ndarray
    pfuseful: np.ndarray

    def __post_init__(self):
        for name in CYCLE_PLAN_COLUMNS:
            getattr(self, name).flags.writeable = False

    def __len__(self):
        return self.stop - self.start

    def nbytes(self):
        """Total payload size of the numpy columns, in bytes."""
        return sum(
            getattr(self, name).nbytes for name in CYCLE_PLAN_COLUMNS
        )


def _cycle_plan_cache(annotated):
    cache = getattr(annotated, "_cycle_plan_cache", None)
    if cache is None:
        cache = {}
        annotated._cycle_plan_cache = cache
    return cache


def cycle_plan_for(annotated, start=None, stop=None):
    """Return the (memoised) :class:`CyclePlan` for a region of *annotated*.

    One plan per region serves the whole configuration grid — the cycle
    simulator's event masks never depend on the machine (no perfect-*
    switches), so there is no mask-group key.
    """
    start, stop = resolve_region(annotated, start, stop)
    cache = _cycle_plan_cache(annotated)
    plan = cache.get((start, stop))
    if plan is None:
        plan = build_cycle_plan(annotated, start, stop)
        cache[(start, stop)] = plan
    return plan


def build_cycle_plan(annotated, start, stop):
    """Build the flat cycle-simulator tables for ``annotated[start:stop)``."""
    trace = annotated.trace

    # The cycle simulator models a real machine: every perfect-* switch
    # is off, so the masks equal the raw annotation (MachineConfig's
    # defaults).  ``perfect_l2`` is a timing knob applied at access
    # time and does not touch the masks.
    from repro.core.config import MachineConfig

    dmiss, imiss, mispred, pmiss, pfuseful, _ = _event_arrays(
        annotated, MachineConfig(), start, stop
    )

    prod1, prod2, prod3, memdep = depgraph_for(annotated, start, stop).columns

    return CyclePlan(
        start=start, stop=stop,
        ops=np.ascontiguousarray(trace.op[start:stop], dtype=np.int8),
        prod1=prod1, prod2=prod2, prod3=prod3, memdep=memdep,
        addr_line=np.ascontiguousarray(
            np.asarray(trace.addr[start:stop], dtype=np.int64) >> LINE_SHIFT
        ),
        pc_line=np.ascontiguousarray(
            np.asarray(trace.pc[start:stop], dtype=np.int64) >> LINE_SHIFT
        ),
        dmiss=np.ascontiguousarray(dmiss),
        imiss=np.ascontiguousarray(imiss),
        mispred=np.ascontiguousarray(mispred),
        pmiss=np.ascontiguousarray(pmiss),
        pfuseful=np.ascontiguousarray(pfuseful),
    )


def cycle_plan_payload(plan):
    """Project *plan* to a flat ``{name: array}`` dict for spilling.

    The payload round-trips through :func:`cycle_plan_from_payload`;
    the :data:`CYCLE_META_KEY` record carries the schema version and
    region so a version-skewed or truncated publisher is rejected.
    """
    payload = {name: getattr(plan, name) for name in CYCLE_PLAN_COLUMNS}
    payload[CYCLE_META_KEY] = np.asarray(
        [CYCLE_SCHEMA_VERSION, plan.start, plan.stop], dtype=np.int64
    )
    return payload


def cycle_plan_from_payload(payload, path=None):
    """Rebuild a :class:`CyclePlan` from :func:`cycle_plan_payload` output.

    Raises
    ------
    repro.robustness.errors.TraceFormatError
        If the payload misses columns, carries a wrong dtype, or was
        written under a different :data:`CYCLE_SCHEMA_VERSION`.
    """
    if CYCLE_META_KEY not in payload:
        raise TraceFormatError(
            "not a cycle plan payload (no cycle_meta record)",
            path=path, field=CYCLE_META_KEY,
        )
    meta = np.asarray(payload[CYCLE_META_KEY])
    if meta.shape != (3,):
        raise TraceFormatError(
            f"cycle plan meta record has shape {meta.shape}; expected (3,)",
            path=path, field=CYCLE_META_KEY,
        )
    version = int(meta[0])
    if version != CYCLE_SCHEMA_VERSION:
        raise TraceFormatError(
            f"cycle plan schema version mismatch: payload has {version},"
            f" library expects {CYCLE_SCHEMA_VERSION}",
            path=path, field=CYCLE_META_KEY,
        )
    start, stop = int(meta[1]), int(meta[2])
    n = stop - start
    if n < 0 or start < 0:
        raise TraceFormatError(
            f"cycle plan meta names an invalid region [{start}, {stop})",
            path=path, field=CYCLE_META_KEY,
        )
    columns = {}
    for name, dtype in CYCLE_PLAN_COLUMNS.items():
        if name not in payload:
            raise TraceFormatError(
                f"cycle plan payload is missing column {name!r}",
                path=path, field=name,
            )
        array = np.asarray(payload[name])
        if crossing(array, dtype).dtype != dtype or array.shape != (n,):
            raise TraceFormatError(
                f"cycle plan column {name!r} has dtype {array.dtype}"
                f" shape {array.shape}; expected {dtype} ({n},)",
                path=path, field=name,
            )
        columns[name] = array
    return CyclePlan(start=start, stop=stop, **columns)
