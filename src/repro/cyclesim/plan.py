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

from repro.cbuild import contract_bound
from repro.core.depgraph import depgraph_for
from repro.core.mlpsim import _event_arrays, resolve_region
from repro.robustness.errors import InternalError, TraceFormatError

#: Version of the cycle-plan payload layout; bump on any change to the
#: column set or meaning so a stale shared segment cannot be misread.
CYCLE_SCHEMA_VERSION = 1

#: Cache-line shift shared with the simulator (64-byte lines).
LINE_SHIFT = 6

#: Columns a spilled cycle-plan payload must carry, with dtypes.
CYCLE_PLAN_COLUMNS = (
    ("ops", np.int8),
    ("prod1", np.int32),
    ("prod2", np.int32),
    ("prod3", np.int32),
    ("memdep", np.int32),
    ("addr_line", np.int64),
    ("pc_line", np.int64),
    ("dmiss", np.bool_),
    ("imiss", np.bool_),
    ("mispred", np.bool_),
    ("pmiss", np.bool_),
    ("pfuseful", np.bool_),
)

#: Payload key distinguishing a cycle plan from a columnar MLPsim plan
#: inside the shared-memory publication protocol.
CYCLE_META_KEY = "cycle_meta"

#: Machine-checked value-range contract between the cycle-plan builder
#: and the compiled kernel.  Bounds are ``int`` or ``[symbol, offset]``
#: over the region length ``n``; producer columns keep the depgraph's
#: ``-1`` sentinel (unlike MLPsim plans, which rewrite it to ``n``).
#: The C bounds/overflow proof assumes these ranges
#: (:mod:`repro.lint.certify.contracts` builds its facts from this
#: literal), and the ``plan-contract`` lint pass requires it to be
#: enforced by :func:`validate_cycle_plan_contract` before every kernel
#: call and pinned in the manifest, so edits here without a manifest
#: update fail the build.
CYCLE_PLAN_CONTRACT = {
    "n_max": 1 << 26,
    "columns": {
        "ops": [0, 8],
        "prod1": [-1, ["n", -1]],
        "prod2": [-1, ["n", -1]],
        "prod3": [-1, ["n", -1]],
        "memdep": [-1, ["n", -1]],
        "addr_line": [0, 1 << 57],
        "pc_line": [0, 1 << 57],
        "dmiss": [0, 1],
        "imiss": [0, 1],
        "mispred": [0, 1],
        "pmiss": [0, 1],
        "pfuseful": [0, 1],
    },
    "config": {
        "rob": [1, 1 << 20],
        "issue_window": [1, 1 << 20],
        "fetch_buffer": [1, 1 << 20],
        "fetch_width": [1, 1 << 16],
        "dispatch_width": [1, 1 << 16],
        "issue_width": [1, 1 << 16],
        "commit_width": [1, 1 << 16],
        "frontend_depth": [0, 1 << 16],
        "alu_latency": [0, 1 << 20],
        "branch_latency": [0, 1 << 20],
        "l1_latency": [0, 1 << 20],
        "l2_latency": [0, 1 << 20],
        "miss_penalty": [0, 1 << 20],
        "redirect_penalty": [0, 1 << 20],
        "load_in_order": [0, 1],
        "load_wait_staddr": [0, 1],
        "branch_in_order": [0, 1],
        "serializing": [0, 1],
        "perfect_l2": [0, 1],
        "event_skip": [0, 1],
    },
}


def validate_cycle_plan_contract(plan, configs):
    """Enforce :data:`CYCLE_PLAN_CONTRACT` before the C kernel runs.

    Called by :func:`repro.cyclesim.ckernel.run_cycle_plan`
    immediately before the kernel invocation — the C kernel's
    bounds/overflow proof assumes exactly these ranges.

    Raises
    ------
    repro.robustness.errors.InternalError
        If the region is too long, a column holds a value outside its
        contracted range, or a config field is out of range.
    """
    n = len(plan)
    if n > CYCLE_PLAN_CONTRACT["n_max"]:
        raise InternalError(
            f"cycle plan region has {n} instructions; the compiled"
            " kernel is certified for at most"
            f" {CYCLE_PLAN_CONTRACT['n_max']}"
        )
    symbols = {"n": n}
    if n:
        for name, (lo, hi) in CYCLE_PLAN_CONTRACT["columns"].items():
            column = getattr(plan, name)
            vmin, vmax = int(column.min()), int(column.max())
            lo_v = contract_bound(lo, symbols)
            hi_v = contract_bound(hi, symbols)
            if vmin < lo_v or vmax > hi_v:
                raise InternalError(
                    f"cycle plan column {name!r} spans [{vmin}, {vmax}]"
                    f" but the kernel contract requires [{lo_v}, {hi_v}]"
                )
    for config in configs:
        for field, (lo, hi) in CYCLE_PLAN_CONTRACT["config"].items():
            value = int(getattr(config, field))
            lo_v = contract_bound(lo, symbols)
            hi_v = contract_bound(hi, symbols)
            if value < lo_v or value > hi_v:
                raise InternalError(
                    f"cycle kernel config field {field!r} = {value}"
                    f" outside the contracted range [{lo_v}, {hi_v}]"
                )


@dataclasses.dataclass
class CyclePlan:
    """Structure-of-arrays input of the cycle simulator for one region.

    All columns have length ``n = stop - start``.  Producer columns keep
    the dependence graph's ``-1`` sentinel for "no producer in region";
    ``addr_line``/``pc_line`` are the byte addresses already shifted to
    cache-line numbers, so the inner loop never touches the trace.
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

    def __len__(self):
        return self.stop - self.start

    def nbytes(self):
        """Total payload size of the numpy columns, in bytes."""
        return sum(
            getattr(self, name).nbytes for name, _ in CYCLE_PLAN_COLUMNS
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

    graph = depgraph_for(annotated, start, stop)

    return CyclePlan(
        start=start, stop=stop,
        ops=np.ascontiguousarray(trace.op[start:stop], dtype=np.int8),
        prod1=np.ascontiguousarray(graph.prod1, dtype=np.int32),
        prod2=np.ascontiguousarray(graph.prod2, dtype=np.int32),
        prod3=np.ascontiguousarray(graph.prod3, dtype=np.int32),
        memdep=np.ascontiguousarray(graph.memdep, dtype=np.int32),
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
    payload = {name: getattr(plan, name) for name, _ in CYCLE_PLAN_COLUMNS}
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
    for name, dtype in CYCLE_PLAN_COLUMNS:
        if name not in payload:
            raise TraceFormatError(
                f"cycle plan payload is missing column {name!r}",
                path=path, field=name,
            )
        array = np.asarray(payload[name])
        if array.dtype != np.dtype(dtype) or array.shape != (n,):
            raise TraceFormatError(
                f"cycle plan column {name!r} has dtype {array.dtype}"
                f" shape {array.shape}; expected {np.dtype(dtype)} ({n},)",
                path=path, field=name,
            )
        columns[name] = array
    return CyclePlan(start=start, stop=stop, **columns)
