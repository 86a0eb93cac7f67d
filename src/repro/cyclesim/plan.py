"""Flat per-region input tables of the cycle simulator.

The cycle simulator's hot loop reads per-instruction facts — opcode,
producers, event flags, addresses — that are properties of the
*trace region alone*: unlike MLPsim plans there is no per-machine mask
group, because the cyclesim grid never flips perfect-* switches (the
``perfect_l2`` knob is applied at access time, not in the masks).  One
cycle plan, a :class:`repro.cbuild.Plan` for the ``cyclesim_batch``
entry point, therefore serves **every** configuration of a grid sweep,
which is what makes Table 3's 27 configs per workload cheap: the
decode/opclass, dependence and event tables are built once, the per
-config cost collapses to the compiled pipeline walk.

Like an MLPsim plan, a cycle plan shares the plan memo on the annotated
trace and the payload codec :mod:`repro.analysis.shm` publishes with.
It copies no per-instruction fact it can share: its producer columns
are the dependence graph's rows (sentinel ``n``, like an MLPsim plan's)
and its ``addr`` and ``pc`` columns are views of the trace's, which the
kernel shifts to cache lines itself (``LINE_SHIFT``, rendered into its
header from the frozen reference's ``_LINE_SHIFT``).
"""

import numpy as np

from repro.cbuild import Plan, memoised_plan
from repro.core.depgraph import depgraph_for
from repro.core.mlpsim import _event_arrays, resolve_region

#: The cyclesim kernel's contract: its one entry point,
#: ``cyclesim_batch``, declared once (see :class:`repro.cbuild.Param`),
#: the boxes of its sizes and the ranges of the ``CycleConfig`` fields.
#: Producer columns hold the dependence graph's sentinel ``n`` for "no
#: producer", and ``addr``/``pc`` are byte addresses, whose cache lines
#: (``>> LINE_SHIFT``) stay below 2^57.  :mod:`repro.cbuild` renders the
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
                ["prod1", "const int32_t *", "n", 0, "n"],
                ["prod2", "const int32_t *", "n", 0, "n"],
                ["prod3", "const int32_t *", "n", 0, "n"],
                ["memdep", "const int32_t *", "n", 0, "n"],
                ["addr", "const int64_t *", "n", 0, (1 << 63) - 1],
                ["pc", "const int64_t *", "n", 0, (1 << 63) - 1],
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


def cycle_plan_for(annotated, start=None, stop=None):
    """Return the (memoised) cycle plan for a region of *annotated*.

    One plan per region serves the whole configuration grid — the cycle
    simulator's event masks never depend on the machine (no perfect-*
    switches), so there is no mask-group key.
    """
    start, stop = resolve_region(annotated, start, stop)
    return memoised_plan(annotated, ("cyclesim_batch", start, stop),
                         lambda: build_cycle_plan(annotated, start, stop))


def build_cycle_plan(annotated, start, stop):
    """Build the flat cycle-simulator tables for ``annotated[start:stop)``.

    The producer columns are the dependence graph's rows, ``n`` for "no
    producer in region", and ``addr``/``pc`` are views of the trace's
    columns: neither is copied.
    """
    trace = annotated.trace

    # The cycle simulator models a real machine: every perfect-* switch
    # is off, so the masks equal the raw annotation (MachineConfig's
    # defaults).  ``perfect_l2`` is a timing knob applied at access
    # time and does not touch the masks.
    from repro.core.config import MachineConfig

    dmiss, imiss, mispred, pmiss, pfuseful, _ = _event_arrays(
        annotated, MachineConfig(), start, stop
    )

    prod1, prod2, prod3, memdep = depgraph_for(annotated, start, stop).rows

    return Plan(CYCLE_PLAN_CONTRACT, "cyclesim_batch", start, stop, {
        "ops": np.ascontiguousarray(trace.op[start:stop], dtype=np.int8),
        "prod1": prod1, "prod2": prod2, "prod3": prod3, "memdep": memdep,
        "addr": trace.addr[start:stop],
        "pc": trace.pc[start:stop],
        "dmiss": np.ascontiguousarray(dmiss),
        "imiss": np.ascontiguousarray(imiss),
        "mispred": np.ascontiguousarray(mispred),
        "pmiss": np.ascontiguousarray(pmiss),
        "pfuseful": np.ascontiguousarray(pfuseful),
    })
