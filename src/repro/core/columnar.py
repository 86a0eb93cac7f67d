"""MLPsim plans: the trace recast as NumPy structure-of-arrays.

The oracles (:mod:`repro.core.mlpsim_reference`,
:mod:`repro.core.runahead`) interpret one instruction at a time from
flat Python lists.  The compiled batch kernel
(:mod:`repro.core.ckernel`) instead reads the trace, its dependence
graph and its event masks as aligned int8/int32/bool columns with
gather-friendly sentinels, straight from C: a :class:`repro.cbuild.Plan`
for its ``mlpsim_batch`` entry point, holding exactly the columns
:data:`PLAN_CONTRACT` declares.

A plan is built once per ``(region, mask-key)`` and shared by **every
machine configuration** whose perfect-* and value-prediction switches
produce the same event masks — the config grid of a sweep typically
collapses to a handful of mask groups, so the per-trace preparation cost
is amortised across the whole grid.  Plans are memoised on the annotated
trace object (like the dependence graph), and spill to flat array
payloads for zero-copy hand-off to sweep worker processes (see
:mod:`repro.analysis.shm`).

Layout conventions
------------------

* Producer columns (``prod1``, ``prod2``, ``prod3``, ``memdep``) are
  the dependence graph's rows (:attr:`repro.core.depgraph.DepGraph.rows`),
  shared by every plan of the region, not copied: region-relative
  ``int32`` indices with the *sentinel* ``n`` (one past the region) for
  "no producer".  The kernel allocates result arrays of length
  ``n + 1`` whose last slot holds epoch 0 ("always available"), so
  availability gathers need no mask.
* Event columns are ``bool`` with the machine's perfect-* switches
  already applied, exactly as :func:`repro.core.mlpsim._event_arrays`
  computes them.
* ``scalar_mask`` marks the positions the kernel must interpret one at
  a time (misses, serializing instructions, result-less ops that name
  a destination); everything between two scalar positions is resolved
  in bulk.

Bump :data:`repro.cbuild.PLAN_SCHEMA_VERSION` whenever the set or
meaning of the columns changes.
"""

import numpy as np

from repro.cbuild import Plan, memoised_plan
from repro.core.depgraph import depgraph_for
from repro.core.mlpsim import _event_arrays, resolve_region
from repro.isa.opclass import OpClass
from repro.isa.registers import REG_ZERO

#: The MLPsim kernel's contract: its one entry point, ``mlpsim_batch``,
#: declared once (see :class:`repro.cbuild.Param`), the boxes of its
#: sizes and the ranges of the ``KernelConfig`` fields.  A bound is an
#: ``int``, a symbol or ``[symbol, offset]``.  :mod:`repro.cbuild`
#: renders the prototype into the header the kernel compiles against,
#: checks every call against the declaration, and
#: :mod:`repro.lint.certify.contracts` builds the C proof's facts from
#: it.  The plan's columns are the entry point's columns.
PLAN_CONTRACT = {
    "symbols": {"n": [0, 1 << 26], "nconfigs": [0, 1 << 20]},
    "entries": {
        "mlpsim_batch": {
            "returns": "int",
            "params": [
                ["n", "int64_t"],
                ["ops", "const int8_t *", "n", 0, 8],
                ["prod1", "const int32_t *", "n", 0, "n"],
                ["prod2", "const int32_t *", "n", 0, "n"],
                ["prod3", "const int32_t *", "n", 0, "n"],
                ["memdep", "const int32_t *", "n", 0, "n"],
                ["dmiss", "const uint8_t *", "n", 0, 1],
                ["imiss", "const uint8_t *", "n", 0, 1],
                ["mispred", "const uint8_t *", "n", 0, 1],
                ["pmiss", "const uint8_t *", "n", 0, 1],
                ["pfuseful", "const uint8_t *", "n", 0, 1],
                ["vp_ok", "const uint8_t *", "n", 0, 1],
                ["smiss", "const uint8_t *", "n", 0, 1],
                ["scalar_mask", "const uint8_t *", "n", 0, 1],
                ["configs", "const KernelConfig *", "nconfigs"],
                ["nconfigs", "int64_t"],
                ["results", "KernelResult *", "nconfigs"],
            ],
        },
    },
    "structs": {
        "KernelConfig": [
            [[1, 1 << 24], ["rob", "iw"]],
            [[0, 1 << 24], ["fetch_buffer"]],
            [[0, 1], ["serializing", "load_in_order", "load_wait_staddr",
                      "branch_in_order", "slow_bp", "runahead"]],
            [[1, 1 << 30], ["mshr_cap"]],
            [[0, 1 << 30], ["sb_cap"]],
            [[0, 1 << 20], ["slow_bp_threshold"]],
            [[1, (1 << 26) + 1], ["max_runahead"]],
        ],
    },
}


def mask_key(machine):
    """The event-mask identity of *machine*: configs sharing it share a plan."""
    return (
        machine.perfect_ifetch,
        machine.perfect_branch,
        machine.perfect_value,
        machine.value_prediction,
    )


def plan_for(annotated, machine, start=None, stop=None):
    """Return the (memoised) MLPsim plan for *machine*'s mask group.

    Configurations that share perfect-* and value-prediction switches
    share one plan object; a grid sweep therefore builds at most one
    plan per mask group per region.
    """
    start, stop = resolve_region(annotated, start, stop)
    return memoised_plan(
        annotated, ("mlpsim_batch", start, stop) + mask_key(machine),
        lambda: build_plan(annotated, machine, start, stop))


def build_plan(annotated, machine, start, stop):
    """Build the MLPsim plan for ``annotated[start:stop)`` under *machine*.

    Only the mask key of *machine* matters; window sizes, issue policy
    and structure limits are applied by the engine at run time, which is
    what makes the plan shareable across a config grid.
    """
    trace = annotated.trace

    (dmiss, imiss, mispred, pmiss, pfuseful, vp_ok) = _event_arrays(
        annotated, machine, start, stop
    )
    dmiss = np.ascontiguousarray(dmiss)
    imiss = np.ascontiguousarray(imiss)
    mispred = np.ascontiguousarray(mispred)
    pmiss = np.ascontiguousarray(pmiss)
    pfuseful = np.ascontiguousarray(pfuseful)
    vp_ok = np.ascontiguousarray(vp_ok)
    smiss = np.ascontiguousarray(np.asarray(annotated.smiss[start:stop]))
    ops = np.ascontiguousarray(trace.op[start:stop])

    prod1, prod2, prod3, memdep = depgraph_for(annotated, start, stop).rows

    is_branch = ops == int(OpClass.BRANCH)
    serialize_ops = (
        (ops == int(OpClass.CAS))
        | (ops == int(OpClass.LDSTUB))
        | (ops == int(OpClass.MEMBAR))
    )
    resultless_ops = (
        is_branch
        | (ops == int(OpClass.NOP))
        | (ops == int(OpClass.PREFETCH))
    )
    dst_named = trace.dst[start:stop] > REG_ZERO

    # Positions the scalar interpreter must handle: every off-chip or
    # serializing event plus result-less ops whose (never-assigned)
    # result slot must keep its reference-engine behaviour.
    scalar_mask = (
        dmiss | imiss | pmiss | smiss | serialize_ops
        | (resultless_ops & dst_named)
    )

    return Plan(PLAN_CONTRACT, "mlpsim_batch", start, stop, {
        "ops": ops,
        "prod1": prod1, "prod2": prod2, "prod3": prod3, "memdep": memdep,
        "dmiss": dmiss, "imiss": imiss, "mispred": mispred,
        "pmiss": pmiss, "pfuseful": pfuseful, "vp_ok": vp_ok, "smiss": smiss,
        "scalar_mask": scalar_mask,
    })

