"""Columnar simulation plans: the trace recast as NumPy structure-of-arrays.

The oracles (:mod:`repro.core.mlpsim_reference`,
:mod:`repro.core.runahead`) interpret one instruction at a time from
flat Python lists.  The compiled batch kernel
(:mod:`repro.core.ckernel`) instead reads the trace, its dependence
graph and its event masks as aligned int8/int32/bool columns with
gather-friendly sentinels, straight from C.  That layout is a
:class:`ColumnarPlan`.

A plan is built once per ``(region, mask-key)`` and shared by **every
machine configuration** whose perfect-* and value-prediction switches
produce the same event masks — the config grid of a sweep typically
collapses to a handful of mask groups, so the per-trace preparation cost
is amortised across the whole grid.  Plans are memoised on the annotated
trace object (like the dependence graph) and their raw columns can be
spilled to / restored from flat array payloads for zero-copy hand-off
to sweep worker processes (see :mod:`repro.analysis.shm`).

Layout conventions
------------------

* Producer columns (``prod1``, ``prod2``, ``prod3``, ``memdep``) are
  region-relative ``int32`` indices with the *sentinel* ``n`` (one past
  the region) instead of ``-1`` for "no producer": the kernel allocates
  result arrays of length ``n + 1`` whose last slot holds epoch 0
  ("always available"), so availability gathers need no mask.
* Event columns are ``bool`` with the machine's perfect-* switches
  already applied, exactly as :func:`repro.core.mlpsim._event_arrays`
  computes them.
* ``scalar_mask`` marks the positions the kernel must interpret one at
  a time (misses, serializing instructions, result-less ops that name
  a destination); everything between two scalar positions is resolved
  in bulk.

Bump :data:`COLUMNAR_SCHEMA_VERSION` whenever the set or meaning of the
columns changes: the disk annotation cache keys its entries on it, and
stale pre-refactor entries are quarantined instead of silently
deserialized (see :mod:`repro.experiments.common`).
"""

import dataclasses

import numpy as np

from repro.cbuild import contract_bound
from repro.core.depgraph import depgraph_for
from repro.core.mlpsim import _event_arrays, resolve_region
from repro.isa.opclass import OpClass
from repro.isa.registers import REG_ZERO
from repro.robustness.errors import InternalError, TraceFormatError

#: Version of the columnar plan layout.  Annotation cache entries are
#: keyed on it so pre-columnar archives cannot be misread as current.
COLUMNAR_SCHEMA_VERSION = 2

#: Columns a spilled plan payload must carry, with dtypes.
PLAN_COLUMNS = (
    ("ops", np.int8),
    ("prod1", np.int32),
    ("prod2", np.int32),
    ("prod3", np.int32),
    ("memdep", np.int32),
    ("dmiss", np.bool_),
    ("imiss", np.bool_),
    ("mispred", np.bool_),
    ("pmiss", np.bool_),
    ("pfuseful", np.bool_),
    ("vp_ok", np.bool_),
    ("smiss", np.bool_),
    ("scalar_mask", np.bool_),
)


#: Machine-checked value-range contract between the plan builder and
#: the compiled kernel.  Every bound is an ``int`` or a
#: ``[symbol, offset]`` pair over the region length ``n``; column
#: entries bound the values inside each array the kernel receives,
#: ``config`` entries bound the ``_KernelConfig`` fields.  The C
#: bounds/overflow proof assumes these ranges
#: (:mod:`repro.lint.certify.contracts` builds its facts from this
#: literal), and the ``plan-contract`` lint pass requires it to be
#: enforced by :func:`validate_plan_contract` before every kernel call
#: and pinned in the manifest, so edits here without a manifest update
#: fail the build.
PLAN_CONTRACT = {
    "n_max": 1 << 26,
    "columns": {
        "ops": [0, 8],
        "prod1": [0, ["n", 0]],
        "prod2": [0, ["n", 0]],
        "prod3": [0, ["n", 0]],
        "memdep": [0, ["n", 0]],
        "dmiss": [0, 1],
        "imiss": [0, 1],
        "mispred": [0, 1],
        "pmiss": [0, 1],
        "pfuseful": [0, 1],
        "vp_ok": [0, 1],
        "smiss": [0, 1],
        "scalar_mask": [0, 1],
    },
    "config": {
        "rob": [1, 1 << 24],
        "iw": [1, 1 << 24],
        "fetch_buffer": [0, 1 << 24],
        "serializing": [0, 1],
        "load_in_order": [0, 1],
        "load_wait_staddr": [0, 1],
        "branch_in_order": [0, 1],
        "mshr_cap": [1, 1 << 30],
        "sb_cap": [0, 1 << 30],
        "slow_bp": [0, 1],
        "slow_bp_threshold": [0, 1 << 20],
        "runahead": [0, 1],
        "max_runahead": [1, (1 << 26) + 1],
    },
}


def validate_plan_contract(plan, configs):
    """Enforce :data:`PLAN_CONTRACT` on what is about to cross into C.

    Called by :func:`repro.core.ckernel.run_plan` immediately before
    the kernel invocation — the C kernel's bounds/overflow proof
    assumes exactly these ranges, so handing it anything outside them
    would void the certification.

    Raises
    ------
    repro.robustness.errors.InternalError
        If the region is too long, a column holds a value outside its
        contracted range, or a config field is out of range.
    """
    n = len(plan)
    if n > PLAN_CONTRACT["n_max"]:
        raise InternalError(
            f"plan region has {n} instructions; the compiled kernel is"
            f" certified for at most {PLAN_CONTRACT['n_max']}"
        )
    if n:
        symbols = {"n": n}
        for name, (lo, hi) in PLAN_CONTRACT["columns"].items():
            column = getattr(plan, name)
            vmin, vmax = int(column.min()), int(column.max())
            lo_v = contract_bound(lo, symbols)
            hi_v = contract_bound(hi, symbols)
            if vmin < lo_v or vmax > hi_v:
                raise InternalError(
                    f"plan column {name!r} spans [{vmin}, {vmax}] but"
                    f" the kernel contract requires [{lo_v}, {hi_v}]"
                )
    for config in configs:
        violation = config_violation(config)
        if violation is not None:
            raise InternalError(violation)


def config_violation(config):
    """Why kernel *config* lies outside ``PLAN_CONTRACT["config"]``, or None.

    The config ranges are constants, so no plan is needed:
    :func:`repro.core.batched.batched_supported` uses this check to keep
    such machines on the oracles, and
    :func:`validate_plan_contract` to refuse them at the kernel call.
    """
    for field, (lo, hi) in PLAN_CONTRACT["config"].items():
        value = int(getattr(config, field))
        if value < lo or value > hi:
            return (
                f"kernel config field {field!r} = {value} outside"
                f" the contracted range [{lo}, {hi}]"
            )
    return None


def mask_key(machine):
    """The event-mask identity of *machine*: configs sharing it share a plan."""
    return (
        machine.perfect_ifetch,
        machine.perfect_branch,
        machine.perfect_value,
        machine.value_prediction,
    )


@dataclasses.dataclass
class ColumnarPlan:
    """Structure-of-arrays input of the batched engine for one region.

    All columns have length ``n = stop - start``; producer columns use
    the sentinel ``n`` for "no producer in region".
    """

    start: int
    stop: int
    ops: np.ndarray
    prod1: np.ndarray
    prod2: np.ndarray
    prod3: np.ndarray
    memdep: np.ndarray
    dmiss: np.ndarray
    imiss: np.ndarray
    mispred: np.ndarray
    pmiss: np.ndarray
    pfuseful: np.ndarray
    vp_ok: np.ndarray
    smiss: np.ndarray
    scalar_mask: np.ndarray

    def __len__(self):
        return self.stop - self.start

    def nbytes(self):
        """Total payload size of the numpy columns, in bytes."""
        return sum(getattr(self, name).nbytes for name, _ in PLAN_COLUMNS)


def _plan_cache(annotated):
    cache = getattr(annotated, "_columnar_plan_cache", None)
    if cache is None:
        cache = {}
        annotated._columnar_plan_cache = cache
    return cache


def plan_for(annotated, machine, start=None, stop=None):
    """Return the (memoised) :class:`ColumnarPlan` for *machine*'s mask group.

    Configurations that share perfect-* and value-prediction switches
    share one plan object; a grid sweep therefore builds at most one
    plan per mask group per region.
    """
    start, stop = resolve_region(annotated, start, stop)
    key = (start, stop) + mask_key(machine)
    cache = _plan_cache(annotated)
    plan = cache.get(key)
    if plan is None:
        plan = build_plan(annotated, machine, start, stop)
        cache[key] = plan
    return plan


def build_plan(annotated, machine, start, stop):
    """Build the columnar plan for ``annotated[start:stop)`` under *machine*.

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

    prod1, prod2, prod3, memdep = producer_columns(annotated, start, stop)

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

    return ColumnarPlan(
        start=start, stop=stop,
        ops=ops,
        prod1=prod1, prod2=prod2, prod3=prod3, memdep=memdep,
        dmiss=dmiss, imiss=imiss, mispred=mispred,
        pmiss=pmiss, pfuseful=pfuseful, vp_ok=vp_ok, smiss=smiss,
        scalar_mask=scalar_mask,
    )


def producer_columns(annotated, start, stop):
    """The region's ``(prod1, prod2, prod3, memdep)`` plan columns.

    Like the dependence graph they are built from, they depend only on
    the trace, so they are memoised on ``annotated.trace`` by region:
    every mask group's plan and every annotation of one trace (Figure
    7's L2 sizes) share one read-only copy.
    """
    trace = annotated.trace
    cache = getattr(trace, "_producer_columns_cache", None)
    if cache is None:
        cache = {}
        trace._producer_columns_cache = cache
    columns = cache.get((start, stop))
    if columns is None:
        graph = depgraph_for(annotated, start, stop)
        n = stop - start
        columns = tuple(
            _sentineled(producers, n)
            for producers in (graph.prod1, graph.prod2, graph.prod3,
                              graph.memdep)
        )
        for column in columns:
            column.flags.writeable = False
        cache[(start, stop)] = columns
    return columns


def _sentineled(producers, n):
    """Producer list with ``-1`` replaced by the gather sentinel ``n``."""
    arr = np.asarray(producers, dtype=np.int32)
    return np.where(arr >= 0, arr, np.int32(n)).astype(np.int32)


def plan_payload(plan):
    """Project *plan* to a flat ``{name: array}`` dict for spilling.

    The payload round-trips through :func:`plan_from_payload`; the
    schema version travels with it so a stale archive is rejected
    loudly instead of misread.
    """
    payload = {name: getattr(plan, name) for name, _ in PLAN_COLUMNS}
    payload["meta"] = np.asarray(
        [COLUMNAR_SCHEMA_VERSION, plan.start, plan.stop], dtype=np.int64
    )
    return payload


def plan_from_payload(payload, path=None):
    """Rebuild a :class:`ColumnarPlan` from :func:`plan_payload` output.

    Raises
    ------
    repro.robustness.errors.TraceFormatError
        If the payload misses columns, carries a wrong dtype, or was
        written under a different :data:`COLUMNAR_SCHEMA_VERSION`.
    """
    if "meta" not in payload:
        raise TraceFormatError(
            "not a columnar plan payload (no meta record)",
            path=path, field="meta",
        )
    meta = np.asarray(payload["meta"])
    if meta.shape != (3,):
        raise TraceFormatError(
            f"columnar plan meta record has shape {meta.shape}; expected (3,)",
            path=path, field="meta",
        )
    version = int(meta[0])
    if version != COLUMNAR_SCHEMA_VERSION:
        raise TraceFormatError(
            f"columnar schema version mismatch: payload has {version},"
            f" library expects {COLUMNAR_SCHEMA_VERSION}",
            path=path, field="meta",
        )
    start, stop = int(meta[1]), int(meta[2])
    n = stop - start
    if n < 0 or start < 0:
        raise TraceFormatError(
            f"columnar plan meta names an invalid region [{start}, {stop})",
            path=path, field="meta",
        )
    columns = {}
    for name, dtype in PLAN_COLUMNS:
        if name not in payload:
            raise TraceFormatError(
                f"columnar plan payload is missing column {name!r}",
                path=path, field=name,
            )
        array = np.asarray(payload[name])
        if array.dtype != np.dtype(dtype) or array.shape != (n,):
            raise TraceFormatError(
                f"columnar plan column {name!r} has dtype {array.dtype}"
                f" shape {array.shape}; expected {np.dtype(dtype)} ({n},)",
                path=path, field=name,
            )
        columns[name] = array
    return ColumnarPlan(start=start, stop=stop, **columns)
