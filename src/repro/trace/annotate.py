"""The annotation pipeline: from a raw trace to MLPsim's input.

MLPsim (Section 4.1) consumes a trace in which every instruction is
already classified by its microarchitecture-dependent events:

* ``dmiss``  — load-like instruction whose data access left the chip;
* ``pmiss``  — software prefetch that left the chip;
* ``pfuseful`` — off-chip prefetch whose line was later consumed by a
  demand access (the paper counts only *useful* prefetches toward MLP);
* ``imiss``  — instruction whose fetch left the chip;
* ``mispred`` — mispredicted branch (gshare + BTB front end);
* ``vp_outcome`` — last-value-predictor outcome for each missing load
  (Table 6's Correct / Wrong / No-Predict split);
* ``smiss`` — store whose write-allocate access left the chip.

Store misses are simulated (they allocate cache lines) but are *not*
off-chip accesses for MLP: the paper's definition covers instruction
fetches, loads and prefetches, and explicitly defers "store MLP" to
future work — which the ``smiss`` mask and the finite-store-buffer
machine extension implement.

Annotation runs in two layers.  The hierarchy has no back-invalidation,
so the L2 never changes what the L1s hold, and only the L2 lookup, the
value-predictor observations on missing loads and the prefetch
bookkeeping depend on the L2's size:

* :func:`front_pass` filters the trace through the L1s and runs the
  gshare/BTB front end (returns are predicted like any other branch;
  no return-address stack is modelled).  It emits ``mispred``
  plus, in trace order, every L1 miss and every L1-hit demand access
  to a line that some prefetch touches.  It is memoised on the trace.
* :func:`back_pass` replays that short stream through the L2 and then
  runs the last-value predictor over the missing loads.

Figure 7 annotates each trace at five L2 sizes; the front pass runs
once per trace, not once per size.

Both layers run in C (:mod:`repro.trace.ckernel`) when the compiled
kernel is available and the trace lies inside its contract.  The
Python loops below are the oracle and the fallback route: for traces
outside the contract and on hosts without a C compiler.  The last-value
predictor runs in Python on both routes.

The pipeline mirrors the paper's methodology of warming the caches on a
prefix of the trace (Section 4.2): annotations are produced for the whole
trace and :attr:`AnnotatedTrace.measure_start` marks where statistics
collection should begin.
"""

import dataclasses

import numpy as np

from repro.branch.frontend import BranchPredictor
from repro.isa.opclass import OpClass
from repro.memory.cache import Cache
from repro.memory.hierarchy import HierarchyConfig
from repro.trace import ckernel
from repro.vpred.last_value import LastValuePredictor

_VP_NA = -1
_VP_CORRECT = 0
_VP_WRONG = 1
_VP_NOPREDICT = 2

#: Map from LastValuePredictor.observe() outcome strings to codes.
VP_OUTCOME_CODES = {
    "correct": _VP_CORRECT,
    "wrong": _VP_WRONG,
    "no_predict": _VP_NOPREDICT,
}


@dataclasses.dataclass(frozen=True)
class AnnotationConfig:
    """Parameters of the annotation pass."""

    hierarchy: HierarchyConfig = HierarchyConfig()
    warmup_fraction: float = 0.33
    gshare_entries: int = 64 * 1024
    btb_entries: int = 16 * 1024
    vp_entries: int = 16 * 1024


@dataclasses.dataclass
class AnnotatedTrace:
    """A trace plus per-instruction microarchitectural event marks.

    :func:`annotate` and :func:`repro.trace.io.load_annotated` return
    read-only masks, as :class:`~repro.trace.trace.Trace` makes its
    columns; :func:`manual_annotation` leaves its masks writable.
    """

    trace: "repro.trace.trace.Trace"
    dmiss: np.ndarray
    pmiss: np.ndarray
    pfuseful: np.ndarray
    imiss: np.ndarray
    mispred: np.ndarray
    vp_outcome: np.ndarray
    smiss: np.ndarray
    measure_start: int
    config: AnnotationConfig

    def __len__(self):
        return len(self.trace)

    @property
    def offchip_mask(self):
        """Instructions that initiate a *useful* off-chip access."""
        return self.dmiss | self.pfuseful | self.imiss

    def num_offchip(self, start=None):
        """Count useful off-chip accesses from *start* (default: measured)."""
        start = self.measure_start if start is None else start
        return int(np.count_nonzero(self.offchip_mask[start:]))

    def miss_rate_per_100(self):
        """Useful off-chip accesses per 100 measured instructions."""
        measured = len(self) - self.measure_start
        if not measured:
            return 0.0
        return 100.0 * self.num_offchip() / measured

    def l2_load_miss_rate_per_100(self):
        """Off-chip *data* (load) misses per 100 measured instructions.

        This is the "L2 Miss Rate (per 100 insts)" column of Table 1.
        """
        measured = len(self) - self.measure_start
        if not measured:
            return 0.0
        misses = int(np.count_nonzero(self.dmiss[self.measure_start :]))
        return 100.0 * misses / measured

    def measured_region(self):
        """Return (start, stop) indices of the measured region."""
        return self.measure_start, len(self)


def manual_annotation(trace, dmiss_at=(), imiss_at=(), mispred_at=(),
                      pmiss_at=(), useless_prefetches=(), vp_correct_at=(),
                      smiss_at=(), measure_start=0):
    """Build an :class:`AnnotatedTrace` with explicitly placed events.

    This bypasses the cache/predictor pipeline entirely; it exists so the
    paper's worked examples (which *state* which instructions miss or
    mispredict) and targeted unit tests can drive MLPsim directly.
    Prefetches listed in *pmiss_at* are useful unless also listed in
    *useless_prefetches*.
    """
    n = len(trace)
    dmiss = np.zeros(n, dtype=bool)
    pmiss = np.zeros(n, dtype=bool)
    pfuseful = np.zeros(n, dtype=bool)
    imiss = np.zeros(n, dtype=bool)
    mispred = np.zeros(n, dtype=bool)
    vp_outcome = np.full(n, _VP_NA, dtype=np.int8)
    for i in dmiss_at:
        dmiss[i] = True
        vp_outcome[i] = _VP_NOPREDICT
    for i in vp_correct_at:
        vp_outcome[i] = _VP_CORRECT
    for i in imiss_at:
        imiss[i] = True
    for i in mispred_at:
        mispred[i] = True
    for i in pmiss_at:
        pmiss[i] = True
        pfuseful[i] = i not in set(useless_prefetches)
    smiss = np.zeros(n, dtype=bool)
    for i in smiss_at:
        smiss[i] = True
    return AnnotatedTrace(
        trace=trace,
        dmiss=dmiss,
        pmiss=pmiss,
        pfuseful=pfuseful,
        imiss=imiss,
        mispred=mispred,
        vp_outcome=vp_outcome,
        smiss=smiss,
        measure_start=measure_start,
        config=AnnotationConfig(),
    )


def annotate(trace, config=None):
    """Run the memory hierarchy and predictors over *trace*.

    Runs the two layers in order: :func:`front_pass` (memoised on
    *trace*, so annotating one trace at several L2 sizes runs it once)
    and :func:`back_pass`.

    Parameters
    ----------
    trace:
        The raw :class:`~repro.trace.trace.Trace`.
    config:
        :class:`AnnotationConfig`; defaults to the paper's Section 5.1
        machine.

    Returns
    -------
    AnnotatedTrace

    Raises
    ------
    repro.robustness.errors.TraceFormatError
        If *trace* holds out-of-range opcodes or register operands
        (e.g. a corrupt archive loaded through an unvalidated path).
    """
    from repro.robustness.validate import validate_trace

    validate_trace(trace)
    config = config or AnnotationConfig()
    return back_pass(trace, front_pass(trace, config), config)


#: Kinds of the front pass's access stream.  The first four are L1
#: misses, which the back pass sends to the L2.  The last two are L1 hits
#: of demand accesses, which can only consume a prefetched line.
FETCH_MISS, LOAD_MISS, STORE_MISS, PREFETCH_MISS, FETCH_HIT, LOAD_HIT = range(6)


@dataclasses.dataclass(frozen=True)
class FrontPass:
    """The L2-independent layer of an annotation.

    ``mispred`` is the trace-length branch mask.  ``position`` (int32),
    ``kind`` (int8, one of the stream kinds above) and ``addr`` (int64:
    the fetch PC or data address) list, in trace order, every access
    the L2 layer needs.
    """

    mispred: np.ndarray
    position: np.ndarray
    kind: np.ndarray
    addr: np.ndarray


def front_pass(trace, config):
    """Return the (memoised) L2-independent layer of annotating *trace*.

    The hierarchy has no back-invalidation, so no L2 changes what the
    L1s hold, and the branch predictor never sees the caches.  The pass
    is cached on *trace*, like the dependence graph, keyed by what it
    depends on: the L1 geometries, the L2 line size (which defines fetch
    lines and prefetched lines) and the branch predictor sizes.
    """
    cache = getattr(trace, "_front_pass_cache", None)
    if cache is None:
        cache = {}
        trace._front_pass_cache = cache
    hierarchy = config.hierarchy
    key = (hierarchy.l1i, hierarchy.l1d, hierarchy.l2.line_bytes,
           config.gshare_entries, config.btb_entries)
    front = cache.get(key)
    if front is None:
        if _kernel_route(trace, config):
            front = FrontPass(*ckernel.run_front_pass(trace, config))
        else:
            front = _run_front_pass(trace, config)
        cache[key] = front
    return front


def _kernel_route(trace, config):
    """Can the compiled kernel annotate *trace* under *config*?"""
    return (ckernel.kernel_available()
            and ckernel.contract_violation(trace, config) is None)


def _run_front_pass(trace, config):
    """Filter *trace* through the L1s and predict its branches."""
    hierarchy = config.hierarchy
    fetch = Cache(hierarchy.l1i, name="L1I").access
    touch = Cache(hierarchy.l1d, name="L1D").access
    observe_branch = BranchPredictor(
        gshare_entries=config.gshare_entries,
        btb_entries=config.btb_entries,
    ).observe
    line_shift = hierarchy.l2.line_shift

    # Bind columns to fast local lists.
    ops = trace.op.tolist()
    pcs = trace.pc.tolist()
    addrs = trace.addr.tolist()
    takens = trace.taken.tolist()
    targets = trace.target.tolist()
    src1s = trace.src1.tolist()
    src2s = trace.src2.tolist()

    LOAD = int(OpClass.LOAD)
    STORE = int(OpClass.STORE)
    BRANCH = int(OpClass.BRANCH)
    PREFETCH = int(OpClass.PREFETCH)
    CAS = int(OpClass.CAS)
    LDSTUB = int(OpClass.LDSTUB)
    load_like = {LOAD, CAS, LDSTUB}

    # Only a line some prefetch touches can be awaiting a consumer, so
    # demand hits on any other line stay out of the stream.
    prefetch_lines = set(
        (trace.addr[trace.op == PREFETCH] >> line_shift).tolist()
    )

    n = len(trace)
    mispred = np.zeros(n, dtype=bool)
    stream = []
    emit = stream.append

    previous_fetch_line = None
    for i in range(n):
        pc = pcs[i]
        fetch_line = pc >> line_shift
        if fetch_line != previous_fetch_line:
            if not fetch(pc):
                emit((i, FETCH_MISS, pc))
            elif fetch_line in prefetch_lines:
                emit((i, FETCH_HIT, pc))
            previous_fetch_line = fetch_line

        op = ops[i]
        if op in load_like:
            addr = addrs[i]
            if not touch(addr):
                emit((i, LOAD_MISS, addr))
            elif addr >> line_shift in prefetch_lines:
                emit((i, LOAD_HIT, addr))
        elif op == STORE:
            addr = addrs[i]
            if not touch(addr):
                emit((i, STORE_MISS, addr))
        elif op == PREFETCH:
            addr = addrs[i]
            if not touch(addr):
                emit((i, PREFETCH_MISS, addr))
        elif op == BRANCH:
            if src1s[i] >= 0 or src2s[i] >= 0:
                mispred[i] = observe_branch(pc, takens[i], targets[i])
            # Unconditional direct transfers (no condition sources) never
            # mispredict: their real-code counterparts have static
            # targets.  The synthetic generators vary their targets to
            # express control randomness, which must not be charged to
            # the branch predictor.

    position, kind, addr = zip(*stream) if stream else ((), (), ())
    return FrontPass(
        mispred=mispred,
        position=np.asarray(position, dtype=np.int32),
        kind=np.asarray(kind, dtype=np.int8),
        addr=np.asarray(addr, dtype=np.int64),
    )


def back_pass(trace, front, config):
    """Replay *front*'s access stream through the L2; return the annotation.

    Sets the off-chip masks and prefetch usefulness, then runs the
    last-value predictor over the missing loads in trace order (the
    order a single pass over the whole hierarchy would observe them in).
    """
    n = len(trace)
    if _kernel_route(trace, config):
        replayed = ckernel.run_back_pass(trace, front, config)
    else:
        replayed = _replay_l2(n, front, config)
    dmiss, pmiss, pfuseful, imiss, smiss = replayed

    vp_outcome = np.full(n, _VP_NA, dtype=np.int8)
    observe_value = LastValuePredictor(entries=config.vp_entries).observe
    misses = np.flatnonzero(dmiss)
    vp_outcome[misses] = [
        VP_OUTCOME_CODES[observe_value(pc, value)]
        for pc, value in zip(trace.pc[misses].tolist(),
                             trace.value[misses].tolist())
    ]

    mispred = front.mispred.copy()
    for mask in (dmiss, pmiss, pfuseful, imiss, mispred, vp_outcome, smiss):
        mask.setflags(write=False)
    return AnnotatedTrace(
        trace=trace,
        dmiss=dmiss,
        pmiss=pmiss,
        pfuseful=pfuseful,
        imiss=imiss,
        mispred=mispred,
        vp_outcome=vp_outcome,
        smiss=smiss,
        measure_start=int(n * config.warmup_fraction),
        config=config,
    )


def _replay_l2(n, front, config):
    """Replay *front*'s access stream through the L2 in Python.

    Returns the ``(dmiss, pmiss, pfuseful, imiss, smiss)`` masks.
    """
    dmiss = np.zeros(n, dtype=bool)
    pmiss = np.zeros(n, dtype=bool)
    pfuseful = np.zeros(n, dtype=bool)
    imiss = np.zeros(n, dtype=bool)
    smiss = np.zeros(n, dtype=bool)

    access = Cache(config.hierarchy.l2, name="L2").access
    line_shift = config.hierarchy.l2.line_shift

    # Lines brought on chip by an off-chip prefetch, awaiting a demand
    # consumer: line -> index of the prefetch instruction.
    prefetched_lines = {}

    for i, kind, addr in zip(front.position.tolist(), front.kind.tolist(),
                             front.addr.tolist()):
        line = addr >> line_shift
        if kind == STORE_MISS:
            if not access(addr):
                smiss[i] = True
        elif kind == PREFETCH_MISS:
            if not access(addr):
                pmiss[i] = True
                prefetched_lines[line] = i
        elif kind < FETCH_HIT and not access(addr):
            if kind == FETCH_MISS:
                imiss[i] = True
            else:
                dmiss[i] = True
            prefetched_lines.pop(line, None)
        elif line in prefetched_lines:
            # A demand access that stayed on chip consumes the line.
            pfuseful[prefetched_lines.pop(line)] = True

    return dmiss, pmiss, pfuseful, imiss, smiss
