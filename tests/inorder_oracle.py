"""The in-order engine's step-by-step loop, kept as its test oracle.

:func:`repro.core.inorder.simulate_inorder` jumps over stretches in
which every instruction is a no-op.  This is the loop it replaced,
unchanged, which visits every instruction; ``tests/test_inorder.py``
pins the two to equal results.
"""

from repro.core.epoch import Epoch, TriggerKind
from repro.core.inorder import InOrderPolicy
from repro.core.mlpsim import event_masks, resolve_region
from repro.core.results import MLPResult
from repro.core.termination import Inhibitor, InhibitorCounts
from repro.isa.opclass import OpClass
from repro.isa.registers import REG_ZERO


def simulate_inorder_oracle(annotated, policy, machine=None, start=None,
                            stop=None, workload=None, record_sets=False,
                            overlap_window=1000, fetch_buffer=32):
    """:func:`repro.core.inorder.simulate_inorder`, one instruction at a time.

    Walks every instruction of the region over the list-based event
    masks, with no skipping; the engine must return an equal
    :class:`MLPResult`, ``epoch_records`` included.
    """
    from repro.core.config import MachineConfig

    trace = annotated.trace
    machine = machine or MachineConfig()
    start, stop = resolve_region(annotated, start, stop)
    n = stop - start

    dmiss, imiss, mispred, pmiss, pfuseful, _ = event_masks(
        annotated, machine, start, stop
    )
    imiss = list(imiss)  # lookahead consumes fetch misses early
    stall_on_use = policy == InOrderPolicy.STALL_ON_USE

    ops = trace.op[start:stop].tolist()
    dsts = trace.dst[start:stop].tolist()
    src1s = trace.src1[start:stop].tolist()
    src2s = trace.src2[start:stop].tolist()
    src3s = trace.src3[start:stop].tolist()

    LOAD = int(OpClass.LOAD)
    PREFETCH = int(OpClass.PREFETCH)
    CAS = int(OpClass.CAS)
    LDSTUB = int(OpClass.LDSTUB)
    MEMBAR = int(OpClass.MEMBAR)

    epochs_recorded = 0
    total_accesses = 0
    dmiss_accesses = 0
    imiss_accesses = 0
    prefetch_accesses = 0
    inhibitors = InhibitorCounts()
    epoch_records = [] if record_sets else None

    outstanding = set()  # registers whose miss data is in flight
    pending_pf = []  # useful off-chip prefetches in flight
    window_accesses = 0
    window_d = window_i = window_p = 0
    window_trigger = None
    window_kind = None
    window_members = [] if record_sets else None

    def add_access(i, kind):
        nonlocal window_accesses, window_d, window_i, window_p
        nonlocal window_trigger, window_kind
        window_accesses += 1
        if kind == TriggerKind.DMISS:
            window_d += 1
        elif kind == TriggerKind.IMISS:
            window_i += 1
        else:
            window_p += 1
        if window_trigger is None:
            window_trigger = i
            window_kind = kind
        if record_sets:
            window_members.append(i)

    def close_window(inhibitor):
        nonlocal epochs_recorded, total_accesses, window_accesses
        nonlocal dmiss_accesses, imiss_accesses, prefetch_accesses
        nonlocal window_d, window_i, window_p, window_trigger, window_kind
        nonlocal window_members
        if window_accesses:
            epochs_recorded += 1
            total_accesses += window_accesses
            dmiss_accesses += window_d
            imiss_accesses += window_i
            prefetch_accesses += window_p
            inhibitors.record(inhibitor)
            if record_sets:
                epoch_records.append(
                    Epoch(
                        index=epochs_recorded - 1,
                        trigger=window_trigger + start,
                        trigger_kind=window_kind,
                        accesses=window_accesses,
                        inhibitor=inhibitor,
                        members=[m + start for m in window_members],
                    )
                )
        window_accesses = 0
        window_d = window_i = window_p = 0
        window_trigger = None
        window_kind = None
        if record_sets:
            window_members = []
        outstanding.clear()

    def absorb_pending(pos):
        """Fold in-flight prefetches into the current window.

        Every pending prefetch was issued after the previous window
        closed.  If the current window is open (a miss is outstanding)
        they all overlap with it; otherwise only prefetches within
        ``overlap_window`` instructions of *pos* are still in flight —
        older ones completed alone and are emitted as their own
        (grouped) epochs.
        """
        nonlocal pending_pf
        if window_accesses:
            fresh = pending_pf
            stale = []
        else:
            stale = [p for p in pending_pf if p < pos - overlap_window]
            fresh = [p for p in pending_pf if p >= pos - overlap_window]
        pending_pf = []
        group_start = None
        for p in stale:
            if group_start is not None and p - group_start >= overlap_window:
                close_window(Inhibitor.END_OF_TRACE)
                group_start = None
            if group_start is None:
                group_start = p
            add_access(p, TriggerKind.PMISS)
        if group_start is not None:
            close_window(Inhibitor.END_OF_TRACE)
        for p in fresh:
            add_access(p, TriggerKind.PMISS)

    def stall(pos, inhibitor):
        """Full-latency stall: close the window at *pos*.

        Fetch keeps running while issue drains, so an instruction-fetch
        miss within the next ``fetch_buffer`` instructions overlaps with
        the closing window (and is consumed here so it does not start
        its own epoch later).
        """
        absorb_pending(pos)
        for j in range(pos + 1, min(n, pos + 1 + fetch_buffer)):
            if mispred[j]:
                break  # fetch past here runs down the wrong path
            if imiss[j]:
                imiss[j] = False
                add_access(j, TriggerKind.IMISS)
                break
        close_window(inhibitor)

    for i in range(n):
        op = ops[i]

        if imiss[i]:
            imiss[i] = False
            absorb_pending(i)
            add_access(i, TriggerKind.IMISS)
            # Fetch is blocking: the window cannot grow past this point.
            close_window(
                Inhibitor.IMISS_END if window_d else Inhibitor.IMISS_START
            )

        if stall_on_use and outstanding:
            uses = False
            s = src1s[i]
            if s > REG_ZERO and s in outstanding:
                uses = True
            if not uses:
                s = src2s[i]
                if s > REG_ZERO and s in outstanding:
                    uses = True
            if not uses:
                s = src3s[i]
                if s > REG_ZERO and s in outstanding:
                    uses = True
            if uses:
                # First consumer of missing data: the pipeline stalls
                # here until every outstanding miss returns.
                stall(i, Inhibitor.MISSING_LOAD)

        if op == PREFETCH:
            if pmiss[i] and pfuseful[i]:
                pending_pf.append(i)
            continue

        if op == LOAD or op == CAS or op == LDSTUB:
            serializing_atomic = op != LOAD
            if serializing_atomic and (outstanding or window_accesses):
                # Atomics drain the pipeline first.
                stall(i, Inhibitor.SERIALIZE)
            if dmiss[i]:
                absorb_pending(i)
                add_access(i, TriggerKind.DMISS)
                if stall_on_use and not serializing_atomic:
                    dst = dsts[i]
                    if dst > REG_ZERO:
                        outstanding.add(dst)
                else:
                    # Stall-on-miss (and atomics either way) stall here.
                    stall(i, Inhibitor.MISSING_LOAD)
            else:
                dst = dsts[i]
                if dst > REG_ZERO and outstanding:
                    outstanding.discard(dst)
            continue

        if op == MEMBAR:
            if outstanding or window_accesses:
                stall(i, Inhibitor.SERIALIZE)
            continue

        # ALU / branch / store / NOP: overwriting a register with on-chip
        # data clears its outstanding status.
        dst = dsts[i]
        if dst > REG_ZERO and outstanding:
            outstanding.discard(dst)

    absorb_pending(n + overlap_window + 1)
    close_window(Inhibitor.END_OF_TRACE)

    label = f"in-order/{policy.value}"
    return MLPResult(
        workload=workload or trace.name,
        machine_label=label,
        instructions=n,
        accesses=total_accesses,
        epochs=epochs_recorded,
        dmiss_accesses=dmiss_accesses,
        imiss_accesses=imiss_accesses,
        prefetch_accesses=prefetch_accesses,
        inhibitors=inhibitors,
        epoch_records=epoch_records,
    )
