"""Frozen reference implementation of the out-of-order epoch engine.

This is the straight-line per-instruction interpreter MLPsim was first
written as.  It is kept frozen for two jobs:

* **Oracle of the compiled kernel** — the equivalence suites assert
  that :mod:`repro.core.ckernel` returns bit-identical
  :class:`MLPResult`s on every workload and machine configuration, and
  the perf harness (``benchmarks/test_perf_engine.py``) times the
  kernel against it.
* **The route the kernel does not take** —
  :func:`repro.core.mlpsim.simulate` runs this interpreter for
  ``record_sets`` runs, for machines outside the kernel's contracted
  ranges and on hosts without a C compiler.

Do not optimize this module; that is the whole point.  It models only
the conventional out-of-order machine (runahead has its own oracle in
:mod:`repro.core.runahead`).
"""

from repro.core.config import BranchPolicy, LoadPolicy, SerializePolicy
from repro.core.depgraph import depgraph_for
from repro.core.epoch import Epoch, TriggerKind
from repro.core.mlpsim import NOT_EXECUTED, event_masks, resolve_region
from repro.core.results import MLPResult
from repro.core.termination import Inhibitor, InhibitorCounts
from repro.isa.opclass import OpClass

import numpy as np


def simulate_reference(annotated, machine, start=None, stop=None,
                       workload=None, record_sets=False):
    """Run the frozen per-instruction interpreter; see the module docstring.

    Raises
    ------
    repro.robustness.errors.SimulationError
        If *machine* is a runahead configuration (the reference covers
        only the conventional out-of-order engine) or the region is
        invalid.
    repro.robustness.errors.InternalError
        If an epoch makes no progress, as with ``store_buffer=0``.
    """
    from repro.robustness.errors import InternalError, SimulationError
    from repro.robustness.validate import validate_annotated

    validate_annotated(annotated, check_events=False)
    if machine.runahead:
        raise SimulationError(
            "the reference engine models only the conventional"
            " out-of-order machine, not runahead"
        )
    trace = annotated.trace
    start, stop = resolve_region(annotated, start, stop)
    n = stop - start

    dmiss, imiss, mispred, pmiss, pfuseful, vp_ok = event_masks(
        annotated, machine, start, stop
    )
    imiss = list(imiss)  # mutated as fetch misses are serviced
    smiss = np.asarray(annotated.smiss[start:stop]).tolist()

    graph = depgraph_for(annotated, start, stop)
    prod1 = graph.prod1
    prod2 = graph.prod2
    prod3 = graph.prod3
    memdep = graph.memdep

    ops = trace.op[start:stop].tolist()

    ALU = int(OpClass.ALU)
    LOAD = int(OpClass.LOAD)
    STORE = int(OpClass.STORE)
    BRANCH = int(OpClass.BRANCH)
    PREFETCH = int(OpClass.PREFETCH)
    MEMBAR = int(OpClass.MEMBAR)
    NOP = int(OpClass.NOP)

    serializing = machine.issue.serialize_policy == SerializePolicy.SERIALIZING
    load_in_order = machine.issue.load_policy == LoadPolicy.IN_ORDER
    load_wait_staddr = machine.issue.load_policy == LoadPolicy.WAIT_STORE_ADDR
    branch_in_order = machine.issue.branch_policy == BranchPolicy.IN_ORDER
    iw_size = machine.issue_window
    rob_size = machine.rob
    fetch_buffer = machine.fetch_buffer
    mshr_cap = machine.max_outstanding or (1 << 30)
    sb_cap = machine.store_buffer if machine.store_buffer is not None else (1 << 30)
    slow_bp = machine.slow_branch_predictor
    slow_bp_threshold = int(machine.slow_bp_accuracy * 1024)

    # Per-instruction result availability, in epoch units.
    res_data = [NOT_EXECUTED] * n
    res_valid = [NOT_EXECUTED] * n

    deferred = []  # indices fetched but not executed, program order
    fetch_pos = 0
    epoch = 0

    epochs_recorded = 0
    total_accesses = 0
    dmiss_accesses = 0
    imiss_accesses = 0
    prefetch_accesses = 0
    store_accesses = 0
    store_epochs = 0
    inhibitors = InhibitorCounts()
    epoch_records = [] if record_sets else None

    def slow_bp_saves(i):
        """Does the slow unresolvable-branch predictor get this one right?

        Deterministic per dynamic instance, so runs are reproducible."""
        return slow_bp and ((i * 2654435761) >> 7) % 1024 < slow_bp_threshold

    while fetch_pos < n or deferred:
        epoch += 1
        accesses = 0
        e_dmiss = 0
        e_imiss = 0
        e_pmiss = 0
        e_smiss = 0
        inflight = 0  # MSHR occupancy: useful + store + useless accesses
        trigger_idx = None
        trigger_kind = None
        first_miss_idx = None  # oldest ROB-holding data miss this epoch
        members = [] if record_sets else None

        blocked_memop = False  # an older load/store has not issued (policy A)
        blocked_staddr = False  # an older store's address is unresolved (B)
        blocked_branch = False  # an older branch has not issued (in-order)
        events = []  # inhibitors in scan (= program) order; first wins
        new_deferred = []
        progress = False

        def deps(i):
            """(data, valid) availability over register + memory producers."""
            de = 0
            ve = 0
            p = prod1[i]
            if p >= 0:
                de = res_data[p]
                ve = res_valid[p]
            p = prod2[i]
            if p >= 0:
                d = res_data[p]
                if d > de:
                    de = d
                v = res_valid[p]
                if v > ve:
                    ve = v
            return de, ve

        def execute(i):
            """Attempt to execute instruction *i* in the current epoch.

            Returns ``"done"``, ``"defer"``, ``"stop-done"`` or
            ``"stop-defer"``; the stop variants terminate the scan.
            """
            nonlocal accesses, e_dmiss, e_pmiss, e_smiss, inflight
            nonlocal trigger_idx, trigger_kind
            nonlocal blocked_memop, blocked_staddr, blocked_branch
            nonlocal first_miss_idx, progress

            op = ops[i]

            if op == ALU:
                de, ve = deps(i)
                if de > epoch:
                    return "defer"
                progress = True
                res_data[i] = epoch
                res_valid[i] = ve if ve > epoch else epoch
                if members is not None:
                    members.append(i)
                return "done"

            if op == LOAD:
                de, ve = deps(i)
                m = memdep[i]
                if m >= 0:
                    d = res_data[m]
                    if d > de:
                        de = d
                    v = res_valid[m]
                    if v > ve:
                        ve = v
                if de > epoch:
                    blocked_memop = True
                    return "defer"
                if load_in_order and blocked_memop:
                    if dmiss[i]:
                        events.append(Inhibitor.MISSING_LOAD)
                    return "defer"
                if load_wait_staddr and blocked_staddr:
                    if dmiss[i]:
                        events.append(Inhibitor.DEP_STORE)
                    return "defer"
                if dmiss[i] and inflight >= mshr_cap:
                    events.append(Inhibitor.MSHR_LIMIT)
                    blocked_memop = True
                    return "defer"
                progress = True
                if dmiss[i]:
                    accesses += 1
                    e_dmiss += 1
                    inflight += 1
                    if trigger_idx is None:
                        trigger_idx = i
                        trigger_kind = TriggerKind.DMISS
                    if first_miss_idx is None:
                        first_miss_idx = i
                    res_data[i] = epoch if vp_ok[i] else epoch + 1
                    res_valid[i] = epoch + 1
                else:
                    res_data[i] = epoch
                    res_valid[i] = ve if ve > epoch else epoch
                if members is not None:
                    members.append(i)
                return "done"

            if op == STORE:
                ade, ave = deps(i)
                de = ade
                ve = ave
                p = prod3[i]
                if p >= 0:
                    d = res_data[p]
                    if d > de:
                        de = d
                    v = res_valid[p]
                    if v > ve:
                        ve = v
                if de > epoch:
                    blocked_memop = True
                    if ade > epoch:
                        blocked_staddr = True
                    return "defer"
                if smiss[i]:
                    if e_smiss >= sb_cap:
                        events.append(Inhibitor.STORE_BUFFER)
                        blocked_memop = True
                        return "defer"
                    if inflight >= mshr_cap:
                        events.append(Inhibitor.MSHR_LIMIT)
                        blocked_memop = True
                        return "defer"
                    e_smiss += 1
                    inflight += 1
                progress = True
                res_data[i] = epoch
                res_valid[i] = ve if ve > epoch else epoch
                if members is not None:
                    members.append(i)
                return "done"

            if op == BRANCH:
                de, ve = deps(i)
                can_issue = de <= epoch and not (branch_in_order and blocked_branch)
                if can_issue and mispred[i] and ve > epoch:
                    # Condition computed from an unvalidated predicted
                    # value: recovery must wait for the real data.
                    can_issue = False
                if can_issue:
                    progress = True
                    if members is not None:
                        members.append(i)
                    return "done"
                blocked_branch = True
                if mispred[i]:
                    if slow_bp_saves(i):
                        # The slow second-level predictor (Section 3.2.4
                        # extension) redirects fetch correctly; the
                        # branch merely waits in the window.
                        return "defer"
                    events.append(Inhibitor.MISPRED_BR)
                    return "stop-defer"
                return "defer"

            if op == PREFETCH:
                de, _ = deps(i)
                if de > epoch:
                    return "defer"
                if pmiss[i] and inflight >= mshr_cap:
                    events.append(Inhibitor.MSHR_LIMIT)
                    return "defer"
                progress = True
                if pmiss[i]:
                    inflight += 1
                if pmiss[i] and pfuseful[i]:
                    accesses += 1
                    e_pmiss += 1
                    if trigger_idx is None:
                        trigger_idx = i
                        trigger_kind = TriggerKind.PMISS
                if members is not None:
                    members.append(i)
                return "done"

            if op == NOP:
                progress = True
                if members is not None:
                    members.append(i)
                return "done"

            # Serializing instructions: CAS / LDSTUB / MEMBAR.
            de, ve = deps(i)
            p = prod3[i]
            if p >= 0:
                d = res_data[p]
                if d > de:
                    de = d
                v = res_valid[p]
                if v > ve:
                    ve = v
            if op != MEMBAR:
                m = memdep[i]
                if m >= 0:
                    d = res_data[m]
                    if d > de:
                        de = d
                    v = res_valid[m]
                    if v > ve:
                        ve = v

            if serializing:
                outstanding = bool(new_deferred) or trigger_idx is not None
                if outstanding or de > epoch:
                    events.append(Inhibitor.SERIALIZE)
                    if op == MEMBAR:
                        # The barrier commits with the drain at epoch end.
                        progress = True
                        res_data[i] = epoch + 1
                        res_valid[i] = epoch + 1
                        if members is not None:
                            members.append(i)
                        return "stop-done"
                    blocked_memop = True
                    return "stop-defer"
                # Pipeline already drained: the instruction issues now.
                progress = True
                if op == MEMBAR:
                    res_data[i] = epoch
                    res_valid[i] = epoch
                    if members is not None:
                        members.append(i)
                    return "done"
                return execute_atomic(i, ve)

            # Non-serializing policy (config E): atomics behave like an
            # ordinary load+store pair, barriers like NOPs.
            if op == MEMBAR:
                progress = True
                res_data[i] = epoch
                res_valid[i] = epoch
                if members is not None:
                    members.append(i)
                return "done"
            if de > epoch:
                blocked_memop = True
                return "defer"
            progress = True
            return execute_atomic(i, ve)

        def execute_atomic(i, ve):
            """Issue an executing CAS/LDSTUB (register + memory results)."""
            nonlocal accesses, e_dmiss, trigger_idx, trigger_kind
            nonlocal first_miss_idx, inflight
            if dmiss[i]:
                accesses += 1
                e_dmiss += 1
                inflight += 1
                if trigger_idx is None:
                    trigger_idx = i
                    trigger_kind = TriggerKind.DMISS
                if first_miss_idx is None:
                    first_miss_idx = i
                res_data[i] = epoch + 1
                res_valid[i] = epoch + 1
            else:
                res_data[i] = epoch
                res_valid[i] = ve if ve > epoch else epoch
            if members is not None:
                members.append(i)
            if serializing and dmiss[i]:
                # An atomic that leaves the chip holds younger
                # instructions at the drain until it completes.
                events.append(Inhibitor.SERIALIZE)
                return "stop-done"
            return "done"

        # ---- phase 1: deferred instructions, in program order --------------
        stop_scan = False
        fetch_stop = None  # None / "hard" / "soft" ("soft" allows buffering)
        for di in range(len(deferred)):
            i = deferred[di]
            status = execute(i)
            if status == "defer":
                new_deferred.append(i)
            elif status == "stop-defer":
                new_deferred.append(i)
                stop_scan = True
            elif status == "stop-done":
                stop_scan = True
            if stop_scan:
                new_deferred.extend(deferred[di + 1 :])
                # A dispatch-side stop (serializing drain) lets fetch run
                # on into the fetch buffer exactly as when the same stop
                # is reached from the fetch stream in phase 2; only a
                # mispredicted-branch stop freezes fetch itself.
                last_event = events[-1] if events else None
                if status == "stop-done" or last_event is Inhibitor.SERIALIZE:
                    fetch_stop = "soft"
                break

        # ---- phase 2: fetch --------------------------------------------------
        if not stop_scan:
            while fetch_pos < n:
                # Window constraints bind whenever older work is
                # uncompleted (a deferral or an outstanding data miss).
                oldest = new_deferred[0] if new_deferred else None
                if first_miss_idx is not None and (
                    oldest is None or first_miss_idx < oldest
                ):
                    oldest = first_miss_idx
                if oldest is not None and fetch_pos - oldest >= rob_size:
                    events.append(Inhibitor.MAXWIN)
                    fetch_stop = "soft"
                    break
                if len(new_deferred) >= iw_size:
                    events.append(Inhibitor.MAXWIN)
                    fetch_stop = "soft"
                    break

                i = fetch_pos
                if imiss[i]:
                    if inflight >= mshr_cap:
                        events.append(Inhibitor.MSHR_LIMIT)
                        fetch_stop = "hard"
                        break
                    accesses += 1
                    e_imiss += 1
                    inflight += 1
                    imiss[i] = False  # the line arrives; do not recount
                    if trigger_idx is None:
                        trigger_idx = i
                        trigger_kind = TriggerKind.IMISS
                        events.append(Inhibitor.IMISS_START)
                    else:
                        events.append(Inhibitor.IMISS_END)
                    new_deferred.append(i)
                    fetch_pos += 1
                    progress = True
                    fetch_stop = "hard"
                    break

                status = execute(i)
                fetch_pos += 1
                if status == "defer":
                    new_deferred.append(i)
                elif status == "stop-defer":
                    new_deferred.append(i)
                    last_event = events[-1] if events else None
                    fetch_stop = (
                        "soft" if last_event is Inhibitor.SERIALIZE else "hard"
                    )
                    break
                elif status == "stop-done":
                    fetch_stop = "soft"
                    break

        # ---- phase 3: fetch-buffer run-on past a dispatch-side stall --------
        if fetch_stop == "soft":
            buffered = 0
            while fetch_pos < n and buffered < fetch_buffer:
                i = fetch_pos
                if imiss[i]:
                    if inflight >= mshr_cap:
                        break
                    accesses += 1
                    e_imiss += 1
                    inflight += 1
                    imiss[i] = False
                    if trigger_idx is None:
                        trigger_idx = i
                        trigger_kind = TriggerKind.IMISS
                    events.append(Inhibitor.IMISS_END)
                    new_deferred.append(i)
                    fetch_pos += 1
                    progress = True
                    break
                new_deferred.append(i)
                fetch_pos += 1
                buffered += 1
                if mispred[i]:
                    # Fetch past an (unexecuted) mispredicted branch is
                    # on the wrong path: nothing beyond it may be
                    # buffered or counted.
                    break

        deferred = new_deferred

        store_accesses += e_smiss
        if e_smiss:
            store_epochs += 1

        if accesses == 0 and e_smiss:
            # A store-only epoch: off-chip store traffic with no useful
            # (MLP-countable) access.  Record it for store-MLP purposes
            # but not as an MLP epoch.
            continue
        if accesses == 0:
            if not progress:
                where = deferred[0] + start if deferred else fetch_pos + start
                raise InternalError(
                    f"MLPsim made no progress in an epoch at instruction {where}"
                )
            continue  # pure on-chip stretch: not an epoch
        epochs_recorded += 1
        total_accesses += accesses
        dmiss_accesses += e_dmiss
        imiss_accesses += e_imiss
        prefetch_accesses += e_pmiss

        inhibitor = events[0] if events else Inhibitor.END_OF_TRACE
        inhibitors.record(inhibitor)

        if record_sets:
            epoch_records.append(
                Epoch(
                    index=epochs_recorded - 1,
                    trigger=trigger_idx + start,
                    trigger_kind=trigger_kind,
                    accesses=accesses,
                    inhibitor=inhibitor,
                    members=[m + start for m in members],
                )
            )

    return MLPResult(
        workload=workload or trace.name,
        machine_label=machine.label,
        instructions=n,
        accesses=total_accesses,
        epochs=epochs_recorded,
        dmiss_accesses=dmiss_accesses,
        imiss_accesses=imiss_accesses,
        prefetch_accesses=prefetch_accesses,
        store_accesses=store_accesses,
        store_epochs=store_epochs,
        inhibitors=inhibitors,
        epoch_records=epoch_records,
    )
