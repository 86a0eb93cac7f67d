"""MLPsim: the epoch-model simulator (paper Section 4.1).

The simulator partitions an annotated dynamic instruction stream into
epoch sets by tracking register and memory dependences and applying the
window termination conditions implied by a :class:`MachineConfig`.  It
is deliberately timing-free: on-chip latencies are zero, and all
overlappable off-chip accesses of an epoch issue and complete together.

Operational model (one iteration of the engine's main loop = one epoch):

1. The result of a missing load becomes available in the *next* epoch
   (its data returns when the epoch ends); every on-chip result is
   available within the epoch that computes it.  Availability is kept
   per dynamic instruction (``res_data``) against the static dependence
   graph of :mod:`repro.core.depgraph`, so an instruction whose producer
   has not executed yet is automatically "not ready".
2. Each epoch scans instructions in program order: first the *deferred*
   instructions (fetched in earlier epochs but not yet executed), then
   new instructions from the fetch stream.  One in-order pass suffices
   because dependences only point backwards.
3. Fetch stops at the first window termination condition: ROB or issue
   window exhaustion, a serializing instruction with older work
   outstanding, an instruction-fetch miss, or an unresolvable
   mispredicted branch.  After ROB/IW/serializing (dispatch-side) stops,
   fetch runs on for up to ``fetch_buffer`` further instructions; they
   cannot dispatch, but an I-miss among them still issues its off-chip
   line fetch.
4. An epoch is recorded when it issued at least one useful off-chip
   access, and is charged to the earliest MLP-inhibiting condition in
   program order (the Figure 5 categories).

Value prediction (Sections 3.6/5.5) splits availability in two: a
correctly predicted missing load's result is *usable* in the same epoch
(``res_data``) but only *validated* in the next (``res_valid``); a
mispredicted branch whose sources are merely usable, not validated,
cannot redirect fetch and still terminates the window.

The rules were fixed against the paper's worked Examples 1-5, which are
unit-tested verbatim in ``tests/test_paper_examples.py``.

Two engines run the model, and :func:`simulate` picks one per run, the
way :func:`repro.cyclesim.simulator.run_cyclesim` does:

* the compiled kernel (:mod:`repro.core.ckernel`), over the run's
  columnar plan, whenever it is built and covers the machine
  (:func:`repro.core.ckernel.batched_supported`);
* otherwise the oracles (:func:`simulate_oracle`): the frozen
  :mod:`repro.core.mlpsim_reference` for out-of-order machines and
  :mod:`repro.core.runahead` for runahead ones.  They are the route for
  ``record_sets`` runs, for machines outside the kernel's contracted
  ranges and on hosts without a C compiler.

The equivalence suites pin the kernel to bit-identical results against
the oracles.
"""

import numpy as np

from repro.core.config import MachineConfig

#: Result epoch of an instruction that has not executed yet.
NOT_EXECUTED = 1 << 30


class MLPSim:
    """The MLP simulator.

    Parameters
    ----------
    machine:
        :class:`MachineConfig`; defaults to the paper's 64C machine.
    record_sets:
        When True, every epoch record carries its full epoch set
        (memory-heavy; meant for tests and small traces).
    """

    def __init__(self, machine=None, record_sets=False):
        self.machine = machine or MachineConfig()
        self.record_sets = record_sets

    def run(self, annotated, start=None, stop=None, workload=None):
        """Simulate *annotated* and return an :class:`MLPResult`.

        *start*/*stop* bound the simulated region; by default the
        measured (post-warmup) region of the annotated trace is used.
        """
        return simulate(
            annotated,
            self.machine,
            start=start,
            stop=stop,
            workload=workload,
            record_sets=self.record_sets,
        )


def simulate(annotated, machine, start=None, stop=None, workload=None,
             record_sets=False):
    """Functional entry point; see :class:`MLPSim`.

    The annotated input is structurally validated (mask dtypes and
    lengths, ``vp_outcome`` codes, ``measure_start`` range) before the
    engine runs; a malformed annotation raises
    :class:`~repro.robustness.errors.TraceFormatError` instead of
    silently producing wrong MLP numbers.  The run then goes to the
    compiled kernel when it covers it, and to :func:`simulate_oracle`
    otherwise; both return the same result.
    """
    # Imported here: columnar imports this module.
    from repro.core import ckernel, columnar
    from repro.robustness.validate import validate_annotated

    validate_annotated(annotated, check_events=False)
    if not ckernel.batched_supported(machine, record_sets):
        return simulate_oracle(
            annotated, machine, start=start, stop=stop,
            workload=workload, record_sets=record_sets,
        )
    plan = columnar.plan_for(annotated, machine, start, stop)
    name = workload or annotated.trace.name
    # Unlabelled, so a failure reads exactly as the oracle's does.
    return ckernel.run_plan(plan, [(None, machine)], name)[None]


def simulate_oracle(annotated, machine, start=None, stop=None,
                    workload=None, record_sets=False):
    """Run *machine* on its oracle, never on the kernel.

    The oracle is :func:`repro.core.runahead.simulate_runahead` for a
    runahead machine and the frozen
    :func:`repro.core.mlpsim_reference.simulate_reference` otherwise.
    This is :func:`simulate`'s route for runs the kernel does not
    cover, and ``engine="scalar"`` sweeps run every config here.
    """
    if machine.runahead:
        from repro.core.runahead import simulate_runahead as oracle
    else:
        from repro.core.mlpsim_reference import simulate_reference as oracle
    return oracle(
        annotated, machine, start=start, stop=stop, workload=workload,
        record_sets=record_sets,
    )


def resolve_region(annotated, start, stop):
    """Normalise a (start, stop) request against the measured region.

    Raises
    ------
    repro.robustness.errors.SimulationError
        If the requested region falls outside the trace.
    """
    from repro.robustness.errors import SimulationError

    if start is None:
        start = annotated.measure_start
    if stop is None:
        stop = len(annotated.trace)
    if not 0 <= start <= stop <= len(annotated.trace):
        raise SimulationError(
            f"invalid trace region [{start}, {stop}) for a trace of"
            f" {len(annotated.trace)} instructions"
        )
    return start, stop


def _event_arrays(annotated, machine, start, stop):
    """Per-instruction event masks as numpy bool arrays over the region.

    Applies the machine's perfect-* switches; shared by the list-based
    :func:`event_masks` (the oracles' interpreter input) and the
    columnar plans of the compiled kernels.
    """
    dmiss = np.asarray(annotated.dmiss[start:stop])
    imiss = np.asarray(annotated.imiss[start:stop])
    mispred = np.asarray(annotated.mispred[start:stop])
    pmiss = np.asarray(annotated.pmiss[start:stop])
    pfuseful = np.asarray(annotated.pfuseful[start:stop])
    if machine.perfect_ifetch:
        imiss = np.zeros_like(imiss)
    if machine.perfect_branch:
        mispred = np.zeros_like(mispred)
    if machine.perfect_value:
        vp_ok = dmiss.copy()
    elif machine.value_prediction:
        vp_ok = dmiss & (np.asarray(annotated.vp_outcome[start:stop]) == 0)
    else:
        vp_ok = np.zeros_like(dmiss)
    return dmiss, imiss, mispred, pmiss, pfuseful, vp_ok


def event_masks(annotated, machine, start, stop):
    """Per-instruction event lists under the machine's perfect-* switches.

    Returns ``(dmiss, imiss, mispred, pmiss, pfuseful, vp_ok)`` as plain
    Python lists over the region.
    """
    dmiss, imiss, mispred, pmiss, pfuseful, vp_ok = _event_arrays(
        annotated, machine, start, stop
    )
    return (
        dmiss.tolist(),
        imiss.tolist(),
        mispred.tolist(),
        pmiss.tolist(),
        pfuseful.tolist(),
        vp_ok.tolist(),
    )
