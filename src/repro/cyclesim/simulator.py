"""The cycle-level out-of-order pipeline: the public entry point.

Trace-driven timing simulation over an annotated trace: the annotation
decides *what* happens (which loads leave the chip, which branches
mispredict), the pipeline decides *when*.  The model — fetch, dispatch,
issue under the Table 2 constraints, MSHR-tracked off-chip accesses and
in-order commit — is specified by the frozen reference simulator
``repro.cyclesim.simulator_reference``.

Engine tiers
------------

Two implementations exist, held bit-identical by
``tests/test_cyclesim_equivalence.py``:

* the compiled C kernel (:mod:`repro.cyclesim.ckernel`), built on
  demand from ``_cyclesim_kernel.c``, which runs a whole config grid
  against one precomputed cycle plan (:mod:`repro.cyclesim.plan`);
* the frozen reference itself, which :func:`run_cyclesim` falls back to
  on hosts where the kernel cannot be built and for configs outside the
  kernel's contracted ranges (:func:`repro.cyclesim.ckernel.in_contract`).
"""

from repro.cyclesim import simulator_reference
from repro.cyclesim.config import CycleSimConfig
from repro.cyclesim.plan import cycle_plan_for


class CycleSimulator:
    """Runs one annotated trace through the cycle-level pipeline."""

    def __init__(self, config=None):
        self.config = config or CycleSimConfig()

    def run(self, annotated, start=None, stop=None, workload=None):
        """Simulate *annotated* and return :class:`CycleMetrics`."""
        return run_cyclesim(
            annotated, self.config, start=start, stop=stop, workload=workload
        )


def run_cyclesim(annotated, config=None, start=None, stop=None,
                 workload=None):
    """Simulate *annotated* under *config*; return :class:`CycleMetrics`.

    Uses the compiled kernel when it is available and covers *config*,
    and the frozen reference simulator otherwise; both give
    bit-identical results.
    """
    from repro.cyclesim import ckernel

    config = config or CycleSimConfig()
    if not (ckernel.kernel_available() and ckernel.in_contract(config)):
        return simulator_reference.run_cyclesim(
            annotated, config, start=start, stop=stop, workload=workload
        )
    plan = cycle_plan_for(annotated, start, stop)
    name = workload or annotated.trace.name
    # Unlabelled, so a failure reads exactly as the reference's does.
    return ckernel.run_cycle_plan(plan, [(None, config)], name)[None]
