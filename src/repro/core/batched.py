"""Batched MLPsim: many machine configurations per pass over one trace.

This engine produces :class:`~repro.core.results.MLPResult`s that are
**bit-identical** to the oracles behind
:func:`repro.core.mlpsim.simulate_oracle` (the frozen reference
interpreter and the runahead oracle).  Configurations whose perfect-*
and value-prediction switches agree share one
:class:`~repro.core.columnar.ColumnarPlan` and one call of the
compiled kernel (:mod:`repro.core.ckernel`), which simulates the whole
group in C, out-of-order and runahead machines alike.

``record_sets`` runs and machines whose kernel config exceeds the
contracted ranges are outside the kernel's envelope, and without a C
compiler there is no kernel at all; those configurations run on the
oracles.  Every machine config is accepted.  A single config takes the
same route through :func:`repro.core.mlpsim.simulate`.
"""

from repro.core.columnar import mask_key, plan_for
from repro.core.mlpsim import simulate_oracle


def batched_supported(machine, record_sets=False):
    """Will *machine* run on the compiled kernel (vs the oracles)?

    True when the kernel is available, the run does not record epoch
    sets, and the machine's kernel config lies inside the contracted
    ranges (:func:`repro.core.ckernel.in_contract`).
    """
    if record_sets:
        return False
    from repro.core import ckernel

    return ckernel.kernel_available() and ckernel.in_contract(machine)


def simulate_batch(annotated, machines, start=None, stop=None,
                   workload=None, progress=None):
    """Run a config grid over one trace; returns ``{label: MLPResult}``.

    *machines* is an iterable of ``(label, machine)`` pairs (an ordered
    mapping also works).  Every config whose event-mask key matches
    shares one columnar plan and one ``run_plan`` call, so the per-trace
    preparation cost is paid once per mask group rather than once per
    config.  *progress* is called with each label as it completes.
    """
    from repro.core import ckernel
    from repro.robustness.validate import validate_annotated

    validate_annotated(annotated, check_events=False)
    if hasattr(machines, "items"):
        machines = machines.items()
    pairs = list(machines)
    name = workload or annotated.trace.name

    groups = {}
    for label, machine in pairs:
        if batched_supported(machine):
            groups.setdefault(mask_key(machine), []).append((label, machine))
    results = {}
    for group in groups.values():
        plan = plan_for(annotated, group[0][1], start, stop)
        for label, result in ckernel.run_plan(plan, group, name).items():
            results[label] = result
            if progress is not None:
                progress(label)

    for label, machine in pairs:
        if label in results:
            continue
        results[label] = simulate_oracle(
            annotated, machine, start=start, stop=stop, workload=workload,
        )
        if progress is not None:
            progress(label)
    return {label: results[label] for label, _ in pairs}
