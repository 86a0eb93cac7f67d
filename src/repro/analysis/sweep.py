"""Parameter-sweep harness over MLPsim and the cycle simulator.

The paper's Figures 4-10 are all sweeps of machine configurations over
the same annotated traces.  :func:`sweep` runs a labelled grid of
machines (:func:`sweep_cyclesim` a grid of cycle-simulator configs)
and collects the results in a :class:`SweepResult` that the experiment
modules index and render.

Both run on the one sweep executor in :mod:`repro.robustness.supervisor`:
the grid is cut into chunks that share a compiled-kernel plan (or run
one config each on the scalar route).  Kernel chunks run in this
process on every usable CPU; with ``jobs=N`` or ``REPRO_JOBS`` the
scalar-route chunks, and every chunk of a supervised sweep, run on a
worker pool.  Results are identical either way, label for label.  See
``docs/PERFORMANCE.md``.

Long or failure-prone campaigns should run under supervision
(``supervise=...``): the sweep is then journalled, resumable after a
crash, retried per-config with backoff, and fail-soft — see
``docs/ROBUSTNESS.md``.
"""

import dataclasses

from repro.robustness.errors import ConfigError, SimulationError

#: Engines ``sweep`` can route a grid through.
ENGINES = ("auto", "batched", "scalar")


@dataclasses.dataclass
class SweepResult:
    """Results of one machine grid over one annotated trace."""

    workload: str
    results: dict  # label -> MLPResult

    def mlp(self, label):
        """MLP of the configuration named *label*."""
        return self.results[label].mlp

    def labels(self):
        """Configuration labels, in grid order."""
        return list(self.results)

    def series(self, labels=None):
        """Return [(label, mlp)] for plotting/printing."""
        labels = labels if labels is not None else self.labels()
        return [(label, self.results[label].mlp) for label in labels]

    def relative(self, baseline_label):
        """MLP of each config relative to *baseline_label* (1.0 = equal).

        Raises
        ------
        repro.robustness.errors.SimulationError
            If the baseline configuration measured zero MLP — every
            ratio would be undefined, and mapping them all to ``0.0``
            would silently hide the degenerate baseline.
        """
        base = self.mlp(baseline_label)
        if not base:
            raise SimulationError(
                f"baseline config {baseline_label!r} has zero MLP;"
                " relative comparison is undefined",
                field=baseline_label,
            )
        return {
            label: result.mlp / base
            for label, result in self.results.items()
        }


def check_engine(engine):
    """Reject an *engine* outside :data:`ENGINES` with a ConfigError."""
    if engine not in ENGINES:
        raise ConfigError(
            f"engine must be one of {ENGINES}, got {engine!r}",
            field="engine",
        )


def sweep(annotated, machines, workload=None, progress=None, jobs=None,
          supervise=None, engine="auto"):
    """Run MLPsim for every ``(label, machine)`` pair in *machines*.

    *machines* is an iterable of pairs (an ordered mapping also works).
    *progress*, if given, is called with each label as it completes,
    in grid order — the benchmark harness uses it for liveness output.

    *jobs* sizes the worker pool, which only supervised sweeps and
    scalar-route configs use: ``None`` defers to the ``REPRO_JOBS``
    environment variable (defaulting to serial), ``1`` runs serially,
    ``0`` means one worker per usable CPU.  Unsupervised, every
    compiled-kernel chunk runs in this process whatever *jobs* says,
    since each kernel batch already runs on every usable CPU
    (:func:`repro.cbuild.run_slices`); only the scalar-route configs
    go to the pool, after the kernel chunks, unless the serial cutover
    (:func:`repro.analysis.parallel.serial_cutover`) fires on their
    count.  Pooled runs produce results identical to serial ones and
    preserve label order; if no worker pool can be created the sweep
    silently runs serially.  A failed config raises
    :class:`~repro.robustness.errors.SimulationError` naming its label.

    *engine* picks the simulation backend: ``"auto"`` (default) runs
    each event-mask group of the grid, runahead machines included, as
    compiled-kernel calls over one columnar plan
    (:func:`repro.core.ckernel.run_plan`) — bit-identical to the
    oracles and well over an order of magnitude faster on full grids —
    and only machines outside the kernel's contracted ranges on the
    oracles (:func:`repro.core.mlpsim.simulate_oracle`); ``"batched"``
    does the same (it is the explicit spelling); ``"scalar"`` runs every
    config on the oracles, one instruction at a time.  Without the compiled
    kernel every engine runs the oracles.

    *supervise* routes the sweep through the crash-safe supervisor
    (:func:`repro.robustness.supervisor.supervised_sweep`): pass
    ``True`` for default supervision or a dict of supervisor keyword
    arguments (``journal_path``, ``resume``, ``policy``, ``seed``,
    ``trace_len``, ``fault_plan``).  The return value is then a
    :class:`~repro.robustness.supervisor.SupervisedSweepResult` — a
    :class:`SweepResult` whose ``quarantined`` list carries any
    dead-lettered configurations instead of raising.  Supervised
    sweeps keep *engine*: kernel chunks are journalled, timed out and
    retried per config like scalar ones.
    """
    check_engine(engine)
    return _run(annotated, machines, workload, progress, jobs, supervise,
                engine)


def sweep_cyclesim(annotated, configs, workload=None, progress=None,
                   jobs=None, supervise=None):
    """Run the cycle simulator for every ``(label, config)`` pair.

    The cyclesim twin of :func:`sweep`: *configs* is an iterable of
    ``(label, CycleSimConfig)`` pairs (or an ordered mapping), and the
    result is a :class:`SweepResult` whose ``results`` map labels to
    :class:`~repro.cyclesim.metrics.CycleMetrics`.  The Table 1/3/4
    and Figure 11 exhibits reach it through
    :func:`repro.experiments.common.get_cyclesim`, which sends each
    distinct config once.

    The grid shares one cycle plan (:mod:`repro.cyclesim.plan`) — the
    cycle simulator's event masks never depend on the configuration —
    so an in-process run amortises the plan and the compiled kernel
    across the grid in one :func:`repro.cyclesim.ckernel.run_cycle_plan`
    call, and a supervised pool publishes the per-instruction tables
    once through shared memory for workers to attach zero-copy.
    *jobs*, the serial cutover and *supervise* behave exactly as in
    :func:`sweep`; cyclesim results round-trip the journal exactly
    (``kind: "cyclesim"`` payloads).  Without the compiled kernel each
    config runs on the frozen reference simulator.
    """
    return _run(annotated, configs, workload, progress, jobs, supervise,
                "auto")


def _run(annotated, machines, workload, progress, jobs, supervise, engine):
    """Send one grid through the sweep executor."""
    from repro.robustness import supervisor

    if hasattr(machines, "items"):
        machines = machines.items()
    pairs = list(machines)
    name = workload or annotated.trace.name
    if supervise is not None and supervise is not False:
        options = {} if supervise is True else dict(supervise)
        return supervisor.supervised_sweep(
            annotated, pairs, workload=name, jobs=jobs,
            progress=progress, engine=engine, **options
        )
    results = supervisor.sweep_results(
        annotated, pairs, name, jobs=jobs, progress=progress, engine=engine
    )
    return SweepResult(workload=name, results=results)
