"""Workload side of the end-to-end benchmark.

``bench.py`` starts this script in a fresh interpreter for every set-up
sample and every timed run, so each one pays imports and kernel loads
as a user's process does.  Modes:

``setup``
    Time one set-up of a workload and exit.  For ``exhibit_warm`` the
    set-up fills the annotation disk cache named by ``REPRO_CACHE_DIR``.
``exhibit``
    Run ``repro exhibit all`` once.  The exhibit text goes to stdout,
    exactly as ``python -m repro exhibit all`` prints it.
``sweep``
    Set up ``grid_wide`` or ``sweep_journaled``, check it against the
    frozen oracle, then time passes over its grid.

Every mode writes a JSON report to ``--report`` and its spans to
``--spans``.  Probes are installed before any ``repro.experiments``
exhibit module is imported, because those modules bind ``simulate`` and
friends by name.
"""

import argparse
import hashlib
import json
import os
import resource
import sys
import time

STARTED = time.perf_counter()

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from host import reference_seconds  # noqa: E402
from spans import Probe, Tracer, install, write_jsonl  # noqa: E402

TRACES = ("database", "specjbb2000", "specweb99")
WINDOWS = (16, 32, 64, 128, 256, 512)
POLICIES = "ABCDE"
ORACLE_MACHINE = "64C"


def _instructions(args, result):
    if isinstance(result, dict):
        return {
            "configs": len(result),
            "instructions": sum(r.instructions for r in result.values()),
        }
    return {"instructions": result.instructions}


#: Engines that return results; counted in every run so exhibit runs can
#: report simulated instructions.
ENGINE_PROBES = (
    Probe("repro.core.mlpsim", "simulate", "core.mlpsim.simulate",
          _instructions),
    Probe("repro.core.inorder", "simulate_inorder",
          "core.inorder.simulate_inorder", _instructions),
    Probe("repro.core.ckernel", "run_plan", "core.ckernel.run_plan",
          _instructions),
    Probe("repro.cyclesim.ckernel", "run_cycle_plan",
          "cyclesim.ckernel.run_cycle_plan", _instructions),
)

EXHIBIT_PROBE = Probe("repro.experiments", "run_exhibit",
                      "experiments.exhibit.{0}")

#: The layer boundaries a traced run records, in pipeline order:
#: generate -> annotate -> plan -> kernel -> pool/IPC -> journal -> render.
LAYER_PROBES = (
    Probe("repro.workloads", "generate_trace", "workloads.generate_trace"),
    Probe("repro.trace.annotate", "annotate", "trace.annotate"),
    Probe("repro.robustness.validate", "validate_annotated",
          "robustness.validate.validate_annotated"),
    Probe("repro.trace.io", "save_annotated", "trace.io.save_annotated"),
    Probe("repro.trace.io", "load_annotated", "trace.io.load_annotated"),
    Probe("repro.experiments.common", "get_annotated",
          "experiments.get_annotated"),
    Probe("repro.experiments.common", "Exhibit.format", "experiments.format"),
    Probe("repro.core.runahead", "simulate_runahead",
          "core.runahead.simulate_runahead"),
    Probe("repro.core.columnar", "build_plan", "core.columnar.build_plan"),
    Probe("repro.cyclesim.plan", "build_cycle_plan",
          "cyclesim.plan.build_cycle_plan"),
    Probe("repro.analysis.sweep", "sweep", "analysis.sweep.sweep"),
    Probe("repro.analysis.sweep", "sweep_cyclesim",
          "analysis.sweep.sweep_cyclesim"),
    Probe("repro.analysis.parallel", "serial_cutover",
          "analysis.parallel.serial_cutover",
          lambda args, fired: {"fired": int(bool(fired))}),
    Probe("repro.analysis.parallel", "batched_parallel_sweep",
          "analysis.parallel.batched_parallel_sweep"),
    Probe("repro.analysis.shm", "publish_plan", "analysis.shm.publish_plan"),
    Probe("repro.analysis.shm", "unpublish_plan",
          "analysis.shm.unpublish_plan"),
    Probe("repro.robustness.supervisor", "supervised_sweep",
          "robustness.supervisor.supervised_sweep",
          lambda args, result: {
              "worker_replacements": result.worker_replacements,
              "quarantined": len(result.quarantined),
          }),
) + tuple(
    Probe("repro.robustness.journal", f"SweepJournal.{method}",
          "robustness.journal.append")
    for method in ("initialize", "record_attempt", "record_result",
                   "record_failure", "record_quarantine")
)


def check_kernels():
    """Load (building on first use) both compiled kernels, or fail.

    A missing or unwritable ``REPRO_KERNEL_DIR`` silently sends every
    config to the pure-Python tiers, which would time the wrong program.
    """
    from repro.core import ckernel
    from repro.cyclesim import ckernel as cycle_ckernel

    for module in (ckernel, cycle_ckernel):
        if not module.kernel_available():
            raise SystemExit(
                f"{module.__name__}: compiled kernel unavailable:"
                f" {module.kernel_error()}"
            )


def wide_grid():
    """240 configs: window x policy x ROB x MSHR x value prediction."""
    from repro.core.config import MachineConfig

    machines = [
        MachineConfig.named(f"{window}{policy}", rob=window * rob_factor,
                            max_outstanding=mshr, value_prediction=vp)
        for window in WINDOWS
        for policy in POLICIES
        for rob_factor in (1, 4)
        for mshr in (None, 16)
        for vp in (False, True)
    ]
    return [(machine.label, machine) for machine in machines]


def paper_grid():
    """The paper's 30-config window x policy grid."""
    from repro.core.config import MachineConfig

    return [
        (f"{window}{policy}", MachineConfig.named(f"{window}{policy}"))
        for window in WINDOWS
        for policy in POLICIES
    ]


def result_row(label, result):
    """The simulated statistics a result is pinned by."""
    inhibitors = {
        inhibitor.value: count
        for inhibitor, count in result.inhibitors.as_dict().items()
    }
    return [label, result.mlp, result.epochs, inhibitors]


def digest(rows):
    text = json.dumps(sorted(rows), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def setup_exhibits(workload, trace_len):
    """Import the exhibit layer and load both kernels; ``exhibit_warm``
    also fills the annotation disk cache ``exhibit all`` reads."""
    check_kernels()
    from repro.experiments.common import get_annotated
    from repro.experiments.figure7 import L2_SIZES

    if workload == "exhibit_warm":
        for name in TRACES:
            for l2_bytes in (None,) + tuple(L2_SIZES):
                get_annotated(name, trace_len, l2_bytes=l2_bytes)


def setup_sweep(workload, seed, trace_len):
    """Generate and annotate the three traces; build ``grid_wide``'s
    columnar plans (one per event-mask group and trace)."""
    check_kernels()
    from repro.core.columnar import mask_key, plan_for
    from repro.trace.annotate import annotate
    from repro.workloads import generate_trace

    grid = wide_grid() if workload == "grid_wide" else paper_grid()
    traces = {
        name: annotate(generate_trace(name, trace_len, seed=seed))
        for name in TRACES
    }
    if workload == "grid_wide":
        for annotated in traces.values():
            groups = {mask_key(machine): machine for _, machine in grid}
            for machine in groups.values():
                plan_for(annotated, machine)
    return traces, grid


def reference_rows(workload, traces, grid):
    """Rows every pass must reproduce, from engines other than the timed one.

    Both workloads check the grid's 64C result against the frozen oracle.
    ``sweep_journaled`` (the supervised scalar engine) must also match the
    batched engine on all 30 configs it shares with ``grid_wide``.
    """
    from repro.analysis.sweep import sweep
    from repro.core.config import MachineConfig
    from repro.core.mlpsim_reference import simulate_reference

    references = {}
    for name, annotated in traces.items():
        oracle = simulate_reference(
            annotated, MachineConfig.named(ORACLE_MACHINE), workload=name
        )
        rows = {ORACLE_MACHINE: result_row(ORACLE_MACHINE, oracle)}
        if workload == "sweep_journaled":
            batched = sweep(annotated, grid, workload=name,
                            engine="batched", jobs=1)
            for label, result in batched.results.items():
                rows.setdefault(label, result_row(label, result))
        references[name] = rows
    return references


def run_pass(workload, traces, grid, jobs, run_dir):
    """One timed pass: one sweep call per trace."""
    from repro.analysis.sweep import sweep

    ops = {}
    results = {}
    started = time.perf_counter()
    for name, annotated in traces.items():
        begun = time.perf_counter()
        if workload == "grid_wide":
            result = sweep(annotated, grid, workload=name, engine="auto",
                           jobs=jobs)
        else:
            journal = os.path.join(run_dir, f"journal-{name}.jsonl")
            result = sweep(annotated, grid, workload=name, jobs=jobs,
                           supervise={"journal_path": journal,
                                      "resume": False})
        ops[name] = time.perf_counter() - begun
        results[name] = result
    wall = time.perf_counter() - started
    return wall, ops, results


def check_pass(results, grid, references):
    """Digest each trace's results and count configs that failed."""
    failed = 0
    digests = {}
    for name, result in results.items():
        rows = {label: result_row(label, r)
                for label, r in result.results.items()}
        failed += len(grid) - len(rows)  # quarantined or missing
        failed += sum(
            1 for label, row in references[name].items()
            if rows.get(label, row) != row
        )
        digests[name] = digest(list(rows.values()))
    return failed, digests


def sweep_mode(args, tracer):
    traces, grid = setup_sweep(args.workload, args.seed, args.trace_len)
    setup_s = time.perf_counter() - STARTED
    setup_ref = reference_seconds()
    references = reference_rows(args.workload, traces, grid)

    passes = []
    refs = [reference_seconds()]
    started = time.perf_counter()
    while not passes or (len(passes) < args.reps if args.reps
                         else time.perf_counter() - started < args.seconds):
        wall, ops, results = run_pass(args.workload, traces, grid, 2,
                                      args.run_dir)
        failed, digests = check_pass(results, grid, references)
        passes.append({
            "wall": wall,
            "ops": list(ops.values()),
            "instructions": sum(
                r.instructions for result in results.values()
                for r in result.results.values()
            ),
            "attempted": len(grid) * len(traces),
            "failed": failed,
            "digests": digests,
        })
        refs.append(reference_seconds())

    traced = []
    if args.trace:
        # Installed only now, so set-up and the timed passes above run
        # unwrapped.  Worker spans are invisible from here, so a jobs=1
        # pass follows the jobs=2 one to show the engine layers.
        install(tracer, ENGINE_PROBES + LAYER_PROBES)
        tracer.active = True
        for jobs in (2, 1):
            record = tracer.open(f"harness.pass.jobs{jobs}")
            wall, _, results = run_pass(args.workload, traces, grid, jobs,
                                        args.run_dir)
            tracer.close(record)
            failed, digests = check_pass(results, grid, references)
            traced.append({"jobs": jobs, "wall": wall, "failed": failed,
                           "digests": digests})
        tracer.active = False
    return {"setup_s": setup_s, "setup_ref": setup_ref, "passes": passes,
            "refs": refs, "traced": traced}


def exhibit_mode(args, tracer):
    """Untraced runs still time each exhibit and count simulated
    instructions; traced runs add every layer probe."""
    tracer.active = True
    root = tracer.open("harness.run", start=STARTED)
    record = tracer.open("repro.import")
    install(tracer, ENGINE_PROBES + (EXHIBIT_PROBE,)
            + (LAYER_PROBES if args.trace else ()))
    from repro.cli import main

    tracer.close(record)
    code = main(["exhibit", "all", "-n", str(args.trace_len)])
    sys.stdout.flush()
    tracer.close(root)
    return {"exit_code": code}


def setup_mode(args, tracer):
    if args.workload.startswith("exhibit"):
        setup_exhibits(args.workload, args.trace_len)
    else:
        setup_sweep(args.workload, args.seed, args.trace_len)
    return {"setup_s": time.perf_counter() - STARTED}


MODES = {"setup": setup_mode, "exhibit": exhibit_mode, "sweep": sweep_mode}


def peak_rss_mb():
    """Peak RSS of this process or of its largest reaped child, in MB."""
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=sorted(MODES))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace-len", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--reps", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args(argv)

    tracer = Tracer()
    report = MODES[args.mode](args, tracer)
    report["rss_mb"] = peak_rss_mb()
    write_jsonl(tracer.spans, args.spans)
    with open(args.report, "w") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
