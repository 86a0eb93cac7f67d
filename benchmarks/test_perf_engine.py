"""Perf-regression harness for the simulation engines and sweep backend.

Times (a) the paper's window x policy grid and runahead grids on the
compiled MLPsim kernel against per-config replays of their oracles
(`repro.core.mlpsim_reference`, `repro.core.runahead`), (b) an
8-config sweep serial vs. on a 4-worker pool, (c) the cycle-accurate
simulator —
single runs and the Table 3 grid through the supervised sweep backend
— against its own frozen reference
(`repro.cyclesim.simulator_reference`), (d) trace annotation on
its compiled kernel against the Python loops, (e) both kernel
drivers on one thread against every usable CPU, (f) trace
generation on its compiled kernel against the Python generators, and
(g) renaming (the dependence graph) on the annotation kernel against
the Python loop, then appends one record
per invocation to ``benchmarks/results/BENCH_perf.json`` via the atomic
writer so a performance trajectory accumulates across PRs.

Trace length follows ``REPRO_TRACE_LEN`` (default 400,000
instructions); the CI perf-smoke job runs this file with a small
length, so the assertions are deliberately conservative — the headline
speedup numbers live in the JSON, not in the asserts.
"""

import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
BENCH_PATH = RESULTS_DIR / "BENCH_perf.json"

#: Version of the record layout ``_append_record`` writes.  Bumped to 2
#: when ``git_rev``/``bench_schema`` stamping landed; records from
#: schema-1 harnesses lack both fields and readers must backfill
#: (see ``load_bench_records`` in ``benchmarks/conftest.py``).
BENCH_SCHEMA = 2

SWEEP_SPECS = ("16A", "64A", "64B", "64C", "64D", "64E", "256E", "128C")
SWEEP_JOBS = 4
PERF_SEED = 1234

#: The paper's full grid axis: every window size x issue policies A-E.
#: 30 configs — the batched engine's headline measurement.
GRID_SPECS = tuple(
    f"{window}{policy}"
    for window in (16, 32, 64, 128, 256, 512)
    for policy in "ABCDE"
)

#: Worker counts of the scaling-vs-jobs curve (kind "sweep_scaling").
SCALING_JOBS = (1, 2, 4)


def _fixed_workloads():
    """The three paper workloads at the benchmark's fixed seed."""
    from repro.experiments.common import WORKLOAD_NAMES, get_annotated

    return [(name, get_annotated(name, seed=PERF_SEED))
            for name in WORKLOAD_NAMES]


def _machines():
    from repro.core.config import MachineConfig

    return [(spec, MachineConfig.named(spec)) for spec in SWEEP_SPECS]


def _in_process(annotated, grid, workload):
    """``{label: result}`` of *grid*, swept in this process."""
    from repro.analysis.sweep import sweep

    return sweep(annotated, grid, workload=workload, jobs=1).results


def _best_of(fn, *args, reps=3, **kwargs):
    """Minimum wall time of *reps* calls (first call warms the memos)."""
    best = None
    for _ in range(reps):
        started = time.perf_counter()
        fn(*args, **kwargs)
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
    return best


def _git(*args):
    """Output of ``git *args`` in this checkout, or ``None``."""
    try:
        proc = subprocess.run(
            ["git", *args],
            cwd=pathlib.Path(__file__).parent,
            capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return proc.stdout


def _provenance():
    """What this record measures: ``{"git_rev": ...}``, plus ``dirty``
    when git supplied the rev.

    ``GIT_COMMIT`` (set by CI) wins so containers measuring a detached
    export still attribute records correctly.  A plain checkout asks
    ``git rev-parse``, and ``dirty`` says whether the measured tree had
    uncommitted changes: such a record measures a change on top of
    ``git_rev``, so a change can commit the records it measured.
    Fail-soft: provenance is metadata, and a benchmark must never fail
    because the tree is not a git work tree (``git_rev`` is then
    ``None``).  No wall-clock timestamps — the rev *is* the point on
    the trajectory, and it stays stable across re-runs of the same
    tree.
    """
    rev = os.environ.get("GIT_COMMIT", "").strip()
    if rev:
        return {"git_rev": rev}
    rev = (_git("rev-parse", "HEAD") or "").strip()
    if not rev:
        return {"git_rev": None}
    # The records file itself changes with every record appended.
    status = _git("status", "--porcelain", "--", ":(top)",
                  ":(top,exclude)benchmarks/results")
    return {"git_rev": rev, "dirty": bool(status and status.strip())}


def _append_record(kind, record):
    """Append one measurement to BENCH_perf.json atomically.

    The file holds ``{"runs": [...]}``; each entry is one harness
    invocation — stamped with the commit it measured (see
    :func:`_provenance`) and the record schema version — so successive
    changes accumulate a perf trajectory.
    A corrupt or missing file starts a fresh history rather than
    failing the benchmark.
    """
    from repro.robustness.atomic import atomic_write_text

    history = {"runs": []}
    try:
        with open(BENCH_PATH) as handle:
            loaded = json.load(handle)
        if isinstance(loaded, dict) and isinstance(loaded.get("runs"), list):
            history = loaded
    except (OSError, ValueError):
        pass
    record = dict(
        record, kind=kind, bench_schema=BENCH_SCHEMA, **_provenance(),
    )
    history["runs"].append(record)
    RESULTS_DIR.mkdir(exist_ok=True)
    atomic_write_text(BENCH_PATH, json.dumps(history, indent=2) + "\n")


def test_sweep_scaling(results_dir):
    """Time the 8-config sweep serial vs. a 4-worker pool."""
    from repro.analysis.sweep import sweep

    name, annotated = _fixed_workloads()[0]
    machines = _machines()
    sweep(annotated, machines, jobs=1)  # warm every per-config memo
    t_serial = _best_of(sweep, annotated, machines, jobs=1, reps=2)
    t_parallel = _best_of(sweep, annotated, machines, jobs=SWEEP_JOBS,
                          reps=2)
    scaling = t_serial / t_parallel
    cpus = os.cpu_count() or 1
    _append_record("sweep", {
        "trace_len": len(annotated.trace),
        "workload": name,
        "configs": list(SWEEP_SPECS),
        "jobs": SWEEP_JOBS,
        "cpu_count": cpus,
        "serial_seconds": round(t_serial, 6),
        "parallel_seconds": round(t_parallel, 6),
        "scaling": round(scaling, 3),
    })
    print(f"\nsweep scaling at jobs={SWEEP_JOBS} on {cpus} cpus: "
          f"{scaling:.2f}x (serial {t_serial:.2f}s,"
          f" parallel {t_parallel:.2f}s)")
    # Scaling can only track min(jobs, cpus): on a single-core box the
    # pool adds pure overhead, and tiny smoke traces are dominated by
    # pool startup.  Assert near-linear behaviour only where the
    # hardware and trace length allow it; elsewhere guard against the
    # backend becoming pathologically slower than serial.
    if len(annotated.trace) >= 400_000 and cpus >= SWEEP_JOBS:
        floor = 0.5 * SWEEP_JOBS
    elif cpus == 1:
        floor = 0.4
    else:
        floor = 0.1
    assert scaling > floor


def test_batched_grid_speedup(results_dir):
    """The config-batched engine vs. N oracle replays on the full grid.

    30 window x policy configs over one columnar trace, one batch per
    event-mask group (a single compiled pass when a C toolchain is
    present), against one frozen-reference run per config.  Results
    must be bit-identical to the oracle, and the batch must never be
    slower than the replays, even on CI smoke traces.
    """
    import dataclasses

    from repro.core.ckernel import kernel_available, kernel_error
    from repro.core.config import MachineConfig
    from repro.core.mlpsim_reference import simulate_reference

    grid = [(spec, MachineConfig.named(spec)) for spec in GRID_SPECS]
    per_workload = {}
    total_scalar = 0.0
    total_batched = 0.0
    for name, annotated in _fixed_workloads():
        batch = _in_process(annotated, grid, name)  # warm
        for label, machine in grid:
            scalar_result = simulate_reference(annotated, machine,
                                               workload=name)
            want = dataclasses.asdict(scalar_result)
            want["inhibitors"] = scalar_result.inhibitors.as_dict()
            got = dataclasses.asdict(batch[label])
            got["inhibitors"] = batch[label].inhibitors.as_dict()
            assert got == want, (name, label)

        def scalar_grid(annotated=annotated, name=name):
            for _, machine in grid:
                simulate_reference(annotated, machine, workload=name)

        t_scalar = _best_of(scalar_grid, reps=2)
        t_batched = _best_of(_in_process, annotated, grid, name, reps=3)
        per_workload[name] = {
            "seconds": round(t_batched, 6),
            "scalar_seconds": round(t_scalar, 6),
            "speedup": round(t_scalar / t_batched, 3),
            "per_config_ms": round(1000 * t_batched / len(grid), 3),
        }
        total_scalar += t_scalar
        total_batched += t_batched
    speedup = total_scalar / total_batched
    _append_record("batched_grid", {
        "trace_len": len(_fixed_workloads()[0][1].trace),
        "configs": len(grid),
        "seed": PERF_SEED,
        "cpu_count": os.cpu_count() or 1,
        "compiled_kernel": kernel_available(),
        "baseline": "simulate_reference",
        "workloads": per_workload,
        "scalar_total_seconds": round(total_scalar, 6),
        "batched_total_seconds": round(total_batched, 6),
        "speedup_vs_scalar": round(speedup, 3),
        "per_config_seconds": round(total_batched / (3 * len(grid)), 6),
    })
    print(f"\nbatched grid ({len(grid)} configs): {speedup:.2f}x vs"
          f" the oracle ({1000 * total_batched / (3 * len(grid)):.2f}"
          f" ms/config)")
    # The batched backend must never lose to the oracle replays — this
    # is the CI smoke gate; the full-trace figures live in the JSON
    # trajectory (compare per_config_seconds across runs).  Without a
    # compiled kernel every config runs on the oracle, so there is no
    # speedup to gate.
    if not kernel_available():
        pytest.skip(f"no compiled MLPsim kernel: {kernel_error()}")
    assert speedup > 1.0


def test_runahead_grid_speedup(results_dir):
    """Runahead machines on the compiled kernel vs the runahead oracle.

    Figure 10's five RAE configs plus Figure 9's RAE+VP and a shorter
    runahead distance, one in-process ``sweep`` per workload against
    per-config :func:`repro.core.runahead.simulate_runahead` replays
    (kind "runahead_grid").  Results must be bit-identical, and the
    kernel must hold 5x even on CI smoke traces.
    """
    import dataclasses

    from repro.core.ckernel import kernel_available, kernel_error
    from repro.core.config import MachineConfig
    from repro.core.limits import limit_configs
    from repro.core.runahead import simulate_runahead

    if not kernel_available():
        pytest.skip(f"no compiled MLPsim kernel: {kernel_error()}")
    grid = limit_configs(runahead=True) + [
        ("RAE+VP", MachineConfig.runahead_machine(value_prediction=True)),
        ("RAE(512)", MachineConfig.runahead_machine(max_runahead=512)),
    ]
    per_workload = {}
    total_scalar = 0.0
    total_kernel = 0.0
    for name, annotated in _fixed_workloads():
        batch = _in_process(annotated, grid, name)  # warm
        for label, machine in grid:
            oracle = simulate_runahead(annotated, machine, workload=name)
            want = dataclasses.asdict(oracle)
            want["inhibitors"] = oracle.inhibitors.as_dict()
            got = dataclasses.asdict(batch[label])
            got["inhibitors"] = batch[label].inhibitors.as_dict()
            assert got == want, (name, label)

        def scalar_grid(annotated=annotated, name=name):
            for _, machine in grid:
                simulate_runahead(annotated, machine, workload=name)

        t_scalar = _best_of(scalar_grid, reps=2)
        t_kernel = _best_of(_in_process, annotated, grid, name, reps=3)
        per_workload[name] = {
            "seconds": round(t_kernel, 6),
            "scalar_seconds": round(t_scalar, 6),
            "speedup": round(t_scalar / t_kernel, 3),
            "per_config_ms": round(1000 * t_kernel / len(grid), 3),
        }
        total_scalar += t_scalar
        total_kernel += t_kernel
    speedup = total_scalar / total_kernel
    _append_record("runahead_grid", {
        "trace_len": len(_fixed_workloads()[0][1].trace),
        "configs": len(grid),
        "seed": PERF_SEED,
        "cpu_count": os.cpu_count() or 1,
        "workloads": per_workload,
        "scalar_total_seconds": round(total_scalar, 6),
        "kernel_total_seconds": round(total_kernel, 6),
        "speedup_vs_scalar": round(speedup, 3),
        "per_config_seconds": round(total_kernel / (3 * len(grid)), 6),
    })
    print(f"\nrunahead grid ({len(grid)} configs): {speedup:.2f}x vs"
          f" simulate_runahead ({1000 * total_kernel / (3 * len(grid)):.2f}"
          " ms/config)")
    assert speedup >= 5.0


def test_annotate_speedup(results_dir):
    """The annotation layers on the compiled kernel vs the Python loops.

    Per fixed workload, one front pass plus five back passes (Figure
    7's L2 sizes) on each route, the last-value predictor left out: it
    runs in Python on both (kind "annotate").  Results must be
    bit-identical, and the kernel must hold 5x even on CI smoke traces.
    """
    import importlib

    import numpy as np

    from repro.branch.frontend import BranchPredictor
    from repro.experiments.figure7 import L2_SIZES
    from repro.memory.hierarchy import HierarchyConfig
    from repro.trace import ckernel
    from repro.trace.annotate import AnnotationConfig

    # The package re-exports the annotate() function over the module.
    layers = importlib.import_module("repro.trace.annotate")
    if not ckernel.kernel_available():
        pytest.skip(f"no compiled annotation kernel: {ckernel.kernel_error()}")
    configs = [
        AnnotationConfig(hierarchy=HierarchyConfig().with_l2_size(size))
        for size in L2_SIZES
    ]

    def kernel_layers(trace):
        front = layers.FrontPass(*ckernel.run_front_pass(trace, configs[0]))
        return front, [ckernel.run_back_pass(trace, front, config)
                       for config in configs]

    def python_layers(trace):
        front = layers._run_front_pass(trace, configs[0], BranchPredictor())
        return front, [layers._replay_l2(len(trace), front, config)
                       for config in configs]

    per_workload = {}
    total_python = 0.0
    total_kernel = 0.0
    for name, annotated in _fixed_workloads():
        trace = annotated.trace
        (got_front, got_masks), (want_front, want_masks) = (
            kernel_layers(trace), python_layers(trace))
        for field in ("mispred", "position", "kind", "addr"):
            got, want = getattr(got_front, field), getattr(want_front, field)
            assert got.dtype == want.dtype, (name, field)
            assert np.array_equal(got, want), (name, field)
        for got, want in zip(got_masks, want_masks):
            for got_mask, want_mask in zip(got, want):
                assert np.array_equal(got_mask, want_mask), name
        t_python = _best_of(python_layers, trace, reps=2)
        t_kernel = _best_of(kernel_layers, trace, reps=3)
        per_workload[name] = {
            "seconds": round(t_kernel, 6),
            "python_seconds": round(t_python, 6),
            "speedup": round(t_python / t_kernel, 3),
            "stream_length": len(got_front.position),
        }
        total_python += t_python
        total_kernel += t_kernel
    speedup = total_python / total_kernel
    _append_record("annotate", {
        "trace_len": len(_fixed_workloads()[0][1].trace),
        "back_passes": len(configs),
        "seed": PERF_SEED,
        "cpu_count": os.cpu_count() or 1,
        "workloads": per_workload,
        "python_total_seconds": round(total_python, 6),
        "kernel_total_seconds": round(total_kernel, 6),
        "speedup_vs_python": round(speedup, 3),
    })
    print(f"\nannotation (1 front + {len(configs)} back passes):"
          f" {speedup:.2f}x vs the Python loops")
    assert speedup >= 5.0


#: The probes' peak RSS (KiB).  Linux's VmHWM starts afresh at exec;
#: ru_maxrss would start at the parent's peak.
_PEAK = """
import resource, sys

def peak():
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
"""

#: Generates the three paper traces in a fresh interpreter and prints
#: the peak-RSS growth (KiB) that generation caused.
_RSS_PROBE = _PEAK + """
from repro.workloads import PAPER_WORKLOADS, ckernel, generate_trace

ckernel.kernel_available()
before = peak()
traces = [generate_trace(name, int(sys.argv[1]), seed=int(sys.argv[2]))
          for name in PAPER_WORKLOADS]
print(peak() - before)
"""

#: Builds the dependence graphs of the three paper traces' measured
#: regions in a fresh interpreter, on the renaming kernel or (argument
#: "python") the Python loop, and prints the peak-RSS growth (KiB)
#: that renaming caused.  Traces are prepared on the kernels either way.
_DEPGRAPH_RSS_PROBE = _PEAK + """
from repro.core.depgraph import build_depgraph
from repro.core.mlpsim import resolve_region
from repro.experiments.common import WORKLOAD_NAMES, get_annotated
from repro.trace import ckernel

regions = []
for name in WORKLOAD_NAMES:
    annotated = get_annotated(name, int(sys.argv[1]), seed=int(sys.argv[2]))
    regions.append((annotated.trace, *resolve_region(annotated, None, None)))
if sys.argv[3] == "python":
    ckernel.kernel_available = lambda: False
before = peak()
graphs = [build_depgraph(*region) for region in regions]
print(peak() - before)
"""


def _generation_rss_growth_mb(length, python_route):
    """Peak RSS growth of generating the three paper traces in a fresh
    process, on the kernel or (kernels disabled) the Python route."""
    env = dict(os.environ)
    if python_route:
        env["REPRO_KERNEL_DIR"] = ""
    return _probe_rss_growth_mb(_RSS_PROBE, env, length, PERF_SEED)


def _probe_rss_growth_mb(probe, env, *args):
    """Run *probe* in a fresh interpreter; its printed KiB, in MB."""
    proc = subprocess.run(
        [sys.executable, "-c", probe, *map(str, args)],
        env=env, capture_output=True, text=True, check=True,
    )
    return round(int(proc.stdout.split()[-1]) / 1024, 1)


def test_generate_speedup(results_dir, monkeypatch):
    """Trace generation on the compiled kernel vs the Python generators.

    The three paper traces at ``REPRO_TRACE_LEN`` on each route must be
    byte-identical, and the kernel must hold 5x even on CI smoke
    traces (kind "generate").  Peak RSS growth is read in fresh
    processes, one per route.
    """
    from repro.trace.trace import COLUMNS
    from repro.workloads import PAPER_WORKLOADS, ckernel, generate_trace

    if not ckernel.kernel_available():
        pytest.skip(f"no compiled generation kernel: {ckernel.kernel_error()}")
    length = int(os.environ.get("REPRO_TRACE_LEN", "400000"))

    def on_kernel(name):
        return generate_trace(name, length, seed=PERF_SEED)

    def on_python(name):
        with monkeypatch.context() as patch:
            patch.setattr(ckernel, "generate", lambda *args: None)
            return generate_trace(name, length, seed=PERF_SEED)

    per_workload = {}
    total_python = 0.0
    total_kernel = 0.0
    for name in PAPER_WORKLOADS:
        got, want = on_kernel(name), on_python(name)
        for column, _ in COLUMNS:
            assert getattr(got, column).dtype == getattr(want, column).dtype
            assert (getattr(got, column).tobytes()
                    == getattr(want, column).tobytes()), (name, column)
        t_python = _best_of(on_python, name, reps=2)
        t_kernel = _best_of(on_kernel, name, reps=3)
        per_workload[name] = {
            "seconds": round(t_kernel, 6),
            "python_seconds": round(t_python, 6),
            "speedup": round(t_python / t_kernel, 3),
        }
        total_python += t_python
        total_kernel += t_kernel
    speedup = total_python / total_kernel
    _append_record("generate", {
        "trace_len": length,
        "seed": PERF_SEED,
        "cpu_count": os.cpu_count() or 1,
        "workloads": per_workload,
        "python_total_seconds": round(total_python, 6),
        "kernel_total_seconds": round(total_kernel, 6),
        "speedup_vs_python": round(speedup, 3),
        "peak_rss_growth_mb": {
            "kernel": _generation_rss_growth_mb(length, python_route=False),
            "python": _generation_rss_growth_mb(length, python_route=True),
        },
    })
    print(f"\ntrace generation (3 paper traces): {speedup:.2f}x vs the"
          " Python generators")
    assert speedup >= 5.0


def test_depgraph_speedup(results_dir):
    """Renaming on the compiled kernel vs the Python loop.

    The dependence graph of each fixed workload's measured region on
    each route must be bit-identical, and the kernel must hold 5x even
    on CI smoke traces (kind "depgraph").  Peak RSS growth is read in
    fresh processes, one per route.
    """
    import numpy as np

    from repro.core.depgraph import DepGraph, rename_region
    from repro.core.mlpsim import resolve_region
    from repro.trace import ckernel

    if not ckernel.kernel_available():
        pytest.skip(f"no compiled annotation kernel: {ckernel.kernel_error()}")

    def on_kernel(trace, start, stop):
        return DepGraph(start, stop, ckernel.run_rename(trace, start, stop))

    def on_python(trace, start, stop):
        return DepGraph(start, stop, rename_region(trace, start, stop))

    per_workload = {}
    total_python = 0.0
    total_kernel = 0.0
    workloads = _fixed_workloads()
    for name, annotated in workloads:
        region = (annotated.trace, *resolve_region(annotated, None, None))
        got, want = on_kernel(*region), on_python(*region)
        assert got.columns.dtype == want.columns.dtype == np.int32
        assert got.columns.tobytes() == want.columns.tobytes(), name
        t_python = _best_of(on_python, *region, reps=2)
        t_kernel = _best_of(on_kernel, *region, reps=5)
        per_workload[name] = {
            "region": list(region[1:]),
            "seconds": round(t_kernel, 6),
            "python_seconds": round(t_python, 6),
            "speedup": round(t_python / t_kernel, 3),
        }
        total_python += t_python
        total_kernel += t_kernel
    speedup = total_python / total_kernel
    length = len(workloads[0][1].trace)
    _append_record("depgraph", {
        "trace_len": length,
        "seed": PERF_SEED,
        "cpu_count": os.cpu_count() or 1,
        "workloads": per_workload,
        "python_total_seconds": round(total_python, 6),
        "kernel_total_seconds": round(total_kernel, 6),
        "speedup_vs_python": round(speedup, 3),
        "peak_rss_growth_mb": {
            route: _probe_rss_growth_mb(_DEPGRAPH_RSS_PROBE, os.environ,
                                        length, PERF_SEED, route)
            for route in ("kernel", "python")
        },
    })
    print(f"\ndependence graphs (3 measured regions): {speedup:.2f}x vs"
          " the Python loop")
    assert speedup >= 5.0


def test_sweep_scaling_curve(results_dir):
    """Scaling-vs-jobs curve of the batched sweep (kind "sweep_scaling").

    With the auto serial cutover, ``jobs=N`` on a small grid or a
    single-core box routes to the serial backend, so no point of the
    curve may fall meaningfully below 1.0x — per-core scaling stays
    >=0.8 everywhere, which is the acceptance floor recorded here.
    """
    from repro.analysis.sweep import sweep

    name, annotated = _fixed_workloads()[0]
    machines = _machines()
    sweep(annotated, machines)  # warm plans, kernel, memos
    cpus = os.cpu_count() or 1
    baseline = _best_of(sweep, annotated, machines, jobs=1, reps=2)
    curve = []
    for jobs in SCALING_JOBS:
        seconds = _best_of(sweep, annotated, machines, jobs=jobs, reps=2)
        scaling = baseline / seconds
        curve.append({
            "jobs": jobs,
            "seconds": round(seconds, 6),
            "scaling": round(scaling, 3),
            "per_core": round(scaling / min(jobs, cpus), 3),
        })
    _append_record("sweep_scaling", {
        "trace_len": len(annotated.trace),
        "workload": name,
        "configs": len(machines),
        "cpu_count": cpus,
        "engine": "auto",
        "baseline_seconds": round(baseline, 6),
        "curve": curve,
    })
    print("\nsweep scaling curve: " + ", ".join(
        f"jobs={p['jobs']}: {p['scaling']:.2f}x" for p in curve
    ))
    for point in curve:
        # Acceptance floor: >=0.8 per core.  The serial cutover makes
        # this hold even on one CPU, where a pool would otherwise lose
        # to serial outright (the pre-cutover records show 0.86x).
        assert point["per_core"] >= 0.8, point


#: The Table 3 validation grid the cyclesim grid benchmark fans out.
CYCLESIM_GRID = tuple(
    (f"{size}{letter}/p{latency}", size, letter, latency)
    for size in (32, 64, 128)
    for letter in "ABC"
    for latency in (200, 500, 1000)
)


def _cyclesim_pairs():
    from repro.core.config import MachineConfig
    from repro.cyclesim import CycleSimConfig

    return [
        (label, CycleSimConfig.from_machine(
            MachineConfig.named(f"{size}{letter}"), miss_penalty=latency,
        ))
        for label, size, letter, latency in CYCLESIM_GRID
    ]


def test_cyclesim_single_run_speed(results_dir):
    """Time the optimized cycle simulator vs. its frozen reference.

    One 64C/500-cycle run per workload; the record (kind "cyclesim")
    notes whether the compiled kernel ran — without it ``run_cyclesim``
    is the reference itself.
    """
    import dataclasses

    from repro.core.config import MachineConfig
    from repro.cyclesim import CycleSimConfig, run_cyclesim
    from repro.cyclesim.ckernel import kernel_available, kernel_error
    from repro.cyclesim.simulator_reference import (
        run_cyclesim as run_reference,
    )

    config = CycleSimConfig.from_machine(
        MachineConfig.named("64C"), miss_penalty=500
    )
    per_workload = {}
    total_new = 0.0
    total_ref = 0.0
    total_insts = 0
    for name, annotated in _fixed_workloads():
        fast = run_cyclesim(annotated, config)  # warm plan + kernel
        oracle = run_reference(annotated, config)
        assert dataclasses.asdict(fast) == dataclasses.asdict(oracle), name
        t_new = _best_of(run_cyclesim, annotated, config)
        t_ref = _best_of(run_reference, annotated, config, reps=2)
        per_workload[name] = {
            "instructions": fast.instructions,
            "seconds": round(t_new, 6),
            "reference_seconds": round(t_ref, 6),
            "speedup": round(t_ref / t_new, 3),
            "insts_per_sec": round(fast.instructions / t_new),
        }
        total_new += t_new
        total_ref += t_ref
        total_insts += fast.instructions
    speedup = total_ref / total_new
    compiled = kernel_available()
    _append_record("cyclesim", {
        "trace_len": len(_fixed_workloads()[0][1].trace),
        "machine": "64C",
        "miss_penalty": 500,
        "seed": PERF_SEED,
        "cpu_count": os.cpu_count() or 1,
        "compiled_kernel": compiled,
        "workloads": per_workload,
        "total_seconds": round(total_new, 6),
        "reference_total_seconds": round(total_ref, 6),
        "speedup": round(speedup, 3),
        "insts_per_sec": round(total_insts / total_new),
    })
    print(f"\ncyclesim speedup vs reference: {speedup:.2f}x "
          f"({total_insts / total_new:,.0f} insts/sec,"
          f" kernel={compiled})")
    # CI perf-smoke gate: the compiled tier must hold >=3x even on
    # short smoke traces (the >=5x acceptance at the default 400k
    # length is recorded in the JSON trajectory).
    if not compiled:
        pytest.skip(f"no compiled cyclesim kernel: {kernel_error()}")
    assert speedup >= 3.0


def test_cyclesim_grid_supervised_speedup(results_dir, tmp_path):
    """The Table 3 grid through the supervised sweep backend.

    27 configurations share one published cycle plan; the baseline is
    the frozen reference replayed per config.  Supervision (journal,
    retry bookkeeping, worker management) rides along, so this record
    (kind "cyclesim_grid") prices the whole production path, not a
    bare kernel loop.
    """
    from repro.analysis.sweep import sweep_cyclesim
    from repro.cyclesim.ckernel import kernel_available, kernel_error
    from repro.cyclesim.simulator_reference import (
        run_cyclesim as run_reference,
    )

    name, annotated = _fixed_workloads()[0]
    pairs = _cyclesim_pairs()
    journal = tmp_path / "cyclesim_grid.journal"

    def supervised_grid():
        return sweep_cyclesim(
            annotated, pairs, workload=name,
            supervise={"journal_path": journal, "resume": False},
        )

    swept = supervised_grid()  # warm plan + kernel, sanity-check grid
    assert swept.complete and len(swept.results) == len(pairs)
    sample_label, sample_config = pairs[0]
    oracle = run_reference(annotated, sample_config, workload=name)
    assert swept.results[sample_label].cycles == oracle.cycles

    t_grid = _best_of(supervised_grid, reps=2)

    def reference_grid():
        for _, config in pairs:
            run_reference(annotated, config, workload=name)

    t_ref = _best_of(reference_grid, reps=1)
    speedup = t_ref / t_grid
    compiled = kernel_available()
    _append_record("cyclesim_grid", {
        "trace_len": len(annotated.trace),
        "workload": name,
        "configs": len(pairs),
        "seed": PERF_SEED,
        "cpu_count": os.cpu_count() or 1,
        "compiled_kernel": compiled,
        "supervised": True,
        "grid_seconds": round(t_grid, 6),
        "reference_grid_seconds": round(t_ref, 6),
        "speedup_vs_reference": round(speedup, 3),
        "per_config_ms": round(1000 * t_grid / len(pairs), 3),
    })
    print(f"\ncyclesim grid ({len(pairs)} configs, supervised):"
          f" {speedup:.2f}x vs reference"
          f" ({1000 * t_grid / len(pairs):.2f} ms/config,"
          f" kernel={compiled})")
    # The >=10x grid-level acceptance at the default 400k length lives
    # in the JSON trajectory; the smoke gate only binds the compiled
    # tier, where batching must beat the per-config replay outright.
    if not compiled:
        pytest.skip(f"no compiled cyclesim kernel: {kernel_error()}")
    assert speedup >= 3.0


#: Calls per side of the kernel-thread gate; the best one counts.
#: Single samples of Table 3's grid at 100k on a shared 2-vCPU host
#: ranged 1.37x-2.23x.
THREAD_REPS = 5

#: The cyclesim grid must gain this much on two or more usable CPUs.
THREAD_FLOOR = 1.3


def _comparable(results):
    """``{label: fields}`` of a driver's results, inhibitors included."""
    import dataclasses

    out = {}
    for label, result in results.items():
        fields = dataclasses.asdict(result)
        if hasattr(result, "inhibitors"):
            fields["inhibitors"] = result.inhibitors.as_dict()
        out[label] = fields
    return out


def test_kernel_threads(results_dir, monkeypatch):
    """Both kernel drivers on one thread vs. on every usable CPU.

    Table 3's cyclesim grid (``CYCLESIM_GRID``) and the paper's
    30-config MLPsim grid (``GRID_SPECS``: one mask group, one
    ``run_plan`` call) on the fixed database trace, the two sides
    alternating, best of ``THREAD_REPS`` calls each (kind
    "kernel_threads").  Results must be bit-identical and in label
    order, and with two or more usable CPUs the cyclesim grid must gain
    ``THREAD_FLOOR``.
    """
    import repro.cbuild as cbuild
    from repro.core import ckernel
    from repro.core.columnar import plan_for
    from repro.core.config import MachineConfig
    from repro.cyclesim import ckernel as cycle_ckernel
    from repro.cyclesim.plan import cycle_plan_for

    for kernel in (ckernel, cycle_ckernel):
        if not kernel.kernel_available():
            pytest.skip(f"no compiled kernel: {kernel.kernel_error()}")
    cpus = cbuild.effective_cpus()
    if cpus < 2:
        pytest.skip("one usable CPU: a batch has nothing to split across")
    name, annotated = _fixed_workloads()[0]
    grid = [(spec, MachineConfig.named(spec)) for spec in GRID_SPECS]
    batches = {
        "cyclesim": (cycle_ckernel.run_cycle_plan,
                     cycle_plan_for(annotated), _cyclesim_pairs()),
        "mlpsim": (ckernel.run_plan, plan_for(annotated, grid[0][1]), grid),
    }
    record = {
        "trace_len": len(annotated.trace),
        "workload": name,
        "seed": PERF_SEED,
        "usable_cpus": cpus,
        "cpu_count": os.cpu_count() or 1,
        "reps": THREAD_REPS,
    }
    for kind, (driver, plan, pairs) in batches.items():
        best = {}
        results = {}
        for _ in range(THREAD_REPS):
            for threads in (1, cpus):
                monkeypatch.setattr(cbuild, "effective_cpus",
                                    lambda threads=threads: threads)
                started = time.perf_counter()
                results[threads] = driver(plan, pairs, name)
                elapsed = time.perf_counter() - started
                best[threads] = min(best.get(threads, elapsed), elapsed)
        assert list(results[cpus]) == [label for label, _ in pairs]
        assert _comparable(results[cpus]) == _comparable(results[1]), kind
        record[kind] = {
            "configs": len(pairs),
            "one_thread_seconds": round(best[1], 6),
            "threaded_seconds": round(best[cpus], 6),
            "speedup": round(best[1] / best[cpus], 3),
        }
    _append_record("kernel_threads", record)
    print(f"\nkernel threads on {cpus} usable cpus: cyclesim"
          f" {record['cyclesim']['speedup']:.2f}x, mlpsim"
          f" {record['mlpsim']['speedup']:.2f}x")
    assert record["cyclesim"]["speedup"] >= THREAD_FLOOR, record


def test_bench_history_is_readable(bench_history):
    """Every accumulated record survives the backfill-tolerant reader.

    Schema-1 records predate ``git_rev``/``bench_schema`` stamping;
    the reader backfills both, so trajectory consumers can sort and
    group without per-record guards.
    """
    for record in bench_history:
        assert "kind" in record
        assert record["bench_schema"] >= 1
        assert "git_rev" in record  # may be None for schema-1 records
        if record["bench_schema"] >= BENCH_SCHEMA:
            assert record["git_rev"] is None or len(record["git_rev"]) >= 7
        assert record.get("dirty") in (None, True, False)


@pytest.fixture(scope="module", autouse=True)
def _report_bench_path():
    yield
    if BENCH_PATH.exists():
        print(f"\nperf trajectory: {BENCH_PATH}")
