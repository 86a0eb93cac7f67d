"""End-to-end benchmark: the runs a user of this reproduction waits for.

Four workloads, each run in fresh subprocesses (see README.md):

``exhibit_cold``     ``repro exhibit all`` with an empty annotation cache;
``exhibit_warm``     the same with the cache filled during set-up;
``grid_wide``        a 240-config grid per trace through the batched engine;
``sweep_journaled``  the paper's 30-config grid per trace, supervised and
                     journaled.

Usage::

    python3 benchmarks/e2e/bench.py [--workload W] [--seed S] [--seconds N]
                                    [--trace 0|1] [--spans FILE] [--out FILE]
    python3 benchmarks/e2e/bench.py --compare A.jsonl B.jsonl

Every metric is printed by name with its unit and sample count.  The
last line of stdout is one JSON object: the end-to-end metrics, or with
``--trace 1`` the per-layer metrics of an extra traced run.  Outputs are
checked against ``golden.json`` and against independent engines; a
mismatch is a failed operation and makes the exit code nonzero.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = ROOT / ".bench_build" / "e2e"
KERNEL_DIR = WORK / "kernels"

sys.path.insert(0, str(HERE))

import host  # noqa: E402
from spans import (  # noqa: E402
    layer_metrics,
    read_jsonl,
    simulated_instructions,
    write_jsonl,
)

#: Trace length per workload.  The sweeps run at the exhibits' default
#: 400k; the exhibit workloads run at 100k so that one cold
#: ``exhibit all`` (~30 s at 400k) fits the per-run time budget.
TRACE_LEN = {
    "exhibit_cold": 100_000,
    "exhibit_warm": 100_000,
    "grid_wide": 400_000,
    "sweep_journaled": 400_000,
}
WORKLOADS = tuple(TRACE_LEN)

#: Set-ups per run; setup_s is their median.
SETUP_SAMPLES = 3

#: ``run_exhibit`` takes no seed: exhibits always use the default one.
EXHIBIT_SEED = 1234

#: Settings that would change what a child process runs.
SCRUBBED_ENV = ("REPRO_CACHE_DIR", "REPRO_JOBS", "REPRO_TRACE_LEN",
                "REPRO_PROCESS_FAULTS", "REPRO_KERNEL_DIR", "PYTHONPATH")

#: Longest a single child process may run before it is killed.
CHILD_TIMEOUT_S = 120


class BenchError(Exception):
    """A child process failed; no result can be reported."""


@dataclasses.dataclass
class Child:
    """What one child process left behind.

    ``scale`` converts its timings to reference-host seconds, from the
    host references taken just before and after it.
    """

    report: dict
    spans: list
    stdout: str
    wall: float
    ref_before: float
    scale: float


class Run:
    """Scratch space and child processes for one workload run."""

    def __init__(self, workload, seed, trace_len, run_dir):
        self.workload = workload
        self.seed = seed
        self.trace_len = trace_len
        self.run_dir = run_dir
        self.count = 0
        self.ref = None

    def child(self, mode, cache_dir, **options):
        """Run child.py once between two host reference measurements.

        Children run back to back, so one child's closing reference is
        the next one's opening reference.
        """
        self.count += 1
        stem = self.run_dir / f"{mode}-{self.count}"
        command = [
            sys.executable, str(HERE / "child.py"), mode,
            "--workload", self.workload, "--seed", str(self.seed),
            "--trace-len", str(self.trace_len),
            "--run-dir", str(self.run_dir),
            "--report", f"{stem}.json", "--spans", f"{stem}.spans.jsonl",
        ]
        for key, value in options.items():
            command += [f"--{key}", str(value)]
        env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
        env.update(PYTHONPATH=str(ROOT / "src"),
                   REPRO_KERNEL_DIR=str(KERNEL_DIR),
                   REPRO_CACHE_DIR=str(cache_dir),
                   TMPDIR=str(self.run_dir))
        ref_before = self.ref or host.reference_seconds()
        started = time.perf_counter()
        with open(f"{stem}.out", "w") as out, open(f"{stem}.err", "w") as err:
            # Its own session, so a kill also reaches its pool workers.
            proc = subprocess.Popen(command, stdout=out, stderr=err, env=env,
                                    start_new_session=True)
            try:
                proc.wait(timeout=CHILD_TIMEOUT_S)
            except BaseException as error:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                if isinstance(error, subprocess.TimeoutExpired):
                    raise BenchError(
                        f"{mode} child exceeded {CHILD_TIMEOUT_S}s") from None
                raise
        wall = time.perf_counter() - started
        self.ref = host.reference_seconds()
        if proc.returncode != 0:
            tail = Path(f"{stem}.err").read_text()[-2000:]
            raise BenchError(f"{mode} child exited {proc.returncode}:\n{tail}")
        return Child(
            report=json.loads(Path(f"{stem}.json").read_text()),
            spans=read_jsonl(f"{stem}.spans.jsonl"),
            stdout=Path(f"{stem}.out").read_text(),
            wall=wall,
            ref_before=ref_before,
            scale=host.scale(ref_before, self.ref),
        )


def exhibit_digests(text, names):
    """SHA-256 of each exhibit's ``format()`` text in ``exhibit all`` output.

    The CLI prints, in run order, each exhibit's text (which opens with an
    ``== ... ==`` header line) and a blank line, then a summary whose
    timings change every run; the summary is left out.  A failed exhibit,
    or output that does not split into one block per name, maps to
    ``None``.
    """
    starts = [match.start() for match in re.finditer(r"^== ", text, re.M)
              if text[max(0, match.start() - 2):match.start()] in ("", "\n\n")]
    blocks = [text[a:b] for a, b in zip(starts, starts[1:])]
    if len(blocks) != len(names):
        return dict.fromkeys(names)
    return {
        name: None if block.startswith(f"== {name}: FAILED (")
        else hashlib.sha256(block[:-2].encode()).hexdigest()
        for name, block in zip(names, blocks)
    }


def exhibit_workload(run, options):
    """Set up, then time whole ``exhibit all`` processes.

    One operation is one ``exhibit all`` command; its simulated
    instructions are counted from the engine spans of that process.
    """
    warm = run.workload == "exhibit_warm"
    measured = Samples()
    for index in range(SETUP_SAMPLES):
        cache = run.run_dir / f"cache-setup-{index}"
        child = run.child("setup", cache)
        measured.setups.append(child.report["setup_s"] * child.scale)
    warm_cache = cache

    started = time.perf_counter()
    while _more(measured.walls, started, options):
        cache = warm_cache if warm else run.run_dir / f"cache-run-{run.count}"
        child = run.child("exhibit", cache)
        if not warm:
            shutil.rmtree(cache, ignore_errors=True)
        measured.add(child.wall, [child.wall], child.scale,
                     simulated_instructions(child.spans))
        measured.rss.append(child.report["rss_mb"])
        measured.digests.append(
            exhibit_digests(child.stdout, _exhibit_names(child.spans)))

    if options.trace:
        cache = warm_cache if warm else run.run_dir / "cache-traced"
        child = run.child("exhibit", cache, trace=1)
        measured.digests.append(
            exhibit_digests(child.stdout, _exhibit_names(child.spans)))
        measured.layers = (child.spans, child.wall * child.scale
                           / statistics.median(measured.walls))
    return measured


def _exhibit_names(spans):
    """Exhibit names in run order, from the ``run_exhibit`` spans."""
    prefix = "experiments.exhibit."
    return [s["name"][len(prefix):] for s in spans
            if s["name"].startswith(prefix)]


def _more(done, started, options):
    """Whether a timed loop runs again: ``--reps`` times, or for
    ``--seconds`` (always at least once)."""
    if options.reps:
        return len(done) < options.reps
    return not done or time.perf_counter() - started < options.seconds


def sweep_workload(run, options):
    """Set up twice alone, then once more in the process that times passes.

    That process brackets its set-up and each pass with host references.
    """
    measured = Samples()
    for _ in range(SETUP_SAMPLES - 1):
        child = run.child("setup", run.run_dir / "cache")
        measured.setups.append(child.report["setup_s"] * child.scale)
    child = run.child("sweep", run.run_dir / "cache",
                      seconds=options.seconds, reps=options.reps,
                      trace=options.trace)
    report = child.report
    measured.setups.append(report["setup_s"] * host.scale(
        child.ref_before, report["setup_ref"]))
    refs = report["refs"]
    for index, done in enumerate(report["passes"]):
        measured.add(done["wall"], done["ops"],
                     host.scale(refs[index], refs[index + 1]),
                     done["instructions"])
    measured.rss.append(report["rss_mb"])
    passes = report["passes"] + report["traced"]
    measured.digests = [p["digests"] for p in passes]
    measured.per_item = passes[0]["attempted"] // len(passes[0]["digests"])
    measured.failed = sum(p["failed"] for p in passes)
    if options.trace:
        untraced = statistics.median(p["wall"] for p in report["passes"])
        measured.layers = (child.spans,
                           report["traced"][0]["wall"] / untraced)
    return measured


@dataclasses.dataclass
class Samples:
    """Measurements of one workload run, in reference-host seconds.

    ``slowdowns`` holds each timed sample's host slowdown (see host.py).
    ``digests`` holds one ``{item: sha256}`` per checked run; each item
    stands for ``per_item`` operations.  ``failed`` counts operations the
    child process already found wrong.  ``layers`` is ``(spans, trace
    overhead)`` of a traced run.
    """

    setups: list = dataclasses.field(default_factory=list)
    walls: list = dataclasses.field(default_factory=list)
    ops: list = dataclasses.field(default_factory=list)
    minst: list = dataclasses.field(default_factory=list)
    rss: list = dataclasses.field(default_factory=list)
    slowdowns: list = dataclasses.field(default_factory=list)
    digests: list = dataclasses.field(default_factory=list)
    per_item: int = 1
    failed: int = 0
    layers: tuple = None

    def add(self, wall, ops, scale, instructions):
        """One timed sample in raw seconds, with its host scale."""
        self.walls.append(wall * scale)
        self.ops += [op * scale for op in ops]
        self.minst.append(instructions / (wall * scale) / 1e6)
        self.slowdowns.append(1 / scale)


def check_digests(digests, expected, per_item):
    """Failed operations among *digests* (one dict per run).

    Against golden digests when this trace length and seed have them;
    otherwise every run must agree with the first.  A mismatching item
    fails all *per_item* operations it stands for.
    """
    reference = expected or digests[0]
    return per_item * sum(
        run_digests.get(item) is None or run_digests[item] != value
        for run_digests in digests
        for item, value in reference.items()
    )


def measure(workload, seed, options, golden, spec):
    """Run one workload; returns its result record and traced spans."""
    trace_len = options.trace_len or TRACE_LEN[workload]
    exhibits = workload.startswith("exhibit")
    input_seed = EXHIBIT_SEED if exhibits else seed
    run_dir = WORK / f"run-{os.getpid()}-{workload}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    KERNEL_DIR.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(workload, input_seed, trace_len, run_dir)
        measured = (exhibit_workload if exhibits else sweep_workload)(
            run, options)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    group = "exhibits" if exhibits else workload
    key = f"{trace_len}:{input_seed}"
    expected = golden.get(group, {}).get(key)
    if options.update_golden:
        if None in measured.digests[0].values() or measured.failed:
            raise BenchError("refusing to record digests of a failing run")
        golden.setdefault(group, {})[key] = expected = measured.digests[0]
    items = len(expected or measured.digests[0])
    attempted = items * measured.per_item * len(measured.digests)
    failed = measured.failed + check_digests(
        measured.digests, expected, measured.per_item)

    samples = {
        "setup_s": measured.setups,
        "wall_s": measured.walls,
        "op_p50_ms": [1000 * op for op in measured.ops],
        "sim_minst_per_s": measured.minst,
        "peak_rss_mb": measured.rss,
    }
    values = {name: statistics.median(v) for name, v in samples.items()}
    counts = {name: len(v) for name, v in samples.items()}
    slowdown = statistics.median(measured.slowdowns)
    spans = None
    if measured.layers is not None:
        spans, overhead = measured.layers
        names = [m["name"] for m in spec["per_layer"]]
        values.update(layer_metrics(spans, names, {
            "harness.trace_overhead": overhead,
            "harness.host_slowdown": slowdown,
        }))
    return {
        "workload": workload,
        "seed": seed,
        "trace": options.trace,
        "trace_len": trace_len,
        "golden_checked": expected is not None,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "host_slowdown": slowdown,
        "values": values,
        "counts": {name: counts.get(name, 1) for name in values},
        "samples": dict(samples, host_slowdown=measured.slowdowns),
    }, spans


def report_lines(record, spec):
    """Human-readable lines: every metric of the spec with unit and n."""
    lines = []
    metrics = list(spec["end_to_end"])
    if record["trace"]:
        metrics += spec["per_layer"]
    for metric in metrics:
        name = metric["name"]
        lines.append(f"{record['workload']:<16} {name:<48}"
                     f" {record['values'][name]:>14.6g} {metric['unit']:<8}"
                     f" n={record['counts'][name]}")
    lines.append(f"{record['workload']:<16} correct={record['correct']}"
                 f" attempted={record['attempted']}"
                 f" failed={record['failed']}"
                 f" error_rate={record['failed'] / max(1, record['attempted']):.4g}"
                 f" host_slowdown={record['host_slowdown']:.3f}"
                 f" golden={'checked' if record['golden_checked'] else 'none'}")
    return lines


def result_metrics(record, spec, prefix=""):
    """The contract's ``metrics`` object for one record."""
    kind = "per_layer" if record["trace"] else "end_to_end"
    return {
        prefix + m["name"]: {"value": record["values"][m["name"]],
                             "unit": m["unit"]}
        for m in spec[kind]
    }


def git_rev():
    """Commit being measured: ``GIT_COMMIT``, else ``git rev-parse``."""
    if os.environ.get("GIT_COMMIT"):
        return os.environ["GIT_COMMIT"]
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def quartiles(values):
    """``(q1, median, q3)``; one value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(before, after, better, bound):
    """better / worse / unchanged / unresolved for ``{seed: value}`` maps.

    A metric whose relative quartile spread exceeds its bound is
    unresolved unless every run of one side beats every run of the other.
    A gain needs nine tenths of the seed-paired runs to win and a median
    shift larger than the first side's quartile spread; a regression is a
    median worse by more than the bound.  Per-layer metrics have no
    bound and use the gain rule both ways.
    """
    sign = 1 if better == "higher" else -1
    a = [sign * v for v in before.values()]
    b = [sign * v for v in after.values()]
    qa1, ma, qa3 = quartiles(a)
    qb1, mb, qb3 = quartiles(b)
    if ma == mb:
        return "unchanged"
    spread = max((qa3 - qa1) / abs(ma) if ma else 0.0,
                 (qb3 - qb1) / abs(mb) if mb else 0.0)
    if bound is not None and spread > bound:
        if min(b) > max(a):
            return "better"
        if max(b) < min(a):
            return "worse"
        return "unresolved"
    pairs = [(before[s], after[s]) for s in before if s in after]
    shift = abs(mb - ma) > qa3 - qa1
    wins = sum(sign * (y - x) > 0 for x, y in pairs)
    losses = sum(sign * (y - x) < 0 for x, y in pairs)
    if pairs and shift and wins >= 0.9 * len(pairs):
        return "better"
    if bound is None:
        if pairs and shift and losses >= 0.9 * len(pairs):
            return "worse"
        return "unchanged"
    if ma and (ma - mb) / abs(ma) > bound:
        return "worse"
    return "unchanged"


def compare(path_a, path_b, spec):
    """Print medians, quartiles and a verdict per workload and metric."""
    def load(path):
        """``{(workload, metric): {(seed, repeat): value}}``."""
        grouped = {}
        for line in Path(path).read_text().splitlines():
            if not line.strip():
                continue
            record = json.loads(line)
            for name, metric in record["metrics"].items():
                runs = grouped.setdefault((record["workload"], name), {})
                repeat = sum(seed == record["seed"] for seed, _ in runs)
                runs[(record["seed"], repeat)] = metric["value"]
        return grouped

    a, b = load(path_a), load(path_b)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"{'workload':<16} {'metric':<44} {'A q1/median/q3':>32}"
          f" {'B q1/median/q3':>32}  verdict")
    for workload, name in sorted(set(a) & set(b)):
        metric = metrics.get(name)
        if metric is None:
            continue
        before, after = a[(workload, name)], b[(workload, name)]
        cells = ["/".join(f"{q:.4g}" for q in quartiles(list(v.values())))
                 for v in (before, after)]
        print(f"{workload:<16} {name:<44} {cells[0]:>32} {cells[1]:>32}  "
              + verdict(before, after, metric["better"], metric.get("bound")))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1234,
                        help="trace seed of the sweep workloads")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per workload"
                        " (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add a traced run and report per-layer metrics")
    parser.add_argument("--spans", help="write the traced spans here (JSONL)")
    parser.add_argument("--out", help="append one JSON record per workload")
    parser.add_argument("--trace-len", type=int,
                        help="trace length for every workload (smoke runs)")
    parser.add_argument("--reps", type=int, default=0,
                        help="exactly this many timed runs, ignoring --seconds")
    parser.add_argument("--golden", default=str(HERE / "golden.json"),
                        help="golden digest file")
    parser.add_argument("--update-golden", action="store_true",
                        help="record this run's digests as golden")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two --out files and exit")
    options = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if options.compare:
        return compare(*options.compare, spec)
    if options.seconds is None:
        options.seconds = spec["run_seconds"]
    golden = json.loads(Path(options.golden).read_text())

    workloads = [options.workload] if options.workload else list(WORKLOADS)
    records = []
    all_spans = []
    for workload in workloads:
        try:
            record, spans = measure(workload, options.seed, options, golden,
                                    spec)
        except BenchError as error:
            print(f"error: {workload}: {error}", file=sys.stderr)
            return 1
        records.append(record)
        for span in spans or ():
            all_spans.append(dict(span, workload=workload))
        for line in report_lines(record, spec):
            print(line, flush=True)

    if options.update_golden:
        Path(options.golden).write_text(
            json.dumps(golden, indent=1, sort_keys=True) + "\n")
    if options.spans:
        write_jsonl(all_spans, options.spans)
    if options.out:
        rev = git_rev()
        with open(options.out, "a") as handle:
            for record in records:
                line = dict(record, git_rev=rev,
                            metrics=result_metrics(record, spec))
                del line["values"], line["counts"]
                handle.write(json.dumps(line) + "\n")

    prefix = len(records) > 1
    metrics = {}
    for record in records:
        metrics.update(result_metrics(
            record, spec, f"{record['workload']}." if prefix else ""))
    correct = all(r["correct"] for r in records)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
