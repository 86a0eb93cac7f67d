"""Command-line interface: ``python -m repro <command>``.

Subcommands:

* ``generate``  — synthesise a workload trace and save it as ``.npz``;
* ``stats``     — print trace statistics (mix, misses, clustering);
* ``calibrate`` — compare a workload's measured characteristics against
  the paper's published numbers;
* ``simulate``  — run MLPsim (or an in-order machine) over a workload or
  saved trace and print MLP, inhibitors and store MLP;
* ``cyclesim``  — run the cycle-accurate simulator and print CPI/MLP;
* ``sweep``     — run a machine-config grid under crash-safe
  supervision: journaled checkpoint/resume, per-config timeouts,
  retry with backoff, dead-letter quarantine (see
  ``docs/ROBUSTNESS.md``);
* ``exhibit``   — regenerate one (or all) of the paper's tables/figures;
* ``ablation``  — run one of the ablation studies;
* ``lint``      — statically check the repository invariants
  (reprolint; see ``docs/STATIC_ANALYSIS.md``).

Examples::

    python -m repro simulate database --machine 64C --machine RAE
    python -m repro exhibit table3
    python -m repro generate specweb99 -n 200000 -o web.npz
    python -m repro simulate --trace web.npz --machine 128E
    python -m repro sweep database -n 60000 --jobs 4 \\
        --journal sweep.jsonl --config-timeout 120 --max-retries 2
    python -m repro sweep database -n 60000 --journal sweep.jsonl --resume
    python -m repro ablation runahead_distance
"""

import argparse
import sys

from repro.core.config import MachineConfig
from repro.robustness.errors import ConfigError, ReproError


def _parse_machine(spec):
    """Parse a machine spec like ``64C``, ``64D/rob256`` or ``RAE``.

    Comma-separated ``key=value`` options follow after a colon, e.g.
    ``64C:store_buffer=8,max_outstanding=16`` or ``RAE:max_runahead=512``.

    Raises
    ------
    ConfigError
        On any malformed spec — unparseable option values, unknown
        option names, bad ``/rob`` suffixes, unknown machine names.
        The CLI turns this into a one-line error with exit code 2.
    """
    original = spec
    options = {}
    if ":" in spec:
        spec, raw = spec.split(":", 1)
        for item in raw.split(","):
            key, _, value = item.partition("=")
            if not key or not value:
                raise ConfigError(
                    f"bad machine spec {original!r}: malformed option"
                    f" {item!r} (expected key=value)"
                )
            if value in ("true", "True"):
                parsed = True
            elif value in ("false", "False"):
                parsed = False
            else:
                try:
                    parsed = int(value)
                except ValueError:
                    try:
                        parsed = float(value)
                    except ValueError:
                        raise ConfigError(
                            f"bad machine spec {original!r}: option"
                            f" {key!r} has non-numeric value {value!r}"
                        ) from None
            options[key] = parsed
    if spec.upper() in ("RAE", "RUNAHEAD"):
        return MachineConfig.runahead_machine(**options)
    if spec.upper() in ("SOM", "STALL-ON-MISS", "SOU", "STALL-ON-USE"):
        raise ConfigError(
            "use --machine with an out-of-order spec; in-order machines"
            " are selected with --in-order"
        )
    if "/rob" in spec:
        base, rob = spec.split("/rob", 1)
        try:
            options["rob"] = int(rob)
        except ValueError:
            raise ConfigError(
                f"bad machine spec {original!r}: ROB suffix {rob!r} is"
                " not an integer"
            ) from None
        return MachineConfig.named(base, **options)
    return MachineConfig.named(spec, **options)


def _load_annotated(args):
    """Resolve the workload/trace arguments into an annotated trace."""
    from repro.trace.annotate import annotate
    from repro.trace.io import load_trace
    from repro.workloads import generate_trace

    if getattr(args, "trace", None):
        trace = load_trace(args.trace)
    else:
        trace = generate_trace(args.workload, args.length, seed=args.seed)
    return annotate(trace)


def _add_trace_arguments(parser, require_workload=True):
    parser.add_argument(
        "workload",
        nargs="?" if not require_workload else None,
        help="workload name (database / specjbb2000 / specweb99)",
    )
    parser.add_argument(
        "--trace", help="load a saved .npz trace instead of generating"
    )
    parser.add_argument(
        "-n", "--length", type=int, default=120_000,
        help="trace length in instructions (default 120000)",
    )
    parser.add_argument("--seed", type=int, default=1234)


def cmd_generate(args):
    """``repro generate``: synthesise and save a workload trace."""
    from repro.trace.io import save_trace
    from repro.workloads import generate_trace

    trace = generate_trace(args.workload, args.length, seed=args.seed)
    save_trace(trace, args.output)
    print(f"wrote {len(trace)} instructions to {args.output}")
    return 0


def cmd_stats(args):
    """``repro stats``: trace statistics and miss clustering."""
    from repro.analysis.clustering import clustering_curves
    from repro.trace.stats import compute_stats

    annotated = _load_annotated(args)
    stats = compute_stats(
        annotated.trace, dmiss_mask=annotated.dmiss, imiss_mask=annotated.imiss
    )
    print(stats.format())
    print()
    print(clustering_curves(annotated).format())
    return 0


def cmd_calibrate(args):
    """``repro calibrate``: measured vs published characteristics."""
    from repro.workloads.calibration import check_calibration

    annotated = _load_annotated(args)
    print(check_calibration(annotated.trace, annotated).format())
    return 0


def cmd_simulate(args):
    """``repro simulate``: MLPsim / in-order machines over a trace."""
    from repro.analysis.sweep import sweep
    from repro.core.inorder import (
        simulate_stall_on_miss,
        simulate_stall_on_use,
    )

    annotated = _load_annotated(args)
    results = []
    if args.in_order in ("stall-on-miss", "both"):
        results.append(simulate_stall_on_miss(annotated))
    if args.in_order in ("stall-on-use", "both"):
        results.append(simulate_stall_on_use(annotated))
    specs = args.machine or (["64C"] if not args.in_order else [])
    # Numbered labels: a spec may be given twice, and an error names them.
    grid = [(f"#{index} {spec}", _parse_machine(spec))
            for index, spec in enumerate(specs, 1)]
    results += sweep(annotated, grid, jobs=1).results.values()
    for result in results:
        print(result.summary())
        if args.inhibitors:
            breakdown = result.inhibitor_breakdown()
            parts = [
                f"{k.value}={v:.1%}" for k, v in breakdown.items() if v > 0.001
            ]
            print(f"    inhibitors: {', '.join(parts) or 'n/a'}")
        if args.store_mlp and result.store_accesses:
            print(
                f"    store MLP: {result.store_mlp:.3f}"
                f" ({result.store_accesses} off-chip stores)"
            )
    return 0


def cmd_cyclesim(args):
    """``repro cyclesim``: the cycle-accurate simulator."""
    from repro.cyclesim import CycleSimConfig, run_cyclesim

    annotated = _load_annotated(args)
    for spec in args.machine or ["64C"]:
        machine = _parse_machine(spec)
        config = CycleSimConfig.from_machine(
            machine, miss_penalty=args.latency, perfect_l2=args.perfect_l2
        )
        metrics = run_cyclesim(annotated, config)
        print(metrics.summary())
        if args.stack:
            print(f"    {metrics.format_cpi_stack()}")
    return 0


def cmd_sweep(args):
    """``repro sweep``: a config grid under crash-safe supervision.

    The grid is either the ``--machine`` specs or the cross product of
    ``--windows`` and ``--policies``.  With ``--journal`` every
    completion is checkpointed; ``--resume`` replays the journal and
    re-executes only unfinished configs.  Configurations that exhaust
    their retry budget are quarantined and reported at the end,
    fail-soft; the exit code is nonzero iff any config was quarantined.
    """
    from repro.analysis.parallel import resolve_jobs
    from repro.robustness.supervisor import SupervisorPolicy, supervised_sweep

    resolve_jobs(args.jobs)  # reject bad --jobs/REPRO_JOBS before any work
    if args.resume and not args.journal:
        raise ConfigError(
            "--resume needs --journal PATH to resume from",
            field="resume",
        )
    policy = SupervisorPolicy(
        max_retries=args.max_retries,
        config_timeout=args.config_timeout,
        backoff_base=args.backoff,
    )
    grid = _sweep_grid(args)
    annotated = _load_annotated(args)
    result = supervised_sweep(
        annotated,
        grid,
        seed=args.seed,
        jobs=args.jobs,
        journal_path=args.journal,
        resume=args.resume,
        policy=policy,
        progress=lambda label: print(f"  done: {label}"),
        engine=args.engine,
    )
    print(f"== sweep: {result.workload} ({len(grid)} configs)"
          f" [{args.engine} engine] ==")
    for label, config_result in result.results.items():
        print(f"  {label:<24} MLP={config_result.mlp:.3f}")
    if result.resumed:
        print(f"resumed {result.resumed} config(s) from the journal;"
              f" executed {result.executed}")
    if result.worker_replacements:
        print(f"replaced {result.worker_replacements} worker(s)"
              + (" and degraded to the serial backend"
                 if result.degraded_to_serial else ""))
    if result.quarantined:
        print(f"quarantined {len(result.quarantined)} config(s):")
        for line in result.quarantine_report().splitlines():
            print(f"  {line}")
    return 0 if result.complete else 1


def _sweep_grid(args):
    """Build the ``repro sweep`` grid: explicit specs or a cross."""
    if args.machine:
        return [(spec, _parse_machine(spec)) for spec in args.machine]
    try:
        windows = [int(w) for w in args.windows.split(",") if w.strip()]
    except ValueError:
        raise ConfigError(
            f"--windows must be comma-separated integers,"
            f" got {args.windows!r}",
            field="windows",
        ) from None
    policies = [p.strip().upper() for p in args.policies.split(",")
                if p.strip()]
    if not windows or not policies:
        raise ConfigError(
            "--windows and --policies must each name at least one value",
            field="windows",
        )
    return [
        (f"{window}{policy}", MachineConfig.named(f"{window}{policy}"))
        for window in windows
        for policy in policies
    ]


def cmd_exhibit(args):
    """``repro exhibit``: regenerate paper tables/figures, fail-soft.

    Every requested exhibit runs even if an earlier one fails or times
    out; a pass/fail summary prints at the end, and the exit code is
    nonzero iff any exhibit failed.
    """
    from repro.analysis.parallel import resolve_jobs
    from repro.experiments.runner import format_summary, run_exhibits

    # Validate worker counts up front: a bad --jobs or REPRO_JOBS must
    # exit 2 with a one-line message, not fail every exhibit in turn.
    resolve_jobs(args.jobs)

    def show(outcome):
        if outcome.ok:
            print(outcome.exhibit.format())
        else:
            print(f"== {outcome.name}: FAILED ({outcome.error}) ==")
        print()

    outcomes = run_exhibits(
        args.names, timeout=args.timeout, progress=show, jobs=args.jobs,
        trace_len=args.length,
    )
    print(format_summary(outcomes))
    return 0 if all(o.ok for o in outcomes) else 1


def cmd_ablation(args):
    """``repro ablation``: run the ablation studies."""
    from repro.experiments.ablations import ABLATIONS, run_ablation

    names = args.names or list(ABLATIONS)
    for name in names:
        print(run_ablation(name, trace_len=args.length).format())
        print()
    return 0


def cmd_inspect(args):
    """``repro inspect``: print the first epochs of a run, with context."""
    from repro.core.mlpsim import simulate

    annotated = _load_annotated(args)
    machine = _parse_machine(args.machine[0] if args.machine else "64C")
    start = annotated.measure_start
    result = simulate(
        annotated,
        machine,
        start=start,
        stop=min(len(annotated.trace), start + args.window),
        record_sets=True,
    )
    print(
        f"{result.workload} on {machine.label}: {result.epochs} epochs,"
        f" MLP={result.mlp:.3f} over the first {args.window} measured"
        " instructions"
    )
    for epoch in result.epoch_records[: args.epochs]:
        trigger = annotated.trace.instruction(epoch.trigger)
        print(
            f"\nepoch {epoch.index}: {epoch.accesses} accesses,"
            f" trigger={epoch.trigger_kind} @ i{epoch.trigger},"
            f" ended by {epoch.inhibitor.value}"
        )
        print(f"  trigger: {trigger}")
        members = epoch.members or []
        shown = members[: args.members]
        for index in shown:
            marks = []
            if annotated.dmiss[index]:
                marks.append("Dmiss")
            if annotated.imiss[index]:
                marks.append("Imiss")
            if annotated.mispred[index]:
                marks.append("Mispred")
            suffix = f"   <- {', '.join(marks)}" if marks else ""
            print(f"    i{index}: {annotated.trace.instruction(index)}{suffix}")
        if len(members) > len(shown):
            print(f"    ... and {len(members) - len(shown)} more")
    return 0


def cmd_lint(args):
    """``repro lint``: run the reprolint static-analysis passes.

    Exit codes: 0 when the tree is clean, 1 when any finding is
    reported, 2 on usage errors (unknown pass ids, bad root).
    """
    import json
    import sys

    from repro.lint import Severity, registered_passes, run_lint

    if args.list:
        for pass_id, cls in sorted(registered_passes().items()):
            severity = cls.severity.value
            print(f"{pass_id:<18} {severity:<8} {cls.description}")
        return 0
    if args.manifest_update:
        from repro.lint.update import ManifestUpdateError, update_manifest

        try:
            result = update_manifest(args.root)
        except ManifestUpdateError as exc:
            print(f"repro lint --manifest-update: {exc}", file=sys.stderr)
            return 2
        state = "regenerated" if result["changed"] else "already current"
        print(f"manifest {state}:")
        print(f"  oracle sha256          {result['oracle_sha256']}")
        print(f"  cyclesim oracle sha256 {result['cyclesim_oracle_sha256']}")
        return 0
    select = None
    if args.select:
        select = [
            item.strip()
            for chunk in args.select
            for item in chunk.split(",")
            if item.strip()
        ]
    stats = {} if args.stats else None
    findings = run_lint(args.root, select=select, stats=stats)
    if args.format == "json":
        print(json.dumps([f.to_dict() for f in findings], indent=2))
    elif args.format == "sarif":
        from repro.lint.sarif import sarif_payload

        print(json.dumps(
            sarif_payload(findings, registered_passes()), indent=2
        ))
    elif args.format == "github":
        # GitHub Actions workflow-command annotations: each finding
        # becomes an inline ::error/::warning marker on the PR diff.
        for finding in findings:
            kind = "error" if finding.severity is Severity.ERROR else "warning"
            print(
                f"::{kind} file={finding.path},line={finding.line}"
                f"::[{finding.pass_id}] {finding.message}"
            )
    else:
        for finding in findings:
            print(finding.format())
        ran = ", ".join(select) if select else "all passes"
        print(
            f"reprolint: {len(findings)} finding(s)"
            f" ({ran}, root {args.root})"
        )
    if stats is not None:
        # One line per pass plus the parse ledger, on stderr so the
        # structured stdout formats stay machine-parseable.
        for entry in stats["passes"]:
            print(
                f"stats: {entry['id']:<18} {entry['seconds']*1000:9.1f} ms"
                f"  {entry['findings']} finding(s)",
                file=sys.stderr,
            )
        print(
            f"stats: files parsed once: {stats['files_parsed']}"
            f" (py + C unit, shared across passes)",
            file=sys.stderr,
        )
    errors = [f for f in findings if f.severity is Severity.ERROR]
    return 1 if errors else 0


def cmd_report(args):
    """``repro report``: write the full machine-generated markdown report."""
    from repro.experiments.report import write_report

    write_report(
        args.output,
        exhibit_names=args.names or None,
        include_ablations=args.ablations,
        trace_len=args.length,
        progress=lambda name: print(f"  done: {name}"),
    )
    print(f"wrote {args.output}")
    return 0


def build_parser():
    """Construct the argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MLP / epoch-model reproduction of Chou et al., ISCA 2004",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesise a workload trace")
    p.add_argument("workload")
    p.add_argument("-n", "--length", type=int, default=120_000)
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("stats", help="trace statistics and miss clustering")
    _add_trace_arguments(p, require_workload=False)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("calibrate", help="compare against paper targets")
    _add_trace_arguments(p, require_workload=False)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("simulate", help="run MLPsim over a workload/trace")
    _add_trace_arguments(p, require_workload=False)
    p.add_argument(
        "-m", "--machine", action="append",
        help="machine spec, e.g. 64C, 64D/rob256, RAE,"
        " 64C:store_buffer=8 (repeatable)",
    )
    p.add_argument(
        "--in-order", choices=["stall-on-miss", "stall-on-use", "both"],
        help="also run an in-order machine",
    )
    p.add_argument("--inhibitors", action="store_true",
                   help="print the Figure 5 inhibitor breakdown")
    p.add_argument("--store-mlp", action="store_true",
                   help="print store MLP when stores left the chip")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("cyclesim", help="run the cycle-accurate simulator")
    _add_trace_arguments(p, require_workload=False)
    p.add_argument("-m", "--machine", action="append")
    p.add_argument("--latency", type=int, default=1000)
    p.add_argument("--perfect-l2", action="store_true")
    p.add_argument("--stack", action="store_true",
                   help="print the CPI stack (per-category cycle attribution)")
    p.set_defaults(func=cmd_cyclesim)

    p = sub.add_parser(
        "sweep",
        help="run a config grid under crash-safe supervision"
        " (journal/resume/retry/quarantine)",
    )
    _add_trace_arguments(p, require_workload=False)
    p.add_argument(
        "-m", "--machine", action="append",
        help="machine spec for one grid point (repeatable); default"
        " grid is --windows x --policies",
    )
    p.add_argument("--windows", default="16,32,64,128",
                   help="comma-separated issue-window sizes for the"
                   " default grid (default 16,32,64,128)")
    p.add_argument("--policies", default="A,B,C,D,E",
                   help="comma-separated Table 2 issue policies for the"
                   " default grid (default A,B,C,D,E)")
    p.add_argument("-j", "--jobs", type=int, default=None,
                   help="worker processes (0 = one per usable CPU;"
                   " default REPRO_JOBS or serial)")
    p.add_argument("--journal",
                   help="JSON-lines sweep journal path; enables"
                   " checkpointing and --resume")
    p.add_argument("--resume", action="store_true",
                   help="replay the journal and re-execute only"
                   " unfinished configs")
    p.add_argument("--max-retries", type=int, default=2,
                   help="re-executions per config before quarantine"
                   " (default 2)")
    p.add_argument("--config-timeout", type=float, default=None,
                   help="wall-clock budget per config attempt in"
                   " seconds (default unbounded)")
    p.add_argument("--backoff", type=float, default=0.5,
                   help="base seconds for exponential retry backoff"
                   " (default 0.5)")
    p.add_argument("--engine", choices=("auto", "batched", "scalar"),
                   default="auto",
                   help="simulation backend: 'auto' (default) and"
                   " 'batched' run each event-mask group, runahead"
                   " machines included, as compiled-kernel chunks;"
                   " 'scalar' runs every config on the per-instruction"
                   " interpreters.  Results are"
                   " bit-identical; journalling, timeouts, retry and"
                   " quarantine apply either way")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("exhibit", help="regenerate paper tables/figures")
    p.add_argument("names", nargs="*",
                   help="exhibit names ('all' or empty: every exhibit)")
    p.add_argument("-n", "--length", type=int, help="trace length")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-exhibit wall-clock budget in seconds;"
                   " an exhibit over budget is recorded as failed and"
                   " the batch continues")
    p.add_argument("-j", "--jobs", type=int, default=None,
                   help="worker processes for sweeps' scalar-route"
                   " configs (sets REPRO_JOBS; 0 = one per usable CPU,"
                   " default serial); compiled-kernel batches run"
                   " in-process on every usable CPU either way")
    p.set_defaults(func=cmd_exhibit)

    p = sub.add_parser("inspect", help="print the first epochs of a run")
    _add_trace_arguments(p, require_workload=False)
    p.add_argument("-m", "--machine", action="append",
                   help="machine spec (default 64C; first one is used)")
    p.add_argument("--epochs", type=int, default=8,
                   help="how many epochs to print")
    p.add_argument("--members", type=int, default=12,
                   help="epoch-set members to print per epoch")
    p.add_argument("--window", type=int, default=4000,
                   help="measured instructions to simulate")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("report", help="write a full markdown report")
    p.add_argument("names", nargs="*", help="exhibit names (default: all)")
    p.add_argument("-o", "--output", default="REPORT.md")
    p.add_argument("--ablations", action="store_true",
                   help="include the ablation studies")
    p.add_argument("-n", "--length", type=int, help="trace length")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("lint", help="statically check repository invariants")
    p.add_argument("--root", default=".",
                   help="project root (the directory containing src/repro)")
    p.add_argument("--format", choices=["text", "json", "github", "sarif"],
                   default="text",
                   help="output format (github emits workflow-command"
                   " annotations for CI; sarif emits a SARIF 2.1.0 log"
                   " for code-scanning upload; default text)")
    p.add_argument("--select", action="append", metavar="PASS[,PASS...]",
                   help="run only these passes (repeatable or"
                   " comma-separated; see --list)")
    p.add_argument("--list", action="store_true",
                   help="list the registered passes (id, default"
                   " severity, description) and exit")
    p.add_argument("--stats", action="store_true",
                   help="print per-pass wall time and the shared-parse"
                   " ledger to stderr after the findings")
    p.add_argument("--manifest-update", action="store_true",
                   help="regenerate the pinned oracle SHAs in"
                   " repro.lint.manifest (atomic; refuses on an"
                   " unrelated-dirty git tree)")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser("ablation", help="run ablation studies")
    p.add_argument("names", nargs="*", help="ablation names (default: all)")
    p.add_argument("-n", "--length", type=int, help="trace length")
    p.set_defaults(func=cmd_ablation)

    return parser


def main(argv=None):
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if (
        args.command in ("stats", "calibrate", "simulate", "cyclesim",
                         "inspect", "sweep")
        and not args.workload
        and not args.trace
    ):
        parser.error("provide a workload name or --trace FILE")
    try:
        return args.func(args)
    except (ReproError, ValueError) as error:
        parser.exit(2, f"error: {error}\n")


if __name__ == "__main__":
    sys.exit(main())
