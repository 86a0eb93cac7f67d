"""Ablation studies beyond the paper's exhibits.

Four sweeps quantify design choices the paper leaves implicit or names
as future work:

* **MSHR file size** — the paper assumes miss-handling resources are
  never the bottleneck; this sweep shows how many outstanding-miss
  entries the measured MLP actually requires.
* **Store-buffer size** — Section 7 names "store MLP for applications
  where a finite store buffer limits performance" as future work; this
  sweep measures store MLP and the knee below which the store buffer
  interferes with load MLP.
* **Slow unresolvable-branch predictor** — Section 3.2.4 suggests a
  special (slow but accurate) predictor for miss-dependent branches;
  this sweep maps its accuracy to MLP, bounded above by perfect BP.
* **Runahead distance** — Section 5.4.1 notes "the maximum runahead
  distance is dependent on the off-chip access latency"; this sweep
  shows where each workload's runahead MLP saturates.
"""

import dataclasses

from repro.analysis.sweep import sweep
from repro.core.config import MachineConfig
from repro.core.termination import Inhibitor
from repro.experiments.common import (
    DISPLAY_NAMES,
    Exhibit,
    WORKLOAD_NAMES,
    get_annotated,
)
from repro.robustness.errors import ConfigError

MSHR_SIZES = (1, 2, 4, 8, 16, 32, None)
STORE_BUFFER_SIZES = (1, 2, 4, 8, 16, None)
SLOW_BP_ACCURACIES = (0.0, 0.25, 0.5, 0.75, 0.9, 1.0)
RUNAHEAD_DISTANCES = (64, 128, 256, 512, 1024, 2048, 4096)


def _size_label(value):
    return "inf" if value is None else str(value)


def ablation_mshr(trace_len=None, sizes=MSHR_SIZES):
    """MLP vs MSHR file size, on the default and runahead machines."""
    rows = []
    notes = []
    for name in WORKLOAD_NAMES:
        annotated = get_annotated(name, trace_len)
        bases = (
            ("64C", MachineConfig.named("64C")),
            ("RAE", MachineConfig.runahead_machine()),
        )
        grid = sweep(
            annotated,
            [
                (f"{base_label}/{_size_label(cap)}",
                 dataclasses.replace(base, max_outstanding=cap))
                for base_label, base in bases
                for cap in sizes
            ],
            workload=name,
        )
        for base_label, _ in bases:
            row = [DISPLAY_NAMES[name], base_label]
            for cap in sizes:
                row.append(grid.mlp(f"{base_label}/{_size_label(cap)}"))
            rows.append(row)
            knee = next(
                (
                    _size_label(cap)
                    for cap, mlp in zip(sizes, row[2:])
                    if mlp >= 0.98 * row[-1]
                ),
                "inf",
            )
            notes.append(
                f"{DISPLAY_NAMES[name]}/{base_label}: {knee} MSHRs reach"
                " 98% of the unbounded MLP"
            )
    headers = ["Benchmark", "Machine"] + [
        f"mshr={_size_label(s)}" for s in sizes
    ]
    return Exhibit(
        name="Ablation: MSHR file size",
        title="How many outstanding-miss entries the MLP actually needs",
        tables=[(None, headers, rows)],
        notes=notes,
    )


def ablation_store_buffer(trace_len=None, sizes=STORE_BUFFER_SIZES):
    """Load MLP and store MLP vs store-buffer size (Section 7 future work)."""
    tables = []
    notes = []
    for name in WORKLOAD_NAMES:
        annotated = get_annotated(name, trace_len)
        grid = sweep(
            annotated,
            [
                (_size_label(cap), MachineConfig.named("64C", store_buffer=cap))
                for cap in sizes
            ],
            workload=name,
        )
        rows = []
        for cap in sizes:
            result = grid.results[_size_label(cap)]
            rows.append(
                [
                    _size_label(cap),
                    result.mlp,
                    result.store_mlp,
                    result.store_accesses,
                    result.inhibitors.as_dict()[Inhibitor.STORE_BUFFER],
                ]
            )
        tables.append(
            (
                DISPLAY_NAMES[name],
                ["SB entries", "MLP", "store MLP", "store accesses",
                 "SB-blocked epochs"],
                rows,
            )
        )
        if rows[0][1] < rows[-1][1] * 0.995:
            notes.append(
                f"{DISPLAY_NAMES[name]}: a 1-entry store buffer costs"
                f" {1 - rows[0][1] / rows[-1][1]:.1%} MLP"
            )
    notes.append(
        "store misses never count toward (load) MLP — the store buffer"
        " interferes only by blocking younger work, as Section 7 anticipates"
    )
    return Exhibit(
        name="Ablation: store buffer",
        title="Store MLP and the cost of finite store buffering",
        tables=tables,
        notes=notes,
    )


def ablation_slow_bp(trace_len=None, accuracies=SLOW_BP_ACCURACIES):
    """MLP vs slow unresolvable-branch-predictor accuracy (Section 3.2.4)."""
    rows = []
    notes = []
    for name in WORKLOAD_NAMES:
        annotated = get_annotated(name, trace_len)
        base = MachineConfig.runahead_machine()
        pairs = [
            (
                f"acc={accuracy}",
                dataclasses.replace(
                    base,
                    slow_branch_predictor=accuracy > 0,
                    slow_bp_accuracy=accuracy,
                ),
            )
            for accuracy in accuracies
        ]
        pairs.append(
            ("perfect", dataclasses.replace(base, perfect_branch=True))
        )
        grid = sweep(annotated, pairs, workload=name)
        row = [DISPLAY_NAMES[name]]
        row += [grid.mlp(f"acc={accuracy}") for accuracy in accuracies]
        perfect = grid.mlp("perfect")
        row.append(perfect)
        rows.append(row)
        captured = (
            (row[-2] - row[1]) / (perfect - row[1])
            if perfect > row[1]
            else 1.0
        )
        notes.append(
            f"{DISPLAY_NAMES[name]}: a 100%-accurate slow predictor captures"
            f" {captured:.0%} of the perfect-BP headroom"
        )
    headers = ["Benchmark"] + [f"acc={a:.0%}" for a in accuracies]
    headers.append("perfect BP")
    notes.append(
        "the residual gap to perfect BP comes from wrong-path epochs the"
        " slow predictor is consulted too late to avoid entirely"
    )
    return Exhibit(
        name="Ablation: slow unresolvable-branch predictor",
        title="Section 3.2.4's suggestion, quantified on the RAE machine",
        tables=[(None, headers, rows)],
        notes=notes,
    )


def ablation_runahead_distance(trace_len=None, distances=RUNAHEAD_DISTANCES):
    """MLP vs maximum runahead distance (Section 5.4.1's 2048 choice)."""
    rows = []
    notes = []
    for name in WORKLOAD_NAMES:
        annotated = get_annotated(name, trace_len)
        grid = sweep(
            annotated,
            [
                (str(distance),
                 MachineConfig.runahead_machine(max_runahead=distance))
                for distance in distances
            ],
            workload=name,
        )
        row = [DISPLAY_NAMES[name]]
        row += [grid.mlp(str(distance)) for distance in distances]
        rows.append(row)
        saturation = next(
            (
                d
                for d, mlp in zip(distances, row[1:])
                if mlp >= 0.95 * row[-1]
            ),
            distances[-1],
        )
        notes.append(
            f"{DISPLAY_NAMES[name]}: 95% of the {distances[-1]}-distance MLP"
            f" is reached by distance {saturation}"
        )
    headers = ["Benchmark"] + [str(d) for d in distances]
    notes.append(
        "the paper runs ahead up to 2048 instructions and notes the real"
        " bound is the off-chip latency; the saturation points above show"
        " how much of that budget each workload can use"
    )
    return Exhibit(
        name="Ablation: runahead distance",
        title="Where runahead MLP saturates per workload",
        tables=[(None, headers, rows)],
        notes=notes,
    )


def ablation_hw_prefetch(trace_len=None, degree=2):
    """Conventional hardware prefetchers on the commercial workloads.

    Checks the paper's premise (Section 1) that these access patterns
    are "not amenable to conventional hardware or software prefetching":
    replay each trace with a next-line and a PC-stride prefetcher and
    measure miss coverage and prefetch accuracy.
    """
    from repro.experiments.common import _get_trace
    from repro.memory.prefetcher import (
        NextLinePrefetcher,
        StridePrefetcher,
        run_prefetch_study,
    )
    from repro.experiments.common import DEFAULT_SEED, default_trace_len

    trace_len = trace_len or default_trace_len()
    rows = []
    notes = []
    for name in WORKLOAD_NAMES:
        trace = _get_trace(name, trace_len, DEFAULT_SEED)
        reference = run_prefetch_study(trace, None)
        for label, prefetcher in (
            ("next-line", NextLinePrefetcher(degree=degree)),
            ("stride", StridePrefetcher(degree=degree)),
        ):
            study = run_prefetch_study(trace, prefetcher)
            removed = (
                1.0 - study.remaining_misses / reference.remaining_misses
                if reference.remaining_misses
                else 0.0
            )
            rows.append(
                [
                    DISPLAY_NAMES[name],
                    label,
                    reference.remaining_misses,
                    study.remaining_misses,
                    removed,
                    study.accuracy,
                ]
            )
        stride_removed = rows[-1][4]
        notes.append(
            f"{DISPLAY_NAMES[name]}: a stride prefetcher removes"
            f" {stride_removed:.0%} of off-chip load misses"
        )
    notes.append(
        "paper premise (Section 1): commercial access patterns are not"
        " amenable to conventional prefetching — stride coverage is low"
        " everywhere; next-line catches only the intra-cluster lines that"
        " already overlap, so even its coverage buys little MLP"
    )
    return Exhibit(
        name="Ablation: conventional hardware prefetching",
        title="The paper's 'not amenable to prefetching' premise, checked",
        tables=[
            (
                None,
                [
                    "Benchmark",
                    "Prefetcher",
                    "Misses (none)",
                    "Misses (with)",
                    "Removed",
                    "Accuracy",
                ],
                rows,
            )
        ],
        notes=notes,
    )


def ablation_intro_contrast(trace_len=None):
    """Commercial vs scientific workloads (the paper's Section 1 setup).

    The paper motivates MLP by contrasting commercial applications with
    scientific/streaming ones whose regular misses conventional
    techniques already handle.  This ablation puts the ``streaming``
    contrast workload next to the three commercial ones and measures:
    stride-prefetch coverage, in-order and out-of-order MLP, and the
    runahead gain — showing why MLP (not prefetching) is the commercial
    lever.
    """
    from repro.core.inorder import simulate_stall_on_use
    from repro.experiments.common import DEFAULT_SEED, _get_trace, default_trace_len
    from repro.memory.prefetcher import StridePrefetcher, run_prefetch_study
    from repro.trace.annotate import annotate

    trace_len = trace_len or default_trace_len()
    rows = []
    for name in list(WORKLOAD_NAMES) + ["streaming"]:
        trace = _get_trace(name, trace_len, DEFAULT_SEED)
        annotated = annotate(trace)
        study = run_prefetch_study(trace, StridePrefetcher(degree=4))
        sou = simulate_stall_on_use(annotated).mlp
        grid = sweep(
            annotated,
            [
                ("64C", MachineConfig.named("64C")),
                ("RAE", MachineConfig.runahead_machine()),
            ],
            workload=name,
        )
        ooo, rae = grid.mlp("64C"), grid.mlp("RAE")
        rows.append(
            [
                DISPLAY_NAMES.get(name, name),
                study.coverage,
                sou,
                ooo,
                rae / ooo - 1,
            ]
        )
    return Exhibit(
        name="Ablation: commercial vs scientific",
        title="The Section 1 premise: why MLP is the commercial lever",
        tables=[
            (
                None,
                [
                    "Workload",
                    "Stride coverage",
                    "MLP in-order",
                    "MLP 64C",
                    "RAE gain",
                ],
                rows,
            )
        ],
        notes=[
            "the streaming (scientific) workload: stride prefetching"
            " covers nearly all of its misses and even an in-order core"
            " overlaps them — the commercial workloads show the opposite"
            " on every column, which is the gap MLP techniques fill",
        ],
    )


#: Registry used by the ablation benchmarks.
ABLATIONS = {
    "mshr": ablation_mshr,
    "store_buffer": ablation_store_buffer,
    "slow_bp": ablation_slow_bp,
    "runahead_distance": ablation_runahead_distance,
    "hw_prefetch": ablation_hw_prefetch,
    "intro_contrast": ablation_intro_contrast,
}


def run_ablation(name, **kwargs):
    """Run one ablation by name and return its :class:`Exhibit`."""
    try:
        func = ABLATIONS[name]
    except KeyError:
        raise ConfigError(
            f"unknown ablation {name!r}; expected one of {sorted(ABLATIONS)}"
        ) from None
    return func(**kwargs)
