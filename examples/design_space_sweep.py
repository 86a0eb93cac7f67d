#!/usr/bin/env python
"""Design-space study: what should the next server core spend area on?

The kind of question the paper's tooling exists to answer.  For each
workload this script sweeps issue-window size, ROB decoupling, issue
aggressiveness and runahead, then translates MLP into an estimated CPI
improvement (Equation 2) with the cycle simulator anchoring CPI_perf
and Overlap_CM — ranking the design options by performance per
"hardware cost" (a toy cost model: CAM entries are 4x FIFO entries).

Run:  python examples/design_space_sweep.py [workload] [trace_length] [jobs]

*jobs* (or the ``REPRO_JOBS`` environment variable) sizes the process
pool the sweep's scalar-route configs use (hosts without ``cc``);
compiled-kernel batches run in-process on every usable CPU either way.
Results are identical to the serial run.  See docs/PERFORMANCE.md.
"""

import sys

from repro import CycleSimConfig, MachineConfig, annotate, generate_trace, run_cyclesim
from repro.analysis.sweep import sweep
from repro.analysis.tables import format_table
from repro.perf.cpi_model import derive_overlap_cm, estimate_cpi

MISS_PENALTY = 1000

OPTIONS = [
    # label                      machine                                cost
    ("baseline 64C", MachineConfig.named("64C"), 0),
    ("wider issue: 128C", MachineConfig.named("128C"), 64 * 4 + 64),
    ("decoupled ROB: 64C/rob256", MachineConfig.named("64C", rob=256), 192),
    ("aggressive issue: 64E", MachineConfig.named("64E"), 16),
    ("both: 64E/rob256", MachineConfig.named("64E", rob=256), 208),
    ("runahead", MachineConfig.runahead_machine(), 96),
]


def study(workload, length, jobs=None):
    trace = generate_trace(workload, length)
    annotated = annotate(trace)

    # Anchor the CPI model on the baseline.
    base_machine = OPTIONS[0][1]
    real = run_cyclesim(
        annotated, CycleSimConfig.from_machine(base_machine, MISS_PENALTY)
    )
    perfect = run_cyclesim(
        annotated,
        CycleSimConfig.from_machine(base_machine, MISS_PENALTY, perfect_l2=True),
    )
    grid = sweep(
        annotated, [(label, m) for label, m, _ in OPTIONS], jobs=jobs
    )
    base = grid.results["baseline 64C"]
    base_rate = base.accesses / base.instructions
    overlap = derive_overlap_cm(
        real.cpi, perfect.cpi, base_rate, MISS_PENALTY, base.mlp
    )
    base_cpi = estimate_cpi(
        perfect.cpi, overlap, base_rate, MISS_PENALTY, base.mlp
    )

    rows = []
    for label, _, cost in OPTIONS:
        result = grid.results[label]
        rate = result.accesses / result.instructions
        cpi = estimate_cpi(perfect.cpi, overlap, rate, MISS_PENALTY, result.mlp)
        gain = base_cpi / cpi - 1
        value = gain / cost * 1000 if cost else None
        rows.append([label, result.mlp, cpi, gain, value])

    print(
        format_table(
            ["option", "MLP", "est. CPI", "speedup", "speedup/kcost"],
            rows,
            title=f"\n{workload} @ {MISS_PENALTY}-cycle memory,"
            f" {length} instructions",
        )
    )
    best = max(
        (r for r in rows if r[4] is not None), key=lambda r: r[4]
    )
    print(f"best performance per unit cost: {best[0]}")


def main():
    workload = sys.argv[1] if len(sys.argv) > 1 else "database"
    length = int(sys.argv[2]) if len(sys.argv) > 2 else 120_000
    jobs = int(sys.argv[3]) if len(sys.argv) > 3 else None
    study(workload, length, jobs=jobs)


if __name__ == "__main__":
    main()
