"""Table 4: estimated vs measured CPI.

The paper's second validation: estimate a configuration's CPI by
plugging its MLPsim-measured MLP and miss rate into Equation 2, with
CPI_perf and Overlap_CM measured by the cycle simulator — both for the
same configuration (the paper's bold numbers) and, crucially, borrowed
from a *different* configuration (how one predicts machines that the
cycle simulator does not implement).  The paper's claim to reproduce:
all estimates land within 2% of the measured CPI.
"""

from repro.analysis.sweep import sweep
from repro.core.config import MachineConfig
from repro.cyclesim import CycleSimConfig
from repro.experiments.common import (
    DISPLAY_NAMES,
    Exhibit,
    WORKLOAD_NAMES,
    get_annotated,
    get_cyclesim,
)
from repro.perf.cpi_model import derive_overlap_cm, estimate_cpi


def run(trace_len=None, size=64, configs="ABC", miss_penalty=1000):
    """Reproduce Table 4; returns an :class:`Exhibit`."""
    rows = []
    worst_error = 0.0
    for name in WORKLOAD_NAMES:
        annotated = get_annotated(name, trace_len)
        # Real and perfect-L2 runs for every config letter in one
        # memoised call per workload (the real runs are Table 3's).
        pairs = []
        for letter in configs:
            machine = MachineConfig.named(f"{size}{letter}")
            pairs.append((
                f"{size}{letter}/p{miss_penalty}",
                CycleSimConfig.from_machine(
                    machine, miss_penalty=miss_penalty
                ),
            ))
            pairs.append((
                f"{size}{letter}/p{miss_penalty}/perfL2",
                CycleSimConfig.from_machine(
                    machine, miss_penalty=miss_penalty, perfect_l2=True
                ),
            ))
        grid = get_cyclesim(annotated, pairs, name)
        mlpsim_grid = sweep(
            annotated,
            [(letter, MachineConfig.named(f"{size}{letter}"))
             for letter in configs],
            workload=name,
        ).results
        measured = {}
        anchors = {}  # config letter -> (cpi_perf, overlap_cm)
        mlpsim = {}
        for letter in configs:
            real = grid[f"{size}{letter}/p{miss_penalty}"]
            perfect = grid[f"{size}{letter}/p{miss_penalty}/perfL2"]
            result = mlpsim_grid[letter]
            miss_rate = result.accesses / result.instructions
            overlap = derive_overlap_cm(
                real.cpi, perfect.cpi, miss_rate, miss_penalty, result.mlp
            )
            measured[letter] = real.cpi
            anchors[letter] = (perfect.cpi, overlap)
            mlpsim[letter] = (result.mlp, miss_rate)

        for letter in configs:
            mlp, miss_rate = mlpsim[letter]
            row = [DISPLAY_NAMES[name], letter]
            for anchor in configs:
                cpi_perf, overlap = anchors[anchor]
                estimate = estimate_cpi(
                    cpi_perf, overlap, miss_rate, miss_penalty, mlp
                )
                row.append(estimate)
                error = abs(estimate - measured[letter]) / measured[letter]
                worst_error = max(worst_error, error)
            row.append(measured[letter])
            rows.append(row)

    headers = ["Benchmark", "Config"]
    headers += [f"Est. via {anchor}" for anchor in configs]
    headers += ["Measured"]
    return Exhibit(
        name="Table 4",
        title="Estimated (Eq. 2 + MLPsim) vs measured CPI"
        f" (IW/ROB={size}, {miss_penalty}-cycle latency)",
        tables=[(None, headers, rows)],
        notes=[
            f"worst estimation error: {worst_error:.1%}"
            " (paper: within 2% in all cases)",
        ],
    )
