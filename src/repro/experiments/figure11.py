"""Figure 11: overall performance improvement.

The MLP gains of Sections 5.3-5.6 translated back to performance: CPI
for a sample of configurations is estimated with Equation 2 (MLPsim MLP
and miss rate; cycle-simulator CPI_perf and Overlap_CM, measured once
on the 64D anchor machine) at a 1000-cycle off-chip latency, and
reported as percentage improvement over the 64D baseline.  The paper's
headline numbers to reproduce in shape: runahead improves overall
performance by ~60%/44%/11%, and runahead plus perfect branch and value
prediction by ~174%/103%/21%.
"""

import dataclasses

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

MISS_PENALTY = 1000


def machine_grid():
    """The (label, machine) sample of configurations Figure 11 ranks."""
    rae = MachineConfig.runahead_machine()
    return [
        ("64D", MachineConfig.named("64D")),
        ("64E", MachineConfig.named("64E")),
        ("64D/rob256", MachineConfig.named("64D", rob=256)),
        ("256D", MachineConfig.named("256D")),
        ("RAE", rae),
        ("RAE.perfI", dataclasses.replace(rae, perfect_ifetch=True)),
        ("RAE.perfVP", dataclasses.replace(rae, perfect_value=True)),
        ("RAE.perfBP", dataclasses.replace(rae, perfect_branch=True)),
        (
            "RAE.perfVP.perfBP",
            dataclasses.replace(rae, perfect_value=True, perfect_branch=True),
        ),
    ]


def run(trace_len=None, miss_penalty=MISS_PENALTY):
    """Reproduce Figure 11; returns an :class:`Exhibit`."""
    grid = machine_grid()
    rows = []
    notes = []
    for name in WORKLOAD_NAMES:
        annotated = get_annotated(name, trace_len)

        # Anchor measurements on the 64D baseline, real and perfect L2.
        anchor = MachineConfig.named("64D")
        anchors = get_cyclesim(annotated, [
            ("real", CycleSimConfig.from_machine(
                anchor, miss_penalty=miss_penalty)),
            ("perfect", CycleSimConfig.from_machine(
                anchor, miss_penalty=miss_penalty, perfect_l2=True)),
        ], name)
        real, perfect = anchors["real"], anchors["perfect"]
        result = sweep(annotated, grid)
        base = result.results["64D"]
        base_rate = base.accesses / base.instructions
        overlap = derive_overlap_cm(
            real.cpi, perfect.cpi, base_rate, miss_penalty, base.mlp
        )
        base_cpi = estimate_cpi(
            perfect.cpi, overlap, base_rate, miss_penalty, base.mlp
        )

        row = [DISPLAY_NAMES[name]]
        for label, _ in grid[1:]:
            r = result.results[label]
            rate = r.accesses / r.instructions
            cpi = estimate_cpi(
                perfect.cpi, overlap, rate, miss_penalty, r.mlp
            )
            row.append(base_cpi / cpi - 1)
        rows.append(row)
        rae_gain = row[1 + [label for label, _ in grid[1:]].index("RAE")]
        notes.append(
            f"{DISPLAY_NAMES[name]}: RAE = {rae_gain:+.0%} performance"
            " (paper: +60%/+44%/+11%)"
        )
    headers = ["Benchmark"] + [label for label, _ in grid[1:]]
    notes.append(
        "all improvements relative to the 64D machine at 1000-cycle"
        " off-chip latency, CPI estimated via Equation 2 as in the paper"
    )
    return Exhibit(
        name="Figure 11",
        title="Overall performance improvement vs 64D",
        tables=[(None, headers, rows)],
        notes=notes,
        float_format="+.1%",
    )
