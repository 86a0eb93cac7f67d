"""Table 5: MLP of in-order issue.

Stall-on-miss vs stall-on-use MLP for the three workloads, plus the
comparison the paper draws in the text: the default out-of-order 64C
machine improves MLP over in-order stall-on-use by ~30% (database),
~12% (SPECjbb2000) and ~13% (SPECweb99).  SPECweb99's in-order MLP is
noticeably above 1.0 because of its useful software prefetches.
"""

from repro.analysis.sweep import sweep
from repro.core.config import MachineConfig
from repro.core.inorder import simulate_stall_on_miss, simulate_stall_on_use
from repro.experiments.common import (
    DISPLAY_NAMES,
    Exhibit,
    WORKLOAD_NAMES,
    get_annotated,
)


def run(trace_len=None):
    """Reproduce Table 5; returns an :class:`Exhibit`."""
    rows = []
    notes = []
    for name in WORKLOAD_NAMES:
        annotated = get_annotated(name, trace_len)
        som = simulate_stall_on_miss(annotated)
        sou = simulate_stall_on_use(annotated)
        ooo = sweep(
            annotated, [("64C", MachineConfig.named("64C"))], workload=name
        ).results["64C"]
        rows.append([DISPLAY_NAMES[name], som.mlp, sou.mlp, ooo.mlp])
        if sou.mlp:
            notes.append(
                f"{DISPLAY_NAMES[name]}: 64C over stall-on-use ="
                f" +{(ooo.mlp / sou.mlp - 1):.0%}"
                " (paper: +30% / +12% / +13%)"
            )
    notes.append(
        "stall-on-use >= stall-on-miss everywhere; SPECweb99 in-order MLP"
        " is lifted by useful software prefetches (as in the paper)"
    )
    return Exhibit(
        name="Table 5",
        title="MLP of In-Order Issue",
        tables=[
            (
                None,
                ["Benchmark", "Stall-on-Miss", "Stall-on-Use", "OoO 64C"],
                rows,
            )
        ],
        notes=notes,
    )
