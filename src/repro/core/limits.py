"""Limit-study configurations (paper Section 5.6 / Figure 10).

The paper measures the headroom left above runahead execution by
assuming, in turn, perfect instruction prefetching (``perfI``), perfect
value prediction of missing loads (``perfVP``), perfect branch
prediction (``perfBP``), and the combination of the last two.  The same
grid is also evaluated over a conventional (non-runahead) baseline with
a 64-entry issue window, 256-entry ROB and issue configuration D.
"""

import dataclasses

from repro.core.config import MachineConfig

#: The limit-study variants of Figure 10, in the paper's display order.
LIMIT_VARIANTS = (
    ("base", {}),
    ("perfI", {"perfect_ifetch": True}),
    ("perfVP", {"perfect_value": True}),
    ("perfBP", {"perfect_branch": True}),
    ("perfVP.perfBP", {"perfect_value": True, "perfect_branch": True}),
)


def limit_configs(runahead=True):
    """Return the Figure 10 configuration grid as ``(label, machine)``.

    With *runahead* True the baseline is the paper's RAE machine
    (upper graph of Figure 10); otherwise it is the conventional
    64-entry-window, 256-entry-ROB configuration-D machine (lower
    graph).
    """
    if runahead:
        base = MachineConfig.runahead_machine()
        prefix = "RAE"
    else:
        base = MachineConfig.named("64D", rob=256)
        prefix = "64D.rob256"
    grid = []
    for suffix, switches in LIMIT_VARIANTS:
        label = prefix if suffix == "base" else f"{prefix}.{suffix}"
        grid.append((label, dataclasses.replace(base, **switches)))
    return grid
