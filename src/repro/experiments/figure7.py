"""Figure 7: impact of L2 cache size on MLP.

The traces are re-annotated under a range of L2 capacities (the events
change: fewer references leave the chip as the L2 grows), and MLPsim
runs the default 64C machine over each.

Scaling note: the paper sweeps 512KB-8MB over 100M-instruction traces.
Our traces are ~1000x shorter, so the cache-sensitive part of each
working set (the recently-reused rows/objects/descriptors plus the hot
code) is correspondingly smaller, and the capacity range where the L2
sweep bites moves down to roughly 128KB-1MB; above that the curves
flatten exactly as the paper's do toward 8MB.  The default sweep
therefore covers 128KB-2MB (a 16x span, like the paper's).

The paper's directional finding — MLP falls with a bigger L2 for the
database workload and SPECjbb2000 (the eliminated misses thin out
clusters) but rises for SPECweb99 (the eliminated misses were isolated,
low-MLP epochs) — is a second-order effect of where the marginal misses
sit; at reproduction scale the magnitudes are small and the note lines
report whatever direction was measured.
"""

from repro.analysis.sweep import sweep
from repro.core.config import MachineConfig
from repro.experiments.common import (
    DISPLAY_NAMES,
    Exhibit,
    WORKLOAD_NAMES,
    get_annotated,
)

L2_SIZES = (
    128 * 1024,
    256 * 1024,
    512 * 1024,
    1024 * 1024,
    2 * 1024 * 1024,
)


def _size_label(size):
    if size < 1024 * 1024:
        return f"{size // 1024}KB"
    return f"{size // (1024 * 1024)}MB"


def _measure(name, trace_len, l2, machine):
    """``(MLP, L2 load misses per 100)`` of one workload at one L2 size.

    The annotation at a non-default size is not memoised; it dies when
    this returns, so the next size annotates with no variant alive.
    """
    annotated = get_annotated(name, trace_len, l2_bytes=l2)
    grid = sweep(annotated, [(machine.label, machine)], workload=name)
    return grid.mlp(machine.label), annotated.l2_load_miss_rate_per_100()


def run(trace_len=None, l2_sizes=L2_SIZES, machine=None):
    """Reproduce Figure 7; returns an :class:`Exhibit`."""
    machine = machine or MachineConfig()  # default 64C
    rows = []
    notes = []
    for name in WORKLOAD_NAMES:
        mlps = []
        rates = []
        for l2 in l2_sizes:
            mlp, rate = _measure(name, trace_len, l2, machine)
            mlps.append(mlp)
            rates.append(rate)
        rows.append([DISPLAY_NAMES[name], "MLP"] + mlps)
        rows.append([DISPLAY_NAMES[name], "miss/100"] + rates)
        direction = "falls" if mlps[-1] < mlps[0] else "rises"
        notes.append(
            f"{DISPLAY_NAMES[name]}: misses {rates[0]:.2f} -> {rates[-1]:.2f}"
            f" per 100 insts across the sweep; MLP {direction} with L2 size"
        )
    notes.append(
        "paper direction: MLP falls with L2 size for database/SPECjbb2000,"
        " rises for SPECweb99; at reproduction trace lengths the"
        " cache-sensitive working sets are small (see module docstring),"
        " so the sweep range is scaled down and the MLP movement is mild"
    )
    headers = ["Benchmark", "Metric"] + [_size_label(s) for s in l2_sizes]
    return Exhibit(
        name="Figure 7",
        title="Impact of L2 cache size (capacity range scaled with trace"
        " length)",
        tables=[(None, headers, rows)],
        notes=notes,
    )
