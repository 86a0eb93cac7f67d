"""Seed-robustness analysis.

The paper measures one long trace per workload; our traces are short
synthetic samples, so any reproduced number carries sampling noise.
This module quantifies it: run a metric across generator seeds and
report the spread, so EXPERIMENTS.md claims can say "stable to ±x%"
instead of hoping.
"""

import dataclasses
import math

from repro.core.mlpsim import simulate
from repro.trace.annotate import annotate
from repro.workloads import generate_trace
from repro.robustness.errors import ConfigError


@dataclasses.dataclass(frozen=True)
class SeedSweep:
    """A metric measured across generator seeds."""

    label: str
    seeds: tuple
    values: tuple

    @property
    def mean(self):
        return sum(self.values) / len(self.values)

    @property
    def minimum(self):
        return min(self.values)

    @property
    def maximum(self):
        return max(self.values)

    @property
    def stddev(self):
        if len(self.values) < 2:
            return 0.0
        mu = self.mean
        return math.sqrt(
            sum((v - mu) ** 2 for v in self.values) / (len(self.values) - 1)
        )

    @property
    def relative_spread(self):
        """(max - min) / mean — the headline stability number."""
        if not self.mean:
            return 0.0
        return (self.maximum - self.minimum) / self.mean

    def summary(self):
        """One-line mean/range/spread rendering."""
        return (
            f"{self.label}: mean={self.mean:.3f}"
            f"  range=[{self.minimum:.3f}, {self.maximum:.3f}]"
            f"  spread={self.relative_spread:.1%}"
            f"  (n={len(self.values)})"
        )


def seed_sweep(metric, seeds, label="metric"):
    """Evaluate ``metric(seed)`` for every seed; return a :class:`SeedSweep`."""
    seeds = tuple(seeds)
    if not seeds:
        raise ConfigError("seed_sweep needs at least one seed")
    values = tuple(metric(seed) for seed in seeds)
    return SeedSweep(label=label, seeds=seeds, values=values)


def mlp_seed_sweep(workload, machine, seeds=(1234, 2024, 7, 99, 5150),
                   trace_len=120_000):
    """MLP of *machine* on *workload* across generator seeds.

    This regenerates and re-annotates the trace per seed, so it costs a
    few seconds per seed at the default length.
    """

    def metric(seed):
        annotated = annotate(generate_trace(workload, trace_len, seed=seed))
        return simulate(annotated, machine).mlp

    return seed_sweep(
        metric, seeds, label=f"{workload}/{machine.label}/MLP"
    )
