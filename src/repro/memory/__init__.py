"""Memory-hierarchy substrate.

The default hierarchy matches the paper's Section 5.1 configuration:
32KB 4-way L1 instruction and data caches and a 2MB 4-way shared L2 (all
64-byte lines), no L3.  A miss in the furthest on-chip cache (the L2) is
a *long-latency off-chip access* — the events MLP is made of.  The
paper's 2K-entry TLB is not modelled: its misses are serviced on chip
(DESIGN.md §7), so they raise no event the epoch model consumes.  Miss
handling is modelled by the simulators themselves (MLPsim's
``max_outstanding``, the cycle simulator's in-flight table).
"""

from repro.memory.cache import Cache, CacheConfig
from repro.memory.prefetcher import (
    NextLinePrefetcher,
    PrefetchStudy,
    StridePrefetcher,
    run_prefetch_study,
)
from repro.memory.hierarchy import (
    AccessLevel,
    Hierarchy,
    HierarchyConfig,
)

__all__ = [
    "Cache",
    "CacheConfig",
    "NextLinePrefetcher",
    "PrefetchStudy",
    "StridePrefetcher",
    "run_prefetch_study",
    "AccessLevel",
    "Hierarchy",
    "HierarchyConfig",
]
