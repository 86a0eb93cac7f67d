"""The on-chip cache hierarchy of the modeled machine.

Composes L1I + L1D + shared L2 and classifies every reference by
the furthest level it had to reach.  A reference that misses the L2 is an
*off-chip access* — the unit of MLP.  The prefetcher study drives this
composed hierarchy.  The annotation pipeline (:mod:`repro.trace.annotate`)
runs the same cache levels as separate layers, L1s first and the L2 over
the L1-miss stream; that is exact because there is no back-invalidation:
nothing the L2 does changes what the L1s hold.
"""

import dataclasses
import enum

from repro.memory.cache import Cache, CacheConfig


class AccessLevel(enum.IntEnum):
    """The furthest level a reference had to reach."""

    L1 = 0
    L2 = 1
    OFFCHIP = 2


@dataclasses.dataclass(frozen=True)
class HierarchyConfig:
    """Geometry of the full on-chip hierarchy (paper Section 5.1 defaults)."""

    l1i: CacheConfig = CacheConfig(size_bytes=32 * 1024, associativity=4)
    l1d: CacheConfig = CacheConfig(size_bytes=32 * 1024, associativity=4)
    l2: CacheConfig = CacheConfig(size_bytes=2 * 1024 * 1024, associativity=4)

    def with_l2_size(self, size_bytes):
        """Return a copy with the L2 capacity replaced (Figure 7 sweeps)."""
        l2 = CacheConfig(
            size_bytes=size_bytes,
            associativity=self.l2.associativity,
            line_bytes=self.l2.line_bytes,
        )
        return dataclasses.replace(self, l2=l2)


class Hierarchy:
    """L1I/L1D/shared-L2 hierarchy.

    The L2 is shared between instruction and data streams, which is what
    makes the database workload's large instruction footprint steal L2
    capacity from its data — a first-order effect for I-miss epoch
    triggers (Figure 5's ``Imiss start``).
    """

    def __init__(self, config=None):
        self.config = config or HierarchyConfig()
        self.l1i = Cache(self.config.l1i, name="L1I")
        self.l1d = Cache(self.config.l1d, name="L1D")
        self.l2 = Cache(self.config.l2, name="L2")
        self.offchip_accesses = 0

    def access_instruction(self, pc):
        """Fetch the line containing *pc*; return the furthest level reached."""
        if self.l1i.access(pc):
            return AccessLevel.L1
        if self.l2.access(pc):
            return AccessLevel.L2
        self.offchip_accesses += 1
        return AccessLevel.OFFCHIP

    def access_data(self, addr, is_write=False):
        """Reference data address *addr*; return the furthest level reached.

        Write misses allocate (write-allocate policy); *is_write* is
        accepted for interface clarity but hits and misses are handled
        identically because writeback traffic is out of scope.
        """
        del is_write  # write-allocate: writes behave like reads for MLP
        if self.l1d.access(addr):
            return AccessLevel.L1
        if self.l2.access(addr):
            return AccessLevel.L2
        self.offchip_accesses += 1
        return AccessLevel.OFFCHIP

    def probe_data(self, addr):
        """Would a data reference to *addr* stay on chip? (no state change)"""
        return self.l1d.probe(addr) or self.l2.probe(addr)

    def fill_data(self, addr):
        """Install *addr*'s line in L1D and L2 (prefetch completion)."""
        self.l1d.fill(addr)
        self.l2.fill(addr)

    def reset_stats(self):
        """Zero all counters (after warmup)."""
        self.l1i.reset_stats()
        self.l1d.reset_stats()
        self.l2.reset_stats()
        self.offchip_accesses = 0
