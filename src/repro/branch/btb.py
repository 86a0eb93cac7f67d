"""Branch target buffer.

A set-associative table mapping branch PCs to their most recent taken
target.  A taken branch whose target is absent or stale is a
misprediction even if its direction was predicted correctly.
"""

from repro.robustness.errors import ConfigError

#: The default associativity, which the annotation kernel's BTB has too.
BTB_WAYS = 4


class BranchTargetBuffer:
    """Set-associative BTB (:data:`BTB_WAYS` ways by default) with LRU
    replacement."""

    def __init__(self, entries=16 * 1024, associativity=BTB_WAYS):
        if entries % associativity:
            raise ConfigError("BTB entries must divide evenly into ways")
        num_sets = entries // associativity
        if num_sets & (num_sets - 1):
            raise ConfigError("BTB set count must be a power of two")
        self.entries = entries
        self._assoc = associativity
        self._set_mask = num_sets - 1
        # Each set: list of [tag, target] in MRU..LRU order.
        self._sets = [[] for _ in range(num_sets)]

    def _set_and_tag(self, pc):
        word = pc >> 2
        return self._sets[word & self._set_mask], word

    def lookup(self, pc):
        """Return the stored target for *pc*, or None on BTB miss."""
        ways, tag = self._set_and_tag(pc)
        for i, (stored_tag, target) in enumerate(ways):
            if stored_tag == tag:
                if i:
                    ways.insert(0, ways.pop(i))
                return target
        return None

    def update(self, pc, target):
        """Record that *pc* most recently jumped to *target*."""
        ways, tag = self._set_and_tag(pc)
        for i, entry in enumerate(ways):
            if entry[0] == tag:
                entry[1] = target
                if i:
                    ways.insert(0, ways.pop(i))
                return
        ways.insert(0, [tag, target])
        if len(ways) > self._assoc:
            ways.pop()
