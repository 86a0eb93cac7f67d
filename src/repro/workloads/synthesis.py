"""Building blocks shared by the synthetic workload generators.

* :class:`Region` — an address-space region with hot/sequential/random
  allocation helpers.  "Cold" behaviour (guaranteed off-chip misses)
  falls out of touching a region much larger than the L2 with little
  reuse; "hot" behaviour falls out of a region smaller than the L1.
* :class:`ValueSites` — per-static-load value streams with controllable
  last-value repeat probability (drives the Table 6 value-predictor
  accuracies).
* :class:`BranchSites` — per-static-branch outcome bias (drives the
  gshare accuracy and therefore the density of mispredicted branches).
* :class:`ZipfSampler` — skewed choice over functions/objects, giving
  instruction and data streams the heavy reuse plus long tail that makes
  commercial footprints overflow caches gradually rather than all at
  once.
"""

import bisect
import itertools

import numpy as np

from repro.robustness.errors import ConfigError

#: Default alignment of :meth:`Region.random_addr` (one 8-byte word).
WORD_BYTES = 8

#: First value a :class:`ValueSites` stream hands out, and the step
#: between its successive fresh values.
FRESH_VALUE_BASE = 0x1000_0000
FRESH_VALUE_STRIDE = 17

#: Chance that a newly assigned :class:`BranchSites` bias leans taken
#: rather than not-taken.
TAKEN_SIDE_PROBABILITY = 0.5


class Region:
    """A contiguous region of the synthetic address space."""

    def __init__(self, base, size, line_bytes=64):
        if base % line_bytes:
            raise ConfigError("region base must be line-aligned")
        self.base = base
        self.size = size
        self.line_bytes = line_bytes
        self._cursor = 0

    @property
    def end(self):
        return self.base + self.size

    @property
    def num_lines(self):
        return self.size // self.line_bytes

    def contains(self, addr):
        """True if *addr* lies inside the region."""
        return self.base <= addr < self.end

    def random_addr(self, rng, align=WORD_BYTES):
        """A uniformly random *align*-aligned address inside the region."""
        slots = self.size // align
        return self.base + rng.randrange(slots) * align

    def next_line(self, stride_lines=1):
        """Sequential line allocation with wraparound.

        Cycling through a region much larger than the L2 guarantees the
        returned lines were evicted long ago, i.e. they miss off-chip.
        """
        addr = self.base + self._cursor * self.line_bytes
        self._cursor = (self._cursor + stride_lines) % self.num_lines
        return addr

    def line_of(self, addr):
        """Line-aligned base address containing *addr*."""
        return addr - addr % self.line_bytes


class ZipfRegion:
    """A region whose lines are touched with Zipf-distributed popularity.

    This is what gives the synthetic workloads a *continuous* footprint:
    the popular head of the region stays L2-resident while the long tail
    misses, so enlarging the L2 converts tail accesses into hits — the
    effect Figure 7 sweeps.  Line popularity is scattered across the
    region with a multiplicative hash so cache sets are loaded evenly.
    """

    def __init__(self, base, size, line_bytes=64, exponent=0.75):
        self.region = Region(base, size, line_bytes)
        self.exponent = exponent
        self._sampler = ZipfSampler(self.region.num_lines, exponent=exponent)
        self._scatter = 0x9E3779B1  # Fibonacci-hash multiplier

    @property
    def base(self):
        return self.region.base

    @property
    def size(self):
        return self.region.size

    def sample_line(self, rng):
        """Return the base address of a popularity-sampled line."""
        rank = self._sampler.sample(rng)
        num_lines = self.region.num_lines
        line = (rank * self._scatter) % num_lines
        return self.region.base + line * self.region.line_bytes


class RecentPool:
    """A bounded set of recently used line addresses.

    Commercial workloads re-touch recently used data (row caches, hot
    objects); a ring buffer of the last *capacity* lines models that
    recency.  Lines sampled from the pool have reuse distances bounded
    by the pool size plus the interleaved allocation churn, which is
    what makes them L2-capacity-sensitive at reproduction trace lengths
    (the Figure 7 lever).
    """

    def __init__(self, capacity):
        if capacity <= 0:
            raise ConfigError("RecentPool capacity must be positive")
        self.capacity = capacity
        self._lines = []
        self._cursor = 0

    def __len__(self):
        return len(self._lines)

    def insert(self, line):
        """Remember *line* as recently used."""
        if len(self._lines) < self.capacity:
            self._lines.append(line)
        else:
            self._lines[self._cursor] = line
            self._cursor = (self._cursor + 1) % self.capacity

    def sample(self, rng):
        """Return a uniformly random recent line (None when empty)."""
        if not self._lines:
            return None
        return self._lines[rng.randrange(len(self._lines))]


class ZipfSampler:
    """Zipf-distributed sampling over ``range(n)``.

    Uses the inverse-CDF method over precomputed cumulative weights, so
    sampling is O(log n).  ``exponent`` near 1 gives commercial-code-like
    reuse: a hot head plus a long cold tail.
    """

    def __init__(self, n, exponent=1.0):
        if n <= 0:
            raise ConfigError("ZipfSampler needs at least one item")
        weights = [1.0 / (rank + 1) ** exponent for rank in range(n)]
        self._cumulative = list(itertools.accumulate(weights))
        self._total = self._cumulative[-1]
        self.n = n

    def sample(self, rng):
        """Draw one index."""
        point = rng.random() * self._total
        return bisect.bisect_left(self._cumulative, point)

    def draw_thresholds(self):
        """:meth:`sample` as integer thresholds on the draw.

        ``rng.random()`` is a numerator ``m < 2**53`` over ``2**53``.
        Entry *i* is the smallest ``m`` whose point lies past
        ``cumulative[i]`` (``2**53`` when none does), so ``sample``
        returns the number of entries at or below ``m``.  Returns an
        int64 array of ``n`` non-decreasing entries.
        """
        cumulative = np.asarray(self._cumulative, dtype=np.float64)
        scale = 2.0 ** 53

        def past(m):
            return (m / scale) * self._total > cumulative

        m = np.minimum(np.floor(cumulative / self._total * scale), scale)
        # The estimate is a few draws off at most; walk it to the edge.
        while True:
            down = (m > 0) & past(m - 1)
            if not down.any():
                break
            m[down] -= 1
        while True:
            up = (m < scale) & ~past(m)
            if not up.any():
                break
            m[up] += 1
        return m.astype(np.int64)


class ValueSites:
    """Last-value streams for static load sites.

    Each site repeats its previous value with probability
    ``repeat_prob`` and otherwise produces a fresh one.  Running the
    16K-entry last-value predictor (confidence threshold 2) over such a
    stream yields the Correct/Wrong/No-Predict mix the paper reports in
    Table 6, with the mix controlled by ``repeat_prob``.
    """

    def __init__(self, repeat_prob):
        self.repeat_prob = repeat_prob
        self._last = {}
        self._fresh = itertools.count(FRESH_VALUE_BASE, FRESH_VALUE_STRIDE)

    def value(self, rng, site):
        """Produce the next value loaded by the static *site*."""
        last = self._last.get(site)
        if last is not None and rng.random() < self.repeat_prob:
            return last
        value = next(self._fresh)
        self._last[site] = value
        return value


class BranchSites:
    """Per-static-branch direction bias.

    A site's bias is assigned on first use: with probability
    ``predictable_fraction`` the branch is strongly biased (taken or
    not-taken with probability ``strong_bias``), otherwise it is weakly
    biased around 0.5 and will defeat gshare about half the time.
    """

    def __init__(self, predictable_fraction=0.85, strong_bias=0.96,
                 weak_bias=0.6):
        self.predictable_fraction = predictable_fraction
        self.strong_bias = strong_bias
        self.weak_bias = weak_bias
        self._bias = {}

    def outcome(self, rng, site):
        """Draw the next dynamic outcome (True = taken) of *site*."""
        bias = self._bias.get(site)
        if bias is None:
            if rng.random() < self.predictable_fraction:
                bias = self.strong_bias
            else:
                bias = self.weak_bias
            if rng.random() >= TAKEN_SIDE_PROBABILITY:
                bias = 1.0 - bias
            self._bias[site] = bias
        return rng.random() < bias

    def force_bias(self, site, bias):
        """Pin the bias of *site* (used for data-dependent branches)."""
        self._bias[site] = bias
