"""Window termination conditions and epoch-inhibitor accounting.

Figure 5 of the paper charges every epoch to the condition that
prevented more MLP from being uncovered in it.  We reproduce the same
categories:

* ``IMISS_START`` — the epoch trigger was a missing instruction fetch
  (fetch is blocking, nothing can overlap);
* ``MAXWIN`` — the issue window or reorder buffer filled;
* ``MISPRED_BR`` — an unresolvable mispredicted branch (dependent on a
  missing load of the epoch) sent fetch down the wrong path;
* ``IMISS_END`` — a data access triggered the epoch but a missing
  instruction fetch stopped it;
* ``MISSING_LOAD`` — an unissued older load/store blocked a would-be
  off-chip load (only possible under issue configuration A);
* ``DEP_STORE`` — a store with an unresolved (miss-dependent) address
  blocked a would-be off-chip load (configurations A and B);
* ``SERIALIZE`` — a serializing instruction drained the pipeline;
* ``RUNAHEAD_LIMIT`` — the runahead machine hit its maximum runahead
  distance (the analogue of MAXWIN);
* ``MSHR_LIMIT`` — the MSHR file filled: no further off-chip access
  could issue this epoch (extension; folded into MAXWIN in the
  Figure 5 display);
* ``STORE_BUFFER`` — a missing store could not get a store-buffer entry
  (the Section 7 "store MLP" future work; also folded into MAXWIN);
* ``END_OF_TRACE`` — the trace ran out (bookkeeping, excluded from the
  paper-style breakdown).

When several conditions occur in one epoch the epoch is charged to the
*earliest in program order*, because that is the one that actually
capped this epoch's MLP.
"""

import enum


class Inhibitor(enum.Enum):
    """Why an epoch could not uncover more MLP."""

    IMISS_START = "imiss_start"
    MAXWIN = "maxwin"
    MISPRED_BR = "mispred_br"
    IMISS_END = "imiss_end"
    MISSING_LOAD = "missing_load"
    DEP_STORE = "dep_store"
    SERIALIZE = "serialize"
    RUNAHEAD_LIMIT = "runahead_limit"
    MSHR_LIMIT = "mshr_limit"
    STORE_BUFFER = "store_buffer"
    END_OF_TRACE = "end_of_trace"


#: Display order used by the Figure 5 reproduction.
FIGURE5_ORDER = (
    Inhibitor.IMISS_START,
    Inhibitor.MAXWIN,
    Inhibitor.MISPRED_BR,
    Inhibitor.IMISS_END,
    Inhibitor.MISSING_LOAD,
    Inhibitor.DEP_STORE,
    Inhibitor.SERIALIZE,
)


#: Every inhibitor, in definition order.
_INHIBITORS = tuple(Inhibitor)


class InhibitorCounts:
    """Per-epoch inhibitor tally."""

    def __init__(self):
        self._counts = {inhibitor: 0 for inhibitor in Inhibitor}

    def record(self, inhibitor):
        """Charge one epoch to *inhibitor*."""
        self._counts[inhibitor] += 1

    def __getitem__(self, inhibitor):
        return self._counts[inhibitor]

    def total(self, include_end_of_trace=False):
        """Number of charged epochs (END_OF_TRACE excluded by default)."""
        total = sum(self._counts.values())
        if not include_end_of_trace:
            total -= self._counts[Inhibitor.END_OF_TRACE]
        return total

    def fractions(self):
        """Return the Figure 5 breakdown: {inhibitor: fraction of epochs}.

        ``END_OF_TRACE`` epochs are excluded, matching the paper's
        averaging over all (real) epochs.
        """
        total = self.total()
        if not total:
            return {inhibitor: 0.0 for inhibitor in FIGURE5_ORDER}
        counts = dict(self._counts)
        # Structure-limit variants fold into MAXWIN for the paper-style
        # display; as_dict() exposes the raw split.
        counts[Inhibitor.MAXWIN] += counts.pop(Inhibitor.RUNAHEAD_LIMIT)
        counts[Inhibitor.MAXWIN] += counts.pop(Inhibitor.MSHR_LIMIT)
        counts[Inhibitor.MAXWIN] += counts.pop(Inhibitor.STORE_BUFFER)
        return {
            inhibitor: counts[inhibitor] / total for inhibitor in FIGURE5_ORDER
        }

    def as_dict(self):
        """Raw per-inhibitor counts (no folding)."""
        return dict(self._counts)

    @classmethod
    def from_dict(cls, counts):
        """Rebuild a tally from a mapping keyed by inhibitor or value.

        Accepts both the :meth:`as_dict` form (:class:`Inhibitor` keys)
        and its JSON projection (``inhibitor.value`` string keys), so a
        journalled result restores to exactly the tally it came from.
        """
        tally = cls()
        for inhibitor in Inhibitor:
            count = counts.get(inhibitor, counts.get(inhibitor.value, 0))
            tally._counts[inhibitor] = int(count)
        return tally

    @classmethod
    def from_counts(cls, counts):
        """A tally of *counts*, one per inhibitor in :class:`Inhibitor`
        order (the compiled kernel's ``INH_*`` order)."""
        tally = cls()
        tally._counts = dict(zip(_INHIBITORS, counts))
        return tally

    def __eq__(self, other):
        if not isinstance(other, InhibitorCounts):
            return NotImplemented
        return self._counts == other._counts

    def __repr__(self):
        charged = {
            inhibitor.value: count
            for inhibitor, count in self._counts.items()
            if count
        }
        return f"InhibitorCounts({charged})"
