"""Shared infrastructure for the per-exhibit harnesses.

Traces and annotations are expensive relative to MLPsim runs, so they
are memoised per (workload, length, L2 size, seed) and shared between
exhibits within a process; every annotation of one trace shares that
trace.  Nothing outlives the process: each run generates and annotates
its own traces (both in compiled kernels, see
:mod:`repro.workloads.ckernel` and :mod:`repro.trace.ckernel`), so an
edit to a generator or to the annotator shows in the next run.

The trace length defaults to ``REPRO_TRACE_LEN`` (environment
variable) or 400,000 instructions — far below the paper's 150M, which
is why EXPERIMENTS.md compares shapes rather than absolute values.
"""

import dataclasses
import os

from repro.analysis.tables import format_table
from repro.memory.hierarchy import HierarchyConfig
from repro.robustness.errors import ConfigError
from repro.trace.annotate import AnnotationConfig, annotate
from repro.workloads import generate_trace

#: Workloads in the paper's presentation order.
WORKLOAD_NAMES = ("database", "specjbb2000", "specweb99")

#: Shorter display names for table columns.
DISPLAY_NAMES = {
    "database": "Database",
    "specjbb2000": "SPECjbb2000",
    "specweb99": "SPECweb99",
}

DEFAULT_SEED = 1234

_annotation_cache = {}


def default_trace_len():
    """Trace length used by the exhibits (REPRO_TRACE_LEN overrides)."""
    return int(os.environ.get("REPRO_TRACE_LEN", "400000"))


def get_annotated(name, trace_len=None, l2_bytes=None, seed=DEFAULT_SEED):
    """Return the (memoised) annotated trace for one workload.

    Every annotation of one (workload, length, seed) shares one
    in-memory trace; ``l2_bytes`` equal to the default L2 capacity is
    the default annotation.

    Raises
    ------
    repro.robustness.errors.ConfigError
        If *trace_len* is given but is not a positive integer.  (A
        ``trace_len=0`` must be rejected, not silently replaced by the
        default length.)
    """
    if trace_len is None:
        trace_len = default_trace_len()
    if not isinstance(trace_len, int) or isinstance(trace_len, bool) \
            or trace_len < 1:
        raise ConfigError(
            f"trace_len must be a positive integer, got {trace_len!r}",
            field="trace_len",
        )
    hierarchy = HierarchyConfig()
    if l2_bytes == hierarchy.l2.size_bytes:
        l2_bytes = None
    key = (name, trace_len, l2_bytes, seed)
    cached = _annotation_cache.get(key)
    if cached is not None:
        return cached
    if l2_bytes is not None:
        hierarchy = hierarchy.with_l2_size(l2_bytes)
    config = AnnotationConfig(hierarchy=hierarchy)
    annotated = annotate(_get_trace(name, trace_len, seed), config)
    _annotation_cache[key] = annotated
    return annotated


_trace_cache = {}


def _get_trace(name, trace_len, seed):
    """Return the (memoised) trace for one workload."""
    key = (name, trace_len, seed)
    cached = _trace_cache.get(key)
    if cached is None:
        cached = generate_trace(name, trace_len, seed=seed)
        _trace_cache[key] = cached
    return cached


def clear_caches():
    """Drop all memoised traces and annotations (tests use this)."""
    _annotation_cache.clear()
    _trace_cache.clear()


@dataclasses.dataclass
class Exhibit:
    """One reproduced table or figure.

    ``tables`` is a list of ``(title, headers, rows)`` blocks; ``notes``
    carries the paper-vs-measured commentary that EXPERIMENTS.md
    records.
    """

    name: str
    title: str
    tables: list
    notes: list = dataclasses.field(default_factory=list)
    float_format: str = ".3f"

    def format(self):
        """Render every table block plus the notes as text."""
        blocks = [f"== {self.name}: {self.title} =="]
        for title, headers, rows in self.tables:
            blocks.append(
                format_table(
                    headers, rows, float_format=self.float_format, title=title
                )
            )
        if self.notes:
            blocks.append("notes:")
            blocks.extend(f"  - {note}" for note in self.notes)
        return "\n\n".join(blocks)

    def table(self, index=0):
        """Return the rows of one table block."""
        return self.tables[index][2]

    def __str__(self):
        return self.format()
