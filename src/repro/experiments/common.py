"""Shared infrastructure for the per-exhibit harnesses.

Traces and annotations are expensive relative to MLPsim runs, so each
(workload, length, seed) keeps one trace and its default-L2 annotation
for the life of the process, shared between exhibits.  An annotation
at any other L2 size (only Figure 7 asks for one) is built on the
memoised trace for its caller and kept nowhere, so an ``exhibit all``
holds at most the variant in use on top of the three default
annotations.  Once its default annotation exists, a memoised trace
drops the columns only annotation's front pass reads
(:data:`~repro.trace.annotate.FRONT_PASS_COLUMNS`): every later
annotation of it at another L2 size reuses the memoised front pass.
Nothing outlives the process: each run generates and annotates its
own traces (both in compiled kernels, see
:mod:`repro.workloads.ckernel` and :mod:`repro.trace.ckernel`), so an
edit to a generator or to the annotator shows in the next run.

Cycle-simulator results are memoised the same way, on the annotation
they ran on (:func:`get_cyclesim`): Tables 1, 3 and 4 and Figure 11
share configs, and each distinct one runs once per ``exhibit all``.

The trace length defaults to ``REPRO_TRACE_LEN`` (environment
variable) or 400,000 instructions — far below the paper's 150M, which
is why EXPERIMENTS.md compares shapes rather than absolute values.
"""

import dataclasses
import os

from repro.analysis.sweep import sweep_cyclesim
from repro.analysis.tables import format_table
from repro.memory.hierarchy import HierarchyConfig
from repro.robustness.errors import ConfigError
from repro.trace.annotate import FRONT_PASS_COLUMNS, AnnotationConfig, annotate
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
_trace_cache = {}


def default_trace_len():
    """Trace length used by the exhibits (REPRO_TRACE_LEN overrides)."""
    return int(os.environ.get("REPRO_TRACE_LEN", "400000"))


def get_annotated(name, trace_len=None, l2_bytes=None, seed=DEFAULT_SEED):
    """Return the annotated trace of one workload.

    The default-L2 annotation (``l2_bytes`` None or equal to the
    default L2 capacity) is memoised per (workload, length, seed), and
    its trace then drops :data:`~repro.trace.annotate.FRONT_PASS_COLUMNS`
    (reading one raises a ``TraceFormatError``).  Any other
    ``l2_bytes`` annotates the memoised trace afresh on every call, on
    its memoised front pass, and is not kept: the caller owns it, and
    dropping it frees it.

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
    trace = _get_trace(name, trace_len, seed)
    hierarchy = HierarchyConfig()
    if l2_bytes is not None and l2_bytes != hierarchy.l2.size_bytes:
        hierarchy = hierarchy.with_l2_size(l2_bytes)
        return annotate(trace, AnnotationConfig(hierarchy=hierarchy))
    key = (name, trace_len, seed)
    cached = _annotation_cache.get(key)
    if cached is None:
        cached = annotate(trace, AnnotationConfig(hierarchy=hierarchy))
        _annotation_cache[key] = cached
        trace.drop_columns(FRONT_PASS_COLUMNS)
    return cached


def get_cyclesim(annotated, pairs, workload):
    """``{label: CycleMetrics}`` of every ``(label, CycleSimConfig)``
    pair on *annotated*, each distinct config simulated once.

    Results are memoised on *annotated* (normally one of
    :func:`get_annotated`'s), so they live as long as it does.  A
    perfect-L2 config is keyed without its ``miss_penalty``, which
    neither simulator route reads for it.  The configs not yet
    memoised run in one :func:`~repro.analysis.sweep.sweep_cyclesim`
    call under their callers' labels.
    """
    memo = getattr(annotated, "_cyclesim_memo", None)
    if memo is None:
        memo = annotated._cyclesim_memo = {}
    keys = [(workload, _cyclesim_key(config)) for _, config in pairs]
    missing = {}
    for pair, key in zip(pairs, keys):
        if key not in memo:
            missing.setdefault(key, pair)
    if missing:
        results = sweep_cyclesim(annotated, list(missing.values()),
                                 workload=workload).results
        for key, (label, _) in missing.items():
            memo[key] = results[label]
    return {label: memo[key] for (label, _), key in zip(pairs, keys)}


def _cyclesim_key(config):
    """*config* as :func:`get_cyclesim` keys it: a perfect-L2 config at
    one canonical ``miss_penalty``."""
    if config.perfect_l2:
        return dataclasses.replace(config, miss_penalty=config.l2_latency + 1)
    return config


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
