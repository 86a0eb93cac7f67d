"""Shared infrastructure for the per-exhibit harnesses.

Traces and annotations are expensive relative to MLPsim runs, so they
are memoised per (workload, length, L2 size, seed) and shared between
exhibits within a process; every annotation of one trace shares that
trace.  Annotations are additionally disk-backed under
``benchmarks/results/.cache/`` (override with ``REPRO_CACHE_DIR``;
set it to an empty string to disable): one masks-only archive per L2
size (see :func:`cache_archives`), so repeated ``repro exhibit``
invocations stop re-annotating identical traces.  Traces are not
archived: the compiled generator (:mod:`repro.workloads.ckernel`)
makes one faster than reading it back.  The disk layer is fail-soft in
both directions — an unreadable or corrupt archive is quarantined on
its own and regenerated, an unwritable directory skips the spill.

The trace length defaults to ``REPRO_TRACE_LEN`` (environment
variable) or 400,000 instructions — far below the paper's 150M, which
is why EXPERIMENTS.md compares shapes rather than absolute values.
"""

import dataclasses
import hashlib
import logging
import os

from repro.analysis.tables import format_table
from repro.memory.hierarchy import HierarchyConfig
from repro.robustness.errors import ConfigError
from repro.trace.annotate import AnnotationConfig, annotate
from repro.trace.io import load_masks, save_masks
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

#: Subdirectory of the disk cache where corrupt entries are moved for
#: post-mortem inspection instead of being silently deleted.
QUARANTINE_DIRNAME = "quarantine"

_log = logging.getLogger("repro.cache")

_annotation_cache = {}


def default_trace_len():
    """Trace length used by the exhibits (REPRO_TRACE_LEN overrides)."""
    return int(os.environ.get("REPRO_TRACE_LEN", "400000"))


def cache_dir():
    """Directory for disk-cached annotations, or ``None`` when disabled.

    ``REPRO_CACHE_DIR`` overrides the default
    ``benchmarks/results/.cache/`` under the repository root; setting
    it to an empty string disables the disk layer entirely.
    """
    override = os.environ.get("REPRO_CACHE_DIR")
    if override is not None:
        return override if override.strip() else None
    repo_root = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)
        )))
    )
    return os.path.join(repo_root, "benchmarks", "results", ".cache")


#: Disk-cache archive kinds: one ``masks`` archive per (workload,
#: length, seed, L2 size).
CACHE_KINDS = ("masks",)

#: Archive kinds of earlier layouts, which no current loader reads: the
#: whole-annotation ``annotated`` archives and the ``trace`` archives.
RETIRED_KINDS = ("annotated", "trace")


def _schema_tag():
    """File-name tag of the current cache schema (``c<V>``)."""
    from repro.core.columnar import COLUMNAR_SCHEMA_VERSION

    return f"c{COLUMNAR_SCHEMA_VERSION}"


def cache_archives(directory, kind=None):
    """Sorted paths of the disk-cache archives in *directory*, by kind.

    *kind* is one of :data:`CACHE_KINDS` (archives of that kind written
    under the current schema), ``"stale"`` (archives no current loader
    reads: other schema versions, and every archive of the
    :data:`RETIRED_KINDS`), or ``None`` for every archive of every
    kind.
    """
    try:
        entries = sorted(os.listdir(directory))
    except OSError:
        return []
    tag = _schema_tag()
    found = []
    for entry in entries:
        prefix, _, rest = entry.partition("-")
        if not entry.endswith(".npz") or \
                prefix not in CACHE_KINDS + RETIRED_KINDS:
            continue
        current = prefix in CACHE_KINDS and rest.startswith(f"{tag}-")
        if kind is None or kind == (prefix if current else "stale"):
            found.append(os.path.join(directory, entry))
    return found


def _cache_path(kind, key):
    """Disk-cache archive path of *kind* for *key*, or ``None``."""
    directory = cache_dir()
    if directory is None:
        return None
    from repro.trace.io import FORMAT_VERSION

    _quarantine_stale_entries(directory)
    tag = _schema_tag()
    fields = ":".join(str(field) for field in key)
    digest = hashlib.sha1(
        f"v{FORMAT_VERSION}:{tag}:{kind}:{fields}".encode()
    ).hexdigest()
    return os.path.join(directory, f"{kind}-{tag}-{digest}.npz")


_stale_scan_done = set()


def _quarantine_stale_entries(directory):
    """Quarantine cache archives that no current loader reads.

    Archive filenames carry the :data:`COLUMNAR_SCHEMA_VERSION` they
    were written under (``<kind>-c<V>-<digest>.npz``); archives of
    another version, and those of the :data:`RETIRED_KINDS`, can never
    be loaded again and would otherwise rot in the cache forever.  They
    are moved to the quarantine directory (same path corrupt entries
    take) so a schema change leaves an inspectable trail instead of
    silent disk growth.
    Scans once per directory per process.
    """
    if directory in _stale_scan_done:
        return
    _stale_scan_done.add(directory)
    for path in cache_archives(directory, "stale"):
        _quarantine_cache_entry(path, "stale cache schema")


def _quarantine_cache_entry(path, error):
    """Move a corrupt cache entry aside and log a loud warning.

    A corrupt entry used to be silently unlinked, which hid recurring
    corruption (a flaky disk, a crashing writer) behind transparent
    regeneration.  Moving it to ``<cache>/quarantine/`` keeps the
    evidence, and the warning makes the pattern visible in logs.
    Falls back to deletion if the move itself fails — the entry must
    leave the cache path either way so the loader regenerates.
    """
    quarantine_dir = os.path.join(os.path.dirname(path), QUARANTINE_DIRNAME)
    target = os.path.join(quarantine_dir, os.path.basename(path))
    try:
        os.makedirs(quarantine_dir, exist_ok=True)
        os.replace(path, target)
    except OSError:
        target = None
        try:
            os.unlink(path)
        except OSError:
            pass
    _log.warning(
        "corrupt annotation cache entry %s (%s); %s and regenerating",
        path,
        error,
        f"quarantined to {target}" if target else "deleted (move failed)",
    )


def _load_cached(path, loader, *args):
    """Load one disk-cache archive with *loader*, or ``None`` on failure.

    Corrupt, truncated, or version-skewed archives must regenerate,
    not crash: the cache is an accelerator, never a source of truth.
    Only the damaged archive is quarantined (see
    :func:`_quarantine_cache_entry`), so recurring corruption stays
    visible and a bad archive costs the other L2 sizes nothing.
    """
    if path is None or not os.path.exists(path):
        return None
    try:
        return loader(path, *args)
    except Exception as error:
        _quarantine_cache_entry(path, error)
        return None


def _store_cached(path, saver, value):
    """Spill one archive to the disk cache with *saver*, fail-soft."""
    if path is None:
        return
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        saver(value, path)
    except Exception:
        pass  # unwritable cache dir: keep going without the disk layer


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
    trace = _get_trace(name, trace_len, seed)
    path = _cache_path("masks", key)
    annotated = _load_cached(path, load_masks, trace, config)
    if annotated is None:
        annotated = annotate(trace, config)
        _store_cached(path, save_masks, annotated)
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


def clear_caches(disk=False):
    """Drop all memoised traces/annotations (tests use this).

    With ``disk=True`` the on-disk archives are deleted as well; by
    default only the in-process memo is cleared.
    """
    _annotation_cache.clear()
    _trace_cache.clear()
    if disk:
        directory = cache_dir()
        for path in cache_archives(directory) if directory else ():
            try:
                os.unlink(path)
            except OSError:
                pass


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
