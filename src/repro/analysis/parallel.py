"""Worker-count, trace-sharing and chunking policy for sweeps.

Every sweep runs on the one executor in
:mod:`repro.robustness.supervisor`; this module holds the policy that
executor consults:

* :func:`resolve_jobs` turns an explicit argument or the ``REPRO_JOBS``
  environment variable into a worker count (``0`` means "one worker
  per usable CPU", the affinity-aware
  :func:`repro.cbuild.effective_cpus`);
* :func:`serial_cutover` decides when an unsupervised ``jobs=N``
  sweep's scalar-route configs should not start a pool at all (its
  kernel chunks never do);
* :func:`share_annotated` hands the annotated trace to workers: on
  platforms with ``fork`` it is parked in a module global the children
  inherit copy-on-write; elsewhere it is spilled once to a temporary
  ``.npz`` archive each worker loads;
* :func:`shard_pairs` cuts a compiled-kernel route's configs into
  chunks sized by their measured per-config cost;
* :func:`batched_parallel_sweep` is the pool step: it publishes each
  kernel route's plan through :mod:`repro.analysis.shm`, runs the pool
  and unpublishes every plan in ``finally``.
"""

import math
import multiprocessing
import os
import tempfile

from repro.cbuild import effective_cpus
from repro.robustness.errors import ConfigError

#: Target wall-clock per sharded chunk of a kernel route.  Chunks much
#: smaller than this drown in IPC; much bigger ones starve the tail
#: workers and coarsen journal flushes.
CHUNK_TARGET_SECONDS = 0.25

#: Annotated trace shared with workers.  Under the fork start method the
#: parent sets it right before creating the pool and clears it after the
#: sweep; forked children inherit the populated value copy-on-write.
#: Spawned workers load the spill archive instead.
_WORKER_ANNOTATED = None


def resolve_jobs(jobs=None):
    """Resolve a worker count from *jobs* or the ``REPRO_JOBS`` env var.

    ``None`` falls back to ``REPRO_JOBS`` (absent or empty means serial,
    i.e. 1).  ``0`` means one worker per usable CPU: the affinity
    mask, so ``taskset`` and cpusets count.  Anything that
    is not a non-negative integer raises
    :class:`~repro.robustness.errors.ConfigError`.
    """
    if jobs is None:
        env = os.environ.get("REPRO_JOBS")
        if env is None or not env.strip():
            return 1
        try:
            jobs = int(env.strip())
        except ValueError:
            raise ConfigError(
                f"REPRO_JOBS must be an integer, got {env!r}",
                field="REPRO_JOBS",
            ) from None
    if isinstance(jobs, bool) or not isinstance(jobs, int):
        raise ConfigError(
            f"jobs must be an integer, got {jobs!r}", field="jobs"
        )
    if jobs < 0:
        raise ConfigError(
            f"jobs must be non-negative, got {jobs}", field="jobs"
        )
    if jobs == 0:
        jobs = effective_cpus()
    return jobs


def share_annotated(annotated):
    """Publish *annotated* for worker processes; returns ``(ctx, spill)``.

    Preferred path: the ``fork`` start method, with the trace parked in
    the module global so children inherit it copy-on-write (``spill``
    is ``None``).  Platforms without fork get the ``spawn`` context and
    a temporary ``.npz`` spill each worker must load.  ``(None, None)``
    means no multiprocessing context is usable at all and the caller
    should run serially.  Balance every successful call with
    :func:`unshare_annotated`.
    """
    global _WORKER_ANNOTATED
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        ctx = None
    if ctx is not None:
        _WORKER_ANNOTATED = annotated
        return ctx, None
    spill_path = None
    try:
        from repro.trace.io import save_annotated

        fd, spill_path = tempfile.mkstemp(
            prefix="repro-sweep-", suffix=".npz"
        )
        os.close(fd)
        save_annotated(annotated, spill_path)
        return multiprocessing.get_context("spawn"), spill_path
    except (OSError, ValueError):
        if spill_path is not None:
            try:
                os.unlink(spill_path)
            except OSError:
                pass
        return None, None


def unshare_annotated(spill_path):
    """Drop the shared trace and delete the spill archive, if any."""
    global _WORKER_ANNOTATED
    _WORKER_ANNOTATED = None
    if spill_path is not None:
        try:
            os.unlink(spill_path)
        except OSError:
            pass


def serial_cutover(n_jobs, n_pairs):
    """Should an unsupervised ``jobs=N`` sweep run its *n_pairs*
    scalar-route configs in-process rather than on a pool?

    Only scalar-route configs (the oracles: no ``cc``,
    ``engine="scalar"``, or machines outside the kernel contract) are
    ever offered to an unsupervised pool; kernel chunks always run
    in-process, where :func:`repro.cbuild.run_slices` already spreads
    each batch over every usable CPU.  The cutover fires when a pool
    cannot help those configs at all: ``jobs <= 1``, a single effective
    CPU (process pools only add IPC to CPU-bound simulation) or fewer
    than two configs.
    """
    return n_jobs <= 1 or n_pairs <= 1 or effective_cpus() <= 1


def shard_pairs(pairs, per_config_seconds, jobs):
    """Split *pairs* into chunks sized by measured per-config cost.

    Each chunk aims for :data:`CHUNK_TARGET_SECONDS` of kernel time but
    never exceeds an even ``len(pairs) / jobs`` split, so every worker
    gets work even when configs are expensive, and cheap configs are
    batched into few kernel calls instead of thousands of tasks.
    """
    if not pairs:
        return []
    cost = max(per_config_seconds, 1e-6)
    by_cost = max(1, int(CHUNK_TARGET_SECONDS / cost))
    by_balance = math.ceil(len(pairs) / max(jobs, 1))
    chunk = max(1, min(by_cost, by_balance))
    return [pairs[i:i + chunk] for i in range(0, len(pairs), chunk)]


def batched_parallel_sweep(plans, run_pool):
    """The pool step of a sweep: publish, run, unpublish.

    Publishes each compiled-kernel plan in *plans* once through
    :mod:`repro.analysis.shm`, then calls ``run_pool(handles)`` with
    the handles in the same order (an all-scalar grid publishes
    nothing).  Workers attach zero-copy; the only pickles per task are
    the configs in and the results out.  Every published segment is
    unlinked in ``finally``, whether the pool drained, raised, or lost
    workers to SIGKILL.  Returns what *run_pool* returns.
    """
    from repro.analysis.shm import publish_plan, unpublish_plan

    handles = []
    try:
        for plan in plans:
            handles.append(publish_plan(plan))
        return run_pool(handles)
    finally:
        for handle in handles:
            unpublish_plan(handle)
