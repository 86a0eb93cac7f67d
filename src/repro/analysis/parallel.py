"""Process-parallel execution backend for configuration sweeps.

A sweep runs many independent ``(label, machine)`` simulations over one
shared annotated trace, which makes it embarrassingly parallel.  This
module farms those simulations out to a :class:`ProcessPoolExecutor`:

* On platforms with ``fork`` (Linux, macOS with the fork context) the
  annotated trace is published in a module-level global before the pool
  starts, so workers inherit it copy-on-write and nothing is pickled
  per task except the small machine config and result.
* On platforms without ``fork`` the trace is spilled once to a
  temporary ``.npz`` archive (via the atomic trace writer) and each
  worker loads it in its initializer.

Results are collected in submission order, so ``SweepResult`` label
order and progress-callback order match the serial backend exactly.
A worker exception is re-raised in the parent as
:class:`~repro.robustness.errors.SimulationError` naming the failing
configuration label; remaining queued tasks are cancelled.

The worker count is resolved by :func:`resolve_jobs` from an explicit
argument or the ``REPRO_JOBS`` environment variable; ``0`` means "one
worker per CPU".  When a pool cannot be created at all the caller gets
``None`` back and silently falls back to the serial path, so a
restricted environment degrades to correct (if slower) behaviour.
"""

import concurrent.futures
import math
import multiprocessing
import os
import tempfile
import time

from repro.robustness.errors import ConfigError, SimulationError

#: Minimum estimated *remaining* sweep seconds before a process pool is
#: worth spinning up; below it the auto cutover runs serially.  Pool
#: creation plus per-task IPC costs a few hundred milliseconds, so a
#: sweep that measures cheaper than this can only lose by going wide.
SERIAL_CUTOVER_SECONDS = 1.0

#: Target wall-clock per sharded chunk of a batched parallel sweep.
#: Chunks much smaller than this drown in IPC; much bigger ones starve
#: the tail workers and coarsen journal flushes.
CHUNK_TARGET_SECONDS = 0.25

#: Annotated trace shared with workers.  Under the fork start method the
#: parent sets it right before creating the pool and clears it after the
#: sweep; forked children inherit the populated value copy-on-write.
#: Under spawn it is populated per worker by :func:`_init_from_spill`.
_WORKER_ANNOTATED = None


def resolve_jobs(jobs=None):
    """Resolve a worker count from *jobs* or the ``REPRO_JOBS`` env var.

    ``None`` falls back to ``REPRO_JOBS`` (absent or empty means serial,
    i.e. 1).  ``0`` means one worker per available CPU.  Anything that
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
        jobs = os.cpu_count() or 1
    return jobs


def _init_from_spill(path):
    """Worker initializer for spawn-style pools: load the spilled trace."""
    global _WORKER_ANNOTATED
    from repro.trace.io import load_annotated

    _WORKER_ANNOTATED = load_annotated(path)


def _run_one(label, machine, workload):
    """Simulate one configuration against the shared annotated trace."""
    from repro.core.mlpsim import simulate

    if _WORKER_ANNOTATED is None:
        raise SimulationError(
            f"sweep worker has no annotated trace for config {label!r}",
            field=label,
        )
    return simulate(_WORKER_ANNOTATED, machine, workload=workload)


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


def _make_pool(annotated, jobs):
    """Create a process pool primed with *annotated*.

    Returns ``(executor, spill_path)``; *spill_path* is the temporary
    archive to delete after the sweep (``None`` under fork).  Returns
    ``(None, None)`` when no pool can be created, signalling the caller
    to fall back to the serial backend.
    """
    ctx, spill_path = share_annotated(annotated)
    if ctx is None:
        return None, None
    kwargs = {"max_workers": jobs, "mp_context": ctx}
    if spill_path is not None:
        kwargs["initializer"] = _init_from_spill
        kwargs["initargs"] = (spill_path,)
    try:
        return concurrent.futures.ProcessPoolExecutor(**kwargs), spill_path
    except (OSError, ValueError):
        unshare_annotated(spill_path)
        return None, None


def effective_cpus():
    """CPUs the scheduler will actually give us (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def serial_cutover(n_jobs, n_pairs, per_config_seconds=None):
    """Should a ``jobs=N`` sweep fall back to the serial backend?

    The cutover triggers when parallelism cannot pay for its own
    overhead: a single effective CPU (process pools only add IPC to
    CPU-bound simulation), a grid smaller than two configs, or —
    when a measured *per_config_seconds* is available — an estimated
    remaining runtime under :data:`SERIAL_CUTOVER_SECONDS`.  This is
    what keeps ``jobs=4`` from ever being slower than ``jobs=1`` on
    small grids and keeps single-core scaling at ~1.0.
    """
    if n_jobs <= 1 or n_pairs <= 1:
        return True
    if effective_cpus() <= 1:
        return True
    if per_config_seconds is not None:
        return per_config_seconds * n_pairs < SERIAL_CUTOVER_SECONDS
    return False


def serial_sweep_results(annotated, pairs, workload, progress):
    """The serial-cutover backend: in-process, but with the parallel
    backend's error contract (label-carrying :class:`SimulationError`
    with attempt count and elapsed time), so ``jobs=N`` keeps one
    failure surface whichever backend the cutover picks.
    """
    from repro.core.mlpsim import simulate

    started = time.monotonic()
    results = {}
    for label, machine in pairs:
        try:
            results[label] = simulate(annotated, machine, workload=workload)
        except Exception as exc:
            elapsed = time.monotonic() - started
            raise SimulationError(
                f"sweep config {label!r} failed"
                f" (attempt 1, after {elapsed:.1f}s): {exc}",
                field=label,
            ) from exc
        if progress is not None:
            progress(label)
    return results


def measure_config_cost(run_one):
    """Time one configuration; returns ``(result, seconds)``.

    The measurement doubles as real work — the caller merges the
    result instead of re-running the config — so the cutover estimate
    is free.
    """
    started = time.perf_counter()
    result = run_one()
    return result, time.perf_counter() - started


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


def _run_plan_chunk(handle, chunk, workload):
    """Worker: attach the shared plan and run one chunk of configs.

    The compiled kernel reads its columns straight out of the shared
    mapping — the only pickles per task are the machine configs in and
    the results out.
    """
    from repro.analysis.shm import attach_plan
    from repro.core import ckernel

    attached = attach_plan(handle)
    try:
        return ckernel.run_plan(attached.plan, chunk, workload)
    finally:
        attached.close()


def batched_parallel_sweep(annotated, pairs, workload, progress, jobs,
                           journal=None, seed=None, trace_len=None):
    """Zero-copy parallel sweep of *pairs* on the compiled kernel.

    The parent builds one columnar plan per event-mask group, publishes
    each through :mod:`repro.analysis.shm`, measures the per-config
    kernel cost on the first config, shards the rest into chunks of
    roughly :data:`CHUNK_TARGET_SECONDS`, and fans the chunks out to a
    worker pool.  Configs outside the kernel's envelope (runahead) run
    on the scalar engine in the parent.  Chunk results are flushed
    through *journal* (a :class:`~repro.robustness.journal.SweepJournal`)
    as they arrive, so a crash loses at most one chunk of work.

    Returns ``{label: MLPResult}`` in grid order, or ``None`` when no
    config can use the kernel or no pool can be created (callers fall
    back to the serial batched path).  Progress callbacks fire in grid
    order once all results are in — the same order the serial backend
    reports.  Shared segments are unlinked in ``finally``, whether the
    sweep succeeded, raised, or lost workers.
    """
    from repro.analysis.shm import publish_plan, unpublish_plan
    from repro.core.batched import batched_supported, simulate_batched
    from repro.core.columnar import mask_key, plan_for
    from repro.core.mlpsim import simulate

    groups = {}
    scalar_pairs = []
    for label, machine in pairs:
        if batched_supported(machine):
            groups.setdefault(mask_key(machine), []).append((label, machine))
        else:
            scalar_pairs.append((label, machine))
    if not groups:
        return None

    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        ctx = multiprocessing.get_context("spawn")

    results = {
        label: simulate(annotated, machine, workload=workload)
        for label, machine in scalar_pairs
    }
    started = time.monotonic()
    # Measure the per-config cost on the first config of the first
    # group; the result is kept, so calibration is free work.
    first_key = next(iter(groups))
    first_label, first_machine = groups[first_key][0]
    first_result, cost = measure_config_cost(
        lambda: simulate_batched(
            annotated, first_machine, workload=workload, _validate=False
        )
    )
    results[first_label] = first_result
    remaining = {
        key: [p for p in group if p[0] != first_label]
        for key, group in groups.items()
    }

    handles = {}
    executor = None
    try:
        for key, group in remaining.items():
            if group:
                handles[key] = publish_plan(
                    plan_for(annotated, group[0][1])
                )
        tasks = []
        for key, group in remaining.items():
            for chunk in shard_pairs(group, cost, jobs):
                tasks.append((handles[key], chunk))
        if tasks:
            try:
                executor = concurrent.futures.ProcessPoolExecutor(
                    max_workers=min(jobs, len(tasks)), mp_context=ctx
                )
            except (OSError, ValueError):
                return None
            futures = [
                (chunk, executor.submit(
                    _run_plan_chunk, handle, chunk, workload
                ))
                for handle, chunk in tasks
            ]
            for chunk, future in futures:
                labels = ", ".join(label for label, _ in chunk)
                try:
                    chunk_results = future.result()
                except Exception as exc:
                    elapsed = time.monotonic() - started
                    if executor is not None:
                        executor.shutdown(wait=False, cancel_futures=True)
                    raise SimulationError(
                        f"sweep worker failed for configs [{labels}]"
                        f" (attempt 1, after {elapsed:.1f}s): {exc}",
                        field=chunk[0][0],
                    ) from exc
                results.update(chunk_results)
                if journal is not None:
                    _flush_chunk(
                        journal, chunk, chunk_results, workload,
                        seed, trace_len, time.monotonic() - started,
                    )
    finally:
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)
        for handle in handles.values():
            unpublish_plan(handle)

    ordered = {label: results[label] for label, _ in pairs}
    if progress is not None:
        for label in ordered:
            progress(label)
    return ordered


def _run_cycle_chunk(handle, chunk, workload):
    """Worker: attach the shared cycle plan and run one config chunk.

    The compiled cyclesim kernel reads the per-instruction tables
    straight out of the shared mapping — the only pickles per task are
    the pipeline configs in and the
    :class:`~repro.cyclesim.metrics.CycleMetrics` out.
    """
    from repro.analysis.shm import attach_plan
    from repro.cyclesim import ckernel

    attached = attach_plan(handle)
    try:
        return ckernel.run_cycle_plan(attached.plan, chunk, workload)
    finally:
        attached.close()


def cyclesim_parallel_sweep(annotated, pairs, workload, progress, jobs,
                            journal=None, seed=None, trace_len=None):
    """Zero-copy parallel sweep of cyclesim ``(label, config)`` *pairs*
    on the compiled kernel (callers check it is available).

    The cyclesim twin of :func:`batched_parallel_sweep`, one notch
    simpler: the cycle plan never depends on the configuration (no
    event-mask groups — ``perfect_l2`` is an access-time knob), so one
    published plan serves the entire grid.  The parent measures the
    per-config cost on the first config, shards the rest into chunks of
    roughly :data:`CHUNK_TARGET_SECONDS`, fans them out, and flushes
    results through *journal* as chunks land.

    Returns ``{label: CycleMetrics}`` in grid order, or ``None`` when
    no pool can be created (callers fall back to the serial path).
    The shared segment is unlinked in ``finally`` whatever happens.
    """
    from repro.analysis.shm import publish_plan, unpublish_plan
    from repro.cyclesim.plan import cycle_plan_for
    from repro.cyclesim.simulator import run_cyclesim

    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        ctx = multiprocessing.get_context("spawn")

    results = {}
    started = time.monotonic()
    # Calibration doubles as real work: the first config's result is
    # kept, and running it in the parent also builds (and memoises)
    # the plan every chunk will share.
    first_label, first_config = pairs[0]
    first_result, cost = measure_config_cost(
        lambda: run_cyclesim(annotated, first_config, workload=workload)
    )
    results[first_label] = first_result
    remaining = [p for p in pairs if p[0] != first_label]

    handle = None
    executor = None
    try:
        chunks = shard_pairs(remaining, cost, jobs)
        if chunks:
            handle = publish_plan(cycle_plan_for(annotated))
            try:
                executor = concurrent.futures.ProcessPoolExecutor(
                    max_workers=min(jobs, len(chunks)), mp_context=ctx
                )
            except (OSError, ValueError):
                return None
            futures = [
                (chunk, executor.submit(
                    _run_cycle_chunk, handle, chunk, workload
                ))
                for chunk in chunks
            ]
            for chunk, future in futures:
                labels = ", ".join(label for label, _ in chunk)
                try:
                    chunk_results = future.result()
                except Exception as exc:
                    elapsed = time.monotonic() - started
                    executor.shutdown(wait=False, cancel_futures=True)
                    raise SimulationError(
                        f"sweep worker failed for configs [{labels}]"
                        f" (attempt 1, after {elapsed:.1f}s): {exc}",
                        field=chunk[0][0],
                    ) from exc
                results.update(chunk_results)
                if journal is not None:
                    _flush_chunk(
                        journal, chunk, chunk_results, workload,
                        seed, trace_len, time.monotonic() - started,
                    )
    finally:
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)
        unpublish_plan(handle)

    ordered = {label: results[label] for label, _ in pairs}
    if progress is not None:
        for label in ordered:
            progress(label)
    return ordered


def _flush_chunk(journal, chunk, chunk_results, workload, seed, trace_len,
                 elapsed):
    """Append one chunk's results to the sweep journal, fail-soft."""
    from repro.robustness.journal import config_key

    per_config = elapsed / max(len(chunk), 1)
    for label, machine in chunk:
        try:
            key = config_key(workload, seed, trace_len, machine)
            journal.record_attempt(key, label, 1)
            journal.record_result(
                key, label, 1, per_config, chunk_results[label]
            )
        except Exception:
            pass  # journalling is an aid; never fail the sweep over it


def parallel_sweep_results(annotated, pairs, workload, progress, jobs):
    """Run ``(label, machine)`` *pairs* on a pool of *jobs* workers.

    Returns ``{label: MLPResult}`` in submission order, or ``None`` if
    a worker pool could not be created (the caller then runs serially).
    A failing worker raises :class:`SimulationError` naming the label
    of the configuration that failed, the attempt count (always 1 on
    this unsupervised backend — ``repro.robustness.supervisor`` is the
    retrying layer) and the elapsed wall-clock time, so a failure in a
    long campaign is diagnosable from the one-line message.
    """
    executor, spill_path = _make_pool(annotated, jobs)
    if executor is None:
        return None
    started = time.monotonic()
    try:
        with executor:
            futures = [
                (label, executor.submit(_run_one, label, machine, workload))
                for label, machine in pairs
            ]
            results = {}
            for label, future in futures:
                try:
                    results[label] = future.result()
                except concurrent.futures.process.BrokenProcessPool as exc:
                    elapsed = time.monotonic() - started
                    raise SimulationError(
                        f"sweep worker died running config {label!r}"
                        f" (attempt 1, after {elapsed:.1f}s): {exc}",
                        field=label,
                    ) from exc
                except Exception as exc:
                    executor.shutdown(wait=False, cancel_futures=True)
                    elapsed = time.monotonic() - started
                    raise SimulationError(
                        f"sweep worker failed for config {label!r}"
                        f" (attempt 1, after {elapsed:.1f}s): {exc}",
                        field=label,
                    ) from exc
                if progress is not None:
                    progress(label)
            return results
    finally:
        unshare_annotated(spill_path)
