"""The one sweep executor, and crash-safe supervision on top of it.

Every sweep — :func:`repro.analysis.sweep.sweep` and
:func:`~repro.analysis.sweep.sweep_cyclesim`, serial or ``jobs=N``,
supervised or not — runs here.  The executor's task is a *chunk*: a
run of grid points that share one *route*.  A route is either one
compiled-kernel plan (an MLPsim mask group's columnar plan, or the
cycle plan), so a chunk is one kernel-driver call, or the scalar route (the
MLPsim oracles or the frozen cyclesim reference), whose chunks hold
one config each.  ``engine="scalar"``, machines outside the
kernel's contracted ranges, test stand-in configs and hosts without
``cc`` take the scalar route.

* **In-process**: each kernel route runs as one chunk — one driver
  call, :func:`repro.core.ckernel.run_plan` or
  :func:`repro.cyclesim.ckernel.run_cycle_plan`, which splits it into
  one kernel call per usable CPU on threads of this process — and each
  scalar config as its own.  An unsupervised sweep runs every kernel
  chunk here whatever ``jobs`` says: the threaded batch already uses
  the CPUs a pool would, without its start-up and IPC.  So does every
  chunk of a ``jobs=1`` sweep, the scalar configs the serial cutover
  keeps, and whatever a degraded pool leaves.
* **Pool** (``jobs>1``): it runs every chunk of a supervised sweep, for
  which it is the isolation boundary, and an unsupervised sweep's
  scalar configs unless :func:`repro.analysis.parallel.serial_cutover`
  fires on their count.  Those pooled chunks start only after the
  in-process ones have finished, so no kernel helper thread is alive
  when the pool forks.  Each kernel route's plan is published once
  through :mod:`repro.analysis.shm`
  (:func:`repro.analysis.parallel.batched_parallel_sweep`).  Until a
  route's per-config cost is known its grid points go out one per task;
  the first such task's wall time in the worker is the measurement, and
  :func:`repro.analysis.parallel.shard_pairs` cuts the route's
  remaining configs from it.  The parent simulates nothing while the
  pool is up, and each worker runs a chunk as one kernel call on its
  own thread.

The pool is deliberately not the standard library's executor pool,
which cannot kill a single hung worker without abandoning the whole
pool and discards every queued task once one worker dies.  The executor
manages ``multiprocessing`` processes directly — one chunk in flight
per worker, one duplex pipe per worker for chunks out and results
back — which is exactly the control needed to time out, kill and
replace one worker while the rest keep simulating.  The annotated trace reaches workers
through :func:`repro.analysis.parallel.share_annotated` (fork inherits
it copy-on-write; spawn platforms load a one-time ``.npz`` spill).

Unsupervised sweeps get no journal, no timeout and no retry: the first
failure shuts the pool down and raises
:class:`~repro.robustness.errors.SimulationError` naming the failed
label(s), the attempt and the elapsed time.

:func:`supervised_sweep` assumes *everything* can fail mid-flight:

* every dispatch and completion is journalled (append-only, fsynced —
  :mod:`repro.robustness.journal`), so an interrupted sweep resumes
  re-executing only configurations the journal marks unfinished;
* each chunk runs under a wall-clock budget of ``config_timeout`` per
  config; a hung chunk is SIGKILLed out of its worker (pool) or
  SIGALRMed (serial);
* a chunk that raises, hangs or loses its worker (SIGKILL, the OOM
  killer) charges each of its configs one attempt; those with attempts
  left are requeued as single-config tasks after bounded exponential
  backoff, which isolates a poison config in one step, and a
  replacement worker is spawned — the grid keeps draining;
* a configuration that keeps failing is moved to a dead-letter
  *quarantine* after ``max_retries`` retries and reported at the end,
  fail-soft — one poison config cannot sink the campaign;
* a pool that keeps collapsing (too many worker replacements) degrades
  to the serial loop for the remaining work.

Determinism: both simulators are pure functions of ``(annotated,
config)``, and every route is bit-identical to its frozen oracle, so
chunking, retries, worker replacement, resume-from-journal and serial
degradation all produce results bit-identical to a clean serial sweep
— ``tests/test_chaos.py`` proves it under injected process faults.
"""

import collections
import contextlib
import dataclasses
import math
import multiprocessing.connection
import os
import signal
import threading
import time

from repro.analysis import parallel
from repro.analysis.sweep import SweepResult, check_engine
from repro.cbuild import pin_kernel_threads
from repro.robustness.errors import (
    ConfigError,
    ExhibitTimeout,
    SimulationError,
    SweepTimeout,
)
from repro.robustness.faults import ProcessFaultPlan
from repro.robustness.journal import (
    SweepJournal,
    config_key,
    result_from_payload,
)

#: How long the pool loop waits for worker results per iteration;
#: also the granularity of deadline/death checks.
_POLL_SECONDS = 0.05

#: Grace period for joining a worker we just killed.
_KILL_JOIN_SECONDS = 5.0


@contextlib.contextmanager
def wall_clock_deadline(seconds, make_error):
    """Raise ``make_error(seconds)`` if the body runs past *seconds*.

    SIGALRM-based, so it engages only on platforms that have it and in
    the main thread; elsewhere the body runs unbounded (callers must
    fail-soft on ordinary exceptions regardless).  Nesting is safe: a
    suspended outer deadline is re-armed with its remaining budget when
    the inner one exits.
    """
    usable = (
        seconds is not None
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _expired(signum, frame):
        raise make_error(seconds)

    previous = signal.signal(signal.SIGALRM, _expired)
    outer_remaining, _ = signal.setitimer(signal.ITIMER_REAL, seconds)
    started = time.monotonic()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
        if outer_remaining:
            resumed = outer_remaining - (time.monotonic() - started)
            signal.setitimer(signal.ITIMER_REAL, max(resumed, 1e-6))


def _check_field(name, value, types, what, positive=False,
                 ceiling=math.inf):
    """Raise :class:`ConfigError` unless *value* is a finite,
    non-negative (or, with *positive*, positive) instance of *types*
    no larger than *ceiling*; bools are never numbers here."""
    if (isinstance(value, bool) or not isinstance(value, types)
            or (isinstance(value, float) and not math.isfinite(value))
            or value < 0 or (positive and value == 0)
            or value > ceiling):
        raise ConfigError(f"{name} must be {what}, got {value!r}",
                          field=name)


@dataclasses.dataclass(frozen=True)
class SupervisorPolicy:
    """Retry, timeout and degradation policy for one supervised sweep.

    ``max_retries`` is the number of *re*-executions after the first
    attempt, so a config runs at most ``max_retries + 1`` times before
    quarantine.  ``config_timeout`` bounds one attempt's wall-clock
    seconds per config — a chunk of *n* configs gets *n* times that
    (``None`` = unbounded: hangs are then unrecoverable, so long
    campaigns should always set one).  The serial loop arms it with
    ``setitimer``, which cannot hold more than
    ``threading.TIMEOUT_MAX`` seconds.  Backoff before retry *n* is
    ``min(backoff_cap, backoff_base * 2**(n-1))`` seconds —
    deterministic, no jitter, keeping chaos runs reproducible.
    ``pool_failure_limit`` is how many worker replacements (deaths or
    timeout kills) the pool tolerates before degrading the remaining
    grid to the serial loop.
    """

    max_retries: int = 2
    config_timeout: float = None
    backoff_base: float = 0.5
    backoff_cap: float = 30.0
    pool_failure_limit: int = 16

    def __post_init__(self):
        for name in ("max_retries", "pool_failure_limit"):
            _check_field(name, getattr(self, name), int,
                         "a non-negative integer")
        for name in ("backoff_base", "backoff_cap"):
            _check_field(name, getattr(self, name), (int, float),
                         "a non-negative finite number")
        if self.config_timeout is not None:
            _check_field(
                "config_timeout", self.config_timeout, (int, float),
                f"positive seconds up to {threading.TIMEOUT_MAX:g},"
                " or None", positive=True, ceiling=threading.TIMEOUT_MAX,
            )

    @property
    def attempts_allowed(self):
        return self.max_retries + 1

    def backoff_delay(self, failed_attempts):
        """Seconds to wait before the next attempt."""
        if not self.backoff_base:
            return 0.0
        return min(
            self.backoff_cap,
            self.backoff_base * (2.0 ** (failed_attempts - 1)),
        )


@dataclasses.dataclass
class QuarantinedConfig:
    """One dead-lettered grid point of a supervised sweep."""

    label: str
    key: str
    attempts: int
    error: str

    def describe(self):
        """One human-readable line for the quarantine report."""
        return (
            f"{self.label}: quarantined after {self.attempts}"
            f" attempt(s); last error: {self.error}"
        )


@dataclasses.dataclass
class SupervisedSweepResult(SweepResult):
    """A :class:`SweepResult` plus the supervision outcome.

    ``results`` holds every configuration that finished (restored from
    the journal or executed this run) in grid order; quarantined
    configurations are absent from it and listed in ``quarantined``.
    """

    quarantined: list = dataclasses.field(default_factory=list)
    resumed: int = 0            #: configs restored from the journal
    executed: int = 0           #: configs simulated in this run
    worker_replacements: int = 0
    degraded_to_serial: bool = False

    @property
    def complete(self):
        """True when every grid point produced a result."""
        return not self.quarantined

    def quarantine_report(self):
        """One line per dead-lettered config (empty string when none)."""
        return "\n".join(q.describe() for q in self.quarantined)


class _Route:
    """One compiled-kernel plan and its measured per-config cost."""

    __slots__ = ("plan", "cost")

    def __init__(self, plan):
        self.plan = plan
        self.cost = None  # seconds per config, once a worker measured it


class _Task:
    """Parent-side bookkeeping for one grid point.

    ``route`` is the task's :class:`_Route`, or ``None`` for the scalar
    route.
    """

    __slots__ = ("index", "label", "machine", "key", "attempts",
                 "not_before", "last_error", "route", "finished")

    def __init__(self, index, label, machine, key=None, attempts=0):
        self.index = index
        self.label = label
        self.machine = machine
        self.key = key
        self.attempts = attempts
        self.not_before = 0.0
        self.last_error = None
        self.route = None
        self.finished = False


class _Worker:
    """Parent-side handle for one pool worker process.

    ``conn`` is the parent's end of the worker's duplex pipe: chunks go
    out on it and results come back on it.
    """

    __slots__ = ("process", "conn", "chunk", "deadline", "started")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        self.chunk = None
        self.deadline = None
        self.started = None


def _assign_routes(annotated, tasks, engine):
    """Give every task its route.

    A ``MachineConfig`` the MLPsim kernel accepts (built, config inside
    the contracted ranges, ``engine`` not ``"scalar"``), runahead or
    not, shares its mask group's columnar plan; a ``CycleSimConfig``
    the cyclesim kernel accepts (built, config inside the contracted
    ranges) shares the cycle plan.  Everything else stays on the scalar
    route.  The trace is validated once, before the first plan is built
    from it.
    """
    from repro.core.ckernel import batched_supported
    from repro.core.columnar import mask_key, plan_for
    from repro.core.config import MachineConfig
    from repro.cyclesim import ckernel as cycle_ckernel
    from repro.cyclesim.config import CycleSimConfig
    from repro.cyclesim.plan import cycle_plan_for
    from repro.robustness.validate import validate_annotated

    routes = {}
    for task in tasks:
        machine = task.machine
        if isinstance(machine, CycleSimConfig):
            if not (cycle_ckernel.kernel_available()
                    and cycle_ckernel.in_contract(machine)):
                continue
            key = "cyclesim"
        elif (isinstance(machine, MachineConfig) and engine != "scalar"
                and batched_supported(machine)):
            key = mask_key(machine)
        else:
            continue
        if key not in routes:
            if not routes:
                validate_annotated(annotated, check_events=False)
            routes[key] = _Route(
                cycle_plan_for(annotated) if key == "cyclesim"
                else plan_for(annotated, machine)
            )
        task.route = routes[key]


def _run_chunk(annotated, plan, pairs, workload):
    """Simulate one chunk of ``(label, config)`` *pairs*.

    With a kernel *plan* the chunk is one call of the driver of the
    entry point the plan feeds; with ``None`` it is one config on the
    scalar route.  Returns ``{label: result}``.
    """
    if plan is None:
        from repro.core.mlpsim import simulate_oracle
        from repro.cyclesim.config import CycleSimConfig
        from repro.cyclesim.simulator import run_cyclesim

        (label, config), = pairs
        if isinstance(config, CycleSimConfig):
            return {label: run_cyclesim(annotated, config, workload=workload)}
        return {label: simulate_oracle(annotated, config, workload=workload)}
    if plan.entry == "cyclesim_batch":
        from repro.cyclesim.ckernel import run_cycle_plan

        return run_cycle_plan(plan, pairs, workload)
    from repro.core.ckernel import run_plan

    return run_plan(plan, pairs, workload)


def _attach_and_run(annotated, handle, pairs, workload):
    """Worker side of :func:`_run_chunk`: attach the published plan."""
    if handle is None:
        return _run_chunk(annotated, None, pairs, workload)
    from repro.analysis.shm import attach_plan

    attached = attach_plan(handle)
    try:
        return _run_chunk(annotated, attached.plan, pairs, workload)
    finally:
        attached.close()


def _worker_main(conn, spill_path, fault_spec, workload):
    """Pool worker loop: take a chunk, simulate it, return the results.

    Runs in a child process and talks to the parent over *conn*.  The
    annotated trace arrives either copy-on-write through the module
    global (fork) or from the spilled archive (spawn).  The fault plan
    re-parses from its spec string so chaos schedules survive any start
    method.  A ``None`` task is the shutdown sentinel.  Each result
    carries the chunk's simulation seconds, the executor's per-config
    cost measurement.  The pool already runs one process per job, so
    each chunk is one kernel call on this worker's thread.
    """
    pin_kernel_threads()
    if spill_path is not None:
        from repro.trace.io import load_annotated

        annotated = load_annotated(spill_path)
    else:
        annotated = parallel._WORKER_ANNOTATED
    faults = ProcessFaultPlan.parse(fault_spec)
    while True:
        item = conn.recv()
        if item is None:
            return
        handle, chunk = item
        try:
            for label, _, attempt in chunk:
                faults.apply_in_worker(label, attempt)
            started = time.monotonic()
            results = _attach_and_run(
                annotated, handle,
                [(label, config) for label, config, _ in chunk], workload,
            )
            seconds = time.monotonic() - started
        except Exception as exc:
            conn.send((False, f"{type(exc).__name__}: {exc}", 0.0))
        else:
            conn.send((True, results, seconds))


class _SweepState:
    """Run state of one sweep, shared by the pool and the serial loop.

    ``policy`` is ``None`` for an unsupervised sweep: no journal, no
    timeout, no retry — :meth:`fail` raises.  *tasks* are the grid
    points this run executes, in grid order.
    """

    def __init__(self, tasks, workload, progress, policy=None,
                 faults=None, journal=None):
        self.tasks = tasks
        self.workload = workload
        self.progress = progress
        self.policy = policy
        self.faults = faults if faults is not None else ProcessFaultPlan()
        self.journal = journal
        self.results = {}          # label -> result (executed this run)
        self.quarantined = []      # QuarantinedConfig
        self.worker_replacements = 0
        self.started = time.monotonic()
        self._reported = 0         # tasks[:_reported] are finished

    def budget(self, chunk):
        """Wall-clock seconds *chunk* may take, or ``None``."""
        if self.policy is None or self.policy.config_timeout is None:
            return None
        # A chunk's budget may exceed what setitimer can arm.
        return min(self.policy.config_timeout * len(chunk),
                   threading.TIMEOUT_MAX)

    def pool_exhausted(self):
        """Has the pool replaced more workers than the policy allows?"""
        return (self.policy is not None
                and self.worker_replacements
                > self.policy.pool_failure_limit)

    def dispatch(self, chunk):
        """Count and journal one attempt of every config in *chunk*."""
        for task in chunk:
            task.attempts += 1
            if self.journal is not None:
                self.journal.record_attempt(
                    task.key, task.label, task.attempts
                )

    def complete(self, chunk, results, elapsed):
        share = round(elapsed / len(chunk), 3)
        for task in chunk:
            result = results[task.label]
            if self.journal is not None:
                self.journal.record_result(
                    task.key, task.label, task.attempts, share, result
                )
            self.results[task.label] = result
            task.finished = True
        self._report()

    def fail(self, chunk, error, elapsed, label=None):
        """Charge every config of *chunk* one failed attempt.

        Returns the configs that may retry, each as its own
        single-config chunk.  Unsupervised sweeps raise instead, naming
        the failed config: *label*, when the error named one of the
        chunk's configs, else every config of the chunk.
        """
        if self.policy is None:
            labels = [task.label for task in chunk]
            failed = labels
            if label in labels:  # drop the wrapped error's copy of it
                failed = [label]
                error = error.replace(f"field {label!r}: ", "", 1)
            raise SimulationError(
                f"sweep config(s) [{', '.join(failed)}] failed (attempt"
                f" {chunk[0].attempts}, after"
                f" {time.monotonic() - self.started:.1f}s): {error}",
                field=failed[0],
            )
        retries = []
        for task in chunk:
            message = (
                f"{error} (config {task.label!r}, attempt {task.attempts}"
                f" of {self.policy.attempts_allowed},"
                f" after {elapsed:.1f}s)"
            )
            task.last_error = message
            if self.journal is not None:
                self.journal.record_failure(
                    task.key, task.label, task.attempts, round(elapsed, 3),
                    message,
                )
            if task.attempts >= self.policy.attempts_allowed:
                if self.journal is not None:
                    self.journal.record_quarantine(
                        task.key, task.label, task.attempts, message
                    )
                self.quarantined.append(QuarantinedConfig(
                    label=task.label, key=task.key, attempts=task.attempts,
                    error=message,
                ))
                task.finished = True
            else:
                task.not_before = (
                    time.monotonic()
                    + self.policy.backoff_delay(task.attempts)
                )
                retries.append([task])
        self._report()
        return retries

    def _report(self):
        """Fire progress for newly finished grid points, in grid order."""
        while self._reported < len(self.tasks) \
                and self.tasks[self._reported].finished:
            label = self.tasks[self._reported].label
            if self.progress is not None and label in self.results:
                self.progress(label)
            self._reported += 1


def _serial_chunks(tasks):
    """One chunk per kernel route plus one per scalar config, ordered
    by their first grid point."""
    chunks = {}
    for task in sorted(tasks, key=lambda task: task.index):
        # A scalar task keys its own chunk.
        chunks.setdefault(task.route or task, []).append(task)
    return list(chunks.values())


def _drain_serial(annotated, chunks, state):
    """Drain *chunks* in this process; retries run next, in grid order."""
    waiting = collections.deque(chunks)
    while waiting:
        chunk = waiting.popleft()
        delay = max(task.not_before for task in chunk) - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        state.dispatch(chunk)
        route = chunk[0].route
        started = time.monotonic()
        try:
            with wall_clock_deadline(
                state.budget(chunk),
                lambda seconds, chunk=chunk: SweepTimeout(
                    f"chunk of {len(chunk)} config(s) exceeded its"
                    f" {seconds:g}s attempt budget",
                    field=chunk[0].label,
                ),
            ):
                # Inside the deadline: a fault-injected hang models
                # the simulation hanging, so SIGALRM must cover it.
                for task in chunk:
                    state.faults.apply_serial(task.label, task.attempts)
                results = _run_chunk(
                    annotated, route.plan if route is not None else None,
                    [(task.label, task.machine) for task in chunk],
                    state.workload,
                )
        except (KeyboardInterrupt, SystemExit, ExhibitTimeout):
            raise  # an exhibit's deadline ends the sweep, not the chunk
        except Exception as exc:
            retries = state.fail(
                chunk, f"{type(exc).__name__}: {exc}",
                time.monotonic() - started, getattr(exc, "field", None),
            )
            waiting.extendleft(reversed(retries))
        else:
            state.complete(chunk, results, time.monotonic() - started)


def _spawn_worker(ctx, spill_path, state):
    conn, worker_end = ctx.Pipe()
    process = ctx.Process(
        target=_worker_main,
        args=(worker_end, spill_path, state.faults.spec, state.workload),
        daemon=True,
    )
    try:
        process.start()
    finally:
        worker_end.close()  # the worker holds its own copy
    return _Worker(process, conn)


def _shutdown_pool(workers):
    """Stop every worker: sentinel the living, kill the stubborn."""
    for worker in workers.values():
        if worker.process.is_alive():
            try:
                worker.conn.send(None)
            except (OSError, ValueError):
                pass
    for worker in workers.values():
        worker.process.join(timeout=0.5)
        if worker.process.is_alive():
            worker.process.kill()
            worker.process.join(timeout=_KILL_JOIN_SECONDS)
        worker.conn.close()


def _next_ready(waiting, now):
    """Pop the first chunk in *waiting* that is not backing off."""
    for position, chunk in enumerate(waiting):
        if max(task.not_before for task in chunk) <= now:
            del waiting[position]
            return chunk
    return None


def _shard(waiting, route, n_jobs):
    """Re-cut *route*'s waiting configs by its newly measured cost.

    Only configs that have not failed this run are merged into chunks;
    retries stay single-config tasks.
    """
    def mergeable(chunk):
        return chunk[0].route is route and chunk[0].last_error is None

    fresh = [chunk[0] for chunk in waiting if mergeable(chunk)]
    chunks = [chunk for chunk in waiting if not mergeable(chunk)]
    chunks += parallel.shard_pairs(fresh, route.cost, n_jobs)
    return collections.deque(sorted(chunks, key=lambda c: c[0].index))


def _unfinished(waiting, workers):
    """Every task still waiting or in flight."""
    tasks = [task for chunk in waiting for task in chunk]
    for worker in workers.values():
        tasks.extend(worker.chunk or ())
    return tasks


def _drain_pool(annotated, tasks, state, n_jobs, handles):
    """Drain *tasks* on the worker pool.

    *handles* maps each kernel route to its published plan.  Returns
    the tasks still unfinished when the pool degrades (too many worker
    replacements) or cannot be built at all; the caller finishes them
    serially.  An empty return means the pool drained everything
    (completions and quarantines both count as finished).
    """
    ctx, spill_path = parallel.share_annotated(annotated)
    if ctx is None:
        return tasks
    workers = {}  # parent pipe end -> _Worker
    waiting = collections.deque([task] for task in tasks)
    try:
        while waiting or any(w.chunk for w in workers.values()):
            # Top up the pool while work remains.
            busy = sum(1 for w in workers.values() if w.chunk)
            while len(workers) < min(n_jobs, len(waiting) + busy):
                try:
                    worker = _spawn_worker(ctx, spill_path, state)
                except OSError:
                    return _unfinished(waiting, workers)
                workers[worker.conn] = worker
            # Dispatch ready chunks to idle workers, grid order first.
            now = time.monotonic()
            for worker in workers.values():
                if worker.chunk is not None:
                    continue
                chunk = _next_ready(waiting, now)
                if chunk is None:
                    break
                state.dispatch(chunk)
                budget = state.budget(chunk)
                worker.chunk = chunk
                worker.started = now
                worker.deadline = now + budget if budget else None
                worker.conn.send((
                    handles.get(chunk[0].route),
                    [(task.label, task.machine, task.attempts)
                     for task in chunk],
                ))
            # Collect finished chunks (or time out and police the pool).
            for conn in multiprocessing.connection.wait(
                list(workers), timeout=_POLL_SECONDS
            ):
                worker = workers[conn]
                try:
                    ok, payload, seconds = conn.recv()
                except (EOFError, OSError):
                    continue  # the worker died; policing recovers it
                chunk, worker.chunk = worker.chunk, None
                worker.deadline = None
                elapsed = time.monotonic() - worker.started
                route = chunk[0].route
                if not ok:
                    waiting.extend(state.fail(chunk, payload, elapsed))
                else:
                    state.complete(chunk, payload, elapsed)
                    if route is not None and route.cost is None:
                        route.cost = seconds / len(chunk)
                        waiting = _shard(waiting, route, n_jobs)
            # Police the pool: dead workers and blown deadlines.
            now = time.monotonic()
            for worker in list(workers.values()):
                if not worker.process.is_alive():
                    error = (f"worker process died (exit code"
                             f" {worker.process.exitcode})")
                elif worker.deadline is not None and now > worker.deadline:
                    worker.process.kill()
                    worker.process.join(timeout=_KILL_JOIN_SECONDS)
                    error = (f"SweepTimeout: chunk of {len(worker.chunk)}"
                             f" config(s) exceeded its"
                             f" {state.budget(worker.chunk):g}s attempt"
                             " budget (worker killed)")
                else:
                    continue
                del workers[worker.conn]
                worker.conn.close()
                state.worker_replacements += 1
                if worker.chunk is not None:
                    waiting.extend(state.fail(
                        worker.chunk, error, now - worker.started
                    ))
            if state.pool_exhausted():
                # The pool keeps dying; hand the rest to the serial
                # loop rather than thrash respawning workers.
                return _unfinished(waiting, workers)
        return []
    finally:
        _shutdown_pool(workers)
        parallel.unshare_annotated(spill_path)


def _execute(annotated, tasks, state, jobs, engine):
    """Run *tasks* to the end on the one executor.

    Returns True when the sweep used a pool and had to finish serially
    (the pool degraded or could not be built).
    """
    n_jobs = min(parallel.resolve_jobs(jobs), len(tasks))
    if not tasks:
        return False
    _assign_routes(annotated, tasks, engine)
    if state.policy is not None:
        # The pool is supervision's isolation boundary.
        pool = tasks if n_jobs > 1 else []
    else:
        # A kernel chunk already runs on every usable CPU in this
        # process; only scalar configs can gain from worker processes.
        pool = [task for task in tasks if task.route is None]
        if pool and parallel.serial_cutover(n_jobs, len(pool)):
            pool = []
    # In-process chunks run first, so no kernel helper thread is alive
    # when the pool forks.
    pooled = set(pool)
    _drain_serial(annotated, _serial_chunks(
        [task for task in tasks if task not in pooled]), state)
    if not pool:
        return False
    routes = list(dict.fromkeys(
        task.route for task in pool if task.route is not None))
    leftover = parallel.batched_parallel_sweep(
        [route.plan for route in routes],
        lambda handles: _drain_pool(
            annotated, pool, state, n_jobs, dict(zip(routes, handles)),
        ),
    )
    _drain_serial(annotated, _serial_chunks(leftover), state)
    return bool(leftover)


def sweep_results(annotated, pairs, workload, jobs=None, progress=None,
                  engine="auto"):
    """Run ``(label, config)`` *pairs* unsupervised on the executor.

    Returns ``{label: result}`` in grid order.  *progress* fires once
    per completed config, in grid order.  The first failure shuts the
    pool down and raises :class:`SimulationError` naming the failed
    label(s), the attempt and the elapsed time.
    """
    tasks = [
        _Task(index, label, machine)
        for index, (label, machine) in enumerate(pairs)
    ]
    state = _SweepState(tasks, workload, progress)
    _execute(annotated, tasks, state, jobs, engine)
    return {task.label: state.results[task.label] for task in tasks}


def supervised_sweep(annotated, machines, workload=None, seed=None,
                     trace_len=None, jobs=None, journal_path=None,
                     resume=False, policy=None, progress=None,
                     fault_plan=None, engine="auto"):
    """Run a machine grid under crash-safe supervision.

    Parameters mirror :func:`repro.analysis.sweep.sweep` (including
    ``engine``) plus:

    seed, trace_len:
        Workload identity folded into each config's journal key
        (defaults: ``None`` and ``len(annotated.trace)``).  Pass the
        same values when resuming — the journal meta check enforces it.
    journal_path:
        JSON-lines journal location.  Without it the sweep is still
        supervised (timeouts, retries, quarantine, worker replacement)
        but not resumable.
    resume:
        Replay an existing journal first and re-execute only
        configurations it marks unfinished.  With ``resume=False`` an
        existing journal file is truncated and the sweep starts over.
    policy:
        A :class:`SupervisorPolicy` (default: 2 retries, no timeout).
    fault_plan:
        A :class:`~repro.robustness.faults.ProcessFaultPlan` for chaos
        testing; defaults to ``REPRO_PROCESS_FAULTS`` (normally empty).

    Returns a :class:`SupervisedSweepResult`; quarantined configs are
    reported there, fail-soft, rather than raised.  ``progress`` fires
    once per completed config, in grid order.  With ``jobs > 1`` the
    sweep always runs on the pool, which is its isolation boundary.
    """
    check_engine(engine)
    policy = policy if policy is not None else SupervisorPolicy()
    faults = fault_plan if fault_plan is not None \
        else ProcessFaultPlan.from_env()
    if hasattr(machines, "items"):
        machines = machines.items()
    pairs = list(machines)
    name = workload or annotated.trace.name
    if trace_len is None:
        trace_len = len(annotated.trace)
    labels = [label for label, _ in pairs]
    if len(set(labels)) != len(labels):
        raise ConfigError(
            "sweep grid has duplicate labels; every grid point needs a"
            " unique label for journalling",
            field="machines",
        )
    tasks = [
        _Task(index, label, machine,
              config_key(name, seed, trace_len, machine))
        for index, (label, machine) in enumerate(pairs)
    ]

    journal = None
    restored = {}
    prior_quarantine = []
    if journal_path is not None:
        journal = SweepJournal(journal_path)
        if not faults.empty:
            journal.tear_hook = (
                lambda record: record.get("type") == "result"
                and faults.should_crash_journal(
                    record.get("label"), record.get("attempt")
                )
            )
        if resume and os.path.exists(journal.path):
            journal_state = journal.check_meta(name, seed, trace_len)
            for task in tasks:
                task.attempts = journal_state.attempts.get(task.key, 0)
                if task.key in journal_state.results:
                    restored[task.label] = result_from_payload(
                        journal_state.results[task.key]
                    )
                elif task.key in journal_state.quarantined:
                    dead = journal_state.quarantined[task.key]
                    prior_quarantine.append(QuarantinedConfig(
                        label=task.label, key=task.key,
                        attempts=dead["attempts"], error=dead["error"],
                    ))
        else:
            journal.initialize(name, seed, trace_len)

    finished_labels = set(restored)
    finished_labels.update(q.label for q in prior_quarantine)
    pending = [t for t in tasks if t.label not in finished_labels]

    state = _SweepState(pending, name, progress, policy, faults, journal)
    state.quarantined.extend(prior_quarantine)
    degraded = _execute(annotated, pending, state, jobs, engine)

    ordered = {}
    for task in tasks:
        if task.label in restored:
            ordered[task.label] = restored[task.label]
        elif task.label in state.results:
            ordered[task.label] = state.results[task.label]
    return SupervisedSweepResult(
        workload=name,
        results=ordered,
        quarantined=state.quarantined,
        resumed=len(restored),
        executed=len(state.results),
        worker_replacements=state.worker_replacements,
        degraded_to_serial=degraded,
    )
