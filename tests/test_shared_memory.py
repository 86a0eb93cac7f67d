"""Lifecycle of zero-copy plan publication (``repro.analysis.shm``).

A published plan is parent-owned: whatever the workers do — finish,
raise, or die by SIGKILL — the segment must survive until the parent
unlinks it, and the parent must unlink it exactly once on every exit
path of the pooled sweep.  Leaked segments accumulate in ``/dev/shm``
until reboot, and a worker-side unlink (Python's ``resource_tracker``
default) would yank the mapping out from under sibling workers, so
both directions of the contract matter.

Only compiled-kernel routes publish plans.  Without the MLPsim kernel
every config takes the scalar route, so the sweep tests below assert
that nothing was published and keep every other assertion.
"""

import os
import signal

import multiprocessing

import numpy as np
import pytest

import repro.analysis.parallel as parallel
import repro.analysis.shm as shm
import repro.robustness.supervisor as supervisor
from repro.analysis.sweep import sweep
from repro.core import ckernel
from repro.core.columnar import plan_for
from repro.core.config import MachineConfig
from repro.robustness.errors import TraceFormatError


def _grid():
    return [
        (f"64{policy}", MachineConfig.named(f"64{policy}"))
        for policy in "ABC"
    ] + [("64D-pb", MachineConfig.named("64D", perfect_branch=True))]


@pytest.fixture
def plan(specjbb_annotated):
    return plan_for(specjbb_annotated, MachineConfig.named("64C"))


class TestPublishAttach:
    def test_round_trip_is_exact_and_zero_copy(self, plan):
        handle = shm.publish_plan(plan)
        try:
            attached = shm.attach_plan(handle)
            try:
                checks = []
                for name in plan.columns:
                    view = getattr(attached.plan, name)
                    checks.append((
                        name,
                        np.array_equal(getattr(plan, name), view),
                        # Views alias the shared buffer, not copies.
                        not view.flags.owndata,
                    ))
                span = (attached.plan.start, attached.plan.stop)
                del view  # drop the buffer reference before closing
            finally:
                attached.close()
            for name, equal, aliased in checks:
                assert equal and aliased, name
            assert span == (plan.start, plan.stop)
        finally:
            shm.unpublish_plan(handle)

    def test_unpublish_removes_segment_and_is_idempotent(self, plan):
        handle = shm.publish_plan(plan)
        assert shm.plan_is_published(handle)
        shm.unpublish_plan(handle)
        assert not shm.plan_is_published(handle)
        shm.unpublish_plan(handle)  # second release must not raise
        shm.unpublish_plan(None)    # nor a no-op handle

    def test_attach_after_unpublish_raises_loudly(self, plan):
        handle = shm.publish_plan(plan)
        shm.unpublish_plan(handle)
        with pytest.raises(TraceFormatError):
            # Use-after-release is the behaviour under test here.
            shm.attach_plan(handle)  # reprolint: disable=shm-lifetime

    def test_file_fallback_round_trips(self, plan, monkeypatch):
        """With shared memory unavailable the spill file path engages,
        is memory-mapped on attach, and unlinks on unpublish."""
        def no_shm(*args, **kwargs):
            raise OSError("shm exhausted")  # reprolint: disable=error-hierarchy

        monkeypatch.setattr(shm, "_publish_shm", no_shm)
        handle = shm.publish_plan(plan)
        try:
            assert handle.kind == "file"
            assert os.path.exists(handle.name)
            attached = shm.attach_plan(handle)
            try:
                assert np.array_equal(attached.plan.ops, plan.ops)
            finally:
                attached.close()
        finally:
            shm.unpublish_plan(handle)
        assert not os.path.exists(handle.name)


def _attach_and_die(handle, barrier):
    """Worker body for the SIGKILL test: map the plan, then die hard."""
    # Deliberately never closed: the SIGKILL below must find the
    # attachment live to prove a dead worker cannot unlink the segment.
    attached = shm.attach_plan(handle)  # reprolint: disable=shm-lifetime
    assert attached.plan is not None
    barrier.wait()
    os.kill(os.getpid(), signal.SIGKILL)


class TestWorkerDeath:
    def test_sigkilled_worker_does_not_unlink(self, plan):
        """A worker that dies mid-attach must not tear the segment
        down (it shares the publisher's resource tracker, which unlinks
        nothing while the publisher lives) — and the parent's
        ``unpublish_plan`` afterwards must."""
        handle = shm.publish_plan(plan)
        try:
            ctx = multiprocessing.get_context("fork")
            barrier = ctx.Barrier(2)
            worker = ctx.Process(
                target=_attach_and_die, args=(handle, barrier)
            )
            worker.start()
            barrier.wait()
            worker.join(timeout=30)
            assert worker.exitcode == -signal.SIGKILL
            assert shm.plan_is_published(handle), \
                "worker death must not unlink the parent's segment"
        finally:
            shm.unpublish_plan(handle)
        assert not shm.plan_is_published(handle)


#: Twenty pooled kernel sweeps of the paper's 30-config grid, run in a
#: fresh interpreter so its resource tracker's stderr is observable.
#: Supervised, because an unsupervised sweep runs kernel chunks
#: in-process and publishes nothing.
_TRACKER_SCRIPT = """
from repro.analysis.sweep import sweep
from repro.core.config import MachineConfig
from repro.trace.annotate import annotate
from repro.workloads import generate_trace

annotated = annotate(generate_trace("specjbb2000", 20000))
grid = [(f"{w}{p}", MachineConfig.named(f"{w}{p}"))
        for w in (16, 32, 64, 128, 256, 512) for p in "ABCDE"]
for _ in range(20):
    assert sweep(annotated, grid, jobs=2, supervise=True).complete
"""


class TestResourceTracker:
    def test_pooled_sweeps_leave_stderr_empty(self):
        """Workers share their publisher's resource tracker; attaching
        must not unregister segments behind the publisher's back (the
        tracker then prints KeyError tracebacks on stderr)."""
        import pathlib
        import subprocess
        import sys

        if not ckernel.kernel_available():
            pytest.skip(f"no compiled kernel: {ckernel.kernel_error()}")
        src_root = str(pathlib.Path(parallel.__file__).resolve().parents[2])
        paths = [src_root, os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        child = subprocess.run(
            [sys.executable, "-c", _TRACKER_SCRIPT], env=env,
            capture_output=True, text=True, timeout=600,
        )
        assert child.returncode == 0, child.stderr
        assert child.stderr == ""


def _published_handles(monkeypatch):
    """Record every handle the sweep publishes (without disturbing it)."""
    handles = []
    real_publish = shm.publish_plan

    def recording_publish(plan):
        handle = real_publish(plan)
        handles.append(handle)
        return handle

    monkeypatch.setattr(shm, "publish_plan", recording_publish)
    return handles


def _assert_plans_unlinked(handles, count=None):
    """The sweep published *count* plans (at least one when ``None``),
    and unlinked every one; without the MLPsim kernel, none."""
    if not ckernel.kernel_available():
        assert handles == []
        return
    if count is None:
        assert handles
    else:
        assert len(handles) == count, "one plan per event-mask group"
    assert all(not shm.plan_is_published(h) for h in handles)


#: The pytest process; a pool worker is any other.
_PARENT_PID = os.getpid()


def _failing_chunk(annotated, plan, pairs, workload):
    raise RuntimeError("worker exploded")  # reprolint: disable=error-hierarchy


def _suicidal_chunk(annotated, plan, pairs, workload):
    if os.getpid() == _PARENT_PID:
        # A chunk run in-process must fail the test, not kill pytest.
        raise RuntimeError("chunk ran in the parent")  # reprolint: disable=error-hierarchy
    os.kill(os.getpid(), signal.SIGKILL)


def _pooled_sweep(annotated):
    """A supervised ``jobs=2`` sweep: it always takes the pool, its
    isolation boundary, and with the MLPsim kernel publishes one plan
    per mask group.  A failed config is quarantined at once."""
    return sweep(annotated, _grid(), workload="specjbb2000", jobs=2,
                 supervise={"policy": supervisor.SupervisorPolicy(
                     max_retries=0, backoff_base=0.0)})


class TestSweepLifecycle:
    def test_success_path_unlinks_everything(self, specjbb_annotated,
                                             monkeypatch):
        handles = _published_handles(monkeypatch)
        swept = _pooled_sweep(specjbb_annotated)
        assert swept.complete
        assert len(swept.results) == len(_grid())
        _assert_plans_unlinked(handles, 2)

    def test_failure_path_unlinks_everything(self, specjbb_annotated,
                                             monkeypatch):
        handles = _published_handles(monkeypatch)
        monkeypatch.setattr(supervisor, "_run_chunk", _failing_chunk)
        swept = _pooled_sweep(specjbb_annotated)
        assert not swept.results
        assert len(swept.quarantined) == len(_grid())
        assert "worker exploded" in swept.quarantine_report()
        _assert_plans_unlinked(handles)

    def test_sigkilled_worker_path_unlinks_everything(
            self, specjbb_annotated, monkeypatch):
        handles = _published_handles(monkeypatch)
        monkeypatch.setattr(supervisor, "_run_chunk", _suicidal_chunk)
        swept = _pooled_sweep(specjbb_annotated)
        assert not swept.results
        assert len(swept.quarantined) == len(_grid())
        assert all("worker process died" in q.error
                   for q in swept.quarantined)
        assert swept.worker_replacements == len(_grid())
        assert not swept.degraded_to_serial
        _assert_plans_unlinked(handles)


class TestSharding:
    def test_chunks_sized_by_cost_and_balanced(self):
        pairs = [(str(i), None) for i in range(30)]
        # Cheap configs coalesce (bounded by the even split) ...
        cheap = parallel.shard_pairs(pairs, 0.001, jobs=4)
        assert [p for chunk in cheap for p in chunk] == pairs
        assert max(len(c) for c in cheap) <= 8  # ceil(30/4)
        # ... expensive configs go one per chunk.
        costly = parallel.shard_pairs(pairs, 10.0, jobs=4)
        assert all(len(c) == 1 for c in costly)
        assert parallel.shard_pairs([], 0.1, jobs=4) == []

    def test_journal_receives_incremental_results(self, specjbb_annotated,
                                                  monkeypatch, tmp_path):
        """A supervised jobs=2 sweep runs on the published plans (on the
        scalar route without the kernel) and journals one result record
        per config."""
        from repro.robustness.journal import SweepJournal, config_key

        handles = _published_handles(monkeypatch)
        journal_path = tmp_path / "sweep.jsonl"
        result = supervisor.supervised_sweep(
            specjbb_annotated, _grid(), workload="specjbb2000", seed=1234,
            jobs=2, journal_path=journal_path,
        )
        assert result.complete
        _assert_plans_unlinked(handles, 2)
        state = SweepJournal(journal_path).replay()
        trace_len = len(specjbb_annotated.trace)
        for label, machine in _grid():
            key = config_key("specjbb2000", 1234, trace_len, machine)
            assert key in state.results, label
