"""Process-level chaos tests for supervised sweeps.

Each test injects a deterministic process fault — a SIGKILLed pool
worker, a hung config, a supervisor crash mid-journal-write — and
proves the supervised sweep still produces results *bit-identical* to
a clean serial run.  That is the central robustness claim of
``repro.robustness.supervisor``: because MLPsim is a pure function of
``(annotated, machine)``, no amount of retrying, worker replacement,
serial degradation or journal resume may change a single field of a
single result.

Journals are written under ``REPRO_CHAOS_JOURNAL_DIR`` when set (CI
uploads that directory as an artifact on failure) and the pytest tmp
path otherwise.
"""

import dataclasses
import os

import pytest

from repro.analysis.sweep import sweep
from repro.core.config import MachineConfig
from repro.robustness.errors import InjectedCrash
from repro.robustness.faults import ProcessFaultPlan
from repro.robustness.supervisor import SupervisorPolicy, supervised_sweep

GRID_SPECS = ("16A", "64C", "64E", "128C")

#: Fast retries so chaos runs stay quick; a real campaign would use the
#: default half-second base.
POLICY = SupervisorPolicy(
    max_retries=2, backoff_base=0.01, config_timeout=60.0
)


def _grid():
    return [(spec, MachineConfig.named(spec)) for spec in GRID_SPECS]


def _result_fields(result):
    fields = dataclasses.asdict(result)
    fields["inhibitors"] = result.inhibitors.as_dict()
    return fields


@pytest.fixture(scope="module")
def chaos_annotated():
    """Small trace: chaos tests re-simulate configs across processes."""
    from repro.trace.annotate import annotate
    from repro.workloads import generate_trace

    return annotate(generate_trace("specjbb2000", 12_000))


@pytest.fixture(scope="module")
def clean_serial(chaos_annotated):
    """The fault-free serial sweep every chaos run must reproduce."""
    return sweep(chaos_annotated, _grid(), jobs=1)


@pytest.fixture
def journal_dir(tmp_path):
    """Journal location; CI points this at an artifact directory."""
    override = os.environ.get("REPRO_CHAOS_JOURNAL_DIR")
    if override:
        os.makedirs(override, exist_ok=True)
        return override
    return str(tmp_path)


def _assert_bit_identical(supervised, baseline):
    assert supervised.labels() == baseline.labels()
    for label in baseline.labels():
        assert _result_fields(supervised.results[label]) == \
            _result_fields(baseline.results[label]), label


class TestPoolWorkerDeath:
    def test_sigkilled_worker_is_replaced(self, chaos_annotated,
                                          clean_serial, journal_dir):
        """SIGKILL one worker mid-sweep: the grid must still finish,
        bit-identical to serial, with the death visible in the stats."""
        result = supervised_sweep(
            chaos_annotated, _grid(), seed=1234, jobs=2,
            journal_path=os.path.join(journal_dir, "kill.jsonl"),
            policy=POLICY,
            fault_plan=ProcessFaultPlan.parse("kill:64C@1"),
        )
        assert result.complete
        assert result.worker_replacements >= 1
        _assert_bit_identical(result, clean_serial)

    def test_hung_worker_is_killed_and_retried(self, chaos_annotated,
                                               clean_serial, journal_dir):
        policy = SupervisorPolicy(
            max_retries=2, backoff_base=0.01, config_timeout=1.5
        )
        result = supervised_sweep(
            chaos_annotated, _grid(), seed=1234, jobs=2,
            journal_path=os.path.join(journal_dir, "hang.jsonl"),
            policy=policy,
            fault_plan=ProcessFaultPlan.parse("hang:64E@1"),
        )
        assert result.complete
        assert result.worker_replacements >= 1
        # Retried successfully after the timeout kill, not quarantined.
        assert result.quarantined == []
        _assert_bit_identical(result, clean_serial)

    def test_collapsing_pool_degrades_to_serial(self, chaos_annotated,
                                                clean_serial, journal_dir):
        """With zero tolerance for worker deaths, the first SIGKILL
        must hand the remaining grid to the serial backend — and the
        results still match."""
        policy = SupervisorPolicy(
            max_retries=2, backoff_base=0.01, config_timeout=60.0,
            pool_failure_limit=0,
        )
        result = supervised_sweep(
            chaos_annotated, _grid(), seed=1234, jobs=2,
            journal_path=os.path.join(journal_dir, "degrade.jsonl"),
            policy=policy,
            fault_plan=ProcessFaultPlan.parse("kill:16A@1"),
        )
        assert result.complete
        assert result.degraded_to_serial
        assert result.worker_replacements == 1
        _assert_bit_identical(result, clean_serial)

    def test_pool_quarantines_poison_config(self, chaos_annotated,
                                            clean_serial, journal_dir):
        """A config that kills its worker on every attempt is dead-
        lettered; the rest of the grid completes bit-identical."""
        result = supervised_sweep(
            chaos_annotated, _grid(), seed=1234, jobs=2,
            journal_path=os.path.join(journal_dir, "poison.jsonl"),
            policy=POLICY,
            fault_plan=ProcessFaultPlan.parse("kill:64C"),
        )
        assert not result.complete
        assert [q.label for q in result.quarantined] == ["64C"]
        assert result.worker_replacements == POLICY.attempts_allowed
        survivors = [s for s in GRID_SPECS if s != "64C"]
        assert result.labels() == survivors
        for label in survivors:
            assert _result_fields(result.results[label]) == \
                _result_fields(clean_serial.results[label]), label


class TestCrashResumeEquivalence:
    def test_faulted_resumed_sweep_matches_clean_serial(
            self, chaos_annotated, clean_serial, journal_dir):
        """The headline chaos scenario: a pool sweep suffers a worker
        SIGKILL, a hung config *and* a supervisor crash mid-journal-
        write; resuming completes the grid bit-identical to a clean
        serial run, re-executing only what the journal lost."""
        journal_path = os.path.join(journal_dir, "combined.jsonl")
        policy = SupervisorPolicy(
            max_retries=2, backoff_base=0.01, config_timeout=1.5
        )
        plan = ProcessFaultPlan.parse(
            "kill:16A@1 hang:64C@1 crash-journal:64E@1"
        )
        with pytest.raises(InjectedCrash):
            supervised_sweep(
                chaos_annotated, _grid(), seed=1234, jobs=2,
                journal_path=journal_path, policy=policy, fault_plan=plan,
            )
        resumed = supervised_sweep(
            chaos_annotated, _grid(), seed=1234, jobs=2,
            journal_path=journal_path, resume=True, policy=policy,
        )
        assert resumed.complete
        # The crash hit a result record, so at least that config (and
        # anything not yet journalled) re-executes; everything restored
        # plus everything re-run covers the grid exactly.  (How many
        # results were durable before the crash depends on pool
        # completion order, so only the split's total is asserted.)
        assert resumed.resumed + resumed.executed == len(GRID_SPECS)
        assert resumed.executed >= 1
        _assert_bit_identical(resumed, clean_serial)

    def test_interrupted_serial_sweep_resumes_incrementally(
            self, chaos_annotated, clean_serial, journal_dir):
        """Kill the supervisor after two configs; ``--resume`` restores
        them from the journal and runs only the remaining two."""
        journal_path = os.path.join(journal_dir, "interrupt.jsonl")
        with pytest.raises(InjectedCrash):
            supervised_sweep(
                chaos_annotated, _grid(), seed=1234, jobs=1,
                journal_path=journal_path, policy=POLICY,
                fault_plan=ProcessFaultPlan.parse("crash-journal:64E@1"),
            )
        resumed = supervised_sweep(
            chaos_annotated, _grid(), seed=1234, jobs=1,
            journal_path=journal_path, resume=True, policy=POLICY,
        )
        assert resumed.resumed == 2 and resumed.executed == 2
        _assert_bit_identical(resumed, clean_serial)


#: The paper's 30-config window x policy grid: one event-mask group, so
#: at jobs=2 a supervised sweep sends two single-config measurement
#: tasks and then cuts the other 28 configs into multi-config chunks.
PAPER_GRID_SPECS = tuple(
    f"{window}{policy}" for window in (16, 32, 64, 128, 256, 512)
    for policy in "ABCDE"
)


def _paper_grid():
    return [(spec, MachineConfig.named(spec)) for spec in PAPER_GRID_SPECS]


@pytest.fixture(scope="module")
def paper_oracle(chaos_annotated):
    """The frozen oracle's result for every paper-grid config."""
    from repro.core.mlpsim_reference import simulate_reference

    return {
        label: simulate_reference(chaos_annotated, machine,
                                  workload="specjbb2000")
        for label, machine in _paper_grid()
    }


def _journal_attempts(journal_path):
    """``{label: highest attempt journalled}``."""
    from repro.robustness.journal import SweepJournal

    state = SweepJournal(journal_path).replay()
    return {state.labels[key]: n for key, n in state.attempts.items()}


class TestKernelChunks:
    """Supervised jobs=2 sweeps run kernel chunks; faults charge a
    whole chunk, and its configs retry alone."""

    @pytest.fixture(autouse=True)
    def _needs_kernel(self):
        from repro.core import ckernel

        if not ckernel.kernel_available():
            pytest.skip(f"no compiled kernel: {ckernel.kernel_error()}")

    def test_poison_config_in_a_chunk_is_quarantined_alone(
            self, chaos_annotated, paper_oracle, journal_dir):
        journal_path = os.path.join(journal_dir, "chunk-poison.jsonl")
        result = supervised_sweep(
            chaos_annotated, _paper_grid(), seed=1234, jobs=2,
            journal_path=journal_path, policy=POLICY,
            fault_plan=ProcessFaultPlan.parse("kill:64A"),
        )
        assert [q.label for q in result.quarantined] == ["64A"]
        assert result.worker_replacements == POLICY.attempts_allowed
        survivors = [s for s in PAPER_GRID_SPECS if s != "64A"]
        assert result.labels() == survivors
        for label in survivors:
            assert _result_fields(result.results[label]) == \
                _result_fields(paper_oracle[label]), label
        attempts = _journal_attempts(journal_path)
        assert attempts.pop("64A") == POLICY.attempts_allowed
        # The chunk the poison killed charged each of its configs one
        # attempt; they then succeeded alone.  No other config retried.
        chunk_mates = [label for label, n in attempts.items() if n == 2]
        assert len(chunk_mates) >= 2
        assert all(n in (1, 2) for n in attempts.values())

    def test_crash_mid_chunk_resumes_only_lost_configs(
            self, chaos_annotated, paper_oracle, journal_dir, monkeypatch):
        import repro.analysis.shm as shm
        from repro.robustness.journal import SweepJournal

        published = []
        real_publish = shm.publish_plan

        def recording_publish(plan):
            published.append(plan)
            return real_publish(plan)

        monkeypatch.setattr(shm, "publish_plan", recording_publish)
        journal_path = os.path.join(journal_dir, "chunk-crash.jsonl")
        with pytest.raises(InjectedCrash):
            supervised_sweep(
                chaos_annotated, _paper_grid(), seed=1234, jobs=2,
                journal_path=journal_path, policy=POLICY,
                fault_plan=ProcessFaultPlan.parse("crash-journal:64A@1"),
            )
        assert len(published) == 1  # one plan, shared by every chunk
        state = SweepJournal(journal_path).replay()
        durable = {state.labels[key] for key in state.results}
        assert state.torn_tail and "64A" not in durable

        resumed = supervised_sweep(
            chaos_annotated, _paper_grid(), seed=1234, jobs=2,
            journal_path=journal_path, resume=True, policy=POLICY,
        )
        assert resumed.complete
        assert resumed.resumed == len(durable)
        assert resumed.executed == len(PAPER_GRID_SPECS) - len(durable)
        assert resumed.labels() == list(PAPER_GRID_SPECS)
        for label in PAPER_GRID_SPECS:
            assert _result_fields(resumed.results[label]) == \
                _result_fields(paper_oracle[label]), label
