"""Unit tests for the crash-safe sweep supervision layer.

Covers the journal (content-hash keys, exact result round-trips,
torn-tail replay, meta checks), the supervision policy (retry budget,
deterministic backoff, validation), the fault-plan parser, the nestable
SIGALRM deadline, and the serial supervisor paths: retry-then-succeed,
dead-letter quarantine, crash-mid-journal-write and resume.  The
process-pool chaos paths (SIGKILL, hangs, worker replacement) live in
``tests/test_chaos.py``.
"""

import dataclasses
import json
import time

import pytest

from repro.analysis.sweep import sweep
from repro.core.config import MachineConfig
from repro.core.mlpsim import simulate
from repro.robustness.errors import (
    ConfigError,
    InjectedCrash,
    JournalError,
    SweepTimeout,
)
from repro.robustness.faults import ProcessFaultPlan, tear_journal
from repro.robustness.journal import (
    JOURNAL_VERSION,
    SweepJournal,
    config_key,
    result_from_payload,
    result_to_payload,
)
from repro.robustness.supervisor import (
    SupervisorPolicy,
    supervised_sweep,
    wall_clock_deadline,
)
from repro.trace.annotate import annotate
from repro.workloads import generate_trace

GRID_SPECS = ("16A", "64C", "64E", "128C")


@pytest.fixture(scope="module")
def small_annotated():
    """A small trace: supervisor tests re-simulate configs many times."""
    return annotate(generate_trace("specjbb2000", 12_000))


@pytest.fixture(scope="module")
def serial_baseline(small_annotated):
    """The clean serial sweep every supervised variant must match."""
    return sweep(small_annotated, _grid(), jobs=1)


def _grid():
    return [(spec, MachineConfig.named(spec)) for spec in GRID_SPECS]


def _result_fields(result):
    """Every MLPResult field, with inhibitor counts expanded."""
    fields = dataclasses.asdict(result)
    fields["inhibitors"] = result.inhibitors.as_dict()
    return fields


def _assert_matches_baseline(supervised, baseline, labels=None):
    """Bit-identical comparison against the clean serial sweep."""
    labels = labels if labels is not None else baseline.labels()
    for label in labels:
        assert _result_fields(supervised.results[label]) == \
            _result_fields(baseline.results[label]), label


class TestConfigKey:
    def test_stable_and_label_independent(self):
        machine = MachineConfig.named("64C")
        key = config_key("specjbb2000", 1234, 120_000, machine)
        assert key == config_key("specjbb2000", 1234, 120_000, machine)
        # The label is presentation, not identity: an equal config made
        # a different way hashes identically.
        again = MachineConfig.named("64C")
        assert key == config_key("specjbb2000", 1234, 120_000, again)

    def test_sensitive_to_every_identity_field(self):
        machine = MachineConfig.named("64C")
        base = config_key("specjbb2000", 1234, 120_000, machine)
        assert base != config_key("database", 1234, 120_000, machine)
        assert base != config_key("specjbb2000", 99, 120_000, machine)
        assert base != config_key("specjbb2000", 1234, 5_000, machine)
        assert base != config_key(
            "specjbb2000", 1234, 120_000, MachineConfig.named("64E")
        )

    def test_rejects_unhashable_config_parts(self):
        with pytest.raises(JournalError):
            config_key("w", 1, 10, object())


class TestResultRoundTrip:
    def test_payload_restores_bit_identical(self, small_annotated):
        result = simulate(
            small_annotated, MachineConfig.named("64C"),
            workload="specjbb2000",
        )
        # JSON is the journal's wire format: the round trip must be
        # exact, or resumed sweeps would diverge from clean ones.
        payload = json.loads(json.dumps(result_to_payload(result)))
        restored = result_from_payload(payload)
        assert _result_fields(restored) == _result_fields(result)

    def test_epoch_records_refused(self, small_annotated):
        result = simulate(
            small_annotated, MachineConfig.named("64C"), record_sets=True
        )
        with pytest.raises(JournalError):
            result_to_payload(result)

    def test_missing_field_raises_journal_error(self):
        with pytest.raises(JournalError):
            result_from_payload({"workload": "x"})


class TestJournalReplay:
    def _journal(self, tmp_path, name="sweep.jsonl"):
        journal = SweepJournal(tmp_path / name)
        journal.initialize("specjbb2000", 1234, 12_000)
        return journal

    def test_records_round_trip(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.record_attempt("k1", "64C", 1)
        journal.record_failure("k1", "64C", 1, 0.5, "boom")
        journal.record_attempt("k1", "64C", 2)
        journal.record_quarantine("k2", "16A", 3, "poison")
        state = journal.replay()
        assert state.meta["workload"] == "specjbb2000"
        assert state.meta["version"] == JOURNAL_VERSION
        assert state.attempts == {"k1": 2}
        assert state.quarantined["k2"]["attempts"] == 3
        assert not state.torn_tail
        assert state.finished("k2") and not state.finished("k1")

    def test_torn_tail_discarded_silently(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.record_attempt("k1", "64C", 1)
        journal.record_attempt("k2", "64E", 1)
        tear_journal(journal.path, drop_bytes=10)
        state = journal.replay()
        # Only the final record is lost; everything before survives.
        assert state.torn_tail
        assert state.attempts == {"k1": 1}

    def test_corruption_before_tail_raises(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.record_attempt("k1", "64C", 1)
        journal.record_attempt("k2", "64E", 1)
        with open(journal.path, encoding="utf-8") as handle:
            raw = handle.read().splitlines()
        raw[1] = raw[1][:5]  # corrupt a middle record, keep the tail
        # Deliberately non-atomic: simulating in-place file damage.
        with open(journal.path, "w", encoding="utf-8") as handle:  # reprolint: disable=atomic-writes
            handle.write("\n".join(raw) + "\n")
        with pytest.raises(JournalError):
            journal.replay()

    def test_non_journal_file_raises(self, tmp_path):
        path = tmp_path / "not-a-journal.jsonl"
        path.write_text('{"type": "attempt", "key": "k"}\n')  # reprolint: disable=atomic-writes
        with pytest.raises(JournalError):
            SweepJournal(path).replay()

    def test_version_skew_raises(self, tmp_path):
        path = tmp_path / "future.jsonl"
        meta = {"type": "meta", "version": JOURNAL_VERSION + 1,
                "workload": "w", "seed": 1, "trace_len": 10}
        path.write_text(json.dumps(meta) + "\n")  # reprolint: disable=atomic-writes
        with pytest.raises(JournalError) as excinfo:
            SweepJournal(path).replay()
        assert "version" in str(excinfo.value)

    def test_check_meta_rejects_wrong_sweep(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.check_meta("specjbb2000", 1234, 12_000)  # matching: fine
        with pytest.raises(JournalError) as excinfo:
            journal.check_meta("specjbb2000", 4321, 12_000)
        assert "seed" in str(excinfo.value)
        with pytest.raises(JournalError):
            journal.check_meta("database", 1234, 12_000)


class TestSupervisorPolicy:
    def test_defaults(self):
        policy = SupervisorPolicy()
        assert policy.attempts_allowed == 3
        assert policy.config_timeout is None

    def test_backoff_is_deterministic_and_capped(self):
        policy = SupervisorPolicy(backoff_base=0.5, backoff_cap=3.0)
        assert policy.backoff_delay(1) == 0.5
        assert policy.backoff_delay(2) == 1.0
        assert policy.backoff_delay(3) == 2.0
        assert policy.backoff_delay(4) == 3.0  # capped
        assert SupervisorPolicy(backoff_base=0.0).backoff_delay(5) == 0.0

    @pytest.mark.parametrize("kwargs", [
        {"max_retries": -1},
        {"max_retries": 1.5},
        {"max_retries": True},
        {"config_timeout": 0},
        {"config_timeout": -2.0},
        {"backoff_base": -0.1},
        {"pool_failure_limit": -1},
        {"config_timeout": True},
        {"config_timeout": float("inf")},
        {"config_timeout": 1e12},  # beyond what setitimer can arm
        {"pool_failure_limit": True},
        {"backoff_cap": float("nan")},
        {"backoff_base": "x"},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            SupervisorPolicy(**kwargs)


class TestProcessFaultPlan:
    def test_parse_full_spec(self):
        plan = ProcessFaultPlan.parse(
            "kill:64A@1, hang:64C@2 fail:128C crash-journal:64E@1"
        )
        assert plan.entries == (
            ("kill", "64A", 1), ("hang", "64C", 2),
            ("fail", "128C", None), ("crash-journal", "64E", 1),
        )
        # Canonical spec string survives a re-parse (pickle protocol).
        assert ProcessFaultPlan.parse(plan.spec) == plan

    def test_attempt_scoping(self):
        plan = ProcessFaultPlan.parse("fail:64C@2 kill:16A")
        assert not plan._matches("fail", "64C", 1)
        assert plan._matches("fail", "64C", 2)
        assert plan._matches("kill", "16A", 1)
        assert plan._matches("kill", "16A", 7)  # every attempt: poison

    def test_empty_plan(self):
        assert ProcessFaultPlan.parse("").empty
        assert ProcessFaultPlan.parse(None).empty

    @pytest.mark.parametrize("spec", [
        "explode:64C", "kill", "kill:", "fail:64C@soon",
    ])
    def test_bad_specs_raise_config_error(self, spec):
        with pytest.raises(ConfigError):
            ProcessFaultPlan.parse(spec)

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROCESS_FAULTS", "fail:64C@1")
        assert ProcessFaultPlan.from_env().entries == (("fail", "64C", 1),)
        monkeypatch.delenv("REPRO_PROCESS_FAULTS")
        assert ProcessFaultPlan.from_env().empty


class TestWallClockDeadline:
    def test_expires(self):
        with pytest.raises(SweepTimeout):
            with wall_clock_deadline(
                0.1, lambda s: SweepTimeout(f"blew {s}s")
            ):
                time.sleep(5)

    def test_no_deadline_is_a_no_op(self):
        with wall_clock_deadline(None, lambda s: SweepTimeout("never")):
            pass

    def test_nested_inner_expiry_preserves_outer(self):
        # The inner deadline fires; the outer one must survive the
        # round-trip (re-armed with its remaining budget) and still
        # fire afterwards.
        with pytest.raises(SweepTimeout, match="outer"):
            with wall_clock_deadline(0.4, lambda s: SweepTimeout("outer")):
                with pytest.raises(SweepTimeout, match="inner"):
                    with wall_clock_deadline(
                        0.05, lambda s: SweepTimeout("inner")
                    ):
                        time.sleep(5)
                time.sleep(5)


class TestSupervisedSerial:
    POLICY = SupervisorPolicy(max_retries=2, backoff_base=0.01)

    def test_matches_plain_serial_sweep(self, small_annotated,
                                        serial_baseline, tmp_path):
        seen = []
        result = supervised_sweep(
            small_annotated, _grid(), seed=1234, jobs=1,
            journal_path=tmp_path / "sweep.jsonl",
            policy=self.POLICY, progress=seen.append,
        )
        assert result.labels() == list(GRID_SPECS)
        assert seen == list(GRID_SPECS)
        assert result.complete and not result.quarantined
        assert result.executed == len(GRID_SPECS) and result.resumed == 0
        _assert_matches_baseline(result, serial_baseline)

    def test_supervise_kwarg_routes_through_sweep(self, small_annotated,
                                                  serial_baseline):
        result = sweep(
            small_annotated, _grid(), jobs=1,
            supervise={"seed": 1234, "policy": self.POLICY},
        )
        assert result.complete
        _assert_matches_baseline(result, serial_baseline)

    def test_duplicate_labels_rejected(self, small_annotated):
        machine = MachineConfig.named("64C")
        with pytest.raises(ConfigError):
            supervised_sweep(
                small_annotated, [("64C", machine), ("64C", machine)]
            )

    def test_retry_after_transient_fault(self, small_annotated,
                                         serial_baseline, tmp_path):
        journal_path = tmp_path / "retry.jsonl"
        result = supervised_sweep(
            small_annotated, _grid(), seed=1234, jobs=1,
            journal_path=journal_path, policy=self.POLICY,
            fault_plan=ProcessFaultPlan.parse("fail:64C@1"),
        )
        assert result.complete
        _assert_matches_baseline(result, serial_baseline)
        state = SweepJournal(journal_path).replay()
        key = config_key(
            "specjbb2000", 1234, len(small_annotated.trace),
            MachineConfig.named("64C"),
        )
        assert state.attempts[key] == 2  # failed once, then succeeded

    def test_poison_config_is_quarantined_fail_soft(self, small_annotated,
                                                    serial_baseline):
        result = supervised_sweep(
            small_annotated, _grid(), seed=1234, jobs=1,
            policy=self.POLICY,
            fault_plan=ProcessFaultPlan.parse("fail:64E"),
        )
        assert not result.complete
        assert [q.label for q in result.quarantined] == ["64E"]
        assert result.quarantined[0].attempts == self.POLICY.attempts_allowed
        # Attempt count and elapsed time ride along in the error.
        assert "attempt 3 of 3" in result.quarantined[0].error
        assert "after " in result.quarantined[0].error
        assert "64E" in result.quarantine_report()
        # The poison config must not sink the rest of the grid.
        survivors = [s for s in GRID_SPECS if s != "64E"]
        assert result.labels() == survivors
        _assert_matches_baseline(result, serial_baseline, survivors)

    def test_serial_config_timeout_recovers_hang(self, small_annotated,
                                                 serial_baseline):
        policy = SupervisorPolicy(
            max_retries=2, backoff_base=0.01, config_timeout=0.5
        )
        result = supervised_sweep(
            small_annotated, _grid(), seed=1234, jobs=1, policy=policy,
            fault_plan=ProcessFaultPlan.parse("hang:64C@1"),
        )
        assert result.complete
        _assert_matches_baseline(result, serial_baseline)


class TestCrashAndResume:
    POLICY = SupervisorPolicy(max_retries=2, backoff_base=0.01)

    def test_crash_mid_journal_write_then_resume(self, small_annotated,
                                                 serial_baseline, tmp_path):
        journal_path = tmp_path / "crash.jsonl"
        # The supervisor dies flushing the third config's result record:
        # the journal keeps a torn tail for 64E and durable results for
        # the two configs before it.
        with pytest.raises(InjectedCrash):
            supervised_sweep(
                small_annotated, _grid(), seed=1234, jobs=1,
                journal_path=journal_path, policy=self.POLICY,
                fault_plan=ProcessFaultPlan.parse("crash-journal:64E@1"),
            )
        state = SweepJournal(journal_path).replay()
        assert state.torn_tail
        assert len(state.results) == 2

        resumed = supervised_sweep(
            small_annotated, _grid(), seed=1234, jobs=1,
            journal_path=journal_path, resume=True, policy=self.POLICY,
        )
        # Only the configs the journal marks unfinished re-execute.
        assert resumed.resumed == 2 and resumed.executed == 2
        assert resumed.complete
        assert resumed.labels() == list(GRID_SPECS)
        _assert_matches_baseline(resumed, serial_baseline)

    def test_resume_of_finished_sweep_executes_nothing(self,
                                                       small_annotated,
                                                       serial_baseline,
                                                       tmp_path):
        journal_path = tmp_path / "done.jsonl"
        supervised_sweep(
            small_annotated, _grid(), seed=1234, jobs=1,
            journal_path=journal_path, policy=self.POLICY,
        )
        again = supervised_sweep(
            small_annotated, _grid(), seed=1234, jobs=1,
            journal_path=journal_path, resume=True, policy=self.POLICY,
        )
        assert again.resumed == len(GRID_SPECS) and again.executed == 0
        _assert_matches_baseline(again, serial_baseline)

    def test_resume_against_wrong_journal_refuses(self, small_annotated,
                                                  tmp_path):
        journal_path = tmp_path / "wrong.jsonl"
        supervised_sweep(
            small_annotated, _grid()[:1], seed=1234, jobs=1,
            journal_path=journal_path, policy=self.POLICY,
        )
        with pytest.raises(JournalError):
            supervised_sweep(
                small_annotated, _grid()[:1], seed=4321, jobs=1,
                journal_path=journal_path, resume=True, policy=self.POLICY,
            )

    def test_quarantine_survives_resume(self, small_annotated, tmp_path):
        journal_path = tmp_path / "poison.jsonl"
        first = supervised_sweep(
            small_annotated, _grid(), seed=1234, jobs=1,
            journal_path=journal_path, policy=self.POLICY,
            fault_plan=ProcessFaultPlan.parse("fail:64E"),
        )
        assert [q.label for q in first.quarantined] == ["64E"]
        # Resuming does NOT retry the dead-lettered config: the journal
        # remembers the quarantine decision.
        resumed = supervised_sweep(
            small_annotated, _grid(), seed=1234, jobs=1,
            journal_path=journal_path, resume=True, policy=self.POLICY,
        )
        assert [q.label for q in resumed.quarantined] == ["64E"]
        assert resumed.executed == 0
        assert resumed.resumed == len(GRID_SPECS) - 1
