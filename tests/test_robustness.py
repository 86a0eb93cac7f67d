"""Unit tests for the robustness subsystem and its CLI surfacing.

Covers the exception hierarchy's contract (ReproError subclasses that
stay ``ValueError``-compatible and carry path/field diagnostics), the
three validator layers, atomic file replacement, configuration
validation, and the argparse-style one-line errors the CLI emits for
malformed machine specs.
"""

import numpy as np
import pytest

from repro.robustness.atomic import (
    atomic_savez,
    atomic_write,
    atomic_write_text,
)
from repro.robustness.errors import (
    ConfigError,
    ExhibitTimeout,
    ReproError,
    SimulationError,
    TraceFormatError,
)
from repro.robustness.validate import (
    validate_annotated,
    validate_archive_columns,
    validate_trace,
)
from repro.trace.annotate import manual_annotation
from repro.trace.builder import TraceBuilder


def _trace():
    b = TraceBuilder("unit")
    b.add_load(0x100, dst=1, addr=0x8000, src1=2)
    b.add_alu(0x104, dst=2, src1=1)
    b.add_branch(0x108, taken=True, target=0x100, src1=2)
    return b.build()


class TestErrorHierarchy:
    def test_subclassing(self):
        for cls in (TraceFormatError, ConfigError, SimulationError):
            assert issubclass(cls, ReproError)
            assert issubclass(cls, ValueError)
        assert issubclass(ExhibitTimeout, SimulationError)

    def test_message_carries_path_and_field(self):
        error = TraceFormatError("boom", path="/x/t.npz", field="addr")
        assert error.path == "/x/t.npz"
        assert error.field == "addr"
        assert "/x/t.npz" in str(error)
        assert "'addr'" in str(error)
        assert "boom" in str(error)

    def test_message_without_context(self):
        assert str(ConfigError("plain message")) == "plain message"

    def test_top_level_exports(self):
        import repro

        assert repro.ReproError is ReproError
        assert repro.TraceFormatError is TraceFormatError
        assert repro.validate_trace is validate_trace
        assert repro.validate_annotated is validate_annotated


class TestValidateTrace:
    def test_valid_trace_returned(self):
        trace = _trace()
        assert validate_trace(trace) is trace

    def test_bad_opcode_rejected(self):
        trace = _trace()
        op = np.asarray(trace.op).copy()
        op[0] = 99
        cols = dict(trace.columns())
        cols["op"] = op
        from repro.trace.trace import Trace

        with pytest.raises(TraceFormatError, match="99") as excinfo:
            validate_trace(Trace(cols))
        assert excinfo.value.field == "op"

    @pytest.mark.parametrize("column,value", [
        ("dst", 64), ("src1", -2), ("src3", 4096),
    ])
    def test_out_of_range_register_rejected(self, column, value):
        trace = _trace()
        bad = np.asarray(getattr(trace, column)).copy()
        bad[0] = value
        cols = dict(trace.columns())
        cols[column] = bad
        from repro.trace.trace import Trace

        with pytest.raises(TraceFormatError) as excinfo:
            validate_trace(Trace(cols))
        assert excinfo.value.field == column


class TestValidateArchiveColumns:
    def _payload(self):
        trace = _trace()
        return {name: np.asarray(col) for name, col in
                trace.columns().items()}

    def test_missing_column(self):
        payload = self._payload()
        del payload["pc"]
        with pytest.raises(TraceFormatError, match="missing") as excinfo:
            validate_archive_columns(payload)
        assert excinfo.value.field == "pc"

    def test_unknown_column(self):
        payload = self._payload()
        payload["junk"] = np.zeros(3)
        with pytest.raises(TraceFormatError, match="unknown") as excinfo:
            validate_archive_columns(payload)
        assert excinfo.value.field == "junk"

    def test_annotation_masks_tolerated_for_plain_trace(self):
        payload = self._payload()
        payload["ann_dmiss"] = np.zeros(3, dtype=bool)
        validate_archive_columns(payload)  # annotated archive, plain load

    def test_wrong_dtype(self):
        payload = self._payload()
        payload["addr"] = payload["addr"].astype(np.float64)
        with pytest.raises(TraceFormatError, match="dtype") as excinfo:
            validate_archive_columns(payload)
        assert excinfo.value.field == "addr"

    def test_unequal_lengths(self):
        payload = self._payload()
        payload["pc"] = payload["pc"][:-1]
        with pytest.raises(TraceFormatError, match="unequal"):
            validate_archive_columns(payload)


class TestValidateAnnotated:
    def test_valid_annotation_returned(self):
        annotated = manual_annotation(_trace(), dmiss_at=[0])
        assert validate_annotated(annotated) is annotated

    def test_wrong_mask_dtype_rejected(self):
        annotated = manual_annotation(_trace(), dmiss_at=[0])
        annotated.dmiss = annotated.dmiss.astype(np.int8)
        with pytest.raises(TraceFormatError, match="dtype") as excinfo:
            validate_annotated(annotated)
        assert excinfo.value.field == "dmiss"

    def test_wrong_mask_length_rejected(self):
        annotated = manual_annotation(_trace(), dmiss_at=[0])
        annotated.imiss = annotated.imiss[:-1]
        with pytest.raises(TraceFormatError, match="length"):
            validate_annotated(annotated)

    def test_bad_vp_code_rejected(self):
        annotated = manual_annotation(_trace(), dmiss_at=[0])
        vp = annotated.vp_outcome.copy()
        vp[0] = 7
        annotated.vp_outcome = vp
        with pytest.raises(TraceFormatError, match="7") as excinfo:
            validate_annotated(annotated)
        assert excinfo.value.field == "vp_outcome"

    def test_bad_measure_start_rejected(self):
        annotated = manual_annotation(_trace(), dmiss_at=[0])
        annotated.measure_start = 99
        with pytest.raises(TraceFormatError, match="measure_start"):
            validate_annotated(annotated)

    def test_event_consistency_optional(self):
        # A hand-placed dmiss on an ALU instruction: fine structurally
        # (the simulators accept it), rejected by the loader contract.
        annotated = manual_annotation(_trace(), dmiss_at=[1])
        validate_annotated(annotated, check_events=False)
        with pytest.raises(TraceFormatError) as excinfo:
            validate_annotated(annotated, check_events=True)
        assert excinfo.value.field == "dmiss"


class TestValidateOnce:
    """A pass over read-only masks is remembered until a mask, the
    trace or ``measure_start`` is reassigned."""

    @pytest.fixture
    def annotated(self):
        from repro.trace.annotate import annotate
        from repro.workloads import generate_trace

        return annotate(generate_trace("specweb99", 2_000))

    @pytest.fixture
    def checks(self, monkeypatch):
        from repro.robustness import validate

        seen = []

        def counting(annotated, *args, real=validate._check_structure):
            seen.append(annotated)
            return real(annotated, *args)

        monkeypatch.setattr(validate, "_check_structure", counting)
        return seen

    def test_annotate_returns_read_only_masks(self, annotated):
        from repro.trace.io import ANNOTATION_FIELDS

        for name in ANNOTATION_FIELDS:
            assert not getattr(annotated, name).flags.writeable, name

    def test_second_simulator_check_is_skipped(self, annotated, checks):
        for _ in range(3):
            assert validate_annotated(annotated, check_events=False) \
                is annotated
        assert len(checks) == 1

    def test_event_checks_always_run(self, annotated, checks):
        validate_annotated(annotated, check_events=False)
        validate_annotated(annotated, check_events=True)
        assert len(checks) == 2

    def test_reassigned_mask_after_a_pass_still_raises(self, annotated):
        validate_annotated(annotated, check_events=False)
        annotated.dmiss = annotated.dmiss.astype(np.int8)
        with pytest.raises(TraceFormatError, match="dtype") as excinfo:
            validate_annotated(annotated, check_events=False)
        assert excinfo.value.field == "dmiss"

    def test_reassigned_read_only_mask_is_checked_again(self, annotated):
        validate_annotated(annotated, check_events=False)
        short = annotated.imiss[:-1]
        assert not short.flags.writeable
        annotated.imiss = short
        with pytest.raises(TraceFormatError, match="length"):
            validate_annotated(annotated, check_events=False)

    def test_moved_measure_start_is_checked_again(self, annotated):
        validate_annotated(annotated, check_events=False)
        annotated.measure_start = len(annotated) + 1
        with pytest.raises(TraceFormatError, match="measure_start"):
            validate_annotated(annotated, check_events=False)

    def test_writable_masks_are_checked_every_time(self, checks):
        annotated = manual_annotation(_trace(), dmiss_at=[0])
        validate_annotated(annotated, check_events=False)
        annotated.vp_outcome[0] = 7  # an in-place edit keeps the identity
        with pytest.raises(TraceFormatError, match="7"):
            validate_annotated(annotated, check_events=False)
        assert len(checks) == 2

    def test_exhibit_all_checks_each_annotation_once(self, checks,
                                                     monkeypatch):
        from repro.experiments import common
        from repro.experiments.runner import run_exhibits

        made = []

        def counting(*args, real=common.annotate, **kwargs):
            made.append(real(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(common, "annotate", counting)
        common.clear_caches()
        try:
            outcomes = run_exhibits(["all"], trace_len=12_000)
        finally:
            common.clear_caches()
        assert all(outcome.ok for outcome in outcomes)
        # Three default annotations plus Figure 7's twelve variants.
        assert len(made) == 15
        assert len(checks) == len(made)


class TestAtomicWrite:
    def test_success_replaces_and_cleans_up(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "first")
        atomic_write_text(path, "second")
        assert path.read_text() == "second"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_failure_preserves_existing_file(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "keep me")
        with pytest.raises(RuntimeError):
            with atomic_write(path, "w") as handle:
                handle.write("partial")
                raise RuntimeError("interrupted")  # reprolint: disable=error-hierarchy
        assert path.read_text() == "keep me"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_failure_without_existing_file(self, tmp_path):
        path = tmp_path / "never.txt"
        with pytest.raises(RuntimeError):
            with atomic_write(path, "w") as handle:
                handle.write("partial")
                raise RuntimeError("interrupted")  # reprolint: disable=error-hierarchy
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []

    def test_atomic_savez_is_loadable_npz(self, tmp_path):
        path = tmp_path / "arrays.npz"
        atomic_savez(path, a=np.arange(4), b=np.ones(2))
        with np.load(path) as archive:
            assert list(archive["a"]) == [0, 1, 2, 3]


class TestConfigErrors:
    def test_unknown_machine_label(self):
        from repro.core.config import MachineConfig

        with pytest.raises(ConfigError, match="machine label"):
            MachineConfig.named("Z")

    def test_non_integer_size(self):
        from repro.core.config import MachineConfig

        with pytest.raises(ConfigError):
            MachineConfig.named("xxC")

    def test_unknown_override_lists_valid_options(self):
        from repro.core.config import MachineConfig

        with pytest.raises(ConfigError, match="valid options") as excinfo:
            MachineConfig.named("64C", robb=256)
        assert excinfo.value.field == "robb"

    def test_unknown_issue_letter(self):
        from repro.core.config import IssueConfig

        with pytest.raises(ConfigError, match="issue"):
            IssueConfig.from_letter("Q")

    def test_get_annotated_rejects_zero_trace_len(self):
        from repro.experiments.common import get_annotated

        with pytest.raises(ConfigError, match="positive") as excinfo:
            get_annotated("database", trace_len=0)
        assert excinfo.value.field == "trace_len"

    @pytest.mark.parametrize("bad", [-5, 1.5, "4000", True])
    def test_get_annotated_rejects_non_positive_int(self, bad):
        from repro.experiments.common import get_annotated

        with pytest.raises(ConfigError):
            get_annotated("database", trace_len=bad)


class TestCliMachineSpecErrors:
    """Malformed specs exit with code 2 and a one-line error message."""

    @pytest.mark.parametrize("spec", [
        "64C:rob=abc",          # non-numeric option value
        "64C/robXYZ",           # non-integer ROB suffix
        "64Q",                  # unknown issue letter
        "ZZZ",                  # unknown machine name
        "64C:bogus_option=1",   # unknown option name
        "64C:rob",              # option without a value
        "SOM",                  # in-order name in the OoO slot
    ])
    def test_bad_spec_exits_2(self, spec, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "database", "-n", "2000", "-m", spec])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1  # one line, argparse style

    def test_parse_machine_raises_config_error(self):
        from repro.cli import _parse_machine

        with pytest.raises(ConfigError, match="64C:rob=abc"):
            _parse_machine("64C:rob=abc")
        with pytest.raises(ValueError):  # compatibility alias
            _parse_machine("64C/robXYZ")

    def test_good_specs_still_parse(self):
        from repro.cli import _parse_machine

        assert _parse_machine("64C").rob == 64
        assert _parse_machine("64D/rob256").rob == 256
        assert _parse_machine("RAE").runahead
        assert _parse_machine("64C:store_buffer=8").store_buffer == 8


class TestSimulationErrors:
    def test_bad_region_is_simulation_error(self):
        from repro.core.config import MachineConfig
        from repro.core.mlpsim import simulate

        annotated = manual_annotation(_trace(), dmiss_at=[0])
        with pytest.raises(SimulationError, match="region"):
            simulate(annotated, MachineConfig(), start=2, stop=1)

    def test_simulate_validates_annotation_structure(self):
        from repro.core.config import MachineConfig
        from repro.core.mlpsim import simulate

        annotated = manual_annotation(_trace(), dmiss_at=[0])
        annotated.dmiss = annotated.dmiss[:-1]
        with pytest.raises(TraceFormatError, match="length"):
            simulate(annotated, MachineConfig())
