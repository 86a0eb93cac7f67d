"""Tests for the command-line interface."""

import os

import pytest

from repro.cli import _parse_machine, build_parser, main
from repro.core.config import BranchPolicy


class TestMachineSpecs:
    def test_simple_spec(self):
        m = _parse_machine("64C")
        assert m.issue_window == 64 and m.issue.name == "C"

    def test_rob_suffix(self):
        m = _parse_machine("64D/rob256")
        assert m.rob == 256
        assert m.issue.branch_policy == BranchPolicy.OUT_OF_ORDER

    def test_runahead(self):
        m = _parse_machine("RAE")
        assert m.runahead
        m = _parse_machine("rae:max_runahead=512")
        assert m.max_runahead == 512

    def test_options(self):
        m = _parse_machine("64C:store_buffer=8,max_outstanding=16")
        assert m.store_buffer == 8 and m.max_outstanding == 16

    def test_boolean_and_float_options(self):
        m = _parse_machine("64C:slow_branch_predictor=true,slow_bp_accuracy=0.7")
        assert m.slow_branch_predictor
        assert m.slow_bp_accuracy == pytest.approx(0.7)

    def test_malformed_option(self):
        with pytest.raises(ValueError):
            _parse_machine("64C:store_buffer")

    def test_inorder_spec_rejected(self):
        with pytest.raises(ValueError):
            _parse_machine("SOM")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate", "database"])
        assert args.workload == "database"
        assert args.length == 120_000

    def test_workload_or_trace_required(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate"])


class TestCommands:
    WORKLOAD_ARGS = ["specjbb2000", "-n", "12000"]

    def test_simulate(self, capsys):
        assert main(["simulate", *self.WORKLOAD_ARGS, "-m", "32C"]) == 0
        out = capsys.readouterr().out
        assert "32C" in out and "MLP=" in out

    def test_simulate_names_the_config_that_failed(self, capsys):
        """In a grid that runs as one kernel batch, the error names the
        config that made no progress, not the batch's first config."""
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "database", "-n", "20000", "-m", "64C",
                  "-m", "64C:store_buffer=0"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: field '#2 64C:store_buffer=0'"), err
        assert "#1 64C" not in err and "made no progress" in err

    def test_simulate_in_order_and_flags(self, capsys):
        code = main(
            [
                "simulate",
                *self.WORKLOAD_ARGS,
                "--in-order", "both",
                "--inhibitors",
                "--store-mlp",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "stall-on-miss" in out and "stall-on-use" in out
        assert "inhibitors:" in out

    def test_generate_and_reload(self, tmp_path, capsys):
        path = str(tmp_path / "t.npz")
        assert main(["generate", "database", "-n", "8000", "-o", path]) == 0
        assert main(["simulate", "--trace", path, "-m", "16A"]) == 0
        out = capsys.readouterr().out
        assert "wrote 8000 instructions" in out
        assert "16A" in out

    def test_stats(self, capsys):
        assert main(["stats", *self.WORKLOAD_ARGS]) == 0
        out = capsys.readouterr().out
        assert "instructions" in out and "inter-miss" in out

    def test_calibrate(self, capsys):
        assert main(["calibrate", *self.WORKLOAD_ARGS]) == 0
        assert "vs paper" in capsys.readouterr().out

    def test_cyclesim(self, capsys):
        code = main(
            ["cyclesim", *self.WORKLOAD_ARGS, "-m", "32C", "--latency", "300"]
        )
        assert code == 0
        assert "CPI=" in capsys.readouterr().out

    def test_exhibit(self, capsys):
        assert main(["exhibit", "table5", "-n", "12000"]) == 0
        assert "In-Order" in capsys.readouterr().out

    def test_ablation(self, capsys):
        assert main(["ablation", "runahead_distance", "-n", "12000"]) == 0
        assert "runahead" in capsys.readouterr().out.lower()

    @pytest.mark.parametrize("command", [
        ["exhibit", "table5"],
        ["ablation", "store_buffer"],
        ["report", "table5", "-o", "{tmp}/report.md"],
    ], ids=lambda command: command[0])
    def test_length_leaves_the_environment_alone(self, monkeypatch,
                                                 tmp_path, command):
        """``-n`` reaches the runs as ``trace_len``; the process
        environment keeps its ``REPRO_TRACE_LEN`` (here: none)."""
        monkeypatch.delenv("REPRO_TRACE_LEN", raising=False)
        argv = [arg.format(tmp=tmp_path) for arg in command]
        assert main([*argv, "-n", "5000"]) == 0
        assert "REPRO_TRACE_LEN" not in os.environ
        if command[0] == "report":
            report = (tmp_path / "report.md").read_text()
            assert "trace length: 5000 instructions" in report

    def test_bad_machine_spec_exits(self):
        with pytest.raises(SystemExit):
            main(["simulate", "database", "-n", "5000", "-m", "64Z"])


class TestSweepCommand:
    WORKLOAD_ARGS = ["specjbb2000", "-n", "8000", "--seed", "7"]

    def test_sweep_explicit_machines(self, capsys):
        code = main(
            ["sweep", *self.WORKLOAD_ARGS, "-m", "16A", "-m", "64C"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "16A" in out and "64C" in out and "MLP=" in out

    def test_sweep_journal_and_resume(self, tmp_path, capsys):
        journal = str(tmp_path / "sweep.jsonl")
        args = ["sweep", *self.WORKLOAD_ARGS, "-m", "16A", "-m", "64C",
                "--journal", journal]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main([*args, "--resume"]) == 0
        second = capsys.readouterr().out
        assert "resumed 2 config(s)" in second
        # Restored results render identically to the executed ones.
        assert [line for line in first.splitlines() if "MLP=" in line] \
            == [line for line in second.splitlines() if "MLP=" in line]

    def test_sweep_window_policy_grid(self, capsys):
        code = main(
            ["sweep", *self.WORKLOAD_ARGS,
             "--windows", "16,32", "--policies", "A,C"]
        )
        assert code == 0
        out = capsys.readouterr().out
        for label in ("16A", "16C", "32A", "32C"):
            assert label in out

    def test_resume_requires_journal(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", *self.WORKLOAD_ARGS, "--resume"])
        assert excinfo.value.code == 2
        assert "--journal" in capsys.readouterr().err

    def test_bad_jobs_argument_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", *self.WORKLOAD_ARGS, "--jobs", "lots"])
        assert excinfo.value.code == 2

    def test_bad_jobs_env_var_exits_2_with_one_line(self, monkeypatch,
                                                    capsys):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", *self.WORKLOAD_ARGS])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert "REPRO_JOBS" in err

    def test_bad_jobs_env_var_fails_exhibit_eagerly(self, monkeypatch,
                                                    capsys):
        """`repro exhibit` must reject a junk REPRO_JOBS up front with
        exit code 2, not fail-soft per exhibit deep in the batch."""
        monkeypatch.setenv("REPRO_JOBS", "nope")
        with pytest.raises(SystemExit) as excinfo:
            main(["exhibit", "table5", "-n", "8000"])
        assert excinfo.value.code == 2
        assert "REPRO_JOBS" in capsys.readouterr().err

    def test_bad_windows_exit_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", *self.WORKLOAD_ARGS, "--windows", "16,huge"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("timeout", ["1e12", "inf"])
    def test_unarmable_config_timeout_exits_2(self, timeout, capsys):
        """A budget setitimer cannot arm is a usage error, not a reason
        to quarantine healthy configs."""
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", *self.WORKLOAD_ARGS, "-m", "16A", "-m", "64C",
                  "--config-timeout", timeout, "--backoff", "0.01"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert "config_timeout" in err

    def test_quarantine_reported_and_exit_1(self, monkeypatch, capsys):
        """A poison config leaves the sweep fail-soft: results print,
        the quarantine is reported, and the exit code flags it."""
        monkeypatch.setenv("REPRO_PROCESS_FAULTS", "fail:16A")
        code = main(
            ["sweep", *self.WORKLOAD_ARGS, "-m", "16A", "-m", "64C",
             "--backoff", "0.01"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "quarantined" in out
        assert "64C" in out  # the healthy config still completed

    def test_machine_beyond_kernel_contract_runs(self, capsys):
        """A valid machine whose ROB exceeds the kernel's contracted
        range runs on the scalar engine instead of being quarantined."""
        code = main(["sweep", "specjbb2000", "-n", "20000",
                     "-m", "64C:rob=33554432"])
        assert code == 0
        out = capsys.readouterr().out
        assert "MLP=" in out and "quarantined" not in out


class TestInspect:
    def test_inspect_prints_epochs(self, capsys):
        from repro.cli import main

        code = main(
            [
                "inspect", "specjbb2000", "-n", "12000",
                "--epochs", "2", "--members", "4", "--window", "2000",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "epoch 0:" in out
        assert "trigger" in out
        assert "MLP=" in out

    def test_inspect_with_machine_spec(self, capsys):
        from repro.cli import main

        code = main(
            ["inspect", "specjbb2000", "-n", "12000", "-m", "16A",
             "--epochs", "1", "--window", "1500"]
        )
        assert code == 0
        assert "16A" in capsys.readouterr().out

    def test_inspect_runon_imiss_epoch(self, capsys):
        """A store-buffer stall whose run-on fetches an I-miss records
        that I-miss as the epoch trigger instead of crashing."""
        code = main(["inspect", "database", "-n", "100000",
                     "-m", "32C:store_buffer=1", "--window", "100000"])
        assert code == 0
        assert "32C.sb1" in capsys.readouterr().out

    def test_inspect_no_progress_exits_2(self, capsys):
        """``store_buffer=0`` can never drain a missing store: one
        ``error:`` line and exit code 2, not a traceback."""
        with pytest.raises(SystemExit) as excinfo:
            main(["inspect", "database", "-n", "60000",
                  "-m", "64C:store_buffer=0", "--window", "20000"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert err.startswith("error:") and "made no progress" in err
