"""Fault-injection tests: every corrupted archive is rejected loudly.

Each test saves a known-good trace (or annotated trace) archive, applies
one deterministic corruption from :mod:`repro.robustness.faults`, and
proves the loader raises a :class:`~repro.robustness.errors.ReproError`
subclass naming the file and the field at fault — never a raw numpy
traceback, and never a silently wrong in-memory trace.

Also covers the other two robustness contracts of the PR: atomic saves
(an interrupted :func:`save_trace` leaves no partial archive at the
destination) and the fail-soft exhibit runner (one failing exhibit does
not sink the batch).
"""

import pytest

from repro.robustness import faults
from repro.robustness.errors import (
    ConfigError,
    ExhibitTimeout,
    ReproError,
    TraceFormatError,
)
from repro.trace.annotate import manual_annotation
from repro.trace.builder import TraceBuilder
from repro.trace.io import (
    load_annotated,
    load_trace,
    save_annotated,
    save_trace,
)


def _trace():
    b = TraceBuilder("faulty")
    b.add_alu(0x100, dst=1, src1=2, src2=3)
    b.add_load(0x104, dst=4, addr=0x8000, src1=1, value=42)
    b.add_store(0x108, addr=0x8008, data_src=4, src1=1)
    b.add_branch(0x10C, taken=True, target=0x200, src1=4)
    b.add_prefetch(0x200, addr=0x9000, src1=1)
    b.add_membar(0x204)
    b.add_nop(0x208)
    return b.build()


@pytest.fixture
def trace_path(tmp_path):
    path = tmp_path / "trace.npz"
    save_trace(_trace(), path)
    return path


@pytest.fixture
def annotated_path(tmp_path):
    trace = _trace()
    annotated = manual_annotation(
        trace, dmiss_at=[1], imiss_at=[4], mispred_at=[3], measure_start=1
    )
    path = tmp_path / "annotated.npz"
    save_annotated(annotated, path)
    return path


#: (fault name, injector options, loader, expected field in the error).
TRACE_FAULTS = [
    ("truncate", {}, None),
    ("drop_column", {"column": "addr"}, "addr"),
    ("extra_column", {"column": "bogus"}, "bogus"),
    ("wrong_dtype", {"column": "addr"}, "addr"),
    ("nan", {"column": "addr"}, "addr"),
    ("out_of_range_register", {"column": "src1"}, "src1"),
    ("version_skew", {}, "__version__"),
]

#: The trace faults, plus faults on the event-mask columns an annotated
#: archive adds.
ANNOTATED_FAULTS = TRACE_FAULTS + [
    ("drop_column", {"column": "ann_smiss"}, "ann_smiss"),
    ("wrong_dtype", {"column": "ann_dmiss"}, "ann_dmiss"),
    ("nan", {"column": "ann_vp_outcome"}, "ann_vp_outcome"),
]


class TestTraceFaults:
    @pytest.mark.parametrize("fault,options,field", TRACE_FAULTS)
    def test_corrupted_trace_rejected(self, trace_path, fault, options,
                                      field):
        faults.inject_fault(trace_path, fault, **options)
        with pytest.raises(TraceFormatError) as excinfo:
            load_trace(trace_path)
        error = excinfo.value
        assert isinstance(error, ReproError)
        assert error.path == str(trace_path)
        if field is not None:
            assert error.field == field

    @pytest.mark.parametrize("fault,options,field", ANNOTATED_FAULTS)
    def test_corrupted_annotated_rejected(self, annotated_path, fault,
                                          options, field):
        faults.inject_fault(annotated_path, fault, **options)
        with pytest.raises(TraceFormatError) as excinfo:
            load_annotated(annotated_path)
        error = excinfo.value
        assert error.path == str(annotated_path)
        if field is not None:
            assert error.field == field

    def test_corrupted_event_mask_rejected(self, annotated_path):
        # dmiss everywhere marks ALU/branch/store instructions that
        # cannot raise a data miss — the canonical silent-wrong-MLP
        # corruption.
        faults.inject_fault(annotated_path, "corrupt_mask",
                            field="ann_dmiss")
        with pytest.raises(TraceFormatError) as excinfo:
            load_annotated(annotated_path)
        assert excinfo.value.field == "dmiss"
        assert "index" in str(excinfo.value)

    def test_errors_are_valueerror_compatible(self, trace_path):
        faults.inject_fault(trace_path, "drop_column", column="pc")
        with pytest.raises(ValueError):
            load_trace(trace_path)

    def test_unknown_fault_name_rejected(self, trace_path):
        with pytest.raises(ConfigError, match="unknown fault"):
            faults.inject_fault(trace_path, "cosmic_ray")

    def test_all_registered_faults_covered(self):
        tested = {name for name, _, _ in TRACE_FAULTS} | {"corrupt_mask"}
        assert tested == set(faults.FAULTS)


class TestAtomicSaves:
    def test_interrupted_save_leaves_no_partial_archive(
        self, tmp_path, monkeypatch
    ):
        """A crash mid-write must not leave a partial .npz behind."""
        import repro.robustness.atomic as atomic_module

        path = tmp_path / "trace.npz"

        def exploding_write(member, array, **kwargs):
            member.write(b"\x93NUMPY partial array header")
            raise OSError("disk full")  # reprolint: disable=error-hierarchy

        monkeypatch.setattr(
            atomic_module.np.lib.format, "write_array", exploding_write
        )
        with pytest.raises(OSError, match="disk full"):
            save_trace(_trace(), path)
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []

    def test_interrupted_save_preserves_previous_archive(
        self, trace_path, monkeypatch
    ):
        """Overwriting an existing archive keeps the old copy on failure."""
        import repro.robustness.atomic as atomic_module

        before = trace_path.read_bytes()

        def exploding_write(member, array, **kwargs):
            raise OSError("disk full")  # reprolint: disable=error-hierarchy

        monkeypatch.setattr(
            atomic_module.np.lib.format, "write_array", exploding_write
        )
        with pytest.raises(OSError):
            save_trace(_trace(), trace_path)
        assert trace_path.read_bytes() == before
        assert load_trace(trace_path) is not None


class _FakeExhibit:
    def format(self):
        return "== fake =="


class TestFailSoftRunner:
    @pytest.fixture
    def fake_registry(self, monkeypatch):
        import repro.experiments.runner as runner_module

        calls = []

        def fake_run_exhibit(name, **kwargs):
            calls.append(name)
            if name == "bad":
                raise TraceFormatError("synthetic failure", field="x")
            return _FakeExhibit()

        monkeypatch.setattr(
            runner_module, "EXHIBITS", {"a": None, "bad": None, "c": None}
        )
        monkeypatch.setattr(runner_module, "run_exhibit", fake_run_exhibit)
        return calls

    def test_one_failure_does_not_sink_the_batch(self, fake_registry):
        from repro.experiments.runner import format_summary, run_exhibits

        outcomes = run_exhibits(["a", "bad", "c"])
        assert fake_registry == ["a", "bad", "c"]
        assert [o.ok for o in outcomes] == [True, False, True]
        failed = outcomes[1]
        assert "synthetic failure" in failed.error
        assert failed.traceback is not None
        summary = format_summary(outcomes)
        assert "2/3 passed" in summary
        assert "FAILED" in summary

    def test_summary_lines_carry_peak_rss(self, fake_registry):
        from repro.experiments.runner import format_summary, run_exhibits

        outcomes = run_exhibits(["a", "bad", "c"])
        peaks = [o.peak_rss_mb for o in outcomes]
        assert all(peak > 0 for peak in peaks)
        assert peaks == sorted(peaks)  # a high-water mark never falls
        lines = format_summary(outcomes).splitlines()[1:]
        assert len(lines) == len(outcomes)
        for outcome, line in zip(outcomes, lines):
            assert f"peak RSS {outcome.peak_rss_mb:7.1f} MB" in line
        assert lines[1].endswith(outcomes[1].error)  # the error stays last

    @pytest.mark.parametrize("platform, maxrss", [
        ("linux", 3 * 1024 * 1024),        # KiB
        ("darwin", 3 * 1024 * 1024 * 1024),  # bytes
    ])
    def test_peak_rss_units(self, monkeypatch, tmp_path, platform, maxrss):
        """Without ``/proc``, ``ru_maxrss`` is read in each platform's
        unit."""
        import types

        import repro.experiments.runner as runner_module

        usage = types.SimpleNamespace(ru_maxrss=maxrss)
        monkeypatch.setattr(runner_module, "resource", types.SimpleNamespace(
            RUSAGE_SELF=0, getrusage=lambda who: usage))
        monkeypatch.setattr(runner_module.sys, "platform", platform)
        monkeypatch.setattr(runner_module, "_STATUS_PATH",
                            str(tmp_path / "no-proc" / "status"))
        assert runner_module.peak_rss_mb() == 3 * 1024

    def test_vmhwm_parsed_from_status_text(self):
        from repro.experiments.runner import vmhwm_kib

        status = ("Name:\tpython3\nVmPeak:\t  412000 kB\n"
                  "VmHWM:\t   13312 kB\nVmRSS:\t   12800 kB\n")
        assert vmhwm_kib(status) == 13312
        assert vmhwm_kib("Name:\tpython3\nVmRSS:\t 12800 kB\n") is None

    def test_peak_rss_covers_vmhwm_on_linux(self):
        """On Linux the peak is this process's own ``VmHWM``, in MB, not
        ``ru_maxrss``, which also counts the image the process replaced
        at exec."""
        from repro.experiments.runner import peak_rss_mb, vmhwm_kib

        def vmhwm_mb():
            try:
                with open("/proc/self/status") as status:
                    kib = vmhwm_kib(status.read())
            except OSError:
                kib = None
            if kib is None:
                pytest.skip("no /proc/self/status VmHWM on this platform")
            return kib / 1024

        before = vmhwm_mb()
        peak = peak_rss_mb()
        assert before <= peak <= vmhwm_mb()  # a high-water mark only rises

    def test_no_peak_rss_without_resource(self, fake_registry, monkeypatch):
        import repro.experiments.runner as runner_module

        monkeypatch.setattr(runner_module, "resource", None)
        outcomes = runner_module.run_exhibits(["a", "c"])
        assert [o.peak_rss_mb for o in outcomes] == [None, None]
        assert "peak RSS" not in runner_module.format_summary(outcomes)

    def test_all_expands_to_registry(self, fake_registry):
        from repro.experiments.runner import run_exhibits

        outcomes = run_exhibits(["all"])
        assert [o.name for o in outcomes] == ["a", "bad", "c"]
        assert run_exhibits(None)[0].name == "a"

    def test_unknown_exhibit_recorded_not_raised(self, fake_registry,
                                                 monkeypatch):
        import repro.experiments.runner as runner_module

        def strict_run_exhibit(name, **kwargs):
            if name not in runner_module.EXHIBITS:
                raise ValueError(f"unknown exhibit {name!r}")  # reprolint: disable=error-hierarchy
            return _FakeExhibit()

        monkeypatch.setattr(runner_module, "run_exhibit", strict_run_exhibit)
        from repro.experiments.runner import run_exhibits

        outcomes = run_exhibits(["a", "nope"])
        assert [o.ok for o in outcomes] == [True, False]
        assert "unknown exhibit" in outcomes[1].error

    def test_cli_exhibit_fail_soft_exit_code(self, fake_registry, capsys):
        from repro.cli import main

        assert main(["exhibit", "a", "bad", "c"]) == 1
        out = capsys.readouterr().out
        assert "exhibit summary: 2/3 passed" in out
        assert main(["exhibit", "a", "c"]) == 0

    @pytest.mark.skipif(
        not hasattr(__import__("signal"), "SIGALRM"),
        reason="per-exhibit timeouts need SIGALRM",
    )
    def test_timeout_fails_one_exhibit_softly(self, monkeypatch):
        import repro.experiments.runner as runner_module

        def slow_run_exhibit(name, **kwargs):
            if name == "slow":
                import time

                time.sleep(5.0)
            return _FakeExhibit()

        monkeypatch.setattr(
            runner_module, "EXHIBITS", {"slow": None, "quick": None}
        )
        monkeypatch.setattr(runner_module, "run_exhibit", slow_run_exhibit)
        from repro.experiments.runner import run_exhibits

        outcomes = run_exhibits(["slow", "quick"], timeout=0.2)
        assert [o.ok for o in outcomes] == [False, True]
        assert ExhibitTimeout.__name__ in outcomes[0].error
        assert outcomes[0].seconds < 2.0
