"""Structural tests for the per-exhibit harnesses.

These run every exhibit on a deliberately small trace and check the
*structure* of the output (rows, headers, internal consistency).  The
paper-shape assertions on calibrated traces live in
``test_integration.py``; the full-size runs live in ``benchmarks/``.
"""

import importlib
import os

import pytest

from repro.experiments import EXHIBITS, run_exhibit
from repro.experiments.common import (
    Exhibit,
    WORKLOAD_NAMES,
    clear_caches,
    default_trace_len,
    get_annotated,
    get_cyclesim,
)
from repro.memory.hierarchy import HierarchyConfig

SMALL = 30000


@pytest.fixture(scope="module", autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


class TestCommon:
    def test_default_trace_len_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_LEN", "55000")
        assert default_trace_len() == 55000

    def test_annotation_memoised(self):
        a = get_annotated("specjbb2000", SMALL)
        b = get_annotated("specjbb2000", SMALL)
        assert a is b

    def test_l2_size_splits_cache_key(self):
        a = get_annotated("specjbb2000", SMALL)
        b = get_annotated("specjbb2000", SMALL, l2_bytes=512 * 1024)
        assert a is not b
        assert a.trace is b.trace

    def test_default_l2_size_is_the_default_annotation(self):
        a = get_annotated("specjbb2000", SMALL)
        assert get_annotated("specjbb2000", SMALL,
                             l2_bytes=2 * 1024 * 1024) is a

    def test_l2_variants_are_not_memoised(self):
        a = get_annotated("specjbb2000", SMALL, l2_bytes=512 * 1024)
        b = get_annotated("specjbb2000", SMALL, l2_bytes=512 * 1024)
        assert a is not b
        assert a.trace is b.trace

    def test_figure7_leaves_only_default_annotations(self):
        from repro.experiments import common, figure7

        clear_caches()
        figure7.run(trace_len=8_000)
        default_l2 = HierarchyConfig().l2.size_bytes
        assert len(common._annotation_cache) == len(WORKLOAD_NAMES)
        for annotated in common._annotation_cache.values():
            assert annotated.config.hierarchy.l2.size_bytes == default_l2

    def test_annotations_stay_in_the_process(self, tmp_path, monkeypatch):
        """A cache directory named in the environment, as the e2e
        harness names one for every child, is left untouched."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_caches()
        for l2_bytes in (None, 512 * 1024):
            get_annotated("specweb99", 2_000, l2_bytes=l2_bytes)
        clear_caches()
        assert os.listdir(tmp_path) == []

    def test_exhibit_formatting(self):
        ex = Exhibit(
            name="X",
            title="t",
            tables=[("sub", ["a"], [[1.0]])],
            notes=["note"],
        )
        text = ex.format()
        assert "== X: t ==" in text
        assert "note" in text
        assert ex.table(0) == [[1.0]]

    def test_unknown_exhibit(self):
        with pytest.raises(ValueError):
            run_exhibit("figure99")


class TestExhibitStructure:
    def test_registry_covers_all_paper_exhibits(self):
        assert set(EXHIBITS) == {
            "table1",
            "figure2",
            "table3",
            "table4",
            "table5",
            "figure4",
            "figure5",
            "figure6",
            "figure7",
            "figure8",
            "figure9_table6",
            "figure10",
            "figure11",
        }

    def test_table1(self):
        ex = run_exhibit("table1", trace_len=SMALL, latencies=(200,))
        rows = ex.table(0)
        assert len(rows) == 3  # one latency x three workloads
        for row in rows:
            cpi, on_chip, off_chip = row[2], row[3], row[4]
            assert cpi == pytest.approx(on_chip + off_chip)
            assert row[6] >= 1.0  # MLP
            assert 0.0 <= row[7] <= 1.0  # Overlap_CM

    def test_figure2(self):
        ex = run_exhibit("figure2", trace_len=SMALL)
        rows = ex.table(0)
        for row in rows:
            assert 0.0 <= row[2] <= 1.0 and 0.0 <= row[3] <= 1.0
        # Cumulative curves are monotone per workload.
        for name in ("Database",):
            series = [r[2] for r in rows if r[0] == name]
            assert series == sorted(series)

    def test_table3(self):
        ex = run_exhibit(
            "table3", trace_len=SMALL, sizes=(32,), configs="AC",
            latencies=(200, 1000),
        )
        rows = ex.table(0)
        assert len(rows) == 6
        for row in rows:
            cyc200, cyc1000, mlpsim = row[3], row[4], row[5]
            assert abs(cyc1000 - mlpsim) <= abs(cyc200 - mlpsim) + 0.02

    def test_table4(self):
        ex = run_exhibit("table4", trace_len=SMALL, configs="AC")
        rows = ex.table(0)
        for row in rows:
            measured = row[-1]
            for estimate in row[2:-1]:
                assert estimate == pytest.approx(measured, rel=0.08)

    def test_table5(self):
        ex = run_exhibit("table5", trace_len=SMALL)
        for row in ex.table(0):
            som, sou, ooo = row[1], row[2], row[3]
            assert 1.0 <= som <= sou

    def test_figure4(self):
        ex = run_exhibit("figure4", trace_len=SMALL, sizes=(16, 64),
                         configs="ACE")
        assert len(ex.tables) == 3  # one block per workload
        for _, headers, rows in ex.tables:
            assert headers[0] == "ROB/IW"
            for row in rows:
                # Config aggressiveness is monotone left to right.
                assert row[1] <= row[2] + 1e-9 <= row[3] + 2e-9
            # Window size is monotone within a config.
            assert rows[0][1] <= rows[1][1] + 1e-9

    def test_figure5(self):
        ex = run_exhibit("figure5", trace_len=SMALL, sizes=(64,), configs="ACE")
        for _, _headers, rows in ex.tables:
            for row in rows:
                fractions = row[1:]
                assert all(0.0 <= f <= 1.0 for f in fractions)
                assert sum(fractions) == pytest.approx(1.0, abs=1e-6)

    def test_figure6(self):
        ex = run_exhibit("figure6", trace_len=SMALL, iw_sizes=(16,),
                         configs="CE")
        for _, _headers, rows in ex.tables:
            for row in rows[:-1]:  # skip the INF row
                series = [v for v in row[1:] if v is not None]
                for a, b in zip(series, series[1:]):
                    assert a <= b + 1e-9  # more ROB never hurts

    def test_figure7(self):
        sizes = (512 * 1024, 2 * 1024 * 1024)
        ex = run_exhibit("figure7", trace_len=SMALL, l2_sizes=sizes)
        rows = ex.table(0)
        assert len(rows) == 6  # MLP + miss-rate row per workload
        for row in rows:
            if row[1] == "miss/100":
                assert row[2] >= row[3] - 1e-9  # misses fall with L2 size

    def test_figure8(self):
        ex = run_exhibit("figure8", trace_len=SMALL, max_runahead=512)
        for row in ex.table(0):
            rob64, rob256, rae = row[1], row[2], row[3]
            assert rob64 <= rob256 + 1e-9
            assert rae >= rob64 - 1e-9

    def test_figure9_table6(self):
        ex = run_exhibit("figure9_table6", trace_len=SMALL, max_runahead=512)
        table6 = ex.table(0)
        for row in table6:
            assert sum(row[1:]) == pytest.approx(1.0, abs=1e-6)
        figure9 = ex.table(1)
        for row in figure9:
            assert all(gain >= -1e-9 for gain in row[1:])

    def test_figure10(self):
        ex = run_exhibit("figure10", trace_len=SMALL)
        for _, _headers, rows in ex.tables:
            for row in rows:
                base = row[1]
                for value in row[2:-1]:
                    assert value >= base - 1e-9  # perfection never hurts

    def test_figure11(self):
        ex = run_exhibit("figure11", trace_len=SMALL)
        rows = ex.table(0)
        assert len(rows) == len(WORKLOAD_NAMES)
        headers = ex.tables[0][1]
        rae_index = headers.index("RAE") - 1
        for row in rows:
            assert row[1 + rae_index - 0] == row[headers.index("RAE")]
            assert row[headers.index("RAE")] > -0.5


#: Every exhibit that runs MLPsim.
MLPSIM_EXHIBITS = (
    "table3", "table4", "table5", "figure7", "figure8", "figure9_table6",
    "figure10", "figure11",
)

ROUTE_LEN = 20000


class TestMLPsimRoutes:
    """With the kernel built, every MLPsim run of an exhibit is a kernel
    call; without it, the oracles print the same text."""

    def test_exhibits_never_reach_the_scalar_engines(self, monkeypatch):
        from repro.core import ckernel, mlpsim, mlpsim_reference, runahead

        if not ckernel.kernel_available():
            pytest.skip(f"no compiled kernel: {ckernel.kernel_error()}")

        def forbidden(*args, **kwargs):
            raise AssertionError("scalar MLPsim engine reached")

        # Import first, so no module binds the stand-in for good.
        for name in MLPSIM_EXHIBITS:
            importlib.import_module(EXHIBITS[name])
        # The oracles too, so a caller that bound ``simulate_oracle`` at
        # import time is caught as well.
        monkeypatch.setattr(mlpsim, "simulate", forbidden)
        monkeypatch.setattr(mlpsim, "simulate_oracle", forbidden)
        monkeypatch.setattr(mlpsim_reference, "simulate_reference",
                            forbidden)
        monkeypatch.setattr(runahead, "simulate_runahead", forbidden)
        for name in MLPSIM_EXHIBITS:
            run_exhibit(name, trace_len=ROUTE_LEN)

    def test_no_kernel_text_is_byte_identical(self, request):
        with_kernel = {
            name: run_exhibit(name, trace_len=ROUTE_LEN).format()
            for name in MLPSIM_EXHIBITS
        }
        request.getfixturevalue("no_kernel")
        for name in MLPSIM_EXHIBITS:
            text = run_exhibit(name, trace_len=ROUTE_LEN).format()
            assert text == with_kernel[name], name


class TestCyclesimMemo:
    """Tables 1, 3 and 4 and Figure 11 share cyclesim configs; each
    distinct one runs once per annotation."""

    def test_each_distinct_config_runs_once(self, monkeypatch):
        import dataclasses

        from repro.analysis.sweep import sweep_cyclesim
        from repro.cyclesim import ckernel

        if not ckernel.kernel_available():
            pytest.skip(f"no compiled kernel: {ckernel.kernel_error()}")
        clear_caches()
        sent = []
        real = ckernel.run_cycle_plan

        def counting(plan, pairs, workload):
            pairs = list(pairs)
            sent.extend((workload, config) for _, config in pairs)
            return real(plan, pairs, workload)

        monkeypatch.setattr(ckernel, "run_cycle_plan", counting)
        for name in ("table1", "table3", "table4", "figure11"):
            run_exhibit(name, trace_len=ROUTE_LEN)
        # 117 requested; Table 4's real runs are Table 3's, Table 1's
        # 64C runs are Table 3's and Table 4's, and a perfect-L2 run
        # does not depend on the miss penalty.
        assert len(sent) == 96
        assert len(set(sent)) == len(sent)

        for workload in WORKLOAD_NAMES:
            annotated = get_annotated(workload, ROUTE_LEN)
            pairs = [(f"config {index}", config)
                     for index, (name, config) in enumerate(sent)
                     if name == workload]
            before = len(sent)
            memoised = get_cyclesim(annotated, pairs, workload)
            assert len(sent) == before  # every one memoised
            fresh = sweep_cyclesim(annotated, pairs, workload=workload)
            for label, _ in pairs:
                assert dataclasses.asdict(memoised[label]) == \
                    dataclasses.asdict(fresh.results[label]), label
        clear_caches()

    def test_perfect_l2_is_keyed_without_the_miss_penalty(self):
        from repro.core.config import MachineConfig
        from repro.cyclesim import CycleSimConfig

        annotated = get_annotated("specweb99", ROUTE_LEN)
        pairs = [
            (f"p{penalty}{suffix}", CycleSimConfig.from_machine(
                MachineConfig.named("64C"), miss_penalty=penalty,
                perfect_l2=bool(suffix)))
            for penalty in (200, 1000) for suffix in ("", "/perfL2")
        ]
        results = get_cyclesim(annotated, pairs, "specweb99")
        assert list(results) == [label for label, _ in pairs]
        assert results["p200/perfL2"] is results["p1000/perfL2"]
        assert results["p200"].cycles < results["p1000"].cycles
