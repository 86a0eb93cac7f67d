"""The compiled kernel's runahead scan vs the runahead oracle.

``_mlpsim_kernel.c`` runs runahead machines with a C translation of
:func:`repro.core.runahead.simulate_runahead`, selected per config
inside one kernel call, so runahead and out-of-order configs of one
mask group share a plan and a call.  Every result must equal the
oracle's in every :class:`MLPResult` field.

The file also pins the kernel envelope: machines whose kernel config
falls outside the contracted ranges (valid machines can exceed them)
run on the oracles instead of failing, on every sweep route.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.analysis.parallel as parallel
from repro.analysis.sweep import sweep
from repro.core import ckernel
from repro.core.ckernel import batched_supported
from repro.core.columnar import plan_for
from repro.core.config import MachineConfig
from repro.core.depgraph import depgraph_for
from repro.core.limits import limit_configs
from repro.core.mlpsim import simulate, simulate_oracle
from repro.core.runahead import simulate_runahead
from repro.experiments.common import clear_caches, get_annotated
from tests.test_mlpsim_properties import random_annotated_trace

pytestmark = pytest.mark.skipif(
    not ckernel.kernel_available(),
    reason=f"no compiled kernel: {ckernel.kernel_error()}",
)

RAE = MachineConfig.runahead_machine

#: Figure 10's five RAE variants plus every runahead knob the kernel
#: special-cases.
RUNAHEAD_GRID = limit_configs(runahead=True) + [
    (f"RAE({distance})", RAE(max_runahead=distance))
    for distance in (64, 256, 512, 1024, 2048, 4096)
] + [
    (f"RAE.mshr{cap}", RAE(max_outstanding=cap)) for cap in (1, 2, 8)
] + [
    ("RAE.slowBP50", RAE(slow_branch_predictor=True, slow_bp_accuracy=0.5)),
    ("RAE.slowBP85", RAE(slow_branch_predictor=True, slow_bp_accuracy=0.85)),
    ("RAE.VP", RAE(value_prediction=True)),
    ("RAE.perfBP.mshr2", RAE(perfect_branch=True, max_outstanding=2)),
]

#: Valid machines whose kernel config lies outside the contract.
OUT_OF_CONTRACT = [
    ("rob2^25", MachineConfig.named("64C", rob=1 << 25)),
    ("mshr2^31", MachineConfig.named("64C", max_outstanding=2**31)),
    ("sb2^31", MachineConfig.named("64C", store_buffer=2**31)),
    ("fb2^25", MachineConfig.named("64C", fetch_buffer=2**25)),
]


def _result_fields(result):
    fields = dataclasses.asdict(result)
    fields["inhibitors"] = result.inhibitors.as_dict()
    return fields


def _assert_matches_oracle(annotated, results, grid):
    assert list(results) == [label for label, _ in grid]
    for label, machine in grid:
        want = simulate_oracle(annotated, machine,
                               workload=results[label].workload)
        assert _result_fields(results[label]) == _result_fields(want), label


@pytest.fixture
def two_cpus(monkeypatch):
    """Let ``jobs=2`` build a real pool on any host."""
    monkeypatch.setattr(parallel, "effective_cpus", lambda: 2)


class TestRunaheadEquivalence:
    @pytest.mark.parametrize(
        "fixture", ["database_annotated", "specjbb_annotated",
                    "specweb_annotated"])
    def test_grid_matches_oracle(self, fixture, request):
        annotated = request.getfixturevalue(fixture)
        batch = sweep(annotated, RUNAHEAD_GRID, jobs=1).results
        for label, machine in RUNAHEAD_GRID:
            oracle = simulate_runahead(annotated, machine)
            assert _result_fields(batch[label]) == \
                _result_fields(oracle), label

    def test_sub_region_matches_oracle(self, specjbb_annotated):
        start = specjbb_annotated.measure_start + 5_000
        stop = start + 30_000
        for label, machine in RUNAHEAD_GRID:
            fast = simulate(specjbb_annotated, machine, start=start,
                            stop=stop)
            oracle = simulate_runahead(specjbb_annotated, machine,
                                       start=start, stop=stop)
            assert _result_fields(fast) == _result_fields(oracle), label

    def test_unbounded_distance_is_clamped_exactly(self, specweb_annotated):
        """A distance past the region end runs on the kernel, clamped to
        a value that behaves identically."""
        machine = RAE(max_runahead=10**12)
        assert batched_supported(machine)
        assert _result_fields(simulate(specweb_annotated, machine)) == \
            _result_fields(simulate_runahead(specweb_annotated, machine))


@settings(max_examples=150, deadline=None)
@given(
    ann=random_annotated_trace(),
    max_runahead=st.integers(1, 80),
    max_outstanding=st.one_of(st.none(), st.integers(1, 6)),
    slow_bp=st.sampled_from([None, 0.0, 0.5, 0.85, 1.0]),
    vp=st.sampled_from(["none", "predict", "perfect"]),
    perfect_branch=st.booleans(),
    perfect_ifetch=st.booleans(),
)
def test_fuzzed_knobs_match_oracle(ann, max_runahead, max_outstanding,
                                   slow_bp, vp, perfect_branch,
                                   perfect_ifetch):
    machine = RAE(
        max_runahead=max_runahead,
        max_outstanding=max_outstanding,
        slow_branch_predictor=slow_bp is not None,
        slow_bp_accuracy=0.85 if slow_bp is None else slow_bp,
        value_prediction=vp == "predict",
        perfect_value=vp == "perfect",
        perfect_branch=perfect_branch,
        perfect_ifetch=perfect_ifetch,
    )
    assert _result_fields(simulate(ann, machine)) == \
        _result_fields(simulate_runahead(ann, machine))


class TestMixedGrids:
    """Runahead and out-of-order configs of one mask group share a
    plan and a kernel call."""

    GRID = [
        ("64C", MachineConfig.named("64C")),
        ("RAE", RAE()),
        ("64D.rob256", MachineConfig.named("64D", rob=256)),
        ("RAE.mshr4", RAE(max_outstanding=4)),
        ("128E", MachineConfig.named("128E")),
        ("RAE(512)", RAE(max_runahead=512)),
    ]

    def test_simulate_batch(self, database_annotated, monkeypatch):
        """The whole grid, one mask group, is one kernel call of an
        in-process sweep."""
        calls = []
        real = ckernel.run_plan

        def counting(plan, pairs, workload):
            calls.append(len(pairs))
            return real(plan, pairs, workload)

        monkeypatch.setattr(ckernel, "run_plan", counting)
        results = sweep(database_annotated, self.GRID, jobs=1).results
        assert calls == [len(self.GRID)]
        _assert_matches_oracle(database_annotated, results, self.GRID)

    def test_supervised_parallel_sweep(self, specweb_annotated, two_cpus,
                                       tmp_path):
        swept = sweep(
            specweb_annotated, self.GRID, jobs=2,
            supervise={"journal_path": str(tmp_path / "sweep.journal")},
        )
        assert swept.quarantined == []
        _assert_matches_oracle(specweb_annotated, swept.results,
                               self.GRID)


class TestContractEnvelope:
    """Machines outside the kernel's contracted ranges run on the
    oracles instead of failing the kernel's contract check."""

    GRID = OUT_OF_CONTRACT + [("RAE(1e12)", RAE(max_runahead=10**12))]

    @pytest.fixture(scope="class")
    def annotated(self):
        clear_caches()
        yield get_annotated("specjbb2000", 20_000)
        clear_caches()

    def test_outside_contract_is_outside_envelope(self):
        for label, machine in OUT_OF_CONTRACT:
            assert not batched_supported(machine), label

    def test_sweep(self, annotated):
        _assert_matches_oracle(
            annotated, sweep(annotated, self.GRID).results, self.GRID)

    def test_parallel_sweep(self, annotated, two_cpus):
        _assert_matches_oracle(
            annotated, sweep(annotated, self.GRID, jobs=2).results,
            self.GRID)

    def test_simulate_batch(self, annotated):
        """The grid as one in-process batch: the oracles run what the
        kernel does not cover."""
        _assert_matches_oracle(
            annotated, sweep(annotated, self.GRID, jobs=1).results,
            self.GRID)


class TestSharedProducerColumns:
    def test_plans_share_one_copy(self):
        """Mask groups and L2 annotations of one trace hold the same
        producer arrays; the plan payload is unchanged by the sharing."""
        clear_caches()
        try:
            default = get_annotated("specweb99", 20_000)
            small_l2 = get_annotated("specweb99", 20_000,
                                     l2_bytes=256 * 1024)
            plans = [
                plan_for(default, MachineConfig.named("64C")),
                plan_for(default, MachineConfig.named(
                    "64C", perfect_branch=True)),
                plan_for(small_l2, MachineConfig.named("64C")),
                plan_for(small_l2, RAE(value_prediction=True)),
            ]
            assert len({id(plan) for plan in plans}) == len(plans)
            for name in ("prod1", "prod2", "prod3", "memdep"):
                column = getattr(plans[0], name)
                assert not column.flags.writeable
                for plan in plans[1:]:
                    assert getattr(plan, name) is column, name
            graph = depgraph_for(default, plans[0].start, plans[0].stop)
            payload = plans[0].payload()
            for name in ("prod1", "prod2", "prod3", "memdep"):
                producers = np.asarray(getattr(graph, name))
                want = np.where(producers >= 0, producers, len(plans[0]))
                assert payload[name].dtype == np.int32
                assert np.array_equal(payload[name], want), name
        finally:
            clear_caches()
