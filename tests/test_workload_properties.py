"""Property-based robustness tests for the workload generators.

The generators expose many tuning knobs; whatever a user sets them to,
the resulting trace must stay structurally valid: exact length, fixed
static code (stable PC -> opcode mapping), events only where they can
occur, and the whole simulation pipeline must run on it.  For the three
paper workloads the compiled generator's trace must also equal the
Python route's byte for byte.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import MachineConfig
from repro.core.mlpsim import simulate
from repro.trace.annotate import annotate
from repro.workloads.database import DatabaseWorkload
from repro.workloads.specjbb import SpecJBBWorkload
from repro.workloads.specweb import SpecWebWorkload
from repro.workloads.streaming import StreamingWorkload
from tests.test_generate_kernel import assert_identical, python_route


def _assert_structurally_valid(trace, length):
    assert len(trace) == length
    mapping = {}
    for pc, op in zip(trace.pc.tolist(), trace.op.tolist()):
        assert mapping.setdefault(pc, op) == op, hex(pc)


def _assert_routes_agree(workload, trace):
    with python_route():
        assert_identical(trace, workload.generate(len(trace)))


def _assert_simulates(trace):
    annotated = annotate(trace)
    result = simulate(annotated, MachineConfig.named("16C"), start=0)
    if result.epochs:
        assert result.mlp >= 1.0


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    calls=st.tuples(st.integers(1, 6), st.integers(6, 12)),
    depth=st.tuples(st.integers(1, 3), st.integers(3, 6)),
    rows=st.tuples(st.integers(1, 3), st.integers(3, 7)),
    lock_p=st.floats(0.0, 1.0),
    spacing=st.integers(0, 40),
)
def test_database_generator_robust(seed, calls, depth, rows, lock_p, spacing):
    workload = DatabaseWorkload(
        seed=seed,
        calls_per_txn=calls,
        descent_depth=depth,
        rows_per_txn=rows,
        lock_probability=lock_p,
        row_spacing=spacing,
    )
    trace = workload.generate(4000)
    _assert_structurally_valid(trace, 4000)
    _assert_routes_agree(workload, trace)
    _assert_simulates(trace)


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    cold_p=st.floats(0.0, 1.0),
    fields=st.tuples(st.integers(1, 3), st.integers(3, 6)),
    objects=st.tuples(st.integers(1, 2), st.integers(2, 4)),
    alloc_p=st.floats(0.0, 1.0),
)
def test_specjbb_generator_robust(seed, cold_p, fields, objects, alloc_p):
    workload = SpecJBBWorkload(
        seed=seed,
        cold_object_probability=cold_p,
        fields_per_object=fields,
        objects_per_txn=objects,
        alloc_probability=alloc_p,
    )
    trace = workload.generate(4000)
    _assert_structurally_valid(trace, 4000)
    _assert_routes_agree(workload, trace)
    _assert_simulates(trace)


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    burst_p=st.floats(0.0, 1.0),
    segments=st.tuples(st.integers(1, 3), st.integers(3, 8)),
    extra=st.tuples(st.integers(0, 1), st.integers(1, 2)),
    pf=st.floats(0.0, 1.0),
    independent=st.floats(0.0, 1.0),
)
def test_specweb_generator_robust(seed, burst_p, segments, extra, pf,
                                  independent):
    workload = SpecWebWorkload(
        seed=seed,
        burst_probability=burst_p,
        burst_segments=segments,
        segment_extra_lines=extra,
        prefetch_fraction=pf,
        independent_burst_fraction=independent,
    )
    trace = workload.generate(4000)
    _assert_structurally_valid(trace, 4000)
    _assert_routes_agree(workload, trace)
    _assert_simulates(trace)


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    chunk=st.tuples(st.integers(8, 32), st.integers(32, 128)),
    compute=st.integers(1, 6),
)
def test_streaming_generator_robust(seed, chunk, compute):
    workload = StreamingWorkload(
        seed=seed, chunk_iterations=chunk, compute_per_element=compute
    )
    trace = workload.generate(4000)
    _assert_structurally_valid(trace, 4000)
    _assert_simulates(trace)
