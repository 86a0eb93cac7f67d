"""The compiled generator against the Python generators it translates.

:func:`repro.workloads.ckernel.generate` runs the three paper
workloads' transaction scripts in C (``_generate_kernel.c``), continuing
the Python RNG's MT19937 draw sequence after ``setup``.  Every trace
must be byte-identical to the Python route's: each column's dtype and
bytes, and the trace name.  The routing rule is pinned too: only the
three exact classes, with the kernel built and the inputs inside
``GENERATE_CONTRACT``, reach the kernel.

Without a kernel both sides take the Python route, so the equivalence
checks still run (and still pass) on hosts without ``cc``.
"""

import contextlib
import random
from fractions import Fraction

import pytest

from repro.robustness.errors import InternalError
from repro.trace.trace import COLUMNS
from repro.workloads import ckernel, get_workload
from repro.workloads.database import DatabaseWorkload
from tests.conftest import disable_kernels

PAPER = ("database", "specjbb2000", "specweb99")
SEEDS = (0, 1234, 2**31 + 5, 10**12)

#: A length that ends inside a transaction (checked below).
CUT = 4_999

#: Non-default parameter sets, one per script path the defaults leave
#: rare: empty ranges' ends, certain and impossible draws, tiny code.
PARAMETER_SETS = (
    ("database", dict(seed=5, calls_per_txn=(1, 3), descent_depth=(1, 6),
                      rows_per_txn=(0, 7), row_spacing=0,
                      lock_probability=1.0, reuse_fraction=0.0,
                      second_descent_probability=1.0, reuse_lines=2)),
    ("database", dict(seed=6, num_functions=17, body_length=9,
                      reuse_fraction=1.0, lock_probability=0.0,
                      data_branch_bias=0.5, chase_value_repeat=0.0,
                      row_value_repeat=1.0)),
    ("specjbb2000", dict(seed=8, fields_per_object=(0, 5),
                         objects_per_txn=(0, 4),
                         cold_object_probability=1.0,
                         alloc_probability=1.0, value_repeat=0.0,
                         num_functions=3, body_length=6)),
    ("specweb99", dict(seed=9, burst_probability=1.0,
                       burst_segments=(0, 9), segment_extra_lines=(0, 4),
                       prefetch_fraction=1.0,
                       independent_burst_fraction=0.5,
                       cold_lookup_probability=1.0)),
)

needs_kernel = pytest.mark.skipif(
    not ckernel.kernel_available(), reason="no compiled generation kernel"
)


@contextlib.contextmanager
def python_route():
    """Generate on the Python route: every kernel disabled."""
    with pytest.MonkeyPatch.context() as patch:
        disable_kernels(patch)
        yield


def python_trace(name, length, **params):
    with python_route():
        return get_workload(name, **params).generate(length)


def assert_identical(got, want):
    assert got.name == want.name
    assert len(got) == len(want)
    for column, _ in COLUMNS:
        a, b = getattr(got, column), getattr(want, column)
        assert a.dtype == b.dtype, column
        assert a.tobytes() == b.tobytes(), column


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts the traces generated on the kernel route."""
    calls = []
    run = ckernel.run_program

    def counting(*args):
        calls.append(args[-1])
        return run(*args)

    monkeypatch.setattr(ckernel, "run_program", counting)
    return calls


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", PAPER)
def test_kernel_matches_the_python_route(name, seed):
    workload = get_workload(name, seed=seed)
    long = workload.generate(100_000)
    assert_identical(long, python_trace(name, 100_000, seed=seed))
    # CUT falls inside a transaction: its row is not a transaction's
    # opening jump (an unconditional branch to txn_base).
    assert not (long.target[CUT] == workload.txn_base
                and long.src1[CUT] == -1 and long.taken[CUT])
    for length in (1, CUT):
        got = get_workload(name, seed=seed).generate(length)
        assert_identical(got, python_trace(name, length, seed=seed))


def test_kernel_matches_the_python_route_at_400k():
    got = get_workload("database").generate(400_000)
    assert_identical(got, python_trace("database", 400_000))


@pytest.mark.parametrize("name, params", PARAMETER_SETS)
def test_kernel_matches_the_python_route_off_the_defaults(name, params):
    got = get_workload(name, **params).generate(60_000)
    assert_identical(got, python_trace(name, 60_000, **params))


@needs_kernel
def test_paper_workloads_take_the_kernel_route(kernel_calls):
    for name in PAPER:
        get_workload(name).generate(2_000)
    assert kernel_calls == list(PAPER)


class _SubclassedDatabase(DatabaseWorkload):
    """Same transactions, but a subclass: the kernel cannot know it."""

    def emit_transaction(self, em, rng):
        super().emit_transaction(em, rng)


def test_subclasses_and_streaming_take_the_python_route(kernel_calls):
    subclass = _SubclassedDatabase(seed=3).generate(20_000)
    get_workload("streaming").generate(20_000)
    assert kernel_calls == []
    assert_identical(subclass, get_workload("database", seed=3)
                     .generate(20_000))


@pytest.mark.parametrize("params", [
    dict(reuse_lines=(1 << 27)),               # a pool beyond the contract
    dict(lock_probability=Fraction(1, 3)),     # not an int or a float
])
def test_out_of_contract_parameters_take_the_python_route(params,
                                                          kernel_calls):
    got = get_workload("database", **params).generate(5_000)
    assert kernel_calls == []
    assert_identical(got, python_trace("database", 5_000, **params))


def test_parameters_python_rejects_still_raise(kernel_calls):
    with pytest.raises(ValueError):
        get_workload("database", descent_depth=(3, 1)).generate(5_000)
    with pytest.raises(TypeError):
        get_workload("specjbb2000", objects_per_txn=(2,)).generate(5_000)
    assert kernel_calls == []


def test_disabled_kernels_take_the_python_route():
    """With every kernel disabled the kernel entry is unreachable (the
    patched ``run_program`` raises) and generation still works."""
    with python_route():
        trace = get_workload("specweb99").generate(3_000)
    assert len(trace) == 3_000


@needs_kernel
def test_run_program_validates_the_contract():
    workload = get_workload("database")
    rng = random.Random(workload.seed)
    workload.setup(rng)
    program = ckernel._program(workload, rng, 1_000)
    assert ckernel._loader.violation("generate", program) is None
    params = ckernel._Params.from_buffer_copy(program["p"])
    params.pool_a_cap = program["pool"] + 1
    with pytest.raises(InternalError, match="pool_a_cap"):
        ckernel.run_program({**program, "p": params}, "database")
    with pytest.raises(InternalError, match="size n"):
        ckernel.run_program({**program, "n": 0}, "database")
