"""The compiled renaming against the Python loop it translates.

:func:`repro.trace.ckernel.run_rename` computes the dependence graph of
:mod:`repro.core.depgraph` in ``_annotate_kernel.c``: each
instruction's register producers and its memory producer, as four int32
columns.  Every column must equal the Python loop's
(:func:`repro.core.depgraph.rename_region`), on the three paper traces
and on hand-built edge cases.  The routing rule is pinned too: with the
kernel built and the region inside ``ANNOTATE_CONTRACT``,
:func:`~repro.core.depgraph.build_depgraph` takes the kernel; anything
else takes the loop.

Without a kernel the comparisons skip, and the route checks still run.
"""

import numpy as np
import pytest

from repro.core import depgraph
from repro.core.mlpsim import resolve_region
from repro.experiments import EXHIBITS, run_exhibit
from repro.experiments.common import clear_caches
from repro.isa.opclass import OpClass
from repro.isa.registers import NUM_REGS
from repro.robustness.errors import InternalError
from repro.trace import TraceBuilder, ckernel
from tests.conftest import disable_kernels

PAPER = ("database", "specjbb2000", "specweb99")

#: The trace length of the exhibit route check.
ROUTE_LEN = 20000

needs_kernel = pytest.mark.skipif(
    not ckernel.kernel_available(), reason="no compiled annotation kernel"
)


def loop_columns(trace, start, stop):
    """The Python loop's graph of ``trace[start:stop)``, as ``(4, n)``
    int32."""
    return np.asarray(depgraph.rename_region(trace, start, stop),
                      dtype=np.int32)


def assert_routes_agree(trace, start, stop):
    """The kernel's columns equal the loop's; returns them."""
    got = ckernel.run_rename(trace, start, stop)
    want = loop_columns(trace, start, stop)
    assert got.dtype == np.int32
    assert got.shape == want.shape == (4, stop - start)
    for row, name in enumerate(depgraph.PRODUCERS):
        assert np.array_equal(got[row], want[row]), name
    return got


@needs_kernel
@pytest.mark.parametrize("name", PAPER)
def test_paper_traces(all_annotated, name):
    """The measured region, the whole trace and an odd region."""
    annotated = all_annotated[name]
    n = len(annotated.trace)
    for start, stop in (resolve_region(annotated, None, None), (0, n),
                        (17, n - 5)):
        assert_routes_agree(annotated.trace, start, stop)


def edge_trace():
    """r0 read and written, repeated stores to address 0, both atomics
    at address 2^62, a prefetch, and the highest register."""
    top = NUM_REGS - 1
    b = TraceBuilder("edges")
    b.add_alu(0x100, dst=0, src1=1)                          # 0: r0 write
    b.add_alu(0x104, dst=2, src1=0, src2=0)                  # 1: reads r0
    b.add_store(0x108, addr=0, data_src=2, src1=0)           # 2
    b.add_store(0x10C, addr=0, data_src=0)                   # 3: again
    b.add_load(0x110, dst=3, addr=0)                         # 4
    b.add_cas(0x114, dst=4, addr=1 << 62, src1=3, data_src=4)  # 5
    b.add_ldstub(0x118, dst=5, addr=1 << 62)                 # 6
    b.add_load(0x11C, dst=6, addr=1 << 62, src1=4, src2=5)   # 7
    b.add_prefetch(0x120, addr=0, src1=6)                    # 8
    b.add_load(0x124, dst=7, addr=0)                         # 9
    b.add_cas(0x128, dst=7, addr=0, src1=7, data_src=7)      # 10
    b.add_load(0x12C, dst=top, addr=0, src1=7)               # 11
    b.add_alu(0x130, dst=top, src1=top, src2=top)            # 12
    return b.build()


#: The graph of :func:`edge_trace`, derived by hand.
EDGE_GRAPH = {
    "prod1": [-1, -1, -1, -1, -1, 4, -1, 5, 7, -1, 9, 10, 11],
    "prod2": [-1, -1, -1, -1, -1, -1, -1, 6, -1, -1, -1, -1, 11],
    "prod3": [-1, -1, 1, -1, -1, -1, -1, -1, -1, -1, 9, -1, -1],
    "memdep": [-1, -1, -1, -1, 3, -1, 5, 6, -1, 3, 3, 10, -1],
}


def test_edge_cases_on_the_loop():
    want = np.asarray([EDGE_GRAPH[name] for name in depgraph.PRODUCERS])
    assert np.array_equal(loop_columns(edge_trace(), 0, 13), want)


@needs_kernel
def test_edge_cases_on_the_kernel():
    trace = edge_trace()
    got = assert_routes_agree(trace, 0, 13)
    for row, name in enumerate(depgraph.PRODUCERS):
        assert got[row].tolist() == EDGE_GRAPH[name], name


@needs_kernel
@pytest.mark.parametrize("start, stop", [(0, 0), (5, 5), (13, 13), (4, 5),
                                         (3, 5), (6, 13)])
def test_short_and_empty_regions(start, stop):
    assert_routes_agree(edge_trace(), start, stop)


def test_graph_columns_are_read_only_and_lists_are_fresh():
    graph = depgraph.build_depgraph(edge_trace(), 0, 13)
    assert graph.columns.dtype == np.int32
    assert graph.columns.shape == (4, 13)
    assert not graph.columns.flags.writeable
    for row, name in enumerate(depgraph.PRODUCERS):
        listed = getattr(graph, name)
        assert listed == EDGE_GRAPH[name] == graph.columns[row].tolist()
        assert getattr(graph, name) is not listed  # built on each access


def _with_src1(value):
    """Two ALU ops; the second reads register *value* and r2."""
    b = TraceBuilder("registers")
    b.add_alu(0x100, dst=2, src1=1)
    b.add_raw(OpClass.ALU, 0x104, dst=3, src1=value, src2=2)
    return b.build()


def _forbid_the_kernel(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("renaming kernel reached outside the contract")

    monkeypatch.setattr(ckernel, "run_rename", forbidden)


def test_out_of_contract_registers_take_the_python_route(monkeypatch):
    """A register below -1 renames as "no register" on the loop, like
    -1 on the kernel; a register past the file raises as it always
    did."""
    inside = depgraph.build_depgraph(_with_src1(-1), 0, 2).columns
    assert ckernel.rename_violation(_with_src1(-1), 0, 2) is None
    below = _with_src1(-2)
    assert "src1" in ckernel.rename_violation(below, 0, 2)
    _forbid_the_kernel(monkeypatch)
    assert np.array_equal(depgraph.build_depgraph(below, 0, 2).columns,
                          inside)
    with pytest.raises(IndexError):
        depgraph.build_depgraph(_with_src1(NUM_REGS), 0, 2)


@needs_kernel
def test_run_rename_validates_the_contract():
    with pytest.raises(InternalError, match="outside its contract"):
        ckernel.run_rename(_with_src1(-2), 0, 2)


def test_no_kernel_route_matches(specweb_annotated):
    trace = specweb_annotated.trace
    start, stop = resolve_region(specweb_annotated, None, None)
    want = depgraph.build_depgraph(trace, start, stop).columns
    with pytest.MonkeyPatch.context() as patch:
        disable_kernels(patch)
        got = depgraph.build_depgraph(trace, start, stop).columns
    assert np.array_equal(got, want)


@needs_kernel
def test_exhibits_never_run_the_python_loop(monkeypatch):
    """Every dependence graph of a kernel-route ``exhibit all`` comes
    from the kernel."""
    loop_calls = []
    kernel_calls = []
    loop, kernel = depgraph.rename_region, ckernel.run_rename

    def spy(calls, run):
        def record(*args):
            calls.append(args[1:])
            return run(*args)
        return record

    monkeypatch.setattr(depgraph, "rename_region", spy(loop_calls, loop))
    monkeypatch.setattr(ckernel, "run_rename", spy(kernel_calls, kernel))
    clear_caches()
    try:
        for name in EXHIBITS:
            run_exhibit(name, trace_len=ROUTE_LEN)
    finally:
        clear_caches()
    assert loop_calls == []
    assert kernel_calls
