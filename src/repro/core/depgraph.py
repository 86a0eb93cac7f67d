"""Static dependence graph over a trace region.

MLPsim needs, for every dynamic instruction, the *producer* of each of
its register sources (the most recent older writer of that register) and
its memory dependence (the most recent older store-like instruction to
the same address).  These are properties of the trace alone — they do
not depend on the machine configuration — so they are computed once per
trace region and shared by every simulation over it (parameter sweeps
re-run MLPsim dozens of times per trace).

Producer indices are region-relative; ``-1`` means "no producer inside
the region" (the value is architected state and therefore available from
epoch 0).

The renaming runs in C (:func:`repro.trace.ckernel.run_rename`) when
the annotation kernel is built and the region lies inside its
contract.  :func:`rename_region`, the Python loop, is its oracle and
the route for everything else.
"""

import numpy as np

from repro.isa.opclass import OpClass
from repro.isa.registers import NUM_REGS, REG_ZERO
from repro.trace import ckernel

#: The producer columns of a graph, in row order.
PRODUCERS = ("prod1", "prod2", "prod3", "memdep")


def _producer_list(row):
    return property(lambda graph: graph.columns[row].tolist(),
                    doc=f"``{PRODUCERS[row]}`` as a Python list, built on"
                        " every access (not memoised).")


class DepGraph:
    """Producer links for one trace region.

    Attributes
    ----------
    columns:
        Read-only ``(4, n)`` int32 array with one row per name in
        :data:`PRODUCERS`:

        * ``prod1``, ``prod2`` — producer index of ``src1``/``src2``
          (address sources for memory operations), or -1;
        * ``prod3`` — producer index of the store-data source ``src3``,
          or -1;
        * ``memdep`` — index of the youngest older store-like
          instruction to the same address (loads and atomics only), or
          -1.
    prod1, prod2, prod3, memdep:
        Each row as a Python list, for the oracles' interpreter loops.
        A new list is built on every access, so a caller reads each
        once per run.
    """

    __slots__ = ("start", "stop", "columns")

    prod1 = _producer_list(0)
    prod2 = _producer_list(1)
    prod3 = _producer_list(2)
    memdep = _producer_list(3)

    def __init__(self, start, stop, columns):
        columns = np.asarray(columns, dtype=np.int32)
        columns.flags.writeable = False
        self.start = start
        self.stop = stop
        self.columns = columns

    def __len__(self):
        return self.stop - self.start


def build_depgraph(trace, start, stop):
    """Rename registers and memory over ``trace[start:stop)``."""
    if (ckernel.kernel_available()
            and ckernel.rename_violation(trace, start, stop) is None):
        columns = ckernel.run_rename(trace, start, stop)
    else:
        columns = rename_region(trace, start, stop)
    return DepGraph(start, stop, columns)


def rename_region(trace, start, stop):
    """The Python renaming loop: ``[prod1, prod2, prod3, memdep]`` of
    ``trace[start:stop)`` as lists (see :class:`DepGraph`)."""
    ops = trace.op[start:stop].tolist()
    dsts = trace.dst[start:stop].tolist()
    src1s = trace.src1[start:stop].tolist()
    src2s = trace.src2[start:stop].tolist()
    src3s = trace.src3[start:stop].tolist()
    addrs = trace.addr[start:stop].tolist()
    n = stop - start

    STORE = int(OpClass.STORE)
    LOAD = int(OpClass.LOAD)
    CAS = int(OpClass.CAS)
    LDSTUB = int(OpClass.LDSTUB)

    prod1 = [-1] * n
    prod2 = [-1] * n
    prod3 = [-1] * n
    memdep = [-1] * n

    last_writer = [-1] * NUM_REGS
    last_store = {}  # address -> instruction index

    for i in range(n):
        s = src1s[i]
        if s > REG_ZERO:
            prod1[i] = last_writer[s]
        s = src2s[i]
        if s > REG_ZERO:
            prod2[i] = last_writer[s]
        s = src3s[i]
        if s > REG_ZERO:
            prod3[i] = last_writer[s]

        op = ops[i]
        if op == LOAD or op == CAS or op == LDSTUB:
            dep = last_store.get(addrs[i])
            if dep is not None:
                memdep[i] = dep
        if op == STORE or op == CAS or op == LDSTUB:
            last_store[addrs[i]] = i

        dst = dsts[i]
        if dst > REG_ZERO:
            last_writer[dst] = i

    return [prod1, prod2, prod3, memdep]


def depgraph_for(annotated, start, stop):
    """Return the (memoised) dependence graph for a region of *annotated*.

    The graph depends only on the trace, so it is cached on
    ``annotated.trace``, keyed by region: sweeps simulate the same
    region under many machine configurations, and every annotation of
    one trace (Figure 7's L2 sizes) shares one graph.
    """
    trace = annotated.trace
    cache = getattr(trace, "_depgraph_cache", None)
    if cache is None:
        cache = {}
        trace._depgraph_cache = cache
    key = (start, stop)
    graph = cache.get(key)
    if graph is None:
        graph = build_depgraph(trace, start, stop)
        cache[key] = graph
    return graph
