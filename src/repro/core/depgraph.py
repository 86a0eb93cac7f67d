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
"""

from repro.isa.opclass import OpClass
from repro.isa.registers import NUM_REGS, REG_ZERO


class DepGraph:
    """Producer links for one trace region.

    Attributes
    ----------
    prod1, prod2:
        Producer index of ``src1``/``src2`` (address sources for memory
        operations), or -1.
    prod3:
        Producer index of the store-data source ``src3``, or -1.
    memdep:
        Index of the youngest older store-like instruction to the same
        address (loads and atomics only), or -1.
    """

    __slots__ = ("start", "stop", "prod1", "prod2", "prod3", "memdep")

    def __init__(self, start, stop, prod1, prod2, prod3, memdep):
        self.start = start
        self.stop = stop
        self.prod1 = prod1
        self.prod2 = prod2
        self.prod3 = prod3
        self.memdep = memdep

    def __len__(self):
        return self.stop - self.start


def build_depgraph(trace, start, stop):
    """Rename registers and memory over ``trace[start:stop)``."""
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

    return DepGraph(start, stop, prod1, prod2, prod3, memdep)


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
