"""The layered annotation passes against the single loop they replaced.

:func:`annotate_oracle` below is the pre-layering ``annotate``, frozen
but for its predictor-injection parameters, which left the API: one
loop over the trace that drives the whole hierarchy (L1I/L1D, L2) and
both predictors per instruction.  The layered
:func:`repro.trace.annotate.annotate` (a memoised front pass plus an L2
back pass) must reproduce all seven masks and ``measure_start`` bit for
bit: on every workload at several seeds and L2 sizes, on random traces
whose prefetches, code fetches and data accesses share lines, and with
small predictor tables set through :class:`AnnotationConfig`.

Every check runs on both routes: the compiled kernel
(:mod:`repro.trace.ckernel`, when it builds) and the Python loops with
every kernel disabled, as under the ``no_kernel`` fixture.
"""

import contextlib
import importlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.branch.frontend import BranchPredictor
from repro.experiments.figure7 import L2_SIZES
from repro.isa.opclass import OpClass
from repro.isa.registers import NUM_REGS, REG_NONE
from repro.memory.cache import CacheConfig
from repro.memory.hierarchy import AccessLevel, Hierarchy, HierarchyConfig
from repro.robustness.errors import InternalError
from repro.trace.annotate import (
    FETCH_HIT,
    LOAD_HIT,
    VP_OUTCOME_CODES,
    AnnotatedTrace,
    AnnotationConfig,
    annotate,
    front_pass,
)
from repro.trace import ckernel
from repro.trace.trace import Trace
from repro.vpred.last_value import LastValuePredictor
from repro.workloads import WORKLOADS, generate_trace
from tests.conftest import disable_kernels

#: The module itself; the package re-exports ``annotate`` over its name.
layers = importlib.import_module("repro.trace.annotate")

_VP_NA = -1

MASKS = ("dmiss", "pmiss", "pfuseful", "imiss", "mispred", "vp_outcome",
         "smiss")

LENGTH = 40_000
SEEDS = (1234, 7)

#: The default L2, Figure 7's five sizes, and one far smaller.
L2_BYTES = (None,) + tuple(L2_SIZES) + (64 * 1024,)


def annotate_oracle(trace, config=None):
    """Run the memory hierarchy and predictors over *trace*.

    Parameters
    ----------
    trace:
        The raw :class:`~repro.trace.trace.Trace`.
    config:
        :class:`AnnotationConfig`; defaults to the paper's Section 5.1
        machine.

    Returns
    -------
    AnnotatedTrace

    Raises
    ------
    repro.robustness.errors.TraceFormatError
        If *trace* holds out-of-range opcodes or register operands
        (e.g. a corrupt archive loaded through an unvalidated path).
    """
    from repro.robustness.validate import validate_trace

    validate_trace(trace)
    config = config or AnnotationConfig()
    hierarchy = Hierarchy(config.hierarchy)
    branch_pred = BranchPredictor(
        gshare_entries=config.gshare_entries,
        btb_entries=config.btb_entries,
    )
    value_pred = LastValuePredictor(entries=config.vp_entries)

    n = len(trace)
    dmiss = np.zeros(n, dtype=bool)
    pmiss = np.zeros(n, dtype=bool)
    pfuseful = np.zeros(n, dtype=bool)
    imiss = np.zeros(n, dtype=bool)
    mispred = np.zeros(n, dtype=bool)
    vp_outcome = np.full(n, _VP_NA, dtype=np.int8)
    smiss = np.zeros(n, dtype=bool)

    # Bind columns to fast local lists.
    ops = trace.op.tolist()
    pcs = trace.pc.tolist()
    addrs = trace.addr.tolist()
    takens = trace.taken.tolist()
    targets = trace.target.tolist()
    values = trace.value.tolist()
    src1s = trace.src1.tolist()
    src2s = trace.src2.tolist()

    line_shift = config.hierarchy.l2.line_shift
    access_insn = hierarchy.access_instruction
    access_data = hierarchy.access_data
    observe_branch = branch_pred.observe
    observe_value = value_pred.observe
    offchip = AccessLevel.OFFCHIP

    LOAD = int(OpClass.LOAD)
    STORE = int(OpClass.STORE)
    BRANCH = int(OpClass.BRANCH)
    PREFETCH = int(OpClass.PREFETCH)
    CAS = int(OpClass.CAS)
    LDSTUB = int(OpClass.LDSTUB)
    load_like = {LOAD, CAS, LDSTUB}

    # Lines brought on chip by an off-chip prefetch, awaiting a demand
    # consumer: line -> index of the prefetch instruction.
    prefetched_lines = {}

    previous_fetch_line = None
    for i in range(n):
        pc = pcs[i]
        fetch_line = pc >> line_shift
        if fetch_line != previous_fetch_line:
            if access_insn(pc) == offchip:
                imiss[i] = True
                prefetched_lines.pop(fetch_line, None)
            elif fetch_line in prefetched_lines:
                pfuseful[prefetched_lines.pop(fetch_line)] = True
            previous_fetch_line = fetch_line

        op = ops[i]
        if op in load_like:
            addr = addrs[i]
            if access_data(addr) == offchip:
                dmiss[i] = True
                prefetched_lines.pop(addr >> line_shift, None)
                vp_outcome[i] = VP_OUTCOME_CODES[observe_value(pc, values[i])]
            else:
                data_line = addr >> line_shift
                if data_line in prefetched_lines:
                    pfuseful[prefetched_lines.pop(data_line)] = True
        elif op == STORE:
            if access_data(addrs[i], is_write=True) == offchip:
                smiss[i] = True
        elif op == PREFETCH:
            addr = addrs[i]
            if access_data(addr) == offchip:
                pmiss[i] = True
                prefetched_lines[addr >> line_shift] = i
        elif op == BRANCH:
            if src1s[i] >= 0 or src2s[i] >= 0:
                mispred[i] = observe_branch(pc, takens[i], targets[i])
            # Unconditional direct transfers (no condition sources) never
            # mispredict: their real-code counterparts have static
            # targets.  The synthetic generators vary their targets to
            # express control randomness, which must not be charged to
            # the branch predictor.

    measure_start = int(n * config.warmup_fraction)
    return AnnotatedTrace(
        trace=trace,
        dmiss=dmiss,
        pmiss=pmiss,
        pfuseful=pfuseful,
        imiss=imiss,
        mispred=mispred,
        vp_outcome=vp_outcome,
        smiss=smiss,
        measure_start=measure_start,
        config=config,
    )


def assert_same_annotation(layered, oracle):
    for name in MASKS:
        got, want = getattr(layered, name), getattr(oracle, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
    assert layered.measure_start == oracle.measure_start


def l2_config(l2_bytes):
    hierarchy = HierarchyConfig()
    if l2_bytes is not None:
        hierarchy = hierarchy.with_l2_size(l2_bytes)
    return AnnotationConfig(hierarchy=hierarchy)


def routes():
    """The annotation routes this host can run: the compiled kernel
    when it builds, and always the Python loops."""
    if ckernel.kernel_available():
        return ("kernel", "python")
    return ("python",)


@contextlib.contextmanager
def on_route(route):
    """Annotate on *route*; ``"python"`` disables every kernel."""
    with pytest.MonkeyPatch.context() as patch:
        if route == "python":
            disable_kernels(patch)
        yield


def fresh(trace):
    """A copy of *trace* with a cold front-pass memo, so that each route
    computes its own front pass."""
    return Trace(trace.columns(), name=trace.name)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workloads_match_the_oracle_at_every_l2_size(workload, seed):
    trace = generate_trace(workload, LENGTH, seed=seed)
    configs = [l2_config(l2_bytes) for l2_bytes in L2_BYTES]
    oracles = [annotate_oracle(trace, config) for config in configs]
    for route in routes():
        routed = fresh(trace)
        with on_route(route):
            for config, oracle in zip(configs, oracles):
                assert_same_annotation(annotate(routed, config), oracle)


def test_five_l2_sizes_run_the_front_pass_once(monkeypatch):
    runs = []
    for owner, name in ((layers, "_run_front_pass"),
                        (ckernel, "run_front_pass")):
        def counting(*args, run=getattr(owner, name)):
            runs.append(args)
            return run(*args)

        monkeypatch.setattr(owner, name, counting)
    # The L1 geometry and the L2 line size are part of the memo key.
    smaller_l1 = HierarchyConfig(
        l1d=CacheConfig(size_bytes=8 * 1024, associativity=4)
    )
    wider_l2_lines = HierarchyConfig(
        l2=CacheConfig(size_bytes=512 * 1024, associativity=4,
                       line_bytes=128)
    )
    for route in routes():
        runs.clear()
        trace = generate_trace("specweb99", 8_000)
        with on_route(route):
            annotations = [annotate(trace, l2_config(size))
                           for size in L2_SIZES]
            assert len(runs) == 1, route
            assert len({id(a.mispred) for a in annotations}) == len(L2_SIZES)
            for hierarchy in (smaller_l1, wider_l2_lines):
                config = AnnotationConfig(hierarchy=hierarchy)
                assert_same_annotation(annotate(trace, config),
                                       annotate_oracle(trace, config))
            assert len(runs) == 3, route


SMALL_L1 = CacheConfig(size_bytes=2 * 1024, associativity=2)

_OPS = np.array([int(op) for op in OpClass])
#: ALU, LOAD, STORE, BRANCH, PREFETCH, CAS, LDSTUB, MEMBAR, NOP.
_OP_WEIGHTS = np.array([20, 22, 10, 14, 20, 4, 4, 3, 3]) / 100.0


def shared_line_trace(seed, length, lines):
    """A random trace over *lines* 64-byte lines shared by code and data.

    Code fetches run sequentially between random jumps, so each line is
    fetched, loaded, stored and prefetched by turns.
    """
    rng = np.random.default_rng(seed)
    base = 0x10_0000
    line_addr = base + 64 * rng.integers(0, lines, size=length)
    jumps = rng.random(length) < 0.3
    pc = np.empty(length, dtype=np.int64)
    pc[0] = line_addr[0]
    for i in range(1, length):
        pc[i] = line_addr[i] if jumps[i] else pc[i - 1] + 4
    op = rng.choice(_OPS, size=length, p=_OP_WEIGHTS)
    conditional = rng.random(length) < 0.7
    src1 = np.where(conditional, rng.integers(1, NUM_REGS, size=length),
                    REG_NONE)
    columns = {
        "op": op,
        "pc": pc,
        "dst": rng.integers(REG_NONE, NUM_REGS, size=length),
        "src1": src1,
        "src2": np.full(length, REG_NONE),
        "src3": rng.integers(REG_NONE, NUM_REGS, size=length),
        "addr": base + 64 * rng.integers(0, lines, size=length)
        + rng.integers(0, 64, size=length),
        "taken": rng.random(length) < 0.5,
        "target": base + 64 * rng.integers(0, lines, size=length),
        "value": rng.integers(0, 3, size=length),
    }
    return Trace(columns, name="shared-lines")


def shared_line_config(l2_bytes, l2_line, warmup):
    l2 = CacheConfig(size_bytes=l2_bytes, associativity=4, line_bytes=l2_line)
    return AnnotationConfig(
        hierarchy=HierarchyConfig(l1i=SMALL_L1, l1d=SMALL_L1, l2=l2),
        warmup_fraction=warmup,
        gshare_entries=256,
        btb_entries=64,
        vp_entries=64,
    )


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    length=st.integers(1, 4000),
    lines=st.integers(1, 512),
    l2_bytes=st.sampled_from((4 * 1024, 8 * 1024, 32 * 1024)),
    l2_line=st.sampled_from((64, 128)),
    warmup=st.sampled_from((0.0, 0.33, 1.0)),
)
# Eight lines of code keep the 16-set BTB full, so its LRU order (which a
# lookup hit refreshes) decides later target hits.
@example(seed=1, length=2000, lines=8, l2_bytes=8 * 1024, l2_line=64,
         warmup=0.33)
def test_random_shared_line_traces_match_the_oracle(
        seed, length, lines, l2_bytes, l2_line, warmup):
    trace = shared_line_trace(seed, length, lines)
    config = shared_line_config(l2_bytes, l2_line, warmup)
    oracle = annotate_oracle(trace, config)
    for route in routes():
        with on_route(route):
            assert_same_annotation(annotate(fresh(trace), config), oracle)


def test_shared_line_traces_exercise_prefetch_consumers():
    """The random traces above are not vacuous: L1-hit demand accesses
    enter the stream, and prefetches turn out both useful and useless."""
    for route in routes():
        useful = useless = hits = 0
        with on_route(route):
            for seed in range(20):
                trace = shared_line_trace(seed, 1500, 256)
                config = shared_line_config(8 * 1024, 64, 0.33)
                annotated = annotate(trace, config)
                assert_same_annotation(annotated,
                                       annotate_oracle(trace, config))
                kinds = front_pass(trace, config).kind
                hits += int(np.isin(kinds, (FETCH_HIT, LOAD_HIT)).sum())
                useful += int(annotated.pfuseful.sum())
                useless += int((annotated.pmiss & ~annotated.pfuseful).sum())
        assert hits > 0 and useful > 0 and useless > 0, route


def forbidden(*args, **kwargs):
    raise AssertionError("the compiled annotation kernel was called")


def test_default_annotation_runs_in_the_kernel(monkeypatch):
    """Pin the route: with the kernel built, the memoised front pass and
    every back pass run in C, never in the Python loops."""
    if not ckernel.kernel_available():
        pytest.skip(f"no compiled annotation kernel: {ckernel.kernel_error()}")
    calls = []
    for name in ("run_front_pass", "run_back_pass"):
        def counting(*args, run=getattr(ckernel, name), name=name):
            calls.append(name)
            return run(*args)

        monkeypatch.setattr(ckernel, name, counting)
    monkeypatch.setattr(layers, "_run_front_pass", forbidden)
    monkeypatch.setattr(layers, "_replay_l2", forbidden)
    trace = generate_trace("database", 8_000, seed=7)
    for size in L2_SIZES[:2]:
        config = l2_config(size)
        assert_same_annotation(annotate(trace, config),
                               annotate_oracle(trace, config))
    assert calls == ["run_front_pass", "run_back_pass", "run_back_pass"]


def test_out_of_contract_traces_take_the_python_route(monkeypatch):
    """A negative address or a pc above 2**62 is outside the kernel
    contract: annotation falls back to the Python loops, matches the
    oracle, and never raises.  Called directly, the kernel driver's
    validator refuses such a trace."""
    base = shared_line_trace(3, 2000, 64)
    config = shared_line_config(8 * 1024, 64, 0.33)
    traces = []
    for column, shift in (("addr", -(1 << 40)), ("pc", 1 << 62)):
        columns = base.columns()
        columns[column] = columns[column] + shift
        traces.append(Trace(columns, name=f"out-of-contract {column}"))
    for trace in traces:
        assert ckernel.contract_violation(trace, config) is not None
        if ckernel.kernel_available():
            with pytest.raises(InternalError, match="outside its contract"):
                ckernel.run_front_pass(trace, config)
    monkeypatch.setattr(ckernel, "run_front_pass", forbidden)
    monkeypatch.setattr(ckernel, "run_back_pass", forbidden)
    for trace in traces:
        assert_same_annotation(annotate(trace, config),
                               annotate_oracle(trace, config))
