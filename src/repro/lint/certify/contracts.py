"""Declared facts the kernel certification is carried out against.

A kernel contract has four ingredients:

* **symbols** — the sizes the proof is parametric over (``n``,
  ``nconfigs``, ``rob_alloc``, ...), each with the numeric box the
  Python side guarantees;
* **buffers** — for every pointer the kernel touches: its length and
  the range of its elements, both as expressions over the symbols
  (``"n + 1"``, ``"2 * n"``, ``"NEVER"``);
* **field invariants** — per struct-scalar ``[lo, hi]`` facts.  A
  ``checked`` invariant is verified at every store and may be assumed
  at every load; a ``trusted`` one (monotone counters whose bound
  rests on a counting argument, not on any single store) is assumed
  both ways and must carry a documented reason;
* **python facts** — the ``PLAN_CONTRACT`` / ``CYCLE_PLAN_CONTRACT``
  / ``ANNOTATE_CONTRACT`` / ``GENERATE_CONTRACT`` dict the runtime
  validators in :mod:`repro.core.columnar`, :mod:`repro.cyclesim.plan`,
  :mod:`repro.trace.ckernel` and :mod:`repro.workloads.ckernel`
  enforce, imported from the running package: the ranges below are
  built from them, never copied.  The ``plan-contract`` pass checks
  that the linted tree's literals equal them and that the validators
  dominate the kernel calls, so the boxes and element ranges this
  module assumes are themselves machine-checked rather than trusted.

A kernel may have several entry functions (the annotation kernel has
one per layer); each entry declares its own parameters, and each
entry's Python driver must call the validator before the kernel.

Bounds that feed the C proof are plain strings parsed by the same C
expression parser the interpreter uses; bounds inside the python-facts
dicts are ``int`` or ``[symbol, offset]`` pairs so the runtime
validators can evaluate them with ``ast.literal_eval``-compatible
syntax.
"""

import hashlib

from repro.core.columnar import PLAN_CONTRACT
from repro.cyclesim.plan import CYCLE_PLAN_CONTRACT
from repro.robustness.errors import InternalError
from repro.trace.ckernel import ANNOTATE_CONTRACT
from repro.workloads.ckernel import GENERATE_CONTRACT


class Buf:
    """A contracted buffer: length and element range over symbols.

    ``trusted`` content (reason required) is assumed on loads but not
    checked on stores — for monotone counter arrays whose per-element
    bound rests on an iteration count the interval domain cannot see.
    """

    __slots__ = ("length", "elem", "lo", "hi", "trusted", "reason")

    def __init__(self, length, elem, lo=None, hi=None, trusted=False,
                 reason=None):
        if trusted and not reason:
            raise InternalError("trusted buffers must document a reason")
        self.length = length
        self.elem = elem
        self.lo = lo
        self.hi = hi
        self.trusted = trusted
        self.reason = reason


class Inv:
    """A scalar field invariant.  ``trusted`` ones need a reason."""

    __slots__ = ("lo", "hi", "trusted", "reason")

    def __init__(self, lo, hi, trusted=False, reason=None):
        if trusted and not reason:
            raise InternalError("trusted invariants must document a reason")
        self.lo = lo
        self.hi = hi
        self.trusted = trusted
        self.reason = reason


class StructElem:
    """A buffer of structs (``configs`` / ``results``)."""

    __slots__ = ("length", "struct")

    def __init__(self, length, struct):
        self.length = length
        self.struct = struct


class Sym:
    """An entry parameter that *is* a symbol."""

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name


class KernelContract:
    """Everything the certifier assumes about one C kernel: its entry
    functions, their symbol/buffer/field invariants, and where the
    matching Python contract literal and runtime validator live."""

    __slots__ = ("path", "entries", "symbols", "buffers", "fields",
                 "python_path", "python_name", "python_facts",
                 "driver_path", "drivers")

    def __init__(self, path, entries, symbols, buffers, fields,
                 python_path, python_name, python_facts, driver_path,
                 drivers):
        self.path = path
        self.entries = entries          # entry -> {param: Sym|Buf|StructElem}
        self.symbols = symbols
        self.buffers = buffers          # (owner, field) -> Buf|StructElem
        self.fields = fields            # (struct, field) -> Inv
        self.python_path = python_path
        self.python_name = python_name
        self.python_facts = python_facts
        self.driver_path = driver_path    # module calling the kernel
        self.drivers = drivers            # functions wrapping the calls

    @property
    def validator_name(self):
        """Runtime validator the driver must call before the kernel."""
        return "validate_" + self.python_name.lower()


def _bound_text(form):
    """Python-facts bound (int or [sym, offset]) as a C expression."""
    if isinstance(form, int):
        return str(form)
    sym, offset = form
    if offset == 0:
        return sym
    return f"{sym} + {offset}" if offset > 0 else f"{sym} - {-offset}"


def facts_fingerprint(*facts):
    """Stable SHA-256 over the python-facts dicts, for the manifest."""
    digest = hashlib.sha256()
    for fact in facts:
        digest.update(repr(_canonical(fact)).encode())
    return digest.hexdigest()


def _canonical(value):
    if isinstance(value, dict):
        return tuple(sorted((k, _canonical(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(v) for v in value)
    return value


def _column_bufs(owner, columns, lengths, elems):
    out = {}
    for name, (lo, hi) in columns.items():
        out[(owner, name)] = Buf(
            lengths.get(name, "n"), elems[name],
            _bound_text(lo), _bound_text(hi),
        )
    return out


# ---------------------------------------------------------------- MLPsim

_MLPSIM_ELEMS = {
    "ops": "int8_t", "prod1": "int32_t", "prod2": "int32_t",
    "prod3": "int32_t", "memdep": "int32_t", "dmiss": "uint8_t",
    "imiss": "uint8_t", "mispred": "uint8_t", "pmiss": "uint8_t",
    "pfuseful": "uint8_t", "vp_ok": "uint8_t", "smiss": "uint8_t",
    "scalar_mask": "uint8_t",
}

#: Epochs advance at least one instruction each (the progress rule the
#: deadlock guard enforces), so epoch <= 2n + 2 < 2^28 at n <= 2^26.
_EPOCH_REASON = ("every epoch retires or defers at least one"
                 " instruction, so epoch <= 2n + 2 < 2^28")
#: Per-epoch counters count instructions scanned in one epoch; a
#: runahead epoch adds the pending prefetches that join it.
_PER_EPOCH = ("counts instructions scanned in one epoch plus the"
              " prefetches joining it, <= 2n + 1")
#: Whole-run counters are bounded by epochs * per-epoch work.
_RUN_TOTAL = ("bounded by epochs * per-epoch accesses <= 2^54")

_MLPSIM_FIELDS = {
    ("Trace", "n"): Inv("n", "n"),
    ("Scan", "epoch"): Inv("1", "(1 << 28)", trusted=True,
                           reason=_EPOCH_REASON),
    ("Scan", "accesses"): Inv("0", "(1 << 30)", trusted=True,
                              reason=_PER_EPOCH),
    ("Scan", "e_dmiss"): Inv("0", "(1 << 30)", trusted=True,
                             reason=_PER_EPOCH),
    ("Scan", "e_imiss"): Inv("0", "(1 << 30)", trusted=True,
                             reason=_PER_EPOCH),
    ("Scan", "e_pmiss"): Inv("0", "(1 << 30)", trusted=True,
                             reason=_PER_EPOCH),
    ("Scan", "e_smiss"): Inv("0", "(1 << 30)", trusted=True,
                             reason=_PER_EPOCH),
    ("Scan", "inflight"): Inv("0", "(1 << 30)", trusted=True,
                              reason=_PER_EPOCH),
    ("Scan", "trigger_idx"): Inv("-1", "n - 1"),
    ("Scan", "first_miss_idx"): Inv("-1", "n - 1"),
    ("Scan", "blocked_memop"): Inv("0", "1"),
    ("Scan", "blocked_staddr"): Inv("0", "1"),
    ("Scan", "blocked_branch"): Inv("0", "1"),
    ("Scan", "progress"): Inv("0", "1"),
    ("Scan", "ev_count"): Inv("0", "(1 << 30)", trusted=True,
                              reason=_PER_EPOCH),
    ("Scan", "ev_first"): Inv("-1", "INH_COUNT - 1"),
    ("Scan", "ev_last"): Inv("-1", "INH_COUNT - 1"),
    ("Scan", "nd_len"): Inv(
        "0", "n", trusted=True,
        reason="each instruction index enters new_deferred at most "
               "once per epoch, so the pending count never exceeds n"),
    ("KernelResult", "epochs"): Inv("0", "(1 << 54)", trusted=True,
                                    reason=_RUN_TOTAL),
    ("KernelResult", "accesses"): Inv("0", "(1 << 54)", trusted=True,
                                      reason=_RUN_TOTAL),
    ("KernelResult", "dmiss_accesses"): Inv("0", "(1 << 54)", trusted=True,
                                            reason=_RUN_TOTAL),
    ("KernelResult", "imiss_accesses"): Inv("0", "(1 << 54)", trusted=True,
                                            reason=_RUN_TOTAL),
    ("KernelResult", "prefetch_accesses"): Inv("0", "(1 << 54)",
                                               trusted=True,
                                               reason=_RUN_TOTAL),
    ("KernelResult", "store_accesses"): Inv("0", "(1 << 54)", trusted=True,
                                            reason=_RUN_TOTAL),
    ("KernelResult", "store_epochs"): Inv("0", "(1 << 54)", trusted=True,
                                          reason=_RUN_TOTAL),
    ("KernelResult", "error_index"): Inv("-1", "n"),
}

_MLPSIM_CONFIG_FIELDS = {
    ("KernelConfig", name): Inv(
        _bound_text(lo), _bound_text(hi), trusted=True,
        reason="validated by validate_plan_contract before the call",
    )
    for name, (lo, hi) in PLAN_CONTRACT["config"].items()
}

_MLPSIM_BUFFERS = {
    **_column_bufs("Trace", PLAN_CONTRACT["columns"],
                   {}, _MLPSIM_ELEMS),
    ("Trace", "imiss"): Buf("n", "uint8_t", "0", "1"),
    ("Trace", "res_data"): Buf("n + 1", "int32_t", "0", "(1 << 30)"),
    ("Trace", "res_valid"): Buf("n + 1", "int32_t", "0", "(1 << 30)"),
    ("Trace", "deferred"): Buf("n + 1", "int32_t", "0", "n - 1"),
    ("Trace", "new_deferred"): Buf("n + 1", "int32_t", "0", "n - 1"),
    ("Trace", "live_dmiss"): Buf("n", "uint8_t", "0", "1"),
    ("Trace", "live_pmiss"): Buf("n", "uint8_t", "0", "1"),
    ("Trace", "poisoned"): Buf("n + 1", "int32_t", "0", "n"),
    ("Trace", "unvalidated"): Buf("n + 1", "int32_t", "0", "n"),
    ("Trace", "dead_store"): Buf("n + 1", "int32_t", "0", "n"),
    ("Trace", "pending_pf"): Buf("n + 1", "int32_t", "0", "n - 1"),
    ("KernelResult", "inhibitors"): Buf(
        "INH_COUNT", "int64_t", "0", "(1 << 54)", trusted=True,
        reason="per-epoch counters: at most one increment per epoch"),
}

_MLPSIM_ENTRY = {
    "n": Sym("n"),
    "nconfigs": Sym("nconfigs"),
    "configs": StructElem("nconfigs", "KernelConfig"),
    "results": StructElem("nconfigs", "KernelResult"),
    **{
        name: _MLPSIM_BUFFERS[("Trace", name)]
        for name in _MLPSIM_ELEMS
    },
}

MLPSIM_KERNEL = KernelContract(
    path="src/repro/core/_mlpsim_kernel.c",
    entries={"mlpsim_batch": _MLPSIM_ENTRY},
    symbols={"n": (0, 1 << 26), "nconfigs": (0, 1 << 20)},
    buffers=_MLPSIM_BUFFERS,
    fields={**_MLPSIM_FIELDS, **_MLPSIM_CONFIG_FIELDS},
    python_path="src/repro/core/columnar.py",
    python_name="PLAN_CONTRACT",
    python_facts=PLAN_CONTRACT,
    driver_path="src/repro/core/ckernel.py",
    drivers=("run_plan",),
)


# --------------------------------------------------------------- cyclesim

_CYCLESIM_ELEMS = {
    "ops": "int8_t", "prod1": "int32_t", "prod2": "int32_t",
    "prod3": "int32_t", "memdep": "int32_t", "addr_line": "int64_t",
    "pc_line": "int64_t", "dmiss": "uint8_t", "imiss": "uint8_t",
    "mispred": "uint8_t", "pmiss": "uint8_t", "pfuseful": "uint8_t",
}

#: Simulated time: the deadlock guard caps useful time far below
#: NEVER; completion times add one miss penalty on top.
_TIME_HI = "(1 << 53)"
#: One wheel entry per off-chip access; at most two per instruction
#: (an imiss at fetch, a dmiss/prefetch at issue), hence 2n entries.
_WHEEL_REASON = ("at most two wheel entries per instruction: one pc"
                 " line at fetch (gated by imiss_run), one data line"
                 " at issue (each instruction issues once)")
_TRK_TOTAL = ("monotone per-run totals, bounded by 2n accesses and"
              " accesses * miss_penalty time")

_CYCLESIM_FIELDS = {
    ("Ctx", "n"): Inv("n", "n"),
    ("Ctx", "ce_head"): Inv("0", "2 * n"),
    ("Ctx", "ce_tail"): Inv("0", "2 * n", trusted=True,
                            reason=_WHEEL_REASON),
    ("Ctx", "rob_alloc"): Inv("rob_alloc", "rob_alloc"),
    ("Ctx", "fq_alloc"): Inv("fq_alloc", "fq_alloc"),
    ("Ctx", "miss_penalty"): Inv("0", "(1 << 20)"),
    ("Tracker", "count"): Inv("0", "2 * n", trusted=True,
                              reason=_TRK_TOTAL),
    ("Tracker", "last_time"): Inv("0", _TIME_HI),
    ("Tracker", "nonzero"): Inv("0", "(1 << 60)", trusted=True,
                                reason=_TRK_TOTAL),
    ("Tracker", "integral"): Inv("0", "(1 << 62)", trusted=True,
                                 reason=_TRK_TOTAL),
    ("CycleResult", "cycles"): Inv("0", _TIME_HI),
    ("CycleResult", "offchip_accesses"): Inv("0", "(1 << 60)",
                                             trusted=True,
                                             reason=_TRK_TOTAL),
    ("CycleResult", "dmiss_accesses"): Inv("0", "(1 << 60)", trusted=True,
                                           reason=_TRK_TOTAL),
    ("CycleResult", "imiss_accesses"): Inv("0", "(1 << 60)", trusted=True,
                                           reason=_TRK_TOTAL),
    ("CycleResult", "prefetch_accesses"): Inv("0", "(1 << 60)",
                                              trusted=True,
                                              reason=_TRK_TOTAL),
    ("CycleResult", "nonzero_cycles"): Inv("0", "(1 << 60)"),
    ("CycleResult", "outstanding_integral"): Inv("0", "(1 << 62)"),
    ("CycleResult", "status"): Inv("0", "1"),
    ("CycleResult", "error_cycle"): Inv("0", "NEVER"),
    ("CycleResult", "error_committed"): Inv("0", "n"),
}

_CYCLESIM_CONFIG_FIELDS = {
    ("CycleConfig", name): Inv(
        _bound_text(lo), _bound_text(hi), trusted=True,
        reason="validated by validate_cycle_plan_contract before the call",
    )
    for name, (lo, hi) in CYCLE_PLAN_CONTRACT["config"].items()
}

_CYCLESIM_BUFFERS = {
    **_column_bufs("Ctx", CYCLE_PLAN_CONTRACT["columns"],
                   {}, _CYCLESIM_ELEMS),
    ("Ctx", "ready"): Buf("n", "int64_t", "0", "NEVER"),
    ("Ctx", "complete"): Buf("n", "int64_t", "0", "NEVER"),
    ("Ctx", "wake"): Buf("n", "int64_t", "-1", "NEVER"),
    ("Ctx", "imiss_run"): Buf("n", "uint8_t", "0", "1"),
    ("Ctx", "ent_done"): Buf("2 * n", "int64_t", "0", _TIME_HI),
    ("Ctx", "ent_line"): Buf("2 * n", "int64_t", "0", "(1 << 57)"),
    ("Ctx", "ent_useful"): Buf("2 * n", "uint8_t", "0", "1"),
    ("Ctx", "ent_next"): Buf("2 * n", "int32_t", "-1", "2 * n - 1"),
    ("Ctx", "hash_head"): Buf("HASH_SIZE", "int32_t", "-1", "2 * n - 1"),
    ("Ctx", "rob_buf"): Buf("rob_alloc", "int64_t", "0", "n - 1"),
    ("Ctx", "iw_buf"): Buf(
        "iw_alloc", "int64_t", "0", "n - 1", trusted=True,
        reason="slots cleared to -1 during issue are compacted out"
               " before any later scan; live entries are instruction"
               " indices"),
    ("Ctx", "memops_buf"): Buf("iw_alloc", "int64_t", "0", "n - 1"),
    ("Ctx", "branches_buf"): Buf("iw_alloc", "int64_t", "0", "n - 1"),
    ("Ctx", "urs_buf"): Buf("n", "int64_t", "0", "n - 1"),
    ("Ctx", "fq_idx"): Buf("fq_alloc", "int64_t", "0", "n - 1"),
    ("Ctx", "fq_time"): Buf("fq_alloc", "int64_t", "0", _TIME_HI),
    ("CycleResult", "stalls"): Buf(
        "N_CATEGORIES", "int64_t", "0", "(1 << 62)", trusted=True,
        reason="per-cycle stall counters: one increment per cycle"),
}

_CYCLESIM_ENTRY = {
    "n": Sym("n"),
    "n_configs": Sym("nconfigs"),
    "configs": StructElem("nconfigs", "CycleConfig"),
    "results": StructElem("nconfigs", "CycleResult"),
    **{
        name: _CYCLESIM_BUFFERS[("Ctx", name)]
        for name in _CYCLESIM_ELEMS
    },
}

CYCLESIM_KERNEL = KernelContract(
    path="src/repro/cyclesim/_cyclesim_kernel.c",
    entries={"cyclesim_batch": _CYCLESIM_ENTRY},
    symbols={
        "n": (0, 1 << 26),
        "nconfigs": (0, 1 << 20),
        "rob_alloc": (1, 1 << 20),
        "iw_alloc": (1, 1 << 20),
        "fq_alloc": (1, 1 << 20),
    },
    buffers=_CYCLESIM_BUFFERS,
    fields={**_CYCLESIM_FIELDS, **_CYCLESIM_CONFIG_FIELDS},
    python_path="src/repro/cyclesim/plan.py",
    python_name="CYCLE_PLAN_CONTRACT",
    python_facts=CYCLE_PLAN_CONTRACT,
    driver_path="src/repro/cyclesim/ckernel.py",
    drivers=("run_cycle_plan",),
)


# ------------------------------------------------------------- annotation

_ANNOTATE_ELEMS = {
    "ops": "int8_t", "pc": "int64_t", "addr": "int64_t",
    "target": "int64_t", "taken": "uint8_t", "cond": "uint8_t",
    "fetch_line": "int64_t", "iline": "int64_t", "dline": "int64_t",
    "pf_fetch": "uint8_t", "pf_data": "uint8_t", "position": "int32_t",
    "kind": "int8_t", "line": "int64_t", "line_id": "int32_t",
    "owner": "int32_t",
}

_ANNOTATE_COLUMNS = {
    name: Buf(length, _ANNOTATE_ELEMS[name], _bound_text(lo),
              _bound_text(hi))
    for name, (length, lo, hi) in ANNOTATE_CONTRACT["columns"].items()
}

#: The front pass writes at most one fetch-line entry and one data
#: entry per instruction, so the stream buffers hold 2n.
_STREAM_BUFFERS = {
    "pos": Buf("2 * n", "int32_t", "0", "n - 1"),
    "kind": Buf("2 * n", "int8_t", "0", "5"),
}

_MASK = Buf("n", "uint8_t", "0", "1")

_ANNOTATE_BUFFERS = {
    ("Cache", "tags"): Buf("WAYS * sets", "int64_t"),
    ("Cache", "ages"): Buf("WAYS * sets", "int64_t"),
    ("Predictor", "counters"): Buf("gshare", "uint8_t", "0", "3"),
    ("Predictor", "btb_tag"): Buf("BTB_WAYS * btb_sets", "int64_t"),
    ("Predictor", "btb_target"): Buf("BTB_WAYS * btb_sets", "int64_t"),
    ("Predictor", "btb_age"): Buf("BTB_WAYS * btb_sets", "int64_t"),
    **{("Stream", name): buf for name, buf in _STREAM_BUFFERS.items()},
}

_ANNOTATE_FIELDS = {
    ("Cache", "mask"): Inv("0", "sets - 1"),
    ("Cache", "assoc"): Inv("1", "WAYS"),
    ("Predictor", "g_mask"): Inv("0", "gshare - 1"),
    ("Predictor", "b_mask"): Inv("0", "btb_sets - 1"),
    ("Predictor", "history"): Inv("0", "(1 << 24) - 1"),
    ("Stream", "m"): Inv("0", "2 * n"),
    **{
        ("Geometry", name): Inv(
            _bound_text(lo), _bound_text(hi), trusted=True,
            reason="validated by validate_annotate_contract before the"
                   " call",
        )
        for name, (lo, hi) in ANNOTATE_CONTRACT["geometry"].items()
    },
}

_FRONT_COLUMNS = ("ops", "pc", "target", "taken", "cond", "fetch_line",
                  "iline", "dline", "pf_fetch", "pf_data")
_BACK_COLUMNS = ("position", "kind", "line", "line_id", "owner")

ANNOTATE_KERNEL = KernelContract(
    path="src/repro/trace/_annotate_kernel.c",
    entries={
        "annotate_front": {
            **{name: Sym(name) for name in ("n", "sets", "gshare",
                                            "btb_sets")},
            **{name: _ANNOTATE_COLUMNS[name] for name in _FRONT_COLUMNS},
            "mispred": _MASK,
            **{f"out_{name}": buf for name, buf in _STREAM_BUFFERS.items()},
        },
        "annotate_back": {
            **{name: Sym(name) for name in ("n", "m", "nlines", "sets",
                                            "assoc")},
            **{name: _ANNOTATE_COLUMNS[name] for name in _BACK_COLUMNS},
            **{name: _MASK for name in ("dmiss", "pmiss", "pfuseful",
                                        "imiss", "smiss")},
        },
    },
    symbols={name: tuple(box)
             for name, box in ANNOTATE_CONTRACT["symbols"].items()},
    buffers=_ANNOTATE_BUFFERS,
    fields=_ANNOTATE_FIELDS,
    python_path="src/repro/trace/ckernel.py",
    python_name="ANNOTATE_CONTRACT",
    python_facts=ANNOTATE_CONTRACT,
    driver_path="src/repro/trace/ckernel.py",
    drivers=("run_front_pass", "run_back_pass"),
)


# ------------------------------------------------------------- generation

_GENERATE_ELEMS = {
    "mt": "uint32_t", "t_kind": "int8_t", "t_a": "int16_t",
    "t_b": "int16_t", "t_c": "int16_t", "t_arg": "int32_t",
    "f_start": "int64_t", "f_end": "int64_t", "f_pc": "int64_t",
    "zipf": "int64_t",
}

_VALIDATED = "validated by validate_generate_contract before the call"

_GENERATE_TABLES = {
    name: Buf("MT_N" if name == "mt" else length, _GENERATE_ELEMS[name],
              _bound_text(lo), _bound_text(hi))
    for name, (length, lo, hi) in GENERATE_CONTRACT["columns"].items()
}

#: The ten trace columns the kernel writes, by entry parameter name.
#: A PC is a motif block or function base (below 2^40) plus an offset;
#: branch targets and addresses add at most one more such offset.
_TRACE_BUFFERS = {
    "op": Buf("n", "int8_t", "0", "8"),
    "pc": Buf("n", "int64_t", "0", "(1 << 41)"),
    "dst": Buf("n", "int16_t", "-1", "63"),
    "src1": Buf("n", "int16_t", "-1", "63"),
    "src2": Buf("n", "int16_t", "-1", "63"),
    "src3": Buf("n", "int16_t", "-1", "63"),
    "addr": Buf("n", "int64_t", "0", "(1 << 42)"),
    "taken": Buf("n", "uint8_t", "0", "1"),
    "target": Buf("n", "int64_t", "0", "(1 << 42)"),
    "value": Buf("n", "int64_t", "0", "(1 << 52)"),
}

_GENERATE_BUFFERS = {
    **{("Gen", name): buf for name, buf in _GENERATE_TABLES.items()},
    **{("Gen", "pcs" if name == "pc" else name): buf
       for name, buf in _TRACE_BUFFERS.items()},
    ("Gen", "last"): Buf("nflat + MOTIF_SITES", "int64_t", "-1",
                         "(1 << 52)"),
    ("Gen", "bias"): Buf("nflat", "int64_t", "-1", "(1 << 53)"),
    ("Pool", "lines"): Buf("pool", "int64_t", "0", "(1 << 41)"),
}

_GENERATE_FIELDS = {
    ("Gen", "mti"): Inv("0", "MT_N"),
    ("Gen", "pc"): Inv(
        "0", "(1 << 41)", trusted=True,
        reason="every PC is a motif block or function base (below"
               " 2^40) plus an offset below 2^30: a template op's"
               " offset is below 4 * nflat, and a motif adds at most"
               " 4 * (row_spacing + 16)"),
    ("Gen", "row"): Inv("0", "n"),
    ("Gen", "length"): Inv("n", "n"),
    ("Gen", "nflat"): Inv("nflat", "nflat"),
    ("Gen", "nfuncs"): Inv("nfuncs", "nfuncs"),
    ("Gen", "fresh_stride"): Inv("0", "(1 << 16)"),
    ("Values", "repeat"): Inv("0", "(1 << 53)"),
    ("Values", "fresh"): Inv(
        "0", "(1 << 52)", trusted=True,
        reason="grows by fresh_stride (at most 2^16) per fresh value,"
               " one per load emitted: fewer than 2^35 loads, since"
               " the contract caps the rows and every count a"
               " transaction draws"),
    ("Pool", "cap"): Inv("1", "pool"),
    ("Pool", "len"): Inv("0", "pool"),
    ("Pool", "cursor"): Inv("0", "pool - 1"),
    **{
        ("Params", name): Inv(_bound_text(lo), _bound_text(hi),
                              trusted=True, reason=_VALIDATED)
        for (lo, hi), names in GENERATE_CONTRACT["params"]
        for name in names
    },
    **{
        ("Region", name): Inv(_bound_text(lo), _bound_text(hi),
                              trusted=True, reason=_VALIDATED)
        for name, (lo, hi) in GENERATE_CONTRACT["region"].items()
        if name != "cursor"
    },
    ("Region", "cursor"): Inv(
        *map(_bound_text, GENERATE_CONTRACT["region"]["cursor"])),
}

GENERATE_KERNEL = KernelContract(
    path="src/repro/workloads/_generate_kernel.c",
    entries={
        "generate": {
            **{name: Sym(name) for name in ("n", "nflat", "nfuncs",
                                            "pool")},
            **_GENERATE_TABLES,
            **_TRACE_BUFFERS,
        },
    },
    symbols={name: tuple(box)
             for name, box in GENERATE_CONTRACT["symbols"].items()},
    buffers=_GENERATE_BUFFERS,
    fields=_GENERATE_FIELDS,
    python_path="src/repro/workloads/ckernel.py",
    python_name="GENERATE_CONTRACT",
    python_facts=GENERATE_CONTRACT,
    driver_path="src/repro/workloads/ckernel.py",
    drivers=("run_program",),
)


def kernel_contracts():
    """All declared kernel contracts, in certification order."""
    return (MLPSIM_KERNEL, CYCLESIM_KERNEL, ANNOTATE_KERNEL,
            GENERATE_KERNEL)
