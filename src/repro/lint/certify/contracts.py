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
  / ``ANNOTATE_CONTRACT`` / ``GENERATE_CONTRACT`` literal, imported
  from the running package.  It declares each entry point once: its
  parameters, in order, with their C types, lengths and ranges, the
  boxes of its sizes and the ranges of the struct fields the caller
  fills.  :mod:`repro.cbuild` renders the prototypes the compiler
  checks the C definitions against and checks every call against the
  same declaration, so the entry facts below are built from it, never
  copied.  ``kernel-bounds`` reports a linted tree whose literal
  differs from the package's.

A kernel may have several entry functions (the annotation kernel has
one per layer); each entry declares its own parameters.  The
kernel-internal scratch buffers and field invariants, which no Python
code mirrors, are declared here.

Bounds that feed the C proof are plain strings parsed by the same C
expression parser the interpreter uses; bounds inside the python-facts
dicts are ``int``, a symbol, or ``[symbol, offset(, scale)]`` (see
:func:`repro.cbuild.contract_bound`).
"""

import hashlib

from repro.cbuild import params
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
    contract literal they are built from lives."""

    __slots__ = ("path", "entries", "symbols", "buffers", "fields",
                 "python_path", "python_name", "python_facts",
                 "driver_path")

    def __init__(self, path, entries, symbols, buffers, fields,
                 python_path, python_name, python_facts, driver_path):
        self.path = path
        self.entries = entries          # entry -> {param: Sym|Buf|StructElem}
        self.symbols = symbols
        self.buffers = buffers          # (owner, field) -> Buf|StructElem
        self.fields = fields            # (struct, field) -> Inv
        self.python_path = python_path
        self.python_name = python_name
        self.python_facts = python_facts
        self.driver_path = driver_path    # module whose loader builds it


def _bound_text(form):
    """Python-facts bound (see :func:`repro.cbuild.contract_bound`) as
    a C expression."""
    if isinstance(form, int):
        return str(form)
    if isinstance(form, str):
        return form
    symbol, offset, *scale = form
    text = f"{scale[0]} * {symbol}" if scale else symbol
    if offset == 0:
        return text
    return f"{text} + {offset}" if offset > 0 else f"{text} - {-offset}"


def facts_fingerprint(contract):
    """Stable SHA-256 over a whole :class:`KernelContract` (everything
    it declares), for keying certifier reports."""
    return hashlib.sha256(repr(_canonical(contract)).encode()).hexdigest()


def _canonical(value):
    if isinstance(value, dict):
        return tuple(sorted((k, _canonical(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(v) for v in value)
    slots = getattr(type(value), "__slots__", None)
    if slots is not None:  # a contract object: its class and fields
        return (type(value).__name__,
                *(_canonical(getattr(value, name)) for name in slots))
    return value


def _entry(contract, name):
    """The parameter facts of the declared entry point *name*: a symbol
    for each scalar, a buffer for each column and each array of
    structs; one struct is typed by the C source alone."""
    facts = {}
    for param in params(contract["entries"][name]):
        if param.element is None:
            facts[param.name] = Sym(param.name)
        elif param.lo is not None:
            facts[param.name] = Buf(
                _bound_text(param.length), param.element,
                _bound_text(param.lo), _bound_text(param.hi))
        elif param.length is not None:
            facts[param.name] = StructElem(_bound_text(param.length),
                                           param.element)
    return facts


def _columns(entry):
    """The column buffers of an :func:`_entry`, by parameter name."""
    return {name: fact for name, fact in entry.items()
            if isinstance(fact, Buf)}


def _checked_fields(contract, struct):
    """Trusted invariants for the *struct* fields the call check bounds."""
    return {
        (struct, field): Inv(
            _bound_text(lo), _bound_text(hi), trusted=True,
            reason="checked against the contract before every call",
        )
        for (lo, hi), names in contract["structs"][struct]
        for field in names
    }


def _symbols(contract):
    """The contract's symbol boxes."""
    return {name: tuple(box) for name, box in contract["symbols"].items()}


# ---------------------------------------------------------------- MLPsim

_MLPSIM_ENTRY = _entry(PLAN_CONTRACT, "mlpsim_batch")

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

_MLPSIM_BUFFERS = {
    **{("Trace", name): buf for name, buf in _columns(_MLPSIM_ENTRY).items()},
    ("Trace", "imiss"): Buf("n", "uint8_t", "0", "1"),
    ("Trace", "res"): Buf("2 * n + 2", "int32_t", "0", "(1 << 30)"),
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

MLPSIM_KERNEL = KernelContract(
    path="src/repro/core/_mlpsim_kernel.c",
    entries={"mlpsim_batch": _MLPSIM_ENTRY},
    symbols=_symbols(PLAN_CONTRACT),
    buffers=_MLPSIM_BUFFERS,
    fields={**_MLPSIM_FIELDS,
            **_checked_fields(PLAN_CONTRACT, "KernelConfig")},
    python_path="src/repro/core/columnar.py",
    python_name="PLAN_CONTRACT",
    python_facts=PLAN_CONTRACT,
    driver_path="src/repro/core/ckernel.py",
)


# --------------------------------------------------------------- cyclesim

_CYCLESIM_ENTRY = _entry(CYCLE_PLAN_CONTRACT, "cyclesim_batch")

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

_CYCLESIM_BUFFERS = {
    **{("Ctx", name): buf for name, buf in _columns(_CYCLESIM_ENTRY).items()},
    ("Ctx", "ready"): Buf("n", "int64_t", "0", "NEVER"),
    # -1 unknown, -2 - p while waiting on unissued producer p.
    ("Ctx", "wake"): Buf("n", "int64_t", "-n - 1", "NEVER"),
    ("Ctx", "imiss_run"): Buf("n", "uint8_t", "0", "1"),
    ("Ctx", "ent_done"): Buf("2 * n", "int64_t", "0", _TIME_HI),
    ("Ctx", "ent_line"): Buf("2 * n", "int64_t", "0", "(1 << 57)"),
    ("Ctx", "ent_useful"): Buf("2 * n", "uint8_t", "0", "1"),
    ("Ctx", "ent_next"): Buf("2 * n", "int32_t", "-1", "2 * n - 1"),
    ("Ctx", "hash_head"): Buf("HASH_SIZE", "int32_t", "-1", "2 * n - 1"),
    ("Ctx", "rob_buf"): Buf("rob_alloc", "int64_t", "0", "n - 1"),
    ("Ctx", "iw_buf"): Buf("iw_alloc", "int64_t", "0", "n - 1"),
    ("Ctx", "urs_buf"): Buf("n", "int64_t", "0", "n - 1"),
    ("Ctx", "fq_idx"): Buf("fq_alloc", "int64_t", "0", "n - 1"),
    ("Ctx", "fq_time"): Buf("fq_alloc", "int64_t", "0", _TIME_HI),
    ("CycleResult", "stalls"): Buf(
        "N_CATEGORIES", "int64_t", "0", "(1 << 62)", trusted=True,
        reason="per-cycle stall counters: one increment per cycle"),
}

CYCLESIM_KERNEL = KernelContract(
    path="src/repro/cyclesim/_cyclesim_kernel.c",
    entries={"cyclesim_batch": _CYCLESIM_ENTRY},
    symbols={
        **_symbols(CYCLE_PLAN_CONTRACT),
        "rob_alloc": (1, 1 << 20),
        "iw_alloc": (1, 1 << 20),
        "fq_alloc": (1, 1 << 20),
    },
    buffers=_CYCLESIM_BUFFERS,
    fields={**_CYCLESIM_FIELDS,
            **_checked_fields(CYCLE_PLAN_CONTRACT, "CycleConfig")},
    python_path="src/repro/cyclesim/plan.py",
    python_name="CYCLE_PLAN_CONTRACT",
    python_facts=CYCLE_PLAN_CONTRACT,
    driver_path="src/repro/cyclesim/ckernel.py",
)


# ------------------------------------------------------------- annotation

_ANNOTATE_ENTRIES = {
    name: _entry(ANNOTATE_CONTRACT, name)
    for name in ANNOTATE_CONTRACT["entries"]
}

_ANNOTATE_BUFFERS = {
    ("Cache", "tags"): Buf("WAYS * sets", "int64_t"),
    ("Cache", "ages"): Buf("WAYS * sets", "int64_t"),
    ("Predictor", "counters"): Buf("gshare", "uint8_t", "0", "3"),
    ("Predictor", "btb_tag"): Buf("BTB_WAYS * btb_sets", "int64_t"),
    ("Predictor", "btb_target"): Buf("BTB_WAYS * btb_sets", "int64_t"),
    ("Predictor", "btb_age"): Buf("BTB_WAYS * btb_sets", "int64_t"),
    # The front pass's stream, which it returns through out_pos and
    # out_kind.
    ("Stream", "pos"): _ANNOTATE_ENTRIES["annotate_front"]["out_pos"],
    ("Stream", "kind"): _ANNOTATE_ENTRIES["annotate_front"]["out_kind"],
}

_ANNOTATE_FIELDS = {
    ("Cache", "mask"): Inv("0", "sets - 1"),
    ("Cache", "assoc"): Inv("1", "WAYS"),
    ("Predictor", "g_mask"): Inv("0", "gshare - 1"),
    ("Predictor", "b_mask"): Inv("0", "btb_sets - 1"),
    ("Predictor", "history"): Inv("0", "(1 << 24) - 1"),
    ("Stream", "m"): Inv("0", "2 * n"),
    **_checked_fields(ANNOTATE_CONTRACT, "Geometry"),
}

ANNOTATE_KERNEL = KernelContract(
    path="src/repro/trace/_annotate_kernel.c",
    entries=_ANNOTATE_ENTRIES,
    symbols=_symbols(ANNOTATE_CONTRACT),
    buffers=_ANNOTATE_BUFFERS,
    fields=_ANNOTATE_FIELDS,
    python_path="src/repro/trace/ckernel.py",
    python_name="ANNOTATE_CONTRACT",
    python_facts=ANNOTATE_CONTRACT,
    driver_path="src/repro/trace/ckernel.py",
)


# ------------------------------------------------------------- generation

_GENERATE_ENTRY = _entry(GENERATE_CONTRACT, "generate")

#: Each column's ``Gen`` field, which holds the parameter's pointer
#: (the pc column is ``pcs``: ``Gen.pc`` is the running pc).
_GENERATE_BUFFERS = {
    **{("Gen", "pcs" if name == "pc" else name): buf
       for name, buf in _columns(_GENERATE_ENTRY).items()},
    ("Gen", "last"): Buf("nflat + MOTIF_SITES", "int64_t", "-1",
                         "(1 << 52)"),
    ("Gen", "bias"): Buf("nflat", "int64_t", "-1", "(1 << 53)"),
    ("Pool", "lines"): Buf("pool", "int64_t", "0", "(1 << 41)"),
}

_REGION_FIELDS = _checked_fields(GENERATE_CONTRACT, "Region")
_CURSOR = _REGION_FIELDS[("Region", "cursor")]

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
    **_checked_fields(GENERATE_CONTRACT, "Params"),
    **_REGION_FIELDS,
    # The kernel advances each region's cursor: checked at every store.
    ("Region", "cursor"): Inv(_CURSOR.lo, _CURSOR.hi),
}

GENERATE_KERNEL = KernelContract(
    path="src/repro/workloads/_generate_kernel.c",
    entries={"generate": _GENERATE_ENTRY},
    symbols=_symbols(GENERATE_CONTRACT),
    buffers=_GENERATE_BUFFERS,
    fields=_GENERATE_FIELDS,
    python_path="src/repro/workloads/ckernel.py",
    python_name="GENERATE_CONTRACT",
    python_facts=GENERATE_CONTRACT,
    driver_path="src/repro/workloads/ckernel.py",
)


def kernel_contracts():
    """All declared kernel contracts, in certification order."""
    return (MLPSIM_KERNEL, CYCLESIM_KERNEL, ANNOTATE_KERNEL,
            GENERATE_KERNEL)
