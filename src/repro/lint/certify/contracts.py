"""The contract facts the kernel certification is carried out against.

Each kernel's contract is its driver's ``PLAN_CONTRACT`` /
``CYCLE_PLAN_CONTRACT`` / ``ANNOTATE_CONTRACT`` / ``GENERATE_CONTRACT``
literal, imported from the running package.  It declares each entry
point once: its parameters, in order, with their C types, lengths and
ranges, the boxes of its sizes and the ranges of the struct fields the
caller fills.  :mod:`repro.cbuild` renders the prototypes the compiler
checks the C definitions against and checks every call against the
same declaration, so the facts below are built from it, never copied:

* **symbols** — the sizes the proof is parametric over (``n``,
  ``nconfigs``, ...), each with the numeric box the call check
  guarantees;
* **entries** — per entry function, a fact for each parameter: a
  symbol (:class:`Sym`), a column (:class:`Buf`: its length and the
  range of its elements, as expressions over the symbols) or an array
  of structs (:class:`StructElem`);
* **fields** — the ``[lo, hi]`` of every struct field the call check
  bounds, trusted at every load.

Every other fact — a kernel struct's scratch buffers and field
invariants, the result fields it writes, its own scratch sizes — is
declared by a ``certify:`` annotation in the kernel's ``.c`` file (see
:mod:`repro.lint.certify.cparse`).  Bounds are C expression text,
parsed by the same front end; bounds inside the literal are ``int``, a
symbol, or ``[symbol, offset(, scale)]`` (see
:func:`repro.cbuild.contract_bound`).
"""

import collections

from repro.cbuild import params
from repro.core.columnar import PLAN_CONTRACT
from repro.cyclesim.plan import CYCLE_PLAN_CONTRACT
from repro.trace.ckernel import ANNOTATE_CONTRACT
from repro.workloads.ckernel import GENERATE_CONTRACT

#: A column: its length and element range over the symbols, and its
#: C element type.
Buf = collections.namedtuple("Buf", "length elem lo hi")

#: A buffer of structs (``configs`` / ``results``).
StructElem = collections.namedtuple("StructElem", "length struct")

#: An entry parameter that *is* a symbol.
Sym = collections.namedtuple("Sym", "name")


class KernelContract:
    """What the certifier takes from one kernel's contract literal:
    its entry functions' parameter facts, its symbol boxes and its
    checked field ranges, plus where the kernel, the literal and the
    driver that renders the kernel's header live."""

    __slots__ = ("path", "entries", "symbols", "fields", "python_path",
                 "python_name", "python_facts", "driver_path")

    def __init__(self, path, python_path, python_name, python_facts,
                 driver_path):
        self.path = path
        self.entries = {name: _entry(python_facts, name)
                        for name in python_facts["entries"]}
        self.symbols = {name: tuple(box)
                        for name, box in python_facts["symbols"].items()}
        self.fields = {
            (struct, field): (_bound_text(lo), _bound_text(hi))
            for struct, groups in python_facts["structs"].items()
            for (lo, hi), names in groups
            for field in names
        }
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


def kernel_contracts():
    """All declared kernel contracts, in certification order."""
    return (
        KernelContract("src/repro/core/_mlpsim_kernel.c",
                       "src/repro/core/columnar.py", "PLAN_CONTRACT",
                       PLAN_CONTRACT, "src/repro/core/ckernel.py"),
        KernelContract("src/repro/cyclesim/_cyclesim_kernel.c",
                       "src/repro/cyclesim/plan.py", "CYCLE_PLAN_CONTRACT",
                       CYCLE_PLAN_CONTRACT, "src/repro/cyclesim/ckernel.py"),
        KernelContract("src/repro/trace/_annotate_kernel.c",
                       "src/repro/trace/ckernel.py", "ANNOTATE_CONTRACT",
                       ANNOTATE_CONTRACT, "src/repro/trace/ckernel.py"),
        KernelContract("src/repro/workloads/_generate_kernel.c",
                       "src/repro/workloads/ckernel.py", "GENERATE_CONTRACT",
                       GENERATE_CONTRACT, "src/repro/workloads/ckernel.py"),
    )
