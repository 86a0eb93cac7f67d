"""Build and load the compiled kernels.

Both simulators run their grids through a C kernel (``_mlpsim_kernel.c``
and ``_cyclesim_kernel.c``), trace annotation runs its two layers
through a third (``_annotate_kernel.c``), and the three paper workloads
generate their traces through a fourth (``_generate_kernel.c``).  Each
is compiled on demand
with the system C compiler and loaded through :mod:`ctypes`, with no
third-party build dependency.  This module is the one place that knows
how:

* every fact a kernel shares with Python (an opcode, an enum index, a
  struct layout, an entry point's prototype) reaches it through a
  header rendered here from the Python definitions
  (:func:`render_header`), so no ``.c`` file keeps a copy that could
  drift, and ``cc`` rejects a definition that disagrees with its
  declared prototype;
* each entry point is declared once, in its kernel's contract literal:
  :class:`KernelLoader` sets its ``argtypes`` and ``restype`` from the
  declaration and reaches it only through one contract check, and the
  certifier (:mod:`repro.lint.certify.contracts`) builds its parameter
  facts from the same declaration;
* the object is keyed on the SHA-1 of the whole translation unit, the
  header and the source, so an edit on either side triggers a rebuild
  instead of loading a stale object;
* the build is atomic (temp file + ``os.replace``), so concurrent sweep
  workers race benignly;
* ``REPRO_KERNEL_DIR`` overrides the build directory (created if
  missing); setting it to an empty string disables all four kernels;
* each kernel is probed once per process, and a failure is cached and
  reported by :meth:`KernelLoader.error` rather than raised.

It also holds the one plan type both simulators read their trace
columns through, :class:`Plan`: exactly the columns an entry point
declares, with one memo on the annotated trace
(:func:`memoised_plan`) and one payload codec for the shared-memory
channel (:mod:`repro.analysis.shm`).

And it holds the process's one CPU count, :func:`effective_cpus`,
which the simulator drivers use to cut a multi-config batch into one
slice per usable CPU (:func:`run_slices`): a ctypes call releases the
GIL, so the slices' kernel calls run at the same time.  Pool workers
call :func:`pin_kernel_threads`, because the pool already runs one
process per job.

Without a kernel the callers fall back to the MLPsim oracles (the
frozen reference and the runahead oracle), the frozen cyclesim
reference, the Python annotation loops and the Python generators; see
``docs/PERFORMANCE.md``.
"""

import contextlib
import ctypes
import hashlib
import numbers
import os
import shutil
import subprocess
import tempfile
import threading
import weakref

import numpy as np

from repro.isa.opclass import OpClass
from repro.robustness.errors import InternalError, TraceFormatError

#: The ctypes type of each C scalar a declared parameter or return
#: value may have (``None`` is ctypes' ``void``).
_SCALARS = {"int": ctypes.c_int, "int64_t": ctypes.c_int64, "void": None}

#: C spellings of the ctypes scalar types a rendered struct may hold.
_C_TYPES = {ctype: name for name, ctype in _SCALARS.items() if ctype}

#: The NumPy dtype of each C element type a declared column may have.
_ELEMENTS = {
    name: np.dtype(name.removesuffix("_t"))
    for name in ("int8_t", "uint8_t", "int16_t", "int32_t", "uint32_t",
                 "int64_t")
}


class Param:
    """One parameter of a declared entry point: a row of its contract
    literal's ``params`` list.

    *ctype* is its C type as the prototype spells it (``"int64_t"``,
    ``"const int8_t *"``), and *element* the C type a pointer points to
    (``None`` for a scalar).  A scalar is a size: its name is one of
    the contract's ``symbols``, whose box bounds it.  A column (a
    pointer to a C scalar) has a *length* and a value range *lo* ..
    *hi*, bounds over the symbols (see :func:`contract_bound`), and
    *out* is ``"out"`` when the kernel only writes it.  A pointer to a
    struct has a *length* when it is an array, none when it is one
    struct.
    """

    __slots__ = ("name", "ctype", "length", "lo", "hi", "out", "element")

    def __init__(self, name, ctype, length=None, lo=None, hi=None,
                 out=None):
        self.name = name
        self.ctype = ctype
        self.length = length
        self.lo = lo
        self.hi = hi
        self.out = out
        self.element = (ctype.removeprefix("const ").rstrip(" *")
                        if ctype.endswith("*") else None)


def params(declaration):
    """The :class:`Param` list of one declared entry point."""
    return [Param(*row) for row in declaration["params"]]


def column_dtypes(declaration):
    """``{name: dtype}`` of the columns a declared entry point reads
    (every column it does not only write), in order."""
    return {param.name: _ELEMENTS[param.element]
            for param in params(declaration)
            if param.element in _ELEMENTS and not param.out}


def crossing(array, dtype):
    """*array* as it crosses into C for a column of *dtype*: a bool
    array crosses as its zero-copy uint8 view, anything else as itself."""
    if array.dtype == np.bool_ and dtype == np.uint8:
        return array.view(np.uint8)
    return array


def contract_fields(contract, struct):
    """The ctypes ``_fields_`` of *struct* as *contract* declares it:
    every field of its ``structs`` groups, in order, as an ``int64``,
    so each field has a contracted range."""
    return [(field, ctypes.c_int64)
            for _, fields in contract["structs"][struct] for field in fields]


#: Version of the plan payload layout, carried in every payload's meta
#: record and checked by :meth:`Plan.from_payload`.  Bump it whenever a
#: plan's columns change set or meaning, so a payload of another layout
#: is rejected instead of misread.
PLAN_SCHEMA_VERSION = 3


class Plan:
    """The columns one kernel entry point reads, over one trace region.

    *entry* names the entry point among *contract*'s ``entries``, and
    *columns* maps each column it reads (:func:`column_dtypes`) to its
    array over ``[start, stop)``: exactly those columns, each of its
    declared dtype (a bool array feeds a uint8 column) and of length
    ``stop - start``.  They are read-only from construction on, so the
    kernel's call check scans each one once (see :class:`KernelLoader`).
    Each column is also an attribute: ``plan.ops``.

    Raises
    ------
    repro.robustness.errors.TraceFormatError
        If a column is missing, undeclared, or of another dtype or
        length (*path* names where the columns came from).
    """

    def __init__(self, contract, entry, start, stop, columns, path=None):
        declared = column_dtypes(contract["entries"][entry])
        for name in columns:
            if name not in declared:
                raise TraceFormatError(
                    f"{entry} plan has undeclared column {name!r}",
                    path=path, field=name)
        n = stop - start
        checked = {}
        for name, dtype in declared.items():
            if name not in columns:
                raise TraceFormatError(
                    f"{entry} plan is missing column {name!r}",
                    path=path, field=name)
            array = np.asarray(columns[name])
            if crossing(array, dtype).dtype != dtype or array.shape != (n,):
                raise TraceFormatError(
                    f"{entry} plan column {name!r} has dtype {array.dtype}"
                    f" shape {array.shape}; expected {dtype} ({n},)",
                    path=path, field=name)
            array.flags.writeable = False
            checked[name] = array
        self.entry = entry
        self.start = start
        self.stop = stop
        self.columns = checked
        vars(self).update(checked)

    def __len__(self):
        return self.stop - self.start

    def payload(self):
        """The plan as a flat ``{name: array}`` dict: its columns, the
        ``meta`` record (:data:`PLAN_SCHEMA_VERSION`, start, stop) and
        the ``entry`` record, the entry point's name.  It round-trips
        through :meth:`from_payload`."""
        return {
            **self.columns,
            "meta": np.asarray([PLAN_SCHEMA_VERSION, self.start, self.stop],
                               dtype=np.int64),
            "entry": np.asarray([self.entry]),
        }

    @classmethod
    def from_payload(cls, payload, contracts, path=None):
        """Rebuild a plan from :meth:`payload` output, for the entry
        point its ``entry`` record names, which one of *contracts*
        declares.  The columns stay the payload's arrays (no copy).

        Raises
        ------
        repro.robustness.errors.TraceFormatError
            If a record is missing or malformed, the payload was written
            under another :data:`PLAN_SCHEMA_VERSION`, its entry point
            is unknown, or a column is missing, undeclared, or of
            another dtype or length; ``field`` names the record or
            column.
        """
        for record in ("meta", "entry"):
            if record not in payload:
                raise TraceFormatError(
                    f"not a plan payload (no {record} record)",
                    path=path, field=record)
        meta = np.asarray(payload["meta"])
        if meta.shape != (3,) or meta.dtype != np.int64:
            raise TraceFormatError(
                f"plan meta record has dtype {meta.dtype} shape"
                f" {meta.shape}; expected int64 (3,)",
                path=path, field="meta")
        version, start, stop = (int(value) for value in meta)
        if version != PLAN_SCHEMA_VERSION:
            raise TraceFormatError(
                f"plan schema version mismatch: payload has {version},"
                f" library expects {PLAN_SCHEMA_VERSION}",
                path=path, field="meta")
        if start < 0 or stop < start:
            raise TraceFormatError(
                f"plan meta names an invalid region [{start}, {stop})",
                path=path, field="meta")
        names = np.asarray(payload["entry"])
        entry = str(names[0]) if names.shape == (1,) else None
        contract = next((contract for contract in contracts
                         if entry in contract["entries"]), None)
        if contract is None:
            raise TraceFormatError(
                f"plan payload names no known entry point: {names!r}",
                path=path, field="entry")
        columns = {name: array for name, array in payload.items()
                   if name not in ("meta", "entry")}
        return cls(contract, entry, start, stop, columns, path=path)


def memoised_plan(annotated, key, build):
    """The plan memoised on *annotated* under *key*, from ``build()``
    on first use.

    Every plan of an annotated trace lives in this one memo and dies
    with it; a key starts with the name of the entry point the plan
    feeds.
    """
    memo = getattr(annotated, "_plans", None)
    if memo is None:
        memo = annotated._plans = {}
    plan = memo.get(key)
    if plan is None:
        plan = memo[key] = build()
    return plan


def opcode_defines():
    """``OP_<name>`` for every :class:`OpClass`, as :func:`render_header`
    takes its defines."""
    return {f"OP_{op.name}": int(op) for op in OpClass}


def render_header(defines, structs, entries):
    """The C header a kernel compiles against: *defines* (``{name:
    int}``) as ``#define`` lines, each of *structs* (``{C name:
    ctypes.Structure subclass}``, in declaration order) as a ``typedef
    struct`` with the same fields in the same order, then a prototype
    for each of *entries* (a contract literal's ``entries``), so the
    compiler rejects a definition that disagrees with its declaration.

    A pure function of its arguments: it builds and imports nothing.

    Raises
    ------
    repro.robustness.errors.InternalError
        If a field has a type with no C spelling here.
    """
    names = {struct: name for name, struct in structs.items()}
    lines = ["#include <stdint.h>", ""]
    lines += [f"#define {name} {value}" for name, value in defines.items()]
    for name, struct in structs.items():
        lines += ["", "typedef struct {"]
        lines += [f"    {_c_declaration(field, ctype, names)};"
                  for field, ctype in struct._fields_]
        lines.append(f"}} {name};")
    for name, declaration in entries.items():
        lines += ["", f"{declaration['returns']} {name}("]
        lines.append(",\n".join(
            f"    {param.ctype}{'' if param.element else ' '}{param.name}"
            for param in params(declaration)) + ");")
    return "\n".join(lines) + "\n"


def _c_declaration(name, ctype, structs):
    """The C declaration of a field *name* of ctypes type *ctype*."""
    if issubclass(ctype, ctypes.Array):
        return _c_declaration(f"{name}[{ctype._length_}]", ctype._type_,
                              structs)
    spelling = structs.get(ctype) or _C_TYPES.get(ctype)
    if spelling is None:
        raise InternalError(f"field {name!r}: no C spelling for {ctype}")
    return f"{spelling} {name}"


def contract_bound(form, symbols):
    """Evaluate a kernel-contract bound over *symbols* (``{name:
    int}``): an ``int``, a symbol's name, or ``[symbol, offset]`` or
    ``[symbol, offset, scale]`` for ``scale * symbol + offset``.

    Raises
    ------
    repro.robustness.errors.InternalError
        If the bound names a symbol *symbols* lacks.
    """
    if isinstance(form, int):
        return form
    symbol, offset, *scale = [form, 0] if isinstance(form, str) else form
    if symbol not in symbols:
        raise InternalError(f"unknown contract bound symbol {symbol!r}")
    return symbols[symbol] * (scale[0] if scale else 1) + offset


#: Set by :func:`pin_kernel_threads`: this process's kernel calls stay
#: on the calling thread.
_pinned = False


def _affinity():
    """The CPUs the calling thread may run on, in order, or ``None``
    where the platform has no affinity mask."""
    try:
        return sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return None


def effective_cpus():
    """CPUs the scheduler will actually give us (affinity-aware)."""
    cpus = _affinity()
    return len(cpus) if cpus else os.cpu_count() or 1


def pin_kernel_threads():
    """Run every later kernel batch of this process on the calling thread.

    Pool workers call this: the pool already runs one process per job.
    """
    global _pinned
    _pinned = True


def run_slices(run, count):
    """Call ``run(lo, hi)`` on one contiguous slice of ``range(count)``
    per usable CPU, at the same time; returns their values in slice order.

    ``min(effective_cpus(), count)`` slices (one when pinned): the
    calling thread runs the first and helper threads the rest, each
    held on its own CPU of the affinity mask while its slice runs (left
    alone, the scheduler can keep two new threads on one CPU for a
    whole batch).  Every helper is joined before this returns or
    raises, so no thread outlives the call; a helper's exception is
    re-raised after the joins.
    """
    threads = min(count, 1 if _pinned else effective_cpus())
    if threads <= 1:
        return [run(0, count)] if count else []
    bounds = [(count * i // threads, count * (i + 1) // threads)
              for i in range(threads)]
    cpus = _affinity()
    values = [None] * threads
    errors = []

    def run_held(index):
        with _held_on(cpus[index % len(cpus)] if cpus else None):
            values[index] = run(*bounds[index])

    def helper(index, done):
        try:
            run_held(index)
        except BaseException as error:  # re-raised in the calling thread
            errors.append(error)
        finally:
            done.set()

    helpers = []
    try:
        for index in range(1, threads):
            done = threading.Event()
            thread = threading.Thread(target=helper, args=(index, done))
            # Listed before it starts: a signal handler can raise
            # inside start() once the thread already runs.
            helpers.append((thread, done))
            try:
                thread.start()
            except RuntimeError:  # no thread was created
                helpers.pop()
                raise
        run_held(0)
    finally:
        _join_all(helpers)
    if errors:
        raise errors[0]
    return values


@contextlib.contextmanager
def _held_on(cpu):
    """Hold the calling thread on *cpu* for the body, then give it its
    mask back.  Best effort: with ``None`` or a refused mask the body
    runs wherever the scheduler puts it."""
    saved = _affinity() if cpu is not None else None
    try:
        if saved:
            with contextlib.suppress(OSError):
                os.sched_setaffinity(0, {cpu})
        yield
    finally:
        if saved:
            with contextlib.suppress(OSError):
                os.sched_setaffinity(0, saved)


def _join_all(helpers):
    """Join every ``(thread, done)`` helper, even when a signal handler
    raises meanwhile (a SIGALRM deadline); the first such exception is
    re-raised once all of them have finished.

    The wait is on each helper's *done* event, which a retry can wait
    on again: an interrupted ``Thread.join`` can mark a thread that is
    still running as stopped (CPython 3.11).
    """
    pending = None
    for _, done in helpers:
        while not done.is_set():
            try:
                done.wait()
            except BaseException as error:  # re-raised below
                pending = pending or error
    for thread, _ in helpers:
        thread.join()  # its slice is done; this only waits for its exit
    if pending is not None:
        raise pending


def _build_dir():
    """The directory the compiled objects live in.

    Raises
    ------
    repro.robustness.errors.InternalError
        If ``REPRO_KERNEL_DIR`` is empty (kernels disabled), names a
        directory that cannot be created, or no default candidate is
        writable.
    """
    override = os.environ.get("REPRO_KERNEL_DIR")
    if override is not None:
        if not override.strip():
            raise InternalError(
                "compiled kernels disabled (REPRO_KERNEL_DIR is empty)"
            )
        try:
            os.makedirs(override, exist_ok=True)
        except OSError as error:
            raise InternalError(
                f"cannot create REPRO_KERNEL_DIR {override!r}: {error}"
            ) from error
        return override
    candidates = [
        os.path.join(os.path.dirname(__file__), "_build"),
        os.path.join(tempfile.gettempdir(), "repro-kernel"),
    ]
    for candidate in candidates:
        try:
            os.makedirs(candidate, exist_ok=True)
            probe = os.path.join(candidate, f".probe-{os.getpid()}")
            with open(probe, "w"):  # reprolint: disable=atomic-writes
                pass  # an empty writability probe, not a data write
            os.unlink(probe)
            return candidate
        except OSError:
            continue
    raise InternalError("no writable directory for the kernel object")


def _compiler():
    return os.environ.get("CC") or shutil.which("cc") or shutil.which("gcc")


def translation_unit(source_path, header):
    """The C text a kernel compiles as: its rendered *header*, then the
    source at *source_path*, whose lines keep their own numbers in
    compiler diagnostics."""
    with open(source_path) as fh:
        return f'{header}#line 1 "{source_path}"\n{fh.read()}'


def _compile(source_path, header):
    """Compile *header* and *source_path* as one translation unit
    (unless already built); return the ``.so`` path.

    Raises
    ------
    repro.robustness.errors.InternalError
        If there is no compiler or build directory, or compilation fails.
    """
    cc = _compiler()
    if cc is None:
        raise InternalError("no C compiler found (set CC or install cc)")
    directory = _build_dir()
    unit = translation_unit(source_path, header)
    digest = hashlib.sha1(unit.encode()).hexdigest()[:16]
    stem = os.path.splitext(os.path.basename(source_path))[0]
    so_path = os.path.join(directory, f"{stem}-{digest}.so")
    if os.path.exists(so_path):
        return so_path
    tmp_path = os.path.join(directory, f".{os.getpid()}-{digest}.so.tmp")
    try:
        subprocess.run(
            [cc, "-O2", "-fPIC", "-shared", "-o", tmp_path, "-x", "c", "-"],
            input=unit,
            check=True,
            capture_output=True,
            text=True,
        )
        os.replace(tmp_path, so_path)  # atomic: workers race benignly
    except subprocess.CalledProcessError as error:
        raise InternalError(
            f"kernel compilation failed: {error.stderr}"
        ) from error
    finally:
        if os.path.exists(tmp_path):
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
    return so_path


class _Outside(Exception):
    """Why arguments lie outside an entry point's declaration."""


class KernelLoader:
    """One C kernel, built and bound on first use, probed once per process.

    *contract* is the kernel's contract literal: the boxes of its
    ``symbols``, its ``entries`` (each entry point's return type and
    :class:`Param` rows, in order) and the field ranges of its
    ``structs``.  *defines* returns the header's ``#define``s and
    *structs* maps each struct's C name to its ctypes class; the build
    compiles :meth:`header` ahead of the source.  The probe is safe for
    concurrent first use: a thread that arrives during another's build
    waits for its outcome.
    """

    def __init__(self, name, source_path, contract, defines, structs):
        self.name = name
        self.source_path = source_path
        self.contract = contract
        self.defines = defines
        self.structs = structs
        self._params = {entry: params(declaration)
                        for entry, declaration in contract["entries"].items()}
        names = {struct: key for key, struct in structs.items()}
        self._nested = {
            key: [(field, names[ctype]) for field, ctype in struct._fields_
                  if ctype in names]
            for key, struct in structs.items()
        }
        self._define_values = None
        self._field_ranges = {}
        self._remembered = {}
        self._lock = threading.Lock()
        self.probed = False
        self.functions = None
        self.failure = None

    def header(self):
        """The kernel's rendered header (see :func:`render_header`)."""
        return render_header(self.defines(), self.structs,
                             self.contract["entries"])

    def bind(self, library):
        """Wire each declared entry point of *library* (its ``argtypes``
        and ``restype``); returns ``{entry: function}``."""
        functions = {}
        for entry, declaration in self.contract["entries"].items():
            function = getattr(library, entry)
            function.restype = _SCALARS[declaration["returns"]]
            function.argtypes = [self._argtype(param)
                                 for param in self._params[entry]]
            functions[entry] = function
        return functions

    def _argtype(self, param):
        """The ctypes type *param* crosses as: a scalar as itself, a
        struct pointer as a pointer to its ctypes class, a column as an
        address."""
        if param.element is None:
            return _SCALARS[param.ctype]
        if param.element in self.structs:
            return ctypes.POINTER(self.structs[param.element])
        return ctypes.c_void_p

    def available(self):
        """Can the kernel be used in this process?  Probes (and builds)
        on the first call; the outcome is cached either way."""
        if not self.probed:
            with self._lock:
                if not self.probed:
                    try:
                        self.functions = self.bind(ctypes.CDLL(
                            _compile(self.source_path, self.header())
                        ))
                    except Exception as error:  # fail-soft: callers fall back
                        self.functions = None
                        self.failure = error
                    self.probed = True  # published last, once settled
        return self.functions is not None

    def error(self):
        """Why the kernel is unavailable (``None`` when it loaded fine)."""
        self.available()
        return self.failure

    def require(self):
        """The bound entry points, ``{entry: function}``.

        Raises
        ------
        repro.robustness.errors.InternalError
            If the kernel is unavailable; callers must check
            :meth:`available` first.
        """
        if not self.available():
            raise InternalError(
                f"compiled {self.name} kernel unavailable: {self.failure}"
            )
        return self.functions

    def struct(self, name, **fields):
        """The *name* struct (its C name) holding *fields*.

        ctypes stores an integer its field cannot hold modulo the
        field's width, silently, and every range check would then read
        the wrapped value; a field that does not read back as given is
        refused here instead.

        Raises
        ------
        repro.robustness.errors.InternalError
            If a value does not fit its field's C type.
        """
        value = self.structs[name](**fields)
        for field, given in fields.items():
            if getattr(value, field) != given:
                raise InternalError(
                    f"{self.name} kernel input outside its contract:"
                    f" {name}.{field} = {given!r} does not fit its C type"
                )
        return value

    def violation(self, entry, args):
        """Why *args* lie outside *entry*'s declaration, or ``None``.

        *args* maps parameter names to values and may name only some
        parameters: each one named is checked, a scalar against its
        symbol's box, a column's dtype, length and (unless the kernel
        only writes it) values, a struct's type, length and declared
        field ranges.  Lengths and bounds name the scalars in *args* or
        the header's defines.
        """
        try:
            self._arguments(entry, args)
        except _Outside as outside:
            return str(outside)
        return None

    def call(self, entry, args, slices=None):
        """Call *entry* with *args*, a value for every parameter, once
        they pass the contract check; returns its C return value.

        With *slices*, the name of a scalar that sizes struct arrays,
        the call is cut into one call per usable CPU
        (:func:`run_slices`), and the list of return values comes back.
        The slices interleave: with *k* of them, each gets every *k*-th
        struct, so a batch ordered by cost (a grid sorted by window
        size) still splits its cost evenly.  The struct arrays are
        permuted into that order for the calls and the ones the kernel
        writes are scattered back.  The check runs once, on the whole
        batch.

        Raises
        ------
        repro.robustness.errors.InternalError
            If the kernel is unavailable or *args* lie outside the
            declaration.
        """
        function = self.require()[entry]
        try:
            arguments = self._arguments(entry, args, complete=True)
        except _Outside as outside:
            raise InternalError(
                f"{self.name} kernel input outside its contract: {outside}"
            ) from None
        # A column crosses as its address; `arguments` keeps each
        # checked array alive until the call returns.
        addresses = [argument.ctypes.data
                     if isinstance(argument, np.ndarray) else argument
                     for argument in arguments]
        if slices is None:
            return function(*addresses)
        declared = self._params[entry]
        count = args[slices]
        threads = min(count, 1 if _pinned else effective_cpus())
        batch = {param.name: args[param.name] for param in declared
                 if param.length == slices}
        order = _interleaved(count, threads)
        if threads > 1:
            batch = {name: type(array)(*[array[k] for k in order])
                     for name, array in batch.items()}
        position = [param.name for param in declared].index(slices)

        def run_slice(lo, hi):
            sliced = list(addresses)
            sliced[position] = hi - lo
            for index, param in enumerate(declared):
                if param.name in batch:
                    sliced[index] = ctypes.byref(batch[param.name][lo])
            return function(*sliced)

        values = run_slices(run_slice, count)
        if threads > 1:
            for param in declared:
                if param.name in batch and not param.ctype.startswith(
                        "const "):
                    for slot, k in enumerate(order):
                        args[param.name][k] = batch[param.name][slot]
        return values

    def _arguments(self, entry, args, complete=False):
        """The C arguments of *entry* for *args*, in declared order (a
        column as its checked array).

        Raises
        ------
        _Outside
            If an argument lies outside the declaration, or one is
            missing when *complete*.
        """
        declared = self._params[entry]
        if complete:
            missing = [param.name for param in declared
                       if param.name not in args]
            if missing:
                raise _Outside(f"no argument for {', '.join(missing)}")
        if self._define_values is None:
            self._define_values = self.defines()
        symbols = dict(self._define_values)
        for param in declared:
            if param.element is None and param.name in args:
                value = args[param.name]
                lo, hi = self.contract["symbols"][param.name]
                if not isinstance(value, numbers.Integral) or not (
                        lo <= value <= hi):
                    raise _Outside(f"size {param.name} = {value!r}"
                                   f" outside [{lo}, {hi}]")
                symbols[param.name] = int(value)
        arguments = []
        for param in declared:
            if param.name not in args:
                arguments.append(None)
            elif param.element is None:
                arguments.append(symbols[param.name])
            elif param.element in self.structs:
                arguments.append(self._struct_argument(
                    param, args[param.name], symbols))
            else:
                arguments.append(_column_argument(
                    param, args[param.name], symbols, self._remembered))
        return arguments

    def _struct_argument(self, param, value, symbols):
        """*value* for the struct pointer *param*, once its type, length
        and fields pass the checks."""
        struct = self.structs[param.element]
        if param.length is None:
            if type(value) is not struct:
                raise _Outside(f"{param.name} is not a {param.element}")
            self._check_structs(param.element, [value], symbols)
            return ctypes.byref(value)
        length = contract_bound(param.length, symbols)
        if not (isinstance(value, ctypes.Array) and value._type_ is struct
                and len(value) == length):
            raise _Outside(f"{param.name} is not {length}"
                           f" {param.element} structs")
        self._check_structs(param.element, value, symbols)
        return value

    def _check_structs(self, name, values, symbols):
        """Check each struct of *values* (C type *name*), and each
        struct inside them, against the contract's field ranges."""
        ranges = self._ranges(name, symbols)
        for value in values:
            for field, lo, hi in ranges:
                field_value = getattr(value, field)
                if not lo <= field_value <= hi:
                    raise _Outside(f"{name}.{field} = {field_value}"
                                   f" outside [{lo}, {hi}]")
        for field, nested in self._nested[name]:
            self._check_structs(nested, [getattr(value, field)
                                         for value in values], symbols)

    def _ranges(self, name, symbols):
        """``[(field, lo, hi)]`` of the *name* struct's contracted
        fields.  Bounds that name no symbol are resolved once per
        loader; the rest on each call, over *symbols*."""
        ranges = self._field_ranges.get(name)
        if ranges is None:
            groups = self.contract["structs"].get(name, ())
            ranges = [(field, contract_bound(lo, symbols),
                       contract_bound(hi, symbols))
                      for (lo, hi), fields in groups for field in fields]
            if all(isinstance(bound, int)
                   for bounds, _ in groups for bound in bounds):
                self._field_ranges[name] = ranges
        return ranges


def _interleaved(count, slices):
    """The order that gives each of *slices* contiguous slices of a
    batch of *count* (cut as :func:`run_slices` cuts it) every
    *slices*-th item: the indices ``i, i + slices, ...`` of slice ``i``,
    slice after slice.  The larger groups go to the larger slices."""
    if slices <= 1:
        return list(range(count))
    groups = [list(range(first, count, slices)) for first in range(slices)]
    sizes = [count * (i + 1) // slices - count * i // slices
             for i in range(slices)]
    large = iter(group for group in groups if len(group) > count // slices)
    small = iter(group for group in groups if len(group) == count // slices)
    order = []
    for size in sizes:
        order += next(large if size > count // slices else small)
    return order


def _column_argument(param, value, symbols, remembered):
    """Column *value* as the contiguous array C reads, once it passes
    *param*'s checks.

    The value range of a read-only column is scanned once: *remembered*
    keeps its ``(min, max)``, keyed on its identity, for as long as it
    lives.  A writable column is scanned on every call, since it may
    change in place between them.
    """
    dtype = _ELEMENTS[param.element]
    if not isinstance(value, np.ndarray):
        raise _Outside(f"column {param.name!r} is not an array")
    array = crossing(value, dtype)
    if array.dtype != dtype:
        raise _Outside(f"column {param.name!r} has dtype {array.dtype},"
                       f" not {dtype}")
    if param.ctype.startswith("const "):
        array = np.ascontiguousarray(array)
    elif not (array.flags.c_contiguous and array.flags.writeable):
        raise _Outside(f"column {param.name!r} is not one writable row")
    length = contract_bound(param.length, symbols)
    if array.shape != (length,):
        raise _Outside(f"column {param.name!r} has shape {array.shape},"
                       f" not ({length},)")
    if not param.out and length:
        vmin, vmax = _column_extremes(value, array, remembered)
        lo = contract_bound(param.lo, symbols)
        hi = contract_bound(param.hi, symbols)
        if vmin < lo or vmax > hi:
            raise _Outside(f"column {param.name!r} spans [{vmin}, {vmax}],"
                           f" outside [{lo}, {hi}]")
    return array


def _column_extremes(value, array, remembered):
    """``(min, max)`` of *array*, the crossing of column *value*: from
    *remembered* when *value* is read-only and was scanned before."""
    if value.flags.writeable:
        return _extremes(array)
    key = id(value)
    known = remembered.get(key)
    if known is not None and known[0]() is value:
        return known[1]
    found = _extremes(array)
    # The entry leaves with the column, before its id can be reused.
    remembered[key] = (weakref.ref(value, lambda _, key=key:
                                   remembered.pop(key, None)), found)
    return found


def _extremes(array):
    """``(min, max)`` of a non-empty *array*, as Python ints."""
    return int(array.min()), int(array.max())
