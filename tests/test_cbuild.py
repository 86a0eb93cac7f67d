"""The shared kernel loader (:mod:`repro.cbuild`): the rendered headers
and the translation units they make, the one declaration of each entry
point and the contract check every call passes, ``REPRO_KERNEL_DIR``
and the slice runner the kernel drivers share."""

import ctypes
import pathlib
import re
import subprocess
import threading
import types

import numpy as np
import pytest

from repro import cbuild
from repro.core import ckernel
from repro.cyclesim import ckernel as cycle_ckernel
from repro.lint.certify import cparse
from repro.robustness.errors import InternalError, SimulationError
from repro.trace import ckernel as annotate_ckernel
from repro.workloads import ckernel as generate_ckernel

#: The four kernel loaders: MLPsim, cyclesim, annotation and generation.
KERNELS = (ckernel, cycle_ckernel, annotate_ckernel, generate_ckernel)

#: Every C entry point, with the driver whose loader declares it.
ENTRY_POINTS = (
    (ckernel, "mlpsim_batch"),
    (cycle_ckernel, "cyclesim_batch"),
    (annotate_ckernel, "annotate_front"),
    (annotate_ckernel, "annotate_back"),
    (annotate_ckernel, "annotate_rename"),
    (generate_ckernel, "generate"),
)

#: The ctypes type each C scalar parameter or return type crosses as
#: (``None`` is ctypes' restype for ``void``).
_SCALARS = {"int64_t": ctypes.c_int64, "int": ctypes.c_int, "void": None}

needs_cc = pytest.mark.skipif(
    cbuild._compiler() is None, reason="no C compiler"
)


def _syntax_check(unit):
    """``cc -Wall -Werror -fsyntax-only`` over *unit*: ``(ok, stderr)``."""
    done = subprocess.run(
        [cbuild._compiler(), "-Wall", "-Werror", "-fsyntax-only",
         "-x", "c", "-"],
        input=unit, capture_output=True, text=True,
    )
    return done.returncode == 0, done.stderr


@needs_cc
@pytest.mark.parametrize("module", KERNELS)
def test_unit_compiles_and_a_second_copy_of_a_shared_name_fails(module):
    """The unit cbuild compiles is warning-free, and a ``.c`` file that
    defines a header name again no longer compiles: a macro
    redefinition is a warning, which ``-Werror`` makes an error."""
    loader = module._loader
    unit = cbuild.translation_unit(loader.source_path, loader.header())
    ok, errors = _syntax_check(unit)
    assert ok, errors
    source_start = f'#line 1 "{loader.source_path}"\n'
    assert unit.count(source_start) == 1
    ok, errors = _syntax_check(
        unit.replace(source_start, source_start + "#define OP_LOAD 9\n"))
    assert not ok
    assert "OP_LOAD" in errors and "redefined" in errors


def _spelled(ctype):
    """C text with its whitespace normalised: ``"const int8_t *"``."""
    return " ".join(ctype.replace("*", " * ").split())


def _definition(source, entry):
    """The match of *entry*'s definition; group 1 is its parameters."""
    return re.search(rf"\b{entry}\(([^)]*)\)\s*{{", source)


@needs_cc
@pytest.mark.parametrize("module", KERNELS)
def test_a_definition_that_disagrees_with_its_declaration_fails(
        tmp_path, module):
    """The header carries each entry point's prototype, rendered from
    its declaration, so a ``.c`` definition whose pointer parameter
    points to another type no longer compiles."""
    loader = module._loader
    entry, declaration = next(iter(loader.contract["entries"].items()))
    param = next(param for param in cbuild.params(declaration)
                 if param.element in cbuild._ELEMENTS)
    source = pathlib.Path(loader.source_path).read_text()
    definition = _definition(source, entry)
    start, end = definition.span(1)
    spelled = f"{param.ctype}{param.name}"
    assert spelled in source[start:end]
    other = "int32_t" if param.element == "int64_t" else "int64_t"
    retyped = param.ctype.replace(param.element, other) + param.name
    retyped_source = (source[:start]
                      + source[start:end].replace(spelled, retyped)
                      + source[end:])
    copy = tmp_path / pathlib.Path(loader.source_path).name
    # A throwaway copy: torn-write durability is irrelevant.
    copy.write_text(retyped_source)  # reprolint: disable=atomic-writes
    ok, errors = _syntax_check(
        cbuild.translation_unit(str(copy), loader.header()))
    assert not ok
    assert "conflicting types" in errors, errors


def test_a_changed_header_changes_the_object_path(tmp_path, monkeypatch):
    """The object is keyed on header and source together, so an edit
    made only on the Python side never loads the object built before
    it.  (The compiler is a stub that writes an empty object.)"""
    monkeypatch.setenv("REPRO_KERNEL_DIR", str(tmp_path))
    monkeypatch.setattr(cbuild, "_compiler", lambda: "cc")

    def compile_stub(args, **kwargs):
        pathlib.Path(args[args.index("-o") + 1]).touch()

    monkeypatch.setattr(cbuild.subprocess, "run", compile_stub)
    loader = annotate_ckernel._loader
    header = loader.header()
    built = cbuild._compile(loader.source_path, header)
    assert cbuild._compile(loader.source_path, header) == built
    edited = header.replace("#define BTB_WAYS 4", "#define BTB_WAYS 8")
    assert edited != header
    rebuilt = cbuild._compile(loader.source_path, edited)
    assert rebuilt != built
    assert sorted(p.name for p in tmp_path.glob("*.so")) == sorted(
        pathlib.Path(path).name for path in (built, rebuilt))


def _points_to(argtype, struct):
    """Is *argtype* ``POINTER(S)`` for a ctypes structure ``S`` with the
    fields of the C *struct*, in order?"""
    target = getattr(argtype, "_type_", None)
    return (struct is not None and isinstance(target, type)
            and issubclass(target, ctypes.Structure)
            and [name for name, _ in target._fields_]
            == [field.name for field in struct.fields])


def _definition_types(source, entry):
    """Each parameter's C type as *entry*'s definition spells it, const
    and pointer included."""
    return [_spelled(param).rsplit(" ", 1)[0]
            for param in _definition(source, entry).group(1).split(",")]


@pytest.mark.parametrize("module, entry", ENTRY_POINTS,
                         ids=[entry for _, entry in ENTRY_POINTS])
def test_entry_point_wiring_matches_the_c_definition(module, entry):
    """Each loader wires an entry point's ``argtypes``/``restype`` from
    its one declaration, and the declaration agrees with the C
    definition, read from the header plus the source: the same
    parameters in order, each with the type the definition spells
    (pointee and ``const`` included), a pointer for each pointer,
    ``c_int64`` for each ``int64_t`` and ``c_int`` for each ``int``.
    The loader binds a stub library, so no compiler is needed."""
    loader = module._loader
    library = types.SimpleNamespace(**{
        name: types.SimpleNamespace() for name in loader.contract["entries"]})
    wired = loader.bind(library)[entry]
    declaration = loader.contract["entries"][entry]
    declared = cbuild.params(declaration)
    source = pathlib.Path(loader.source_path).read_text()
    unit = cparse.parse_c_unit(loader.header(), source)
    structs = unit.structs
    function = unit.functions[entry]
    assert [param.name for param in declared] == [
        name for name, _, _ in function.params]
    assert [_spelled(param.ctype) for param in declared] == \
        _definition_types(source, entry)
    assert declaration["returns"] == function.return_type
    assert len(wired.argtypes) == len(function.params)
    for argtype, (name, base, ptr) in zip(wired.argtypes, function.params):
        if ptr:
            assert (argtype is ctypes.c_void_p
                    or _points_to(argtype, structs.get(base))), name
        else:
            assert argtype is _SCALARS[base], name
    assert wired.restype is _SCALARS[function.return_type]


class _StubFunction:
    """A C entry point stand-in that records each call it gets, and
    hands its arguments to *record* if given."""

    def __init__(self, calls, name, record=None):
        self.calls = calls
        self.name = name
        self.record = record

    def __call__(self, *args):
        self.calls.append(self.name)
        if self.record is not None:
            self.record(*args)
        return 0


def _stubbed(monkeypatch, loader, record=None):
    """Bind *loader* to stand-in entry points; returns the list each
    call appends its entry's name to."""
    calls = []
    library = types.SimpleNamespace(**{
        name: _StubFunction(calls, name, record)
        for name in loader.contract["entries"]})
    monkeypatch.setattr(loader, "functions", loader.bind(library))
    monkeypatch.setattr(loader, "probed", True)
    return calls


def _lowest(loader, name, symbols):
    """A *name* struct with every contracted field at its lower bound."""
    struct = loader.structs[name]()
    for (lo, _), fields in loader.contract["structs"].get(name, ()):
        for field in fields:
            setattr(struct, field, cbuild.contract_bound(lo, symbols))
    names = {cls: key for key, cls in loader.structs.items()}
    for field, ctype in type(struct)._fields_:
        if ctype in names:
            setattr(struct, field, _lowest(loader, names[ctype], symbols))
    return struct


def _inside(loader, entry):
    """Arguments inside *entry*'s declaration: each size 3 where its box
    allows, each column of its declared dtype at its lower bound, each
    struct with its fields at theirs."""
    declared = cbuild.params(loader.contract["entries"][entry])
    args = {}
    for param in declared:
        if param.element is None:
            lo, hi = loader.contract["symbols"][param.name]
            args[param.name] = min(max(3, lo), hi)
    symbols = {**loader.defines(), **args}
    for param in declared:
        if param.element in cbuild._ELEMENTS:
            args[param.name] = np.full(
                cbuild.contract_bound(param.length, symbols),
                cbuild.contract_bound(param.lo, symbols),
                dtype=cbuild._ELEMENTS[param.element])
        elif param.element in loader.structs and param.length is None:
            args[param.name] = _lowest(loader, param.element, symbols)
        elif param.element in loader.structs:
            count = cbuild.contract_bound(param.length, symbols)
            args[param.name] = (loader.structs[param.element] * count)(
                *[_lowest(loader, param.element, symbols)
                  for _ in range(count)])
    return args, symbols


@pytest.mark.parametrize("module, entry", ENTRY_POINTS,
                         ids=[entry for _, entry in ENTRY_POINTS])
def test_out_of_contract_columns_never_reach_the_kernel(monkeypatch,
                                                        module, entry):
    """The loader reaches an entry point only through its contract
    check: a column of the wrong dtype, of the wrong length or holding
    a value out of range raises, and the stub library records no call;
    arguments inside the declaration make exactly one call."""
    loader = module._loader
    calls = _stubbed(monkeypatch, loader)
    args, symbols = _inside(loader, entry)
    loader.call(entry, args)
    assert calls == [entry]
    calls.clear()
    param = next(
        param for param in cbuild.params(loader.contract["entries"][entry])
        if param.element in cbuild._ELEMENTS and not param.out
        and cbuild.contract_bound(param.hi, symbols) + 1
        <= np.iinfo(cbuild._ELEMENTS[param.element]).max)
    column = args[param.name]
    above = column.copy()
    above[0] = cbuild.contract_bound(param.hi, symbols) + 1
    other = np.int32 if column.dtype == np.int64 else np.int64
    for bad in (column.astype(other), column[:-1], above):
        with pytest.raises(InternalError, match="outside its contract"):
            loader.call(entry, {**args, param.name: bad})
    assert calls == []


def test_a_read_only_column_is_scanned_once(monkeypatch):
    """The call check scans a read-only column's values on its first
    call only, a writable column's on every call, and still refuses a
    read-only column outside its range on every call."""
    loader = cycle_ckernel._loader
    calls = _stubbed(monkeypatch, loader)
    monkeypatch.setattr(loader, "_remembered", {})
    scanned = []
    real = cbuild._extremes

    def counting(array):
        scanned.append(array.size)
        return real(array)

    monkeypatch.setattr(cbuild, "_extremes", counting)
    args, symbols = _inside(loader, "cyclesim_batch")
    columns = list(cbuild.column_dtypes(
        loader.contract["entries"]["cyclesim_batch"]))
    for name in columns:
        args[name] = args[name].copy()
        args[name].flags.writeable = False
    for _ in range(3):
        loader.call("cyclesim_batch", args)
    assert len(scanned) == len(columns)
    assert len(calls) == 3

    scanned.clear()
    writable = {**args, "ops": args["ops"].copy()}
    for _ in range(3):
        loader.call("cyclesim_batch", writable)
    assert len(scanned) == 3

    ops = next(param for param in cbuild.params(
        loader.contract["entries"]["cyclesim_batch"]) if param.name == "ops")
    above = args["ops"].copy()
    above[0] = cbuild.contract_bound(ops.hi, symbols) + 1
    above.flags.writeable = False
    calls.clear()
    for _ in range(2):
        with pytest.raises(InternalError, match="outside its contract"):
            loader.call("cyclesim_batch", {**args, "ops": above})
    assert calls == []


@pytest.mark.parametrize("cpus, count", [(1, 5), (2, 27), (3, 7), (4, 6),
                                         (8, 5)])
def test_slices_interleave_the_batch(monkeypatch, cpus, count):
    """A sliced call gives each thread every k-th struct of the batch,
    k the number of slices, and scatters what the kernel wrote back to
    each struct's own slot."""
    loader = cycle_ckernel._loader
    declared = [param.name for param in
                cbuild.params(loader.contract["entries"]["cyclesim_batch"])]
    at = {name: declared.index(name)
          for name in ("configs", "n_configs", "results")}
    seen = []

    def record(*args):
        size = args[at["n_configs"]]
        configs = ctypes.cast(args[at["configs"]],
                              ctypes.POINTER(cycle_ckernel._KernelConfig))
        results = ctypes.cast(args[at["results"]],
                              ctypes.POINTER(cycle_ckernel._KernelResult))
        seen.append([configs[k].rob for k in range(size)])
        for k in range(size):
            results[k].cycles = configs[k].rob

    _stubbed(monkeypatch, loader, record)
    monkeypatch.setattr(cbuild, "effective_cpus", lambda: cpus)
    args, _ = _inside(loader, "cyclesim_batch")
    args["n_configs"] = count
    args["configs"] = (cycle_ckernel._KernelConfig * count)(
        *[loader.struct("CycleConfig", **{**_fields(args["configs"][0]),
                                          "rob": index + 1})
          for index in range(count)])
    args["results"] = (cycle_ckernel._KernelResult * count)()
    loader.call("cyclesim_batch", args, slices="n_configs")
    slices = min(cpus, count)
    assert len(seen) == slices
    assert sorted(rob for call in seen for rob in call) == \
        list(range(1, count + 1))
    for call in seen:
        assert len({(rob - 1) % slices for rob in call}) == 1, seen
        assert call == sorted(call)
    assert [result.cycles for result in args["results"]] == \
        list(range(1, count + 1))


def _fields(struct):
    """``{field: value}`` of a ctypes struct of scalars."""
    return {name: getattr(struct, name) for name, _ in struct._fields_}


def _reprobe(monkeypatch, module):
    """Forget the cached probe so the next call builds afresh."""
    monkeypatch.setattr(module._loader, "probed", False)
    monkeypatch.setattr(module._loader, "functions", None)
    monkeypatch.setattr(module._loader, "failure", None)


@needs_cc
@pytest.mark.parametrize("module", KERNELS)
def test_missing_kernel_dir_is_created(tmp_path, monkeypatch, module):
    target = tmp_path / "a" / "b"
    monkeypatch.setenv("REPRO_KERNEL_DIR", str(target))
    _reprobe(monkeypatch, module)
    assert module.kernel_available(), module.kernel_error()
    assert list(target.glob("*.so"))


def test_uncreatable_kernel_dir_is_named(tmp_path, monkeypatch):
    blocker = tmp_path / "file"
    blocker.touch()  # a regular file: no directory can be made under it
    target = blocker / "sub"
    monkeypatch.setenv("REPRO_KERNEL_DIR", str(target))
    _reprobe(monkeypatch, ckernel)
    assert not ckernel.kernel_available()
    message = str(ckernel.kernel_error())
    assert str(target) in message


def test_empty_kernel_dir_disables_kernels(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_DIR", "")
    for module in KERNELS:
        _reprobe(monkeypatch, module)
        assert not module.kernel_available()
        assert "REPRO_KERNEL_DIR" in str(module.kernel_error())


@pytest.mark.parametrize("cpus, count, pinned, slices", [
    (3, 7, False, [(0, 2), (2, 4), (4, 7)]),
    (4, 2, False, [(0, 1), (1, 2)]),
    (4, 7, True, [(0, 7)]),
    (2, 0, False, []),
])
def test_run_slices_cuts_one_slice_per_cpu(monkeypatch, cpus, count,
                                           pinned, slices):
    """``min(usable CPUs, count)`` contiguous slices, values in slice
    order; one slice in a pinned process."""
    monkeypatch.setattr(cbuild, "effective_cpus", lambda: cpus)
    monkeypatch.setattr(cbuild, "_pinned", pinned)
    assert cbuild.run_slices(lambda lo, hi: (lo, hi), count) == slices


def test_run_slices_reraises_a_helper_failure(monkeypatch):
    """A slice that fails on a helper thread fails the call once every
    slice has run, and leaves no thread behind."""
    monkeypatch.setattr(cbuild, "effective_cpus", lambda: 3)
    ran = []

    def run(lo, hi):
        ran.append((lo, hi))
        if lo:
            raise SimulationError(f"slice at {lo}")
        return hi - lo

    before = threading.active_count()
    with pytest.raises(SimulationError, match="slice at"):
        cbuild.run_slices(run, 6)
    assert sorted(ran) == [(0, 2), (2, 4), (4, 6)]
    assert threading.active_count() == before


def test_concurrent_first_use_waits_for_the_build(monkeypatch):
    """A thread that calls a kernel while another thread is still
    building and binding it waits for that outcome instead of reading
    "unavailable"."""
    monkeypatch.setattr(cbuild, "_compile", lambda path, header: path)
    monkeypatch.setattr(cbuild.ctypes, "CDLL", lambda path: path)
    binding = threading.Event()
    release = threading.Event()

    def bind(lib):
        binding.set()
        release.wait(timeout=30)
        return lib

    loader = cbuild.KernelLoader("test", "kernel.c", {"entries": {}}, dict,
                                 {})
    monkeypatch.setattr(loader, "bind", bind)
    seen = []

    def first_use():
        seen.append(loader.available())

    builder = threading.Thread(target=first_use)
    builder.start()
    assert binding.wait(timeout=30)
    waiter = threading.Thread(target=first_use)
    waiter.start()
    waiter.join(timeout=0.2)  # a racing probe would have answered by now
    release.set()
    builder.join(timeout=30)
    waiter.join(timeout=30)
    assert not builder.is_alive() and not waiter.is_alive()
    assert seen == [True, True]
    assert loader.require() == "kernel.c"
