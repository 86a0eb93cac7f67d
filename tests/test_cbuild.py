"""The shared kernel loader (:mod:`repro.cbuild`): the rendered headers
and the translation units they make, ``REPRO_KERNEL_DIR`` and the
slice runner the kernel drivers share."""

import ctypes
import pathlib
import subprocess
import threading
import types

import pytest

from repro import cbuild
from repro.core import ckernel
from repro.cyclesim import ckernel as cycle_ckernel
from repro.lint.clang_parity import cparse
from repro.lint.clang_parity.cextract import extract_c
from repro.robustness.errors import SimulationError
from repro.trace import ckernel as annotate_ckernel
from repro.workloads import ckernel as generate_ckernel

#: The four kernel loaders: MLPsim, cyclesim, annotation and generation.
KERNELS = (ckernel, cycle_ckernel, annotate_ckernel, generate_ckernel)

#: Every C entry point, with the driver whose ``_bind`` wires it.
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


@pytest.mark.parametrize("module, entry", ENTRY_POINTS,
                         ids=[entry for _, entry in ENTRY_POINTS])
def test_entry_point_wiring_matches_the_c_definition(module, entry):
    """Each driver's ``argtypes``/``restype`` agree with the C
    definition's parameters, read by cparse from the header plus the
    source: the same count, a pointer for each pointer, ``c_int64`` for
    each ``int64_t`` and ``c_int`` for each ``int``.  The driver binds a
    stub library, so no compiler is needed."""
    library = types.SimpleNamespace(**{
        name: types.SimpleNamespace() for _, name in ENTRY_POINTS})
    module._bind(library)
    wired = getattr(library, entry)
    source = pathlib.Path(module._loader.source_path).read_text()
    structs = extract_c(source, extract_c(module._loader.header())).structs
    function = cparse.parse_c_unit(source, set(structs)).functions[entry]
    assert len(wired.argtypes) == len(function.params)
    for argtype, (name, base, ptr) in zip(wired.argtypes, function.params):
        if ptr:
            assert (argtype is ctypes.c_void_p
                    or _points_to(argtype, structs.get(base))), name
        else:
            assert argtype is _SCALARS[base], name
    assert wired.restype is _SCALARS[function.return_type]


def _reprobe(monkeypatch, module):
    """Forget the cached probe so the next call builds afresh."""
    monkeypatch.setattr(module._loader, "probed", False)
    monkeypatch.setattr(module._loader, "function", None)
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

    loader = cbuild.KernelLoader("test", "kernel.c", bind, lambda: "")
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
