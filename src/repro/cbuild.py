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
  struct layout) reaches it through a header rendered here from the
  Python definitions (:func:`render_header`), so no ``.c`` file keeps
  a copy that could drift;
* the object is keyed on the SHA-1 of the whole translation unit, the
  header and the source, so an edit on either side triggers a rebuild
  instead of loading a stale object;
* the build is atomic (temp file + ``os.replace``), so concurrent sweep
  workers race benignly;
* ``REPRO_KERNEL_DIR`` overrides the build directory (created if
  missing); setting it to an empty string disables all four kernels;
* each kernel is probed once per process, and a failure is cached and
  reported by :meth:`KernelLoader.error` rather than raised.

It also holds the process's one CPU count, :func:`effective_cpus`,
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
import os
import shutil
import subprocess
import tempfile
import threading

import numpy as np

from repro.isa.opclass import OpClass
from repro.robustness.errors import InternalError

#: C spellings of the ctypes scalar types a rendered struct may hold.
_C_TYPES = {ctypes.c_int64: "int64_t"}


def opcode_defines():
    """``OP_<name>`` for every :class:`OpClass`, as :func:`render_header`
    takes its defines."""
    return {f"OP_{op.name}": int(op) for op in OpClass}


def render_header(defines, structs):
    """The C header a kernel compiles against: *defines* (``{name:
    int}``) as ``#define`` lines, then each of *structs* (``{C name:
    ctypes.Structure subclass}``, in declaration order) as a ``typedef
    struct`` with the same fields in the same order.

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
    """Evaluate a kernel-contract bound, an ``int`` or a ``[symbol,
    offset]`` pair, over *symbols* (``{name: int}``).

    Raises
    ------
    repro.robustness.errors.InternalError
        If the bound names a symbol *symbols* lacks.
    """
    if isinstance(form, int):
        return form
    symbol, offset = form
    if symbol not in symbols:
        raise InternalError(f"unknown contract bound symbol {symbol!r}")
    return symbols[symbol] + offset


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


def c_column(array, dtype):
    """The column as a C-contiguous array of *dtype* without copying
    when the layout already matches (bool columns reinterpret as u8)."""
    if array.dtype == np.bool_ and dtype == np.uint8:
        array = array.view(np.uint8)
    return np.ascontiguousarray(array, dtype=dtype)


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


class KernelLoader:
    """One C kernel, built and bound on first use, probed once per process.

    *header* returns the kernel's rendered header (see
    :func:`render_header`), which the build compiles ahead of the
    source; *bind* receives the loaded :class:`ctypes.CDLL` and returns
    the wired entry point.  The probe is safe for concurrent first use:
    a thread that arrives during another's build waits for its outcome.
    """

    def __init__(self, name, source_path, bind, header):
        self.name = name
        self.source_path = source_path
        self._bind = bind
        self.header = header
        self._lock = threading.Lock()
        self.probed = False
        self.function = None
        self.failure = None

    def available(self):
        """Can the kernel be used in this process?  Probes (and builds)
        on the first call; the outcome is cached either way."""
        if not self.probed:
            with self._lock:
                if not self.probed:
                    try:
                        self.function = self._bind(ctypes.CDLL(
                            _compile(self.source_path, self.header())
                        ))
                    except Exception as error:  # fail-soft: callers fall back
                        self.function = None
                        self.failure = error
                    self.probed = True  # published last, once settled
        return self.function is not None

    def error(self):
        """Why the kernel is unavailable (``None`` when it loaded fine)."""
        self.available()
        return self.failure

    def require(self):
        """The bound entry point.

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
        return self.function
