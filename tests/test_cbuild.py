"""The shared kernel loader (:mod:`repro.cbuild`), ``REPRO_KERNEL_DIR``
and the slice runner the kernel drivers share."""

import threading

import pytest

from repro import cbuild
from repro.core import ckernel
from repro.cyclesim import ckernel as cycle_ckernel
from repro.robustness.errors import SimulationError
from repro.trace import ckernel as annotate_ckernel
from repro.workloads import ckernel as generate_ckernel

#: The four kernel loaders: MLPsim, cyclesim, annotation and generation.
KERNELS = (ckernel, cycle_ckernel, annotate_ckernel, generate_ckernel)

needs_cc = pytest.mark.skipif(
    cbuild._compiler() is None, reason="no C compiler"
)


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
    monkeypatch.setattr(cbuild, "_compile", lambda path: path)
    monkeypatch.setattr(cbuild.ctypes, "CDLL", lambda path: path)
    binding = threading.Event()
    release = threading.Event()

    def bind(lib):
        binding.set()
        release.wait(timeout=30)
        return lib

    loader = cbuild.KernelLoader("test", "kernel.c", bind, lambda: None)
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
