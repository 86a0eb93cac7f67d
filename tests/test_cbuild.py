"""The shared kernel loader (:mod:`repro.cbuild`) and ``REPRO_KERNEL_DIR``."""

import pytest

from repro import cbuild
from repro.core import ckernel
from repro.cyclesim import ckernel as cycle_ckernel
from repro.trace import ckernel as annotate_ckernel

#: The three kernel loaders: MLPsim, cyclesim and annotation.
KERNELS = (ckernel, cycle_ckernel, annotate_ckernel)

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
