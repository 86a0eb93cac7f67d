"""Shared fixtures for the test suite.

Workload traces are expensive to generate and annotate, so the fixtures
are session-scoped and sized by ``REPRO_TEST_TRACE_LEN`` (default
120,000 instructions — enough for stable shape assertions, small enough
to keep the suite fast).
"""

import os

import pytest

from repro.core.config import MachineConfig
from repro.robustness.errors import InternalError
from repro.trace.annotate import annotate
from repro.workloads import generate_trace

TEST_TRACE_LEN = int(os.environ.get("REPRO_TEST_TRACE_LEN", "120000"))


@pytest.fixture(scope="session")
def trace_len():
    return TEST_TRACE_LEN


def _annotated(name):
    return annotate(generate_trace(name, TEST_TRACE_LEN))


@pytest.fixture(scope="session")
def database_annotated():
    return _annotated("database")


@pytest.fixture(scope="session")
def specjbb_annotated():
    return _annotated("specjbb2000")


@pytest.fixture(scope="session")
def specweb_annotated():
    return _annotated("specweb99")


@pytest.fixture(scope="session")
def all_annotated(database_annotated, specjbb_annotated, specweb_annotated):
    return {
        "database": database_annotated,
        "specjbb2000": specjbb_annotated,
        "specweb99": specweb_annotated,
    }


@pytest.fixture
def default_machine():
    return MachineConfig()  # the paper's 64C machine


def disable_kernels(monkeypatch):
    """Make all four compiled kernels unavailable, as on a host without
    ``cc``.

    The kernel entry points and the shared-memory plan path are patched
    to raise, so a no-kernel route that still reaches them fails.
    """
    import repro.analysis.shm as shm
    from repro.core import ckernel
    from repro.cyclesim import ckernel as cycle_ckernel
    from repro.trace import ckernel as annotate_ckernel
    from repro.workloads import ckernel as generate_ckernel

    def forbidden(*args, **kwargs):
        raise InternalError("kernel-only path reached without a kernel")

    for module in (ckernel, cycle_ckernel, annotate_ckernel,
                   generate_ckernel):
        monkeypatch.setattr(module._loader, "probed", True)
        monkeypatch.setattr(module._loader, "functions", None)
        monkeypatch.setattr(
            module._loader, "failure",
            InternalError("kernel disabled for test"),
        )
    monkeypatch.setattr(ckernel, "run_plan", forbidden)
    monkeypatch.setattr(cycle_ckernel, "run_cycle_plan", forbidden)
    monkeypatch.setattr(annotate_ckernel, "run_front_pass", forbidden)
    monkeypatch.setattr(annotate_ckernel, "run_back_pass", forbidden)
    monkeypatch.setattr(annotate_ckernel, "run_rename", forbidden)
    monkeypatch.setattr(generate_ckernel, "run_program", forbidden)
    monkeypatch.setattr(shm, "publish_plan", forbidden)


@pytest.fixture
def no_kernel(monkeypatch):
    """All four compiled kernels unavailable (see :func:`disable_kernels`)."""
    disable_kernels(monkeypatch)
