"""Synthetic commercial workloads.

The paper evaluates three proprietary traces: a database workload,
SPECjbb2000 and SPECweb99 (Section 4.2).  We cannot have those, so this
package synthesises traces with the *published* characteristics of each
workload — L2 miss rate, miss clustering, serializing-instruction
density, instruction footprint, software-prefetch usage, and the
dependence structure between misses — which are exactly the properties
the epoch model says determine MLP (see DESIGN.md for the substitution
argument).

Use :func:`get_workload` / :func:`generate_trace` for the standard
three, or instantiate the generator classes directly to explore
parameter variations.  The standard three generate through a compiled
kernel (:mod:`repro.workloads.ckernel`) that emits the same traces as
their Python generators, byte for byte.
"""

from repro.workloads.base import Emitter, SyntheticWorkload
from repro.workloads.database import DatabaseWorkload
from repro.workloads.specjbb import SpecJBBWorkload
from repro.workloads.specweb import SpecWebWorkload
from repro.workloads.streaming import StreamingWorkload
from repro.workloads.calibration import (
    CalibrationTargets,
    PAPER_TARGETS,
    check_calibration,
)
from repro.robustness.errors import ConfigError

#: The paper's three workloads, plus the scientific contrast case the
#: introduction draws (``streaming`` is not a paper benchmark).
WORKLOADS = {
    "database": DatabaseWorkload,
    "specjbb2000": SpecJBBWorkload,
    "specweb99": SpecWebWorkload,
    "streaming": StreamingWorkload,
}

#: The subset evaluated by the paper (exhibits iterate these).
PAPER_WORKLOADS = ("database", "specjbb2000", "specweb99")


def get_workload(name, seed=1234, **params):
    """Instantiate the named workload generator."""
    try:
        cls = WORKLOADS[name]
    except KeyError:
        raise ConfigError(
            f"unknown workload {name!r}; expected one of {sorted(WORKLOADS)}"
        ) from None
    return cls(seed=seed, **params)


def generate_trace(name, length, seed=1234, **params):
    """Generate a trace of ~*length* instructions for the named workload."""
    return get_workload(name, seed=seed, **params).generate(length)


__all__ = [
    "Emitter",
    "SyntheticWorkload",
    "DatabaseWorkload",
    "SpecJBBWorkload",
    "SpecWebWorkload",
    "StreamingWorkload",
    "PAPER_WORKLOADS",
    "CalibrationTargets",
    "PAPER_TARGETS",
    "check_calibration",
    "WORKLOADS",
    "get_workload",
    "generate_trace",
]
