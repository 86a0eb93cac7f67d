"""The epoch model of MLP and MLPsim — the paper's primary contribution.

The epoch model (Section 3): under long off-chip latencies, execution
separates into *epochs* — on-chip computation followed by a batch of
off-chip accesses that issue and complete together.  Microarchitecture
choices impose *window termination conditions* bounding how many useful
off-chip accesses overlap in one epoch; MLP is the ratio of useful
off-chip accesses to epochs.

:class:`~repro.core.mlpsim.MLPSim` implements the model over an annotated
trace for out-of-order machines (issue configurations A-E of Table 2,
decoupled issue window / ROB, runahead execution, value prediction, and
the perfect-frontend switches of the limit study).  In-order stall-on-miss
and stall-on-use machines live in :mod:`repro.core.inorder`.
"""

from repro.core.config import (
    BranchPolicy,
    IssueConfig,
    LoadPolicy,
    MachineConfig,
    SerializePolicy,
)
from repro.core.epoch import Epoch
from repro.core.termination import Inhibitor
from repro.core.results import MLPResult
from repro.core.mlpsim import MLPSim, simulate
from repro.core.inorder import (
    InOrderPolicy,
    simulate_inorder,
    simulate_stall_on_miss,
    simulate_stall_on_use,
)
from repro.core.columnar import plan_for
from repro.core.limits import limit_configs
from repro.core.smt import (
    SMTResult,
    ThreadProfile,
    profile_from_result,
    profile_workload,
    simulate_smt,
)

__all__ = [
    "BranchPolicy",
    "IssueConfig",
    "LoadPolicy",
    "MachineConfig",
    "SerializePolicy",
    "Epoch",
    "Inhibitor",
    "MLPResult",
    "MLPSim",
    "simulate",
    "InOrderPolicy",
    "simulate_inorder",
    "simulate_stall_on_miss",
    "simulate_stall_on_use",
    "plan_for",
    "limit_configs",
    "SMTResult",
    "ThreadProfile",
    "profile_from_result",
    "profile_workload",
    "simulate_smt",
]
