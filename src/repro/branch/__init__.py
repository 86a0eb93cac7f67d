"""Branch-prediction substrate.

The paper's front end (Section 5.1): a 64K-entry gshare direction
predictor and a 16K-entry branch target buffer.  The paper's 16-entry
return address stack is not modelled: every branch, returns included,
is predicted by gshare and the BTB.  Mispredicted branches matter to
MLP only when they are *unresolvable* — dependent on a missing load —
in which case they terminate the epoch window (Section 3.2.4).
Perfect branch prediction (Figure 10's ``perfBP``) is a machine switch,
:attr:`repro.core.config.MachineConfig.perfect_branch`, not a predictor.
"""

from repro.branch.gshare import GshareGPredictor
from repro.branch.btb import BranchTargetBuffer
from repro.branch.frontend import BranchPredictor

__all__ = [
    "GshareGPredictor",
    "BranchTargetBuffer",
    "BranchPredictor",
]
