"""The composed front-end branch predictor.

Combines gshare (direction) and the BTB (target) into the single
question the epoch model asks of every dynamic branch: *was it
mispredicted?*  A branch mispredicts when its predicted direction is
wrong, or when it is taken and the predicted target is absent or stale.
Returns are predicted like any other branch: no return-address stack is
modelled (DESIGN.md §7).
"""

from repro.branch.btb import BranchTargetBuffer
from repro.branch.gshare import GshareGPredictor


class BranchPredictor:
    """gshare + BTB front end (paper Section 5.1 geometry)."""

    def __init__(self, gshare_entries=64 * 1024, btb_entries=16 * 1024):
        self.direction = GshareGPredictor(entries=gshare_entries)
        self.btb = BranchTargetBuffer(entries=btb_entries)

    def observe(self, pc, taken, target):
        """Predict, train on the actual outcome, and return mispredicted?

        Parameters mirror the trace columns: *taken* and *target* are the
        branch's architectural outcome.
        """
        predicted_taken = self.direction.predict(pc)
        predicted_target = self.btb.lookup(pc)
        mispredicted = predicted_taken != taken or (
            taken and predicted_target != target)

        # Train.
        self.direction.update(pc, taken)
        if taken:
            self.btb.update(pc, target)

        return mispredicted
