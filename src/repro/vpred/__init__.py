"""Value-prediction substrate (paper Section 5.5 / Table 6).

The paper evaluates a 16K-entry last-value predictor applied *only to
missing loads* — predicting the value of a load that left the chip lets
dependent missing loads issue in the same epoch.  Perfect value
prediction (the limit study of Section 5.6) is a machine switch,
:attr:`repro.core.config.MachineConfig.perfect_value`, not a predictor.
"""

from repro.vpred.last_value import LastValuePredictor

__all__ = [
    "LastValuePredictor",
]
