"""16K-entry last-value predictor for missing loads.

Indexed by load PC, tagged, each entry remembers the last value the load
produced together with a 2-bit confidence counter.  A prediction is made
only at high confidence; low-confidence lookups are "no predict", which
is how the paper's Table 6 splits outcomes into Correct / Wrong /
No Predict.

Because the predictor is consulted only for *missing* loads (Section 3.6
argues this "drastically reduces the size of the value predictor"), its
training stream is the miss stream, not every load.
"""

from repro.robustness.errors import ConfigError

#: The confidence a stored value needs before it is predicted.
CONFIDENCE_THRESHOLD = 2


class _Entry:
    __slots__ = ("tag", "value", "confidence")

    def __init__(self, tag, value):
        self.tag = tag
        self.value = value
        self.confidence = 1


class LastValuePredictor:
    """Direct-mapped, tagged last-value predictor with 2-bit confidence.

    Confidence policy: a matching value increments confidence (saturating
    at 3); a mismatch resets it to 0 and replaces the stored value.
    Predictions are issued when confidence >= :data:`CONFIDENCE_THRESHOLD`.
    Tag conflicts evict (direct-mapped).
    """

    def __init__(self, entries=16 * 1024):
        if entries & (entries - 1):
            raise ConfigError("value predictor size must be a power of two")
        self.entries = entries
        self._mask = entries - 1
        self._table = [None] * entries

    def _slot(self, pc):
        word = pc >> 2
        return word & self._mask, word >> (self.entries.bit_length() - 1)

    def predict(self, pc):
        """Return the predicted value for the load at *pc*, or None."""
        index, tag = self._slot(pc)
        entry = self._table[index]
        if entry is None or entry.tag != tag:
            return None
        if entry.confidence < CONFIDENCE_THRESHOLD:
            return None
        return entry.value

    def train(self, pc, value):
        """Record the actual *value* produced by the load at *pc*."""
        index, tag = self._slot(pc)
        entry = self._table[index]
        if entry is None or entry.tag != tag:
            self._table[index] = _Entry(tag, value)
            return
        if entry.value == value:
            if entry.confidence < 3:
                entry.confidence += 1
        else:
            entry.value = value
            entry.confidence = 0

    def observe(self, pc, value):
        """Predict-then-train for one missing load; return the outcome.

        Returns one of ``"correct"``, ``"wrong"`` or ``"no_predict"``,
        the paper's Table 6 split.
        """
        prediction = self.predict(pc)
        if prediction is None:
            outcome = "no_predict"
        elif prediction == value:
            outcome = "correct"
        else:
            outcome = "wrong"
        self.train(pc, value)
        return outcome
