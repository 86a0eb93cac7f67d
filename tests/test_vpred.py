"""Unit tests for the value predictors (Table 6 machinery)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vpred.last_value import LastValuePredictor


class TestLastValue:
    def test_confidence_ramp(self):
        p = LastValuePredictor(entries=256)
        pc = 0x100
        assert p.observe(pc, 7) == "no_predict"  # allocate (conf 1)
        assert p.observe(pc, 7) == "no_predict"  # conf 1 -> 2
        assert p.observe(pc, 7) == "correct"  # confident now
        assert p.observe(pc, 7) == "correct"

    def test_value_change_resets_confidence(self):
        p = LastValuePredictor(entries=256)
        pc = 0x100
        for _ in range(4):
            p.observe(pc, 7)
        assert p.observe(pc, 9) == "wrong"
        # After the change, confidence is rebuilt before predicting.
        assert p.observe(pc, 9) == "no_predict"
        assert p.observe(pc, 9) == "no_predict"
        assert p.observe(pc, 9) == "correct"

    def test_tag_conflict_evicts(self):
        p = LastValuePredictor(entries=64)
        a = 0x100
        b = a + 64 * 4  # same index, different tag
        for _ in range(3):
            p.observe(a, 7)
        p.observe(b, 5)  # evicts a's entry
        assert p.observe(a, 7) == "no_predict"

    def test_distinct_sites_are_independent(self):
        p = LastValuePredictor(entries=1024)
        for _ in range(3):
            p.observe(0x100, 1)
            p.observe(0x104, 2)
        assert p.observe(0x100, 1) == "correct"
        assert p.observe(0x104, 2) == "correct"

    def test_stats_shape(self):
        """Every lookup lands in exactly one of Table 6's three columns."""
        p = LastValuePredictor(entries=256)
        outcomes = [p.observe(0x40, value) for value in (3, 3, 3, 3, 5)]
        assert outcomes == ["no_predict", "no_predict", "correct",
                            "correct", "wrong"]

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            LastValuePredictor(entries=1000)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=10, max_size=200))
def test_never_predicts_unseen_value(values):
    """A last-value predictor can only ever predict a previously seen
    value, so 'correct' requires the value to equal its predecessor."""
    p = LastValuePredictor(entries=64)
    pc = 0x200
    previous = None
    for v in values:
        outcome = p.observe(pc, v)
        if outcome == "correct":
            assert v == previous
        previous = v


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 50))
def test_constant_stream_accuracy(n):
    """A constant value stream is predicted after the confidence ramp."""
    p = LastValuePredictor(entries=64)
    outcomes = [p.observe(0x80, 42) for _ in range(n)]
    assert outcomes[:2] == ["no_predict"] * min(2, n)
    assert all(o == "correct" for o in outcomes[2:])
