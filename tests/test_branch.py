"""Unit tests for the branch prediction substrate."""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.branch.btb import BranchTargetBuffer
from repro.branch.frontend import BranchPredictor
from repro.branch.gshare import GshareGPredictor


class TestGshare:
    def test_learns_constant_direction(self):
        # After enough all-taken updates the global history saturates to
        # all-ones, the index stabilises, and the prediction locks in.
        g = GshareGPredictor(entries=1024)
        pc = 0x400
        for _ in range(50):
            g.update(pc, True)
        assert g.predict(pc)

    def test_counter_saturation(self):
        # A single contrary outcome weakens but does not flip a
        # saturated 2-bit counter (checked at the pre-update index,
        # because the update itself shifts the global history).
        g = GshareGPredictor(entries=256)
        pc = 0x80
        for _ in range(50):
            g.update(pc, True)
        index = g._index(pc)
        assert g._counters[index] == 3
        g.update(pc, False)
        assert g._counters[index] == 2  # still predicts taken

    def test_history_shifts(self):
        g = GshareGPredictor(entries=256)
        g.update(0, True)
        g.update(0, False)
        g.update(0, True)
        assert g.history & 0b111 == 0b101

    def test_learns_alternating_pattern_via_history(self):
        g = GshareGPredictor(entries=4096)
        pc = 0x1234
        outcome = True
        correct = 0
        for i in range(400):
            predicted = g.predict_and_update(pc, outcome)
            if i >= 200 and predicted == outcome:
                correct += 1
            outcome = not outcome
        # With history the alternating pattern becomes fully predictable.
        assert correct >= 190

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            GshareGPredictor(entries=1000)


class TestBTB:
    def test_lookup_after_update(self):
        btb = BranchTargetBuffer(entries=64, associativity=4)
        btb.update(0x100, 0x900)
        assert btb.lookup(0x100) == 0x900
        assert btb.lookup(0x104) is None

    def test_target_overwrite(self):
        btb = BranchTargetBuffer(entries=64)
        btb.update(0x100, 0x900)
        btb.update(0x100, 0xA00)
        assert btb.lookup(0x100) == 0xA00

    def test_lru_within_set(self):
        btb = BranchTargetBuffer(entries=8, associativity=2)  # 4 sets
        stride = 4 * 4  # same-set pc stride (pc>>2 indexes)
        a, b, c = 0x100, 0x100 + stride, 0x100 + 2 * stride
        btb.update(a, 1)
        btb.update(b, 2)
        btb.lookup(a)  # refresh a
        btb.update(c, 3)  # evicts b
        assert btb.lookup(a) == 1
        assert btb.lookup(b) is None
        assert btb.lookup(c) == 3

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            BranchTargetBuffer(entries=10, associativity=4)


class TestFrontend:
    def test_biased_branch_becomes_predictable(self):
        fe = BranchPredictor(gshare_entries=4096, btb_entries=64)
        pc, target = 0x100, 0x300
        for _ in range(50):
            fe.observe(pc, taken=True, target=target)
        # Once warm (history and BTB trained), predictions are perfect.
        late = [fe.observe(pc, taken=True, target=target) for _ in range(20)]
        assert not any(late)

    def test_target_change_is_misprediction(self):
        fe = BranchPredictor(gshare_entries=4096, btb_entries=64)
        pc = 0x100
        for _ in range(20):
            fe.observe(pc, taken=True, target=0x300)
        # The direction is right (gshare predicts taken), so only the
        # stale target mispredicts.
        assert fe.direction.predict(pc)
        assert fe.observe(pc, taken=True, target=0x999)

    def test_not_taken_needs_no_target(self):
        fe = BranchPredictor(gshare_entries=4096, btb_entries=64)
        pc = 0x200
        for _ in range(20):
            fe.observe(pc, taken=False, target=0)
        assert not fe.observe(pc, taken=False, target=0)

    def test_stats_accumulate(self):
        """observe() answers with a bool per branch: cold taken branches
        mispredict (gshare starts weakly not-taken, the BTB empty) and
        cold not-taken ones do not."""
        fe = BranchPredictor(gshare_entries=256, btb_entries=64)
        outcomes = [fe.observe(0x100 + 8 * i, taken=bool(i % 2), target=0x40)
                    for i in range(10)]
        assert all(isinstance(outcome, bool) for outcome in outcomes)
        assert outcomes == [bool(i % 2) for i in range(10)]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.booleans(), min_size=50, max_size=300))
def test_gshare_beats_random_on_biased_streams(outcomes):
    """On a heavily biased stream gshare must beat 60% accuracy."""
    # Bias the stream strongly taken.
    stream = [True] * (3 * len(outcomes)) + outcomes
    g = GshareGPredictor(entries=1024)
    correct = 0
    for outcome in stream:
        correct += g.predict_and_update(0x40, outcome) == outcome
    taken_rate = sum(stream) / len(stream)
    assert correct / len(stream) >= min(0.6, taken_rate - 0.1)
