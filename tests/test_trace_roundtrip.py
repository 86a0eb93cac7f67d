"""Property tests: archive persistence is an identity, or it fails loudly.

Hypothesis generates arbitrary valid traces (and event-consistent
annotations) and proves ``save → load`` returns an identical object.
Paired with the fault-injection suite, this pins the persistence
contract from both sides: valid archives round-trip exactly; damaged
ones raise :class:`~repro.robustness.errors.TraceFormatError`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.opclass import OpClass
from repro.isa.registers import NUM_REGS, REG_NONE
from repro.robustness.errors import TraceFormatError
from repro.trace.annotate import (
    FRONT_PASS_COLUMNS,
    AnnotatedTrace,
    AnnotationConfig,
)
from repro.trace.io import (
    ANNOTATION_FIELDS,
    FORMAT_VERSION,
    load_annotated,
    load_trace,
    save_annotated,
    save_trace,
)
from repro.trace.trace import COLUMNS, Trace

_OPS = sorted(int(o) for o in OpClass)


@st.composite
def traces(draw, min_size=1, max_size=40):
    """An arbitrary schema-valid :class:`Trace`."""
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    ints = st.integers(min_value=0, max_value=2**40)
    regs = st.integers(min_value=REG_NONE, max_value=NUM_REGS - 1)
    column = {
        "op": draw(st.lists(st.sampled_from(_OPS), min_size=n, max_size=n)),
        "pc": draw(st.lists(ints, min_size=n, max_size=n)),
        "dst": draw(st.lists(regs, min_size=n, max_size=n)),
        "src1": draw(st.lists(regs, min_size=n, max_size=n)),
        "src2": draw(st.lists(regs, min_size=n, max_size=n)),
        "src3": draw(st.lists(regs, min_size=n, max_size=n)),
        "addr": draw(st.lists(ints, min_size=n, max_size=n)),
        "taken": draw(st.lists(st.booleans(), min_size=n, max_size=n)),
        "target": draw(st.lists(ints, min_size=n, max_size=n)),
        "value": draw(st.lists(ints, min_size=n, max_size=n)),
    }
    name = draw(st.text(
        alphabet=st.characters(min_codepoint=48, max_codepoint=122),
        min_size=1, max_size=12,
    ))
    return Trace(column, name=name)


@st.composite
def annotated_traces(draw):
    """An event-consistent :class:`AnnotatedTrace` over a random trace."""
    trace = draw(traces())
    n = len(trace)

    def submask(allowed):
        bits = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        return np.asarray(bits, dtype=bool) & allowed

    dmiss = submask(trace.load_like_mask())
    pmiss = submask(np.asarray(trace.op) == int(OpClass.PREFETCH))
    pfuseful = submask(pmiss)
    imiss = submask(np.ones(n, dtype=bool))
    mispred = submask(trace.branch_mask())
    smiss = submask(np.asarray(trace.op) == int(OpClass.STORE))
    vp_outcome = np.full(n, -1, dtype=np.int8)
    codes = draw(st.lists(
        st.sampled_from([0, 1, 2]), min_size=n, max_size=n
    ))
    vp_outcome[dmiss] = np.asarray(codes, dtype=np.int8)[dmiss]
    measure_start = draw(st.integers(min_value=0, max_value=n))
    return AnnotatedTrace(
        trace=trace,
        dmiss=dmiss,
        pmiss=pmiss,
        pfuseful=pfuseful,
        imiss=imiss,
        mispred=mispred,
        vp_outcome=vp_outcome,
        smiss=smiss,
        measure_start=measure_start,
        config=AnnotationConfig(),
    )


class TestTraceRoundTrip:
    @settings(max_examples=30, deadline=None)
    @given(trace=traces())
    def test_save_load_identity(self, trace, tmp_path_factory):
        path = tmp_path_factory.mktemp("rt") / "trace.npz"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded == trace
        assert loaded.name == trace.name
        for name in ("op", "pc", "addr", "taken"):
            assert getattr(loaded, name).dtype == getattr(trace, name).dtype

    @settings(max_examples=15, deadline=None)
    @given(trace=traces())
    def test_saved_columns_are_read_only_after_load(
        self, trace, tmp_path_factory
    ):
        path = tmp_path_factory.mktemp("rt") / "trace.npz"
        save_trace(trace, path)
        loaded = load_trace(path)
        with pytest.raises(ValueError):
            loaded.op[0] = 0


class TestAnnotatedRoundTrip:
    @settings(max_examples=20, deadline=None)
    @given(annotated=annotated_traces())
    def test_save_load_identity(self, annotated, tmp_path_factory):
        path = tmp_path_factory.mktemp("rt") / "annotated.npz"
        save_annotated(annotated, path)
        loaded = load_annotated(path)
        assert loaded.trace == annotated.trace
        assert loaded.measure_start == annotated.measure_start
        for field in ("dmiss", "pmiss", "pfuseful", "imiss", "mispred",
                      "vp_outcome", "smiss"):
            assert np.array_equal(
                getattr(loaded, field), getattr(annotated, field)
            ), field

    @settings(max_examples=10, deadline=None)
    @given(annotated=annotated_traces())
    def test_offchip_accounting_survives_round_trip(
        self, annotated, tmp_path_factory
    ):
        path = tmp_path_factory.mktemp("rt") / "annotated.npz"
        save_annotated(annotated, path)
        loaded = load_annotated(path)
        assert loaded.num_offchip() == annotated.num_offchip()
        assert loaded.miss_rate_per_100() == annotated.miss_rate_per_100()


class TestDroppedColumns:
    """An annotation whose trace dropped the columns only annotation
    reads (as an ``exhibit all`` memo's has) round-trips without them,
    and an archive may drop no other column."""

    def _annotated(self, dropped=FRONT_PASS_COLUMNS):
        from repro.trace.annotate import annotate
        from repro.workloads import generate_trace

        annotated = annotate(generate_trace("database", 3000, seed=5))
        annotated.trace.drop_columns(dropped)
        return annotated

    def test_round_trip_keeps_them_dropped(self, tmp_path):
        annotated = self._annotated()
        path = tmp_path / "annotated.npz"
        save_annotated(annotated, path)
        loaded = load_annotated(path)
        assert loaded.trace.dropped_columns() == FRONT_PASS_COLUMNS
        for name, _ in COLUMNS:
            if name in FRONT_PASS_COLUMNS:
                with pytest.raises(TraceFormatError, match=name):
                    getattr(loaded.trace, name)
            else:
                assert np.array_equal(getattr(loaded.trace, name),
                                      getattr(annotated.trace, name)), name
        for field in ANNOTATION_FIELDS:
            assert np.array_equal(getattr(loaded, field),
                                  getattr(annotated, field)), field
        assert loaded.measure_start == annotated.measure_start
        # A plain trace load wants every column.
        with pytest.raises(TraceFormatError, match="missing") as caught:
            load_trace(path)
        assert caught.value.field in FRONT_PASS_COLUMNS

    def test_only_annotation_columns_may_be_dropped(self, tmp_path):
        path = tmp_path / "annotated.npz"
        save_annotated(self._annotated(("pc",)), path)
        with pytest.raises(TraceFormatError, match="only") as caught:
            load_annotated(path)
        assert caught.value.field == "__dropped__"


class TestVersionSkew:
    """Archives from a different format version are rejected, not misread."""

    def _saved_trace(self, tmp_path):
        from repro.trace.builder import TraceBuilder

        b = TraceBuilder("skew")
        b.add_load(0x100, dst=1, addr=0x8000, src1=2)
        b.add_nop(0x104)
        path = tmp_path / "trace.npz"
        save_trace(b.build(), path)
        return path

    @pytest.mark.parametrize("delta", [-1, 1, 100])
    def test_trace_version_skew_rejected(self, tmp_path, delta):
        from repro.robustness.faults import skew_version

        path = self._saved_trace(tmp_path)
        skew_version(path, delta=delta)
        with pytest.raises(ValueError, match="version") as excinfo:
            load_trace(path)
        assert str(FORMAT_VERSION + delta) in str(excinfo.value)

    def test_versionless_archive_rejected(self, tmp_path):
        path = tmp_path / "raw.npz"
        with open(path, "wb") as handle:  # reprolint: disable=atomic-writes
            np.savez(handle, op=np.zeros(1, dtype=np.int8))  # reprolint: disable=atomic-writes
        with pytest.raises(ValueError, match="not a repro trace"):
            load_trace(path)

    def test_trace_archive_is_not_an_annotated_archive(self, tmp_path):
        path = self._saved_trace(tmp_path)
        with pytest.raises(ValueError, match="annotated"):
            load_annotated(path)
