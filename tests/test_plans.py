"""The one plan type both simulator kernels read, its payload codec, and
the contracted config structs.

A :class:`repro.cbuild.Plan` holds exactly the columns its kernel entry
point declares; MLPsim (``mlpsim_batch``) and cyclesim
(``cyclesim_batch``) plans share one memo, one payload codec and one
schema version.  None of this needs a compiler: plans, the codec and
the shared-memory round trip run on hosts without ``cc`` too.
"""

import numpy as np
import pytest

import repro.analysis.shm as shm
from repro import cbuild
from repro.cbuild import PLAN_SCHEMA_VERSION, Plan
from repro.core import ckernel
from repro.core.columnar import PLAN_CONTRACT, plan_for
from repro.core.config import MachineConfig
from repro.cyclesim import CycleSimConfig
from repro.cyclesim import ckernel as cycle_ckernel
from repro.cyclesim.plan import CYCLE_PLAN_CONTRACT, cycle_plan_for
from repro.robustness.errors import TraceFormatError
from repro.trace import ckernel as annotate_ckernel
from repro.trace.annotate import annotate
from repro.workloads import generate_trace

CONTRACTS = (PLAN_CONTRACT, CYCLE_PLAN_CONTRACT)


@pytest.fixture(scope="module")
def annotated():
    return annotate(generate_trace("database", 3_000))


def _plans(annotated):
    """``{entry: plan}`` of both simulators over one region."""
    return {
        "mlpsim_batch": plan_for(annotated, MachineConfig.named("64C")),
        "cyclesim_batch": cycle_plan_for(annotated),
    }


def _declared(entry):
    contract = next(contract for contract in CONTRACTS
                    if entry in contract["entries"])
    return cbuild.column_dtypes(contract["entries"][entry])


ENTRIES = ("mlpsim_batch", "cyclesim_batch")


@pytest.mark.parametrize("entry", ENTRIES)
def test_columns_are_exactly_the_declared_ones_and_read_only(annotated,
                                                             entry):
    plan = _plans(annotated)[entry]
    declared = _declared(entry)
    assert plan.entry == entry
    assert list(plan.columns) == list(declared)
    assert len(plan) == plan.stop - plan.start
    for name, dtype in declared.items():
        column = plan.columns[name]
        assert cbuild.crossing(column, dtype).dtype == dtype, name
        assert column.shape == (len(plan),), name
        assert not column.flags.writeable, name
        assert getattr(plan, name) is column
    with pytest.raises(AttributeError):
        plan.no_such_column


def test_both_simulators_share_one_memo(annotated):
    first = _plans(annotated)
    again = _plans(annotated)
    for entry in ENTRIES:
        assert again[entry] is first[entry]
    entries = {key[0] for key in annotated._plans}
    assert set(ENTRIES) <= entries


@pytest.mark.parametrize("entry", ENTRIES)
def test_payload_round_trips(annotated, entry):
    plan = _plans(annotated)[entry]
    payload = plan.payload()
    assert list(payload["meta"]) == [PLAN_SCHEMA_VERSION, plan.start,
                                     plan.stop]
    assert list(payload["entry"]) == [entry]
    back = Plan.from_payload(payload, CONTRACTS)
    assert (back.entry, back.start, back.stop) == \
        (entry, plan.start, plan.stop)
    assert list(back.columns) == list(plan.columns)
    for name, column in plan.columns.items():
        assert back.columns[name].dtype == column.dtype
        assert np.array_equal(back.columns[name], column), name


def _another_version(payload, column):
    payload["meta"] = payload["meta"].copy()
    payload["meta"][0] = PLAN_SCHEMA_VERSION + 1
    return "meta"


def _unknown_entry(payload, column):
    payload["entry"] = np.asarray(["annotate_rename"])
    return "entry"


def _missing_column(payload, column):
    del payload[column]
    return column


def _wrong_dtype(payload, column):
    payload[column] = payload[column].astype(np.float64)
    return column


def _wrong_length(payload, column):
    payload[column] = payload[column][:-1]
    return column


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("corrupt", [
    _another_version, _unknown_entry, _missing_column, _wrong_dtype,
    _wrong_length,
], ids=lambda corrupt: corrupt.__name__.strip("_"))
def test_decoding_rejects_a_bad_payload_naming_the_field(annotated, entry,
                                                         corrupt):
    payload = _plans(annotated)[entry].payload()
    column = list(_declared(entry))[-1]
    field = corrupt(payload, column)
    with pytest.raises(TraceFormatError) as raised:
        Plan.from_payload(payload, CONTRACTS, path="segment")
    assert raised.value.field == field
    assert raised.value.path == "segment"
    assert repr(field) in str(raised.value)


def test_an_undeclared_column_is_refused(annotated):
    plan = _plans(annotated)["cyclesim_batch"]
    with pytest.raises(TraceFormatError) as raised:
        Plan(CYCLE_PLAN_CONTRACT, "cyclesim_batch", plan.start, plan.stop,
             {**plan.columns, "scalar_mask": plan.dmiss})
    assert raised.value.field == "scalar_mask"


def test_cycle_plan_round_trips_through_shared_memory(annotated):
    plan = _plans(annotated)["cyclesim_batch"]
    handle = shm.publish_plan(plan)
    try:
        attached = shm.attach_plan(handle)
        try:
            checks = []
            for name in plan.columns:
                view = getattr(attached.plan, name)
                checks.append((
                    name,
                    np.array_equal(getattr(plan, name), view),
                    # Views alias the shared buffer, not copies.
                    not view.flags.owndata,
                ))
            got = (attached.plan.entry, attached.plan.start,
                   attached.plan.stop)
            del view  # drop the buffer reference before closing
        finally:
            attached.close()
        for name, equal, aliased in checks:
            assert equal and aliased, name
        assert got == ("cyclesim_batch", plan.start, plan.stop)
    finally:
        shm.unpublish_plan(handle)
    assert not shm.plan_is_published(handle)


def _ranges(contract, struct):
    """``[(field, lo, hi)]`` of *struct*'s contracted fields."""
    return [(field, cbuild.contract_bound(lo, {}),
             cbuild.contract_bound(hi, {}))
            for (lo, hi), fields in contract["structs"][struct]
            for field in fields]


def _past(struct, field, value):
    """A copy of ctypes *struct* with *field* set to *value*."""
    copy = type(struct).from_buffer_copy(struct)
    setattr(copy, field, value)
    return copy


SIMULATORS = {
    "KernelConfig": (ckernel, PLAN_CONTRACT, "mlpsim_batch", "nconfigs",
                     MachineConfig.named("64C")),
    "CycleConfig": (cycle_ckernel, CYCLE_PLAN_CONTRACT, "cyclesim_batch",
                    "n_configs", CycleSimConfig()),
}


@pytest.mark.parametrize("struct", sorted(SIMULATORS))
def test_each_simulator_config_field_is_range_checked(monkeypatch, struct):
    """Every field of a simulator's config struct comes from its
    contract, and one past either bound makes the route check refuse
    the config, naming the field."""
    driver, contract, entry, count, config = SIMULATORS[struct]
    ranges = _ranges(contract, struct)
    ctype = driver._loader.structs[struct]
    assert [name for name, _ in ctype._fields_] == \
        [field for field, _, _ in ranges]
    good = driver._config_struct(config)
    assert driver.in_contract.__wrapped__(config)
    for field, lo, hi in ranges:
        for value in (lo - 1, hi + 1):
            bad = _past(good, field, value)
            monkeypatch.setattr(driver, "_config_struct", lambda _: bad)
            assert not driver.in_contract.__wrapped__(config), field
            why = driver._loader.violation(
                entry, {"configs": (ctype * 1)(bad), count: 1})
            assert why.startswith(f"{struct}.{field} = {value} "), why


def test_each_geometry_field_is_range_checked():
    from repro.trace.annotate import AnnotationConfig

    ranges = _ranges(annotate_ckernel.ANNOTATE_CONTRACT, "Geometry")
    ctype = annotate_ckernel._Geometry
    assert [name for name, _ in ctype._fields_] == \
        [field for field, _, _ in ranges]
    good = annotate_ckernel._geometry(AnnotationConfig())
    loader = annotate_ckernel._loader
    assert loader.violation("annotate_front", {"geo": good}) is None
    for field, lo, hi in ranges:
        for value in (lo - 1, hi + 1):
            why = loader.violation("annotate_front",
                                   {"geo": _past(good, field, value)})
            assert why.startswith(f"Geometry.{field} = {value} "), why

