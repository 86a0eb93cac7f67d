"""Tests for the kernel-certification layer of reprolint.

Covers the two certify passes (``kernel-bounds``, ``kernel-overflow``)
over their fixture pairs, with the ``PLAN_CONTRACT`` literal pair whose
drift ``kernel-bounds`` reports, and the acceptance mutations run against
copies of the *real* kernel and plan-builder sources (and, for a
struct field, against the header the package renders): one off-by-one
subscript bound, one accumulator-width narrowing, one contract-range
change — each must yield exactly one finding carrying the witness
interval the abstract interpreter computed, or the drifted entry.

The C front end reads each kernel as compiled, and the facts a kernel
declares in its own source cannot outlive their member: a fact that
attaches to no member, one naming a member that does not exist and a
trusted fact without a reason are one finding each, and a deleted
member fact un-proves the accesses it covered.
"""

import ctypes
import pathlib
import shutil

import pytest

from repro import cbuild
from repro.core import ckernel
from repro.core.termination import Inhibitor
from repro.cyclesim import ckernel as cycle_ckernel
from repro.cyclesim.simulator_reference import _NEVER
from repro.lint import run_lint
from repro.lint.certify import cparse
from repro.trace import ckernel as annotate_ckernel
from repro.workloads import ckernel as generate_ckernel

FIXTURES = pathlib.Path(__file__).parent / "lint_fixtures"
REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

#: fixture id -> (fixture directory, the pass its violation/ trips,
#: expected finding count in violation/); ``plan-contract`` is the
#: pair whose ``PLAN_CONTRACT`` literal drifts.
CERTIFY_FIXTURES = {
    "kernel-bounds": ("kernel_bounds", "kernel-bounds", 1),
    "kernel-overflow": ("kernel_overflow", "kernel-overflow", 1),
    "plan-contract": ("plan_contract", "kernel-bounds", 1),
}

MLPSIM_KERNEL = "src/repro/core/_mlpsim_kernel.c"
CYCLESIM_KERNEL = "src/repro/cyclesim/_cyclesim_kernel.c"
COLUMNAR = "src/repro/core/columnar.py"
CYCLE_PLAN = "src/repro/cyclesim/plan.py"

#: Everything the two certify passes read, copied verbatim from the
#: real tree so mutation tests exercise the production contract.
_CERTIFY_SOURCES = (
    MLPSIM_KERNEL,
    CYCLESIM_KERNEL,
    COLUMNAR,
    CYCLE_PLAN,
    "src/repro/core/ckernel.py",
    "src/repro/cyclesim/ckernel.py",
)


class TestCertifyFixtures:
    @pytest.mark.parametrize("fixture_id", sorted(CERTIFY_FIXTURES))
    def test_clean_fixture_has_no_findings(self, fixture_id):
        root = FIXTURES / CERTIFY_FIXTURES[fixture_id][0] / "clean"
        assert run_lint(root) == []

    @pytest.mark.parametrize("fixture_id", sorted(CERTIFY_FIXTURES))
    def test_violation_fixture_is_flagged(self, fixture_id):
        fixture, pass_id, expected = CERTIFY_FIXTURES[fixture_id]
        findings = run_lint(
            FIXTURES / fixture / "violation", select=[pass_id]
        )
        assert len(findings) == expected
        assert all(f.pass_id == pass_id for f in findings)

    def test_bounds_finding_carries_witness_interval(self):
        """The off-by-one fixture's finding states the interval the
        interpreter derived for the index and the buffer length it
        exceeds — the proof obligation, not just a location."""
        (finding,) = run_lint(
            FIXTURES / "kernel_bounds" / "violation",
            select=["kernel-bounds"],
        )
        assert "ops[i]" in finding.message
        assert "index in [0, n]" in finding.message
        assert "length n" in finding.message

    def test_overflow_finding_carries_witness_interval(self):
        (finding,) = run_lint(
            FIXTURES / "kernel_overflow" / "violation",
            select=["kernel-overflow"],
        )
        assert "hot" in finding.message
        assert "value in [1048576, 2148532224]" in finding.message
        assert "exceeds int32" in finding.message

    def test_contract_drift_names_the_entry(self):
        (finding,) = run_lint(
            FIXTURES / "plan_contract" / "violation",
            select=["kernel-bounds"],
        )
        assert finding.path == COLUMNAR
        assert "entries.mlpsim_batch.params.dmiss" in finding.message
        assert "'n', 0, 2]" in finding.message


def _real_tree(tmp_path):
    """A minimal tree of *real* sources the certify passes read."""
    for relpath in _CERTIFY_SOURCES:
        dst = tmp_path / relpath
        dst.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(REPO_ROOT / relpath, dst)
    return tmp_path


def _edit(tmp_path, relpath, old, new, count=1):
    path = tmp_path / relpath
    text = path.read_text()
    assert text.count(old) >= count, f"{old!r} not found in {relpath}"
    # Mutating a throwaway fixture copy — torn-write durability is
    # irrelevant, the tree dies with tmp_path.
    path.write_text(text.replace(old, new, count))  # reprolint: disable=atomic-writes


class TestRealTreeMutations:
    """Acceptance: each single-site mutation yields exactly one finding."""

    SELECT = ["kernel-bounds", "kernel-overflow"]

    def test_unmutated_copy_is_clean(self, tmp_path):
        assert run_lint(_real_tree(tmp_path), select=self.SELECT) == []

    def test_off_by_one_subscript_bound(self, tmp_path):
        """Widening one loop bound in the cyclesim kernel un-proves
        exactly the subscript that loop guards."""
        root = _real_tree(tmp_path)
        _edit(root, CYCLESIM_KERNEL, "b < HASH_SIZE", "b <= HASH_SIZE")
        findings = run_lint(root, select=self.SELECT)
        assert len(findings) == 1
        assert findings[0].pass_id == "kernel-bounds"
        assert findings[0].path == CYCLESIM_KERNEL
        assert "hash_head[b]" in findings[0].message
        assert "index in [0, 32768]" in findings[0].message
        assert "length 32768" in findings[0].message

    def test_runahead_scan_bound(self, tmp_path):
        """Widening the runahead period's loop bound un-proves exactly
        the precondition of its per-instruction step: the runahead scan
        is certified, not skipped."""
        root = _real_tree(tmp_path)
        _edit(root, MLPSIM_KERNEL, "j < limit", "j <= limit")
        findings = run_lint(root, select=self.SELECT)
        assert len(findings) == 1
        assert findings[0].pass_id == "kernel-bounds"
        assert findings[0].path == MLPSIM_KERNEL
        assert "runahead_step" in findings[0].message
        assert "j <= n - 1" in findings[0].message

    def test_on_chip_run_bound(self, tmp_path):
        """The out-of-order scan writes an on-chip run without
        re-testing its scan state, so the run loop's own bound is all
        that keeps it inside the plan: widening it un-proves exactly
        the subscript it guards."""
        root = _real_tree(tmp_path)
        _edit(root, MLPSIM_KERNEL,
              "while (fetch_pos < n && !t->scalar_mask[fetch_pos])",
              "while (fetch_pos <= n && !t->scalar_mask[fetch_pos])")
        findings = run_lint(root, select=self.SELECT)
        assert len(findings) == 1
        assert findings[0].pass_id == "kernel-bounds"
        assert findings[0].path == MLPSIM_KERNEL
        assert findings[0].message == (
            "subscript t->scalar_mask[fetch_pos]: index in [0, n],"
            " Trace.scalar_mask length n")

    def test_narrowed_accumulator_width(self, tmp_path, monkeypatch):
        """Retyping one int64 result counter as int32 un-proves the
        width of exactly its increment.  The struct lives in the header
        the package renders, so the mutation is made there: the
        certifier reads the header the kernel compiles against."""
        from repro.core import ckernel

        render = ckernel._loader.header
        monkeypatch.setattr(ckernel._loader, "header", lambda: render()
                            .replace("int64_t epochs;", "int32_t epochs;"))
        assert "int32_t epochs;" in ckernel._loader.header()
        findings = run_lint(_real_tree(tmp_path), select=self.SELECT)
        assert len(findings) == 1
        assert findings[0].pass_id == "kernel-overflow"
        assert findings[0].path == MLPSIM_KERNEL
        assert "epochs" in findings[0].message
        assert "exceeds int32" in findings[0].message

    def test_contract_range_change_without_manifest_regen(self, tmp_path):
        """Editing one PLAN_CONTRACT range in the linted tree is one
        finding: the literal no longer equals the declaration the
        kernel proof was built from, and no manifest regeneration can
        bless it."""
        root = _real_tree(tmp_path)
        _edit(root, COLUMNAR, '["ops", "const int8_t *", "n", 0, 8],',
              '["ops", "const int8_t *", "n", 0, 9],')
        findings = run_lint(root, select=self.SELECT)
        assert len(findings) == 1
        assert findings[0].pass_id == "kernel-bounds"
        assert findings[0].path == COLUMNAR
        assert "entries.mlpsim_batch.params.ops" in findings[0].message
        assert "'n', 0, 9]" in findings[0].message


def test_modulo_by_a_positive_variable_divisor():
    """``a % b`` with ``a >= 0`` and ``b`` in ``[1, hi]`` lies in
    ``[0, hi - 1]``, for a symbolic ``hi`` too; a divisor that may be
    zero proves nothing."""
    from repro.lint.certify import intervals as iv

    box = {"pool": (1, 1 << 26)}
    dividend = iv.Interval(iv.Affine(0), iv.Affine(1 << 40))
    pool = iv.Interval(iv.Affine(1), iv.Affine(0, {"pool": 1}))
    assert repr(iv.mod(dividend, pool, box)) == "[0, pool - 1]"
    assert repr(iv.mod(dividend, iv.const_interval(8), box)) == "[0, 7]"
    signed = iv.Interval(iv.Affine(-5), iv.Affine(5))
    assert repr(iv.mod(signed, iv.const_interval(8), box)) == "[-7, 7]"
    maybe_zero = iv.Interval(iv.Affine(0), iv.Affine(8))
    assert iv.mod(dividend, maybe_zero, box) is iv.TOP


#: The four kernel drivers, each with defines and source structs its
#: unit must show: ``{define: value}`` and ``{struct: [(member, C base
#: type, pointer depth), ...]}``.
_UNITS = {
    "mlpsim": (ckernel, {"INH_COUNT": len(Inhibitor), "ST_STOP_DEFER": 3},
               {"Scan": [("epoch", "int32_t", 0), ("accesses", "int64_t", 0),
                         ("e_dmiss", "int64_t", 0)]}),
    "cyclesim": (cycle_ckernel, {"NEVER": _NEVER, "HASH_SIZE": 1 << 15},
                 {"Tracker": [("count", "int64_t", 0),
                              ("last_time", "int64_t", 0),
                              ("nonzero", "int64_t", 0),
                              ("integral", "int64_t", 0)],
                  "Ctx": [("n", "int64_t", 0), ("ops", "int8_t", 1),
                          ("prod1", "int32_t", 1), ("prod2", "int32_t", 1),
                          ("prod3", "int32_t", 1),
                          ("memdep", "int32_t", 1)]}),
    "annotation": (annotate_ckernel, {"WAYS": 16},
                   {"Stream": [("pos", "int32_t", 1), ("kind", "int8_t", 1),
                               ("m", "int64_t", 0)]}),
    "generation": (generate_ckernel, {"MATRIX_A": 0x9908b0df, "MT_N": 624},
                   {"Pool": [("lines", "int64_t", 1), ("cap", "int64_t", 0),
                             ("len", "int64_t", 0),
                             ("cursor", "int64_t", 0)]}),
}


def _ctypes_members(struct, names):
    """``(member, C base type, pointer depth, array length)`` of each
    field of a ctypes *struct*; *names* spells the nested structs."""
    members = []
    for field, ctype in struct._fields_:
        length = None
        if issubclass(ctype, ctypes.Array):
            ctype, length = ctype._type_, ctype._length_
        members.append((field, names.get(ctype) or cbuild._C_TYPES[ctype],
                        0, length))
    return members


@pytest.mark.parametrize("name", sorted(_UNITS))
def test_front_end_reads_the_unit_as_compiled(name):
    """One parse of a kernel, header first, holds every define the
    header renders with its Python value and the source's own, and
    every struct's members in declaration order with their C types:
    a rendered struct's are its ctypes fields."""
    module, defines, source_structs = _UNITS[name]
    loader = module._loader
    unit = cparse.parse_c_unit(
        loader.header(), pathlib.Path(loader.source_path).read_text())
    rendered = loader.defines()
    assert {key: unit.defines[key] for key in rendered} == rendered
    assert {key: unit.defines[key] for key in defines} == defines
    names = {struct: name for name, struct in loader.structs.items()}
    for struct_name, struct in loader.structs.items():
        assert [(f.name, f.base, f.ptr, f.array_len and cparse.const_fold(
            f.array_len, unit.defines))
            for f in unit.structs[struct_name].fields] == \
            _ctypes_members(struct, names)
    for struct_name, members in source_structs.items():
        fields = unit.structs[struct_name].fields
        assert [(f.name, f.base, f.ptr)
                for f in fields[:len(members)]] == members


class TestKernelFacts:
    """A fact a kernel declares in its source is checked against the
    members it names: none can outlive its field."""

    SELECT = ["kernel-bounds", "kernel-overflow"]

    def test_a_fact_that_attaches_to_no_member(self, tmp_path):
        root = _real_tree(tmp_path)
        _edit(root, MLPSIM_KERNEL, "static void record_epoch(",
              "/* certify: range 0 .. 1 */\nstatic void record_epoch(")
        findings = run_lint(root, select=self.SELECT)
        assert [(f.pass_id, f.path, f.message) for f in findings] == [
            ("kernel-bounds", MLPSIM_KERNEL,
             "certify range annotation attaches to no struct member")]

    @pytest.mark.parametrize("member", [
        "Scan.no_such_field", "Trace.no_such_field",
        "KernelResult.no_such_field", "NoSuchStruct.epoch",
    ])
    def test_a_fact_naming_a_missing_member(self, tmp_path, member):
        root = _real_tree(tmp_path)
        _edit(root, MLPSIM_KERNEL, "static void record_epoch(",
              f"/* certify: range {member} 0 .. 1 */\n"
              "static void record_epoch(")
        findings = run_lint(root, select=self.SELECT)
        assert [(f.pass_id, f.path, f.message) for f in findings] == [
            ("kernel-bounds", MLPSIM_KERNEL,
             f"certify range names {member}, which does not exist")]

    def test_a_trusted_fact_without_a_reason(self, tmp_path):
        root = _real_tree(tmp_path)
        _edit(root, MLPSIM_KERNEL,
              "/* certify: trusted range 0 .. n -- each instruction index"
              " enters\n       new_deferred at most once per epoch, so the"
              " pending count never\n       exceeds n */",
              "/* certify: trusted range 0 .. n */")
        findings = run_lint(root, select=self.SELECT)
        assert [(f.pass_id, f.message) for f in findings] == [
            ("kernel-bounds",
             "certify trusted range without a '-- reason' justification")]

    def test_a_parameter_buffer_holds_its_declared_elements(self, tmp_path):
        """A parameter's ``certify: buffer`` counts elements of the
        parameter's own C type: reading 2n bytes from the n-byte
        ``imiss_src`` is one finding."""
        root = _real_tree(tmp_path)
        _edit(root, MLPSIM_KERNEL, "memcpy(t->imiss, imiss_src, (size_t)n);",
              "memcpy(t->res, imiss_src, (size_t)(2 * n));")
        findings = run_lint(root, select=self.SELECT)
        assert [(f.pass_id, f.message) for f in findings] == [
            ("kernel-bounds", "memcpy on imiss_src (annotated): writes up"
             " to 2*n bytes, buffer holds n")]

    def test_deleting_a_member_buffer_fact(self, tmp_path):
        """Without its buffer fact a scratch member is no buffer the
        proof knows: its allocation and every subscript of it are
        findings."""
        root = _real_tree(tmp_path)
        _edit(root, MLPSIM_KERNEL,
              "    /* certify: buffer length n + 1 content 0 .. n - 1 */\n"
              "    int32_t *pending_pf;", "    int32_t *pending_pf;")
        messages = {f.message for f in run_lint(root, select=self.SELECT)
                    if "pending_pf" in f.message}
        assert messages == {
            "malloc into t.pending_pf: no buffer contract",
            "subscript t->pending_pf[k]: no buffer contract for the base",
            "subscript t->pending_pf[pending_len++]: no buffer contract"
            " for the base",
        }
