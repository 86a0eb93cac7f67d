"""Tests for the kernel-certification layer of reprolint.

Covers the three certify passes (``kernel-bounds``,
``kernel-overflow``, ``plan-contract``) over their fixture pairs, and
the acceptance mutations run against copies of the *real* kernel and
plan-builder sources (and, for a struct field, against the header the
package renders): one off-by-one subscript bound, one
accumulator-width narrowing, one contract-range change without a
manifest regeneration — each must yield exactly one finding carrying
the witness interval the abstract interpreter computed.
"""

import pathlib
import shutil

import pytest

from repro.lint import run_lint

FIXTURES = pathlib.Path(__file__).parent / "lint_fixtures"
REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

#: pass id -> (fixture directory, expected finding count in violation/)
CERTIFY_FIXTURES = {
    "kernel-bounds": ("kernel_bounds", 1),
    "kernel-overflow": ("kernel_overflow", 1),
    "plan-contract": ("plan_contract", 1),
}

MLPSIM_KERNEL = "src/repro/core/_mlpsim_kernel.c"
CYCLESIM_KERNEL = "src/repro/cyclesim/_cyclesim_kernel.c"
COLUMNAR = "src/repro/core/columnar.py"
CYCLE_PLAN = "src/repro/cyclesim/plan.py"

#: Everything the three certify passes read, copied verbatim from the
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
    @pytest.mark.parametrize("pass_id", sorted(CERTIFY_FIXTURES))
    def test_clean_fixture_has_no_findings(self, pass_id):
        root = FIXTURES / CERTIFY_FIXTURES[pass_id][0] / "clean"
        assert run_lint(root) == []

    @pytest.mark.parametrize("pass_id", sorted(CERTIFY_FIXTURES))
    def test_violation_fixture_is_flagged(self, pass_id):
        fixture, expected = CERTIFY_FIXTURES[pass_id]
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
            select=["plan-contract"],
        )
        assert finding.path == COLUMNAR
        assert "columns.dmiss" in finding.message
        assert "[0, 2]" in finding.message


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

    SELECT = ["kernel-bounds", "kernel-overflow", "plan-contract"]

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
        """Editing one PLAN_CONTRACT range is caught before the manifest
        fingerprint even enters: the literal no longer equals the facts
        the kernel proof assumed."""
        root = _real_tree(tmp_path)
        _edit(root, COLUMNAR, '"ops": [0, 8],', '"ops": [0, 9],')
        findings = run_lint(root, select=self.SELECT)
        assert len(findings) == 1
        assert findings[0].pass_id == "plan-contract"
        assert findings[0].path == COLUMNAR
        assert "columns.ops" in findings[0].message
        assert "[0, 9]" in findings[0].message

    def test_validator_no_longer_dominates(self, tmp_path):
        """Moving the validator call behind a condition breaks the
        dominance proof even though the call still exists."""
        root = _real_tree(tmp_path)
        _edit(
            root, "src/repro/core/ckernel.py",
            "    validate_plan_contract(plan, configs)",
            "    if len(plan) > 1000:\n"
            "        validate_plan_contract(plan, configs)",
        )
        findings = run_lint(root, select=self.SELECT)
        assert len(findings) == 1
        assert findings[0].pass_id == "plan-contract"
        assert findings[0].path == "src/repro/core/ckernel.py"
        assert "not" in findings[0].message
        assert "dominated" in findings[0].message


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
