"""Tests for the payload-schema layer of reprolint.

Covers the ``schema-version`` pass over its fixture pair, the schema
mutations the pass exists for (run against copies of the *real*
columnar sources), and the ``repro lint --manifest-update``
regeneration flow with its dirty-tree interlock.
"""

import pathlib
import shutil
import subprocess

import pytest

from repro.cli import main
from repro.lint import run_lint
from repro.lint.manifest import (
    CYCLESIM_ORACLE_PATH,
    CYCLESIM_ORACLE_SHA256,
    ORACLE_PATH,
    ORACLE_SHA256,
    PAYLOAD_SCHEMA_PATH,
    PAYLOAD_SCHEMA_SHA256,
)
from repro.lint.update import (
    MANIFEST_PATH,
    ManifestUpdateError,
    update_manifest,
)

FIXTURES = pathlib.Path(__file__).parent / "lint_fixtures"
REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

#: pass id -> (fixture directory, expected finding count in violation/)
PARITY_FIXTURES = {
    "schema-version": ("schema_version", 1),
}

#: Everything the manifest pins, copied verbatim from the real tree so
#: mutation tests exercise the production contract.
_PARITY_SOURCES = (
    "src/repro/core/mlpsim.py",  # an unpinned file the dirty-tree test edits
    "src/repro/cyclesim/plan.py",  # CYCLE_PLAN_CONTRACT fingerprint pin
    "src/repro/trace/ckernel.py",  # ANNOTATE_CONTRACT fingerprint pin
    "src/repro/workloads/ckernel.py",  # GENERATE_CONTRACT fingerprint pin
    PAYLOAD_SCHEMA_PATH,
    ORACLE_PATH,
    CYCLESIM_ORACLE_PATH,
)


class TestParityFixtures:
    @pytest.mark.parametrize("pass_id", sorted(PARITY_FIXTURES))
    def test_clean_fixture_has_no_findings(self, pass_id):
        root = FIXTURES / PARITY_FIXTURES[pass_id][0] / "clean"
        assert run_lint(root) == []

    @pytest.mark.parametrize("pass_id", sorted(PARITY_FIXTURES))
    def test_violation_fixture_is_flagged(self, pass_id):
        fixture, expected = PARITY_FIXTURES[pass_id]
        findings = run_lint(
            FIXTURES / fixture / "violation", select=[pass_id]
        )
        assert len(findings) == expected
        assert all(f.pass_id == pass_id for f in findings)

    def test_schema_change_without_bump_is_the_one_finding(self):
        findings = run_lint(
            FIXTURES / "schema_version" / "violation",
            select=["schema-version"],
        )
        assert len(findings) == 1
        assert "COLUMNAR_SCHEMA_VERSION is still 2" in findings[0].message


def _real_tree(tmp_path):
    """A minimal tree of the *real* sources the manifest pins."""
    for relpath in _PARITY_SOURCES:
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

    SELECT = ["schema-version"]

    def test_unmutated_copy_is_clean(self, tmp_path):
        assert run_lint(_real_tree(tmp_path), select=self.SELECT) == []

    def test_dropped_payload_column_without_bump(self, tmp_path):
        root = _real_tree(tmp_path)
        _edit(root, PAYLOAD_SCHEMA_PATH, '    ("vp_ok", np.bool_),\n', "")
        findings = run_lint(root, select=self.SELECT)
        assert len(findings) == 1
        assert findings[0].pass_id == "schema-version"
        assert "COLUMNAR_SCHEMA_VERSION is still 2" in findings[0].message

    def test_version_bump_without_regeneration(self, tmp_path):
        root = _real_tree(tmp_path)
        _edit(root, PAYLOAD_SCHEMA_PATH,
              "COLUMNAR_SCHEMA_VERSION = 2", "COLUMNAR_SCHEMA_VERSION = 3")
        findings = run_lint(root, select=self.SELECT)
        assert len(findings) == 1
        assert findings[0].pass_id == "schema-version"
        assert "manifest pins 2" in findings[0].message


def _git(root, *args):
    subprocess.run(
        ["git", "-C", str(root),
         "-c", "user.email=fixture@example.invalid",
         "-c", "user.name=fixture", *args],
        check=True, capture_output=True,
    )


def _git_tree(tmp_path):
    """A committed git work tree holding the real pinned sources."""
    root = _real_tree(tmp_path)
    manifest_dst = root / MANIFEST_PATH
    manifest_dst.parent.mkdir(parents=True, exist_ok=True)
    shutil.copy(REPO_ROOT / MANIFEST_PATH, manifest_dst)
    _git(root, "init", "-q")
    _git(root, "add", "-A")
    _git(root, "commit", "-qm", "seed")
    return root


class TestManifestUpdate:
    def test_refuses_outside_a_git_tree(self, tmp_path):
        _real_tree(tmp_path)
        with pytest.raises(ManifestUpdateError, match="git"):
            update_manifest(tmp_path)

    def test_refuses_on_unrelated_dirty_file(self, tmp_path):
        root = _git_tree(tmp_path)
        # Dirtying a throwaway git tree on purpose; durability is moot.
        (root / "src" / "repro" / "core" / "mlpsim.py").write_text(  # reprolint: disable=atomic-writes
            (root / "src" / "repro" / "core" / "mlpsim.py").read_text()
            + "\n# drive-by\n"
        )
        with pytest.raises(ManifestUpdateError, match="dirty tree"):
            update_manifest(root)

    def test_clean_tree_is_idempotent(self, tmp_path):
        root = _git_tree(tmp_path)
        result = update_manifest(root)
        assert result["changed"] is False
        assert result["oracle_sha256"] == ORACLE_SHA256
        assert result["cyclesim_oracle_sha256"] == CYCLESIM_ORACLE_SHA256
        assert result["payload_schema_sha256"] == PAYLOAD_SCHEMA_SHA256

    def test_regenerates_a_stale_manifest_atomically(self, tmp_path):
        root = _git_tree(tmp_path)
        # A dirty manifest is an *allowed* dirty path: regenerating it
        # is the whole point of the command (throwaway tree, plain
        # write is fine).
        (root / MANIFEST_PATH).write_text("# stale placeholder\n")  # reprolint: disable=atomic-writes
        result = update_manifest(root)
        assert result["changed"] is True
        content = (root / MANIFEST_PATH).read_text()
        assert ORACLE_SHA256 in content
        assert CYCLESIM_ORACLE_SHA256 in content
        assert PAYLOAD_SCHEMA_SHA256 in content
        # Byte-identical to the checked-in manifest: the template and
        # the real file cannot drift apart unnoticed.
        assert content == (REPO_ROOT / MANIFEST_PATH).read_text()
        # No temp-file droppings from the atomic replace.
        leftovers = list((root / MANIFEST_PATH).parent.glob(".manifest-*"))
        assert leftovers == []

    def test_schema_edit_plus_manifest_is_allowed_dirty(self, tmp_path):
        root = _git_tree(tmp_path)
        _edit(root, PAYLOAD_SCHEMA_PATH,
              '    ("vp_ok", np.bool_),\n', "")
        result = update_manifest(root)
        assert result["changed"] is True
        assert result["payload_schema_sha256"] != PAYLOAD_SCHEMA_SHA256

    def test_refuses_when_columns_cannot_be_extracted(self, tmp_path):
        root = _git_tree(tmp_path)
        _edit(root, PAYLOAD_SCHEMA_PATH, "PLAN_COLUMNS", "OTHER_COLUMNS",
              count=1)
        with pytest.raises(ManifestUpdateError, match="PLAN_COLUMNS"):
            update_manifest(root)

    def test_cli_flag_regenerates_and_reports(self, tmp_path, capsys):
        root = _git_tree(tmp_path)
        # Throwaway tree; durability is moot.
        (root / MANIFEST_PATH).write_text("# stale placeholder\n")  # reprolint: disable=atomic-writes
        code = main(["lint", "--manifest-update", "--root", str(root)])
        out = capsys.readouterr().out
        assert code == 0
        assert "regenerated" in out
        assert ORACLE_SHA256 in out or ORACLE_SHA256 in \
            (root / MANIFEST_PATH).read_text()

    def test_cli_flag_exits_two_on_dirty_tree(self, tmp_path, capsys):
        root = _git_tree(tmp_path)
        # Throwaway tree; durability is moot.
        (root / "stray.txt").write_text("uncommitted\n")  # reprolint: disable=atomic-writes
        code = main(["lint", "--manifest-update", "--root", str(root)])
        err = capsys.readouterr().err
        assert code == 2
        assert "dirty tree" in err
