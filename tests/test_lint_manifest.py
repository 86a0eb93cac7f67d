"""Tests for ``repro lint --manifest-update``.

Covers the regeneration flow over a copy of the *real* pinned sources:
idempotence on a clean tree, byte-identical regeneration of a stale
manifest, an edit outside the two hashes surviving an update, the
dirty-tree interlock (a pinned oracle may be dirty, an unrelated file
may not), the refusal to pin an oracle that cannot be read, and the
CLI report.
"""

import pathlib
import shutil
import subprocess

import pytest

from repro.cli import main
from repro.lint.manifest import (
    CYCLESIM_ORACLE_PATH,
    CYCLESIM_ORACLE_SHA256,
    ORACLE_PATH,
    ORACLE_SHA256,
)
from repro.lint.update import (
    MANIFEST_PATH,
    ManifestUpdateError,
    update_manifest,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Everything the manifest pins, copied verbatim from the real tree so
#: the edit tests exercise the production oracles.
_PINNED_SOURCES = (
    "src/repro/core/mlpsim.py",  # an unpinned file the dirty-tree test edits
    ORACLE_PATH,
    CYCLESIM_ORACLE_PATH,
)


def _real_tree(tmp_path):
    """A minimal tree of the *real* sources the manifest pins."""
    for relpath in _PINNED_SOURCES:
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


def _stale_manifest(root):
    """Put stale hashes into the copied manifest's two pins (an
    allowed dirty path: regenerating it is the whole point of the
    command)."""
    for sha in (ORACLE_SHA256, CYCLESIM_ORACLE_SHA256):
        _edit(root, MANIFEST_PATH, sha, "0" * 64)


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

    def test_regenerates_a_stale_manifest_atomically(self, tmp_path):
        root = _git_tree(tmp_path)
        _stale_manifest(root)
        result = update_manifest(root)
        assert result["changed"] is True
        content = (root / MANIFEST_PATH).read_text()
        assert ORACLE_SHA256 in content
        assert CYCLESIM_ORACLE_SHA256 in content
        # Byte-identical to the checked-in manifest: only the two
        # hashes were rewritten.
        assert content == (REPO_ROOT / MANIFEST_PATH).read_text()
        # No temp-file droppings from the atomic replace.
        leftovers = list((root / MANIFEST_PATH).parent.glob(".manifest-*"))
        assert leftovers == []

    def test_an_edit_outside_the_hashes_survives_an_update(self, tmp_path):
        """The update rewrites the two hash literals in the manifest's
        own text: an edit anywhere else is kept, with stale hashes and
        with current ones."""
        root = _git_tree(tmp_path)
        _edit(root, MANIFEST_PATH, "Pinned content hashes",
              "Pinned content digests")
        edited = (root / MANIFEST_PATH).read_text()
        assert update_manifest(root)["changed"] is False
        assert (root / MANIFEST_PATH).read_text() == edited
        _stale_manifest(root)
        assert update_manifest(root)["changed"] is True
        assert (root / MANIFEST_PATH).read_text() == edited

    def test_refuses_a_manifest_without_its_pins(self, tmp_path):
        root = _git_tree(tmp_path)
        _edit(root, MANIFEST_PATH, "CYCLESIM_ORACLE_SHA256 = (",
              "CYCLESIM_SHA256 = (")
        with pytest.raises(ManifestUpdateError, match="CYCLESIM_ORACLE"):
            update_manifest(root)

    def test_oracle_edit_plus_manifest_is_allowed_dirty(self, tmp_path):
        root = _git_tree(tmp_path)
        _edit(root, ORACLE_PATH, '"""', '"""Edited.  ')
        result = update_manifest(root)
        assert result["changed"] is True
        assert result["oracle_sha256"] != ORACLE_SHA256
        assert result["cyclesim_oracle_sha256"] == CYCLESIM_ORACLE_SHA256

    def test_refuses_when_an_oracle_cannot_be_read(self, tmp_path):
        root = _git_tree(tmp_path)
        (root / CYCLESIM_ORACLE_PATH).unlink()
        with pytest.raises(ManifestUpdateError, match="cannot read"):
            update_manifest(root)

    def test_cli_flag_regenerates_and_reports(self, tmp_path, capsys):
        root = _git_tree(tmp_path)
        _stale_manifest(root)
        code = main(["lint", "--manifest-update", "--root", str(root)])
        out = capsys.readouterr().out
        assert code == 0
        assert "regenerated" in out
        assert ORACLE_SHA256 in out
        assert CYCLESIM_ORACLE_SHA256 in out

    def test_cli_flag_exits_two_on_dirty_tree(self, tmp_path, capsys):
        root = _git_tree(tmp_path)
        # Throwaway tree; durability is moot.
        (root / "stray.txt").write_text("uncommitted\n")  # reprolint: disable=atomic-writes
        code = main(["lint", "--manifest-update", "--root", str(root)])
        err = capsys.readouterr().err
        assert code == 2
        assert "dirty tree" in err
