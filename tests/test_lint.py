"""Tests for reprolint: framework, every pass, suppression, CLI.

Each pass gets a pair of miniature project trees under
``tests/lint_fixtures/<pass>/`` — one ``clean`` (zero findings from
*any* pass) and one ``violation`` (known findings from the pass under
test).  The fixture trees mirror the real repository layout
(``src/repro/...``), which is exactly what
:class:`repro.lint.framework.Project` walks.
"""

import json
import pathlib
import shutil

import pytest

from repro.cli import main
from repro.lint import run_lint
from repro.lint.framework import registered_passes
from repro.lint.manifest import ORACLE_PATH
from repro.robustness.errors import ConfigError

FIXTURES = pathlib.Path(__file__).parent / "lint_fixtures"
REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

#: pass id -> (fixture directory, expected finding count in violation/)
PASS_FIXTURES = {
    "error-hierarchy": ("error_hierarchy", 3),
    "atomic-writes": ("atomic_writes", 4),
    "determinism": ("determinism", 5),
    "frozen-oracle": ("frozen_oracle", 2),
    "config-attrs": ("config_attrs", 3),
    "exhibit-registry": ("exhibit_registry", 3),
    "sweep-race": ("sweep_race", 4),
    "seed-provenance": ("seed_provenance", 4),
    "resource-paths": ("resource_paths", 3),
    "unreachable-code": ("unreachable_code", 4),
}


#: Passes added by the typestate layer; their fixture pairs are driven
#: by test_lint_typestate.py instead.
TYPESTATE_PASSES = frozenset({
    "shm-lifetime", "journal-protocol", "signal-safety",
})
#: Passes added by the kernel-certification layer; their fixture pairs
#: are driven by test_lint_certify.py.
CERTIFY_PASSES = frozenset({"kernel-bounds", "kernel-overflow"})


class TestRegistry:
    def test_all_fifteen_passes_registered(self):
        assert set(registered_passes()) == (
            set(PASS_FIXTURES) | TYPESTATE_PASSES | CERTIFY_PASSES
        )

    def test_unknown_select_rejected(self):
        with pytest.raises(ConfigError, match="unknown lint pass"):
            run_lint(REPO_ROOT, select=["no-such-pass"])

    def test_bad_root_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="no Python modules"):
            run_lint(tmp_path)


class TestPassFixtures:
    @pytest.mark.parametrize("pass_id", sorted(PASS_FIXTURES))
    def test_clean_fixture_has_no_findings(self, pass_id):
        root = FIXTURES / PASS_FIXTURES[pass_id][0] / "clean"
        assert run_lint(root) == []

    @pytest.mark.parametrize("pass_id", sorted(PASS_FIXTURES))
    def test_violation_fixture_is_flagged(self, pass_id):
        fixture, expected = PASS_FIXTURES[pass_id]
        findings = run_lint(
            FIXTURES / fixture / "violation", select=[pass_id]
        )
        assert len(findings) == expected
        assert all(f.pass_id == pass_id for f in findings)
        assert all(f.line >= 1 and f.path.startswith("src/repro")
                   for f in findings)

    def test_select_isolates_passes(self):
        """--select runs only the named passes: the determinism fixture's
        violations are invisible to a run selecting another pass."""
        root = FIXTURES / "determinism" / "violation"
        assert run_lint(root, select=["error-hierarchy"]) == []
        assert len(run_lint(root, select=["determinism"])) == 5

    def test_violation_details_error_hierarchy(self):
        findings = run_lint(
            FIXTURES / "error_hierarchy" / "violation",
            select=["error-hierarchy"],
        )
        assert [f.line for f in findings] == [6, 11, 16]
        assert "ValueError" in findings[0].message
        assert "RuntimeError" in findings[1].message
        assert "KeyError" in findings[2].message

    def test_violation_details_exhibit_registry(self):
        findings = run_lint(
            FIXTURES / "exhibit_registry" / "violation",
            select=["exhibit-registry"],
        )
        messages = "\n".join(f.message for f in findings)
        assert "defines no" in messages            # figure1 lost run()
        assert "does not exist" in messages        # ghost entry
        assert "is not registered" in messages     # figure2 on disk


class TestSuppression:
    ROOT = FIXTURES / "suppression"

    def test_disable_comment_silences_one_line(self):
        findings = run_lint(self.ROOT, select=["error-hierarchy"])
        assert len(findings) == 1  # only the unsuppressed raise
        assert findings[0].line == 11

    def test_disable_all_keyword(self, tmp_path):
        source = (self.ROOT / "src/repro/widget.py").read_text()
        target = tmp_path / "src" / "repro" / "widget.py"
        target.parent.mkdir(parents=True)
        target.write_text(  # reprolint: disable=atomic-writes
            source.replace("disable=error-hierarchy", "disable=all")
        )
        findings = run_lint(tmp_path, select=["error-hierarchy"])
        assert [f.line for f in findings] == [11]


class TestFrozenOracle:
    def _tree_with_oracle(self, tmp_path, mutate=None):
        target = tmp_path / ORACLE_PATH
        target.parent.mkdir(parents=True)
        source = (REPO_ROOT / ORACLE_PATH).read_text()
        if mutate is not None:
            source = mutate(source)
        target.write_text(source)  # reprolint: disable=atomic-writes
        return tmp_path

    def test_verbatim_oracle_matches_manifest(self, tmp_path):
        """The pinned hash in repro.lint.manifest matches the real file."""
        root = self._tree_with_oracle(tmp_path)
        assert run_lint(root, select=["frozen-oracle"]) == []

    def test_any_modification_fails(self, tmp_path):
        root = self._tree_with_oracle(
            tmp_path, mutate=lambda s: s + "\n# drive-by tweak\n"
        )
        findings = run_lint(root, select=["frozen-oracle"])
        assert len(findings) == 1
        assert "pinned" in findings[0].message

    def test_deleting_the_oracle_fails(self, tmp_path):
        engine = tmp_path / "src/repro/core/mlpsim.py"
        engine.parent.mkdir(parents=True)
        engine.write_text("def simulate():\n    return 0.0\n")  # reprolint: disable=atomic-writes
        findings = run_lint(tmp_path, select=["frozen-oracle"])
        assert len(findings) == 1
        assert "missing" in findings[0].message


class TestCli:
    def test_clean_tree_exits_zero(self, capsys):
        root = FIXTURES / "error_hierarchy" / "clean"
        assert main(["lint", "--root", str(root)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_violations_exit_nonzero_with_findings(self, capsys):
        root = FIXTURES / "error_hierarchy" / "violation"
        code = main([
            "lint", "--root", str(root), "--select", "error-hierarchy",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "src/repro/widget.py:6: [error-hierarchy]" in out
        assert "3 finding(s)" in out

    def test_json_format_is_structured(self, capsys):
        root = FIXTURES / "atomic_writes" / "violation"
        code = main([
            "lint", "--root", str(root), "--format", "json",
            "--select", "atomic-writes",
        ])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 4
        assert {f["pass"] for f in payload} == {"atomic-writes"}
        assert all(
            set(f) == {"path", "line", "pass", "severity", "message"}
            for f in payload
        )

    def test_comma_separated_select(self, capsys):
        root = FIXTURES / "determinism" / "violation"
        code = main([
            "lint", "--root", str(root),
            "--select", "determinism,error-hierarchy",
        ])
        assert code == 1
        assert "5 finding(s)" in capsys.readouterr().out

    def test_unknown_pass_exits_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", "--select", "bogus", "--root", str(REPO_ROOT)])
        assert excinfo.value.code == 2
        assert "unknown lint pass" in capsys.readouterr().err

    def test_list_passes(self, capsys):
        """--list shows every pass with its default severity AND its
        description, so the listing documents what failing means."""
        assert main(["lint", "--list"]) == 0
        out = capsys.readouterr().out
        for pass_id, cls in registered_passes().items():
            matching = [line for line in out.splitlines()
                        if line.startswith(pass_id)]
            assert len(matching) == 1, pass_id
            line = matching[0]
            assert cls.severity.value in line.split()
            assert cls.description in line


class TestFrameworkDetails:
    def test_every_file_parsed_exactly_once(self, monkeypatch):
        """The shared AST cache means no pass re-parses a file: every
        (file, parse-kind) ledger entry is exactly 1 even with all
        fifteen passes running — including the one C parse of a kernel
        as compiled (its rendered header, then its source).
        The certifier's process-wide reports start empty, so the C
        kernel is parsed here rather than served from an earlier
        test's analysis."""
        from repro.lint import certify

        monkeypatch.setattr(certify, "_REPORTS", {})
        stats = {}
        run_lint(FIXTURES / "plan_contract" / "clean", stats=stats)
        assert stats["parse_counts"], "parse ledger is empty"
        repeated = {
            key: count for key, count in stats["parse_counts"].items()
            if count != 1
        }
        assert repeated == {}
        kinds = {kind for _, kind in stats["parse_counts"]}
        assert kinds == {"py", "c-unit"}
        assert stats["files_parsed"] == len(
            {relpath for relpath, _ in stats["parse_counts"]}
        )

    def test_stats_reports_every_pass_wall_time(self):
        stats = {}
        run_lint(
            FIXTURES / "error_hierarchy" / "clean",
            select=["error-hierarchy", "determinism"], stats=stats,
        )
        entries = {entry["id"]: entry for entry in stats["passes"]}
        assert set(entries) == {"error-hierarchy", "determinism"}
        assert all(entry["seconds"] >= 0 for entry in entries.values())
        assert all(entry["findings"] == 0 for entry in entries.values())

    def test_parse_error_is_reported_not_raised(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "broken.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def broken(:\n")  # reprolint: disable=atomic-writes
        findings = run_lint(tmp_path)
        assert len(findings) == 1
        assert findings[0].pass_id == "parse"

    def test_findings_sorted_and_formatted(self):
        findings = run_lint(
            FIXTURES / "determinism" / "violation", select=["determinism"]
        )
        assert findings == sorted(findings)
        line = findings[0].format()
        assert line.startswith("src/repro/engine.py:")
        assert "[determinism] error:" in line

    def test_fixture_trees_stay_isolated(self, tmp_path):
        """A fixture copied elsewhere lints identically (findings carry
        root-relative paths, not absolute ones)."""
        src = FIXTURES / "error_hierarchy" / "violation"
        dst = tmp_path / "copy"
        shutil.copytree(src, dst)
        assert run_lint(dst, select=["error-hierarchy"]) == run_lint(
            src, select=["error-hierarchy"]
        )
