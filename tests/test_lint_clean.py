"""The merged tree is reprolint-clean: every invariant holds right now.

This is the enforcement tier: ``repro lint`` runs all seventeen passes
over the real repository (``src/repro``, ``tests`` and ``examples``)
and must report nothing.  A failure here means a commit introduced a
bare stdlib raise, a non-atomic result write, a nondeterminism hazard,
an edit to the frozen oracle, a misspelled config field, a stale
exhibit registry, a pool worker mutating shared state, a
wall-clock-tainted RNG seed, a leakable write handle, unreachable
code, a plan payload schema change without a version bump, a
typestate-protocol violation — or an unprovable kernel
subscript/overflow or a plan-contract drift: the interval
certification (``kernel-bounds``/``kernel-overflow``/``plan-contract``)
is part of this tier, so the compiled kernels stay machine-checked
against the ranges the Python validators enforce.  The assertion
output carries the exact file, line and message.
"""

import pathlib

from repro.cli import main
from repro.lint import Severity, run_lint

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_repository_is_lint_clean():
    findings = run_lint(REPO_ROOT)
    errors = [f for f in findings if f.severity is Severity.ERROR]
    report = "\n".join(f.format() for f in errors)
    assert errors == [], f"reprolint found violations:\n{report}"


def test_cli_exits_zero_on_repository(capsys):
    assert main(["lint", "--root", str(REPO_ROOT)]) == 0
    assert "0 finding(s)" in capsys.readouterr().out
