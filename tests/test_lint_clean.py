"""The merged tree is reprolint-clean: every invariant holds right now.

This is the enforcement tier: ``repro lint`` runs all fifteen passes
over the real repository (``src/repro``, ``tests`` and ``examples``)
and must report nothing.  A failure here means a commit introduced a
bare stdlib raise, a non-atomic result write, a nondeterminism hazard,
an edit to the frozen oracle, a misspelled config field, a stale
exhibit registry, a pool worker mutating shared state, a
wall-clock-tainted RNG seed, a leakable write handle, unreachable
code, a typestate-protocol violation — or an unprovable kernel
subscript/overflow: the interval certification
(``kernel-bounds``/``kernel-overflow``) is part of this tier, so the
compiled kernels stay machine-checked against the declarations every
kernel call is checked against.  The assertion output carries the
exact file, line and message.

The tree is linted once, through the CLI; both tests read that run.
"""

import contextlib
import io
import pathlib

import pytest

import repro.lint
from repro.cli import main
from repro.lint import Severity

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def cli_lint():
    """``(findings, exit code, stdout)`` of one ``repro lint`` run."""
    real_run_lint = repro.lint.run_lint
    runs = []

    def recording_run_lint(*args, **kwargs):
        runs.append(real_run_lint(*args, **kwargs))
        return runs[-1]

    out = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, \
            contextlib.redirect_stdout(out):
        patch.setattr(repro.lint, "run_lint", recording_run_lint)
        code = main(["lint", "--root", str(REPO_ROOT)])
    (findings,) = runs
    return findings, code, out.getvalue()


def test_repository_is_lint_clean(cli_lint):
    findings, _, _ = cli_lint
    errors = [f for f in findings if f.severity is Severity.ERROR]
    report = "\n".join(f.format() for f in errors)
    assert errors == [], f"reprolint found violations:\n{report}"


def test_cli_exits_zero_on_repository(cli_lint):
    _, code, out = cli_lint
    assert code == 0
    assert "0 finding(s)" in out
