"""The reprolint pass framework: registry, file walking, suppression.

A pass subclasses :class:`LintPass`, sets a kebab-case :attr:`~LintPass.id`,
and overrides :meth:`~LintPass.check_module` (called once per source
module with its parsed AST) and/or :meth:`~LintPass.check_project`
(called once per run, for cross-file invariants such as registry
completeness).  Registration happens at class-definition time via the
:func:`register` decorator, so importing :mod:`repro.lint.passes` is
all it takes to make a pass available to :func:`run_lint`, the CLI and
the test suite.

Suppression: a line containing ``# reprolint: disable=<id>`` (several
ids comma-separated, or ``all``) silences findings reported *at that
line*.  Suppressions are parsed per physical line, so the comment goes
on the line the finding points at — for a multi-line statement, the
line where it starts.
"""

import ast
import pathlib
import re

from repro.lint.findings import Finding, Severity
from repro.robustness.errors import ConfigError

#: Where the linted source tree lives, relative to the project root.
SOURCE_ROOT = "src/repro"

#: All roots a lint run walks.  ``src/repro`` is the library; tests
#: and examples ride along so their determinism/write/flow hygiene is
#: enforced too (a test that seeds from the wall clock flakes just as
#: hard as an engine that does).
SOURCE_ROOTS = (SOURCE_ROOT, "tests", "examples")

#: Subtrees never walked: the lint fixture miniatures *contain
#: violations on purpose* — they are what the lint test suite runs
#: the passes against.
EXCLUDED_PREFIXES = ("tests/lint_fixtures/",)

_SUPPRESS_RE = re.compile(r"#\s*reprolint:\s*disable=([A-Za-z0-9_\-, ]+)")


class ModuleInfo:
    """One parsed source module presented to the passes.

    Attributes
    ----------
    relpath:
        POSIX-style path relative to the project root
        (e.g. ``src/repro/core/mlpsim.py``) — the path findings carry.
    source:
        The module text (``\\r\\n`` normalised to ``\\n``).
    tree:
        The parsed :mod:`ast` module, or ``None`` when the file does
        not parse (the framework reports that as a finding itself).
    suppressions:
        Mapping of line number to the set of pass ids disabled there.
    """

    def __init__(self, relpath, source):
        self.relpath = relpath
        self.source = source.replace("\r\n", "\n")
        try:
            self.tree = ast.parse(self.source)
            self.parse_error = None
        except SyntaxError as error:
            self.tree = None
            self.parse_error = error
        self.suppressions = _parse_suppressions(self.source)

    def suppressed(self, line, pass_id):
        """True if *pass_id* is disabled at *line*."""
        disabled = self.suppressions.get(line)
        return disabled is not None and (
            pass_id in disabled or "all" in disabled
        )


def _parse_suppressions(source):
    suppressions = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(text)
        if match:
            ids = {item.strip() for item in match.group(1).split(",")}
            suppressions[lineno] = {item for item in ids if item}
    return suppressions


class Project:
    """The file set of one lint run, rooted at a repository checkout.

    Walks ``<root>/src/repro``, ``<root>/tests`` and
    ``<root>/examples`` (``**/*.py``, minus the lint fixture
    miniatures) eagerly so that project-level passes can
    cross-reference modules.  Fixture trees in the test suite use the
    same layout, which is what makes every pass testable against a
    miniature repository.
    """

    def __init__(self, root):
        self.root = pathlib.Path(root)
        self.modules = []
        #: ``(relpath, kind)`` -> number of times that file's AST was
        #: built this run.  ``kind`` distinguishes the parsers that
        #: legitimately each run once over a file ("py" for the Python
        #: AST, "c-extract" for kernel declarations, "c-unit" for the
        #: certifier's statement bodies); the lint test suite asserts
        #: every count stays at exactly 1, which is what makes the
        #: shared module list and the certifier's memoised reports
        #: load-bearing rather than decorative.
        self.parse_counts = {}
        relpaths = set()
        for source_root in SOURCE_ROOTS:
            base = self.root / source_root
            if not base.is_dir():
                continue
            for path in sorted(base.rglob("*.py")):
                relpath = path.relative_to(self.root).as_posix()
                if relpath.startswith(EXCLUDED_PREFIXES):
                    continue
                relpaths.add(relpath)
        for relpath in sorted(relpaths):
            self.count_parse(relpath, "py")
            self.modules.append(
                ModuleInfo(relpath, (self.root / relpath).read_text())
            )

    def count_parse(self, relpath, kind):
        """Record one AST build of *relpath* in the parse ledger."""
        key = (relpath, kind)
        self.parse_counts[key] = self.parse_counts.get(key, 0) + 1

    def module(self, relpath):
        """Look up a module by root-relative POSIX path (or ``None``)."""
        for module in self.modules:
            if module.relpath == relpath:
                return module
        return None

    def read_text(self, relpath):
        """Text of any file under the root, or ``None`` when absent.

        The walk only parses ``*.py``, but cross-language passes also
        need the raw text of non-Python sources (the C kernel); the
        same ``\\r\\n`` normalisation as :class:`ModuleInfo` applies so
        extracted line content compares stably across checkouts.
        """
        path = self.root / relpath
        if not path.is_file():
            return None
        return path.read_text().replace("\r\n", "\n")

    def c_extract(self, relpath, header):
        """The declarations of the C source at *relpath* as the
        compiler reads them: *header*, the kernel's rendered header,
        then the source.  Returns ``None`` when the file is absent.

        The certifier (:mod:`repro.lint.certify`) calls this once per
        kernel and run; the parse ledger holds it to that.
        """
        source = self.read_text(relpath)
        if source is None:
            return None
        from repro.lint.clang_parity.cextract import extract_c

        self.count_parse(relpath, "c-extract")
        return extract_c(source, extract_c(header))


class LintPass:
    """Base class for one enforced invariant.

    Subclasses set :attr:`id` (the kebab-case name used by
    ``--select`` and suppression comments) and :attr:`description`
    (one line, shown by ``repro lint --list``), then override one or
    both hooks.  Hooks yield :class:`~repro.lint.findings.Finding`
    records; the framework applies suppression filtering afterwards.

    :attr:`severity` is the pass's default severity — what
    :meth:`finding` stamps unless a call overrides it, and what
    ``repro lint --list`` reports.  ``ERROR`` passes fail the build;
    a new pass can ship as ``WARNING`` to observe before enforcing.
    """

    id = None
    description = ""
    severity = Severity.ERROR

    def check_module(self, module, project):
        """Yield findings for one parsed module (default: none)."""
        return ()

    def check_project(self, project):
        """Yield project-wide findings after all modules (default: none)."""
        return ()

    def finding(self, module_or_path, line, message, severity=None):
        """Convenience constructor stamping this pass's id."""
        path = getattr(module_or_path, "relpath", module_or_path)
        return Finding(
            path=path, line=line, pass_id=self.id, message=message,
            severity=self.severity if severity is None else severity,
        )


_REGISTRY = {}


def register(cls):
    """Class decorator adding a :class:`LintPass` to the registry."""
    if not cls.id:
        raise ConfigError(f"lint pass {cls.__name__} has no id")
    if cls.id in _REGISTRY:
        raise ConfigError(f"duplicate lint pass id {cls.id!r}")
    _REGISTRY[cls.id] = cls
    return cls


def registered_passes():
    """Return the pass registry as ``{id: class}``, importing the
    built-in passes on first use."""
    import repro.lint.passes  # noqa: F401  (registers via decorator)

    return dict(_REGISTRY)


def run_lint(root, select=None, stats=None):
    """Run the (selected) passes over the tree at *root*.

    Parameters
    ----------
    root:
        Project root: the directory containing ``src/repro``.  Fixture
        roots with the same layout work identically.
    select:
        Optional iterable of pass ids to run; ``None`` runs every
        registered pass.  Unknown ids raise
        :class:`~repro.robustness.errors.ConfigError`.
    stats:
        Optional dict, filled in place with run telemetry: ``passes``
        (list of ``{"id", "seconds", "findings"}`` in execution
        order), ``parse_counts`` (the project's ``(relpath, kind)``
        ledger) and ``files_parsed``.  Drives ``repro lint --stats``
        and the exactly-once-parse assertion in the test suite.

    Returns
    -------
    list of Finding
        Suppression-filtered, sorted by (path, line, pass id).
    """
    import time
    registry = registered_passes()
    if select is None:
        selected = list(registry)
    else:
        selected = list(select)
        unknown = sorted(set(selected) - set(registry))
        if unknown:
            raise ConfigError(
                f"unknown lint pass(es) {unknown}; available:"
                f" {sorted(registry)}"
            )
    project = Project(root)
    if not project.modules:
        raise ConfigError(
            f"no Python modules under {pathlib.Path(root) / SOURCE_ROOT};"
            " pass the project root (the directory containing"
            " src/repro)"
        )
    findings = []
    for module in project.modules:
        if module.parse_error is not None:
            findings.append(Finding(
                path=module.relpath,
                line=module.parse_error.lineno or 1,
                pass_id="parse",
                message=f"file does not parse: {module.parse_error.msg}",
            ))
    pass_stats = []
    for pass_id in selected:
        lint_pass = registry[pass_id]()
        started = time.perf_counter()
        reported = 0
        for module in project.modules:
            if module.tree is None:
                continue
            for finding in lint_pass.check_module(module, project):
                if not module.suppressed(finding.line, pass_id):
                    findings.append(finding)
                    reported += 1
        for finding in lint_pass.check_project(project):
            module = project.module(finding.path)
            if module is None or not module.suppressed(
                finding.line, pass_id
            ):
                findings.append(finding)
                reported += 1
        pass_stats.append({
            "id": pass_id,
            "seconds": time.perf_counter() - started,
            "findings": reported,
        })
    if stats is not None:
        stats["passes"] = pass_stats
        stats["parse_counts"] = dict(project.parse_counts)
        stats["files_parsed"] = len(
            {relpath for relpath, _ in project.parse_counts}
        )
    return sorted(findings)
