"""error-hierarchy: rejections must raise a ReproError subclass.

PR 1 introduced the :mod:`repro.robustness.errors` hierarchy so every
rejection carries a path/field and stays ``ValueError``-compatible.
This pass makes the convention load-bearing: any ``raise`` of a bare
stdlib exception inside ``src/repro`` is a violation.

Exemptions:

* ``src/repro/robustness/`` — the hierarchy's own home (its tests and
  fault harness raise bare exceptions on purpose);
* ``NotImplementedError`` / ``StopIteration`` and re-raises
  (``raise`` with no expression) — standard Python idioms, not
  rejections.
"""

import ast

from repro.lint.astutil import dotted_name
from repro.lint.framework import LintPass, register

#: Stdlib exceptions that indicate an unconverted rejection site.
BARE_EXCEPTIONS = frozenset({
    "Exception",
    "BaseException",
    "ValueError",
    "TypeError",
    "KeyError",
    "IndexError",
    "LookupError",
    "RuntimeError",
    "ArithmeticError",
    "ZeroDivisionError",
    "AttributeError",
    "OSError",
    "IOError",
})

EXEMPT_PREFIXES = ("src/repro/robustness/",)


@register
class ErrorHierarchyPass(LintPass):
    id = "error-hierarchy"
    description = (
        "raise statements in src/repro must use a ReproError subclass,"
        " not a bare stdlib exception"
    )

    def check_module(self, module, project):
        if module.relpath.startswith(EXEMPT_PREFIXES):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            if isinstance(exc, ast.Call):
                exc = exc.func
            name = dotted_name(exc)
            if name in BARE_EXCEPTIONS:
                yield self.finding(
                    module, node.lineno,
                    f"raises bare {name}; use a ReproError subclass from"
                    " repro.robustness.errors (ConfigError,"
                    " TraceFormatError, SimulationError, InternalError)",
                )
