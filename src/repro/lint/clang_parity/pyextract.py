"""AST extractors for the columnar plan payload schema.

The ``schema-version`` pass reads these facts from parsed modules
(never by importing them: lint must work on a tree that does not
import):

* module-level integer constants like ``COLUMNAR_SCHEMA_VERSION = 2``
  (:func:`int_constant`), folded with the same operator whitelist the
  C define evaluator uses;
* the ``PLAN_COLUMNS`` payload schema (:func:`plan_columns`) plus the
  extra literal keys ``plan_payload`` packs (:func:`payload_extras`),
  fingerprinted by :func:`schema_fingerprint` for the lint manifest.

Every extractor returns ``None`` when the shape it looks for is
absent, so fixture miniatures can carry only the pieces a test
exercises.
"""

import ast
import hashlib

from repro.lint.astutil import dotted_name, str_constant
from repro.lint.clang_parity.cextract import _INT_BINOPS, _INT_UNARYOPS


def _last_segment(name):
    return name.rsplit(".", 1)[-1] if name else None


def fold_int(node):
    """Fold a constant integer expression AST, or ``None``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, int) \
            and not isinstance(node.value, bool):
        return node.value
    if isinstance(node, ast.BinOp) and type(node.op) in _INT_BINOPS:
        left, right = fold_int(node.left), fold_int(node.right)
        if left is None or right is None:
            return None
        try:
            return _INT_BINOPS[type(node.op)](left, right)
        except (ValueError, ZeroDivisionError, OverflowError):
            return None
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, _INT_UNARYOPS):
        operand = fold_int(node.operand)
        if operand is None:
            return None
        if isinstance(node.op, ast.USub):
            return -operand
        if isinstance(node.op, ast.Invert):
            return ~operand
        return operand
    return None


def int_constant(tree, name):
    """Module-level ``name = <int expr>`` as ``(value, lineno)`` or ``None``."""
    for stmt in tree.body:
        if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and stmt.targets[0].id == name):
            value = fold_int(stmt.value)
            if value is not None:
                return value, stmt.lineno
    return None


def plan_columns(tree):
    """The ``PLAN_COLUMNS`` schema: ``([(name, dtype, lineno)], lineno)``.

    Dtypes are normalised to their last segment (``np.int8`` ->
    ``int8``) so the fingerprint is stable under import-style changes.
    """
    for stmt in tree.body:
        if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and stmt.targets[0].id == "PLAN_COLUMNS"
                and isinstance(stmt.value, (ast.Tuple, ast.List))):
            columns = []
            for element in stmt.value.elts:
                if not (isinstance(element, (ast.Tuple, ast.List))
                        and len(element.elts) == 2):
                    continue
                name = str_constant(element.elts[0])
                dtype = _last_segment(dotted_name(element.elts[1]))
                if name is not None:
                    columns.append((name, dtype, element.lineno))
            return columns, stmt.lineno
    return None


def payload_extras(tree):
    """Extra literal keys ``plan_payload`` packs beside the columns.

    Scans the ``plan_payload`` function for ``payload["key"] = ...``
    stores on its dict; the schema fingerprint covers them so adding a
    second meta record is a schema change like any other.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "plan_payload":
            keys = []
            for stmt in ast.walk(node):
                if not isinstance(stmt, ast.Assign):
                    continue
                for target in stmt.targets:
                    if isinstance(target, ast.Subscript):
                        key = str_constant(target.slice)
                        if key is not None:
                            keys.append(key)
            return sorted(set(keys))
    return None


def schema_fingerprint(columns, extras):
    """SHA-256 fingerprint of the payload column set.

    Canonical form: one ``name:dtype`` line per column in order, then
    one ``+extra`` line per sorted extra key.  Pinned in
    ``repro.lint.manifest`` and regenerated by
    ``repro lint --manifest-update``.
    """
    lines = [f"{name}:{dtype}" for name, dtype, _ in columns]
    lines += [f"+{key}" for key in sorted(extras or ())]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()
