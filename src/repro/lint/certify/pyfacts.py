"""The linted tree's contract literals against the package's.

The interval certification of the kernels (:mod:`.interp`) is carried
out against declared facts — each entry point's parameters with their
lengths and ranges, the struct field ranges, the size boxes — that
:mod:`.contracts` builds from the contract literals of the running
package, the same literals :mod:`repro.cbuild` renders the prototypes
from and checks every kernel call against.  A tree linted with another
package's literals would be proved against facts it does not declare,
so :func:`contract_findings` compares them:
:func:`extract_contract_literal` folds the ``PLAN_CONTRACT`` /
``CYCLE_PLAN_CONTRACT`` / ``ANNOTATE_CONTRACT`` / ``GENERATE_CONTRACT``
dict literal out of the linted module's AST (constant-folding
``1 << 26``-style bound expressions), and a literal that is missing,
does not fold or differs is one finding.
"""

import ast


class _Unfoldable(Exception):
    """A contract literal contains a non-constant expression."""


def _fold(node):
    """Evaluate the restricted constant language of contract literals.

    Dict/list displays, int/str/bool constants, unary ``-`` and the
    binary ``<<``/``+``/``-``/``*`` of folded ints — exactly what the
    bound expressions in the plan contracts use.
    """
    if isinstance(node, ast.Dict):
        out = {}
        for key, value in zip(node.keys, node.values):
            if key is None:
                raise _Unfoldable("dict unpacking in a contract literal")
            out[_fold(key)] = _fold(value)
        return out
    if isinstance(node, (ast.List, ast.Tuple)):
        return [_fold(item) for item in node.elts]
    if isinstance(node, ast.Constant):
        if isinstance(node.value, (int, str, bool)):
            return node.value
        raise _Unfoldable(f"non-int/str constant {node.value!r}")
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        operand = _fold(node.operand)
        if not isinstance(operand, int):
            raise _Unfoldable("unary minus of a non-int")
        return -operand
    if isinstance(node, ast.BinOp):
        left, right = _fold(node.left), _fold(node.right)
        if not (isinstance(left, int) and isinstance(right, int)):
            raise _Unfoldable("arithmetic on non-ints")
        if isinstance(node.op, ast.LShift):
            return left << right
        if isinstance(node.op, ast.Add):
            return left + right
        if isinstance(node.op, ast.Sub):
            return left - right
        if isinstance(node.op, ast.Mult):
            return left * right
        raise _Unfoldable(f"operator {type(node.op).__name__}")
    raise _Unfoldable(f"node {type(node).__name__}")


def extract_contract_literal(tree, name):
    """``(value, lineno)`` of the module-level dict literal *name*.

    Returns ``(None, None)`` when no such assignment exists and raises
    nothing: a literal that *exists* but does not fold is reported as
    ``(None, lineno)`` so the caller can point at it.
    """
    for node in tree.body:
        targets = ()
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = (node.target,)
        for target in targets:
            if isinstance(target, ast.Name) and target.id == name:
                try:
                    return _fold(node.value), node.lineno
                except _Unfoldable:
                    return None, node.lineno
    return None, None


def contract_findings(project, contract):
    """The finding, if any, on one kernel contract's literal.

    Yields at most one ``(relpath, lineno, message)`` tuple: the
    literal is missing, does not fold, or differs from the package's.
    """
    module = project.module(contract.python_path)
    if module is None or module.tree is None:
        # Miniature fixture trees without the builder module are not
        # lint targets for this contract (the parse error, if any, is
        # reported by the framework itself).
        return
    literal, lineno = extract_contract_literal(
        module.tree, contract.python_name
    )
    if lineno is None:
        yield (contract.python_path, 1,
               f"{contract.python_name} literal not found: the contract"
               " the certified kernel assumes must be declared as a"
               " module-level dict literal")
    elif literal is None:
        yield (contract.python_path, lineno,
               f"{contract.python_name} does not fold to a constant"
               " dict: contract bounds must be literals (ints, symbols,"
               " [symbol, offset] pairs, shifts of constants)")
    elif literal != contract.python_facts:
        drift = _first_drift(literal, contract.python_facts)
        yield (contract.python_path, lineno,
               f"{contract.python_name} disagrees with the running"
               f" package's literal ({drift}); the kernel proof was"
               " built from the package's declaration, so lint this"
               " tree with its own package")


def _first_drift(found, expected, prefix=""):
    """A short human-readable pointer at the first differing entry; a
    parameter row is named by its parameter."""
    if isinstance(found, dict) and isinstance(expected, dict):
        for key in sorted(set(found) | set(expected), key=str):
            where = f"{prefix}.{key}" if prefix else str(key)
            if key not in found:
                return f"missing {where!r}"
            if key not in expected:
                return f"unexpected {where!r}"
            drift = _first_drift(found[key], expected[key], where)
            if drift is not None:
                return drift
        return None
    if (isinstance(found, list) and isinstance(expected, list)
            and len(found) == len(expected)
            and all(isinstance(item, list) for item in found + expected)):
        for index, (item, want) in enumerate(zip(found, expected)):
            named = want and isinstance(want[0], str)
            drift = _first_drift(item, want,
                                 f"{prefix}.{want[0] if named else index}")
            if drift is not None:
                return drift
        return None
    if found != expected:
        where = prefix or "top level"
        return f"{where}: {found!r} != certified {expected!r}"
    return None
