"""Python-side contract verification: the facts the C proof assumes.

The interval certification of the kernels (:mod:`.interp`) is carried
out against declared facts — column value ranges, config field ranges,
the region-length cap — that :mod:`.contracts` builds from the
contract literals of the running package.  Those facts are only sound
if the linted tree declares the same literals and actually enforces
them, so this module closes the loop statically:

* :func:`extract_contract_literal` folds the ``PLAN_CONTRACT`` /
  ``CYCLE_PLAN_CONTRACT`` / ``ANNOTATE_CONTRACT`` /
  ``GENERATE_CONTRACT`` dict literal out of the linted module's AST
  (constant-folding ``1 << 26``-style bound expressions), so it can be
  compared against the package's literal the proof was built from;
* :func:`contract_findings` runs the full check for one
  :class:`~repro.lint.certify.contracts.KernelContract`: the literal
  exists and equals the package's, its fingerprint matches the
  pin in :mod:`repro.lint.manifest` (contract drift without a
  ``repro lint --manifest-update`` regen is a finding), the runtime
  validator is defined next to the literal, and the validator call
  *dominates* the kernel invocation in every driver (an unconditional
  top-level statement of the driver function, lexically before the
  ``_kernel(...)`` call — every path that reaches the kernel passes
  through the validator first).

The checks are sequenced and short-circuit per contract: a single-site
edit produces exactly one finding, not a cascade.
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


def _function_def(tree, name):
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    return None


def _calls_name(node, name):
    """Does any call to the bare name *name* appear under *node*?"""
    for sub in ast.walk(node):
        if (isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id == name):
            return True
    return False


def _dominance_finding(module, contract, driver_name):
    """Check the validator call dominates the kernel call in a driver.

    The driver function's top-level statement list is scanned in
    order: the first statement that (anywhere inside it) calls
    ``_kernel`` marks the kernel invocation; the validator call must
    appear *before* it as an unconditional top-level expression
    statement — not nested under an ``if``/``for``/``try``, where some
    path could skip it.  Returns ``(lineno, message)`` or ``None``.
    """
    driver = _function_def(module.tree, driver_name)
    if driver is None:
        return (1, f"driver function {driver_name!r} not found"
                   f" in {contract.driver_path}; the kernel call site"
                   " the contract names does not exist")
    kernel_index = None
    for index, stmt in enumerate(driver.body):
        if _calls_name(stmt, "_kernel"):
            kernel_index = index
            kernel_line = stmt.lineno
            break
    if kernel_index is None:
        return (driver.lineno,
                f"{driver_name} never calls _kernel; the"
                " contract names a kernel invocation that is gone")
    for stmt in driver.body[:kernel_index]:
        if (isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Call)
                and isinstance(stmt.value.func, ast.Name)
                and stmt.value.func.id == contract.validator_name):
            return None
    return (kernel_line,
            f"the kernel call in {driver_name} is not"
            f" dominated by {contract.validator_name}(): the validator"
            " must run unconditionally (top-level statement, before"
            " the _kernel call) so the certified input ranges hold on"
            " every path")


def contract_findings(project, contract, pinned_fingerprint):
    """All plan-contract findings for one kernel contract.

    Yields ``(relpath, lineno, message)`` tuples; at most one per
    contract (the checks short-circuit), so a single-site edit is a
    single finding.  *pinned_fingerprint* is the manifest pin for this
    contract's facts (``None`` when the manifest has no entry).
    """
    from repro.lint.certify.contracts import facts_fingerprint

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
               f"{contract.python_name} literal not found: the runtime"
               " contract the certified kernel assumes must be"
               " declared as a module-level dict literal")
        return
    if literal is None:
        yield (contract.python_path, lineno,
               f"{contract.python_name} does not fold to a constant"
               " dict: contract bounds must be literals (ints,"
               " [symbol, offset] pairs, shifts of constants)")
        return
    if literal != contract.python_facts:
        drift = _first_drift(literal, contract.python_facts)
        yield (contract.python_path, lineno,
               f"{contract.python_name} disagrees with the running"
               f" package's literal ({drift}); the kernel proof was"
               " built from the package's ranges, so lint this tree"
               " with its own package")
        return
    fingerprint = facts_fingerprint(literal)
    if fingerprint != pinned_fingerprint:
        yield (contract.python_path, lineno,
               f"{contract.python_name} fingerprint"
               f" {fingerprint[:12]}… does not match the manifest pin"
               f" ({str(pinned_fingerprint)[:12]}…): contract ranges"
               " changed without `repro lint --manifest-update`")
        return
    validator = _function_def(module.tree, contract.validator_name)
    if validator is None:
        yield (contract.python_path, lineno,
               f"runtime validator {contract.validator_name}() is not"
               f" defined in {contract.python_path}; the declared"
               " ranges are only facts if something enforces them")
        return
    driver = project.module(contract.driver_path)
    if driver is None or driver.tree is None:
        return
    for driver_name in contract.drivers:
        dominance = _dominance_finding(driver, contract, driver_name)
        if dominance is not None:
            yield (contract.driver_path, dominance[0], dominance[1])
            return


def _first_drift(found, expected, prefix=""):
    """A short human-readable pointer at the first differing entry."""
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
    if found != expected:
        where = prefix or "top level"
        return f"{where}: {found!r} != certified {expected!r}"
    return None
