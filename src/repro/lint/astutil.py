"""Small AST helpers shared by the lint passes."""

import ast


def dotted_name(node):
    """Return the dotted name of a ``Name``/``Attribute`` chain.

    ``np.random.default_rng`` parses as nested ``Attribute`` nodes over
    a ``Name``; this flattens it back to the source spelling.  Returns
    ``None`` for anything that is not a plain dotted chain (e.g. a
    subscript or call in the middle).
    """
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(call):
    """Dotted name of a call's callee, or ``None``."""
    if isinstance(call, ast.Call):
        return dotted_name(call.func)
    return None


def str_constant(node):
    """The value of a string-constant node, else ``None``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def open_write_mode(call):
    """The write mode string of an ``open()``-style call, or ``None``.

    Understands both the positional form (``open(path, "w")``,
    ``os.fdopen(fd, "wb")``) and an explicit ``mode=`` keyword; a mode
    counts as writing when it contains any of ``w``/``a``/``x``/``+``.
    """
    mode = None
    if len(call.args) >= 2:
        mode = str_constant(call.args[1])
    for kw in call.keywords:
        if kw.arg == "mode":
            mode = str_constant(kw.value)
    if mode is not None and any(ch in mode for ch in "wax+"):
        return mode
    return None
