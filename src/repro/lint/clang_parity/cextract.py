"""Extract the declarations of a C source without a compiler.

The kernels are deliberately plain C with stdint: object-like macros,
brace-initialised ``typedef struct`` blocks and free functions.  That
restricted shape is what makes a dependency-free extractor honest: a
regex pass recovers the ``#define`` table, and a brace-matching scan
recovers struct field lists.  The certifier (:mod:`repro.lint.certify`)
reads both, for a kernel's rendered header and for its source, to
resolve the contract's buffer lengths and to type the struct fields it
interprets.  The extractor is *strict about what it claims*: a
``#define`` whose value it cannot evaluate is recorded with
``value=None`` rather than guessed.

Line numbers are tracked through comment stripping (comments are
blanked, not removed), so findings can name the exact C line.
"""

import ast
import re

from repro.robustness.errors import InternalError

_DEFINE_RE = re.compile(r"^\s*#\s*define\s+(\w+)((?:\s|\().*)?$")
_IDENT = r"[A-Za-z_]\w*"

#: Binary operators an integer ``#define`` expression may use; C and
#: Python agree on all of them for the non-negative operands the
#: kernel's defines stick to (``/`` maps to floor division).
_INT_BINOPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: a // b,
    ast.FloorDiv: lambda a, b: a // b,
    ast.Mod: lambda a, b: a % b,
    ast.LShift: lambda a, b: a << b,
    ast.RShift: lambda a, b: a >> b,
    ast.BitOr: lambda a, b: a | b,
    ast.BitAnd: lambda a, b: a & b,
    ast.BitXor: lambda a, b: a ^ b,
}
_INT_UNARYOPS = (ast.UAdd, ast.USub, ast.Invert)


class CDefine:
    """One object-like ``#define``: name, raw text, evaluated value."""

    __slots__ = ("name", "text", "value", "lineno")

    def __init__(self, name, text, value, lineno):
        self.name = name
        self.text = text
        self.value = value  # int, or None when not an integer constant
        self.lineno = lineno


class CField:
    """One struct member: declared type, name, optional array length."""

    __slots__ = ("name", "ctype", "array_len", "lineno")

    def __init__(self, name, ctype, array_len, lineno):
        self.name = name
        self.ctype = ctype          # normalised, e.g. "const int32_t *"
        self.array_len = array_len  # raw length text, or None
        self.lineno = lineno


class CStruct:
    """A ``typedef struct { ... } Name;`` with its fields in order."""

    __slots__ = ("name", "fields", "lineno")

    def __init__(self, name, fields, lineno):
        self.name = name
        self.fields = fields
        self.lineno = lineno


class CExtract:
    """The declarations of one C text: its defines and structs."""

    def __init__(self, defines, structs):
        self.defines = defines      # {name: CDefine}
        self.structs = structs      # {name: CStruct}


def _strip_comments(source):
    """Blank out ``/* */`` and ``//`` comments, preserving newlines."""
    out = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch == "/" and i + 1 < n and source[i + 1] == "*":
            end = source.find("*/", i + 2)
            end = n if end < 0 else end + 2
            out.append(re.sub(r"[^\n]", " ", source[i:end]))
            i = end
        elif ch == "/" and i + 1 < n and source[i + 1] == "/":
            end = source.find("\n", i)
            end = n if end < 0 else end
            out.append(" " * (end - i))
            i = end
        elif ch in "\"'":
            # String/char literals: skip verbatim so a "/*" inside one
            # does not start a comment.
            end = i + 1
            while end < n and source[end] != ch:
                end += 2 if source[end] == "\\" else 1
            end = min(end + 1, n)
            out.append(source[i:end])
            i = end
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _eval_int(text, env):
    """Evaluate an integer constant expression, or ``None``.

    C and Python agree on the syntax of the expressions the kernel
    uses — decimal/hex literals, parentheses, shifts, arithmetic and
    bitwise operators — so the text is parsed with :mod:`ast` and
    folded over a whitelist of node types.  Identifiers resolve
    through *env* (earlier defines); ``L``/``U`` literal suffixes are
    stripped first.  Anything else (casts, ``sizeof``, floats) yields
    ``None``.
    """
    text = re.sub(r"(?<=[0-9a-fA-FxX])[uUlL]+\b", "", text.strip())
    try:
        node = ast.parse(text, mode="eval").body
    except SyntaxError:
        return None

    def fold(node):
        if isinstance(node, ast.Constant) and isinstance(node.value, int) \
                and not isinstance(node.value, bool):
            return node.value
        if isinstance(node, ast.Name):
            return env.get(node.id)
        if isinstance(node, ast.BinOp) and type(node.op) in _INT_BINOPS:
            left, right = fold(node.left), fold(node.right)
            if left is None or right is None:
                return None
            try:
                return _INT_BINOPS[type(node.op)](left, right)
            except (ValueError, ZeroDivisionError, OverflowError):
                return None
        if isinstance(node, ast.UnaryOp) and isinstance(
            node.op, _INT_UNARYOPS
        ):
            operand = fold(node.operand)
            if operand is None:
                return None
            if isinstance(node.op, ast.USub):
                return -operand
            if isinstance(node.op, ast.Invert):
                return ~operand
            return operand
        return None

    return fold(node)


def _extract_defines(stripped, env):
    defines = {}
    for lineno, line in enumerate(stripped.splitlines(), start=1):
        match = _DEFINE_RE.match(line)
        if not match:
            continue
        name, rest = match.group(1), (match.group(2) or "").strip()
        if rest.startswith("("):
            # A '(' directly after the name means a function-like
            # macro — but only without intervening space; the regex
            # keeps leading whitespace in `rest`, so check the raw gap.
            raw_after = line.split(name, 1)[1]
            if raw_after.startswith("("):
                continue
        value = _eval_int(rest, env) if rest else None
        defines[name] = CDefine(name, rest, value, lineno)
        if value is not None:
            env[name] = value
    return defines


def _lineno_at(stripped, offset):
    return stripped.count("\n", 0, offset) + 1


def _match_brace(text, open_index):
    """Index just past the brace/paren matching ``text[open_index]``."""
    pairs = {"{": "}", "(": ")", "[": "]"}
    close = pairs[text[open_index]]
    opener = text[open_index]
    depth = 0
    for i in range(open_index, len(text)):
        if text[i] == opener:
            depth += 1
        elif text[i] == close:
            depth -= 1
            if depth == 0:
                return i + 1
    raise InternalError(
        f"unbalanced {opener!r} at offset {open_index} while extracting"
        " the C ABI surface"
    )


def _normalise_type(tokens):
    """Join type tokens with single spaces, ``*`` separated."""
    flat = " ".join(tokens)
    flat = flat.replace("*", " * ")
    return " ".join(flat.split())


def _parse_field(decl, lineno):
    """Parse one struct member declaration (text between ``;``)."""
    decl = decl.strip()
    if not decl:
        return None
    array_len = None
    array = re.search(r"\[([^\]]*)\]\s*$", decl)
    if array:
        array_len = array.group(1).strip()
        decl = decl[: array.start()].rstrip()
    match = re.search(r"(%s)\s*$" % _IDENT, decl)
    if not match:
        return None
    name = match.group(1)
    ctype = _normalise_type(decl[: match.start()].split())
    if not ctype:
        return None
    return CField(name, ctype, array_len, lineno)


def _parse_field_decls(decl, lineno):
    """Parse one ``;``-terminated member declaration into its fields.

    A single declaration may carry several declarators
    (``const int32_t *prod1, *prod2;``); each declarator owns its own
    ``*``s and array suffix while sharing the base type.
    """
    decl = decl.strip()
    if not decl:
        return []
    chunks = decl.split(",")
    first = _parse_field(chunks[0], lineno)
    if first is None:
        return []
    fields = [first]
    base = first.ctype
    while base.endswith("*"):
        base = base[:-1].rstrip()
    for chunk in chunks[1:]:
        chunk = chunk.strip()
        array_len = None
        array = re.search(r"\[([^\]]*)\]\s*$", chunk)
        if array:
            array_len = array.group(1).strip()
            chunk = chunk[: array.start()].rstrip()
        stars = chunk.count("*")
        name = chunk.replace("*", "").strip()
        if not re.fullmatch(_IDENT, name):
            continue
        ctype = _normalise_type((base + " " + "*" * stars).split())
        fields.append(CField(name, ctype, array_len, lineno))
    return fields


def _extract_structs(stripped):
    structs = {}
    for match in re.finditer(r"\btypedef\s+struct\b", stripped):
        brace = stripped.find("{", match.end())
        if brace < 0:
            continue
        body_end = _match_brace(stripped, brace)
        tail = stripped[body_end:]
        name_match = re.match(r"\s*(%s)\s*;" % _IDENT, tail)
        if not name_match:
            continue
        name = name_match.group(1)
        fields = []
        body = stripped[brace + 1: body_end - 1]
        offset = brace + 1
        for decl in body.split(";"):
            lineno = _lineno_at(stripped, offset + len(decl)
                                - len(decl.lstrip()))
            fields.extend(_parse_field_decls(decl, lineno))
            offset += len(decl) + 1
        structs[name] = CStruct(
            name, fields, _lineno_at(stripped, match.start())
        )
    return structs


def extract_c(source, prelude=None):
    """Extract the :class:`CExtract` of C *source* text.

    *prelude* is the extract of the text the compiler reads first (a
    kernel's rendered header): its declarations come first in both
    tables, and its defines are in scope for the source's.
    """
    stripped = _strip_comments(source.replace("\r\n", "\n"))
    defines = dict(prelude.defines) if prelude else {}
    structs = dict(prelude.structs) if prelude else {}
    env = {name: define.value for name, define in defines.items()
           if define.value is not None}
    defines.update(_extract_defines(stripped, env))
    structs.update(_extract_structs(stripped))
    return CExtract(defines, structs)
