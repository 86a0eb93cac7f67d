"""Statement/expression AST for the restricted C subset of the kernels.

:mod:`repro.lint.clang_parity.cextract` stops at declarations — enough
to resolve buffer lengths and struct layouts, but the certifier
(``repro.lint.certify``) needs to *execute* the kernels abstractly,
which means parsing function bodies.  This module supplies that
second stage: a tokenizer and a recursive-descent parser covering
exactly the constructs the shipped kernels use —

* declarations with initialisers (including C99 ``for``-init),
* assignments (``=`` and the compound forms), ``++``/``--``,
* ``if``/``else``, ``while``, ``for``, ``break``/``continue``/``return``,
* the full C operator set at correct precedence (ternary, ``&&``/``||``,
  bit ops, shifts, casts, ``sizeof``, address-of, dereference),
* array subscripts, ``->``/``.`` field access and function calls.

Anything outside the subset (``switch``, ``goto``, ``do``, strings,
function pointers) raises :class:`CParseError` — the certifier reports
that as a finding rather than guessing at semantics.

The parser also collects the two comment-borne side channels the
certifier consumes:

* ``certify:`` annotations (``assume``/``requires``/``returns``/
  ``buffer``) — trusted facts, each carrying a mandatory
  ``-- reason`` (except ``returns``, which is *checked* at every
  return statement rather than trusted);
* C-side ``reprolint: disable=<pass> -- why`` suppressions, which the
  certify passes apply themselves (the Python-side suppression scanner
  only reads ``#`` comments).
"""

import bisect
import re

from repro.lint.clang_parity.cextract import _strip_comments


class CParseError(Exception):
    """The source stepped outside the supported C subset."""

    def __init__(self, message, lineno):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


# --------------------------------------------------------------- tokens

#: Scalar type words accepted in declarations, casts and ``sizeof``.
BASE_TYPES = frozenset({
    "void", "char", "short", "int", "long", "signed", "unsigned",
    "float", "double", "size_t", "ptrdiff_t",
    "int8_t", "int16_t", "int32_t", "int64_t",
    "uint8_t", "uint16_t", "uint32_t", "uint64_t",
})

_KEYWORDS = frozenset({
    "if", "else", "while", "for", "return", "break", "continue",
    "sizeof", "const", "static", "struct",
})

_UNSUPPORTED = frozenset({"switch", "goto", "do", "case", "default"})

_TOKEN_RE = re.compile(
    r"""
      (?P<num>0[xX][0-9a-fA-F]+[uUlL]*|\d+[uUlL]*)
    | (?P<id>[A-Za-z_]\w*)
    | (?P<op><<=|>>=|->|\+\+|--|<<|>>|<=|>=|==|!=|&&|\|\|
        |[+\-*/%&|^]=|[-+*/%&|^!~<>=?:;,.()\[\]{}])
    """,
    re.VERBOSE,
)


class _Token:
    __slots__ = ("kind", "text", "lineno")

    def __init__(self, kind, text, lineno):
        self.kind = kind
        self.text = text
        self.lineno = lineno

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Token({self.kind}, {self.text!r}, line {self.lineno})"


class _LineMap:
    """Offset → 1-based line number for one source string."""

    def __init__(self, text):
        self.starts = [0]
        for i, ch in enumerate(text):
            if ch == "\n":
                self.starts.append(i + 1)

    def lineno(self, offset):
        return bisect.bisect_right(self.starts, offset)


def _tokenize(text, start, end, linemap):
    tokens = []
    pos = start
    while pos < end:
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            if text[pos].isspace():
                pos += 1
                continue
            raise CParseError(
                f"unexpected character {text[pos]!r}", linemap.lineno(pos)
            )
        lineno = linemap.lineno(match.start())
        if match.lastgroup == "num":
            tokens.append(_Token("num", match.group(), lineno))
        elif match.lastgroup == "id":
            tokens.append(_Token("id", match.group(), lineno))
        else:
            tokens.append(_Token("op", match.group(), lineno))
        pos = match.end()
    return tokens


# ------------------------------------------------------------ AST nodes

class CNode:
    """Base of every C AST node; carries the 1-based source line."""

    __slots__ = ("lineno",)


class CNum(CNode):
    """An integer literal (``unsigned`` records a ``u``/``U`` suffix)."""

    __slots__ = ("value", "unsigned")

    def __init__(self, value, unsigned, lineno):
        self.value = value
        self.unsigned = unsigned
        self.lineno = lineno


class CName(CNode):
    """A bare identifier reference."""

    __slots__ = ("name",)

    def __init__(self, name, lineno):
        self.name = name
        self.lineno = lineno


class CUnary(CNode):
    """Prefix operator: ``- ! ~ * &`` or prefix ``++``/``--``."""

    __slots__ = ("op", "operand")

    def __init__(self, op, operand, lineno):
        self.op = op
        self.operand = operand
        self.lineno = lineno


class CPostfix(CNode):
    """Postfix ``++``/``--``."""

    __slots__ = ("op", "operand")

    def __init__(self, op, operand, lineno):
        self.op = op
        self.operand = operand
        self.lineno = lineno


class CBinary(CNode):
    """An infix binary expression ``left op right``."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right, lineno):
        self.op = op
        self.left = left
        self.right = right
        self.lineno = lineno


class CAssign(CNode):
    """``target op value`` where *op* is ``=`` or a compound form."""

    __slots__ = ("op", "target", "value")

    def __init__(self, op, target, value, lineno):
        self.op = op
        self.target = target
        self.value = value
        self.lineno = lineno


class CCond(CNode):
    """The ternary conditional ``cond ? then : other``."""

    __slots__ = ("cond", "then", "other")

    def __init__(self, cond, then, other, lineno):
        self.cond = cond
        self.then = then
        self.other = other
        self.lineno = lineno


class CCall(CNode):
    """A call of a named function."""

    __slots__ = ("name", "args")

    def __init__(self, name, args, lineno):
        self.name = name
        self.args = args
        self.lineno = lineno


class CIndex(CNode):
    """An array subscript ``base[index]`` — the certifier's target."""

    __slots__ = ("base", "index")

    def __init__(self, base, index, lineno):
        self.base = base
        self.index = index
        self.lineno = lineno


class CFieldRef(CNode):
    """A member access ``base.field`` or ``base->field``."""

    __slots__ = ("base", "field", "arrow")

    def __init__(self, base, field, arrow, lineno):
        self.base = base
        self.field = field
        self.arrow = arrow
        self.lineno = lineno


class CCast(CNode):
    """A cast ``(ctype)operand``."""

    __slots__ = ("ctype", "operand")

    def __init__(self, ctype, operand, lineno):
        self.ctype = ctype
        self.operand = operand
        self.lineno = lineno


class CSizeof(CNode):
    """``sizeof(type-name)`` (*arg* is a str) or ``sizeof(expr)``."""

    __slots__ = ("arg",)

    def __init__(self, arg, lineno):
        self.arg = arg
        self.lineno = lineno


class CStmt(CNode):
    """Base statement node; ``assumes`` holds attached annotations."""

    __slots__ = ("assumes",)


class CExprStmt(CStmt):
    """An expression evaluated for effect (assignment, call, ...)."""

    __slots__ = ("expr",)

    def __init__(self, expr, lineno):
        self.expr = expr
        self.lineno = lineno
        self.assumes = []


class CDeclarator:
    """One declared name within a declaration (pointer depth,
    optional array length and initialiser)."""

    __slots__ = ("name", "ptr", "array_len", "init", "lineno")

    def __init__(self, name, ptr, array_len, init, lineno):
        self.name = name
        self.ptr = ptr
        self.array_len = array_len
        self.init = init
        self.lineno = lineno


class CDeclStmt(CStmt):
    """A local declaration: one base type, one or more declarators."""

    __slots__ = ("base_type", "decls")

    def __init__(self, base_type, decls, lineno):
        self.base_type = base_type
        self.decls = decls
        self.lineno = lineno
        self.assumes = []


class CIf(CStmt):
    """An ``if``/``else`` statement."""

    __slots__ = ("cond", "then", "orelse")

    def __init__(self, cond, then, orelse, lineno):
        self.cond = cond
        self.then = then
        self.orelse = orelse
        self.lineno = lineno
        self.assumes = []


class CWhile(CStmt):
    """A ``while`` loop."""

    __slots__ = ("cond", "body")

    def __init__(self, cond, body, lineno):
        self.cond = cond
        self.body = body
        self.lineno = lineno
        self.assumes = []


class CFor(CStmt):
    """A ``for`` loop (any clause may be ``None``)."""

    __slots__ = ("init", "cond", "step", "body")

    def __init__(self, init, cond, step, body, lineno):
        self.init = init
        self.cond = cond
        self.step = step
        self.body = body
        self.lineno = lineno
        self.assumes = []


class CReturn(CStmt):
    """A ``return`` statement (``value`` may be ``None``)."""

    __slots__ = ("value",)

    def __init__(self, value, lineno):
        self.value = value
        self.lineno = lineno
        self.assumes = []


class CBreak(CStmt):
    """A ``break`` statement."""

    __slots__ = ()

    def __init__(self, lineno):
        self.lineno = lineno
        self.assumes = []


class CContinue(CStmt):
    """A ``continue`` statement."""

    __slots__ = ()

    def __init__(self, lineno):
        self.lineno = lineno
        self.assumes = []


# --------------------------------------------------------------- parser

class _Parser:
    def __init__(self, tokens, typenames):
        self.tokens = tokens
        self.pos = 0
        self.typenames = typenames

    # -- token plumbing

    def peek(self, ahead=0):
        index = self.pos + ahead
        return self.tokens[index] if index < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1].lineno if self.tokens else 0
            raise CParseError("unexpected end of input", last)
        self.pos += 1
        return tok

    def at(self, text):
        tok = self.peek()
        return tok is not None and tok.text == text

    def accept(self, text):
        if self.at(text):
            return self.next()
        return None

    def expect(self, text):
        tok = self.peek()
        if tok is None or tok.text != text:
            got = tok.text if tok else "end of input"
            line = tok.lineno if tok else (
                self.tokens[-1].lineno if self.tokens else 0
            )
            raise CParseError(f"expected {text!r}, got {got!r}", line)
        return self.next()

    def _is_type_token(self, tok):
        return tok is not None and tok.kind == "id" and (
            tok.text in BASE_TYPES
            or tok.text in self.typenames
            or tok.text in ("const", "struct")
        )

    # -- statements

    def parse_statements_until_end(self):
        stmts = []
        while self.peek() is not None:
            stmts.append(self.parse_statement())
        return stmts

    def parse_body(self):
        """One statement or a braced block, as a statement list."""
        if self.accept("{"):
            stmts = []
            while not self.at("}"):
                stmts.append(self.parse_statement())
            self.expect("}")
            return stmts
        return [self.parse_statement()]

    def parse_statement(self):
        tok = self.peek()
        if tok is None:
            raise CParseError("unexpected end of input", 0)
        if tok.text in _UNSUPPORTED:
            raise CParseError(f"unsupported construct {tok.text!r}",
                              tok.lineno)
        if tok.text == "{":
            # A bare block: inline it as an if(1)-style single-arm.
            body = self.parse_body()
            stmt = CIf(CNum(1, False, tok.lineno), body, [], tok.lineno)
            return stmt
        if tok.text == "if":
            return self._parse_if()
        if tok.text == "while":
            self.next()
            self.expect("(")
            cond = self.parse_expression()
            self.expect(")")
            body = self.parse_body()
            return CWhile(cond, body, tok.lineno)
        if tok.text == "for":
            return self._parse_for()
        if tok.text == "return":
            self.next()
            value = None
            if not self.at(";"):
                value = self.parse_expression()
            self.expect(";")
            return CReturn(value, tok.lineno)
        if tok.text == "break":
            self.next()
            self.expect(";")
            return CBreak(tok.lineno)
        if tok.text == "continue":
            self.next()
            self.expect(";")
            return CContinue(tok.lineno)
        if self._starts_declaration():
            stmt = self._parse_declaration()
            self.expect(";")
            return stmt
        expr = self.parse_expression()
        self.expect(";")
        return CExprStmt(expr, expr.lineno)

    def _parse_if(self):
        tok = self.expect("if")
        self.expect("(")
        cond = self.parse_expression()
        self.expect(")")
        then = self.parse_body()
        orelse = []
        if self.accept("else"):
            if self.at("if"):
                orelse = [self._parse_if()]
            else:
                orelse = self.parse_body()
        return CIf(cond, then, orelse, tok.lineno)

    def _parse_for(self):
        tok = self.expect("for")
        self.expect("(")
        init = None
        if not self.at(";"):
            if self._starts_declaration():
                init = self._parse_declaration()
            else:
                expr = self.parse_expression()
                init = CExprStmt(expr, expr.lineno)
        self.expect(";")
        cond = None
        if not self.at(";"):
            cond = self.parse_expression()
        self.expect(";")
        step = None
        if not self.at(")"):
            step = self.parse_expression()
        self.expect(")")
        body = self.parse_body()
        return CFor(init, cond, step, body, tok.lineno)

    def _starts_declaration(self):
        tok = self.peek()
        if not self._is_type_token(tok):
            return False
        # ``Trace t`` / ``int64_t i`` / ``const int32_t *nd`` all open
        # with type words; an expression never does (locals don't
        # shadow type names in the kernels).
        return True

    def _parse_declaration(self):
        first = self.peek()
        words = []
        while self._is_type_token(self.peek()):
            words.append(self.next().text)
        if not words:
            raise CParseError("expected a type", first.lineno)
        base_type = " ".join(words)
        decls = [self._parse_declarator()]
        while self.accept(","):
            decls.append(self._parse_declarator())
        return CDeclStmt(base_type, decls, first.lineno)

    def _parse_declarator(self):
        ptr = 0
        while self.accept("*"):
            ptr += 1
        name_tok = self.next()
        if name_tok.kind != "id":
            raise CParseError(
                f"expected a declarator name, got {name_tok.text!r}",
                name_tok.lineno,
            )
        array_len = None
        if self.accept("["):
            array_len = self.parse_expression()
            self.expect("]")
        init = None
        if self.accept("="):
            init = self.parse_assignment()
        return CDeclarator(name_tok.text, ptr, array_len, init,
                           name_tok.lineno)

    # -- expressions (standard C precedence)

    def parse_expression(self):
        return self.parse_assignment()

    _ASSIGN_OPS = frozenset({
        "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=",
    })

    def parse_assignment(self):
        left = self.parse_conditional()
        tok = self.peek()
        if tok is not None and tok.text in self._ASSIGN_OPS:
            self.next()
            value = self.parse_assignment()
            return CAssign(tok.text, left, value, tok.lineno)
        return left

    def parse_conditional(self):
        cond = self.parse_logical_or()
        if self.at("?"):
            tok = self.next()
            then = self.parse_expression()
            self.expect(":")
            other = self.parse_conditional()
            return CCond(cond, then, other, tok.lineno)
        return cond

    def _binary_level(self, ops, sub):
        left = sub()
        while True:
            tok = self.peek()
            if tok is None or tok.text not in ops:
                return left
            self.next()
            right = sub()
            left = CBinary(tok.text, left, right, tok.lineno)

    def parse_logical_or(self):
        return self._binary_level(("||",), self.parse_logical_and)

    def parse_logical_and(self):
        return self._binary_level(("&&",), self.parse_bitor)

    def parse_bitor(self):
        return self._binary_level(("|",), self.parse_bitxor)

    def parse_bitxor(self):
        return self._binary_level(("^",), self.parse_bitand)

    def parse_bitand(self):
        return self._binary_level(("&",), self.parse_equality)

    def parse_equality(self):
        return self._binary_level(("==", "!="), self.parse_relational)

    def parse_relational(self):
        return self._binary_level(("<", ">", "<=", ">="), self.parse_shift)

    def parse_shift(self):
        return self._binary_level(("<<", ">>"), self.parse_additive)

    def parse_additive(self):
        return self._binary_level(("+", "-"), self.parse_multiplicative)

    def parse_multiplicative(self):
        return self._binary_level(("*", "/", "%"), self.parse_cast)

    def _at_cast(self):
        if not self.at("("):
            return False
        return self._is_type_token(self.peek(1))

    def _parse_typename(self):
        words = []
        while self._is_type_token(self.peek()):
            words.append(self.next().text)
        while self.accept("*"):
            words.append("*")
        return " ".join(words)

    def parse_cast(self):
        if self._at_cast():
            tok = self.next()  # "("
            ctype = self._parse_typename()
            self.expect(")")
            operand = self.parse_cast()
            return CCast(ctype, operand, tok.lineno)
        return self.parse_unary()

    def parse_unary(self):
        tok = self.peek()
        if tok is None:
            raise CParseError("unexpected end of input", 0)
        if tok.text in ("-", "!", "~", "*", "&", "++", "--"):
            self.next()
            operand = self.parse_cast()
            return CUnary(tok.text, operand, tok.lineno)
        if tok.text == "+":
            self.next()
            return self.parse_cast()
        if tok.text == "sizeof":
            self.next()
            self.expect("(")
            if self._is_type_token(self.peek()):
                arg = self._parse_typename()
            else:
                arg = self.parse_expression()
            self.expect(")")
            return CSizeof(arg, tok.lineno)
        return self.parse_postfix()

    def parse_postfix(self):
        expr = self.parse_primary()
        while True:
            tok = self.peek()
            if tok is None:
                return expr
            if tok.text == "[":
                self.next()
                index = self.parse_expression()
                self.expect("]")
                expr = CIndex(expr, index, tok.lineno)
            elif tok.text in (".", "->"):
                self.next()
                field = self.next()
                if field.kind != "id":
                    raise CParseError(
                        f"expected a field name, got {field.text!r}",
                        field.lineno,
                    )
                expr = CFieldRef(expr, field.text, tok.text == "->",
                                 tok.lineno)
            elif tok.text == "(":
                if not isinstance(expr, CName):
                    raise CParseError("calls through expressions are not"
                                      " supported", tok.lineno)
                self.next()
                args = []
                if not self.at(")"):
                    args.append(self.parse_assignment())
                    while self.accept(","):
                        args.append(self.parse_assignment())
                self.expect(")")
                expr = CCall(expr.name, args, expr.lineno)
            elif tok.text in ("++", "--"):
                self.next()
                expr = CPostfix(tok.text, expr, tok.lineno)
            else:
                return expr

    def parse_primary(self):
        tok = self.next()
        if tok.kind == "num":
            text = tok.text
            digits = text.rstrip("uUlL")
            suffix = text[len(digits):]
            value = int(digits, 0)
            unsigned = "u" in suffix.lower()
            return CNum(value, unsigned, tok.lineno)
        if tok.kind == "id":
            if tok.text in _KEYWORDS or tok.text in _UNSUPPORTED:
                raise CParseError(
                    f"unexpected keyword {tok.text!r}", tok.lineno
                )
            return CName(tok.text, tok.lineno)
        if tok.text == "(":
            expr = self.parse_expression()
            self.expect(")")
            return expr
        raise CParseError(f"unexpected token {tok.text!r}", tok.lineno)


def parse_expression_text(text, typenames=frozenset(), lineno=0):
    """Parse one standalone expression (annotation conditions)."""
    linemap = _LineMap(text)
    tokens = _tokenize(text, 0, len(text), linemap)
    if not tokens:
        raise CParseError("empty expression", lineno)
    parser = _Parser(tokens, typenames)
    expr = parser.parse_expression()
    if parser.peek() is not None:
        raise CParseError(
            f"trailing tokens after expression: {parser.peek().text!r}",
            lineno,
        )
    return expr


# ------------------------------------------------- functions with bodies

class CFunctionDef:
    """One parsed function: signature plus statement-level body."""

    __slots__ = ("name", "return_type", "params", "body", "lineno",
                 "static", "requires", "returns", "param_buffers")

    def __init__(self, name, return_type, params, body, lineno, static):
        self.name = name
        self.return_type = return_type
        self.params = params          # list of (name, base_type, ptr)
        self.body = body              # list of CStmt
        self.lineno = lineno
        self.static = static
        self.requires = []            # CAnnotation, kind == "requires"
        self.returns = None           # CAnnotation, kind == "returns"
        self.param_buffers = []       # CAnnotation, kind == "buffer"


class CAnnotation:
    """One ``certify:`` comment, split but not yet evaluated."""

    __slots__ = ("kind", "lineno", "text", "reason")

    def __init__(self, kind, lineno, text, reason):
        self.kind = kind
        self.lineno = lineno
        self.text = text
        self.reason = reason


class CSuppression:
    """One C-side ``reprolint: disable=...`` comment."""

    __slots__ = ("lineno", "pass_ids", "reason")

    def __init__(self, lineno, pass_ids, reason):
        self.lineno = lineno
        self.pass_ids = pass_ids
        self.reason = reason


class CUnit:
    """A deep-parsed C translation unit."""

    __slots__ = ("functions", "annotations", "suppressions", "typenames")

    def __init__(self, functions, annotations, suppressions, typenames):
        self.functions = functions        # name -> CFunctionDef
        self.annotations = annotations    # list of CAnnotation
        self.suppressions = suppressions  # lineno -> CSuppression
        self.typenames = typenames

    def suppressed(self, lineno, pass_id):
        """True if *pass_id* is disabled at *lineno* by a C comment."""
        entry = self.suppressions.get(lineno)
        if entry is None:
            return False
        return pass_id in entry.pass_ids or "all" in entry.pass_ids


_FUNC_DEF_RE = re.compile(
    r"(?m)^(?P<head>(?:static\s+)?(?:const\s+)?[A-Za-z_]\w*"
    r"(?:\s+[A-Za-z_]\w*)*[\s*]+)"
    r"(?P<name>[A-Za-z_]\w*)\s*\("
)

_CERTIFY_RE = re.compile(
    r"/\*\s*certify:\s*(?P<body>[^*]*(?:\*(?!/)[^*]*)*)\*/"
)

_C_SUPPRESS_RE = re.compile(
    r"/\*\s*reprolint:\s*disable=(?P<ids>[\w, -]*?)"
    r"(?:\s*--\s*(?P<why>[^*]*(?:\*(?!/)[^*]*)*?))?\s*\*/"
)

_ANNOTATION_KINDS = frozenset({"assume", "requires", "returns", "buffer"})


def _scan_annotations(source, linemap):
    annotations = []
    for match in _CERTIFY_RE.finditer(source):
        lineno = linemap.lineno(match.start())
        body = " ".join(match.group("body").split())
        if " -- " in body:
            text, reason = body.split(" -- ", 1)
        else:
            text, reason = body, None
        parts = text.split(None, 1)
        kind = parts[0] if parts else ""
        if kind not in _ANNOTATION_KINDS or len(parts) < 2:
            raise CParseError(
                f"malformed certify annotation: {body!r}", lineno
            )
        annotations.append(CAnnotation(kind, lineno, parts[1], reason))
    return annotations


def _scan_suppressions(source, linemap):
    suppressions = {}
    for match in _C_SUPPRESS_RE.finditer(source):
        lineno = linemap.lineno(match.start())
        ids = frozenset(
            part.strip() for part in match.group("ids").split(",")
            if part.strip()
        )
        why = (match.group("why") or "").strip() or None
        # A comment alone on its line covers the next line; a trailing
        # comment covers its own.
        line_start = linemap.starts[lineno - 1]
        before = source[line_start:match.start()]
        target = lineno + 1 if not before.strip() else lineno
        suppressions[target] = CSuppression(target, ids, why)
    return suppressions


def _attach_annotations(functions, annotations):
    """Statement ``assume``s attach by line; the rest attach to the
    next function defined at or below the annotation."""
    ordered = sorted(functions.values(), key=lambda fn: fn.lineno)

    def function_at(lineno):
        for fn in ordered:
            if fn.lineno >= lineno:
                return fn
        return None

    def enclosing(lineno):
        best = None
        for fn in ordered:
            if fn.lineno <= lineno:
                best = fn
        return best

    for ann in annotations:
        if ann.kind == "assume":
            fn = enclosing(ann.lineno)
            target = None
            if fn is not None:
                for stmt in _walk_statements(fn.body):
                    if stmt.lineno >= ann.lineno and (
                        target is None or stmt.lineno < target.lineno
                    ):
                        target = stmt
            if target is None:
                raise CParseError(
                    "assume annotation is not followed by a statement",
                    ann.lineno,
                )
            target.assumes.append(ann)
        else:
            fn = function_at(ann.lineno)
            if fn is None:
                raise CParseError(
                    f"{ann.kind} annotation is not followed by a"
                    " function definition", ann.lineno
                )
            if ann.kind == "requires":
                fn.requires.append(ann)
            elif ann.kind == "buffer":
                fn.param_buffers.append(ann)
            else:
                if fn.returns is not None:
                    raise CParseError(
                        f"duplicate returns annotation on {fn.name}",
                        ann.lineno,
                    )
                fn.returns = ann


def _walk_statements(stmts):
    for stmt in stmts:
        yield stmt
        if isinstance(stmt, CIf):
            yield from _walk_statements(stmt.then)
            yield from _walk_statements(stmt.orelse)
        elif isinstance(stmt, CWhile):
            yield from _walk_statements(stmt.body)
        elif isinstance(stmt, CFor):
            if stmt.init is not None:
                yield from _walk_statements([stmt.init])
            yield from _walk_statements(stmt.body)


def _match_close(text, open_pos, open_char, close_char, linemap):
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == open_char:
            depth += 1
        elif text[i] == close_char:
            depth -= 1
            if depth == 0:
                return i
    raise CParseError(f"unbalanced {open_char!r}",
                      linemap.lineno(open_pos))


def _split_params_text(text):
    parts = []
    depth = 0
    current = []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return parts


def _parse_param_sig(text, lineno):
    words = text.replace("*", " * ").split()
    ptr = words.count("*")
    words = [w for w in words if w != "*"]
    if not words:
        raise CParseError(f"cannot parse parameter {text!r}", lineno)
    if len(words) == 1:  # unnamed (``void``)
        return None
    name = words[-1]
    base = " ".join(w for w in words[:-1] if w != "const")
    return (name, base, ptr)


def parse_c_unit(source, typenames):
    """Deep-parse *source*: every function body, annotations and
    C-side suppressions.  Raises :class:`CParseError` on anything
    outside the supported subset."""
    stripped = _strip_comments(source)
    linemap = _LineMap(stripped)
    annotations = _scan_annotations(source, linemap)
    suppressions = _scan_suppressions(source, linemap)
    typenames = frozenset(typenames)

    functions = {}
    for match in _FUNC_DEF_RE.finditer(stripped):
        head = match.group("head").split()
        name = match.group("name")
        if head and head[0] in ("typedef", "if", "while", "for", "return"):
            continue
        static = "static" in head
        return_type = " ".join(
            w for w in head if w not in ("static", "const")
        ).replace(" *", "*").strip()
        open_paren = match.end() - 1
        close_paren = _match_close(stripped, open_paren, "(", ")", linemap)
        after = close_paren + 1
        while after < len(stripped) and stripped[after].isspace():
            after += 1
        if after >= len(stripped) or stripped[after] != "{":
            continue  # a prototype, not a definition
        body_close = _match_close(stripped, after, "{", "}", linemap)
        lineno = linemap.lineno(match.start())

        params = []
        params_text = stripped[open_paren + 1:close_paren]
        if params_text.strip() and params_text.strip() != "void":
            for part in _split_params_text(params_text):
                sig = _parse_param_sig(part, lineno)
                if sig is not None:
                    params.append(sig)

        tokens = _tokenize(stripped, after + 1, body_close, linemap)
        parser = _Parser(tokens, typenames)
        body = parser.parse_statements_until_end()
        functions[name] = CFunctionDef(
            name, return_type, params, body, lineno, static
        )

    _attach_annotations(functions, annotations)
    return CUnit(functions, annotations, suppressions, typenames)
