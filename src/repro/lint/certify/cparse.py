"""The C front end of the certifier: one parse of a kernel as compiled.

A kernel compiles as one translation unit: the header
:mod:`repro.cbuild` renders from the Python definitions, then the
``.c`` file.  :func:`parse_c_unit` reads both in that order with one
tokenizer and one recursive-descent grammar covering exactly the
constructs the shipped kernels use:

* object-like integer ``#define``s (``#include`` lines are skipped),
  each body parsed as an expression and folded by :func:`const_fold`,
  with the defines read before it in scope;
* ``typedef struct { ... } Name;`` blocks, whose members are read with
  the declaration grammar of locals;
* function definitions (prototypes are skipped): declarations with
  initialisers (including C99 ``for``-init), assignments (``=`` and
  the compound forms), ``++``/``--``, ``if``/``else``, ``while``,
  ``for``, ``break``/``continue``/``return``, the full C operator set
  at correct precedence (ternary, ``&&``/``||``, bit ops, shifts,
  casts, ``sizeof``, address-of, dereference), array subscripts,
  ``->``/``.`` field access and function calls.

Anything outside the subset (``switch``, ``goto``, ``do``, strings,
function pointers, other directives) raises :class:`CParseError` — the
certifier reports that as a finding rather than guessing at semantics.

The parser also collects the two comment-borne side channels the
certifier consumes from the source:

* ``certify:`` annotations: a function's ``requires``/``returns``/
  ``buffer`` facts, a statement's ``assume``, a symbol box
  (``symbol``) and the struct-member facts (``range``, ``buffer``,
  ``column``), which attach to the member they trail or sit above, or
  name theirs as ``Struct.member``.  A trusted fact (``assume``,
  ``symbol``, anything marked ``trusted``) carries a ``-- reason``;
  the others are proved;
* C-side ``reprolint: disable=<pass> -- why`` suppressions, which the
  certify passes apply themselves (the Python-side suppression scanner
  only reads ``#`` comments).
"""

import bisect
import re


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
    "sizeof", "const", "static", "struct", "typedef", "inline",
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


def _tokenize(text, linemap):
    tokens = []
    pos = 0
    while pos < len(text):
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


def _strip_comments(source):
    """Blank out ``/* */`` and ``//`` comments, keeping every offset
    (and so every line number) of the text around them."""
    out = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch == "/" and source.startswith("/*", i):
            end = source.find("*/", i + 2)
            end = n if end < 0 else end + 2
            out.append(re.sub(r"[^\n]", " ", source[i:end]))
            i = end
        elif ch == "/" and source.startswith("//", i):
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


_DIRECTIVE_RE = re.compile(r"(?m)^[ \t]*#[ \t]*(\w*)(.*)$")
_MACRO_RE = re.compile(r"\s+([A-Za-z_]\w*)(\(?)(.*)")


def _read_directives(stripped, defines):
    """Fold each object-like ``#define`` of *stripped* into *defines*
    and blank every directive line, so only declarations are left to
    tokenize."""

    def directive(match):
        lineno = stripped.count("\n", 0, match.start()) + 1
        if match.group(1) == "define":
            macro = _MACRO_RE.match(match.group(2))
            if macro is None or macro.group(2):
                raise CParseError("unsupported macro", lineno)
            name, body = macro.group(1), macro.group(3)
            value = const_fold(parse_expression_text(body, lineno=lineno),
                               defines)
            if value is None:
                raise CParseError(
                    f"#define {name} is not an integer constant", lineno)
            defines[name] = value
        elif match.group(1) != "include":
            raise CParseError(
                f"unsupported directive #{match.group(1)}", lineno)
        return " " * len(match.group())

    return _DIRECTIVE_RE.sub(directive, stripped)


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


class CField:
    """One struct member: its base type (``const`` dropped), pointer
    depth and array length (an expression, or ``None``)."""

    __slots__ = ("name", "base", "ptr", "array_len", "lineno")

    def __init__(self, name, base, ptr, array_len, lineno):
        self.name = name
        self.base = base
        self.ptr = ptr
        self.array_len = array_len
        self.lineno = lineno


class CStruct:
    """A ``typedef struct { ... } Name;`` with its members in order;
    ``decls`` holds each member declaration as ``(first line, last
    line, members)``."""

    __slots__ = ("name", "fields", "decls")

    def __init__(self, name, fields, decls):
        self.name = name
        self.fields = fields
        self.decls = decls

    def field(self, name):
        """The member called *name*, or ``None``."""
        for field in self.fields:
            if field.name == name:
                return field
        return None


def _plain(words):
    """A type's words without ``const``."""
    return " ".join(word for word in words if word != "const")


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

    # -- top level: typedef'd structs and function definitions

    def parse_top_level(self):
        """``(structs, functions)`` of the whole token stream, by name;
        prototypes are skipped."""
        structs, functions = {}, {}
        while self.peek() is not None:
            if self.at("typedef"):
                struct = self._parse_struct()
                structs[struct.name] = struct
            else:
                fn = self._parse_function()
                if fn is not None:
                    functions[fn.name] = fn
        return structs, functions

    def _parse_struct(self):
        self.expect("typedef")
        self.expect("struct")
        self.expect("{")
        fields, decls = [], []
        while not self.at("}"):
            decl = self._parse_declaration()
            last = self.expect(";")
            members = [CField(d.name, _plain(decl.base_type.split()), d.ptr,
                              d.array_len, d.lineno) for d in decl.decls]
            fields += members
            decls.append((decl.lineno, last.lineno, members))
        self.expect("}")
        name = self.next()
        if name.kind != "id":
            raise CParseError(f"expected a struct name, got {name.text!r}",
                              name.lineno)
        self.expect(";")
        self.typenames.add(name.text)
        return CStruct(name.text, fields, decls)

    def _parse_function(self):
        first = self.peek()
        while self.accept("static") or self.accept("inline"):
            pass
        words = self._type_words()
        ptr = 0
        while self.accept("*"):
            ptr += 1
        name = self.next()
        if name.kind != "id":
            raise CParseError(f"expected a function name, got {name.text!r}",
                              name.lineno)
        self.expect("(")
        params = []
        if self.at("void") and getattr(self.peek(1), "text", "") == ")":
            self.next()
        while not self.at(")"):
            if params:
                self.expect(",")
            param_words = self._type_words()
            decl = self._parse_declarator()
            params.append((decl.name, _plain(param_words), decl.ptr))
        self.expect(")")
        if self.accept(";"):
            return None
        if not self.at("{"):
            raise CParseError("expected a function body", name.lineno)
        return CFunctionDef(name.text, _plain(words) + "*" * ptr, params,
                            self.parse_body(), first.lineno)

    # -- statements

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

    def _type_words(self):
        first = self.peek()
        words = []
        while self._is_type_token(self.peek()):
            words.append(self.next().text)
        if not words:
            raise CParseError("expected a type",
                              first.lineno if first else 0)
        return words

    def _parse_declaration(self):
        first = self.peek()
        base_type = " ".join(self._type_words())
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
        words = self._type_words()
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
    tokens = _tokenize(text, linemap)
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


def strip_casts(expr):
    """*expr* without its outer casts."""
    while isinstance(expr, CCast):
        expr = expr.operand
    return expr


_FOLD_OPS = {
    "+": lambda a, b: a + b, "-": lambda a, b: a - b,
    "*": lambda a, b: a * b, "<<": lambda a, b: a << b,
    ">>": lambda a, b: a >> b, "&": lambda a, b: a & b,
    "|": lambda a, b: a | b, "^": lambda a, b: a ^ b,
}


def const_fold(expr, defines, type_bytes=None):
    """Integer value of a compile-time-constant expression over
    *defines* (``{name: int}``), or ``None``.  ``sizeof(type)`` folds
    through *type_bytes* when given."""
    expr = strip_casts(expr)
    if isinstance(expr, CNum):
        return expr.value
    if isinstance(expr, CName):
        return defines.get(expr.name)
    if isinstance(expr, CSizeof):
        if isinstance(expr.arg, str) and type_bytes is not None:
            return type_bytes(expr.arg)
        return None
    if isinstance(expr, CUnary):
        inner = const_fold(expr.operand, defines, type_bytes)
        if inner is None:
            return None
        if expr.op == "-":
            return -inner
        if expr.op == "~":
            return ~inner
        if expr.op == "!":
            return int(inner == 0)
        return None
    if isinstance(expr, CBinary):
        left = const_fold(expr.left, defines, type_bytes)
        right = const_fold(expr.right, defines, type_bytes)
        if left is None or right is None:
            return None
        fn = _FOLD_OPS.get(expr.op)
        return fn(left, right) if fn else None
    return None


# ------------------------------------------------- functions with bodies

class CFunctionDef:
    """One parsed function: signature plus statement-level body."""

    __slots__ = ("name", "return_type", "params", "body", "lineno",
                 "requires", "returns", "param_buffers")

    def __init__(self, name, return_type, params, body, lineno):
        self.name = name
        self.return_type = return_type
        self.params = params          # list of (name, base_type, ptr)
        self.body = body              # list of CStmt
        self.lineno = lineno
        self.requires = []            # CAnnotation, kind == "requires"
        self.returns = None           # CAnnotation, kind == "returns"
        self.param_buffers = []       # CAnnotation, kind == "buffer"


class CAnnotation:
    """One ``certify:`` comment, split but not yet evaluated.

    ``targets`` holds the ``(struct, member)`` pairs a member fact
    names; ``attach`` is the line an unnamed one attaches to: its own
    when it trails code, else the line after the comment.
    """

    __slots__ = ("kind", "lineno", "text", "reason", "trusted", "targets",
                 "attach")

    def __init__(self, kind, lineno, text, reason, trusted, targets,
                 attach):
        self.kind = kind
        self.lineno = lineno
        self.text = text
        self.reason = reason
        self.trusted = trusted
        self.targets = targets
        self.attach = attach

    @property
    def member_fact(self):
        """Is this a fact about struct members (not a parameter's
        ``buffer``)?"""
        return self.kind in ("range", "column") or (
            self.kind == "buffer"
            and (bool(self.targets) or self.text.startswith("length ")))


class CSuppression:
    """One C-side ``reprolint: disable=...`` comment."""

    __slots__ = ("lineno", "pass_ids", "reason")

    def __init__(self, lineno, pass_ids, reason):
        self.lineno = lineno
        self.pass_ids = pass_ids
        self.reason = reason


class CUnit:
    """A parsed kernel: its functions, structs and defines (the
    header's first), the source's annotations and suppressions, the
    member facts by ``(struct, member)`` and the annotations that
    attach to no member (``issues``, ``(lineno, message)`` pairs)."""

    __slots__ = ("functions", "structs", "defines", "annotations",
                 "suppressions", "typenames", "facts", "issues")

    def __init__(self, functions, structs, defines, annotations,
                 suppressions, typenames):
        self.functions = functions        # name -> CFunctionDef
        self.structs = structs            # name -> CStruct
        self.defines = defines            # name -> int
        self.annotations = annotations    # list of CAnnotation
        self.suppressions = suppressions  # lineno -> CSuppression
        self.typenames = typenames
        self.facts = {}                   # (struct, member) -> [CAnnotation]
        self.issues = []

    def suppressed(self, lineno, pass_id):
        """True if *pass_id* is disabled at *lineno* by a C comment."""
        entry = self.suppressions.get(lineno)
        if entry is None:
            return False
        return pass_id in entry.pass_ids or "all" in entry.pass_ids


_CERTIFY_RE = re.compile(
    r"/\*\s*certify:\s*(?P<body>[^*]*(?:\*(?!/)[^*]*)*)\*/"
)

_C_SUPPRESS_RE = re.compile(
    r"/\*\s*reprolint:\s*disable=(?P<ids>[\w, -]*?)"
    r"(?:\s*--\s*(?P<why>[^*]*(?:\*(?!/)[^*]*)*?))?\s*\*/"
)

_ANNOTATION_KINDS = frozenset({"assume", "requires", "returns", "buffer",
                               "range", "column", "symbol"})

_MEMBER_RE = re.compile(r"[A-Za-z_]\w*\.[A-Za-z_]\w*$")


def _scan_annotations(source, linemap):
    annotations = []
    for match in _CERTIFY_RE.finditer(source):
        lineno = linemap.lineno(match.start())
        body = " ".join(match.group("body").split())
        text, _, reason = body.partition(" -- ")
        words = text.split()
        marked = words[:1] == ["trusted"]
        if marked:
            words = words[1:]
        kind, words = (words[0], words[1:]) if words else ("", [])
        if (kind not in _ANNOTATION_KINDS or not words
                or (marked and kind not in ("range", "buffer"))):
            raise CParseError(
                f"malformed certify annotation: {body!r}", lineno
            )
        targets = []
        while kind in ("range", "buffer") and _MEMBER_RE.match(words[0]):
            targets.append(tuple(words.pop(0).split(".")))
            if not words:
                raise CParseError(
                    f"malformed certify annotation: {body!r}", lineno)
        line_start = linemap.starts[lineno - 1]
        trailing = source[line_start:match.start()].strip()
        attach = lineno if trailing else linemap.lineno(match.end()) + 1
        annotations.append(CAnnotation(
            kind, lineno, " ".join(words), reason or None,
            marked or kind in ("assume", "symbol"), targets, attach))
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
    """Statement ``assume``s attach by line; a function's ``requires``,
    ``returns`` and parameter ``buffer``s attach to the next function
    defined at or below the annotation.  Member facts and symbols are
    the unit's (:func:`_attach_facts`)."""
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
        if ann.kind == "symbol" or ann.member_fact:
            continue
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


def _attach_facts(unit, source_structs):
    """File each member fact under the members it names, or under the
    members of the source struct declaration it trails (any of its
    lines) or sits above (its first line).  A fact that finds no
    member, and a member with two facts, is an issue."""
    at_line = {}
    for struct in source_structs.values():
        for first, last, members in struct.decls:
            for line in range(first, last + 1):
                at_line[line] = (first, struct.name, members)
    for ann in unit.annotations:
        if not ann.member_fact:
            continue
        if ann.targets:
            pairs = ann.targets
            for struct, member in pairs:
                decl = unit.structs.get(struct)
                if decl is None or decl.field(member) is None:
                    unit.issues.append((
                        ann.lineno, f"certify {ann.kind} names"
                        f" {struct}.{member}, which does not exist"))
                    pairs = ()
        else:
            first, struct, members = at_line.get(ann.attach, (0, "", ()))
            if ann.attach != ann.lineno and first != ann.attach:
                members = ()
            pairs = [(struct, field.name) for field in members]
            if not pairs:
                unit.issues.append((
                    ann.lineno, f"certify {ann.kind} annotation attaches"
                    " to no struct member"))
        for pair in pairs:
            unit.facts.setdefault(pair, []).append(ann)
    for (struct, member), anns in unit.facts.items():
        if len(anns) > 1:
            unit.issues.append((
                anns[1].lineno,
                f"{struct}.{member} has more than one certify fact"))


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


def _parse_text(text, defines, typenames):
    """``(structs, functions, linemap)`` of one C text; its defines go
    into *defines* and its struct names into *typenames*."""
    stripped = _read_directives(_strip_comments(text), defines)
    linemap = _LineMap(stripped)
    tokens = _tokenize(stripped, linemap)
    structs, functions = _Parser(tokens, typenames).parse_top_level()
    return structs, functions, linemap


def parse_c_unit(header, source):
    """Parse a kernel as the compiler reads it: *header*, the header
    :mod:`repro.cbuild` renders for it, then *source*.  Raises
    :class:`CParseError` on anything outside the supported subset."""
    defines, typenames = {}, set()
    structs, _, _ = _parse_text(header, defines, typenames)
    source_structs, functions, linemap = _parse_text(source, defines,
                                                     typenames)
    annotations = _scan_annotations(source, linemap)
    unit = CUnit(functions, {**structs, **source_structs}, defines,
                 annotations, _scan_suppressions(source, linemap),
                 frozenset(typenames))
    _attach_annotations(functions, annotations)
    _attach_facts(unit, source_structs)
    return unit
