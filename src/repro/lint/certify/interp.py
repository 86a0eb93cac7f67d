"""The interval abstract interpreter over the kernels' C subset.

One :func:`analyse_kernel` call proves (or reports) every memory-safety
obligation in one kernel source:

* each function body is lowered to a statement-level CFG and solved
  with the same worklist discipline as
  :func:`repro.lint.flow.dataflow.solve_forward` — a deque of dirty
  nodes, joins at merge points — extended with *delayed widening* at
  loop heads (an endpoint may move :data:`_WIDEN_DELAY` times before
  it is widened to the type extreme, so ring-buffer bounds like
  ``rob_head <= rob_alloc - 1`` stabilise instead of blowing up) and a
  bounded narrowing sweep that re-tightens the endpoints widening
  overshot;
* a final *checking* pass replays every reachable statement against
  the fixpoint states and records an :class:`Obligation` for each
  subscript (``kernel-bounds``), each signed arithmetic result and
  narrowing store (``kernel-overflow``), each contracted store, each
  ``requires``/``returns`` annotation and each ``malloc``/``mem*``
  size;
* calls are handled with may-write summaries: a call havocs exactly
  the fields its callee (transitively) writes, after which the
  declared field invariants re-materialise — so ``execute(...)``
  erases the ``Scan`` counters it touches but not ``s.nd_len``.

Trust boundary: ``certify: assume`` annotations and ``trusted`` field
invariants are taken on faith (each must document a reason — that is
checked); everything else, including ``requires`` at call sites and
``returns`` at return statements, is proven.
"""

from collections import deque

from repro.lint.certify import cparse
from repro.lint.certify import intervals as iv
from repro.lint.certify.contracts import Buf, StructElem, Sym

#: Joins a loop head absorbs before its unstable endpoints widen.
_WIDEN_DELAY = 4
#: Decreasing sweeps after the widened fixpoint.
_NARROW_SWEEPS = 2
#: Hard cap on worklist pops per function (divergence guard).
_MAX_VISITS = 240000
_NARROW_ROUNDS = 8

_WIDTHS = {
    "char": (8, True), "int8_t": (8, True), "uint8_t": (8, False),
    "short": (16, True), "int16_t": (16, True), "uint16_t": (16, False),
    "int": (32, True), "int32_t": (32, True), "uint32_t": (32, False),
    "long": (64, True), "int64_t": (64, True), "uint64_t": (64, False),
    "size_t": (64, False), "ptrdiff_t": (64, True),
}

_MEM_FUNCS = frozenset({"memset", "memcpy", "memmove"})


class CertifyError(Exception):
    """The analysis itself cannot proceed (not a proof failure)."""

    def __init__(self, message, lineno=0):
        super().__init__(message)
        self.lineno = lineno


class Obligation:
    """One fact the certifier had to prove."""

    __slots__ = ("kind", "lineno", "message", "ok")

    def __init__(self, kind, lineno, message, ok):
        self.kind = kind        # "bounds" | "overflow"
        self.lineno = lineno
        self.message = message
        self.ok = ok


class KernelReport:
    """Everything the certify passes need about one kernel."""

    __slots__ = ("path", "obligations", "issues", "unit", "error",
                 "checked", "proved")

    def __init__(self, path):
        self.path = path
        self.obligations = []   # failed Obligations only
        self.issues = []        # (lineno, message): annotation problems
        self.unit = None
        self.error = None       # (lineno, message): fatal parse failure
        self.checked = 0
        self.proved = 0

    def failed(self, kind):
        """The unproved obligations of one kind (``bounds``/``overflow``)."""
        return [ob for ob in self.obligations if ob.kind == kind]


# ------------------------------------------------------- expression text

def unparse(expr):
    """Compact C text of an expression, for witness messages."""
    if isinstance(expr, cparse.CNum):
        return str(expr.value)
    if isinstance(expr, cparse.CName):
        return expr.name
    if isinstance(expr, cparse.CUnary):
        return f"{expr.op}{unparse(expr.operand)}"
    if isinstance(expr, cparse.CPostfix):
        return f"{unparse(expr.operand)}{expr.op}"
    if isinstance(expr, cparse.CBinary):
        return (f"{unparse(expr.left)} {expr.op}"
                f" {unparse(expr.right)}")
    if isinstance(expr, cparse.CAssign):
        return (f"{unparse(expr.target)} {expr.op}"
                f" {unparse(expr.value)}")
    if isinstance(expr, cparse.CCond):
        return (f"{unparse(expr.cond)} ? {unparse(expr.then)}"
                f" : {unparse(expr.other)}")
    if isinstance(expr, cparse.CCall):
        args = ", ".join(unparse(a) for a in expr.args)
        return f"{expr.name}({args})"
    if isinstance(expr, cparse.CIndex):
        return f"{unparse(expr.base)}[{unparse(expr.index)}]"
    if isinstance(expr, cparse.CFieldRef):
        sep = "->" if expr.arrow else "."
        return f"{unparse(expr.base)}{sep}{expr.field}"
    if isinstance(expr, cparse.CCast):
        return f"({expr.ctype}){unparse(expr.operand)}"
    if isinstance(expr, cparse.CSizeof):
        inner = expr.arg if isinstance(expr.arg, str) else unparse(expr.arg)
        return f"sizeof({inner})"
    return "<expr>"


# ----------------------------------------------------- resolved contract

class _BufSpec:
    """A buffer contract with bounds folded to the affine domain."""

    __slots__ = ("name", "length", "content", "elem", "trusted")

    def __init__(self, name, length, content, elem, trusted=False):
        self.name = name
        self.length = length    # Bound (affine element count)
        self.content = content  # Interval
        self.elem = elem        # (bits, signed)
        self.trusted = trusted  # content assumed, not store-checked

    def same_as(self, other):
        return (isinstance(other, _BufSpec)
                and self.length.same_as(other.length)
                and iv.equal(self.content, other.content)
                and self.elem == other.elem)


class _StructPtr:
    __slots__ = ("struct",)

    def __init__(self, struct):
        self.struct = struct


class _ElemSpec:
    """A buffer of structs (configs / results)."""

    __slots__ = ("length", "struct")

    def __init__(self, length, struct):
        self.length = length
        self.struct = struct


class _Env:
    """One kernel as compiled, with every fact its proof rests on: the
    symbol boxes, the entry parameters and checked config fields of
    its contract, and the facts its source declares."""

    def __init__(self, header, source, contract):
        self.contract = contract
        self.unit = cparse.parse_c_unit(header, source)
        self.structs = self.unit.structs
        self.defines = self.unit.defines
        self.ann_cache = {}
        self.ann_errors = list(self.unit.issues)   # (lineno, message)
        self._returns_cache = {}
        self.box = dict(contract.symbols)
        for ann in self.unit.annotations:
            if ann.kind == "symbol":
                self._declare_symbol(ann)
        self.entries = {
            entry: self._resolve_params(params)
            for entry, params in contract.entries.items()
        }
        self.fields = {
            key: (self._interval_of(lo, hi), True)
            for key, (lo, hi) in contract.fields.items()
        }
        self.buffers = {}
        columns = self._columns()
        for struct in self.structs.values():
            for field in struct.fields:
                anns = self.unit.facts.get((struct.name, field.name))
                self._member_fact(struct.name, field, anns, columns)
        # Function-level ``certify: buffer`` annotations.
        self.ann_buffers = {}
        for fn in self.unit.functions.values():
            for ann in fn.param_buffers:
                name, spec = self._parse_buffer_annotation(ann, fn)
                self.ann_buffers[(fn.name, name)] = spec

    def _resolve_params(self, params):
        resolved = {}
        for name, spec in params.items():
            if isinstance(spec, Sym):
                resolved[name] = spec
            elif isinstance(spec, Buf):
                resolved[name] = self._buf(name, spec.elem, spec.length,
                                           spec.lo, spec.hi)
            elif isinstance(spec, StructElem):
                resolved[name] = _ElemSpec(
                    self._affine_text(spec.length), spec.struct)
        return resolved

    # -- the source's own facts

    def _declare_symbol(self, ann):
        # ``symbol <name> <lo> .. <hi>``: a constant box.
        name, _, bounds = ann.text.partition(" ")
        box = tuple(self.const_fold(cparse.parse_expression_text(
            text, lineno=ann.lineno)) for text in bounds.split(".."))
        if len(box) != 2 or None in box or name in self.box:
            raise CertifyError(f"bad symbol annotation: {ann.text!r}",
                               ann.lineno)
        self.box[name] = box

    def _columns(self):
        """The column parameters of every entry, by name."""
        return {name: spec for params in self.contract.entries.values()
                for name, spec in params.items() if isinstance(spec, Buf)}

    def _member_fact(self, struct, field, anns, columns):
        """Resolve the fact of one member: its annotation, else the
        column of its name for a pointer member."""
        key = (struct, field.name)
        name = f"{struct}.{field.name}"
        if not anns:
            if field.ptr and field.name in columns:
                self.buffers[key] = self._column(name, field,
                                                 columns[field.name])
            return
        ann = anns[0]
        if (ann.kind == "range") != (field.ptr == 0
                                     and field.array_len is None):
            self.ann_errors.append((ann.lineno, f"certify {ann.kind} on"
                                    f" {name}, which it cannot bound"))
        elif ann.kind == "range":
            lo_text, _, hi_text = ann.text.partition("..")
            interval = self._interval_of(lo_text, hi_text, ann)
            checked = self.fields.get(key)
            if checked and not iv.contains(interval, checked[0], self.box):
                self.ann_errors.append((
                    ann.lineno, f"certify range of {name} does not hold"
                    f" the contract's {checked[0]!r}"))
            self.fields[key] = (interval, ann.trusted)
        elif ann.kind == "column":
            if ann.text not in columns:
                self.ann_errors.append((ann.lineno, f"certify column"
                                        f" {ann.text!r} names no column"))
            else:
                self.buffers[key] = self._column(name, field,
                                                 columns[ann.text])
        else:
            # ``buffer length <n> [content <lo> .. <hi>]``
            length, _, content = ann.text.partition(" content ")
            lo_text, _, hi_text = content.partition("..")
            if not length.startswith("length ") or (content and not hi_text):
                raise CertifyError(
                    f"malformed buffer annotation: {ann.text!r}", ann.lineno)
            self.buffers[key] = self._buf(
                name, field.base, length[len("length "):], lo_text or None,
                hi_text or None, ann.trusted, ann)

    def _column(self, name, field, column):
        return self._buf(name, field.base, column.length, column.lo,
                         column.hi)

    def parse_annotation(self, ann):
        """Parsed condition of an assume/requires; None on bad text."""
        cached = self.ann_cache.get(id(ann))
        if cached is not None or id(ann) in self.ann_cache:
            return cached
        try:
            expr = cparse.parse_expression_text(
                ann.text, self.unit.typenames, ann.lineno)
        except cparse.CParseError as exc:
            self.ann_errors.append(
                (ann.lineno, f"bad certify annotation: {exc}"))
            expr = None
        self.ann_cache[id(ann)] = expr
        return expr

    def returns_interval(self, fn):
        """Declared return range of *fn*, or None."""
        if fn.name in self._returns_cache:
            return self._returns_cache[fn.name]
        result = None
        ann = fn.returns
        if ann is not None:
            try:
                lo_text, hi_text = ann.text.split("..", 1)
                result = self._interval_of(lo_text.strip(),
                                           hi_text.strip())
            except (ValueError, CertifyError, cparse.CParseError):
                self.ann_errors.append(
                    (ann.lineno,
                     f"bad returns annotation: {ann.text!r}"))
        self._returns_cache[fn.name] = result
        return result

    def type_bytes(self, text):
        """sizeof a type name (naive, padding-free for structs)."""
        base, ptr = _split_ctype(text)
        if ptr:
            return 8
        width = _WIDTHS.get(base)
        if width is not None:
            return width[0] // 8
        decl = self.structs.get(base)
        if decl is None:
            return None
        total = 0
        for field in decl.fields:
            fbytes = 8 if field.ptr else (self.type_bytes(field.base) or 8)
            count = 1
            if field.array_len is not None:
                count = self.const_fold(field.array_len) or 1
            total += fbytes * count
        return total

    def const_fold(self, expr):
        """Integer value of a compile-time constant, or None."""
        return cparse.const_fold(expr, self.defines, self.type_bytes)

    # -- bound/expression folding over symbols and defines

    def _affine_text(self, text, ann=None):
        expr = cparse.parse_expression_text(text, self.unit.typenames,
                                            ann.lineno if ann else 0)
        bound = self.affine_fold(expr)
        if bound is None:
            what = f"certify {ann.kind}" if ann else "contract"
            raise CertifyError(f"{what} bound {text.strip()!r} is not affine"
                               " over the declared symbols",
                               ann.lineno if ann else 0)
        return bound

    def affine_fold(self, expr):
        """Fold an annotation/contract expression to an affine bound
        over symbols and defines; ``None`` when it is not one."""
        if isinstance(expr, cparse.CNum):
            return iv.Affine(expr.value)
        if isinstance(expr, cparse.CName):
            if expr.name in self.defines:
                return iv.Affine(self.defines[expr.name])
            if expr.name in self.box:
                return iv.Affine(0, {expr.name: 1})
            return None
        if isinstance(expr, cparse.CUnary) and expr.op == "-":
            inner = self.affine_fold(expr.operand)
            return None if inner is None else inner.scale(-1)
        if isinstance(expr, cparse.CBinary):
            left = self.affine_fold(expr.left)
            right = self.affine_fold(expr.right)
            if left is None or right is None:
                return None
            if expr.op == "+":
                return left.add(right)
            if expr.op == "-":
                return left.sub(right)
            if expr.op == "*":
                if left.is_const:
                    return right.scale(left.const)
                if right.is_const:
                    return left.scale(right.const)
                return None
            if expr.op == "<<" and right.is_const and left.is_const:
                return iv.Affine(left.const << right.const)
            return None
        return None

    def _interval_of(self, lo_text, hi_text, ann=None):
        return iv.Interval(self._affine_text(lo_text, ann),
                           self._affine_text(hi_text, ann))

    def _buf(self, name, base, length, lo=None, hi=None, trusted=False,
             ann=None):
        """A buffer of *length* elements of the C type *base*, valued
        in ``[lo, hi]`` (its type's range when *lo* is None)."""
        elem = _WIDTHS.get(base)
        if elem is None:
            raise CertifyError(f"buffer {name}: unknown element type"
                               f" {base!r}", ann.lineno if ann else 0)
        if lo is None:
            content = iv.width_interval(*elem)
        else:
            content = self._interval_of(lo, hi, ann)
        return _BufSpec(name, self._affine_text(length, ann), content,
                        elem, trusted=trusted)

    def _parse_buffer_annotation(self, ann, fn):
        # ``buffer <param> length <expr> content <lo> .. <hi>``: the
        # element type is the pointer parameter's.
        try:
            rest = ann.text
            name, rest = rest.split(None, 1)
            _, rest = rest.split("length", 1)
            length_text, rest = rest.split("content", 1)
            lo_text, hi_text = rest.split("..", 1)
        except ValueError:
            raise CertifyError(
                f"malformed buffer annotation: {ann.text!r}", ann.lineno
            ) from None
        base = next((base for param, base, ptr in fn.params
                     if param == name and ptr), None)
        return name, self._buf(f"{name} (annotated)", base, length_text,
                               lo_text, hi_text, ann=ann)

    # -- struct lookups

    def struct_field(self, struct, field):
        decl = self.structs.get(struct)
        return None if decl is None else decl.field(field)

    def field_invariant(self, struct, field):
        return self.fields.get((struct, field))

    def field_buffer(self, struct, field):
        return self.buffers.get((struct, field))

    def width_of(self, ctype):
        return _WIDTHS.get(ctype.replace("const ", "").strip())


# ------------------------------------------------------- abstract state

class _State:
    __slots__ = ("scalars", "ptrs", "reachable")

    def __init__(self, scalars=None, ptrs=None, reachable=True):
        self.scalars = dict(scalars or {})
        self.ptrs = dict(ptrs or {})
        self.reachable = reachable

    def clone(self):
        return _State(self.scalars, self.ptrs, self.reachable)


class _Value:
    """Result of evaluating one expression."""

    __slots__ = ("interval", "ct", "ref", "key")

    def __init__(self, interval=iv.TOP, ct=(64, True), ref=None, key=None):
        self.interval = interval
        self.ct = ct          # (bits, signed) or None for pointers
        self.ref = ref        # _BufSpec | _StructPtr | _ElemSpec | None
        self.key = key        # state key for lvalues


def _pure(expr):
    """No assignments, ``++``/``--`` or calls anywhere inside."""
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, (cparse.CAssign, cparse.CPostfix,
                             cparse.CCall)):
            return False
        if isinstance(node, cparse.CUnary):
            if node.op in ("++", "--"):
                return False
            stack.append(node.operand)
        elif isinstance(node, cparse.CBinary):
            stack.extend((node.left, node.right))
        elif isinstance(node, cparse.CCond):
            stack.extend((node.cond, node.then, node.other))
        elif isinstance(node, cparse.CIndex):
            stack.extend((node.base, node.index))
        elif isinstance(node, cparse.CFieldRef):
            stack.append(node.base)
        elif isinstance(node, cparse.CCast):
            stack.append(node.operand)
        elif isinstance(node, cparse.CSizeof):
            if not isinstance(node.arg, str):
                stack.append(node.arg)
    return True


# ----------------------------------------------------------- control flow

class _Node:
    __slots__ = ("kind", "payload", "assumes", "succs", "loop_head",
                 "lineno")

    def __init__(self, kind, payload, assumes=(), lineno=0):
        self.kind = kind        # "stmt" | "branch" | "nop"
        self.payload = payload
        self.assumes = list(assumes)
        self.succs = []         # (node_id, cond_expr|None, sense)
        self.loop_head = False
        self.lineno = lineno


class _Cfg:
    def __init__(self):
        self.nodes = []

    def add(self, kind, payload, assumes=(), lineno=0):
        self.nodes.append(_Node(kind, payload, assumes, lineno))
        return len(self.nodes) - 1

    def edge(self, src, dst, cond=None, sense=True, back=False):
        self.nodes[src].succs.append((dst, cond, sense, back))


def _lower_function(fn):
    """Statement-level CFG: returns (cfg, entry_id, exit_id)."""
    cfg = _Cfg()
    entry = cfg.add("nop", None)
    exit_id = cfg.add("nop", None)
    loops = []  # (continue_target, break_target)

    def lower_block(stmts, preds):
        # preds: list of (node, cond, sense) dangling edges.
        for stmt in stmts:
            preds = lower_stmt(stmt, preds)
        return preds

    def connect(preds, target, back=False):
        for node, cond, sense in preds:
            cfg.edge(node, target, cond, sense, back)

    def lower_stmt(stmt, preds):
        if isinstance(stmt, (cparse.CExprStmt, cparse.CDeclStmt)):
            node = cfg.add("stmt", stmt, stmt.assumes, stmt.lineno)
            connect(preds, node)
            return [(node, None, True)]
        if isinstance(stmt, cparse.CReturn):
            node = cfg.add("stmt", stmt, stmt.assumes, stmt.lineno)
            connect(preds, node)
            cfg.edge(node, exit_id)
            return []
        if isinstance(stmt, cparse.CBreak):
            node = cfg.add("nop", None, stmt.assumes, stmt.lineno)
            connect(preds, node)
            cfg.edge(node, loops[-1][1])
            return []
        if isinstance(stmt, cparse.CContinue):
            node = cfg.add("nop", None, stmt.assumes, stmt.lineno)
            connect(preds, node)
            cfg.edge(node, loops[-1][0], back=True)
            return []
        if isinstance(stmt, cparse.CIf):
            node = cfg.add("branch", stmt.cond, stmt.assumes, stmt.lineno)
            connect(preds, node)
            then_exits = lower_block(stmt.then, [(node, stmt.cond, True)])
            else_exits = lower_block(stmt.orelse,
                                     [(node, stmt.cond, False)])
            return then_exits + else_exits
        if isinstance(stmt, cparse.CWhile):
            head = cfg.add("branch", stmt.cond, stmt.assumes, stmt.lineno)
            cfg.nodes[head].loop_head = True
            connect(preds, head)
            after = cfg.add("nop", None)
            cfg.edge(head, after, stmt.cond, False)
            loops.append((head, after))
            body_exits = lower_block(stmt.body, [(head, stmt.cond, True)])
            loops.pop()
            connect(body_exits, head, back=True)
            return [(after, None, True)]
        if isinstance(stmt, cparse.CFor):
            if stmt.init is not None:
                preds = lower_stmt(stmt.init, preds)
            head = cfg.add("branch", stmt.cond, stmt.assumes, stmt.lineno)
            cfg.nodes[head].loop_head = True
            connect(preds, head)
            after = cfg.add("nop", None)
            if stmt.cond is not None:
                cfg.edge(head, after, stmt.cond, False)
            step_node = cfg.add(
                "stmt",
                cparse.CExprStmt(stmt.step, stmt.step.lineno)
                if stmt.step is not None else None,
                lineno=stmt.lineno,
            )
            if cfg.nodes[step_node].payload is None:
                cfg.nodes[step_node].kind = "nop"
            loops.append((step_node, after))
            body_exits = lower_block(stmt.body,
                                     [(head, stmt.cond, True)])
            loops.pop()
            connect(body_exits, step_node)
            cfg.edge(step_node, head, back=True)
            return [(after, None, True)]
        raise CertifyError(
            f"unsupported statement {type(stmt).__name__}", stmt.lineno
        )

    exits = lower_block(fn.body, [(entry, None, True)])
    connect(exits, exit_id)
    return cfg, entry, exit_id


# --------------------------------------------------- may-write summaries

def _direct_writes(fn):
    """Keys of the form (root_param, suffix) this body assigns, where
    suffix is the normalised field path (``"->f"``, ``"->f.g"``) or
    ``"*"`` for a pointee write."""
    params = {name for name, _, _ in fn.params}
    writes = set()
    calls = []

    def record(target):
        if (isinstance(target, cparse.CIndex)
                and isinstance(target.base, cparse.CName)
                and target.base.name in params):
            # Element writes only matter for call-site content checks.
            writes.add((target.base.name, "[]"))
            return
        key = _target_template(target, params)
        if key is not None:
            writes.add(key)

    def walk(expr):
        if isinstance(expr, cparse.CAssign):
            record(expr.target)
            walk(expr.target)
            walk(expr.value)
        elif isinstance(expr, (cparse.CPostfix,)):
            record(expr.operand)
            walk(expr.operand)
        elif isinstance(expr, cparse.CUnary):
            if expr.op in ("++", "--"):
                record(expr.operand)
            walk(expr.operand)
        elif isinstance(expr, cparse.CBinary):
            walk(expr.left)
            walk(expr.right)
        elif isinstance(expr, cparse.CCond):
            walk(expr.cond)
            walk(expr.then)
            walk(expr.other)
        elif isinstance(expr, cparse.CIndex):
            walk(expr.base)
            walk(expr.index)
        elif isinstance(expr, cparse.CFieldRef):
            walk(expr.base)
        elif isinstance(expr, cparse.CCast):
            walk(expr.operand)
        elif isinstance(expr, cparse.CCall):
            calls.append(expr)
            for arg in expr.args:
                walk(arg)

    for stmt in cparse._walk_statements(fn.body):
        for expr in _stmt_exprs(stmt):
            walk(expr)
    return writes, calls


def _stmt_exprs(stmt):
    if isinstance(stmt, cparse.CExprStmt):
        yield stmt.expr
    elif isinstance(stmt, cparse.CDeclStmt):
        for decl in stmt.decls:
            if decl.init is not None:
                yield decl.init
    elif isinstance(stmt, cparse.CReturn):
        if stmt.value is not None:
            yield stmt.value
    elif isinstance(stmt, cparse.CIf):
        yield stmt.cond
    elif isinstance(stmt, cparse.CWhile):
        yield stmt.cond
    elif isinstance(stmt, cparse.CFor):
        if stmt.cond is not None:
            yield stmt.cond
        if stmt.step is not None:
            yield stmt.step


def _target_template(target, params):
    """``(root_param, suffix)`` for a write through a parameter."""
    if isinstance(target, cparse.CUnary) and target.op == "*":
        if (isinstance(target.operand, cparse.CName)
                and target.operand.name in params):
            return (target.operand.name, "*")
        return None
    parts = []
    node = target
    while isinstance(node, cparse.CFieldRef):
        parts.append(("->" if node.arrow else ".") + node.field)
        node = node.base
    if isinstance(node, cparse.CName) and node.name in params and parts:
        return (node.name, "".join(reversed(parts)))
    return None


def _summaries(unit):
    """Transitive may-write templates per function."""
    direct = {}
    callgraph = {}
    for name, fn in unit.functions.items():
        writes, calls = _direct_writes(fn)
        direct[name] = writes
        callgraph[name] = calls
    summaries = {name: set(w) for name, w in direct.items()}
    changed = True
    while changed:
        changed = False
        for name, calls in callgraph.items():
            fn = unit.functions[name]
            params = {p for p, _, _ in fn.params}
            for call in calls:
                callee = unit.functions.get(call.name)
                if callee is None:
                    continue
                mapped = _map_templates(
                    summaries[call.name], callee, call, params)
                if not mapped <= summaries[name]:
                    summaries[name] |= mapped
                    changed = True
    return summaries


def _map_templates(templates, callee, call, caller_params):
    """Rewrite callee write templates through one call's arguments to
    caller-relative templates (only those rooted at caller params are
    propagated further; the interpreter maps the rest locally)."""
    out = set()
    args = dict(zip((p for p, _, _ in callee.params), call.args))
    for root, suffix in templates:
        arg = args.get(root)
        if arg is None:
            continue
        mapped = _rebase_template(arg, suffix, caller_params)
        if mapped is not None:
            out.add(mapped)
    return out


def _rebase_template(arg, suffix, roots):
    """The caller-side template for a callee write ``root{suffix}``
    when *root* is bound to *arg*; ``None`` if untracked."""
    if isinstance(arg, cparse.CCast):
        arg = arg.operand
    if isinstance(arg, cparse.CName):
        if arg.name not in roots:
            return None
        return (arg.name, suffix)
    if suffix == "[]":
        # Element writes propagate only through plain-name arguments.
        return None
    if isinstance(arg, cparse.CUnary) and arg.op == "&":
        inner = arg.operand
        if suffix == "*":
            return _target_template(inner, roots)
        # ``(&x)->f`` is ``x.f``: swap the leading arrow for a dot.
        new_suffix = "." + suffix[2:] if suffix.startswith("->") else suffix
        prefix = _target_template(
            cparse.CFieldRef(inner, "_", False, inner.lineno), roots)
        if prefix is None:
            return None
        root, pre = prefix
        return (root, pre[:-2] + new_suffix)
    return None


def _havoc_keys(arg, suffix):
    """State keys to drop in the *caller* for one callee write."""
    if isinstance(arg, cparse.CCast):
        arg = arg.operand
    if isinstance(arg, cparse.CName):
        if suffix == "*":
            return [f"*{arg.name}"]
        return [f"{arg.name}{suffix}"]
    if isinstance(arg, cparse.CUnary) and arg.op == "&":
        base = _key_text(arg.operand)
        if base is None:
            return []
        if suffix == "*":
            return [base]
        joined = "." + suffix[2:] if suffix.startswith("->") else suffix
        return [f"{base}{joined}"]
    return []


def _key_text(expr):
    """The state key an lvalue expression denotes, or ``None``."""
    if isinstance(expr, cparse.CName):
        return expr.name
    if isinstance(expr, cparse.CFieldRef):
        base = _key_text(expr.base)
        if base is None:
            return None
        return f"{base}{'->' if expr.arrow else '.'}{expr.field}"
    if isinstance(expr, cparse.CUnary) and expr.op == "*":
        base = _key_text(expr.operand)
        return None if base is None else f"*{base}"
    return None


# ------------------------------------------------------------ type info

_CMP_OPS = frozenset({"<", "<=", ">", ">=", "==", "!="})
_NEG_OP = {"<": ">=", "<=": ">", ">": "<=", ">=": "<",
           "==": "!=", "!=": "=="}
_FLIP_OP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=",
            "==": "==", "!=": "!="}


def _split_ctype(text):
    """``('int64_t', ptr_depth)`` from a normalised ctype string."""
    t = text.replace("const", " ").strip()
    ptr = t.count("*")
    return t.replace("*", " ").strip(), ptr


def _split_ptr_arith(expr):
    """``(base, offset_or_None)`` for ``buf`` / ``buf + k``."""
    expr = cparse.strip_casts(expr)
    if isinstance(expr, cparse.CBinary) and expr.op == "+":
        return expr.left, expr.right
    return expr, None


def _prove_cmp(op, a, b, box):
    """Is ``a OP b`` certain, comparing two intervals endpoint-wise?"""
    one = iv.const_bound(1)
    if op == "<=":
        return iv.bound_le(a.hi, b.lo, box)
    if op == "<":
        return iv.bound_le(iv.bound_add(a.hi, one), b.lo, box)
    if op == ">=":
        return iv.bound_le(b.hi, a.lo, box)
    if op == ">":
        return iv.bound_le(iv.bound_add(b.hi, one), a.lo, box)
    if op == "==":
        return (iv.bound_le(a.hi, b.lo, box)
                and iv.bound_le(b.hi, a.lo, box))
    if op == "!=":
        return (_prove_cmp("<", a, b, box)
                or _prove_cmp(">", a, b, box))
    return False


def _cmp_refine(cur, op, bound_iv, box):
    """Meet *cur* with the values satisfying ``x OP bound_iv``."""
    minus_one = iv.const_bound(-1)
    one = iv.const_bound(1)
    if op == "<=":
        return iv.meet(cur, iv.Interval(iv.NEG_INF, bound_iv.hi), box)
    if op == "<":
        return iv.meet(cur, iv.Interval(
            iv.NEG_INF, iv.bound_add(bound_iv.hi, minus_one)), box)
    if op == ">=":
        return iv.meet(cur, iv.Interval(bound_iv.lo, iv.POS_INF), box)
    if op == ">":
        return iv.meet(cur, iv.Interval(
            iv.bound_add(bound_iv.lo, one), iv.POS_INF), box)
    if op == "==":
        return iv.meet(cur, bound_iv, box)
    if op == "!=":
        # Endpoint exclusion when the excluded value is a single bound.
        lo, hi = bound_iv.lo, bound_iv.hi
        if (not isinstance(lo, iv.Inf) and not isinstance(hi, iv.Inf)
                and lo.same_as(hi) and not cur.is_bottom):
            if not isinstance(cur.hi, iv.Inf) and cur.hi.same_as(lo):
                return iv.meet(cur, iv.Interval(
                    iv.NEG_INF, iv.bound_add(lo, minus_one)), box)
            if not isinstance(cur.lo, iv.Inf) and cur.lo.same_as(lo):
                return iv.meet(cur, iv.Interval(
                    iv.bound_add(lo, one), iv.POS_INF), box)
        return cur
    return cur


def _cmp_impossible(op, total, box):
    """Is ``total OP 0`` false for every concrete run?"""
    zero = iv.const_bound(0)
    one = iv.const_bound(1)
    if total.is_bottom:
        return False
    if op == "<":
        return iv.bound_le(zero, total.lo, box)
    if op == "<=":
        return iv.bound_le(one, total.lo, box)
    if op == ">":
        return iv.bound_le(total.hi, zero, box)
    if op == ">=":
        return iv.bound_le(total.hi, iv.const_bound(-1), box)
    if op == "==":
        return (iv.bound_le(one, total.lo, box)
                or iv.bound_le(total.hi, iv.const_bound(-1), box))
    if op == "!=":
        return (not isinstance(total.lo, iv.Inf)
                and not isinstance(total.hi, iv.Inf)
                and total.lo.is_const and total.lo.const == 0
                and total.hi.is_const and total.hi.const == 0)
    return False


# --------------------------------------------------- per-function engine

class _FnCore:
    """State/metadata half of the per-function engine (see :class:`_Fn`)."""

    def __init__(self, env, fn, summaries, sink):
        self.env = env
        self.fn = fn
        self.summaries = summaries
        self.sink = sink       # (kind, lineno, message) -> ok
        self.box = env.box
        self.entry_params = env.entries.get(fn.name)
        self.is_entry = self.entry_params is not None
        self.var_types = {name: (base, ptr)
                          for name, base, ptr in fn.params}
        for stmt in cparse._walk_statements(fn.body):
            if isinstance(stmt, cparse.CDeclStmt):
                for decl in stmt.decls:
                    self.var_types[decl.name] = (stmt.base_type, decl.ptr)
        # key -> (ct, default Interval, checked_inv|None, trusted)
        self.key_meta = {}
        self.local_bufs = {}
        self.checking = False

    # -- obligations

    def oblige(self, kind, lineno, ok, message):
        if not self.checking:
            return
        key = (kind, lineno, message)
        prev = self.sink.get(key, True)
        self.sink[key] = prev and ok

    # -- key metadata and state access

    def _note_key(self, key, ct, inv_pair):
        meta = self.key_meta.get(key)
        if meta is not None:
            return meta
        if inv_pair is not None:
            default = inv_pair[0]
            trusted = inv_pair[1]
            checked = None if trusted else inv_pair[0]
        else:
            default = iv.width_interval(*ct) if ct else iv.TOP
            checked = None
            trusted = False
        meta = (ct, default, checked, trusted)
        self.key_meta[key] = meta
        return meta

    def default_iv(self, key):
        meta = self.key_meta.get(key)
        return meta[1] if meta else iv.TOP

    def get_iv(self, state, key):
        val = state.scalars.get(key)
        return val if val is not None else self.default_iv(key)

    # -- entry state

    def entry_state(self):
        state = _State()
        if self.is_entry:
            for pname, ptype, pptr in self.fn.params:
                spec = self.entry_params.get(pname)
                if isinstance(spec, Sym) and pptr == 0:
                    ct = self.env.width_of(ptype) or (64, True)
                    self._note_key(pname, ct, None)
                    state.scalars[pname] = iv.symbol_interval(spec.name)
        for ann in self.fn.requires:
            cond = self.env.parse_annotation(ann)
            if cond is not None:
                self.refine_into(state, cond, True)
        return state

    # -- linear forms: {state_key: coeff} + Interval rest.  Affine
    #    endpoints in the rest cancel through symbols; the coefficient
    #    map cancels through mutable variables, recovering relational
    #    facts (``k + (*count - k)`` -> ``*count``) the plain interval
    #    evaluation loses.

    def _pure_eval(self, expr, state):
        saved = self.checking
        self.checking = False
        try:
            return self.eval(expr, state.clone())
        finally:
            self.checking = saved

    def _form(self, expr, state):
        expr = cparse.strip_casts(expr)
        if isinstance(expr, cparse.CNum):
            return ({}, iv.const_interval(expr.value))
        if isinstance(expr, cparse.CSizeof):
            size = self._sizeof(expr)
            return None if size is None else ({}, iv.const_interval(size))
        if isinstance(expr, cparse.CName):
            name = expr.name
            if name not in self.var_types:
                if name in self.env.defines:
                    return ({}, iv.const_interval(self.env.defines[name]))
                if name in self.box:
                    return ({}, iv.symbol_interval(name))
                return None
        if isinstance(expr, cparse.CBinary) and expr.op in ("+", "-"):
            left = self._form(expr.left, state)
            right = self._form(expr.right, state)
            if left is None or right is None:
                return None
            if expr.op == "-":
                right = _form_scale(right, -1)
            return _form_add(left, right)
        if isinstance(expr, cparse.CBinary) and expr.op == "*":
            for side, other in ((expr.left, expr.right),
                                (expr.right, expr.left)):
                k = self.env.const_fold(side)
                if k is not None:
                    inner = self._form(other, state)
                    return None if inner is None else _form_scale(inner, k)
        if not _pure(expr):
            return None
        value = self._pure_eval(expr, state)
        if value.ct is None:
            return None
        if value.key is not None:
            return ({value.key: 1}, iv.const_interval(0))
        return ({}, value.interval)

    def _form_total(self, form, state):
        coeffs, rest = form
        total = rest
        for key, coeff in coeffs.items():
            term = iv.mul(self.get_iv(state, key),
                          iv.const_interval(coeff), self.box)
            total = iv.add(total, term)
        return total

    def _form_interval(self, expr, state, fallback=None):
        """Best interval for an index/size expression."""
        if _pure(expr):
            form = self._form(expr, state)
            if form is not None:
                return self._form_total(form, state)
        if fallback is not None:
            return fallback
        return self._pure_eval(expr, state).interval


def _form_add(a, b):
    coeffs = dict(a[0])
    for key, coeff in b[0].items():
        coeffs[key] = coeffs.get(key, 0) + coeff
        if coeffs[key] == 0:
            del coeffs[key]
    return (coeffs, iv.add(a[1], b[1]))


def _form_scale(form, k):
    coeffs = {key: c * k for key, c in form[0].items()}
    rest = form[1]
    if k >= 0:
        rest = iv.Interval(iv.bound_scale(rest.lo, k),
                           iv.bound_scale(rest.hi, k))
    else:
        rest = iv.Interval(iv.bound_scale(rest.hi, k),
                           iv.bound_scale(rest.lo, k))
    return (coeffs, rest)


class _FnEval:
    """Mixin half of :class:`_Fn`: the expression evaluator."""

    # -- dispatch

    def eval(self, expr, state):
        if isinstance(expr, cparse.CNum):
            return _Value(iv.const_interval(expr.value),
                          (64, not expr.unsigned))
        if isinstance(expr, cparse.CName):
            return self._eval_name(expr, state)
        if isinstance(expr, cparse.CFieldRef):
            return self._eval_field(expr, state)
        if isinstance(expr, cparse.CIndex):
            return self._eval_index(expr, state)
        if isinstance(expr, cparse.CUnary):
            return self._eval_unary(expr, state)
        if isinstance(expr, cparse.CPostfix):
            return self._incdec(expr.operand, expr.op, state,
                                expr.lineno, post=True)
        if isinstance(expr, cparse.CBinary):
            return self._eval_binary(expr, state)
        if isinstance(expr, cparse.CAssign):
            return self._eval_assign(expr, state)
        if isinstance(expr, cparse.CCond):
            return self._eval_cond(expr, state)
        if isinstance(expr, cparse.CCall):
            return self._eval_call(expr, state)
        if isinstance(expr, cparse.CCast):
            return self._eval_cast(expr, state)
        if isinstance(expr, cparse.CSizeof):
            size = self._sizeof(expr)
            if size is None:
                raise CertifyError(f"cannot size {unparse(expr)}",
                                   expr.lineno)
            return _Value(iv.const_interval(size), (64, False))
        raise CertifyError(
            f"unsupported expression {type(expr).__name__}", expr.lineno)

    def _sizeof(self, expr):
        if isinstance(expr.arg, str):
            return self.env.type_bytes(expr.arg)
        arg = cparse.strip_casts(expr.arg)
        if isinstance(arg, cparse.CUnary) and arg.op == "*":
            arg = arg.operand
        if isinstance(arg, cparse.CName):
            vt = self.var_types.get(arg.name)
            if vt is not None:
                return self.env.type_bytes(vt[0])
        return None

    # -- names, fields, places

    def _eval_name(self, expr, state):
        name = expr.name
        vt = self.var_types.get(name)
        if vt is not None:
            base, ptr = vt
            structs = self.env.structs
            if ptr > 0 or base in structs:
                return self._pointer_value(name, base, ptr, state)
            ct = self.env.width_of(base) or (64, True)
            self._note_key(name, ct, None)
            return _Value(self.get_iv(state, name), ct, key=name)
        if name in self.env.defines:
            return _Value(iv.const_interval(self.env.defines[name]),
                          (64, True))
        if name in self.box:
            return _Value(iv.symbol_interval(name), (64, True))
        raise CertifyError(f"unknown identifier {name!r}", expr.lineno)

    def _pointer_value(self, name, base, ptr, state):
        if self.is_entry:
            spec = self.entry_params.get(name)
            if isinstance(spec, (_BufSpec, _ElemSpec)):
                return _Value(ct=None, ref=spec, key=name)
        ref = state.ptrs.get(name)
        if ref is None:
            ref = self.local_bufs.get(name)
        if ref is None:
            ref = self.env.ann_buffers.get((self.fn.name, name))
        if ref is None and base in self.env.structs:
            ref = _StructPtr(base)
        return _Value(ct=None, ref=ref, key=name)

    def _place(self, expr, state):
        """``(struct, key_prefix_or_None)`` for a struct-typed lvalue."""
        if isinstance(expr, cparse.CName):
            vt = self.var_types.get(expr.name)
            if (vt and vt[0] in self.env.structs
                    and vt[1] <= 1):
                return (vt[0], expr.name)
            return None
        if isinstance(expr, cparse.CFieldRef):
            value = self._eval_field(expr, state)
            if isinstance(value.ref, _StructPtr):
                return (value.ref.struct, value.key)
            return None
        if isinstance(expr, cparse.CIndex):
            value = self._eval_index(expr, state)
            if isinstance(value.ref, _StructPtr):
                return (value.ref.struct, None)
            return None
        return None

    def _eval_field(self, expr, state):
        place = self._place(expr.base, state)
        if place is None:
            raise CertifyError(
                f"cannot resolve {unparse(expr)}", expr.lineno)
        struct, prefix = place
        fdecl = self.env.struct_field(struct, expr.field)
        if fdecl is None:
            raise CertifyError(
                f"no field {expr.field!r} in struct {struct}",
                expr.lineno)
        sep = "->" if expr.arrow else "."
        key = f"{prefix}{sep}{expr.field}" if prefix else None
        fbase, fptr = fdecl.base, fdecl.ptr
        structs = self.env.structs
        if fbase in structs:
            return _Value(ct=None, ref=_StructPtr(fbase), key=key)
        if fptr > 0 or fdecl.array_len is not None:
            ref = self.env.field_buffer(struct, expr.field)
            return _Value(ct=None, ref=ref, key=key)
        ct = self.env.width_of(fbase) or (64, True)
        inv_pair = self.env.field_invariant(struct, expr.field)
        if key is not None:
            self._note_key(key, ct, inv_pair)
            return _Value(self.get_iv(state, key), ct, key=key)
        interval = inv_pair[0] if inv_pair else iv.width_interval(*ct)
        return _Value(interval, ct)

    # -- subscripts

    def _eval_index(self, expr, state, store=None):
        base = self.eval(expr.base, state)
        idx = self.eval(expr.index, state)
        spec = base.ref
        text = unparse(expr)
        if isinstance(spec, _BufSpec):
            self._check_bounds(expr.index, idx, spec.length, state,
                               expr.lineno, text, spec.name)
            if store is not None and not spec.trusted:
                ok = iv.contains(spec.content, store.interval, self.box)
                self.oblige(
                    "bounds", expr.lineno, ok,
                    f"store {text}: value in {store.interval!r}, "
                    f"contract [{spec.content.lo!r}, "
                    f"{spec.content.hi!r}]")
                return store
            return _Value(spec.content, spec.elem)
        if isinstance(spec, _ElemSpec):
            self._check_bounds(expr.index, idx, spec.length, state,
                               expr.lineno, text, f"{spec.struct}[]")
            return _Value(ct=None, ref=_StructPtr(spec.struct))
        self.oblige("bounds", expr.lineno, False,
                    f"subscript {text}: no buffer contract for the base")
        return store if store is not None else _Value(iv.TOP, (64, True))

    def _check_bounds(self, idx_ast, idx_val, length, state, lineno,
                      text, bufname):
        idx_iv = self._form_interval(idx_ast, state,
                                     fallback=idx_val.interval)
        ok = (iv.bound_le(iv.const_bound(0), idx_iv.lo, self.box)
              and iv.bound_le(idx_iv.hi, length.shift(-1), self.box))
        self.oblige("bounds", lineno, ok,
                    f"subscript {text}: index in {idx_iv!r}, "
                    f"{bufname} length {length!r}")

    # -- unary / arithmetic

    def _eval_unary(self, expr, state):
        op = expr.op
        if op == "&":
            place = self._place(expr.operand, state)
            if place is not None:
                return _Value(ct=None, ref=_StructPtr(place[0]))
            return _Value(ct=None)
        if op == "*":
            inner = self.eval(expr.operand, state)
            if isinstance(inner.ref, _BufSpec):
                ok = iv.bound_le(iv.const_bound(1), inner.ref.length,
                                 self.box)
                self.oblige("bounds", expr.lineno, ok,
                            f"deref {unparse(expr)}: buffer length "
                            f"{inner.ref.length!r} may be 0")
                return _Value(inner.ref.content, inner.ref.elem)
            if inner.key is not None:
                vt = self.var_types.get(inner.key)
                if vt and vt[1] == 1:
                    ct = self.env.width_of(vt[0]) or (64, True)
                    key = f"*{inner.key}"
                    self._note_key(key, ct, None)
                    return _Value(self.get_iv(state, key), ct, key=key)
            raise CertifyError(
                f"cannot dereference {unparse(expr)}", expr.lineno)
        if op in ("++", "--"):
            return self._incdec(expr.operand, op, state, expr.lineno,
                                post=False)
        value = self.eval(expr.operand, state)
        ct = value.ct or (64, True)
        if op == "-":
            return self._arith(iv.neg(value.interval), ct,
                               expr.lineno, unparse(expr))
        if op == "!":
            zero = iv.const_interval(0)
            if _prove_cmp("==", value.interval, zero, self.box):
                return _Value(iv.const_interval(1), (32, True))
            if _prove_cmp("!=", value.interval, zero, self.box):
                return _Value(zero, (32, True))
            return _Value(iv.Interval(iv.const_bound(0),
                                      iv.const_bound(1)), (32, True))
        if op == "~":
            return _Value(iv.width_interval(*ct), ct)
        raise CertifyError(f"unsupported unary {op!r}", expr.lineno)

    def _arith(self, result, ct, lineno, text):
        width = iv.width_interval(*ct)
        if not iv.contains(width, result, self.box):
            if ct[1]:
                self.oblige("overflow", lineno, False,
                            f"{text}: result in {result!r} exceeds "
                            f"int{ct[0]}")
            else:
                result = width
        return _Value(result, ct)

    def _promote(self, lct, rct):
        lct = lct or (64, True)
        rct = rct or (64, True)
        bits = max(32, lct[0], rct[0])
        signed = not any(ct[0] == bits and not ct[1]
                         for ct in (lct, rct))
        return (bits, signed)

    def _apply_op(self, op, left, right, lineno, text):
        ct = self._promote(left.ct, right.ct)
        a, b = left.interval, right.interval
        box = self.box
        if op == "+":
            res = iv.add(a, b)
        elif op == "-":
            res = iv.sub(a, b)
        elif op == "*":
            res = iv.mul(a, b, box)
        elif op == "/":
            res = iv.div(a, b, box)
        elif op == "%":
            res = iv.mod(a, b, box)
        elif op == "<<":
            res = iv.shl(a, b, box)
        elif op == ">>":
            res = iv.shr(a, b, box)
        elif op == "&":
            res = iv.bitand(a, b, box)
        elif op in ("|", "^"):
            res = iv.bitor(a, b, box)
        else:
            raise CertifyError(f"unsupported operator {op!r}", lineno)
        return self._arith(res, ct, lineno, text)

    def _eval_binary(self, expr, state):
        op = expr.op
        if op in ("&&", "||"):
            left = self.eval(expr.left, state)
            branch = state.clone()
            reachable = self.refine_into(branch, expr.left, op == "&&")
            if reachable:
                self.eval(expr.right, branch)
            zero = iv.const_interval(0)
            if op == "&&" and _prove_cmp("==", left.interval, zero,
                                         self.box):
                return _Value(zero, (32, True))
            return _Value(iv.Interval(iv.const_bound(0),
                                      iv.const_bound(1)), (32, True))
        left = self.eval(expr.left, state)
        right = self.eval(expr.right, state)
        if op in _CMP_OPS:
            form = None
            if _pure(expr.left) and _pure(expr.right):
                lf = self._form(expr.left, state)
                rf = self._form(expr.right, state)
                if lf is not None and rf is not None:
                    form = _form_add(lf, _form_scale(rf, -1))
            if form is not None:
                total = self._form_total(form, state)
                zero = iv.const_interval(0)
                if _prove_cmp(op, total, zero, self.box):
                    return _Value(iv.const_interval(1), (32, True))
                if _cmp_impossible(op, total, self.box):
                    return _Value(iv.const_interval(0), (32, True))
            return _Value(iv.Interval(iv.const_bound(0),
                                      iv.const_bound(1)), (32, True))
        if isinstance(left.ref, (_BufSpec, _ElemSpec)) and op in "+-":
            # Pointer arithmetic: keep the buffer, lose the offset
            # (mem* handlers re-derive offsets from the AST).
            return _Value(ct=None, ref=None, key=None)
        return self._apply_op(op, left, right, expr.lineno,
                              unparse(expr))

    def _eval_cast(self, expr, state):
        value = self.eval(expr.operand, state)
        base, ptr = _split_ctype(expr.ctype)
        if ptr > 0 or base in self.env.structs:
            return _Value(value.interval, None, ref=value.ref,
                          key=value.key)
        ct = self.env.width_of(base)
        if ct is None:
            return value
        if value.ct is None:
            return _Value(iv.width_interval(*ct), ct)
        result = value.interval
        width = iv.width_interval(*ct)
        if not iv.contains(width, result, self.box):
            if ct[1]:
                self.oblige("overflow", expr.lineno, False,
                            f"cast {unparse(expr)}: value in "
                            f"{result!r} exceeds int{ct[0]}")
            else:
                result = width
        return _Value(result, ct, key=value.key)

    def _eval_cond(self, expr, state):
        self.eval(expr.cond, state)
        then_state = state.clone()
        then_ok = self.refine_into(then_state, expr.cond, True)
        else_state = state.clone()
        else_ok = self.refine_into(else_state, expr.cond, False)
        then_val = (self.eval(expr.then, then_state)
                    if then_ok else None)
        else_val = (self.eval(expr.other, else_state)
                    if else_ok else None)
        if then_val is None and else_val is None:
            return _Value(iv.BOTTOM, (64, True))
        if then_val is None:
            return else_val
        if else_val is None:
            return then_val
        res = iv.join(then_val.interval, else_val.interval, self.box)
        ct = self._promote(then_val.ct, else_val.ct)
        res = self._max_pattern(expr, state, res)
        return _Value(res, ct)

    def _max_pattern(self, expr, state, res):
        """``E ? E : K`` / ``E > 0 ? E : K`` with ``K >= 0`` const and
        ``E >= 0``: the result is at least ``E`` — recover the affine
        lower bound the branch join had to drop."""
        k = self.env.const_fold(expr.other)
        if k is None or k < 0:
            return res
        core = cparse.strip_casts(expr.cond)
        if (isinstance(core, cparse.CBinary) and core.op in (">", "!=")
                and self.env.const_fold(core.right) == 0):
            core = core.left
        core = cparse.strip_casts(core)
        then_core = cparse.strip_casts(expr.then)
        if unparse(core) != unparse(then_core):
            return res
        base = self._pure_eval(then_core, state)
        if base.ct is None:
            return res
        lo = self._form_interval(then_core, state,
                                 fallback=base.interval).lo
        if iv.bound_le(iv.const_bound(0), lo, self.box):
            return iv.Interval(lo, res.hi)
        return res


class _FnStores:
    """Mixin: assignments, calls, memory intrinsics, refinement."""

    # -- scalar stores

    def _store_key(self, key, value, target_ast, state, lineno):
        ct = value.ct or (64, True)
        meta = self.key_meta.get(key) or self._note_key(key, ct, None)
        tct, _default, checked, trusted = meta
        tct = tct or ct
        stored = value.interval
        width = iv.width_interval(*tct)
        if not iv.contains(width, stored, self.box):
            if tct[1]:
                self.oblige("overflow", lineno, False,
                            f"store to {unparse(target_ast)}: value in "
                            f"{stored!r} exceeds int{tct[0]}")
            else:
                stored = width
        if checked is not None:
            ok = iv.contains(checked, stored, self.box)
            self.oblige("bounds", lineno, ok,
                        f"store to {unparse(target_ast)}: value in "
                        f"{stored!r}, invariant [{checked.lo!r}, "
                        f"{checked.hi!r}]")
        if trusted:
            # Monotone counters: re-trust the declared bound rather
            # than tracking an ever-growing precise interval.
            state.scalars.pop(key, None)
        else:
            state.scalars[key] = stored

    def _incdec(self, target, op, state, lineno, post):
        binop = "+" if op == "++" else "-"
        one = _Value(iv.const_interval(1), (32, True))
        if isinstance(target, cparse.CIndex):
            old = self._eval_index(target, state)
            new = self._apply_op(binop, old, one, lineno,
                                 f"{unparse(target)}{op}")
            self._eval_index(target, state, store=new)
            return old if post else new
        old = self.eval(target, state)
        if old.key is None or old.ct is None:
            raise CertifyError(
                f"cannot track {unparse(target)}{op}", lineno)
        new = self._apply_op(binop, old, one, lineno,
                             f"{unparse(target)}{op}")
        self._store_key(old.key, new, target, state, lineno)
        return old if post else new

    def _eval_assign(self, expr, state):
        target = expr.target
        rhs = cparse.strip_casts(expr.value)
        if (expr.op == "=" and isinstance(rhs, cparse.CCall)
                and rhs.name == "malloc"):
            return self._malloc(target, rhs, state, expr.lineno)
        if isinstance(target, cparse.CIndex):
            if expr.op == "=":
                value = self.eval(expr.value, state)
            else:
                old = self._eval_index(target, state)
                rval = self.eval(expr.value, state)
                value = self._apply_op(expr.op[:-1], old, rval,
                                       expr.lineno, unparse(expr))
            return self._eval_index(target, state, store=value)
        tv = self.eval(target, state)
        if tv.ct is None:
            value = self.eval(expr.value, state)
            return self._pointer_store(target, value, state,
                                       expr.lineno)
        if expr.op == "=":
            value = self.eval(expr.value, state)
        else:
            rval = self.eval(expr.value, state)
            value = self._apply_op(expr.op[:-1], tv, rval,
                                   expr.lineno, unparse(expr))
        if tv.key is None:
            raise CertifyError(
                f"cannot track store {unparse(expr)}", expr.lineno)
        self._store_key(tv.key, value, target, state, expr.lineno)
        return value

    def _pointer_store(self, target, value, state, lineno):
        if isinstance(target, cparse.CName):
            if isinstance(value.ref, (_BufSpec, _StructPtr, _ElemSpec)):
                state.ptrs[target.name] = value.ref
            else:
                state.ptrs.pop(target.name, None)
            return value
        if isinstance(target, cparse.CFieldRef):
            place = self._place(target.base, state)
            if place is None:
                raise CertifyError(
                    f"cannot resolve {unparse(target)}", lineno)
            struct = place[0]
            spec = self.env.field_buffer(struct, target.field)
            if spec is not None:
                ok = (isinstance(value.ref, _BufSpec)
                      and spec.same_as(value.ref))
                # A null store releases the binding; the contract only
                # constrains buffers that are subsequently indexed.
                if _const_fold_is_zero(value):
                    ok = True
                self.oblige("bounds", lineno, ok,
                            f"pointer field {unparse(target)} bound to "
                            f"an incompatible buffer")
                return value
            fdecl = self.env.struct_field(struct, target.field)
            fbase, fptr = (fdecl.base, fdecl.ptr) if fdecl else ("", 0)
            if fptr > 0 and fbase in self.env.structs:
                ok = (isinstance(value.ref, _StructPtr)
                      and value.ref.struct == fbase)
                self.oblige("bounds", lineno, ok,
                            f"pointer field {unparse(target)} bound to "
                            f"a different struct type")
                return value
        raise CertifyError(
            f"unsupported pointer store {unparse(target)}", lineno)

    # -- malloc

    def _malloc(self, target, call, state, lineno):
        size = self.eval(call.args[0], state)
        size_iv = self._form_interval(call.args[0], state,
                                      fallback=size.interval)
        spec = None
        if isinstance(target, cparse.CFieldRef):
            place = self._place(target.base, state)
            if place is not None:
                spec = self.env.field_buffer(place[0], target.field)
        if spec is None:
            self.oblige("bounds", lineno, False,
                        f"malloc into {unparse(target)}: no buffer "
                        f"contract")
            return _Value(ct=None)
        need = iv.bound_scale(spec.length, spec.elem[0] // 8)
        ok = iv.bound_le(need, size_iv.lo, self.box)
        self.oblige("bounds", lineno, ok,
                    f"malloc for {spec.name}: needs {need!r} bytes, "
                    f"allocates at least {size_iv.lo!r}")
        return _Value(ct=None, ref=spec)

    # -- calls

    def _eval_call(self, expr, state):
        name = expr.name
        if name in _MEM_FUNCS:
            return self._mem_call(expr, state)
        if name == "free":
            for arg in expr.args:
                self.eval(arg, state)
            return _Value(iv.const_interval(0), (32, True))
        if name == "malloc":
            self.eval(expr.args[0], state)
            return _Value(ct=None)
        callee = self.env.unit.functions.get(name)
        if callee is None:
            raise CertifyError(
                f"call to unknown function {name!r}", expr.lineno)
        args = [self.eval(arg, state) for arg in expr.args]
        self._check_call_contract(callee, expr, args, state)
        self._havoc_call(callee, expr, state)
        declared = self.env.returns_interval(callee)
        ct = self.env.width_of(callee.return_type)
        if declared is not None:
            return _Value(declared, ct or (64, True))
        if ct is None:
            return _Value(iv.const_interval(0), (32, True))
        return _Value(iv.width_interval(*ct), ct)

    def _check_call_contract(self, callee, expr, args, state):
        sub = {}
        pairs = list(zip(callee.params, expr.args, args))
        for (pname, _ptype, pptr), ast_arg, value in pairs:
            if pptr == 0 and value.ct is not None:
                sub[pname] = value.interval
            elif pptr >= 1:
                stripped = cparse.strip_casts(ast_arg)
                if (isinstance(stripped, cparse.CUnary)
                        and stripped.op == "&"):
                    inner = self._pure_eval(stripped.operand, state)
                    if inner.ct is not None:
                        sub[f"*{pname}"] = inner.interval
                spec = self.env.ann_buffers.get((callee.name, pname))
                if spec is not None:
                    argspec = (value.ref
                               if isinstance(value.ref, _BufSpec)
                               else None)
                    writes = ((pname, "[]")
                              in self.summaries.get(callee.name, ()))
                    ok = (argspec is not None
                          and iv.bound_le(spec.length, argspec.length,
                                          self.box)
                          and iv.contains(spec.content,
                                          argspec.content, self.box)
                          and (not writes
                               or iv.contains(argspec.content,
                                              spec.content, self.box)))
                    self.oblige(
                        "bounds", expr.lineno, ok,
                        f"call to {callee.name}: argument "
                        f"{unparse(ast_arg)} does not satisfy the "
                        f"declared buffer contract for {pname}")
        for ann in callee.requires:
            cond = self.env.parse_annotation(ann)
            if cond is None:
                continue
            ok = self._prove_with(cond, sub)
            self.oblige("bounds", expr.lineno, ok,
                        f"call to {callee.name}: cannot prove "
                        f"requires {ann.text!r}")

    def _mini_iv(self, expr, sub):
        expr_s = cparse.strip_casts(expr)
        if isinstance(expr_s, cparse.CNum):
            return iv.const_interval(expr_s.value)
        if isinstance(expr_s, cparse.CName):
            name = expr_s.name
            if name in sub:
                return sub[name]
            if name in self.env.defines:
                return iv.const_interval(self.env.defines[name])
            if name in self.box:
                return iv.symbol_interval(name)
            return None
        if isinstance(expr_s, cparse.CUnary):
            if (expr_s.op == "*"
                    and isinstance(expr_s.operand, cparse.CName)):
                return sub.get(f"*{expr_s.operand.name}")
            if expr_s.op == "-":
                inner = self._mini_iv(expr_s.operand, sub)
                return None if inner is None else iv.neg(inner)
            return None
        if isinstance(expr_s, cparse.CBinary):
            left = self._mini_iv(expr_s.left, sub)
            right = self._mini_iv(expr_s.right, sub)
            if left is None or right is None:
                return None
            if expr_s.op == "+":
                return iv.add(left, right)
            if expr_s.op == "-":
                return iv.sub(left, right)
            if expr_s.op == "*":
                return iv.mul(left, right, self.box)
            if expr_s.op == "<<":
                return iv.shl(left, right, self.box)
            return None
        return None

    def _prove_with(self, cond, sub):
        if isinstance(cond, cparse.CBinary):
            if cond.op == "&&":
                return (self._prove_with(cond.left, sub)
                        and self._prove_with(cond.right, sub))
            if cond.op == "||":
                return (self._prove_with(cond.left, sub)
                        or self._prove_with(cond.right, sub))
            if cond.op in _CMP_OPS:
                left = self._mini_iv(cond.left, sub)
                right = self._mini_iv(cond.right, sub)
                if left is None or right is None:
                    return False
                return _prove_cmp(cond.op, left, right, self.box)
        return False

    def _havoc_call(self, callee, expr, state):
        templates = self.summaries.get(callee.name, ())
        pmap = dict(zip((p for p, _, _ in callee.params), expr.args))
        for root, suffix in templates:
            if suffix == "[]":
                continue
            arg = pmap.get(root)
            if arg is None:
                continue
            for key in _havoc_keys(arg, suffix):
                state.scalars.pop(key, None)

    # -- memory intrinsics

    def _mem_call(self, expr, state):
        name = expr.name
        lineno = expr.lineno
        dst = cparse.strip_casts(expr.args[0])
        if name == "memset":
            target = self._struct_target(dst, state)
            if target is not None:
                fill = self.env.const_fold(expr.args[1])
                if fill == 0:
                    self._zero_struct(target, state)
                    return _Value(ct=None)
        base, offset = _split_ptr_arith(dst)
        bv = self.eval(base, state)
        spec = bv.ref if isinstance(bv.ref, _BufSpec) else None
        if spec is None:
            self.oblige("bounds", lineno, False,
                        f"{name}: destination {unparse(dst)} has no "
                        f"buffer contract")
            return _Value(ct=None)
        self._check_mem_extent(name, spec, offset, expr.args[-1],
                               state, lineno)
        if name == "memset":
            fill = self.env.const_fold(expr.args[1])
            if fill == 0:
                content = iv.const_interval(0)
            elif fill in (0xFF, -1):
                content = (iv.const_interval(-1) if spec.elem[1]
                           else iv.width_interval(*spec.elem))
            else:
                content = iv.width_interval(*spec.elem)
            ok = iv.contains(spec.content, content, self.box)
            self.oblige("bounds", lineno, ok,
                        f"memset fills {spec.name} with values in "
                        f"{content!r}, contract {spec.content!r}")
        else:
            src_base, src_off = _split_ptr_arith(
                cparse.strip_casts(expr.args[1]))
            sv = self.eval(src_base, state)
            sspec = sv.ref if isinstance(sv.ref, _BufSpec) else None
            if sspec is None:
                self.oblige("bounds", lineno, False,
                            f"{name}: source has no buffer contract")
            else:
                self._check_mem_extent(name, sspec, src_off,
                                       expr.args[-1], state, lineno)
                ok = iv.contains(spec.content, sspec.content, self.box)
                self.oblige("bounds", lineno, ok,
                            f"{name} into {spec.name}: source values "
                            f"{sspec.content!r} outside contract "
                            f"{spec.content!r}")
        return _Value(ct=None)

    def _check_mem_extent(self, name, spec, offset, size_arg, state,
                          lineno):
        eb = spec.elem[0] // 8
        size_iv = self._form_interval(size_arg, state, fallback=None)
        if size_iv is None:
            size_iv = self.eval(size_arg, state).interval
        total_hi = size_iv.hi
        total_lo = size_iv.lo
        if offset is not None:
            off_iv = self._form_interval(offset, state, fallback=None)
            if off_iv is None:
                off_iv = self.eval(offset, state).interval
            ok_off = iv.bound_le(iv.const_bound(0), off_iv.lo, self.box)
            self.oblige("bounds", lineno, ok_off,
                        f"{name} on {spec.name}: offset may be "
                        f"negative ({off_iv!r})")
            total_hi = iv.bound_add(
                total_hi, iv.bound_scale(off_iv.hi, eb))
        cap = iv.bound_scale(spec.length, eb)
        ok = iv.bound_le(total_hi, cap, self.box)
        self.oblige("bounds", lineno, ok,
                    f"{name} on {spec.name}: writes up to "
                    f"{total_hi!r} bytes, buffer holds {cap!r}")
        ok_lo = iv.bound_le(iv.const_bound(0), total_lo, self.box)
        self.oblige("bounds", lineno, ok_lo,
                    f"{name} on {spec.name}: size may be negative")

    def _struct_target(self, dst, state):
        """``(struct, key_prefix, sep)`` for a struct memset target."""
        if isinstance(dst, cparse.CUnary) and dst.op == "&":
            inner = dst.operand
            if isinstance(inner, cparse.CIndex):
                bv = self.eval(inner.base, state)
                if isinstance(bv.ref, _ElemSpec):
                    self._eval_index(inner, state)
                    return (bv.ref.struct, None, ".")
            place = self._place(inner, state)
            if place is not None:
                return (place[0], place[1], ".")
            return None
        place = self._place(dst, state)
        if place is None:
            return None
        # A bare pointer name: later accesses spell ``p->field``.
        return (place[0], place[1], "->")

    def _zero_struct(self, target, state):
        struct, prefix, sep = target
        sdef = self.env.structs.get(struct)
        if sdef is None:
            return
        for field in sdef.fields:
            base = field.base
            if field.ptr > 0 or field.array_len is not None:
                continue
            if base in self.env.structs:
                sub = (f"{prefix}{sep}{field.name}"
                       if prefix is not None else None)
                self._zero_struct((base, sub, "."), state)
                continue
            ct = self.env.width_of(base)
            if ct is None or prefix is None:
                continue
            key = f"{prefix}{sep}{field.name}"
            inv = self.env.field_invariant(struct, field.name)
            self._note_key(key, ct, inv)
            state.scalars[key] = iv.const_interval(0)

    # -- declarations

    def _transfer_decl(self, stmt, state):
        for decl in stmt.decls:
            base = stmt.base_type
            if decl.array_len is not None:
                length = self.env.affine_fold(decl.array_len)
                elem = self.env.width_of(base) or (64, True)
                if length is not None:
                    self.local_bufs[decl.name] = _BufSpec(
                        decl.name, length,
                        iv.width_interval(*elem), elem)
                continue
            if decl.init is None:
                continue
            init = cparse.strip_casts(decl.init)
            if decl.ptr > 0 or base in self.env.structs:
                if (isinstance(init, cparse.CCall)
                        and init.name == "malloc"):
                    self.eval(init.args[0], state)
                    continue
                value = self.eval(decl.init, state)
                if isinstance(value.ref,
                              (_BufSpec, _StructPtr, _ElemSpec)):
                    state.ptrs[decl.name] = value.ref
                continue
            value = self.eval(decl.init, state)
            ct = self.env.width_of(base) or (64, True)
            self._note_key(decl.name, ct, None)
            self._store_key(decl.name, value,
                            cparse.CName(decl.name, stmt.lineno),
                            state, stmt.lineno)


def _const_fold_is_zero(value):
    ivl = value.interval
    return (not isinstance(ivl.lo, iv.Inf) and iv.equal(
        ivl, iv.const_interval(0)))


class _FnFlow:
    """Mixin: condition refinement, statement transfer, fixpoint."""

    # -- refinement

    def refine_into(self, state, cond, sense):
        """Refine *state* assuming ``cond`` is truthy (*sense* True) or
        falsy.  Returns False when the branch is proven unreachable."""
        cond = cparse.strip_casts(cond)
        if isinstance(cond, cparse.CNum):
            return bool(cond.value) == sense
        if isinstance(cond, cparse.CUnary) and cond.op == "!":
            return self.refine_into(state, cond.operand, not sense)
        if isinstance(cond, cparse.CBinary):
            if cond.op in ("&&", "||"):
                conj = (cond.op == "&&") == sense
                if conj:
                    # Both operands hold (in this sense).
                    left_sense = sense
                    if not self.refine_into(state, cond.left, left_sense):
                        return False
                    return self.refine_into(state, cond.right, left_sense)
                # Disjunction: at least one operand holds.  If refining
                # by one side alone is unsatisfiable, the other side
                # must hold — refine by it.
                sides = []
                for side in (cond.left, cond.right):
                    trial = state.clone()
                    if self.refine_into(trial, side, sense):
                        sides.append(trial)
                if not sides:
                    return False
                if len(sides) == 1:
                    _adopt(state, sides[0])
                return True
            if cond.op in _CMP_OPS:
                op = cond.op if sense else _NEG_OP[cond.op]
                return self._refine_cmp(state, op, cond.left,
                                        cond.right)
        # Bare truthiness: expr != 0 / expr == 0.
        op = "!=" if sense else "=="
        return self._refine_cmp(state, op, cond,
                                cparse.CNum(0, False,
                                            getattr(cond, "lineno", 0)))

    def _refine_cmp(self, state, op, left, right):
        lform = self._form(left, state)
        rform = self._form(right, state)
        if lform is None or rform is None:
            return True
        diff = _form_add(lform, _form_scale(rform, -1))
        total = self._form_total(diff, state)
        if _cmp_impossible(op, total, self.box):
            return False
        coeffs, rest = diff
        for key, coeff in coeffs.items():
            if coeff not in (1, -1):
                continue
            others_coeffs = {k: c for k, c in coeffs.items()
                            if k != key}
            others = self._form_total((others_coeffs, rest), state)
            if coeff == 1:
                bound = iv.Interval(iv.bound_neg(others.hi),
                                    iv.bound_neg(others.lo))
                kop = op
            else:
                bound = others
                kop = _FLIP_OP[op]
            cur = self.get_iv(state, key)
            new = _cmp_refine(cur, kop, bound, self.box)
            if new.is_bottom:
                return False
            if not iv.equal(new, cur):
                state.scalars[key] = new
        return True

    # -- statement transfer

    def _transfer(self, node, state):
        stmt = node.payload
        if isinstance(stmt, cparse.CExprStmt):
            self.eval(stmt.expr, state)
        elif isinstance(stmt, cparse.CDeclStmt):
            self._transfer_decl(stmt, state)
        elif isinstance(stmt, cparse.CReturn):
            if stmt.value is not None:
                value = self.eval(stmt.value, state)
                declared = self.env.returns_interval(self.fn)
                if declared is not None:
                    vi = self._form_interval(stmt.value, state,
                                             fallback=value.interval)
                    ok = iv.contains(declared, vi, self.box)
                    self.oblige(
                        "bounds", stmt.lineno, ok,
                        f"return value in {vi!r} outside declared "
                        f"returns {declared!r}")

    def _flow(self, cfg, nid, state_in):
        node = cfg.nodes[nid]
        state = state_in.clone()
        for ann in node.assumes:
            cond = self.env.parse_annotation(ann)
            if cond is not None:
                if not self.refine_into(state, cond, True):
                    return []
        if node.kind == "stmt":
            self._transfer(node, state)
        elif node.kind == "branch" and node.payload is not None:
            self.eval(node.payload, state)
        out = []
        for succ, cond, sense, back in node.succs:
            if cond is None:
                out.append((succ, state.clone()
                            if len(node.succs) > 1 else state, back))
            else:
                branch = state.clone()
                if self.refine_into(branch, cond, sense):
                    out.append((succ, branch, back))
        return out

    # -- widening thresholds

    def _threshold_bound(self, expr):
        """An affine bound for one side of a comparison, or None."""
        bound = self.env.affine_fold(expr)
        if bound is not None:
            return bound
        if isinstance(expr, cparse.CFieldRef):
            # A pinned struct field (lo == hi in its invariant) names
            # the symbol it is pinned to -- e.g. ``c->rob_alloc``.
            for (_owner, field), (inv, _tr) in self.env.fields.items():
                if (field == expr.field
                        and isinstance(inv.lo, iv.Affine)
                        and inv.lo.same_as(inv.hi)):
                    return inv.lo
        return None

    def _harvest_thresholds(self):
        """Candidate widening thresholds for this function: affine
        bounds appearing in its comparisons and assume/requires
        conditions (each with its +/-1 neighbours).  Adoption is
        speculative -- a threshold survives only if the continued
        fixpoint iteration proves it stable -- so over-collection is
        harmless; thresholds are tried in ascending numeric order."""
        seen = {}

        def note(bound):
            if bound is None:
                return
            for cand in (bound.shift(-1), bound, bound.shift(1)):
                num = iv.bound_num_max(cand, self.box)
                if num is not None:
                    seen.setdefault(repr(cand), (num, cand))

        def walk(expr):
            if isinstance(expr, cparse.CBinary):
                if expr.op in ("==", "!=", "<", "<=", ">", ">="):
                    note(self._threshold_bound(expr.left))
                    note(self._threshold_bound(expr.right))
                walk(expr.left)
                walk(expr.right)
            elif isinstance(expr, (cparse.CUnary, cparse.CPostfix)):
                walk(expr.operand)
            elif isinstance(expr, cparse.CAssign):
                walk(expr.target)
                walk(expr.value)
            elif isinstance(expr, cparse.CCond):
                walk(expr.cond)
                walk(expr.then)
                walk(expr.other)
            elif isinstance(expr, cparse.CCall):
                for arg in expr.args:
                    walk(arg)
            elif isinstance(expr, cparse.CIndex):
                walk(expr.base)
                walk(expr.index)
            elif isinstance(expr, cparse.CFieldRef):
                walk(expr.base)
            elif isinstance(expr, cparse.CCast):
                walk(expr.operand)

        def walk_ann(ann):
            cond = self.env.parse_annotation(ann)
            if cond is not None:
                walk(cond)

        for ann in self.fn.requires:
            walk_ann(ann)
        for stmt in cparse._walk_statements(self.fn.body):
            for ann in stmt.assumes:
                walk_ann(ann)
            if isinstance(stmt, cparse.CExprStmt):
                walk(stmt.expr)
            elif isinstance(stmt, cparse.CDeclStmt):
                for decl in stmt.decls:
                    if decl.init is not None:
                        walk(decl.init)
            elif isinstance(stmt, (cparse.CIf, cparse.CWhile)):
                walk(stmt.cond)
            elif isinstance(stmt, cparse.CFor):
                if isinstance(stmt.init, cparse.CNode) and not isinstance(
                        stmt.init, cparse.CStmt):
                    walk(stmt.init)
                walk(stmt.cond)
                walk(stmt.step)
            elif isinstance(stmt, cparse.CReturn):
                if stmt.value is not None:
                    walk(stmt.value)
        return [bound for _num, bound in
                sorted(seen.values(), key=lambda item: item[0])]

    def _next_threshold(self, mark, lo, hi):
        """The next untried threshold usable as an upper bound for
        this (node, key) endpoint, or +inf once all are exhausted.
        Candidates provably below the current value (or below the
        lower bound) cannot be invariant and are skipped."""
        idx = self._thr_idx.get(mark, 0)
        thresholds = self._thresholds
        while idx < len(thresholds):
            cand = thresholds[idx]
            idx += 1
            if (cand.is_const
                    and iv.bound_le(cand, hi, self.box)
                    and not iv.bound_le(hi, cand, self.box)):
                # A constant strictly below the climbing value can
                # never bound it.  Symbolic candidates are NOT skipped:
                # the climb may itself be the numeric shadow of the
                # symbolic invariant, which only re-proves once adopted.
                continue
            if not iv.bound_le(lo, cand, self.box):
                continue
            self._thr_idx[mark] = idx
            self._adoptions.append((mark[1], cand))
            return cand
        self._thr_idx[mark] = idx
        return iv.POS_INF

    # -- the fixpoint

    def run(self):
        cfg, entry, exit_id = _lower_function(self.fn)
        self.cfg = cfg
        states = {entry: self.entry_state()}
        self._moves = {}
        self._thresholds = self._harvest_thresholds()
        self._thr_idx = {}
        self._adoptions = []
        keep = {entry} | {i for i, node in enumerate(cfg.nodes)
                          if node.loop_head}
        work = deque([entry])
        queued = {entry}
        pops = 0
        while work:
            pops += 1
            if pops > _MAX_VISITS:
                raise CertifyError(
                    f"fixpoint did not converge in {self.fn.name}",
                    self.fn.lineno)
            nid = work.popleft()
            queued.discard(nid)
            state_in = states.get(nid)
            if state_in is None:
                continue
            for succ, out, back in self._flow(cfg, nid, state_in):
                old = states.get(succ)
                if old is None:
                    states[succ] = out
                elif back and cfg.nodes[succ].loop_head:
                    # Widen only against values carried by the loop's
                    # own back edge: entry-side values still converging
                    # (an outer loop's state) must not trip the delay
                    # counter for loop-invariant keys.
                    joined = self._widen_states(
                        succ, old, self._join_states(old, out))
                    if self._states_eq(old, joined):
                        continue
                    states[succ] = joined
                else:
                    joined = self._join_states(old, out)
                    if self._states_eq(old, joined):
                        continue
                    states[succ] = joined
                if succ not in queued:
                    queued.add(succ)
                    work.append(succ)
            if self._adoptions:
                # A widening just jumped to a harvested threshold.  The
                # accumulated states elsewhere still hold the numeric
                # iterates from before the jump; joining those with the
                # new symbolic bound collapses it to a numeric corner
                # and the comparison trims that would prove the
                # threshold invariant can never fire.  Non-head states
                # are derived data: drop them and re-propagate.  Other
                # loop heads may hold the same stale corners for keys
                # they never widen themselves (their back edges would
                # re-deliver the poison forever), so the adopted bound
                # is speculatively installed there too -- every change
                # is re-verified by the continued iteration, which only
                # quiesces on a true post-fixpoint.
                for key, cand in self._adoptions:
                    for hid in keep:
                        st = states.get(hid)
                        if st is None or hid == entry:
                            continue
                        cur = st.scalars.get(key)
                        if (cur is not None
                                and not iv.bound_le(cur.hi, cand,
                                                    self.box)
                                and iv.bound_le(cur.lo, cand,
                                                self.box)):
                            st.scalars[key] = iv.Interval(cur.lo, cand)
                self._adoptions = []
                for i in list(states):
                    if i not in keep:
                        del states[i]
                work.clear()
                queued.clear()
                for i in sorted(keep & set(states)):
                    work.append(i)
                    queued.add(i)
        # Narrowing: a decreasing worklist pass recomputing each IN
        # from the current predecessors and meeting it into the stored
        # state.  A per-node round budget bounds the descending chain
        # (meets could otherwise count down numeric endpoints one by
        # one), so the pass terminates without a widening.
        narrow_rounds = {}
        preds = {}
        for nid, node in enumerate(cfg.nodes):
            for succ, _cond, _sense, _back in node.succs:
                preds.setdefault(succ, []).append(nid)
        order = sorted(states)
        work = deque(order)
        queued = set(order)
        pops = 0
        while work and pops < _MAX_VISITS:
            pops += 1
            nid = work.popleft()
            queued.discard(nid)
            if nid == entry:
                continue
            incoming = None
            for pred in preds.get(nid, ()):
                pin = states.get(pred)
                if pin is None:
                    continue
                for succ, out, _back in self._flow(cfg, pred, pin):
                    if succ != nid:
                        continue
                    incoming = (out if incoming is None
                                else self._join_states(incoming, out))
            cur = states.get(nid)
            if incoming is None or cur is None:
                continue
            if narrow_rounds.get(nid, 0) >= _NARROW_ROUNDS:
                continue
            new = self._narrow_states(cur, incoming)
            if not self._states_eq(cur, new):
                narrow_rounds[nid] = narrow_rounds.get(nid, 0) + 1
                states[nid] = new
                for succ, _cond, _sense, _back in cfg.nodes[nid].succs:
                    if succ in states and succ not in queued:
                        queued.add(succ)
                        work.append(succ)
        # Checking pass: replay every reachable statement once.
        self.checking = True
        for nid in order:
            state_in = states.get(nid)
            if state_in is not None:
                self._flow(cfg, nid, state_in)
        self.checking = False

    # -- state lattice

    def _join_states(self, a, b):
        scalars = {}
        for key in set(a.scalars) | set(b.scalars):
            joined = iv.join(self.get_iv(a, key), self.get_iv(b, key),
                             self.box)
            default = self.default_iv(key)
            if default is not None and iv.equal(joined, default):
                continue
            scalars[key] = joined
        ptrs = {}
        for name, ref in a.ptrs.items():
            other = b.ptrs.get(name)
            if other is not None and _ref_eq(ref, other):
                ptrs[name] = ref
        return _State(scalars, ptrs, True)

    def _widen_states(self, nid, old, new):
        """Delayed widening, per key and endpoint: an endpoint may move
        :data:`_WIDEN_DELAY` times at one loop head before it jumps --
        to 0 then -inf for lower bounds, and through the harvested
        comparison thresholds then +inf for upper bounds."""
        scalars = {}
        for key, nv in new.scalars.items():
            ov = old.scalars.get(key)
            if ov is None or ov.is_bottom or nv.is_bottom:
                scalars[key] = nv
                continue
            lo, hi = nv.lo, nv.hi
            if not (iv.bound_le(ov.lo, nv.lo, self.box)
                    and iv.bound_le(nv.lo, ov.lo, self.box)):
                mark = (nid, key, "lo")
                self._moves[mark] = self._moves.get(mark, 0) + 1
                if self._moves[mark] > _WIDEN_DELAY:
                    zero = iv.Affine(0)
                    lo = (zero if iv.bound_le(zero, nv.lo, self.box)
                          else iv.NEG_INF)
            if not (iv.bound_le(nv.hi, ov.hi, self.box)
                    and iv.bound_le(ov.hi, nv.hi, self.box)):
                mark = (nid, key, "hi")
                self._moves[mark] = self._moves.get(mark, 0) + 1
                if self._moves[mark] > _WIDEN_DELAY:
                    # Widening with thresholds: jump to the next
                    # harvested comparison bound before giving up and
                    # going to +inf.  A speculative jump below the
                    # true invariant is re-detected as instability on
                    # the next arrival and the following threshold is
                    # tried, so soundness is preserved.
                    hi = self._next_threshold(mark, lo, nv.hi)
            scalars[key] = iv.Interval(lo, hi)
        return _State(scalars, dict(new.ptrs), True)

    def _narrow_states(self, old, new):
        scalars = {}
        for key, ov in old.scalars.items():
            nv = self.get_iv(new, key)
            met = iv.meet(ov, nv, self.box)
            # The recomputed incoming is itself a sound
            # over-approximation, so meeting with it tightens stale
            # endpoints (numeric corners from early iterates) that the
            # infinite-endpoint-only narrow would keep.  Fall back to
            # the incoming value if the meet degenerates.
            scalars[key] = nv if met.is_bottom else met
        return _State(scalars, dict(old.ptrs), True)

    def _states_eq(self, a, b):
        if set(a.scalars) != set(b.scalars):
            return False
        if any(not iv.equal(a.scalars[k], b.scalars[k])
               for k in a.scalars):
            return False
        if set(a.ptrs) != set(b.ptrs):
            return False
        return all(_ref_eq(a.ptrs[k], b.ptrs[k]) for k in a.ptrs)


def _ref_eq(a, b):
    if type(a) is not type(b):
        return False
    if isinstance(a, _BufSpec):
        return a.same_as(b)
    if isinstance(a, _StructPtr):
        return a.struct == b.struct
    if isinstance(a, _ElemSpec):
        return a.struct == b.struct and a.length.same_as(b.length)
    return False


def _adopt(state, other):
    state.scalars = other.scalars
    state.ptrs = other.ptrs


class _Fn(_FnCore, _FnEval, _FnStores, _FnFlow):
    """The per-function abstract interpreter (composed mixins)."""


# --------------------------------------------------------------- driver

def analyse_kernel(header, source, contract):
    """Run the certifier over one kernel as compiled: *header*, the
    header the running package renders for it, then *source*.

    Returns a :class:`KernelReport`; never raises — analysis failures
    become ``report.error`` / ``report.issues``.
    """
    report = KernelReport(contract.path)
    try:
        env = _Env(header, source, contract)
    except (cparse.CParseError, CertifyError) as exc:
        report.error = (getattr(exc, "lineno", 0), str(exc))
        return report
    report.unit = env.unit
    # Annotation hygiene: every trust declaration documents a reason.
    for ann in env.unit.annotations:
        if ann.trusted and not ann.reason:
            trusted = "trusted " if ann.kind in ("range", "buffer") else ""
            report.issues.append(
                (ann.lineno, f"certify {trusted}{ann.kind} without a"
                             " '-- reason' justification"))
    for sup in env.unit.suppressions.values():
        if not sup.reason:
            report.issues.append(
                (sup.lineno,
                 "C suppression without a '-- reason' justification"))
    for entry in contract.entries:
        if entry not in env.unit.functions:
            report.error = (0, f"entry function {entry!r} not "
                               f"found in {contract.path}")
            return report
    summaries = _summaries(env.unit)
    sink = {}
    for fn in env.unit.functions.values():
        try:
            engine = _Fn(env, fn, summaries, sink)
            engine.run()
        except CertifyError as exc:
            report.issues.append((exc.lineno, str(exc)))
    report.issues.extend(env.ann_errors)
    for (kind, lineno, message), ok in sorted(
            sink.items(), key=lambda kv: (kv[0][1], kv[0][0],
                                          kv[0][2])):
        report.checked += 1
        if ok:
            report.proved += 1
        else:
            report.obligations.append(
                Obligation(kind, lineno, message, False))
    return report
