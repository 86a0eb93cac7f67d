"""The certifier's value domain: intervals with affine endpoints.

A plain numeric interval cannot prove ``t->res[2 * t->prod1[i]]`` in
bounds — the buffer length is ``2 * n + 2`` where ``n`` is only known
symbolically.  The endpoints here are therefore *affine expressions*
``c0 + c1*s1 + c2*s2 + ...`` over the kernel's declared symbols, each
symbol carrying a numeric range (its *box*).  Ordering queries reduce
to evaluating the affine difference at the box extremes — exact for
linear forms, since each symbol contributes independently.

The lattice is the classic interval domain:

* ``join`` keeps an endpoint when it provably dominates the other,
  falling back to the numeric box extreme when the two affine forms
  are incomparable;
* ``widen`` jumps an unstable endpoint to the type extreme (with ``0``
  as a threshold for lower bounds, since almost every index is
  provably non-negative);
* ``meet`` implements condition refinement.

Unsigned arithmetic wraps legally in C, so unsigned results that leave
their width simply saturate to the full unsigned range; *signed*
results that leave their width are the ``kernel-overflow`` pass's
findings and are reported by the interpreter, not here.
"""


class Inf:
    """A signed infinity endpoint (two singletons below)."""

    __slots__ = ("sign",)

    def __init__(self, sign):
        self.sign = sign

    def __repr__(self):
        return "+inf" if self.sign > 0 else "-inf"


POS_INF = Inf(1)
NEG_INF = Inf(-1)


class Affine:
    """``const + sum(coeff * symbol)`` with integer coefficients."""

    __slots__ = ("terms", "const")

    def __init__(self, const=0, terms=None):
        self.const = const
        self.terms = {s: c for s, c in (terms or {}).items() if c != 0}

    @property
    def is_const(self):
        return not self.terms

    def add(self, other):
        """Termwise sum with another affine form."""
        terms = dict(self.terms)
        for sym, coeff in other.terms.items():
            terms[sym] = terms.get(sym, 0) + coeff
        return Affine(self.const + other.const, terms)

    def sub(self, other):
        """Termwise difference ``self - other``."""
        return self.add(other.scale(-1))

    def scale(self, k):
        """Multiply every coefficient and the constant by *k*."""
        return Affine(self.const * k,
                      {s: c * k for s, c in self.terms.items()})

    def shift(self, k):
        """Add the integer constant *k*."""
        return Affine(self.const + k, dict(self.terms))

    def eval_min(self, box):
        """Smallest value over the box of per-symbol ranges."""
        total = self.const
        for sym, coeff in self.terms.items():
            lo, hi = box[sym]
            total += coeff * (lo if coeff > 0 else hi)
        return total

    def eval_max(self, box):
        """Largest value over the box of per-symbol ranges."""
        total = self.const
        for sym, coeff in self.terms.items():
            lo, hi = box[sym]
            total += coeff * (hi if coeff > 0 else lo)
        return total

    def same_as(self, other):
        """Exact structural equality with another affine form."""
        return (isinstance(other, Affine)
                and self.const == other.const
                and self.terms == other.terms)

    def __repr__(self):
        parts = []
        for sym in sorted(self.terms):
            coeff = self.terms[sym]
            if coeff == 1:
                parts.append(sym)
            elif coeff == -1:
                parts.append(f"-{sym}")
            else:
                parts.append(f"{coeff}*{sym}")
        if self.const or not parts:
            parts.append(str(self.const))
        text = " + ".join(parts).replace("+ -", "- ")
        return text


def const_bound(value):
    """The constant *value* as an affine endpoint."""
    return Affine(value)


def bound_le(a, b, box):
    """Is ``a <= b`` for every symbol assignment in the box?"""
    if isinstance(a, Inf):
        return a.sign < 0 or (isinstance(b, Inf) and b.sign > 0)
    if isinstance(b, Inf):
        return b.sign > 0
    return b.sub(a).eval_min(box) >= 0


def bound_add(a, b):
    """Endpoint sum; an infinite operand absorbs."""
    if isinstance(a, Inf):
        return a
    if isinstance(b, Inf):
        return b
    return a.add(b)


def bound_neg(a):
    """Endpoint negation (flips infinities)."""
    if isinstance(a, Inf):
        return NEG_INF if a.sign > 0 else POS_INF
    return a.scale(-1)


def bound_scale(a, k):
    """Endpoint times the integer constant *k* (sign-aware for inf)."""
    if k == 0:
        return Affine(0)
    if isinstance(a, Inf):
        return a if k > 0 else bound_neg(a)
    return a.scale(k)


def bound_num_min(a, box):
    """Numeric floor of a bound over the box (None for ``-inf``)."""
    if isinstance(a, Inf):
        return None
    return a.eval_min(box)


def bound_num_max(a, box):
    """Numeric ceiling of a bound over the box (None for ``+inf``)."""
    if isinstance(a, Inf):
        return None
    return a.eval_max(box)


class Interval:
    """``[lo, hi]`` with affine (or infinite) endpoints.

    ``BOTTOM`` (the singleton below) marks unreachable values; every
    other instance is assumed non-empty — emptiness that holds only
    for *some* symbol assignments is kept as-is (a sound
    over-approximation).
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo = lo
        self.hi = hi

    @property
    def is_bottom(self):
        return self is BOTTOM

    def __repr__(self):
        if self.is_bottom:
            return "[bottom]"
        return f"[{self.lo!r}, {self.hi!r}]"


BOTTOM = Interval(POS_INF, NEG_INF)
TOP = Interval(NEG_INF, POS_INF)


def const_interval(value):
    """The singleton interval ``[value, value]``."""
    bound = Affine(value)
    return Interval(bound, bound)


def symbol_interval(sym):
    """The singleton interval ``[sym, sym]`` for a contract symbol."""
    bound = Affine(0, {sym: 1})
    return Interval(bound, bound)


def width_interval(bits, signed):
    """The representable range of a *bits*-wide C integer type."""
    if signed:
        return Interval(Affine(-(1 << (bits - 1))),
                        Affine((1 << (bits - 1)) - 1))
    return Interval(Affine(0), Affine((1 << bits) - 1))


def _pick_lo(a, b, box):
    """A lower bound dominated by both *a* and *b*."""
    if bound_le(a, b, box):
        return a
    if bound_le(b, a, box):
        return b
    mins = [bound_num_min(a, box), bound_num_min(b, box)]
    if None in mins:
        return NEG_INF
    return Affine(min(mins))


def _pick_hi(a, b, box):
    if bound_le(b, a, box):
        return a
    if bound_le(a, b, box):
        return b
    maxes = [bound_num_max(a, box), bound_num_max(b, box)]
    if None in maxes:
        return POS_INF
    return Affine(max(maxes))


def join(a, b, box):
    """Least interval covering both *a* and *b* (lattice join)."""
    if a.is_bottom:
        return b
    if b.is_bottom:
        return a
    return Interval(_pick_lo(a.lo, b.lo, box), _pick_hi(a.hi, b.hi, box))


def widen(old, new, box):
    """Jump unstable endpoints to infinity, with ``0`` as a threshold
    for lower bounds (indexes are almost always provably >= 0)."""
    if old.is_bottom:
        return new
    if new.is_bottom:
        return old
    lo = old.lo
    if not bound_le(old.lo, new.lo, box):
        zero = Affine(0)
        lo = zero if bound_le(zero, new.lo, box) else NEG_INF
    hi = old.hi
    if not bound_le(new.hi, old.hi, box):
        hi = POS_INF
    return Interval(lo, hi)


def narrow(old, new, box):
    """Take the refined endpoint where the widened one was infinite."""
    if old.is_bottom or new.is_bottom:
        return new
    lo = new.lo if isinstance(old.lo, Inf) else old.lo
    hi = new.hi if isinstance(old.hi, Inf) else old.hi
    return Interval(lo, hi)


def _prefer_symbolic(x, y):
    """Between two incomparable finite bounds keep the symbolic one —
    buffer lengths are symbolic, and a numeric cap that cannot be
    ordered against them almost never proves a subscript."""
    if isinstance(x, Inf):
        return y
    if isinstance(y, Inf):
        return x
    if x.is_const and not y.is_const:
        return y
    return x


def meet(a, b, box):
    """Intersect; collapses to BOTTOM only when *provably* empty for
    every symbol assignment."""
    if a.is_bottom or b.is_bottom:
        return BOTTOM
    if bound_le(b.lo, a.lo, box):
        lo = a.lo
    elif bound_le(a.lo, b.lo, box):
        lo = b.lo
    else:
        lo = _prefer_symbolic(a.lo, b.lo)
    if bound_le(a.hi, b.hi, box):
        hi = a.hi
    elif bound_le(b.hi, a.hi, box):
        hi = b.hi
    else:
        hi = _prefer_symbolic(a.hi, b.hi)
    if (not isinstance(lo, Inf) and not isinstance(hi, Inf)
            and hi.sub(lo).eval_max(box) < 0):
        return BOTTOM
    return Interval(lo, hi)


def equal(a, b):
    """Structural equality of endpoints (fixpoint-detection test)."""
    def same(x, y):
        if isinstance(x, Inf) or isinstance(y, Inf):
            return x is y
        return x.same_as(y)
    if a.is_bottom or b.is_bottom:
        return a is b
    return same(a.lo, b.lo) and same(a.hi, b.hi)


# ------------------------------------------------- interval arithmetic

def add(a, b):
    """Interval sum (endpoint-wise, inf-absorbing)."""
    if a.is_bottom or b.is_bottom:
        return BOTTOM
    return Interval(bound_add(a.lo, b.lo), bound_add(a.hi, b.hi))


def sub(a, b):
    """Interval difference ``a - b``."""
    if a.is_bottom or b.is_bottom:
        return BOTTOM
    return Interval(bound_add(a.lo, bound_neg(b.hi)),
                    bound_add(a.hi, bound_neg(b.lo)))


def neg(a):
    """Interval negation (endpoints swap and flip sign)."""
    if a.is_bottom:
        return BOTTOM
    return Interval(bound_neg(a.hi), bound_neg(a.lo))


def _const_of(iv, box):
    """The exact integer an interval denotes, if a single constant."""
    if iv.is_bottom or isinstance(iv.lo, Inf) or isinstance(iv.hi, Inf):
        return None
    if iv.lo.is_const and iv.hi.is_const and iv.lo.const == iv.hi.const:
        return iv.lo.const
    return None


def _numeric(iv, box):
    """``(lo, hi)`` numeric envelope; ``None`` ends mean unbounded."""
    return (bound_num_min(iv.lo, box), bound_num_max(iv.hi, box))


def mul(a, b, box):
    """Interval product; exact for a constant factor (keeps affine
    endpoints), numeric four-corner envelope otherwise."""
    if a.is_bottom or b.is_bottom:
        return BOTTOM
    for x, y in ((a, b), (b, a)):
        k = _const_of(x, box)
        if k is not None:
            if k >= 0:
                return Interval(bound_scale(y.lo, k), bound_scale(y.hi, k))
            return Interval(bound_scale(y.hi, k), bound_scale(y.lo, k))
    alo, ahi = _numeric(a, box)
    blo, bhi = _numeric(b, box)
    if None in (alo, ahi, blo, bhi):
        return TOP
    products = [alo * blo, alo * bhi, ahi * blo, ahi * bhi]
    return Interval(Affine(min(products)), Affine(max(products)))


def div(a, b, box):
    """C integer division (truncation toward zero), conservatively."""
    if a.is_bottom or b.is_bottom:
        return BOTTOM
    k = _const_of(b, box)
    if k is None or k == 0:
        return TOP
    alo, ahi = _numeric(a, box)
    if None in (alo, ahi):
        return TOP
    candidates = [_trunc_div(alo, k), _trunc_div(ahi, k)]
    return Interval(Affine(min(candidates)), Affine(max(candidates)))


def _trunc_div(x, k):
    q = abs(x) // abs(k)
    return q if (x >= 0) == (k > 0) else -q


def mod(a, b, box):
    """C ``%`` by a positive divisor: ``[0, hi(b) - 1]`` for a
    non-negative dividend, symmetric about zero otherwise."""
    if a.is_bottom or b.is_bottom:
        return BOTTOM
    blo = bound_num_min(b.lo, box)
    if blo is None or blo <= 0 or isinstance(b.hi, Inf):
        return TOP
    top = b.hi.shift(-1)
    alo, _ = _numeric(a, box)
    if alo is not None and alo >= 0:
        return Interval(Affine(0), top)
    return Interval(top.scale(-1), top)


def shl(a, b, box):
    """``<<`` by a constant shift: exact scale by ``2**k``."""
    k = _const_of(b, box)
    if k is None or k < 0 or k > 63 or a.is_bottom:
        return TOP
    return Interval(bound_scale(a.lo, 1 << k), bound_scale(a.hi, 1 << k))


def shr(a, b, box):
    """``>>`` on a non-negative value; negative shiftees go to TOP
    (the kernels only shift unsigned or proven-non-negative values)."""
    k = _const_of(b, box)
    if k is None or k < 0 or k > 63 or a.is_bottom:
        return TOP
    alo, ahi = _numeric(a, box)
    if alo is None or alo < 0:
        return TOP
    hi = POS_INF if ahi is None else Affine(ahi >> k)
    return Interval(Affine(alo >> k), hi)


def bitand(a, b, box):
    """``&`` of non-negative operands: ``[0, min(hi)]``."""
    if a.is_bottom or b.is_bottom:
        return BOTTOM
    alo, ahi = _numeric(a, box)
    blo, bhi = _numeric(b, box)
    if alo is None or blo is None or alo < 0 or blo < 0:
        return TOP
    his = [h for h in (ahi, bhi) if h is not None]
    if not his:
        return Interval(Affine(0), POS_INF)
    return Interval(Affine(0), Affine(min(his)))


def bitor(a, b, box):
    """``|`` of non-negative operands: bounded by the next power of
    two above both ceilings."""
    if a.is_bottom or b.is_bottom:
        return BOTTOM
    alo, ahi = _numeric(a, box)
    blo, bhi = _numeric(b, box)
    if None in (alo, ahi, blo, bhi) or alo < 0 or blo < 0:
        return TOP
    ceiling = 1
    while ceiling <= max(ahi, bhi):
        ceiling <<= 1
    return Interval(Affine(0), Affine(ceiling - 1))


def contains(outer, inner, box):
    """Is *inner* a subset of *outer* for every symbol assignment?"""
    if inner.is_bottom:
        return True
    if outer.is_bottom:
        return False
    return (bound_le(outer.lo, inner.lo, box)
            and bound_le(inner.hi, outer.hi, box))
