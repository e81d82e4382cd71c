"""Exact scalar arithmetic in the field QQ(params).

Every coefficient in the package is a Scalar: a rational function over the
rationals in a declared list of commuting parameters.  Internally a Scalar
wraps a sympy sparse FracElement built over ZZ, so that sympy's gcd never
converts coefficients between QQ and ZZ.  Every stored element is canonical:
numerator and denominator are coprime in ZZ[params] (integer content
included) and the denominator's leading coefficient, in graded-lex order, is
positive.  Each element of QQ(params) has exactly one such form, so equal
scalars have equal numerators and denominators, and an operation may hand
back an operand unchanged (multiplying by one does) without re-cancelling.
The canonical *observable* form divides by the denominator's leading
coefficient, making it monic, at the serialization boundary; parameters are
sorted alphabetically.  No floating point exists anywhere.

The paper's identities are index contractions whose coefficients are
products of the same few tensor entries, so one check multiplies the same
pair of scalars many times, and each product pays a sympy gcd cancel.
Inside ``with ctx.products():`` each distinct pair is multiplied once: the
product is kept in a dict on the Context keyed by the two operands' sympy
elements.  Because every element is canonical, equal keys are equal values,
so the memo is exact.  The dict lives only as long as the outermost block
(a nested block reuses it) and is dropped on exit, also when the block
raises.  It is opened around single checks, not sections or reports: on
the four-parameter full-report a report-wide memo raised peak memory by
about 10% and a per-section one by about 3%, a per-check one by under 1%.

The expression grammar accepted by parse() is deliberately small:

    expr   := term  (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' signed-integer)?
    atom   := integer | parameter | '(' expr ')'

so inputs like "(q^2-1)/(q-1)" or "1/(q+q^-1)" mean what they look like and
canonicalize on construction (those two become q + 1 and q/(q^2 + 1)).
"""

from __future__ import annotations

import contextlib
import re
from fractions import Fraction

from sympy import ZZ
from sympy.polys.fields import field as _sympy_field

from .errors import (
    ContextMismatch,
    DenominatorVanishes,
    DivisionByZero,
    ExpressionSyntax,
    UnknownParameter,
)

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

# Contexts with equal parameter tuples share one sympy field so their
# elements interoperate directly.
_FIELD_CACHE: dict[tuple[str, ...], object] = {}


def _build_field(params: tuple[str, ...]):
    if params not in _FIELD_CACHE:
        created = _sympy_field(",".join(params), ZZ, order="grlex")
        _FIELD_CACHE[params] = created[0]
    return _FIELD_CACHE[params]


class Context:
    """A declared parameter list and the rational-function field over it."""

    def __init__(self, params):
        names = list(params)
        if not names:
            raise UnknownParameter("a context needs at least one parameter")
        for n in names:
            if not isinstance(n, str) or not _NAME_RE.match(n):
                raise UnknownParameter("bad parameter name: %r" % (n,))
        if len(set(names)) != len(names):
            raise UnknownParameter("duplicate parameter names in %r" % (names,))
        self.params: tuple[str, ...] = tuple(sorted(names))
        self.field = _build_field(self.params)
        self._gens = {n: Scalar(self, g) for n, g in zip(self.params, self.field.gens)}
        self._products = None  # (fe, fe) -> Scalar while a products() block is open

    def __repr__(self):
        return "Context(%s)" % ", ".join(self.params)

    def __eq__(self, other):
        return isinstance(other, Context) and self.params == other.params

    def __hash__(self):
        return hash(self.params)

    def gen(self, name: str) -> "Scalar":
        if name not in self._gens:
            raise UnknownParameter("parameter %r not declared (have %s)" % (name, list(self.params)))
        return self._gens[name]

    @property
    def zero(self) -> "Scalar":
        return Scalar(self, self.field.zero)

    @property
    def one(self) -> "Scalar":
        return Scalar(self, self.field.one)

    @contextlib.contextmanager
    def products(self):
        """Multiply each distinct pair of this context's scalars once inside the block."""
        if self._products is not None:
            yield
            return
        self._products = {}
        try:
            yield
        finally:
            self._products = None

    def scalar(self, value) -> "Scalar":
        """Coerce an int, Fraction, string expression, or Scalar into this field."""
        if isinstance(value, Scalar):
            if value.ctx.field is self.field:
                return value
            return value.in_context(self)
        if isinstance(value, str):
            return self.parse(value)
        if isinstance(value, (int, Fraction)):
            # already coprime with a positive denominator, so no cancel
            ring = self.field.ring
            num, den = ring.ground_new(value.numerator), ring.ground_new(value.denominator)
            return Scalar(self, self.field.raw_new(num, den))
        raise TypeError("cannot make a Scalar from %r" % (value,))

    def parse(self, text: str) -> "Scalar":
        return _Parser(self, text).parse()


class Scalar:
    """One element of QQ(params).  Immutable; all arithmetic is exact."""

    __slots__ = ("ctx", "fe", "_keyc")

    def __init__(self, ctx: Context, fe):
        self.ctx = ctx
        self.fe = fe
        self._keyc = None

    # -- basic predicates ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.fe.numer

    def is_one(self) -> bool:
        return self.fe.denom == 1 and self.fe.numer == 1

    # -- coercion helpers ------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.ctx.field is self.ctx.field:
                return other
            if set(other.used_params()) <= set(self.ctx.params):
                return other.in_context(self.ctx)
            if set(self.used_params()) <= set(other.ctx.params):
                return None  # handled by reflected op on the wider context
            raise ContextMismatch(
                "cannot mix contexts %s and %s" % (self.ctx.params, other.ctx.params)
            )
        if isinstance(other, (int, Fraction)):
            return self.ctx.scalar(other)
        return NotImplemented

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o is None:
            return other.__radd__(self)
        return Scalar(self.ctx, self.fe + o.fe)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.ctx, -self.fe)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o is None:
            return (-other).__radd__(self)
        return Scalar(self.ctx, self.fe - o.fe)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o is None:
            return other.__rmul__(self)
        # stored elements are canonical, so a unit factor needs no cancel
        if self.is_one():
            return o
        if o.is_one():
            return self
        memo = self.ctx._products
        if memo is None:
            return Scalar(self.ctx, self.fe * o.fe)
        key = (self.fe, o.fe)
        out = memo.get(key)
        if out is None:
            out = memo[key] = Scalar(self.ctx, self.fe * o.fe)
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o is None:
            return other.__rtruediv__(self)
        if o.is_zero():
            raise DivisionByZero("division by zero scalar")
        return Scalar(self.ctx, self.fe / o.fe)

    def __rtruediv__(self, other):
        return self.ctx.scalar(other) / self

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("scalar exponents must be integers")
        if n == 0:
            return self.ctx.one  # 0^0 = 1, as for int and Fraction
        if n < 0 and self.is_zero():
            raise DivisionByZero("zero scalar to a negative power")
        if n < 0:
            # sympy inverts by swapping numerator and denominator, which can
            # leave a negative leading coefficient below; dividing re-signs it
            return Scalar(self.ctx, self.ctx.field.one / self.fe ** -n)
        return Scalar(self.ctx, self.fe ** n)

    def inv(self) -> "Scalar":
        return self ** -1

    # -- equality and hashing (context independent) ----------------------

    def _key(self):
        if self._keyc is None:
            names = self.ctx.params
            num = _poly_key(self.fe.numer, names)
            den = _poly_key(self.fe.denom, names)
            if den:
                lead = den[0][1]
                if lead != 1:
                    num = tuple((m, c / lead) for m, c in num)
                    den = tuple((m, c / lead) for m, c in den)
            self._keyc = (num, den)
        return self._keyc

    def __eq__(self, other):
        if isinstance(other, Scalar):
            if other.ctx.field is self.ctx.field:
                return self.fe == other.fe
            return self._key() == other._key()
        if isinstance(other, (int, Fraction)):
            return self == self.ctx.scalar(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    # -- structure -------------------------------------------------------

    def used_params(self) -> tuple[str, ...]:
        """Parameters actually occurring in this scalar."""
        names = self.ctx.params
        used = set()
        for poly in (self.fe.numer, self.fe.denom):
            for exps in poly:
                for n, e in zip(names, exps):
                    if e:
                        used.add(n)
        return tuple(sorted(used))

    def in_context(self, ctx: Context) -> "Scalar":
        missing = set(self.used_params()) - set(ctx.params)
        if missing:
            raise UnknownParameter(
                "scalar uses %s not declared in %s" % (sorted(missing), list(ctx.params))
            )
        ring = ctx.field.ring
        numer, denom = self.fe.numer.set_ring(ring), self.fe.denom.set_ring(ring)
        return Scalar(ctx, ctx.field.new(numer, denom))

    def as_fraction(self) -> Fraction:
        """The value as an exact rational, if no parameters occur."""
        if self.used_params():
            raise ValueError("scalar %s is not constant" % self)
        return Fraction(int(self.fe.numer.LC), int(self.fe.denom.LC))

    def substitute(self, bindings) -> "Scalar":
        """Apply parameter bindings one at a time, in the given order.

        bindings: dict (insertion order respected) or iterable of
        (name, value) pairs; values coerce like Context.scalar.
        Raises DenominatorVanishes when a step kills this scalar's
        denominator as a polynomial identity.
        """
        items = list(bindings.items()) if isinstance(bindings, dict) else list(bindings)
        cur = self
        for name, value in items:
            cur = cur._substitute_one(name, value)
        return cur

    def _substitute_one(self, name, value):
        if name not in self.ctx.params:
            raise UnknownParameter(
                "cannot substitute %r: not a parameter of %s" % (name, list(self.ctx.params))
            )
        val = self.ctx.scalar(value)
        i = self.ctx.params.index(name)
        numer, denom = self.fe.numer, self.fe.denom
        # P(a/b) / Q(a/b) = P~ / Q~ with X~ = b^d X(a/b), d the larger degree
        d = max(exps[i] for poly in (numer, denom) for exps in poly.itermonoms())
        a_pows = _powers(val.fe.numer, d)
        b_pows = _powers(val.fe.denom, d)
        num, den = (_compose(poly, i, a_pows, b_pows) for poly in (numer, denom))
        if not den:
            raise DenominatorVanishes(
                "substituting %s = %s makes a denominator vanish" % (name, val), param=name
            )
        return Scalar(self.ctx, self.ctx.field.new(num, den))

    # -- canonical text --------------------------------------------------

    def __str__(self):
        num, den = self._key()
        if _is_key_one(den):
            return _key_str(num)
        return "(%s)/(%s)" % (_key_str(num), _key_str(den))

    def __repr__(self):
        return "Scalar(%s)" % self


def _powers(poly, d):
    out = [poly.ring.one]
    for _ in range(d):
        out.append(out[-1] * poly)
    return out


def _compose(poly, i, a_pows, b_pows):
    """sum c * rest * a^e * b^(d - e) over the terms c * rest * x_i^e of poly."""
    ring = poly.ring
    d = len(a_pows) - 1
    by_exp = {}
    for exps, coeff in poly.items():
        by_exp.setdefault(exps[i], {})[exps[:i] + (0,) + exps[i + 1:]] = coeff
    out = ring.zero
    for e, part in by_exp.items():
        if a_pows[e]:
            out += ring.dtype(part) * a_pows[e] * b_pows[d - e]
    return out


def _poly_key(poly, names):
    """Context-free canonical term list: ((name,exp)...) paired with Fraction,
    sorted graded-lex descending."""
    terms = []
    for exps, coeff in poly.terms():
        mono = tuple((n, e) for n, e in zip(names, exps) if e)
        c = Fraction(int(coeff.numerator), int(coeff.denominator))
        terms.append((mono, c))
    support = sorted({n for mono, _ in terms for n, _ in mono})

    def grlex(item):
        mono = dict(item[0])
        vec = tuple(mono.get(n, 0) for n in support)
        return (sum(vec), vec)

    terms.sort(key=grlex, reverse=True)
    return tuple(terms)


def _is_key_one(key):
    return len(key) == 1 and key[0][0] == () and key[0][1] == 1


def _key_str(key):
    if not key:
        return "0"
    rendered = []
    for mono, coeff in key:
        parts = ["%s^%d" % (n, e) if e != 1 else n for n, e in mono]
        if not parts:
            rendered.append(str(coeff))
        elif coeff == 1:
            rendered.append("*".join(parts))
        elif coeff == -1:
            rendered.append("-" + "*".join(parts))
        else:
            rendered.append(str(coeff) + "*" + "*".join(parts))
    out = rendered[0]
    for t in rendered[1:]:
        if t.startswith("-"):
            out += " - " + t[1:]
        else:
            out += " + " + t
    return out


# -- expression parsing ---------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*/^()]))")


class _Parser:
    def __init__(self, ctx, text):
        self.ctx = ctx
        self.text = text
        self.toks = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if not m or m.end() == m.start():
                stripped = text[pos:].lstrip()
                if not stripped:
                    break
                at = len(text) - len(stripped)
                raise ExpressionSyntax("unexpected character %r" % text[at], pos=at)
            if m.group(1):
                self.toks.append(("int", int(m.group(1)), m.start(1)))
            elif m.group(2):
                self.toks.append(("name", m.group(2), m.start(2)))
            else:
                self.toks.append(("op", m.group(3), m.start(3)))
            pos = m.end()
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else ("end", None, len(self.text))

    def take(self):
        t = self.peek()
        self.i += 1
        return t

    def expect_op(self, op):
        kind, val, pos = self.take()
        if kind != "op" or val != op:
            raise ExpressionSyntax("expected %r" % op, pos=pos)

    def parse(self):
        if not self.toks:
            raise ExpressionSyntax("empty expression", pos=0)
        value = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExpressionSyntax("trailing input %r" % (val,), pos=pos)
        return value

    def expr(self):
        value = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                value = value + rhs if val == "+" else value - rhs
            else:
                return value

    def term(self):
        value = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                rhs = self.unary()
                value = value * rhs if val == "*" else value / rhs
            else:
                return value

    def unary(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.take()
            return -self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.take()
            exp = self.signed_int()
            return base ** exp
        return base

    def signed_int(self):
        kind, val, pos = self.take()
        sign = 1
        if kind == "op" and val in "+-":
            sign = -1 if val == "-" else 1
            kind, val, pos = self.take()
        if kind != "int":
            raise ExpressionSyntax("exponent must be an integer", pos=pos)
        return sign * val

    def atom(self):
        kind, val, pos = self.take()
        if kind == "int":
            return self.ctx.scalar(val)
        if kind == "name":
            if val not in self.ctx.params:
                raise UnknownParameter(
                    "unknown parameter %r (declared: %s)" % (val, ", ".join(self.ctx.params))
                )
            return self.ctx.gen(val)
        if kind == "op" and val == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ExpressionSyntax("expected a value", pos=pos)


def parse(ctx: Context, text: str) -> Scalar:
    return ctx.parse(text)
