"""Exact scalar arithmetic in the field QQ(params).

Every coefficient in the package is a Scalar: a rational function over the
rationals in a declared list of commuting parameters.  Internally a Scalar
wraps a sympy sparse FracElement built over ZZ.  Every stored element is
canonical: numerator and denominator are coprime in ZZ[params] (integer
content included) and the denominator's leading coefficient, in graded-lex
order, is positive.  Each element of QQ(params) has exactly one such form, so
equal scalars have equal numerators and denominators, and an operation may
hand back an operand unchanged (multiplying by one does) without
re-cancelling.  The canonical *observable* form divides by the denominator's
leading coefficient, making it monic, at the serialization boundary;
parameters are sorted alphabetically.  No floating point exists anywhere.

The paper's identities are contractions whose coefficients come from a
twisting table, and their denominators are products of a few fixed factors
(the parameters, r - 1, q^2 + 1, p - 1).  So +, -, *, / and powers do not
call sympy's general gcd cancel; a small kernel at the end of this module
keeps the canonical form itself, on one of two paths chosen by the inputs:

* Laurent path.  When both denominators are one term c * x^m, the kernel
  multiplies or adds the numerators directly.  What the result's numerator
  and denominator can share is then only a monomial and an integer, so it
  cancels the least exponents and the gcd of the integer contents.
* Factor-base path.  Otherwise each denominator is split as
  c * x^m * prod f_i^k_i, the f_i primitive irreducible non-monomial
  polynomials with positive leading coefficient.  The split of a new
  divisor comes from one sympy factor_list call, kept on the Context with
  every denominator the kernel builds.  A product adds exponents and a sum
  takes the largest.  The only f_i that can divide the new numerator are
  known in advance (a numerator is coprime to its own denominator), and the
  kernel divides it by each of them while the division is exact.  For one
  divisor f the long division by leading terms is exact: if f divides the
  numerator, every leading term of the running remainder is divisible by
  the leading term of f, so the first that is not proves f does not divide
  it, and a zero remainder proves it does.  The monomial and the integer
  content are cancelled last, as on the Laurent path.

An inverse swaps numerator and denominator and fixes the sign; (n/d)^k is
n^k / d^k, already coprime.  Both paths return the unique canonical form,
the same that sympy's cancel gives, so equality, hashing, str and every
report byte are those of a cancel-based field.  sympy's gcd is reached only
from substitute(), and factor_list only for new divisors.

One run reads one configuration over one parameter list, so all of its
scalars live in one field.  Scalars of different fields never mix: every
operation on two of them, == included, raises ContextMismatch.

The paper's identities multiply the same pair of scalars many times within
one check.  Inside ``with ctx.products():`` each distinct pair is multiplied
once: the product is kept in a dict on the Context keyed by the two
operands' sympy elements.  Because every element is canonical, equal keys
are equal values, so the memo is exact.  The dict lives only as long as the
outermost block (a nested block reuses it) and is dropped on exit, also when
the block raises.  It is opened around single checks, not sections or
reports: on the four-parameter full-report a report-wide memo raised peak
memory by about 10% and a per-section one by about 3%, a per-check one by
under 1%.

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
from math import gcd, lcm
from operator import add, sub

from sympy import ZZ
from sympy.polys.fields import field as _sympy_field
from sympy.polys.monomials import monomial_div

from .errors import (
    ContextMismatch,
    DenominatorVanishes,
    DivisionByZero,
    ExpressionSyntax,
    UnknownParameter,
)

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

# Contexts with equal parameter tuples share one sympy field, so their
# elements interoperate; sympy's field() builds a new field on every call.
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
        self.zero = Scalar(self, self.field.zero)
        self.one = Scalar(self, self.field.one)
        self._products = None  # (fe, fe) -> Scalar while a products() block is open
        # the factor base: primitive irreducible non-monomial polynomials with
        # positive leading coefficient, each numbered once
        self._factors: list = []
        self._factor_ids: dict = {}
        self._splits: dict = {}  # multi-term denominator -> its split
        self._dens: dict = {}  # split -> denominator polynomial

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
        """Coerce an int, Fraction, string expression, or Scalar of this field."""
        if isinstance(value, Scalar):
            if value.ctx.field is not self.field:
                raise _mismatch(self, value.ctx)
            return value
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


def _mismatch(ctx, other):
    return ContextMismatch("cannot mix contexts %s and %s" % (ctx.params, other.params))


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
        # the one canonical element with equal numerator and denominator is
        # 1/1; comparing them as dicts skips sympy's coercing __eq__
        return _same(self.fe.numer, self.fe.denom)

    # -- coercion helpers ------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.ctx.field is not self.ctx.field:
                raise _mismatch(self.ctx, other.ctx)
            return other
        if isinstance(other, (int, Fraction)):
            return self.ctx.scalar(other)
        return NotImplemented

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Scalar(self.ctx, _add(self.ctx, self.fe, o.fe))

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.ctx, -self.fe)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Scalar(self.ctx, _add(self.ctx, self.fe, -o.fe))

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        # stored elements are canonical, so a unit or zero factor needs no cancel
        if self.is_one() or o.is_zero():
            return o
        if o.is_one() or self.is_zero():
            return self
        memo = self.ctx._products
        if memo is None:
            return Scalar(self.ctx, _mul(self.ctx, self.fe, o.fe))
        key = (self.fe, o.fe)
        out = memo.get(key)
        if out is None:
            out = memo[key] = Scalar(self.ctx, _mul(self.ctx, self.fe, o.fe))
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.is_zero():
            raise DivisionByZero("division by zero scalar")
        return Scalar(self.ctx, _mul(self.ctx, self.fe, _inverse(o.fe)))

    def __rtruediv__(self, other):
        return self.ctx.scalar(other) / self

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("scalar exponents must be integers")
        if n == 0:
            return self.ctx.one  # 0^0 = 1, as for int and Fraction
        if n > 0:
            return Scalar(self.ctx, _power(self.ctx, self.fe, n))
        if self.is_zero():
            raise DivisionByZero("zero scalar to a negative power")
        return Scalar(self.ctx, _power(self.ctx, _inverse(self.fe), -n))

    def inv(self) -> "Scalar":
        return self ** -1

    # -- equality and hashing --------------------------------------------

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
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.fe == o.fe

    def __hash__(self):
        # not hash(self.fe): sympy's square() hashes a polynomial and then
        # mutates it in place, so equal elements can carry different hashes
        return hash(self._key())

    # -- substitution ----------------------------------------------------

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
        if d == 0:  # the scalar does not contain the parameter
            return self
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


# -- the field kernel -----------------------------------------------------
#
# A split (c, m, ks) stands for the denominator c * x^m * prod f_i^k_i: c is a
# positive integer, m an exponent tuple and ks a sorted tuple of (i, k) pairs
# with k > 0 over the context's factor base ctx._factors.  The kernel takes
# canonical elements and returns canonical elements.


_same = dict.__eq__  # two polynomials of one ring, compared term by term


def _split(ctx, den):
    """The split of a canonical denominator; a new one is factored once per Context."""
    if len(den) == 1:
        ((m, c),) = den.items()
        return c, m, ()
    split = ctx._splits.get(den)
    if split is None:
        split = ctx._splits[den] = _factor(ctx, den)
    return split


def _factor(ctx, den):
    """The split of den from one factor_list call; new factors join the base.

    Over ZZ, sympy returns primitive factors and puts the content in the
    constant, but it makes each factor's leading coefficient positive in
    lex order: q^2 - 2*p comes back as 2*p - q^2, whose graded-lex leading
    coefficient is negative, so such a factor is negated here.
    """
    c, pairs = den.factor_list()
    m = ctx.field.ring.zero_monom
    ks = {}
    for f, k in pairs:
        if len(f) == 1:  # a parameter
            m = tuple(a + b * k for a, b in zip(m, next(iter(f))))
            continue
        if f.LC < 0:
            f, c = -f, c * (-1) ** k
        i = ctx._factor_ids.get(f)
        if i is None:
            i = ctx._factor_ids[f] = len(ctx._factors)
            ctx._factors.append(f)
        ks[i] = ks.get(i, 0) + k
    return c, m, tuple(sorted(ks.items()))


def _den(ctx, split):
    """The polynomial of a split, built once per Context and stored already split."""
    den = ctx._dens.get(split)
    if den is None:
        c, m, ks = split
        den = ctx.field.ring.dtype({m: c})
        for i, k in ks:
            den *= ctx._factors[i] ** k
        ctx._dens[split] = den
        if ks:
            ctx._splits[den] = split
    return den


def _merge(kx, ky, op):
    """Two factor exponent lists as one, op combining the shared entries."""
    if not kx or not ky:
        return kx or ky
    out = dict(kx)
    for i, k in ky:
        out[i] = op(out.get(i, 0), k)
    return tuple(sorted(out.items()))


def _exquo(num, f):
    """num / f when f divides num in ZZ[params], else None.

    Long division on leading terms, stopped at the first that the leading
    term of f does not divide (see the module docstring).  The order is
    multiplicative, so f can divide num only if the trailing term of f
    divides that of num, which is checked first.
    """
    key = num.ring.order
    lead, trail = max(f, key=key), min(f, key=key)
    bottom = min(num, key=key)
    if monomial_div(bottom, trail) is None or num[bottom] % f[trail]:
        return None
    rest, quo = dict(num), {}
    while rest:
        top = max(rest, key=key)
        m = monomial_div(top, lead)
        if m is None or rest[top] % f[lead]:
            return None
        c = quo[m] = rest[top] // f[lead]
        for e, v in f.items():
            e = tuple(map(add, e, m))
            v = rest.get(e, 0) - c * v
            if v:
                rest[e] = v
            else:
                del rest[e]
    return num.new(quo)


def _divide_out(ctx, num, ks, tries):
    """Divide num by each factor f_i of ks with i in tries while it divides,
    at most k_i times; return num and ks less the factors divided out."""
    left = []
    for i, k in ks:
        if num and i in tries:
            f = ctx._factors[i]
            while k:
                quo = _exquo(num, f)
                if quo is None:
                    break
                num, k = quo, k - 1
        if k:
            left.append((i, k))
    return num, tuple(left)


def _reduce(ctx, num, c, m, ks):
    """num / (c x^m prod f_i^k_i) in canonical form, when no f_i divides num.

    What num and the denominator can still share is a monomial and an
    integer, the least exponents and the gcd of the contents.
    """
    if not num:
        return ctx.field.zero
    g = gcd(c, *num.values())
    low = tuple(map(min, m, *num))
    if g != 1 or any(low):
        num = num.new({tuple(map(sub, e, low)): v // g for e, v in num.items()})
        c, m = c // g, tuple(map(sub, m, low))
    return ctx.field.raw_new(num, _den(ctx, (c, m, ks)))


def _mul(ctx, x, y):
    """x * y for canonical x and y."""
    cx, mx, kx = _split(ctx, x.denom)
    cy, my, ky = _split(ctx, y.denom)
    nx, ny = x.numer, y.numer
    if kx or ky:
        # each numerator is coprime to its own denominator, so it can share
        # only the factors that the other denominator has alone
        ix, iy = {i for i, _ in kx}, {i for i, _ in ky}
        nx, ky = _divide_out(ctx, nx, ky, iy - ix)
        ny, kx = _divide_out(ctx, ny, kx, ix - iy)
    return _reduce(ctx, nx * ny, cx * cy, tuple(map(add, mx, my)), _merge(kx, ky, add))


def _add(ctx, x, y):
    """x + y for canonical x and y."""
    if not x:
        return y
    if not y:
        return x
    if _same(x.denom, y.denom):
        c, m, ks = _split(ctx, x.denom)
        num, ks = _divide_out(ctx, x.numer + y.numer, ks, {i for i, _ in ks})
        return _reduce(ctx, num, c, m, ks)
    cx, mx, kx = _split(ctx, x.denom)
    cy, my, ky = _split(ctx, y.denom)
    c, m, ks = lcm(cx, cy), tuple(map(max, mx, my)), _merge(kx, ky, max)
    num = _scale(ctx, x.numer, c // cx, tuple(map(sub, m, mx)), _less(ks, kx))
    num += _scale(ctx, y.numer, c // cy, tuple(map(sub, m, my)), _less(ks, ky))
    # a factor with more weight in one denominator divides one summand and
    # not the other, so only factors of equal weight can divide the sum
    num, ks = _divide_out(ctx, num, ks, {i for i, _ in set(kx) & set(ky)})
    return _reduce(ctx, num, c, m, ks)


def _less(ks, kx):
    """The exponents of ks minus those of kx, which ks dominates."""
    have = dict(kx)
    return tuple((i, k - have.get(i, 0)) for i, k in ks if k > have.get(i, 0))


def _scale(ctx, num, c, m, ks):
    """num * c x^m prod f_i^k_i."""
    if ks:
        return num * _den(ctx, (c, m, ks))
    return num.mul_term((m, c))


def _inverse(x):
    """1 / x for nonzero canonical x: swap, then make the leading coefficient positive."""
    num, den = x.denom, x.numer
    if den.LC < 0:
        num, den = -num, -den
    return x.raw_new(num, den)


def _power(ctx, x, n):
    """x^n for n > 0: a power of a coprime pair is coprime."""
    c, m, ks = _split(ctx, x.denom)
    den = _den(ctx, (c ** n, tuple(e * n for e in m), tuple((i, k * n) for i, k in ks)))
    return x.raw_new(x.numer ** n, den)


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
