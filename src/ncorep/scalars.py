"""Exact scalar arithmetic in the field QQ(params).

Every coefficient in the package is a Scalar: a rational function over the
rationals in a declared list of commuting parameters, sorted alphabetically.
A polynomial is a plain dict {exponent tuple: nonzero int}, the exponents
listed in parameter order.  A Scalar holds its numerator as such a dict and
its denominator as a split (c, m, ks), which stands for

    c * x^m * prod f_i^k_i,

c a positive integer, x^m a monomial and ks a sorted tuple of (i, k) pairs
with k > 0 over the Context's factor base: primitive irreducible
non-monomial polynomials f_i with positive leading coefficient in
graded-lex order, each numbered once.  Every stored element is canonical:
numerator and denominator are coprime in ZZ[params] (integer content
included), and the denominator's leading coefficient is positive (c and
every f_i lead with a positive coefficient).  Each element of QQ(params)
has exactly one such form, and by unique factorization the split of a
denominator is unique within a Context, so equal scalars have equal
numerators and splits, and an operation may hand back an operand unchanged
(multiplying by one does).  The canonical
*observable* form divides by the denominator's leading coefficient, making
it monic, at the serialization boundary.  No floating point exists anywhere.

The paper's identities are contractions whose coefficients come from a
twisting table, and their denominators are products of a few fixed factors
(the parameters, r - 1, q^2 + 1, p - 1).  So +, -, *, / and powers keep the
canonical form themselves, without a general polynomial gcd, and they never
need the denominator as a polynomial except to bring two of them to a
common one.  That polynomial is built on demand from its split and kept on
the Context.

* A product adds the exponents of the two splits, a sum takes the largest.
  A numerator is coprime to its own denominator, so the only f_i that can
  divide a new numerator are known in advance, and the kernel divides it by
  each of them while the division is exact.  For one divisor f the long
  division by leading terms is exact: if f divides the numerator, every
  leading term of the running remainder is divisible by the leading term of
  f, so the first that is not proves f does not divide it, and a zero
  remainder proves it does.
* What is left to share is a monomial and an integer: the kernel cancels
  the least exponents and the gcd of the integer contents.  When both
  denominators are one term (the Laurent case) that is the whole work.
* An inverse swaps numerator and denominator and fixes the sign; the old
  numerator becomes a denominator, and only then is a polynomial split.  A
  one-term one splits at once.  A multi-term one not met before is factored
  once per Context, and its new irreducible factors join the base;
  substitute() splits its new denominators the same way.  _factor takes
  out the monomial and integer content and splits the rest itself when it
  is linear in some parameter with an integer coefficient or constant term
  (then it is irreducible) or quadratic in its only parameter (irreducible
  unless its discriminant is a square, and then the product of the linear
  factors of its rational roots).  That covers every denominator of the
  paper's inputs (q^2 + 1, r - 1, (r - 1)^2, p - 1); anything else goes to
  sympy's factor_list.  The split is unique, so the path does not show in
  any result.  _factor's fallback is the only place the package imports
  sympy, so no shipped input loads it.
* (n/d)^k is n^k / d^k, already coprime: its split multiplies the
  exponents, and n^k is a closed form for one term and repeated squaring
  otherwise.
* substitute() composes numerator and denominator with the value, then
  cancels the same way: split the new denominator, divide by its factors,
  cancel the monomial and the content.

Every path returns the unique canonical form, the same that sympy's cancel
gives, so equality, str and every report byte are those of a cancel-based
field; str writes the terms in descending graded-lex order.  The tests
check the kernel against sympy's field operation by operation.  A Scalar is
not hashable: nothing keys a dict by a value, and the products() memo below
keys by the stored numerator and split.

One run reads one configuration over one parameter list, so all of its
scalars live in one Context.  Scalars of two Context objects never mix,
even over the same parameters: every operation on two of them, ==
included, raises ContextMismatch.

The paper's identities multiply the same pair of scalars many times within
one check.  Inside ``with ctx.products():`` each distinct pair is multiplied
once: the product is kept in a dict on the Context keyed by the two
operands' numerators and splits.  Because every element is canonical, equal
keys are equal values, so the memo is exact.  The dict lives only as long
as the outermost block (a nested block reuses it) and is dropped on exit,
also when the block raises.  It is opened around single checks, not
sections or reports: on the four-parameter full-report a report-wide memo
raised peak memory by about 10% and a per-section one by about 3%, a
per-check one by under 1%.

The expression grammar accepted by parse() is deliberately small:

    expr   := term  (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' signed-integer)?
    atom   := integer | parameter | '(' expr ')'

so inputs like "(q^2-1)/(q-1)" or "1/(q+q^-1)" mean what they look like and
canonicalize on construction (those two become q + 1 and q/(q^2 + 1)).

mod_image(s) maps a scalar to the field F_P, P = PRIME = 2^61 - 1, by
evaluating it at one fixed point: the i-th parameter in sorted order goes to
POINT[i], constants written in this module that no input, hash or clock
chooses.  They are unrelated to each other on purpose: at a point such as
(a, a^2, a^3, ...) the monomials p^2 and q would agree, and the image of a
nonzero p^2 - q would be zero.  The map evaluates the numerator and the
split (c, m, ks), and returns None when the denominator vanishes at the
point, or when the Context has more parameters than POINT has coordinates.
The point's powers and the images of the factor base are kept on the
Context, next to the base itself (the base only grows, so a kept image
stays exact); the module keeps nothing.  Evaluation is a ring homomorphism
on the fractions whose denominators do not vanish at the point, so an
integer polynomial in such scalars that has a nonzero image is a nonzero
scalar.  tensors uses this to prove residual entries nonzero without
computing them.
"""

from __future__ import annotations

import contextlib
import re
from bisect import insort
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import add, sub

from .errors import (
    ContextMismatch,
    DenominatorVanishes,
    DivisionByZero,
    ExpressionSyntax,
    NumberTooLong,
    UnknownParameter,
)

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

# the modular image (see mod_image): the prime, and the point's coordinates,
# the i-th for the i-th parameter in sorted order
PRIME = 2 ** 61 - 1
POINT = (
    1320639155411195071, 2244459267745175867, 853826613341487173, 1660378492904280224,
    1251203518435319776, 2228674534088486972, 1380598313792217160, 589235720800289267,
)


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
        zero = (0,) * len(self.params)
        self._unit = (1, zero, ())  # the split of the denominator 1
        self._gens = {
            n: Scalar(self, {zero[:i] + (1,) + zero[i + 1:]: 1}, self._unit)
            for i, n in enumerate(self.params)
        }
        self.zero = Scalar(self, {}, self._unit)
        self.one = Scalar(self, {zero: 1}, self._unit)
        self._products = None  # (ident, ident) -> Scalar while a products() block is open
        # the factor base: (f, leading exponent, trailing exponent) per factor
        self._factors: list = []
        self._factor_ids: dict = {}  # frozenset(f.items()) -> its index
        self._splits: dict = {}  # frozenset(den.items()) -> split, multi-term dens
        self._dens: dict = {}  # split with factors -> denominator polynomial
        # the modular image: [1, a_i, a_i^2, ...] per parameter, grown on
        # demand (None past POINT's length), and each base factor's image
        self._point_pows = [[1, a] for a in POINT] if len(self.params) <= len(POINT) else None
        self._factor_images: list = []

    def __repr__(self):
        return "Context(%s)" % ", ".join(self.params)

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
        """Coerce an int, Fraction, string expression, or Scalar of this Context."""
        if isinstance(value, Scalar):
            if value.ctx is not self:
                raise _mismatch(self, value.ctx)
            return value
        if isinstance(value, str):
            return self.parse(value)
        if isinstance(value, (int, Fraction)):
            # already coprime with a positive denominator
            zero = self._unit[1]
            num = {zero: value.numerator} if value else {}
            return Scalar(self, num, (value.denominator, zero, ()))
        raise TypeError("cannot make a Scalar from %r" % (value,))

    def parse(self, text: str) -> "Scalar":
        return _Parser(self, text).parse()


def _mismatch(ctx, other):
    return ContextMismatch(
        "cannot mix scalars of two Context objects, over %s and %s" % (ctx.params, other.params)
    )


class Scalar:
    """One element of QQ(params).  Immutable; all arithmetic is exact."""

    __slots__ = ("ctx", "num", "split", "_keyc", "_identc")

    def __init__(self, ctx: Context, num: dict, split: tuple):
        self.ctx = ctx
        self.num = num
        self.split = split
        self._keyc = None
        self._identc = None

    # -- basic predicates ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_one(self) -> bool:
        return self.split == self.ctx._unit and self.num == self.ctx.one.num

    # -- coercion helpers ------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.ctx is not self.ctx:
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
        return _add(self.ctx, self, o)

    def __neg__(self):
        return Scalar(self.ctx, {e: -v for e, v in self.num.items()}, self.split)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return _add(self.ctx, self, -o)

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
            return _mul(self.ctx, self, o)
        key = (_ident(self), _ident(o))
        out = memo.get(key)
        if out is None:
            out = memo[key] = _mul(self.ctx, self, o)
        return out

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.is_zero():
            raise DivisionByZero("division by zero scalar")
        return _mul(self.ctx, self, _inverse(self.ctx, o))

    def __rtruediv__(self, other):
        return self.ctx.scalar(other) / self

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("scalar exponents must be integers")
        if n == 0:
            return self.ctx.one  # 0^0 = 1, as for int and Fraction
        if n > 0:
            return _power(self, n)
        if self.is_zero():
            raise DivisionByZero("zero scalar to a negative power")
        return _power(_inverse(self.ctx, self), -n)

    def inv(self) -> "Scalar":
        return self ** -1

    # -- equality --------------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.split == o.split and self.num == o.num

    # -- substitution ----------------------------------------------------

    def substitute(self, bindings) -> "Scalar":
        """Apply parameter bindings one at a time, in the given order.

        bindings: dict (insertion order respected) or iterable of
        (name, value) pairs; values coerce like Context.scalar.
        Raises DenominatorVanishes when a step kills this scalar's
        denominator as a polynomial identity.  The order matters: a limit
        that exists only in one order (r then s) hits a vanishing
        denominator in the other.
        """
        items = list(bindings.items()) if isinstance(bindings, dict) else list(bindings)
        cur = self
        for name, value in items:
            cur = cur._substitute_one(name, value)
        return cur

    def _substitute_one(self, name, value):
        ctx = self.ctx
        if name not in ctx.params:
            raise UnknownParameter(
                "cannot substitute %r: not a parameter of %s" % (name, list(ctx.params))
            )
        val = ctx.scalar(value)
        i = ctx.params.index(name)
        numer, denom = self.num, _den(ctx, self.split)
        # P(a/b) / Q(a/b) = P~ / Q~ with X~ = b^d X(a/b), d the larger degree
        d = max(exps[i] for poly in (numer, denom) for exps in poly)
        if d == 0:  # the scalar does not contain the parameter
            return self
        a_pows = _powers(ctx, val.num, d)
        b_pows = _powers(ctx, _den(ctx, val.split), d)
        num, den = (_compose(poly, i, a_pows, b_pows) for poly in (numer, denom))
        if not den:
            raise DenominatorVanishes(
                "substituting %s = %s makes a denominator vanish" % (name, val), param=name
            )
        return _canonical(ctx, num, den)

    # -- canonical text --------------------------------------------------

    def __str__(self):
        if self._keyc is None:  # the text, written once
            ctx = self.ctx
            c, m, ks = self.split
            try:
                if not ks and not any(m):  # the constant denominator c
                    self._keyc = _poly_str(self.num, ctx.params, c)
                else:
                    den = _den(ctx, self.split)
                    lead = den[max(den, key=_grlex)]
                    num, den = (_poly_str(p, ctx.params, lead) for p in (self.num, den))
                    self._keyc = "(%s)/(%s)" % (num, den)
            except ValueError:  # an int longer than str() converts
                raise NumberTooLong("a coefficient has too many digits to print") from None
        return self._keyc

    def __repr__(self):
        return "Scalar(%s)" % self


# -- polynomials ------------------------------------------------------------
#
# A polynomial is a dict {exponent tuple: nonzero int}.  No function here
# changes a dict it was given, so the kernel can share them.


def _grlex(e):
    """The graded-lex sort key of an exponent tuple (sympy's grlex)."""
    return sum(e), e


def _padd(a, b):
    """a + b."""
    if len(a) < len(b):
        a, b = b, a
    out = dict(a)
    for e, v in b.items():
        v += out.get(e, 0)
        if v:
            out[e] = v
        else:
            del out[e]
    return out


def _pterm(a, m, c):
    """a * c x^m."""
    return {tuple(map(add, e, m)): v * c for e, v in a.items()}


def _pmul(a, b):
    """a * b."""
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        ((m, c),) = b.items()
        return _pterm(a, m, c)
    out = {}
    get = out.get
    for eb, vb in b.items():
        for ea, va in a.items():
            e = tuple(map(add, ea, eb))
            out[e] = get(e, 0) + va * vb
    return {e: v for e, v in out.items() if v}


def _ppow(a, n):
    """a^n for n > 0: a closed form for one term, repeated squaring otherwise."""
    if len(a) == 1:
        ((m, c),) = a.items()
        return {tuple(e * n for e in m): c ** n}
    out = None
    while True:
        if n & 1:
            out = a if out is None else _pmul(out, a)
        n >>= 1
        if not n:
            return out
        a = _pmul(a, a)


def _powers(ctx, poly, d):
    """[1, poly, ..., poly^d]."""
    out = [ctx.one.num]
    for _ in range(d):
        out.append(_pmul(out[-1], poly))
    return out


def _compose(poly, i, a_pows, b_pows):
    """sum c * rest * a^e * b^(d - e) over the terms c * rest * x_i^e of poly."""
    d = len(a_pows) - 1
    by_exp = {}
    for exps, coeff in poly.items():
        by_exp.setdefault(exps[i], {})[exps[:i] + (0,) + exps[i + 1:]] = coeff
    out = {}
    for e, part in by_exp.items():
        if a_pows[e]:
            out = _padd(out, _pmul(_pmul(part, a_pows[e]), b_pows[d - e]))
    return out


# -- the field kernel -----------------------------------------------------
#
# The kernel takes canonical Scalars of one Context and returns canonical
# Scalars of it.


def _ident(s):
    """s's numerator and split as one hashable key, kept on s."""
    if s._identc is None:
        s._identc = (frozenset(s.num.items()), s.split)
    return s._identc


def _split(ctx, den):
    """The split of a denominator with positive leading coefficient; a new
    multi-term one is factored once per Context."""
    if len(den) == 1:
        ((m, c),) = den.items()
        return c, m, ()
    key = frozenset(den.items())
    split = ctx._splits.get(key)
    if split is None:
        split = ctx._splits[key] = _factor(ctx, den)
    return split


def _factor(ctx, den):
    """The split of den, which has at least two terms and a positive leading
    coefficient; new factors join the base.

    The monomial content and the integer content come out first.  What is
    left, f, is primitive, leads positive and no parameter divides it, and
    _small_factors splits the common shapes exactly.  Anything else is
    factored by sympy's factor_list, the only place the package imports
    sympy.  Over ZZ it returns primitive factors whose leading coefficient
    is positive in lex order, not graded-lex (q^2 - 2*p comes back as
    2*p - q^2), so such a factor is negated; then f, which leads positive,
    is their product exactly and the constant it returns is 1.
    """
    c = gcd(*den.values())
    m = tuple(map(min, *den))
    f = {tuple(map(sub, e, m)): v // c for e, v in den.items()}
    pairs = _small_factors(f)
    if pairs is None:
        from sympy import ZZ
        from sympy.polys.orderings import grlex
        from sympy.polys.rings import PolyRing

        _, found = PolyRing(ctx.params, ZZ, grlex).from_dict(f).factor_list()
        pairs = []
        for g, k in found:
            g = {e: int(v) for e, v in g.items()}
            if g[max(g, key=_grlex)] < 0:
                g = {e: -v for e, v in g.items()}
            pairs.append((g, k))
    ks = {}
    for g, k in pairs:
        i = _factor_id(ctx, g)
        ks[i] = ks.get(i, 0) + k
    return c, m, tuple(sorted(ks.items()))


def _small_factors(f):
    """The irreducible factors of f as (factor, multiplicity) pairs, when f
    is linear with an integer coefficient or constant term in some parameter,
    or quadratic in its only parameter; else None.

    f is primitive, leads positive and has no monomial factor.
    * f = a x + b with a or b a nonzero integer is irreducible: b is not
      zero, since x does not divide f, and a factor of f either has no x,
      so it divides a and b and hence an integer, and is a unit because f
      is primitive; or its cofactor has no x and is a unit the same way.
    * f = A x^2 + B x + C is irreducible when B^2 - 4AC is not a square.
      Otherwise it has the rational roots (-B +- sqrt(B^2 - 4AC)) / 2A, and
      f is the product of the primitive linear factors d x - n for the
      roots n/d (one factor squared for a double root): by Gauss's lemma
      that product is primitive, and it leads with d d' > 0, as f does.
    """
    zero = (0,) * len(next(iter(f)))
    degrees = tuple(map(max, *f))
    for i, d in enumerate(degrees):
        if d == 1:
            xs = [e for e in f if e[i]]
            if len(xs) == 1 and sum(xs[0]) == 1 or len(f) - len(xs) == 1 and zero in f:
                return [(f, 1)]
    support = [i for i, d in enumerate(degrees) if d]
    if len(support) != 1 or degrees[support[0]] != 2:
        return None
    (i,) = support
    x1, x2 = (zero[:i] + (k,) + zero[i + 1:] for k in (1, 2))
    a, b, c = f[x2], f.get(x1, 0), f[zero]
    disc = b * b - 4 * a * c
    if disc < 0 or isqrt(disc) ** 2 != disc:
        return [(f, 1)]
    root = isqrt(disc)
    linear = []
    for s in {root, -root}:
        r = Fraction(-b + s, 2 * a)
        linear.append(({x1: r.denominator, zero: -r.numerator}, 2 if s == 0 else 1))
    return linear


def _factor_id(ctx, f):
    """The index of the base factor f, which joins the base if it is new."""
    key = frozenset(f.items())
    i = ctx._factor_ids.get(key)
    if i is None:
        i = ctx._factor_ids[key] = len(ctx._factors)
        ctx._factors.append((f, max(f, key=_grlex), min(f, key=_grlex)))
    return i


def _den(ctx, split):
    """The polynomial of a split, kept on the Context when it has factors."""
    c, m, ks = split
    if not ks:
        return {m: c}
    den = ctx._dens.get(split)
    if den is None:
        den = {m: c}
        for i, k in ks:
            den = _pmul(den, _ppow(ctx._factors[i][0], k))
        ctx._dens[split] = den
        ctx._splits[frozenset(den.items())] = split
    return den


def _merge(kx, ky, op):
    """Two factor exponent lists as one, op combining the shared entries."""
    if not kx or not ky:
        return kx or ky
    out = dict(kx)
    for i, k in ky:
        out[i] = op(out.get(i, 0), k)
    return tuple(sorted(out.items()))


def _mdiv(a, b):
    """The monomial a / b, or None when b does not divide a."""
    d = tuple(map(sub, a, b))
    return d if min(d) >= 0 else None


def _exquo(num, factor):
    """num / f when f divides num in ZZ[params], else None.

    Long division on leading terms, stopped at the first that the leading
    term of f does not divide (see the module docstring).  The order is
    multiplicative, so f can divide num only if the trailing term of f
    divides that of num, which is checked first.  The leading and trailing
    terms of f were found once, when f joined the factor base.  The
    remainder's graded-lex keys are kept sorted: a step cancels the leading
    term and changes only smaller ones, so the largest key left is the next
    leading term once the keys of cancelled terms are skipped.
    """
    f, lead, trail = factor
    bottom = min(num, key=_grlex)
    if _mdiv(bottom, trail) is None or num[bottom] % f[trail]:
        return None
    top_c = f[lead]
    rest, quo = dict(num), {}
    keys = sorted([(sum(e), e) for e in rest])
    while keys:
        _, top = keys.pop()
        if top not in rest:
            continue
        m = _mdiv(top, lead)
        if m is None or rest[top] % top_c:
            return None
        c = quo[m] = rest[top] // top_c
        for e, v in f.items():
            e = tuple(map(add, e, m))
            old = rest.get(e)
            if old is None:
                rest[e] = -c * v
                insort(keys, (sum(e), e))
            elif old != c * v:
                rest[e] = old - c * v
            else:
                del rest[e]
    return quo


def _divide_out(ctx, num, ks, tries):
    """Divide num by each factor f_i of ks with i in tries while it divides,
    at most k_i times; return num and ks less the factors divided out."""
    left = []
    for i, k in ks:
        if num and i in tries:
            factor = ctx._factors[i]
            while k:
                quo = _exquo(num, factor)
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
        return ctx.zero
    g = 1 if c == 1 else gcd(c, *num.values())
    low = tuple(map(min, m, *num)) if any(m) else m
    if g != 1 or any(low):
        num = {tuple(map(sub, e, low)): v // g for e, v in num.items()}
        c, m = c // g, tuple(map(sub, m, low))
    return Scalar(ctx, num, (c, m, ks))


def _canonical(ctx, num, den):
    """num / den in canonical form, for any polynomials with den nonzero."""
    if den[max(den, key=_grlex)] < 0:
        num, den = {e: -v for e, v in num.items()}, {e: -v for e, v in den.items()}
    c, m, ks = _split(ctx, den)
    num, ks = _divide_out(ctx, num, ks, {i for i, _ in ks})
    return _reduce(ctx, num, c, m, ks)


def _mul(ctx, x, y):
    """x * y for canonical x and y."""
    cx, mx, kx = x.split
    cy, my, ky = y.split
    nx, ny = x.num, y.num
    if kx or ky:
        # each numerator is coprime to its own denominator, so it can share
        # only the factors that the other denominator has alone
        ix, iy = {i for i, _ in kx}, {i for i, _ in ky}
        nx, ky = _divide_out(ctx, nx, ky, iy - ix)
        ny, kx = _divide_out(ctx, ny, kx, ix - iy)
    return _reduce(ctx, _pmul(nx, ny), cx * cy, tuple(map(add, mx, my)), _merge(kx, ky, add))


def _add(ctx, x, y):
    """x + y for canonical x and y."""
    if not x.num:
        return y
    if not y.num:
        return x
    if x.split == y.split:
        c, m, ks = x.split
        num, ks = _divide_out(ctx, _padd(x.num, y.num), ks, {i for i, _ in ks})
        return _reduce(ctx, num, c, m, ks)
    cx, mx, kx = x.split
    cy, my, ky = y.split
    c, m, ks = lcm(cx, cy), tuple(map(max, mx, my)), _merge(kx, ky, max)
    num = _padd(
        _scale(ctx, x.num, c // cx, tuple(map(sub, m, mx)), _less(ks, kx)),
        _scale(ctx, y.num, c // cy, tuple(map(sub, m, my)), _less(ks, ky)),
    )
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
        return _pmul(num, _den(ctx, (c, m, ks)))
    return _pterm(num, m, c)


def _inverse(ctx, x):
    """1 / x for nonzero canonical x: swap, then make the leading coefficient positive."""
    num, den = _den(ctx, x.split), x.num
    if den[max(den, key=_grlex)] < 0:
        num, den = {e: -v for e, v in num.items()}, {e: -v for e, v in den.items()}
    return Scalar(ctx, num, _split(ctx, den))


def _power(x, n):
    """x^n for n > 0: a power of a coprime pair is coprime."""
    c, m, ks = x.split
    split = (c ** n, tuple(e * n for e in m), tuple((i, k * n) for i, k in ks))
    return Scalar(x.ctx, _ppow(x.num, n) if x.num else x.num, split)


# -- the modular image ------------------------------------------------------


def mod_image(s):
    """s at the Context's point, as an int in [0, PRIME), or None when the
    denominator of s vanishes there or the Context has no point."""
    ctx = s.ctx
    if ctx._point_pows is None:
        return None
    c, m, ks = s.split
    den = c * _poly_image(ctx, {m: 1})
    images = ctx._factor_images
    for i, k in ks:
        while len(images) <= i:  # factors that joined the base since the last image
            images.append(_poly_image(ctx, ctx._factors[len(images)][0]))
        den = den * pow(images[i], k, PRIME)
    den %= PRIME
    if not den:
        return None
    return _poly_image(ctx, s.num) * pow(den, -1, PRIME) % PRIME


def _poly_image(ctx, poly):
    """The polynomial poly at the Context's point, mod PRIME."""
    pows = ctx._point_pows
    out = 0
    for e, c in poly.items():
        for i, k in enumerate(e):
            if k:
                row = pows[i]
                while len(row) <= k:
                    row.append(row[-1] * row[1] % PRIME)
                c = c * row[k] % PRIME
        out += c
    return out % PRIME


def _poly_str(poly, names, lead):
    """poly / lead as text, its terms in descending graded-lex order."""
    if not poly:
        return "0"
    out = ""
    for e in sorted(poly, key=_grlex, reverse=True):
        c = poly[e] if lead == 1 else Fraction(poly[e], lead)
        mono = "*".join(n if k == 1 else "%s^%d" % (n, k) for n, k in zip(names, e) if k)
        if not mono:
            term = str(c)
        elif c == 1:
            term = mono
        elif c == -1:
            term = "-" + mono
        else:
            term = "%s*%s" % (c, mono)
        if not out:
            out = term
        elif term.startswith("-"):
            out += " - " + term[1:]
        else:
            out += " + " + term
    return out


# -- expression parsing ---------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:([0-9]+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*/^()]))")


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
                try:
                    self.toks.append(("int", int(m.group(1)), m.start(1)))
                except ValueError:  # more digits than int() converts
                    raise ExpressionSyntax("number is too long to read", pos=m.start(1)) from None
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
        try:
            value = self.expr()
        except RecursionError:
            raise ExpressionSyntax("expression nested too deeply") from None
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
