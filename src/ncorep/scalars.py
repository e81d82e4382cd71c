"""Exact scalar arithmetic in the field QQ(params).

Every coefficient in the package is a Scalar: a rational function over the
rationals in a declared list of commuting parameters, sorted alphabetically.
A polynomial is a plain dict {monomial: nonzero int}, each monomial packed
into one int (below), and its exponents may be negative: it is a Laurent
polynomial, an element of ZZ[params^±1].  A Scalar holds its numerator N as
such a dict and its denominator as a split (c, ks), which stands for

    c * prod f_i^k_i,

c a positive integer and ks a sorted tuple of (i, k) pairs with k > 0 over
the Context's factor base: primitive irreducible non-monomial polynomials
f_i with positive leading coefficient in graded-lex order, each numbered
once.  A monomial is a unit of ZZ[params^±1], so it never stands in the
denominator: 1/q is the numerator q^-1 over c = 1.  Every stored element
is canonical: no f_i of its split divides N, the integer content of N is
coprime to c, and c and every f_i lead with a positive coefficient.
ZZ[params^±1] is a unique factorization domain whose units are the signed
monomials, so each element of QQ(params) has exactly one such form, and by
unique factorization the split of a denominator is unique within a
Context.  Equal scalars therefore have equal numerators and splits, and an
operation may hand back an operand unchanged (multiplying by one does).

The monomial part comes back only where a polynomial is needed.  With m
the least exponents of N that are negative, made positive (0 where none
is), N x^m over c x^m prod f_i^k_i is the fraction of two coprime
polynomials whose denominator leads positive; _fraction writes it out.
str prints those two (once per Scalar: the text is kept), substitute()
composes them, and the exponent limit below is on their degrees.  _split hands back the monomial content of a
new denominator for the caller to move into the numerator, and _exquo
divides N by a factor after taking out its monomial content.  The canonical
*observable* form divides by the denominator's leading coefficient, making
it monic, at the serialization boundary.  No floating point exists
anywhere.

A monomial x^e over k parameters is the int

    deg(e) * 2^64k + e_1 * 2^64(k - 1) + ... + e_k,

the total degree in the top field and then one signed 64-bit field per
parameter in sorted order, so 1 is the int 0 and a monomial with no
negative exponent packs as the plain concatenation of its fields.  While
every field stays within +-(2^63 - 1) no sum or difference carries from one
field into the next, so a product of monomials is an int sum, and int
order is the order of (sum(e), e), which is graded-lex order: the sort, the
leading term and the printed order read the int itself.  _exps decodes the
fields by adding 2^63 to each (ctx._high), which makes every field a number
in [0, 2^64).  The same guard bits read signs without unpacking: after that
addition a field's top bit is set exactly when the field is not negative,
and after adding 2^63 - 1 (ctx._ones) exactly when it is positive.  _common
ANDs those bits over a polynomial and reads only the fields whose
least value is not 0; _mdiv, which divides polynomial monomials in the long
division, sets the top bit of every field of the dividend first, so a field
of the difference that borrowed is one whose top bit was cleared.

The exponent limit is on the polynomial form: an operation raises
ExponentTooLarge when N x^m or c x^m prod f_i^k_i reaches total degree
2^62.  A stored scalar is below the limit, so each of its fields lies
within +-2^62 and a product or a sum of two stored scalars is formed with
its fields within +-2^63, where packing and guard bits still work.  The
check stays off the per-operation path: each Scalar carries a bound, at
least the largest |e_i| of its numerator.  A product adds the operands'
bounds, a sum takes the larger (plus the degree of any factor it
multiplied a numerator by), and dividing by a factor never raises one.
Over k parameters N x^m has degree at most 2 k bound and x^m at most
k bound, so a result whose bound is below 2^62 / 2k (ctx._safe) and whose
factor part has degree below 2^61 is within the limit; only any other
result has its degrees computed exactly (_limited), and its bound replaced
by its largest |exponent|.  A power and a substitution multiply exponents,
so they check the degrees of the powers before forming them; below the
limit the product of three monomials still fits, which covers
substitution's b^d X(a/b).  _limit is the one place that raises, and the
CLI reports the error as "exponent too large".

The paper's identities are contractions whose coefficients come from a
twisting table, and their denominators are products of a few fixed factors
(the parameters, r - 1, q^2 + 1, p - 1).  The parameters are units, so for
the Laurent scalars (ks empty on both sides, which covers the GL(3) inputs)
a product is the product of the numerators and a gcd of the integer
content when c is not 1, and a sum brings both to lcm(c, c') and adds.
+, -, *, / and powers keep the canonical form themselves, without a general
polynomial gcd, and they never need the denominator as a polynomial except
to bring two of them to a common one.  That polynomial is built on demand
from its split and kept on the Context.

* A product adds the exponents of the two splits, a sum takes the largest.
  A numerator is coprime to its own denominator, so the only f_i that can
  divide a new numerator are known in advance, and the kernel divides it by
  each of them while the division is exact.  For one divisor f the long
  division by leading terms is exact: if f divides the numerator, every
  leading term of the running remainder is divisible by the leading term of
  f, so the first that is not proves f does not divide it, and a zero
  remainder proves it does.  Before it divides by an f of degree 1 in some
  parameter a numerator whose degree is larger than its number of terms,
  _exquo evaluates the numerator mod PRIME where f vanishes (that
  parameter at f's root, the others at POINT): a nonzero value proves f
  does not divide it, so the division never runs a step per power of a
  large exponent to find that out.
* What is left to share is an integer: the kernel cancels the gcd of the
  numerator's content and c.
* An inverse swaps numerator and denominator and fixes the sign; the old
  numerator, less its monomial content, becomes a denominator, and only
  then is a polynomial split.  A one-term one splits at once.  A multi-term
  one not met before is factored once per Context, and its new irreducible
  factors join the base; substitute() splits its new denominators the same
  way.  _factor takes out the monomial and integer content and splits the
  rest itself when it is linear in some parameter with an integer
  coefficient or constant term (then it is irreducible) or quadratic in its
  only parameter (irreducible unless its discriminant is a square, and then
  the product of the linear factors of its rational roots).  That covers
  every denominator of the paper's inputs (q^2 + 1, r - 1, (r - 1)^2,
  p - 1); anything else goes to sympy's factor_list.  The split is unique,
  so the path does not show in any result.  _factor's fallback is the only
  place the package imports sympy, so no shipped input loads it.
* (N/d)^k is N^k / d^k, already coprime: its split multiplies the
  exponents, and N^k is a closed form for one term and repeated squaring
  otherwise.
* substitute() composes the polynomial numerator and denominator with the
  value, then cancels the same way: split the new denominator, divide by
  its factors, move its monomial content into the numerator, cancel the
  integer content.

Every path returns the unique canonical form, so equality, str and every
report byte are those of a cancel-based field; str writes the terms in
descending graded-lex order.  The tests check the kernel against sympy's
field operation by operation, and against a kernel on exponent tuples that
keeps the monomial part in the denominator.  A Scalar is not hashable:
nothing keys a dict by a value, and the products() memo below keys by the
stored numerator and split.

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
nonzero p^2 - q would be zero.  Every coordinate is invertible mod P, so a
negative exponent is a power of an inverse.  The map evaluates N and the
split (c, ks), and returns None when the denominator vanishes at the
point, or when the Context has more parameters than POINT has coordinates.
The image of each monomial met and of each factor of the base are kept on
the Context, next to the base itself (the base only grows, so a kept image
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
from operator import add

from .errors import (
    ContextMismatch,
    DenominatorVanishes,
    DivisionByZero,
    ExponentTooLarge,
    ExpressionSyntax,
    NumberTooLong,
    UnknownParameter,
    excerpt,
)

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

# the modular image (see mod_image): the prime, and the point's coordinates,
# the i-th for the i-th parameter in sorted order
PRIME = 2 ** 61 - 1
POINT = (
    1320639155411195071, 2244459267745175867, 853826613341487173, 1660378492904280224,
    1251203518435319776, 2228674534088486972, 1380598313792217160, 589235720800289267,
)

_FIELD = (1 << 64) - 1  # one field of a packed monomial
_SIGN = 1 << 63  # added to a field to decode it
_LIMIT = 1 << 62  # the least total degree that raises ExponentTooLarge


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
        k = len(self.params)
        # the packing (module docstring): each parameter's field offset, the
        # degree's, and per parameter field 2^63 - 1 and the top bit; _guard
        # adds the degree field's top bit; a bound below _safe needs no
        # exponent check
        self._shifts = tuple(64 * i for i in reversed(range(k)))
        self._dshift = 64 * k
        self._ones = sum(((1 << 63) - 1) << s for s in self._shifts)
        self._high = sum(1 << (s + 63) for s in self._shifts)
        self._guard = self._high | 1 << (self._dshift + 63)
        self._safe = _LIMIT // (2 * k)
        self._unit = (1, ())  # the split of the denominator 1
        self._gens = {
            n: Scalar(self, {1 << self._dshift | 1 << s: 1}, self._unit, 1)
            for n, s in zip(self.params, self._shifts)
        }
        self.zero = Scalar(self, {}, self._unit, 0)
        self.one = Scalar(self, {0: 1}, self._unit, 0)
        self._products = None  # (ident, ident) -> Scalar while a products() block is open
        # the factor base: (f, leading monomial, trailing monomial, degree,
        # root point or None) per factor (_factor_id)
        self._factors: list = []
        self._factor_ids: dict = {}  # frozenset(f.items()) -> its index
        self._splits: dict = {}  # frozenset(den.items()) -> (monomial, split), multi-term dens
        self._dens: dict = {}  # split with factors -> denominator polynomial
        # the modular image: the point (None past POINT's length), and the
        # image of each monomial and each base factor met so far
        self._point = POINT[:k] if k <= len(POINT) else None
        self._mono_images: dict = {}
        self._factor_images: list = []
        self._mono_texts: dict = {}  # monomial -> its text in str()

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
            num = {0: value.numerator} if value else {}
            return Scalar(self, num, (value.denominator, ()), 0)
        raise TypeError("cannot make a Scalar from %r" % (value,))

    def parse(self, text: str) -> "Scalar":
        return _Parser(self, text).parse()


def _mismatch(ctx, other):
    return ContextMismatch(
        "cannot mix scalars of two Context objects, over %s and %s" % (ctx.params, other.params)
    )


class Scalar:
    """One element of QQ(params).  Immutable; all arithmetic is exact.

    bound is at least the largest |exponent| in num (module docstring)."""

    __slots__ = ("ctx", "num", "split", "bound", "_keyc", "_identc")

    def __init__(self, ctx: Context, num: dict, split: tuple, bound: int):
        self.ctx = ctx
        self.num = num
        self.split = split
        self.bound = bound
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
    #
    # An operand that is a Scalar of the same Context skips _coerce.

    def __add__(self, other):
        if type(other) is not Scalar or other.ctx is not self.ctx:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return _add(self.ctx, self, other)

    def __neg__(self):
        return Scalar(self.ctx, {e: -v for e, v in self.num.items()}, self.split, self.bound)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return _add(self.ctx, self, -o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        ctx = self.ctx
        if type(other) is not Scalar or other.ctx is not ctx:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        # stored elements are canonical, so a unit or zero factor needs no cancel
        if not other.num or self.is_one():
            return other
        if not self.num or other.is_one():
            return self
        memo = ctx._products
        if memo is None:
            return _mul(ctx, self, other)
        key = (_ident(self), _ident(other))
        out = memo.get(key)
        if out is None:
            out = memo[key] = _mul(ctx, self, other)
        return out

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.is_zero():
            raise DivisionByZero("division by zero scalar")
        inverse = _inverse(self.ctx, o)
        return _mul(self.ctx, self, inverse) if self.num else self.ctx.zero

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
        shift = ctx._shifts[ctx.params.index(name)]
        numer, denom = _fraction(ctx, self)
        # P(a/b) / Q(a/b) = P~ / Q~ with X~ = b^d X(a/b), d the larger degree
        d = max(e >> shift & _FIELD for poly in (numer, denom) for e in poly)
        if d == 0:  # the scalar does not contain the parameter
            return self
        a, b = _fraction(ctx, val)
        a_pows, b_pows = _powers(ctx, a, d), _powers(ctx, b, d)
        num, den = (_compose(ctx, poly, shift, a_pows, b_pows) for poly in (numer, denom))
        if not den:
            raise DenominatorVanishes(
                "substituting %s = %s makes a denominator vanish" % (name, val), param=name
            )
        return _canonical(ctx, num, den)

    # -- canonical text --------------------------------------------------

    def __str__(self):
        if self._keyc is None:  # the text, written once
            ctx = self.ctx
            m = -_common(ctx, self.num, 0)  # x^m (module docstring)
            den = _den(ctx, self.split)
            try:
                if not m and len(den) == 1:  # the constant denominator c
                    self._keyc = _poly_str(ctx, self.num, 0, den[0])
                else:
                    lead = den[max(den)]
                    num, den = (_poly_str(ctx, p, m, lead) for p in (self.num, den))
                    self._keyc = "(%s)/(%s)" % (num, den)
            except ValueError:  # an int longer than str() converts
                raise NumberTooLong("a coefficient has too many digits to print") from None
        return self._keyc

    def __repr__(self):
        return "Scalar(%s)" % self


# -- monomials and polynomials ----------------------------------------------
#
# A polynomial is a dict {packed monomial: nonzero int}, its exponents
# signed.  No function here changes a dict it was given, so the kernel can
# share them.


def _mono(exps):
    """The packed monomial of an exponent tuple in parameter order."""
    out = sum(exps)
    for e in exps:
        out = (out << 64) + e
    return out


def _exps(ctx, e):
    """The exponent tuple, in parameter order, of the packed monomial e."""
    e += ctx._high
    return tuple((e >> s & _FIELD) - _SIGN for s in ctx._shifts)


def _limit(deg):
    """ExponentTooLarge when the total degree deg of a polynomial the
    kernel formed or is about to form reaches 2^62."""
    if deg >= _LIMIT:
        raise ExponentTooLarge("exponent too large")


def _mdiv(ctx, a, b):
    """The monomial a / b, or None when b does not divide a, for monomials
    with no negative exponent."""
    g = ctx._guard
    d = (a | g) - b
    return d ^ g if d & g == g else None


def _common(ctx, poly, m):
    """The greatest monomial dividing m and every monomial of poly (or of
    any iterable of monomials): their least exponent per parameter.

    A field's least value is not 0 only when it is positive in all of them
    or negative in one; the guard bits (module docstring) give those
    parameters, and only their fields are read.
    """
    ones, high = ctx._ones, ctx._high
    positive = (m + ones) & high
    signs = m + high
    for e in poly:
        positive &= e + ones
        signs &= e + high
    mask = (positive | ~signs) & high
    if not mask:
        return 0
    biased = [e + high for e in poly]
    biased.append(m + high)
    out = deg = 0
    for s in ctx._shifts:
        if mask >> (s + 63) & 1:
            k = min([b >> s & _FIELD for b in biased]) - _SIGN
            out += k << s
            deg += k
    return out + (deg << ctx._dshift)


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
    if not m and c == 1:
        return a
    return {e + m: v * c for e, v in a.items()}


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
            e = ea + eb
            out[e] = get(e, 0) + va * vb
    return {e: v for e, v in out.items() if v}


def _ppow(a, n):
    """a^n for n > 0: a closed form for one term, repeated squaring
    otherwise.  The caller checks the exponent limit first."""
    if len(a) == 1:
        ((m, c),) = a.items()
        return {m * n: c ** n}
    out = None
    while True:
        if n & 1:
            out = a if out is None else _pmul(out, a)
        n >>= 1
        if not n:
            return out
        a = _pmul(a, a)


def _powers(ctx, poly, d):
    """[1, poly, ..., poly^d] for a polynomial with no negative exponent."""
    if poly:
        _limit((max(poly) >> ctx._dshift) * d)
    out = [ctx.one.num]
    for _ in range(d):
        out.append(_pmul(out[-1], poly))
    return out


def _compose(ctx, poly, shift, a_pows, b_pows):
    """sum c * rest * a^e * b^(d - e) over the terms c * rest * x^e of poly,
    x the parameter whose field is at shift."""
    d = len(a_pows) - 1
    by_exp = {}
    for mono, coeff in poly.items():
        e = mono >> shift & _FIELD
        by_exp.setdefault(e, {})[mono - (e << shift) - (e << ctx._dshift)] = coeff
    out = {}
    for e, part in by_exp.items():
        if a_pows[e]:
            out = _padd(out, _pmul(_pmul(part, a_pows[e]), b_pows[d - e]))
    return out


def _eval(ctx, poly, point):
    """poly at point, mod PRIME."""
    out = 0
    for e, c in poly.items():
        for a, k in zip(point, _exps(ctx, e)):
            if k:
                c = c * pow(a, k, PRIME) % PRIME
        out += c
    return out % PRIME


# -- the field kernel -----------------------------------------------------
#
# The kernel takes canonical Scalars of one Context and returns canonical
# Scalars of it.


def _ident(s):
    """s's numerator and split as one hashable key, kept on s."""
    if s._identc is None:
        s._identc = (frozenset(s.num.items()), s.split)
    return s._identc


def _fraction(ctx, s):
    """The numerator and denominator of s as coprime polynomials,
    N x^m and c x^m prod f_i^k_i (module docstring)."""
    neg = _common(ctx, s.num, 0)  # x^-m
    den = _den(ctx, s.split)
    if not neg:
        return s.num, den
    return _pterm(s.num, -neg, 1), _pterm(den, -neg, 1)


def _split(ctx, den):
    """(x^m, split) for a polynomial den with positive leading coefficient:
    den = x^m times the split's denominator.  A new multi-term den is
    factored once per Context."""
    if len(den) == 1:
        ((m, c),) = den.items()
        return m, (c, ())
    key = frozenset(den.items())
    out = ctx._splits.get(key)
    if out is None:
        c, m, ks = _factor(ctx, den)
        out = ctx._splits[key] = m, (c, ks)
    return out


def _factor(ctx, den):
    """(c, m, ks), the split of den with its monomial content x^m, for den
    with no negative exponent, at least two terms and a positive leading
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
    m = _common(ctx, den, next(iter(den)))
    f = {e - m: v // c for e, v in den.items()}
    pairs = _small_factors(ctx, f)
    if pairs is None:
        from sympy import ZZ
        from sympy.polys.orderings import grlex
        from sympy.polys.rings import PolyRing

        ring = PolyRing(ctx.params, ZZ, grlex)
        _, found = ring.from_dict({_exps(ctx, e): v for e, v in f.items()}).factor_list()
        pairs = []
        for g, k in found:
            g = {_mono(e): int(v) for e, v in g.items()}
            if g[max(g)] < 0:
                g = {e: -v for e, v in g.items()}
            pairs.append((g, k))
    ks = {}
    for g, k in pairs:
        i = _factor_id(ctx, g)
        ks[i] = ks.get(i, 0) + k
    return c, m, tuple(sorted(ks.items()))


def _small_factors(ctx, f):
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
    exps = {e: _exps(ctx, e) for e in f}
    degrees = tuple(map(max, *exps.values()))
    for i, d in enumerate(degrees):
        if d == 1:
            xs = [e for e, t in exps.items() if t[i]]
            if len(xs) == 1 and xs[0] >> ctx._dshift == 1 or len(f) - len(xs) == 1 and 0 in f:
                return [(f, 1)]
    support = [i for i, d in enumerate(degrees) if d]
    if len(support) != 1 or degrees[support[0]] != 2:
        return None
    x1 = 1 << ctx._dshift | 1 << ctx._shifts[support[0]]
    x2 = 2 * x1
    a, b, c = f[x2], f.get(x1, 0), f[0]
    disc = b * b - 4 * a * c
    if disc < 0 or isqrt(disc) ** 2 != disc:
        return [(f, 1)]
    root = isqrt(disc)
    linear = []
    for s in {root, -root}:
        r = Fraction(-b + s, 2 * a)
        linear.append(({x1: r.denominator, 0: -r.numerator}, 2 if s == 0 else 1))
    return linear


def _factor_id(ctx, f):
    """The index of the base factor f, which joins the base if it is new."""
    key = frozenset(f.items())
    i = ctx._factor_ids.get(key)
    if i is None:
        i = ctx._factor_ids[key] = len(ctx._factors)
        top = max(f)
        ctx._factors.append((f, top, min(f), top >> ctx._dshift, _root_point(ctx, f)))
    return i


def _root_point(ctx, f):
    """A point mod PRIME where f vanishes, when f has degree 1 in some
    parameter x: x at the root of f = a x + b with the other parameters at
    POINT, for the first such x where a is not 0 there; else None."""
    if ctx._point is None:
        return None
    for i, s in enumerate(ctx._shifts):
        x = 1 << ctx._dshift | 1 << s
        a = {e - x: c for e, c in f.items() if e >> s & _FIELD}
        if a and all(e >> s & _FIELD < 2 for e in f):
            a = _poly_image(ctx, a)
            if a:
                b = _poly_image(ctx, {e: c for e, c in f.items() if not e >> s & _FIELD})
                return ctx._point[:i] + (-b * pow(a, -1, PRIME) % PRIME,) + ctx._point[i + 1:]
    return None


def _fdeg(ctx, ks):
    """The total degree of prod f_i^k_i."""
    if not ks:
        return 0
    factors = ctx._factors
    return sum(k * factors[i][3] for i, k in ks)


def _den(ctx, split):
    """The polynomial of a split, kept on the Context when it has factors."""
    c, ks = split
    if not ks:
        return {0: c}
    den = ctx._dens.get(split)
    if den is None:
        den = {0: c}
        for i, k in ks:
            den = _pmul(den, _ppow(ctx._factors[i][0], k))
        ctx._dens[split] = den
        ctx._splits[frozenset(den.items())] = 0, split
    return den


def _merge(kx, ky, op):
    """Two factor exponent lists as one, op combining the shared entries."""
    if not kx or not ky:
        return kx or ky
    out = dict(kx)
    for i, k in ky:
        out[i] = op(out.get(i, 0), k)
    return tuple(sorted(out.items()))


def _exquo(ctx, num, factor):
    """num / f when f divides num in ZZ[params^±1], else None.

    f is irreducible and not a monomial, so it is coprime to every
    monomial: num's monomial content x^low comes out first and goes back
    onto the quotient, which leaves a polynomial with no monomial factor.
    When f has a root point (_root_point), a nonzero value of that
    polynomial there proves that f does not divide it.  Otherwise long
    division on leading terms decides, stopped at the first that the
    leading term of f does not divide (see the module docstring).  The
    order is multiplicative, so f can divide num only if the trailing term
    of f divides that of num, which is checked first.  The leading and
    trailing terms of f were found once, when f joined the factor base.
    The remainder's monomials are kept sorted: a step cancels the leading
    term and changes only smaller ones, so the largest left is the next
    leading term once the monomials of cancelled terms are skipped.
    """
    f, lead, trail, _, root = factor
    bottom = min(num)
    low = _common(ctx, num, bottom)
    if low:
        num, bottom = {e - low: v for e, v in num.items()}, bottom - low
    if _mdiv(ctx, bottom, trail) is None or num[bottom] % f[trail]:
        return None
    # the probe costs a pow() per term and parameter; the division can take
    # steps in proportion to the degree, so it runs the probe only when the
    # degree passes the number of terms
    if root is not None and max(num) >> ctx._dshift > len(num) and _eval(ctx, num, root):
        return None
    top_c = f[lead]
    rest, quo = dict(num), {}
    keys = sorted(rest)
    while keys:
        top = keys.pop()
        if top not in rest:
            continue
        m = _mdiv(ctx, top, lead)
        if m is None or rest[top] % top_c:
            return None
        c = quo[m] = rest[top] // top_c
        for e, v in f.items():
            e += m
            old = rest.get(e)
            if old is None:
                rest[e] = -c * v
                insort(keys, e)
            elif old != c * v:
                rest[e] = old - c * v
            else:
                del rest[e]
    return {e + low: v for e, v in quo.items()} if low else quo


def _divide_out(ctx, num, ks, tries):
    """Divide num by each factor f_i of ks with i in tries while it divides,
    at most k_i times; return num and ks less the factors divided out."""
    left = []
    for i, k in ks:
        if num and i in tries:
            factor = ctx._factors[i]
            while k:
                quo = _exquo(ctx, num, factor)
                if quo is None:
                    break
                num, k = quo, k - 1
        if k:
            left.append((i, k))
    return num, tuple(left)


def _limited(ctx, num, ks, bound, n=1):
    """A bound for (num / (c prod f_i^k_i))^n, num nonzero, after the
    exponent limit is checked (module docstring): n bound when that and
    the factor part are small, else n times num's largest |exponent|, with
    ExponentTooLarge when N^n x^mn or the denominator reaches degree 2^62."""
    fdeg = _fdeg(ctx, ks)
    if bound * n < ctx._safe and fdeg * n < _LIMIT // 2:
        return bound * n
    neg = _common(ctx, num, 0)  # x^-m
    high, dshift = ctx._high, ctx._dshift
    numdeg, mdeg = (max(num) - neg + high) >> dshift, (high - neg) >> dshift
    _limit(max(numdeg, mdeg + fdeg) * n)
    top = _common(ctx, [-e for e in num], 0)  # minus the largest positive exponents
    return max(_exps(ctx, -neg) + _exps(ctx, -top)) * n


def _reduce(ctx, num, c, ks, bound):
    """num / (c prod f_i^k_i) in canonical form, when no f_i divides num:
    what is left to share is the gcd of num's content and c.  bound is one
    for num; the exponent limit is checked here."""
    if not num:
        return ctx.zero
    if c != 1:
        g = gcd(c, *num.values())
        if g != 1:
            num = {e: v // g for e, v in num.items()}
            c //= g
    if ks or bound >= ctx._safe:
        bound = _limited(ctx, num, ks, bound)
    return Scalar(ctx, num, (c, ks) if c != 1 or ks else ctx._unit, bound)


def _canonical(ctx, num, den):
    """num / den in canonical form, for polynomials with no negative
    exponent and den nonzero."""
    # every field of num and of den is at most its degree
    bound = max(max(num, default=0), max(den)) >> ctx._dshift
    _limit(bound)
    if den[max(den)] < 0:
        num, den = {e: -v for e, v in num.items()}, {e: -v for e, v in den.items()}
    m, (c, ks) = _split(ctx, den)
    num, ks = _divide_out(ctx, num, ks, {i for i, _ in ks})
    return _reduce(ctx, _pterm(num, -m, 1), c, ks, bound)


def _mul(ctx, x, y):
    """x * y for nonzero canonical x and y."""
    cx, kx = x.split
    cy, ky = y.split
    nx, ny = x.num, y.num
    if kx or ky:
        # each numerator is coprime to its own denominator, so it can share
        # only the factors that the other denominator has alone
        ix, iy = {i for i, _ in kx}, {i for i, _ in ky}
        nx, ky = _divide_out(ctx, nx, ky, iy - ix)
        ny, kx = _divide_out(ctx, ny, kx, ix - iy)
        ks = _merge(kx, ky, add)
    else:
        ks = ()
    return _reduce(ctx, _pmul(nx, ny), cx * cy, ks, x.bound + y.bound)


def _add(ctx, x, y):
    """x + y for canonical x and y."""
    if not x.num:
        return y
    if not y.num:
        return x
    if x.split == y.split:
        c, ks = x.split
        num = _padd(x.num, y.num)
        if ks:
            num, ks = _divide_out(ctx, num, ks, {i for i, _ in ks})
        return _reduce(ctx, num, c, ks, max(x.bound, y.bound))
    cx, kx = x.split
    cy, ky = y.split
    c = lcm(cx, cy)
    if not kx and not ky:
        num = _padd(_pterm(x.num, 0, c // cx), _pterm(y.num, 0, c // cy))
        return _reduce(ctx, num, c, (), max(x.bound, y.bound))
    ks = _merge(kx, ky, max)
    lx, ly = _less(ks, kx), _less(ks, ky)
    num = _padd(_scale(ctx, x.num, c // cx, lx), _scale(ctx, y.num, c // cy, ly))
    # a factor with more weight in one denominator divides one summand and
    # not the other, so only factors of equal weight can divide the sum
    num, ks = _divide_out(ctx, num, ks, {i for i, _ in set(kx) & set(ky)})
    bound = max(x.bound + _fdeg(ctx, lx), y.bound + _fdeg(ctx, ly))
    return _reduce(ctx, num, c, ks, bound)


def _less(ks, kx):
    """The exponents of ks minus those of kx, which ks dominates."""
    have = dict(kx)
    return tuple((i, k - have.get(i, 0)) for i, k in ks if k > have.get(i, 0))


def _scale(ctx, num, c, ks):
    """num * c prod f_i^k_i."""
    if ks:
        return _pmul(num, _den(ctx, (c, ks)))
    return _pterm(num, 0, c)


def _inverse(ctx, x):
    """1 / x for nonzero canonical x: swap, with x's monomial content moved
    into the new numerator, then make the leading coefficient positive."""
    den = x.num
    # num's fields are those of the old denominator, less low's
    bound = x.bound + _fdeg(ctx, x.split[1])
    if len(den) == 1:  # a unit times an integer
        ((low, v),) = den.items()
        num = _pterm(_den(ctx, x.split), -low, 1 if v > 0 else -1)
        return Scalar(ctx, num, (abs(v), ()) if v not in (1, -1) else ctx._unit, bound)
    low = _common(ctx, den, next(iter(den)))
    num = _pterm(_den(ctx, x.split), -low, 1)
    den = _pterm(den, -low, 1)
    if den[max(den)] < 0:
        num, den = {e: -v for e, v in num.items()}, {e: -v for e, v in den.items()}
    _, split = _split(ctx, den)  # den has no monomial content
    return Scalar(ctx, num, split, bound)


def _power(x, n):
    """x^n for n > 0: a power of a coprime pair is coprime.  The limit is
    checked before anything is formed."""
    if not x.num:
        return x
    ctx = x.ctx
    c, ks = x.split
    bound = _limited(ctx, x.num, ks, x.bound, n)
    return Scalar(ctx, _ppow(x.num, n), (c ** n, tuple((i, k * n) for i, k in ks)), bound)


# -- the modular image ------------------------------------------------------


def mod_image(s):
    """s at the Context's point, as an int in [0, PRIME), or None when the
    denominator of s vanishes there or the Context has no point."""
    ctx = s.ctx
    if ctx._point is None:
        return None
    c, ks = s.split
    den = c
    images = ctx._factor_images
    for i, k in ks:
        while len(images) <= i:  # factors that joined the base since the last image
            images.append(_poly_image(ctx, ctx._factors[len(images)][0]))
        den = den * pow(images[i], k, PRIME)
    den %= PRIME
    if not den:
        return None
    return _poly_image(ctx, s.num) * pow(den, -1, PRIME) % PRIME


def _mono_image(ctx, e):
    """The monomial e at the Context's point, mod PRIME, kept on the
    Context; a negative exponent is a power of the coordinate's inverse."""
    out = ctx._mono_images.get(e)
    if out is None:
        out = 1
        for a, k in zip(ctx._point, _exps(ctx, e)):
            if k:
                out = out * pow(a, k, PRIME) % PRIME
        ctx._mono_images[e] = out
    return out


def _poly_image(ctx, poly):
    """The polynomial poly at the Context's point, mod PRIME."""
    return sum(c * _mono_image(ctx, e) for e, c in poly.items()) % PRIME


def _poly_str(ctx, poly, m, lead):
    """poly x^m / lead as text, its terms in descending graded-lex order."""
    if not poly:
        return "0"
    texts = ctx._mono_texts
    out = ""
    for e in sorted(poly, reverse=True):
        c = poly[e] if lead == 1 else Fraction(poly[e], lead)
        e += m
        mono = texts.get(e)
        if mono is None:
            pairs = zip(ctx.params, _exps(ctx, e))
            mono = texts[e] = "*".join(n if k == 1 else "%s^%d" % (n, k) for n, k in pairs if k)
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
            raise ExpressionSyntax("trailing input %s" % excerpt(str(val)), pos=pos)
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
                    "unknown parameter %s (declared: %s)"
                    % (excerpt(val), ", ".join(self.ctx.params))
                )
            return self.ctx.gen(val)
        if kind == "op" and val == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ExpressionSyntax("expected a value", pos=pos)
