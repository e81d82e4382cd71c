"""The packed Laurent scalar kernel against the tuple-exponent kernel.

tests/conftest.py keeps the kernel that stored each monomial as a tuple of
exponents and kept the monomial part of a denominator there (TupleContext,
TupleScalar).  Scalars over one to four parameters, with Laurent and
factor-base denominators and exponents up to just below the limit of total
degree 2^62, go through +, -, *, /, **, substitute, str and mod_image in
both kernels.  Each result, written out as two polynomials
(scalars._fraction), must equal the reference's and print the same text.
A result whose numerator or denominator has degree 2^62 or more must raise
ExponentTooLarge in the packed kernel instead, and nothing else may; a
substitution, which checks the powers of the value before it cancels,
may raise only when the operands' degrees can reach the limit.  Laurent
scalars with negative exponents in every term, monomials that cancel
across operands and results on both sides of the exponent bound's
threshold (Context._safe) are drawn on their own.  The remainder probe
that _exquo runs before a long division is checked against the tuple
kernel's division, and the least exponents that str reads (scalars._low)
against _common.
"""

import re
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    TupleContext,
    tk_den,
    tk_exquo,
    tk_grlex,
    tk_mod_image,
    tuple_scalar,
    unpacked,
)
from ncorep import scalars
from ncorep.errors import DenominatorVanishes, ExponentTooLarge
from ncorep.modp import has_remainder
from ncorep.scalars import POINT, Context, _fraction, mod_image

LIMIT = 2 ** 62
NAMES = ("p", "q", "r", "s")
CONTEXTS = {n: (Context(NAMES[:n]), TupleContext(NAMES[:n])) for n in range(1, 5)}
# factor-base denominators, each over the first parameters it names
FACTORS = ("p - 1", "p^2 + 1", "q + 1", "p*q - 2", "q^2 - 3*r", "s + p + 1", "2*q - 1")

bounded = settings(max_examples=150, deadline=None, database=None)


def exponent(small_only=False):
    """A small exponent, or one near a fraction of the limit: the other
    exponents of a monomial are at most 3, so the total stays below it."""
    small = st.integers(0, 3)
    if small_only:
        return small
    near = st.sampled_from((LIMIT - 64, LIMIT // 2, LIMIT // 2 + 4, LIMIT // 3))
    return st.one_of(small, st.builds(lambda b, k: b - k, near, small))


@st.composite
def monomials(draw, n, large):
    """A monomial text, with at most one large exponent when large."""
    big = draw(st.integers(0, n - 1)) if large else -1
    exps = [draw(exponent(small_only=i != big)) for i in range(n)]
    return "*".join("%s^%d" % (name, e) for name, e in zip(NAMES, exps)) or "1"


@st.composite
def scalar_texts(draw, n, large):
    """(monomial * poly)/(c * monomial * factors) over the first n
    parameters, poly of small degree.  Large exponents sit in the monomials
    and come with no factor base: a factor with a constant term, such as
    p - 1, divides p^k by k steps of long division in either kernel."""
    coefficients = st.integers(-5, 5).filter(bool)
    terms = draw(st.lists(st.tuples(coefficients, monomials(n, False)), max_size=3))
    poly = " + ".join("(%d)*%s" % t for t in terms) or "0"
    num = "%s*(%s)" % (draw(monomials(n, large)), poly)
    den = "%d*%s" % (draw(st.sampled_from((1, 1, 2, 3, 6))), draw(monomials(n, large)))
    usable = [f for f in FACTORS if all(x not in f for x in NAMES[n:])]
    if usable and not large:
        for f in draw(st.lists(st.sampled_from(usable), max_size=2)):
            den += "*(%s)^%d" % (f, draw(st.integers(1, 2)))
    return "(%s)/(%s)" % (num, den)


@st.composite
def cases(draw):
    n, large = draw(st.integers(1, 4)), draw(st.booleans())
    return n, large, draw(scalar_texts(n, large)), draw(scalar_texts(n, large))


def degree(poly):
    return max((sum(e) for e in poly), default=0)


def size(t):
    """The degree of numerator and denominator together: no operation forms
    a monomial of more than the sum of its operands' sizes."""
    return degree(t.num) + degree(tk_den(t.ctx, t.split))


def too_large(t):
    return max(degree(t.num), degree(tk_den(t.ctx, t.split))) >= LIMIT


def assert_same(r, t):
    """The packed r, unpacked, is the reference t."""
    ctx = r.ctx
    num, den = _fraction(ctx, r)
    assert unpacked(ctx, num) == t.num
    assert unpacked(ctx, den) == tk_den(t.ctx, t.split)
    assert str(r) == str(t)
    assert mod_image(r) == tk_mod_image(t)


def check(packed, reference, bound=None):
    """packed() is reference(), and raises ExponentTooLarge exactly when
    the reference's result reaches the limit; with a bound, it may also
    raise when the operands' sizes reach the limit."""
    try:
        t = reference()
    except DenominatorVanishes:
        with pytest.raises((DenominatorVanishes, ExponentTooLarge)):
            packed()
        return
    try:
        r = packed()
    except ExponentTooLarge as err:
        assert str(err) == "exponent too large"
        assert too_large(t) or bound is not None and bound >= LIMIT
        return
    assert not too_large(t)
    assert_same(r, t)


@bounded
@given(cases(), st.integers(-3, 3), st.data())
def test_packed_kernel_matches_the_tuple_kernel(case, k, data):
    n, large, ta, tb = case
    ctx, tctx = CONTEXTS[n]
    try:
        a, b = ctx.parse(ta), ctx.parse(tb)
    except ExponentTooLarge:  # the draw keeps every input below the limit
        raise AssertionError("an input reached the limit: %s, %s" % (ta, tb))
    ra, rb = tuple_scalar(tctx, a), tuple_scalar(tctx, b)
    assert_same(a, ra)
    assert_same(b, rb)
    check(lambda: a + b, lambda: ra + rb)
    check(lambda: a - b, lambda: ra - rb)
    check(lambda: a * b, lambda: ra * rb)
    # with large exponents, only by a monomial (see scalar_texts)
    if len(b.num) == 1 or b.num and not large:
        check(lambda: a / b, lambda: ra / rb)
    if k >= 0 or not a.is_zero():
        check(lambda: a ** k, lambda: ra ** k)
    name = data.draw(st.sampled_from(NAMES[:n]))
    i = ctx.params.index(name)
    d = max(e[i] for poly in (ra.num, tk_den(tctx, ra.split)) for e in poly)
    assume(d <= 6)  # b^d X(a/b) expands d powers of the value
    if not large and data.draw(st.booleans()):
        value, rvalue = b, rb
    else:
        # in the parameter itself, so that no factor meets a large exponent
        value = ctx.parse("2*%s - 3" % name)
        rvalue = tuple_scalar(tctx, value)
    check(
        lambda: a.substitute([(name, value)]),
        lambda: ra.substitute(name, rvalue),
        size(ra) + d * size(rvalue),
    )


def test_int_order_is_graded_lex_order():
    ctx = Context(["p", "q", "r"])
    monos = [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (0, 0, 2), (0, 1, 1), (1, 0, 1), (2, 0, 0)]
    packed = [scalars._mono(e) for e in monos]
    assert packed == sorted(packed)
    assert [scalars._exps(ctx, m) for m in packed] == monos
    assert scalars._mono((0, 0, 0)) == 0
    assert ctx.one.split == (1, ())


def test_monomial_division_detects_a_borrow():
    ctx = Context(["p", "q"])
    pq2, p2q = (scalars._mono(e) for e in ((1, 2), (2, 1)))
    assert scalars._mdiv(ctx, pq2, scalars._mono((1, 1))) == scalars._mono((0, 1))
    # same degree, but p^2 q does not divide p q^2: the p field borrows
    assert scalars._mdiv(ctx, pq2, p2q) is None
    assert scalars._mdiv(ctx, p2q, pq2) is None
    assert scalars._mdiv(ctx, pq2, 0) == pq2


def test_common_monomial_reads_only_shared_parameters():
    ctx = Context(["p", "q", "r"])
    m = scalars._mono
    poly = {m((2, 5, 0)): 1, m((3, 1, 1)): -2}
    assert scalars._common(ctx, poly, m((4, 2, 3))) == m((2, 1, 0))
    assert scalars._common(ctx, poly, m((0, 0, 7))) == 0
    # a field negative in one monomial is read too; str no longer calls
    # _common, so this is checked here
    assert scalars._common(ctx, {m((-1, 2, 0)): 1, m((1, -3, 0)): 4}, 0) == m((-1, -3, 0))
    # a cancelled monomial leaves the canonical form
    assert str(ctx.parse("(p^2*q^5 - 2*p^3*q*r)/(p^4*q^2*r^3)")) == "(q^4 - 2*p*r)/(p^2*q*r^3)"


def test_exponent_limit():
    ctx = Context(["p", "q"])
    below = ctx.parse("p^%d" % (LIMIT - 1))
    assert str(below) == "p^%d" % (LIMIT - 1)
    for text in (
        "p^%d" % LIMIT, "p^-%d" % LIMIT, "p^%d*q" % (LIMIT - 1), "(p + q)^%d" % LIMIT,
        "1/p^%d + 1/q" % (LIMIT - 1), "(p^2 + 1)^%d" % (LIMIT // 2), "1/(p + 1)^%d" % LIMIT,
    ):
        with pytest.raises(ExponentTooLarge, match="^exponent too large$"):
            ctx.parse(text)
    with pytest.raises(ExponentTooLarge):
        below * ctx.gen("q")
    with pytest.raises(ExponentTooLarge):
        ctx.parse("q^2").substitute([("q", ctx.parse("p^%d" % (LIMIT // 2)))])
    assert (below / below).is_one()


# p^k over p - 1: a product; a sum over two such denominators whose numerator
# p^k (1 + p) p - 1 does not divide; and a difference whose numerator
# p^k (1 - p) it divides, to -p^k
CONTENT_CASES = {
    "product": lambda p, one, k: p ** k * (one / (p - one)),
    "sum": lambda p, one, k: p ** k / (p - one) + p ** (k + 1) / (p - one),
    "difference": lambda p, one, k: p ** k / (p - one) - p ** (k + 1) / (p - one),
}


@pytest.mark.parametrize("case", sorted(CONTENT_CASES))
def test_monomial_content_leaves_before_the_long_division(case):
    # p - 1 is coprime to every monomial, so it divides the numerator without
    # its monomial content, which goes back onto the quotient: the division
    # no longer takes a step per power of p.  The tuple reference still does,
    # so it is read at k = 1000, and the packed result at k = 10^6 must be
    # its text with the exponent raised.
    ctx, tctx = CONTEXTS[1]
    build = CONTENT_CASES[case]
    small = build(ctx.gen("p"), ctx.one, 1000)
    reference = build(tuple_scalar(tctx, ctx.gen("p")), tctx.one, 1000)
    assert_same(small, reference)
    start = time.perf_counter()
    big = build(ctx.gen("p"), ctx.one, 10 ** 6)
    assert time.perf_counter() - start < 0.1
    assert str(big) == re.sub(r"\^100(?=[01]\b)", "^100000", str(reference))


def laurent_monomial(names, exps):
    return "*".join("%s^%d" % (name, e) for name, e in zip(names, exps)) or "1"


@st.composite
def laurent_texts(draw, n):
    """A nonzero sum of one to three terms c x^e over the first n
    parameters, exponents in -3..3, so each term brings its own monomial
    part, over an optional integer and factor-base denominator."""
    coefficients = st.integers(-6, 6).filter(bool)
    exps = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    # distinct monomials, so the terms never cancel and the scalar is nonzero
    terms = draw(st.lists(
        st.tuples(coefficients, exps), min_size=1, max_size=3, unique_by=lambda t: tuple(t[1])
    ))
    text = " + ".join("(%d)*%s" % (c, laurent_monomial(NAMES, e)) for c, e in terms)
    den = "%d" % draw(st.sampled_from((1, 1, 2, 3)))
    usable = [f for f in FACTORS if all(x not in f for x in NAMES[n:])]
    if usable and draw(st.booleans()):
        den += "*(%s)" % draw(st.sampled_from(usable))
    return "(%s)/(%s)" % (text, den)


@st.composite
def laurent_cases(draw):
    n = draw(st.integers(1, 4))
    exps = st.lists(st.integers(-4, 4), min_size=n, max_size=n)
    return n, draw(laurent_texts(n)), draw(laurent_texts(n)), draw(exps)


@bounded
@given(laurent_cases(), st.data())
def test_laurent_scalars_match_the_tuple_kernel(case, data):
    n, ta, tb, exps = case
    ctx, tctx = CONTEXTS[n]
    a, b = ctx.parse(ta), ctx.parse(tb)
    ra, rb = tuple_scalar(tctx, a), tuple_scalar(tctx, b)
    assert_same(a, ra)
    assert_same(b, rb)
    # a monomial, which cancels part of an operand's monomial part or adds
    # to it, and the whole monomial part of a's denominator, which cancels
    mono = ctx.parse(laurent_monomial(NAMES, exps))
    whole = ctx.parse(laurent_monomial(NAMES, ra.split[1]))
    for x, rx in ((a, ra), (b, rb)):
        for m in (mono, whole):
            rm = tuple_scalar(tctx, m)
            check(lambda: x * m, lambda: rx * rm)
            check(lambda: x / m, lambda: rx / rm)
    assert (a * whole).split == a.split
    # sums and products over different monomial denominators
    check(lambda: a + b, lambda: ra + rb)
    check(lambda: a - b, lambda: ra - rb)
    check(lambda: a * b, lambda: ra * rb)
    check(lambda: a / b, lambda: ra / rb)
    check(lambda: b ** -2, lambda: rb ** -2)
    # substitution of a Laurent value into a Laurent scalar
    name = data.draw(st.sampled_from(NAMES[:n]))
    value = data.draw(st.sampled_from((b, mono, ctx.parse("%s^-1 - 2" % name))))
    check(lambda: a.substitute([(name, value)]), lambda: ra.substitute(name, tuple_scalar(tctx, value)))


# one Context per parameter count, for the threshold cases below; 9 is past
# the length of POINT, so no modular image exists there
WIDE = {n: (Context(["x%d" % i for i in range(n)]), TupleContext(["x%d" % i for i in range(n)]))
        for n in (1, 2, 3, 4, 9)}


@pytest.mark.parametrize("n", sorted(WIDE))
def test_exponent_limit_on_both_sides_of_the_bound_threshold(n):
    # X + 1/X with all n exponents of X at b has bound b and degree 2 n b;
    # its square has bound 2 b and degree 4 n b.  Below _safe = 2^62 // 2n
    # no exact degree is computed; from it on, the result raises exactly
    # when the reference reaches the limit.
    ctx, tctx = WIDE[n]
    safe = LIMIT // (2 * n)
    assert ctx._safe == safe
    for b in (safe // 2 - 1, safe // 2, safe - 1, safe, safe + 1):
        x = ctx.parse("*".join("%s^%d" % (name, b) for name in ctx.params))
        rx = tuple_scalar(tctx, x)
        if too_large(rx):  # x alone reaches the limit only for large n
            continue
        rs = rx + tctx.one / rx
        check(lambda: x + 1 / x, lambda: rs)
        if too_large(rs):
            continue
        s = x + 1 / x
        check(lambda: s * s, lambda: rs * rs)
        check(lambda: s * x, lambda: rs * rx)
        check(lambda: s / x, lambda: rs / rx)


def test_a_large_power_over_a_linear_factor_is_decided_by_its_root():
    # p - 1 does not divide p^3000000000 + q: at p = 1 it is 1 + q, nonzero
    # at the point, so no step of the long division runs
    ctx, tctx = CONTEXTS[2]
    start = time.perf_counter()
    x = ctx.parse("(p^3000000000 + q)/(p - 1)")
    assert time.perf_counter() - start < 0.1
    assert str(x) == "(p^3000000000 + q)/(p - 1)"
    # p - 1 divides p^1000 - 1: the root proves nothing, the division runs
    p, one = ctx.gen("p"), ctx.one
    quotient = (p ** 1000 - one) / (p - one)
    rp = tuple_scalar(tctx, p)
    assert_same(quotient, (rp ** 1000 - tctx.one) / (rp - tctx.one))


def test_a_large_power_over_q_squared_plus_one_is_decided_by_its_remainder():
    # q^2 + 1 has no root mod PRIME; q^3000000000 + p mod q^2 + 1 in F_P[q]
    # is 1 + p at the point, so no step of the long division runs
    ctx, tctx = CONTEXTS[2]
    start = time.perf_counter()
    x = ctx.parse("(q^3000000000 + p)/(q^2 + 1)")
    assert time.perf_counter() - start < 0.1
    assert str(x) == "(q^3000000000 + p)/(q^2 + 1)"
    # q^2 + 1 divides q^1002 + q^1000 + p q^2 + p: the division runs
    q, p = ctx.gen("q"), ctx.gen("p")
    quotient = (q ** 1002 + q ** 1000 + p * q ** 2 + p) / (q ** 2 + 1)
    rq, rp = tuple_scalar(tctx, q), tuple_scalar(tctx, p)
    assert_same(quotient, (rq ** 1002 + rq ** 1000 + rp * rq ** 2 + rp) / (rq ** 2 + tctx.one))


# base factors for the remainder probe over (p, q); the last has degree 1 in
# p with leading coefficient q - C, which vanishes at the point, so the
# probe must reduce in q instead
PROBED = ("q^2 + 1", "p - 1", "p^2 + q + 1", "p*q - 2", "q^2 + p*q + 3", "(q - %d)*p + 1" % POINT[1])


@bounded
@given(
    st.sampled_from(PROBED),
    st.lists(st.tuples(st.integers(-3, 3).filter(bool), st.integers(0, 60), st.integers(0, 60)),
             min_size=1, max_size=3),
    st.booleans(),
)
def test_remainder_probe_matches_the_tuple_divisibility(text, terms, times):
    # a nonzero remainder of g mod f in F_P[x] proves that f does not divide
    # g; every multiple of f has remainder zero
    ctx, _ = CONTEXTS[2]
    ((i, _),) = ctx.parse("1/(%s)" % text).split[1]
    f, lead, trail, _, probe = ctx._factors[i]
    assert probe is not None
    if text.startswith("(q"):
        assert probe[0] == ctx._shifts[1]
    h = {}
    for c, a, b in terms:
        h = scalars._padd(h, {scalars._mono((a, b)): c})
    if not h:
        return
    g = scalars._pmul(f, h) if times else h
    tf = unpacked(ctx, f)
    ref = tk_exquo(unpacked(ctx, g), (tf, max(tf, key=tk_grlex), min(tf, key=tk_grlex)))
    rem = has_remainder(scalars._x_terms(ctx, g, probe[0]), probe[1])
    if times:
        assert ref is not None and not rem
    elif rem:
        assert ref is None


@bounded
@given(st.integers(1, 4), st.data())
def test_least_exponents_match_the_common_monomial(n, data):
    # the x^m of str() read off the kept exponent tuples is -_common(num, 0),
    # on Laurent numerators and the zero numerator
    ctx, _ = CONTEXTS[n]
    exps = st.lists(st.integers(-5, 5), min_size=n, max_size=n)
    terms = data.draw(st.lists(st.tuples(st.integers(-3, 3).filter(bool), exps), max_size=4))
    num = {}
    for c, e in terms:
        num = scalars._padd(num, {scalars._mono(e): c})
    assert scalars._low(ctx, num) == -scalars._common(ctx, num, 0)
