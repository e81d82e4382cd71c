"""The packed scalar kernel against the tuple-exponent kernel it replaced.

tests/conftest.py keeps the kernel that stored each monomial as a tuple of
exponents (TupleContext, TupleScalar).  Scalars over one to four
parameters, with Laurent and factor-base denominators and exponents up to
just below the limit of total degree 2^62, go through +, -, *, /, **,
substitute, str and mod_image in both kernels.  Each result, unpacked,
must equal the reference's and print the same text.  A result whose
numerator or denominator has degree 2^62 or more must raise
ExponentTooLarge in the packed kernel instead, and nothing else may; a
substitution, which checks the powers of the value before it cancels,
may raise only when the operands' degrees can reach the limit.
"""

import re
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import TupleContext, tk_den, tk_mod_image, tuple_scalar, unpacked
from ncorep import scalars
from ncorep.errors import DenominatorVanishes, ExponentTooLarge
from ncorep.scalars import Context, _den, mod_image

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
    assert unpacked(ctx, r.num) == t.num
    assert unpacked(ctx, _den(ctx, r.split)) == tk_den(t.ctx, t.split)
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
    assert ctx.one.split == (1, 0, ())


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
