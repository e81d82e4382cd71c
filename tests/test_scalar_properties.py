"""Property tests for the scalar layer against sympy's own cancel.

Random expression trees over q and p (with negative powers and rational
constants) are evaluated twice: as Scalars and as plain sympy expressions.
Trees over four parameters whose leaves share the factors p - 1, q^2 + 1,
1 - q and r - 1 check every operation of the field kernel against the same
operation in sympy's field, which cancels by a polynomial gcd.
"""

import operator
from fractions import Fraction

import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import named_key_str, sympy_element, unpacked
from ncorep.errors import DenominatorVanishes, DivisionByZero
from ncorep.scalars import POINT, PRIME, Context, _fraction, _ident, mod_image

CTX = Context(["q", "p"])
WIDE = Context(["p", "q", "r"])
FOUR = Context(["p", "q", "r", "s"])
SYMS = {n: sympy.Symbol(n) for n in ("p", "q", "r", "s")}

bounded = settings(max_examples=100, deadline=None, database=None)

constants = st.builds(
    Fraction, st.integers(-6, 6), st.integers(1, 4)
).map(lambda c: ("const", c))
leaves = st.one_of(st.sampled_from([("gen", "q"), ("gen", "p")]), constants)


def _extend(children):
    binary = st.tuples(st.sampled_from("+-*/"), children, children)
    power = st.tuples(st.just("^"), children, st.integers(-3, 3))
    return st.one_of(binary, power)


trees = st.recursive(leaves, _extend, max_leaves=6)


def evaluate(tree):
    """The tree as (Scalar in CTX, sympy expression)."""
    kind = tree[0]
    if kind == "gen":
        return CTX.gen(tree[1]), SYMS[tree[1]]
    if kind == "const":
        c = tree[1]
        return CTX.scalar(c), sympy.Rational(c.numerator, c.denominator)
    if kind == "^":
        base, expr = evaluate(tree[1])
        return base ** tree[2], expr ** tree[2]
    (a, x), (b, y) = evaluate(tree[1]), evaluate(tree[2])
    if kind == "+":
        return a + b, x + y
    if kind == "-":
        return a - b, x - y
    if kind == "*":
        return a * b, x * y
    return a / b, x / y


def scalar_of(tree):
    """evaluate(tree); a tree that divides by zero is rejected."""
    try:
        return evaluate(tree)
    except DivisionByZero:
        assume(False)


def assert_canonical(s):
    """Coprime over ZZ, content included, with a positive leading denominator."""
    gens = [SYMS[n] for n in s.ctx.params]
    fe = sympy_element(s)
    num = sympy.Poly(fe.numer.as_expr(), *gens, domain="ZZ")
    den = sympy.Poly(fe.denom.as_expr(), *gens, domain="ZZ")
    assert sympy.gcd(num, den).as_expr() in (1, -1)
    assert den.LC(order="grlex") > 0


# leaves that share factors, several with a negative leading coefficient;
# q^2 - p leads with opposite signs in lex and graded-lex order
SHARED = {
    text: FOUR.parse(text)
    for text in (
        "p - 1", "q^2 + 1", "1 - q", "r - 1", "q^2 - p", "p*s - q", "1 - r*s", "q", "s", "-2", "1/3",
    )
}
shared_leaves = st.lists(
    st.tuples(st.sampled_from(sorted(SHARED)), st.integers(-2, 2)), min_size=1, max_size=2
).map(lambda powers: ("leaf", tuple(powers)))


def _extend_shared(children):
    # small exponents keep sympy's reference gcds cheap
    binary = st.tuples(st.sampled_from("+-*/"), children, children)
    power = st.tuples(st.just("^"), children, st.integers(-2, 2))
    return st.one_of(binary, power)


shared_trees = st.recursive(shared_leaves, _extend_shared, max_leaves=3)


OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv, "^": pow}


def checked(kind, a, b):
    """The kernel's a <kind> b, which must equal sympy's canonical form term
    for term; every operation in sympy's field goes through its gcd cancel."""
    if kind == "/" and b.is_zero() or kind == "^" and b < 0 and a.is_zero():
        assume(False)
    got = OPS[kind](a, b)
    fa = sympy_element(a)
    if kind == "^" and b <= 0:
        # sympy's own power rejects 0^0 and swaps the pair without a sign fix
        want = fa.field.one / fa ** -b if b else fa.field.one
    else:
        want = OPS[kind](fa, b if kind == "^" else sympy_element(b))
    fe = sympy_element(got)
    assert (fe.numer, fe.denom) == (want.numer, want.denom)
    return got


def evaluate_shared(tree):
    kind = tree[0]
    if kind == "leaf":
        out = FOUR.one
        for text, exp in tree[1]:
            out = checked("*", out, checked("^", SHARED[text], exp))
        return out
    if kind == "^":
        return checked("^", evaluate_shared(tree[1]), tree[2])
    return checked(kind, evaluate_shared(tree[1]), evaluate_shared(tree[2]))


# reference path: substitution through sympy expressions


def reference_substitute(s, name, value):
    """s with name := value, as an element of sympy's field.

    Numerator and denominator are evaluated term by term in the field, whose
    every operation cancels by a polynomial gcd.  Substituting into sympy
    expressions would leave sympy's cancel to expand a multinomial, which
    needs more than 3 GB on the pinned example of the test below.
    """
    fe, val = sympy_element(s), sympy_element(s.ctx.scalar(value))
    K = fe.field
    point = [val if p == name else g for p, g in zip(s.ctx.params, K.gens)]

    def at(poly):
        out = K.zero
        for exps, c in poly.terms():
            term = K.ground_new(c)
            for x, e in zip(point, exps):
                if e:  # sympy rejects 0**0
                    term *= x ** e
            out += term
        return out

    den = at(fe.denom)
    if not den:
        raise DenominatorVanishes("denominator vanishes", param=name)
    return at(fe.numer) / den


@bounded
@given(trees)
def test_arithmetic_matches_sympy_cancel(tree):
    s, expr = scalar_of(tree)
    assert sympy.cancel(expr - sympy_element(s).as_expr()) == 0
    assert_canonical(s)


@bounded
@given(shared_trees)
def test_kernel_matches_sympy_field_on_shared_factors(tree):
    assert_canonical(evaluate_shared(tree))


@bounded
@given(shared_trees, shared_trees)
def test_kernel_cancels_what_it_combined(ta, tb):
    # each second step must cancel what the first put in the denominator;
    # a is canonical, so equality with it is term for term
    a, b = evaluate_shared(ta), evaluate_shared(tb)
    total = a + b
    assert_canonical(total)
    fa = sympy_element(a)
    assert sympy_element(total - b) == fa
    assume(not b.is_zero())
    assert sympy_element(a * b / b) == fa
    assert sympy_element(a / b * b) == fa


def pointwise(s):
    """s at scalars.POINT mod PRIME, from its numerator and its whole
    denominator polynomial; None when the denominator vanishes there."""

    def at(poly):
        out = 0
        for exps, c in unpacked(s.ctx, poly).items():
            for a, e in zip(POINT, exps):
                c *= pow(a, e, PRIME)
            out += c
        return out % PRIME

    num, den = (at(p) for p in _fraction(s.ctx, s))
    return num * pow(den, -1, PRIME) % PRIME if den else None


@bounded
@given(shared_trees, shared_trees)
def test_mod_image_is_evaluation_at_the_point(ta, tb):
    # the factor images are kept on the Context: a and b fill them in, and
    # the sum, product and quotient read them back
    a, b = evaluate_shared(ta), evaluate_shared(tb)
    ia, ib = mod_image(a), mod_image(b)
    for s in (a, b, a + b, a - b, a * b, FOUR.zero, FOUR.one):
        assert mod_image(s) == pointwise(s)
    assume(ia is not None and ib)
    assert mod_image(a + b) == (ia + ib) % PRIME
    assert mod_image(a * b) == ia * ib % PRIME
    assert mod_image(a / b) * ib % PRIME == ia


def test_mod_image_reports_a_vanishing_denominator():
    for ctx in (CTX, WIDE, FOUR):
        # the first parameter in sorted order takes POINT[0]
        first = ctx.params[0]
        assert mod_image(ctx.parse("%s - %d" % (first, POINT[0]))) == 0
        assert mod_image(ctx.parse("1/(%s - %d)" % (first, POINT[0]))) is None
        assert mod_image(ctx.parse("(%s - 1)^2/(%s - %d)^3" % (first, first, POINT[0]))) is None
        assert mod_image(ctx.parse("%d/3" % PRIME)) == 0
        assert mod_image(ctx.parse("3/%d" % PRIME)) is None
    many = Context(["x%d" % i for i in range(len(POINT) + 1)])
    assert mod_image(many.one) is None


@bounded
@given(trees, trees)
def test_products_scope_gives_the_same_canonical_product(ta, tb):
    a, _ = scalar_of(ta)
    b, _ = scalar_of(tb)
    outside = a * b
    with CTX.products():
        inside = a * b
        again = a * b
    assert inside == outside
    fi, fo = sympy_element(inside), sympy_element(outside)
    assert (fi.numer, fi.denom) == (fo.numer, fo.denom)
    assert str(inside) == str(outside)
    assert_canonical(inside)
    assert again is inside


@bounded
@given(trees, shared_trees)
def test_str_matches_the_named_key_reference(tree, shared):
    # terms sorted graded-lex over every parameter of the Context order as
    # they do over the parameters that occur: an absent one is zero in all
    s, _ = scalar_of(tree)
    assert str(s) == named_key_str(s)
    t = evaluate_shared(shared)
    assert str(t) == named_key_str(t)


@bounded
@given(trees)
def test_str_parse_roundtrip(tree):
    s, _ = scalar_of(tree)
    back = CTX.parse(str(s))
    assert back == s
    assert str(back) == str(s)
    assert str(WIDE.parse(str(s))) == str(s)


QP = ("+", ("gen", "q"), ("gen", "p"))


@bounded
@given(trees, trees, trees)
# (q + p)^2 is built by squaring and (q + p) * (q + p) by a product; equal
# scalars must store the same numerator and split whichever way they were
# built, since the products() memo keys by them
@example(("^", QP, 2), ("*", QP, QP), ("const", Fraction(1)))
def test_equality_is_zero_difference_and_hash(ta, tb, tc):
    a, _ = scalar_of(ta)
    b, _ = scalar_of(tb)
    c, _ = scalar_of(tc)
    assume(not c.is_zero())
    for other in (b, a * c / c, a + c - c, c * a * c.inv(), a * CTX.one):
        assert (a == other) == (a - other).is_zero()
        if a == other:
            assert _ident(a) == _ident(other)
            assert str(a) == str(other)


@bounded
@given(trees, st.sampled_from(["q", "p"]), st.one_of(trees, constants))
# (q + p)^-9 with p := (q + 1/3)^-9: the kernel takes milliseconds, while
# cancelling it as a sympy expression needs more than 3 GB
@example(
    ("^", ("^", ("+", ("gen", "q"), ("gen", "p")), -3), 3),
    "p",
    ("^", ("^", ("+", ("gen", "q"), ("const", Fraction(1, 3))), 3), -3),
)
def test_substitute_matches_reference(tree, name, value_tree):
    s, _ = scalar_of(tree)
    value = value_tree[1] if value_tree[0] == "const" else scalar_of(value_tree)[0]
    try:
        want = reference_substitute(s, name, value)
    except DenominatorVanishes:
        try:
            s.substitute([(name, value)])
        except DenominatorVanishes as err:
            assert err.param == name
        else:
            raise AssertionError("substitute missed a vanishing denominator")
        return
    got = s.substitute([(name, value)])
    fe = sympy_element(got)
    assert (fe.numer, fe.denom) == (want.numer, want.denom)
    assert_canonical(got)
