"""Property tests for the scalar layer against sympy's own cancel.

Random expression trees over q and p (with negative powers and rational
constants) are evaluated twice: as Scalars and as plain sympy expressions.
"""

from fractions import Fraction

import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ncorep.errors import DenominatorVanishes, DivisionByZero
from ncorep.scalars import Context, Scalar

CTX = Context(["q", "p"])
WIDE = Context(["p", "q", "r"])
SYMS = {n: sympy.Symbol(n) for n in ("p", "q", "r")}

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
    num = sympy.Poly(s.fe.numer.as_expr(), *gens, domain="ZZ")
    den = sympy.Poly(s.fe.denom.as_expr(), *gens, domain="ZZ")
    assert sympy.gcd(num, den).as_expr() in (1, -1)
    assert den.LC(order="grlex") > 0


# reference path: substitution and context moves through sympy expressions


def reference_substitute(s, name, value):
    val = s.ctx.scalar(value)
    sym = SYMS[name]
    num_expr = s.fe.numer.as_expr().subs(sym, val.fe.as_expr())
    den_expr = s.fe.denom.as_expr().subs(sym, val.fe.as_expr())
    if sympy.cancel(den_expr) == 0:
        raise DenominatorVanishes("denominator vanishes", param=name)
    field = s.ctx.field
    return Scalar(s.ctx, field.from_expr(num_expr) / field.from_expr(den_expr))


def reference_in_context(s, ctx):
    return Scalar(ctx, ctx.field.from_expr(s.fe.as_expr()))


@bounded
@given(trees)
def test_arithmetic_matches_sympy_cancel(tree):
    s, expr = scalar_of(tree)
    assert sympy.cancel(expr - s.fe.as_expr()) == 0
    assert_canonical(s)


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
    assert (inside.fe.numer, inside.fe.denom) == (outside.fe.numer, outside.fe.denom)
    assert str(inside) == str(outside)
    assert_canonical(inside)
    assert again is inside


@bounded
@given(trees)
def test_str_parse_roundtrip(tree):
    s, _ = scalar_of(tree)
    back = CTX.parse(str(s))
    assert back == s
    assert str(back) == str(s)
    assert WIDE.parse(str(s)) == s


@bounded
@given(trees, trees, trees)
def test_equality_is_zero_difference_and_hash(ta, tb, tc):
    a, _ = scalar_of(ta)
    b, _ = scalar_of(tb)
    c, _ = scalar_of(tc)
    assume(not c.is_zero())
    for other in (b, a * c / c, a + c - c, c * a * c.inv(), a * CTX.one):
        assert (a == other) == (a - other).is_zero()
        if a == other:
            assert hash(a) == hash(other)
            assert str(a) == str(other)


@bounded
@given(trees, st.sampled_from(["q", "p"]), st.one_of(trees, constants))
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
    assert got == want
    assert_canonical(got)


@bounded
@given(trees)
def test_in_context_matches_reference(tree):
    s, _ = scalar_of(tree)
    wide = s.in_context(WIDE)
    assert wide.fe == reference_in_context(s, WIDE).fe
    assert_canonical(wide)
    back = wide.in_context(CTX)
    assert back.fe == s.fe
    assert back.fe == reference_in_context(wide, CTX).fe
