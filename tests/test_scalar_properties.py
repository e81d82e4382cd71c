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
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ncorep.errors import DenominatorVanishes, DivisionByZero
from ncorep.scalars import Context, Scalar

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
    num = sympy.Poly(s.fe.numer.as_expr(), *gens, domain="ZZ")
    den = sympy.Poly(s.fe.denom.as_expr(), *gens, domain="ZZ")
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
    if kind == "^" and b <= 0:
        # sympy's own power rejects 0^0 and swaps the pair without a sign fix
        want = a.fe.field.one / a.fe ** -b if b else a.fe.field.one
    else:
        want = OPS[kind](a.fe, b if kind == "^" else b.fe)
    assert (got.fe.numer, got.fe.denom) == (want.numer, want.denom)
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
    assert (total - b).fe == a.fe
    assume(not b.is_zero())
    assert (a * b / b).fe == a.fe
    assert (a / b * b).fe == a.fe


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
