"""Tests for the exact rational-function scalar layer."""

import random
from fractions import Fraction

import pytest
from sympy.polys.rings import PolyElement

from ncorep.errors import (
    ContextMismatch,
    DenominatorVanishes,
    DivisionByZero,
    ExpressionSyntax,
    UnknownParameter,
)
from ncorep.scalars import Context


def test_parse_basic_forms():
    ctx = Context(["q", "p"])
    q = ctx.gen("q")
    p = ctx.gen("p")
    assert ctx.parse("q") == q
    assert ctx.parse("q + p") == q + p
    assert ctx.parse("q*p - 1") == q * p - ctx.one
    assert ctx.parse("q^2") == q * q
    assert ctx.parse("q^-1") == q.inv()
    assert ctx.parse("-q^2") == -(q * q)
    assert ctx.parse("(q + 1)*(q - 1)") == q * q - ctx.one
    assert ctx.parse("3/2") == ctx.scalar(Fraction(3, 2))
    assert ctx.parse("1/(q + p)") == (q + p).inv()


def test_parse_cancellation_is_automatic():
    ctx = Context(["q"])
    q = ctx.gen("q")
    a = ctx.parse("(q^2 - 1)/(q - 1)")
    assert a == q + ctx.one
    assert str(a) == "q + 1"


def test_parse_rejects_garbage():
    ctx = Context(["q"])
    with pytest.raises(ExpressionSyntax):
        ctx.parse("q +")
    with pytest.raises(ExpressionSyntax):
        ctx.parse("(q")
    with pytest.raises(ExpressionSyntax):
        ctx.parse("q^p")
    with pytest.raises(ExpressionSyntax):
        ctx.parse("")
    with pytest.raises(UnknownParameter):
        ctx.parse("q + t")


def test_str_reparse_roundtrip():
    ctx = Context(["q", "p", "r", "s"])
    exprs = [
        "1/(q + q^-1)",
        "(r - 1)/(p*s)",
        "q^2*p - r/s + 1/2",
        "-(q - q^-1)*p",
        "(q*p - r*s)/(q*p + r*s)",
    ]
    for e in exprs:
        a = ctx.parse(e)
        assert ctx.parse(str(a)) == a


def test_canonical_form_monic_denominator():
    ctx = Context(["q"])
    a = ctx.parse("q/(2 - 2*q)")
    # denominator is normalized monic in the printed form
    assert str(a) == "(-1/2*q)/(q - 1)"
    assert ctx.parse(str(a)) == a


def test_field_laws_random():
    ctx = Context(["q", "p"])
    rng = random.Random(7)
    gens = [ctx.gen("q"), ctx.gen("p"), ctx.one, ctx.scalar(2)]

    def rand_scalar(depth=0):
        if depth > 2 or rng.random() < 0.4:
            return rng.choice(gens) * ctx.scalar(rng.randint(-3, 3))
        a = rand_scalar(depth + 1)
        b = rand_scalar(depth + 1)
        op = rng.randrange(3)
        if op == 0:
            return a + b
        if op == 1:
            return a * b
        return a - b

    for _ in range(60):
        a = rand_scalar()
        b = rand_scalar()
        c = rand_scalar()
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert a - a == ctx.zero
        if not b.is_zero():
            assert (a / b) * b == a


def test_division_by_zero():
    ctx = Context(["q"])
    q = ctx.gen("q")
    with pytest.raises(DivisionByZero):
        q / ctx.zero
    with pytest.raises(DivisionByZero):
        ctx.zero.inv()


def test_power():
    ctx = Context(["q"])
    q = ctx.gen("q")
    assert q ** 0 == ctx.one
    assert ctx.parse("0^0") == 1
    assert q ** 3 == q * q * q
    assert q ** -2 == (q * q).inv()
    assert (q + ctx.one) ** 2 == q * q + 2 * q + ctx.one


def test_substitute_is_homomorphism():
    ctx = Context(["q", "p"])
    rng = random.Random(11)
    q = ctx.gen("q")
    p = ctx.gen("p")
    for _ in range(30):
        a = q * rng.randint(-4, 4) + p * rng.randint(-4, 4) + ctx.scalar(rng.randint(-2, 2))
        b = q * p * rng.randint(1, 3) - ctx.scalar(rng.randint(0, 5))
        binding = [("q", Fraction(rng.randint(1, 9), rng.randint(1, 4)))]
        assert (a * b).substitute(binding) == a.substitute(binding) * b.substitute(binding)
        assert (a + b).substitute(binding) == a.substitute(binding) + b.substitute(binding)


def test_substitute_scalar_values():
    ctx = Context(["q", "p"])
    a = ctx.parse("(q - p)/(q + p)")
    assert a.substitute([("q", 3), ("p", 1)]) == ctx.scalar(Fraction(1, 2))
    b = ctx.parse("q^2 - p")
    assert b.substitute([("p", ctx.parse("q^2"))]) == ctx.zero


def test_substitute_order_matters():
    # r := 0 first is fine, s := 0 afterwards is fine; the reversed order
    # hits the r/s coefficient while r is still alive.
    ctx = Context(["r", "s"])
    a = ctx.parse("r/s + 1")
    assert a.substitute([("r", 0), ("s", 0)]) == ctx.one
    with pytest.raises(DenominatorVanishes) as err:
        a.substitute([("s", 0), ("r", 0)])
    assert err.value.param == "s"


def test_substitute_unknown_param():
    ctx = Context(["q"])
    with pytest.raises(UnknownParameter):
        ctx.gen("q").substitute([("z", 1)])


def test_substitute_absent_parameter_keeps_the_scalar():
    ctx = Context(["q", "p", "r"])
    for text in ("0", "1", "q/(p^2 + 1)", "(q - 1)/(q^2 + 1)"):
        a = ctx.parse(text)
        got = a.substitute([("r", 0)])
        assert got == a and str(got) == str(a)
        assert a.substitute([("r", "q + 1"), ("r", ctx.gen("p"))]) == a
    # the name and the value are still checked first, absent parameter or not
    a = ctx.parse("q + 1")
    with pytest.raises(UnknownParameter):
        a.substitute([("z", 0)])
    with pytest.raises(UnknownParameter):
        a.substitute([("r", "z")])
    with pytest.raises(ExpressionSyntax):
        a.substitute([("r", "q +")])
    with pytest.raises(TypeError):
        a.substitute([("r", 0.5)])
    with pytest.raises(ContextMismatch):
        a.substitute([("r", Context(["q"]).gen("q"))])


def test_cross_context_equality_and_hash():
    # one run reads one field; scalars of two fields never mix
    small = Context(["q"])
    big = Context(["p", "q", "r"])
    a = small.parse("q^2 + 1")
    b = big.parse("q^2 + 1")
    # the hash depends on the value, not on the field's sympy element
    assert hash(a) == hash(b)
    for op in (
        lambda: a + b,
        lambda: a - b,
        lambda: a * b,
        lambda: a / b,
        lambda: a == b,
        lambda: b != a,
        lambda: big.scalar(a),
    ):
        with pytest.raises(ContextMismatch):
            op()
    # equal parameter lists share one field
    assert Context(["q", "p", "r"]).parse("q^2 + 1") == b


def test_negative_powers_are_canonical():
    # a negative power must carry the positive-leading denominator that
    # every other operation produces, or equal scalars compare unequal
    ctx = Context(["q", "p"])
    assert ctx.parse("(-1)^-1") == -1
    assert ctx.parse("(-q)^-1") == ctx.parse("-1/q")
    assert ctx.parse("-q/p").inv() == ctx.parse("-p/q")
    assert ctx.parse("(1 - q)^-2") == ctx.parse("1/(q - 1)^2")
    assert len({ctx.parse("(-q)^-1"), ctx.parse("-1/q")}) == 1


def test_products_scope_keeps_each_pair_until_exit():
    ctx = Context(["q", "r"])
    a = ctx.parse("(q - 1)/(q^2 + 1)")
    b = ctx.parse("(q^2 + 1)/(r - 1)")
    outside = a * b
    assert ctx._products is None
    with ctx.products():
        memo = ctx._products
        first = a * b
        with ctx.products():
            # a nested scope reuses the outer dict
            assert ctx._products is memo
            nested = a * b
        assert ctx._products is memo
    assert ctx._products is None
    assert first is nested
    assert first == outside == ctx.parse("(q - 1)/(r - 1)")
    assert (first.fe.numer, first.fe.denom) == (outside.fe.numer, outside.fe.denom)
    assert list(memo.values()) == [first]
    # unit factors take the shortcut and never enter the dict
    with ctx.products():
        assert a * ctx.one is a
        assert ctx._products == {}


def test_products_scope_skips_zero_factors():
    ctx = Context(["q", "r"])
    a = ctx.parse("(q - 1)/(q^2 + 1)")
    zero = ctx.zero
    with ctx.products():
        assert (a * zero).is_zero()
        assert (zero * a).is_zero()
        assert (zero * zero).is_zero()
        assert ctx._products == {}


def test_products_scope_dropped_when_block_raises():
    ctx = Context(["q"])
    q = ctx.gen("q")
    with pytest.raises(DivisionByZero):
        with ctx.products():
            q * q
            with ctx.products():
                q / ctx.zero
    assert ctx._products is None
    assert q * q == ctx.parse("q^2")


def test_each_divisor_is_factored_once_per_context(monkeypatch):
    seen = []
    original = PolyElement.factor_list

    def counting(f):
        seen.append(f)
        return original(f)

    monkeypatch.setattr(PolyElement, "factor_list", counting)
    ctx = Context(["p", "q"])
    a = ctx.parse("(q - 1)/(p^2 - 2*p + 1)")
    b = ctx.parse("(p + q)/(q^2 + 1)")
    c = ctx.parse("p/(1 - q)")
    for x in (a, b, c, a / b, b / c, c / a):
        for y in (a, b, c):
            assert not (x * y - y / x + (x + y) ** -2).is_zero()
    assert seen
    assert len(seen) == len(set(seen))
    # a new Context keeps its own factor base
    seen.clear()
    other = Context(["p", "q"])
    assert other.parse("1/(q^2 + 1) + 1/(q^2 + 1)") == other.parse("2/(q^2 + 1)")
    assert seen == [other.parse("q^2 + 1").fe.numer]


def test_factor_with_negative_graded_leading_coefficient():
    # factor_list makes q^2 - 2*p - 2*q + 3 positive in lex order (-q^2 + 2*p
    # + ...); the factor base must hold it with a positive graded-lex lead
    ctx = Context(["p", "q"])
    x = ctx.parse("(q^2 - 2*p - 2*q + 3)/(p - 1)")
    assert (x / x).is_one()
    assert (x.inv() * x).is_one()
    c = ctx.parse("p - q^2")
    q = ctx.gen("q")
    assert (c * q * c.inv()).fe == q.fe
    assert str(x.inv() + x.inv()) == "(2*p - 2)/(q^2 - 2*p - 2*q + 3)"
