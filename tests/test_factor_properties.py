"""The split of a denominator by scalars._factor, checked against sympy.

_factor takes out the monomial and integer content, splits a polynomial
that is linear in some parameter with an integer coefficient or constant
term, or quadratic in its only parameter, by itself, and hands anything
else to sympy's factor_list.  The split (content, monomial, multiset of
irreducible factors with positive graded-lex leading coefficient) is
unique, so the test compares it whole with one made from factor_list
directly, over random polynomials in up to four parameters and over the
shapes on both sides of the fast path's border: linear forms whose
coefficient and constant term are both non-constant, such as
p*q - p - q + 1 = (p - 1)(q - 1), products of small polynomials, and
univariate quadratics with a square, zero or non-square discriminant.
"""

from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import ZZ
from sympy.polys.orderings import grlex
from sympy.polys.rings import PolyElement, PolyRing

from ncorep import scalars
from ncorep.scalars import Context

NAMES = ("p", "q", "r", "s")

bounded = settings(max_examples=150, deadline=None, database=None)


def collect(terms):
    """The polynomial dict of a list of (exponents, coefficient) terms."""
    out = {}
    for e, v in terms:
        out[e] = out.get(e, 0) + v
    return {e: v for e, v in out.items() if v}


def polys(n, max_terms=4, max_deg=2):
    term = st.tuples(
        st.tuples(*[st.integers(0, max_deg)] * n), st.integers(-4, 4).filter(bool)
    )
    return st.lists(term, min_size=1, max_size=max_terms).map(collect).filter(bool)


def without(i, poly):
    """poly with the i-th parameter set to 1."""
    return collect((e[:i] + (0,) + e[i + 1:], v) for e, v in poly.items())


def unit(n, i, k):
    return (0,) * i + (k,) + (0,) * (n - i - 1)


@st.composite
def linear(draw, n):
    """a x_i + b with a and b free of x_i, both often non-constant."""
    i = draw(st.integers(0, n - 1))
    a = without(i, draw(polys(n)))
    b = without(i, draw(polys(n)))
    return scalars._padd(scalars._pterm(a, unit(n, i, 1), 1), b)


@st.composite
def products(draw, n):
    """A product of two small polynomials, often of two linear forms."""
    part = st.one_of(polys(n, 3, 1), linear(n))
    return scalars._pmul(draw(part), draw(part))


@st.composite
def quadratics(draw, n):
    """A x^2 + B x + C in one parameter, with a square, zero or random discriminant."""
    i = draw(st.integers(0, n - 1))
    x0, x1, x2 = (unit(n, i, k) for k in range(3))
    nonzero = st.integers(-6, 6).filter(bool)
    shape = draw(st.sampled_from(("roots", "double", "random")))
    if shape == "random":
        return collect([(x2, draw(nonzero)), (x1, draw(st.integers(-6, 6))), (x0, draw(nonzero))])
    d1, n1 = draw(st.integers(1, 4)), draw(nonzero)
    d2, n2 = (d1, n1) if shape == "double" else (draw(st.integers(1, 4)), draw(nonzero))
    k = draw(st.integers(1, 3)) if shape == "double" else 1
    return scalars._pterm(scalars._pmul({x1: d1, x0: -n1}, {x1: d2, x0: -n2}), x0, k)


@st.composite
def denominators(draw):
    """(params, den): one of the shapes times a monomial and an integer,
    leading positive as scalars._split hands it on."""
    n = draw(st.integers(1, 4))
    f = draw(st.one_of(polys(n, 5, 3), linear(n), products(n), quadratics(n)).filter(bool))
    m = draw(st.tuples(*[st.integers(0, 2)] * n))
    c = draw(st.sampled_from((1, 1, 2, 3, 6)))
    if f[max(f, key=scalars._grlex)] < 0:
        c = -c
    return NAMES[:n], scalars._pterm(f, m, c)


def reference_split(params, den):
    """(c, m, Counter of factors) of den from one sympy factor_list call."""
    c, pairs = PolyRing(params, ZZ, grlex).from_dict(den).factor_list()
    c, m, factors = int(c), [0] * len(params), Counter()
    for f, k in pairs:
        f = {e: int(v) for e, v in f.items()}
        if len(f) == 1:
            ((e, v),) = f.items()
            m = [a + b * k for a, b in zip(m, e)]
            c *= v ** k
            continue
        if f[max(f, key=scalars._grlex)] < 0:
            f, c = {e: -v for e, v in f.items()}, c * (-1) ** k
        factors[frozenset(f.items())] += k
    return c, tuple(m), factors


def package_split(params, den):
    """(c, m, Counter of factors) of den from scalars._factor on a fresh Context."""
    ctx = Context(params)
    c, m, ks = scalars._factor(ctx, den)
    assert [i for i, _ in ks] == sorted({i for i, _ in ks})
    return c, m, Counter({frozenset(ctx._factors[i][0].items()): k for i, k in ks})


@bounded
@given(denominators())
@example((("p", "q"), {(1, 1): 1, (1, 0): -1, (0, 1): -1, (0, 0): 1}))  # (p - 1)(q - 1)
@example((("p", "q", "r"), {(0, 0, 2): 1, (0, 0, 1): -2, (0, 0, 0): 1}))  # (r - 1)^2
@example((("p", "q"), {(0, 2): 2, (0, 1): -3, (0, 0): 1}))  # (2q - 1)(q - 1)
@example((("q",), {(3,): 1, (1,): 1}))  # q (q^2 + 1)
def test_factor_split_matches_factor_list(case):
    params, den = case
    if len(den) < 2:
        return  # _split keeps one-term denominators to itself
    assert package_split(params, den) == reference_split(params, den)


@pytest.mark.parametrize("text, sympy_calls", [
    ("q^2 + 1", 0),  # non-square discriminant
    ("3*q^2 - 6*q + 3", 0),  # 3 (q - 1)^2
    ("4*q^2 - 1", 0),  # (2q - 1)(2q + 1)
    ("r - 1", 0),
    ("p^2*q*r + 2*p*q*r - 3", 0),  # linear in r with an integer constant term
    ("p*q + r + 1", 0),  # linear in r with coefficient 1
    ("p*q - p - q + 1", 1),  # linear in p and q, with non-constant a and b
    ("q^3 + p^2 + 1", 1),
    ("q^2 + p", 0),  # linear in p
    ("q^2 + p^2", 1),
])
def test_only_shapes_outside_the_fast_path_reach_factor_list(text, sympy_calls, monkeypatch):
    calls = []
    original = PolyElement.factor_list

    def counting(f):
        calls.append(f)
        return original(f)

    monkeypatch.setattr(PolyElement, "factor_list", counting)
    ctx = Context(["p", "q", "r"])
    den = ctx.parse(text).num
    params = ctx.params
    assert package_split(params, den) == reference_split(params, den)
    assert len(calls) - 1 == sympy_calls  # reference_split calls it once
