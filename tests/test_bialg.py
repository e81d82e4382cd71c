"""Tests for the coalgebra maps, linear forms, cocycles and twisting."""

import random

import pytest

from conftest import from_matrix, tensor_from_entries
from ncorep.bialg import (
    LinearForm,
    Presentation,
    braid_form,
    character_pair_form,
    cocycle_check,
    twist_R,
    twisted_product_relations,
)
from ncorep.errors import (
    NotInvertible,
    PresentationMismatch,
    UnknownGenerator,
)
from ncorep.freealg import NCPoly, PairPoly, T, e
from ncorep.scalars import Context
from ncorep.tensors import (
    Tensor,
    compose,
    invert4,
    swap_lower,
    ybe_residual,
)

GENS = [T(1, 1), T(1, 2), T(2, 1), T(2, 2)]


def setup():
    ctx = Context(["q", "p", "r", "s"])
    return ctx, Presentation(ctx, 2)


def braid(ctx):
    return from_matrix(ctx, 2, [
        ["1", "0", "0", "0"],
        ["0", "0", "q", "0"],
        ["0", "q", "1 - q^2", "0"],
        ["0", "0", "0", "1"],
    ])


def abcd(ctx):
    return tuple(NCPoly.gen(ctx, g) for g in GENS)


def rho_full(ctx):
    return tensor_from_entries(ctx, 2, 1, 1, [
        ((1, 1), "1"), ((1, 2), "r/s"), ((2, 1), "-s/p"), ((2, 2), "(1 - r)/p"),
    ])


def rho_limit(ctx):
    return tensor_from_entries(ctx, 2, 1, 1, [((1, 1), "1"), ((2, 2), "1/p")])


def test_coproduct_generator():
    ctx, pres = setup()
    a, b, c, d = abcd(ctx)
    assert pres.coproduct(a) == PairPoly.tensor(a, a) + PairPoly.tensor(b, c)
    assert pres.coproduct(d) == PairPoly.tensor(c, b) + PairPoly.tensor(d, d)
    assert pres.coproduct(NCPoly.one(ctx)) == PairPoly.unit(ctx)


def test_coproduct_is_homomorphism():
    ctx, pres = setup()
    rng = random.Random(2)
    for _ in range(10):
        w1 = tuple(rng.choice(GENS) for _ in range(rng.randint(0, 3)))
        w2 = tuple(rng.choice(GENS) for _ in range(rng.randint(0, 3)))
        x = NCPoly.term(ctx, w1, ctx.gen("q"))
        y = NCPoly.term(ctx, w2, ctx.one + ctx.gen("p"))
        assert pres.coproduct(x * y) == pres.coproduct(x) * pres.coproduct(y)
    # a kept coproduct is the same on every query, whatever callers build from it
    fresh = Presentation(ctx, 2)
    for w in [(), (GENS[0],), (GENS[1], GENS[2]), (GENS[3], GENS[0], GENS[1])]:
        first = pres.coproduct_word(w)
        expected = PairPoly(ctx, dict(first.terms))
        first.scale(ctx.gen("q"))
        first + first
        first * first
        assert pres.coproduct_word(w) == first == expected
        assert fresh.coproduct_word(w) == expected


def test_coproduct_coassociative():
    ctx, pres = setup()
    rng = random.Random(4)

    def lift(pp, side):
        out = {}
        for (w1, w2), c in pp.terms.items():
            inner = pres.coproduct_word(w1 if side == 0 else w2)
            for (u1, u2), cc in inner.terms.items():
                k = (u1, u2, w2) if side == 0 else (w1, u1, u2)
                acc = out.get(k, ctx.zero) + c * cc
                out[k] = acc
        return {k: v for k, v in out.items() if not v.is_zero()}

    for _ in range(8):
        w = tuple(rng.choice(GENS) for _ in range(rng.randint(1, 3)))
        pp = pres.coproduct_word(w)
        assert lift(pp, 0) == lift(pp, 1)


def test_counit():
    ctx, pres = setup()
    a, b, c, d = abcd(ctx)
    assert pres.counit(b).is_zero()
    assert pres.counit(a) == ctx.one
    assert pres.counit(NCPoly.one(ctx)) == ctx.one
    assert pres.counit(a * d - d * a).is_zero()


def test_counit_axiom():
    ctx, pres = setup()
    rng = random.Random(6)
    for _ in range(10):
        w = tuple(rng.choice(GENS) for _ in range(rng.randint(0, 3)))
        x = NCPoly.term(ctx, w, ctx.gen("p"))
        out = NCPoly.zero(ctx)
        for (w1, w2), c in pres.coproduct(x).terms.items():
            out = out + NCPoly.term(ctx, w2, c * pres.counit_word(w1))
        assert out == x


def test_coproduct_rejects_foreign_generator():
    ctx, pres = setup()
    with pytest.raises(UnknownGenerator):
        pres.coproduct(NCPoly.gen(ctx, e(1)))
    a, b, c, d = abcd(ctx)
    pres.coproduct(a * b + c * d)
    # a word that raised is never kept, so it raises again after other memos
    for _ in range(2):
        with pytest.raises(UnknownGenerator):
            pres.coproduct_word((T(1, 1), e(1)))
        with pytest.raises(UnknownGenerator):
            pres.coproduct(NCPoly.gen(ctx, e(1)))
    with pytest.raises(UnknownGenerator):
        pres.counit(NCPoly.gen(ctx, T(1, 3)))


def test_braid_form_table():
    ctx, pres = setup()
    B = braid(ctx)
    R = braid_form(pres, B)
    for i in (1, 2):
        for j in (1, 2):
            for k in (1, 2):
                for l in (1, 2):
                    assert R.word_value((T(i, k),), (T(j, l),)) == B.get(j, i, k, l)


def test_bichar_unit_slots():
    ctx, pres = setup()
    a, b, c, d = GENS
    R = braid_form(pres, braid(ctx))
    assert R.word_value((), (a,)) == ctx.one
    assert R.word_value((), (b,)) == ctx.zero
    assert R.word_value((a, d), ()) == ctx.one
    assert R.word_value((), ()) == ctx.one


def test_bichar_split_product_first_slot():
    # R(ad (x) a) by the recursion equals the explicit one-step sum
    ctx, pres = setup()
    a, b, c, d = GENS
    B = braid(ctx)
    R = braid_form(pres, B)
    explicit = ctx.zero
    for k in (1, 2):
        explicit = explicit + B.get(1, 1, 1, k) * B.get(k, 2, 2, 1)
    val = R.word_value((a, d), (a,))
    assert val == explicit
    assert val == ctx.gen("q")


def test_bichar_split_second_slot():
    ctx, pres = setup()
    a, b, c, d = GENS
    R = braid_form(pres, braid(ctx))
    manual = ctx.zero
    for k in (1, 2):
        manual = manual + R.word_value((T(1, k),), (a,)) * R.word_value((T(k, 1),), (d,))
    assert R.word_value((a,), (d, a)) == manual


def test_splitting_orders_agree():
    # independent right-to-left evaluator; agreement needs the YBE-good braid
    ctx, pres = setup()
    R = braid_form(pres, braid(ctx))
    rng = random.Random(9)

    def eval_alt(f, u, v):
        if not u:
            return pres.counit_word(v)
        if not v:
            return pres.counit_word(u)
        if len(u) > 1:
            init, last = u[:-1], (u[-1],)
            acc = ctx.zero
            for (v1, v2), c in pres.coproduct_word(v).terms.items():
                acc = acc + c * eval_alt(f, init, v1) * eval_alt(f, last, v2)
            return acc
        if len(v) > 1:
            init, last = v[:-1], (v[-1],)
            acc = ctx.zero
            for (u1, u2), c in pres.coproduct_word(u).terms.items():
                acc = acc + c * eval_alt(f, u1, last) * eval_alt(f, u2, init)
            return acc
        return f.base.get(u[0].index[0], v[0].index[0], u[0].index[1], v[0].index[1])

    for _ in range(12):
        u = tuple(rng.choice(GENS) for _ in range(rng.randint(1, 3)))
        v = tuple(rng.choice(GENS) for _ in range(rng.randint(1, 3)))
        assert R.word_value(u, v) == eval_alt(R, u, v)


def test_convolution_inverse():
    # twisting by phi and then by its convolution inverse gives R back
    ctx, pres = setup()
    R = braid_form(pres, braid(ctx))
    phi = character_pair_form(pres, rho_full(ctx))
    once = LinearForm(pres, twist_R(R, phi))
    assert once.base != R.base
    assert twist_R(once, LinearForm(pres, invert4(phi.base))) == R.base


def test_convolution_associative():
    # twisting by phi and then by psi is twisting by the convolution phi * psi
    ctx, pres = setup()
    R = braid_form(pres, braid(ctx))
    phi = character_pair_form(pres, rho_full(ctx))
    psi = character_pair_form(pres, rho_limit(ctx))
    lhs = twist_R(LinearForm(pres, twist_R(R, phi)), psi)
    rhs = twist_R(R, LinearForm(pres, compose(phi.base, psi.base)))
    assert lhs == rhs


def test_convolution_presentation_mismatch():
    ctx, pres = setup()
    other = Presentation(Context(["q"]), 2)
    ident = tensor_from_entries(other.ctx, 2, 1, 1, [((1, 1), "1"), ((2, 2), "1")])
    with pytest.raises(PresentationMismatch):
        twist_R(braid_form(pres, braid(ctx)), character_pair_form(other, ident))


def test_form_inverse_singular():
    ctx, pres = setup()
    R = braid_form(pres, braid(ctx))
    with pytest.raises(NotInvertible):
        twist_R(R, LinearForm(pres, Tensor(ctx, 2, 2, 2, {})))


def test_cocycle_character_forms():
    ctx, pres = setup()
    for rho in (rho_limit(ctx), rho_full(ctx)):
        phi = character_pair_form(pres, rho)
        out = cocycle_check(phi)
        assert out["holds"]
        assert out["residuals"] == {}
    ident = tensor_from_entries(ctx, 2, 1, 1, [((1, 1), "1"), ((2, 2), "1")])
    assert cocycle_check(character_pair_form(pres, ident))["holds"]


def test_cocycle_residuals_of_a_perturbed_character_form():
    # the form of rho_full holds; with phi(T_1^2 (x) T_2^1) = q it does not
    ctx, pres = setup()
    base = character_pair_form(pres, rho_full(ctx)).base
    entries = dict(base.entries)
    entries[(1, 2, 2, 1)] = ctx.gen("q")
    out = cocycle_check(LinearForm(pres, Tensor(ctx, 2, 2, 2, entries)))
    res = out["residuals"]
    assert not out["holds"]
    assert len(res) == 24
    assert list(res) == sorted(res)
    assert str(res[(1, 1, 1, 1, 2, 1)]) == "(q*r)/(s)"
    assert str(res[(2, 2, 2, 2, 2, 1)]) == "(q*r*s - q*s)/(p^2)"


def test_cocycle_requires_invertible():
    ctx, pres = setup()
    phi = LinearForm(pres, Tensor(ctx, 2, 2, 2, {(1, 1, 1, 1): ctx.one}))
    with pytest.raises(NotInvertible):
        cocycle_check(phi)


def test_twist_trivial():
    ctx, pres = setup()
    R = braid_form(pres, braid(ctx))
    ident = tensor_from_entries(ctx, 2, 1, 1, [((1, 1), "1"), ((2, 2), "1")])
    assert twist_R(R, character_pair_form(pres, ident)) == R.base


def test_twist_two_parameter_keeps_ybe():
    ctx, pres = setup()
    R = braid_form(pres, braid(ctx))
    phi = character_pair_form(pres, rho_limit(ctx))
    twisted = twist_R(R, phi)
    assert not ybe_residual(swap_lower(twisted))
    assert twisted != R.base


def test_twist_four_parameter_breaks_ybe():
    ctx, pres = setup()
    R = braid_form(pres, braid(ctx))
    phi = character_pair_form(pres, rho_full(ctx))
    twisted = twist_R(R, phi)
    assert ybe_residual(swap_lower(twisted))


def test_twisted_product_relations_match_ideal():
    ctx, pres = setup()
    from ncorep.corep import build_M, factorized_theta, generate_ideal
    from ncorep.freealg import row_space_compare

    th = factorized_theta(rho_full(ctx))
    R = braid_form(pres, braid(ctx))
    M = build_M(th)
    rel = twisted_product_relations(R, M)
    ideal = generate_ideal(braid(ctx), M)
    cmp = row_space_compare(rel, ideal)
    assert cmp.verdict == "equal"
    assert cmp.rank_a == 6
