"""Tests for free-algebra elements, spans and relation sets."""

import random

import pytest

from conftest import apply_antihom
from ncorep.errors import MissingImage, MixedFamilies
from ncorep.freealg import (
    NCPoly,
    PairPoly,
    RelationSet,
    SpanBasis,
    T,
    apply_hom,
    e,
    poly_vector,
    row_space_compare,
    word_key,
)
from ncorep.scalars import Context


def ctx2():
    return Context(["q", "p"])


def test_generator_ordering():
    gens = [T(2, 1), e(1), T(1, 2), T(1, 1), e(3)]
    gens.sort(key=lambda g: g.sort_key())
    assert [str(g) for g in gens] == ["T[1,1]", "T[1,2]", "T[2,1]", "e[1]", "e[3]"]
    # spectral labels separate otherwise equal symbols
    assert T(1, 1, "lam") != T(1, 1, "mu")
    assert T(1, 1, "lam") != T(1, 1)
    assert len({T(1, 1, "lam"), T(1, 1, "mu"), T(1, 1)}) == 3
    assert str(T(1, 1, "lam")) == "T[1,1](lam)"
    # separately built generators are one key; the hash is kept, not rebuilt
    g, h = T(1, 2), T(1, 2)
    assert g is not h and g == h and hash(g) == hash(h)
    assert {g: "x"}[h] == "x"
    assert {(g, T(2, 1)): 1}[(h, T(2, 1))] == 1
    assert "%s" % g == str(g) == repr(g) == "T[1,2]"
    assert "%s" % (e(2),) == "e[2]"
    assert T(1, 2) != ("T", (1, 2), None)
    assert T(1, 2) != e(1)


def test_word_key_degree_first():
    w1 = (T(2, 2),)
    w2 = (T(1, 1), T(1, 1))
    assert word_key(w1) < word_key(w2)


def test_ncpoly_arithmetic():
    ctx = ctx2()
    q = ctx.gen("q")
    a = NCPoly.gen(ctx, T(1, 1))
    b = NCPoly.gen(ctx, T(1, 2))
    x = a * b - q * (b * a)
    assert x.degree() == 2
    assert x.coeff((T(1, 1), T(1, 2))) == ctx.one
    assert x.coeff((T(1, 2), T(1, 1))) == -q
    assert x.coeff((T(2, 1), T(1, 1))).is_zero()
    assert (x - x).is_zero()
    assert x * NCPoly.one(ctx) == x
    assert NCPoly.zero(ctx) * x == NCPoly.zero(ctx)


def test_ncpoly_noncommutative():
    ctx = ctx2()
    a = NCPoly.gen(ctx, T(1, 1))
    b = NCPoly.gen(ctx, T(1, 2))
    assert a * b != b * a


def test_ncpoly_pow_and_int_coercion():
    ctx = ctx2()
    a = NCPoly.gen(ctx, T(1, 1))
    assert a ** 0 == 1
    assert a ** 3 == a * a * a
    assert (a - a) == 0
    assert a + 1 == a + NCPoly.one(ctx)
    assert 2 * a == a + a


def test_ncpoly_homogeneous_part():
    ctx = ctx2()
    a = NCPoly.gen(ctx, T(1, 1))
    x = a * a + a + NCPoly.one(ctx)
    assert x.homogeneous_part(2) == a * a
    assert x.homogeneous_part(1) == a
    assert x.homogeneous_part(0) == NCPoly.one(ctx)
    assert x.degrees() == [0, 1, 2]


def test_ncpoly_str_sorted():
    ctx = ctx2()
    a = NCPoly.gen(ctx, T(1, 1))
    d = NCPoly.gen(ctx, T(2, 2))
    s = str(d * a + a)
    assert s.index("T[1,1]") < s.index("T[2,2]")


def test_apply_hom_antihom():
    ctx = ctx2()
    q = ctx.gen("q")
    a = NCPoly.gen(ctx, T(1, 1))
    b = NCPoly.gen(ctx, T(1, 2))
    images = {T(1, 1): b, T(1, 2): q * a}
    x = a * b
    assert apply_hom(x, images) == b * (q * a)
    assert apply_antihom(x, images) == (q * a) * b
    with pytest.raises(MissingImage):
        apply_hom(NCPoly.gen(ctx, T(2, 1)), images)


def test_hom_respects_products_random():
    ctx = ctx2()
    rng = random.Random(3)
    gens = [T(1, 1), T(1, 2), T(2, 1), T(2, 2)]
    images = {g: NCPoly.gen(ctx, h) + NCPoly.gen(ctx, k)
              for g, h, k in [(gens[0], gens[1], gens[2]),
                              (gens[1], gens[0], gens[3]),
                              (gens[2], gens[3], gens[0]),
                              (gens[3], gens[2], gens[1])]}
    for _ in range(20):
        w1 = tuple(rng.choice(gens) for _ in range(rng.randint(0, 3)))
        w2 = tuple(rng.choice(gens) for _ in range(rng.randint(0, 3)))
        x = NCPoly.term(ctx, w1, ctx.gen("q"))
        y = NCPoly.term(ctx, w2, ctx.one + ctx.gen("p"))
        assert apply_hom(x * y, images) == apply_hom(x, images) * apply_hom(y, images)
        assert apply_antihom(x * y, images) == apply_antihom(y, images) * apply_antihom(x, images)


def test_pairpoly_tensor_and_product():
    ctx = ctx2()
    a = NCPoly.gen(ctx, T(1, 1))
    b = NCPoly.gen(ctx, T(1, 2))
    c = NCPoly.gen(ctx, T(2, 1))
    d = NCPoly.gen(ctx, T(2, 2))
    ab = PairPoly.tensor(a, b)
    cd = PairPoly.tensor(c, d)
    prod = ab * cd
    assert prod == PairPoly.tensor(a * c, b * d)
    # componentwise product, slots never mix
    assert prod != PairPoly.tensor(a * d, b * c)
    s = ab + cd
    assert s - cd == ab


def test_pairpoly_bilinear():
    ctx = ctx2()
    q = ctx.gen("q")
    a = NCPoly.gen(ctx, T(1, 1))
    b = NCPoly.gen(ctx, T(1, 2))
    assert PairPoly.tensor(q * a, b) == PairPoly.tensor(a, q * b)
    assert PairPoly.tensor(a + b, b) == PairPoly.tensor(a, b) + PairPoly.tensor(b, b)


def test_span_basis_membership():
    ctx = ctx2()
    q = ctx.gen("q")
    a = NCPoly.gen(ctx, T(1, 1))
    b = NCPoly.gen(ctx, T(1, 2))
    c = NCPoly.gen(ctx, T(2, 1))
    sb = SpanBasis(ctx)
    sb.add(poly_vector(a * b - q * (b * a)))
    sb.add(poly_vector(b * c - c * b))
    assert sb.rank == 2
    # duplicate adds nothing
    sb.add(poly_vector((a * b - q * (b * a)) * ctx.scalar(5)))
    assert sb.rank == 2
    combo = (a * b - q * (b * a)) + 3 * (b * c - c * b)
    assert sb.contains(poly_vector(combo))
    assert not sb.contains(poly_vector(a * c))


def test_span_basis_random_dimension():
    # random vectors over a 6-word support: rank never exceeds 6 and
    # membership agrees with re-adding
    ctx = ctx2()
    rng = random.Random(19)
    words = [(T(1, 1), T(i, j)) for i in (1, 2) for j in (1, 2)] + \
            [(T(2, 2), T(1, 1)), (T(2, 2), T(2, 2))]
    for _ in range(10):
        sb = SpanBasis(ctx)
        vecs = []
        for k in range(8):
            v = NCPoly.zero(ctx)
            for w in words:
                cnum = rng.randint(-2, 2)
                if cnum:
                    v = v + NCPoly.term(ctx, w, ctx.scalar(cnum))
            vecs.append(v)
            sb.add(poly_vector(v))
        assert sb.rank <= 6
        for v in vecs:
            assert sb.contains(poly_vector(v))


def test_relation_set_validation():
    ctx = ctx2()
    fam = [T(1, 1), T(1, 2), T(2, 1), T(2, 2)]
    a = NCPoly.gen(ctx, T(1, 1))
    b = NCPoly.gen(ctx, T(1, 2))
    rs = RelationSet(ctx, fam, [a * b - b * a])
    assert rs.rank() == 1
    with pytest.raises(ValueError):
        RelationSet(ctx, fam, [a * b - b])  # inhomogeneous
    with pytest.raises(MixedFamilies):
        RelationSet(ctx, fam, [a * NCPoly.gen(ctx, e(1))])


def test_row_space_compare_verdicts():
    ctx = ctx2()
    fam = [T(1, 1), T(1, 2), T(2, 1), T(2, 2)]
    a = NCPoly.gen(ctx, T(1, 1))
    b = NCPoly.gen(ctx, T(1, 2))
    c = NCPoly.gen(ctx, T(2, 1))
    r1 = a * b - b * a
    r2 = a * c - c * a
    r3 = b * c - c * b
    big = RelationSet(ctx, fam, [r1, r2])
    small = RelationSet(ctx, fam, [r1])
    other = RelationSet(ctx, fam, [r3])
    scaled = RelationSet(ctx, fam, [2 * r1, r2 + r1])

    assert row_space_compare(big, scaled).verdict == "equal"
    assert row_space_compare(small, big).verdict == "a_in_b"
    assert row_space_compare(big, small).verdict == "b_in_a"
    cmp = row_space_compare(small, other)
    assert cmp.verdict == "incomparable"
    assert cmp.rank_union == 2
    # the union is built beside the kept bases, never inside them
    assert small.rank() == 1 and other.rank() == 1
    again = row_space_compare(small, other)
    assert (again.verdict, again.rank_a, again.rank_b, again.rank_union) == (
        "incomparable", 1, 1, 2,
    )
    assert small.basis() is small.basis()


def test_row_space_compare_family_mismatch():
    ctx = ctx2()
    famT = [T(1, 1), T(1, 2), T(2, 1), T(2, 2)]
    famE = [e(1), e(2)]
    a = NCPoly.gen(ctx, T(1, 1))
    b = NCPoly.gen(ctx, T(1, 2))
    x = NCPoly.gen(ctx, e(1))
    y = NCPoly.gen(ctx, e(2))
    rsT = RelationSet(ctx, famT, [a * b - b * a])
    rsE = RelationSet(ctx, famE, [x * y + y * x])
    with pytest.raises(MixedFamilies):
        row_space_compare(rsT, rsE)


def test_substitute_on_poly():
    ctx = ctx2()
    q = ctx.gen("q")
    a = NCPoly.gen(ctx, T(1, 1))
    b = NCPoly.gen(ctx, T(1, 2))
    x = a * b - q * (b * a)
    y = x.substitute([("q", 1)])
    assert y == a * b - b * a
