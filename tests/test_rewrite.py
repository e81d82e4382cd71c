"""Tests for ordered rewriting: orientation, confluence, counting, extension."""

import itertools

import pytest

from conftest import homogeneous_part, load, worklist_normal_form
from ncorep.errors import CommutationUnverified, OrderMissingGenerator
from ncorep.freealg import NCPoly, RelationSet, SpanBasis, T, poly_vector
from ncorep.rewrite import (
    DET,
    DETBAR,
    TermOrder,
    confluence_check,
    count_irreducible,
    extend_with_determinant,
    matrix_order,
    normal_form,
    orient,
)
from ncorep.scalars import Context


def ctx2():
    return Context(["q", "p"])


def gens():
    return T(1, 1), T(1, 2), T(2, 1), T(2, 2)


def two_parameter_relations(ctx):
    a, b, c, d = (NCPoly.gen(ctx, g) for g in gens())
    polys = [
        a * c - ctx.parse("p*q") * (c * a),
        a * b - ctx.parse("q/p") * (b * a),
        b * c - ctx.parse("p^2") * (c * b),
        c * d - ctx.parse("q/p") * (d * c),
        b * d - ctx.parse("p*q") * (d * b),
        a * d - d * a + ctx.parse("p*(q^-1 - q)") * (c * b),
    ]
    return RelationSet(ctx, gens(), polys)


def oriented(ctx):
    return orient(two_parameter_relations(ctx), matrix_order(2))


def test_term_order_basics():
    ctx = ctx2()
    order = matrix_order(2)
    a, b, c, d = gens()
    assert order.word_key((a,)) < order.word_key((b,))
    assert order.word_key((d,)) < order.word_key((a, a))
    assert order.word_key((a, b)) < order.word_key((b, a))
    # a rule's left side is its relation's order-largest word
    rel = NCPoly.term(ctx, (a, d)) + NCPoly.term(ctx, (d, a), 2)
    rs = orient(RelationSet(ctx, gens(), [rel]), order)
    assert rs.rules == {(d, a): NCPoly.term(ctx, (a, d), ctx.parse("-1/2"))}


def test_term_order_rejects_duplicates():
    a, b, _, _ = gens()
    with pytest.raises(ValueError):
        TermOrder((a, b, a))


def test_term_order_unknown_generator():
    ctx = ctx2()
    a, b, c, _ = gens()
    order = TermOrder((a, b))
    with pytest.raises(OrderMissingGenerator):
        order.word_key((a, c))


def test_orientation_rule_table():
    ctx = ctx2()
    rs = oriented(ctx)
    a, b, c, d = gens()
    assert len(rs) == 6
    assert rs.rules[(b, a)] == NCPoly.term(ctx, (a, b), ctx.parse("p/q"))
    assert rs.rules[(c, a)] == NCPoly.term(ctx, (a, c), ctx.parse("1/(p*q)"))
    assert rs.rules[(c, b)] == NCPoly.term(ctx, (b, c), ctx.parse("1/p^2"))
    assert rs.rules[(d, b)] == NCPoly.term(ctx, (b, d), ctx.parse("1/(p*q)"))
    assert rs.rules[(d, c)] == NCPoly.term(ctx, (c, d), ctx.parse("p/q"))
    # inter-reduction rewrote the c b factor in the mixed rule
    assert rs.rules[(d, a)] == NCPoly.term(ctx, (a, d)) + NCPoly.term(
        ctx, (b, c), ctx.parse("(1 - q^2)/(p*q)")
    )


def test_orientation_is_reduced():
    ctx = ctx2()
    rs = oriented(ctx)
    for lhs, rhs in rs.rule_list():
        for w in rhs.terms:
            assert rs.order.word_key(w) < rs.order.word_key(lhs)
            assert normal_form(NCPoly.term(ctx, w), rs) == NCPoly.term(ctx, w)


def test_orientation_collapses_duplicates():
    ctx = ctx2()
    a, b, _, _ = gens()
    rel = NCPoly.gen(ctx, b) * NCPoly.gen(ctx, a) - ctx.parse("q") * (
        NCPoly.gen(ctx, a) * NCPoly.gen(ctx, b)
    )
    # the RelationSet drops the zero relation; the two multiples give one rule
    rels = RelationSet(ctx, gens(), [rel, ctx.parse("p") * rel, NCPoly.zero(ctx)])
    rs = orient(rels, matrix_order(2))
    assert len(rs) == 1


def test_confluence_of_two_parameter_system():
    ctx = ctx2()
    rs = oriented(ctx)
    conf = confluence_check(rs, maxdeg=3)
    assert conf["confluent"] is True
    assert conf["ambiguities"] == []
    # the verdict is kept on the configuration, not on the system
    ws = load("qplane_qp")
    kept = ws.confluence(3)
    assert kept["confluent"] is True
    assert ws.confluence(3) is kept


def test_corrupted_coefficient_breaks_confluence():
    ctx = ctx2()
    a, b, c, d = (NCPoly.gen(ctx, g) for g in gens())
    polys = [
        a * c - ctx.parse("p*q") * (c * a),
        a * b - ctx.parse("q/p") * (b * a),
        b * c - ctx.parse("p") * (c * b),
        c * d - ctx.parse("q/p") * (d * c),
        b * d - ctx.parse("p*q") * (d * b),
        a * d - d * a + ctx.parse("p*(q^-1 - q)") * (c * b),
    ]
    rs = orient(RelationSet(ctx, gens(), polys), matrix_order(2))
    conf = confluence_check(rs, maxdeg=3)
    assert conf["confluent"] is False
    ga, gb, gc, gd = gens()
    words = [w for w, _ in conf["ambiguities"]]
    assert words == [(gd, gb, ga), (gd, gc, ga)]
    for _, diff in conf["ambiguities"]:
        assert not diff.is_zero()


def test_irreducible_word_counts():
    ctx = ctx2()
    rs = oriented(ctx)
    assert [count_irreducible(rs, n) for n in range(5)] == [1, 4, 10, 20, 35]


def test_strategies_agree_on_confluent_system():
    ctx = ctx2()
    rs = oriented(ctx)
    a, b, c, d = (NCPoly.gen(ctx, g) for g in gens())
    samples = [d * c * b * a, d * a * d, (d * b) * (c * a), c * b * a + d * d]
    for x in samples:
        assert normal_form(x, rs) == worklist_normal_form(x, rs, strategy="rightmost")


def test_normal_form_rejects_unknown_strategy():
    # leftmost reduction is the only strategy; there is no witness either
    ctx = ctx2()
    rs = oriented(ctx)
    with pytest.raises(TypeError):
        normal_form(NCPoly.one(ctx), rs, strategy="rightmost")
    with pytest.raises(TypeError):
        normal_form(NCPoly.one(ctx), rs, witness=True)


def ideal_slice(rels, alphabet, degree):
    """The degree-d slice of the two-sided ideal, spanned by u * rel * v."""
    ctx = rels.ctx
    basis = SpanBasis(ctx)
    for rel in rels:
        k = degree - max(len(w) for w in rel.terms)
        for n in range(k + 1):
            for u in itertools.product(alphabet, repeat=n):
                for v in itertools.product(alphabet, repeat=k - n):
                    basis.add(poly_vector(NCPoly.term(ctx, u) * rel * NCPoly.term(ctx, v)))
    return basis


def test_reduction_witness_is_sound():
    # x - normal_form(x) lies in the ideal, degree by degree
    ctx = ctx2()
    rels = two_parameter_relations(ctx)
    rs = orient(rels, matrix_order(2))
    a, b, c, d = (NCPoly.gen(ctx, g) for g in gens())
    x = d * c * b * a + ctx.parse("q") * (d * a)
    gap = x - normal_form(x, rs)
    degrees = sorted({len(w) for w in gap.terms})
    assert degrees == [2, 4]
    for deg in degrees:
        assert ideal_slice(rels, gens(), deg).contains(poly_vector(homogeneous_part(gap, deg)))


def test_sources_span_the_input_relations():
    # each rule's monic relation lhs - rhs lies in the span of the input
    ctx = ctx2()
    rels = two_parameter_relations(ctx)
    rs = orient(rels, matrix_order(2))
    basis = rels.basis()
    for lhs, rhs in rs.rules.items():
        assert basis.contains(poly_vector(NCPoly.term(ctx, lhs) - rhs))


def test_orient_forgets_kept_forms_when_rules_change():
    # the span of d a - c b and d a - 2 c b holds both words, so both rules
    # rewrite to zero (reference_orient reaches this only if it reduces the
    # requeued d a - c b under the new rule c b -> 0)
    ctx = ctx2()
    a, b, c, d = (NCPoly.gen(ctx, g) for g in gens())
    rs = orient(RelationSet(ctx, gens(), [d * a - c * b, d * a - 2 * (c * b)]), matrix_order(2))
    ga, gb, gc, gd = gens()
    assert rs.rules == {(gc, gb): NCPoly.zero(ctx), (gd, ga): NCPoly.zero(ctx)}
    for lhs in rs.rules:
        assert normal_form(NCPoly.term(ctx, lhs), rs).is_zero()


def test_full_parameter_system_is_not_confluent():
    # four-parameter relations still orient to six rules with the expected
    # quadratic growth, but degree-3 overlaps do not all resolve
    ws = load("qplane_qprs")
    rs = orient(ws.relations(), matrix_order(2))
    assert len(rs) == 6
    assert count_irreducible(rs, 2) == 10
    conf = confluence_check(rs, maxdeg=3)
    assert conf["confluent"] is False
    assert count_irreducible(rs, 3) == 30
    assert count_irreducible(rs, 4) == 85


def det_poly(ctx):
    a, b, c, d = (NCPoly.gen(ctx, g) for g in gens())
    return a * d - ctx.parse("q/p") * (b * c)


def det_commutations(ctx):
    a, b, c, d = gens()
    return [
        (a, ctx.one),
        (b, ctx.parse("1/p^2")),
        (c, ctx.parse("p^2")),
        (d, ctx.one),
    ]


def test_determinant_extension():
    ctx = ctx2()
    rs = oriented(ctx)
    ext = extend_with_determinant(rs, det_poly(ctx), det_commutations(ctx))
    assert len(ext) == len(rs) + 10
    a = gens()[0]
    assert normal_form(NCPoly.term(ctx, (DET, DETBAR)), ext) == NCPoly.one(ctx)
    assert normal_form(NCPoly.term(ctx, (DETBAR, DET)), ext) == NCPoly.one(ctx)
    assert normal_form(NCPoly.term(ctx, (DET, a)), ext) == NCPoly.term(ctx, (a, DET))
    b = gens()[1]
    assert normal_form(NCPoly.term(ctx, (b, DETBAR)), ext) == NCPoly.term(
        ctx, (DETBAR, b), ctx.parse("1/p^2")
    )
    # the rules moving the symbol encode what the polynomial does in the base
    det_rules = {lhs: rhs for lhs, rhs in ext.rules.items() if lhs[0] == DET and lhs[1] != DETBAR}
    assert len(det_rules) == 4
    for (_, g), rhs in det_rules.items():
        c = rhs.coeff((g, DET))
        gp = NCPoly.gen(ctx, g)
        assert normal_form(det_poly(ctx) * gp - c * (gp * det_poly(ctx)), rs).is_zero()


def test_determinant_extension_checks_claims():
    ctx = ctx2()
    rs = oriented(ctx)
    a, b, c, d = gens()
    bad = [
        (a, ctx.one),
        (b, ctx.parse("1/p")),
        (c, ctx.parse("p^2")),
        (d, ctx.one),
    ]
    with pytest.raises(CommutationUnverified):
        extend_with_determinant(rs, det_poly(ctx), bad)


def test_extension_preserves_base_reduction():
    ctx = ctx2()
    rs = oriented(ctx)
    ext = extend_with_determinant(rs, det_poly(ctx), det_commutations(ctx))
    a, b, c, d = (NCPoly.gen(ctx, g) for g in gens())
    x = d * c * b * a
    assert normal_form(x, ext) == normal_form(x, rs)
