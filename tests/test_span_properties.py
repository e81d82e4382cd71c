"""Property tests for the span comparison and the modular SpanBasis.

row_space_compare proves equal spans by membership against one kept basis
and a modular rank, and otherwise decides containment from three ranks.
Two references check it: the membership comparison below reduces every
relation of each set against the other set's basis, and
conftest.union_row_space_compare builds both bases and their union, as the
package did before the modular rank.  Random relation sets over the
2 x 2 matrix family share combinations of a common pool of relations, so
all four verdicts occur, and their coefficients carry the non-monomial
denominators q^2 + 1 and r - 1.  The verdict and the ranks do not depend on
the key under which each side keeps its basis: word_key, or the rule key of
a random term order, which pivots each row at its order-largest word.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from ncorep.freealg import (
    NCPoly,
    RelationSet,
    SpanBasis,
    T,
    poly_vector,
    row_space_compare,
    word_key,
)
from conftest import union_row_space_compare
from ncorep.freealg import _spans
from ncorep.modp import ModP
from ncorep.rewrite import TermOrder
from ncorep.scalars import POINT, PRIME, Context, mod_image

CTX = Context(["q", "r"])
FAMILY = [T(i, j) for i in (1, 2) for j in (1, 2)]
WORDS = [(g, h) for g in FAMILY for h in FAMILY]

bounded = settings(max_examples=60, deadline=None, database=None)

coefficients = st.sampled_from(
    ["1", "-1", "2", "q", "-r/q", "1/(q^2 + 1)", "(q - 1)/(r - 1)", "r/(q^2 + 1)", "q^2 + 1"]
).map(CTX.parse)
weights = st.one_of(st.just(CTX.zero), coefficients)
polys = st.lists(st.tuples(st.sampled_from(WORDS), coefficients), min_size=1, max_size=3).map(
    lambda terms: sum((NCPoly.term(CTX, w, c) for w, c in terms), NCPoly.zero(CTX))
)


@st.composite
def relation_lists(draw, polys=polys, weights=weights):
    """Two relation lists: combinations of one shared pool plus a few of their own."""
    pool = draw(st.lists(polys, min_size=1, max_size=3))

    def side():
        combos = draw(st.lists(st.lists(weights, min_size=len(pool), max_size=len(pool)), max_size=3))
        mixed = [sum((w * p for w, p in zip(ws, pool)), NCPoly.zero(CTX)) for ws in combos]
        return mixed + draw(st.lists(polys, max_size=1))

    return side(), side()


def reference_compare(a, b):
    """(verdict, rank_a, rank_b, rank_union) by membership of each relation."""
    ba, bb = a.basis(), b.basis()
    a_out = [p for p in a.polys if not bb.contains(poly_vector(p))]
    b_out = [p for p in b.polys if not ba.contains(poly_vector(p))]
    union = SpanBasis(a.ctx)
    union.rows = list(ba.rows)
    for p in b.polys:
        union.add(poly_vector(p))
    if not a_out and not b_out:
        verdict = "equal"
    elif not a_out:
        verdict = "a_in_b"
    elif not b_out:
        verdict = "b_in_a"
    else:
        verdict = "incomparable"
    return verdict, ba.rank, bb.rank, union.rank


@bounded
@given(relation_lists())
def test_rank_verdicts_match_membership_reference(lists):
    a_polys, b_polys = lists
    # separate sets, so the two comparisons share no kept basis
    want = reference_compare(RelationSet(CTX, FAMILY, a_polys), RelationSet(CTX, FAMILY, b_polys))
    a, b = RelationSet(CTX, FAMILY, a_polys), RelationSet(CTX, FAMILY, b_polys)
    cmp = row_space_compare(a, b)
    assert (cmp.verdict, cmp.rank_a, cmp.rank_b, cmp.rank_union) == want
    # the union is built beside the kept bases
    assert (a.rank(), b.rank()) == want[1:3]


keys = st.one_of(
    st.just(word_key),
    st.permutations(FAMILY).map(lambda p: TermOrder(p).rule_key),
)


@bounded
@given(relation_lists(), keys, keys)
def test_verdicts_do_not_depend_on_the_basis_keys(lists, key_a, key_b):
    a_polys, b_polys = lists
    want = reference_compare(RelationSet(CTX, FAMILY, a_polys), RelationSet(CTX, FAMILY, b_polys))
    a, b = RelationSet(CTX, FAMILY, a_polys, key_a), RelationSet(CTX, FAMILY, b_polys, key_b)
    cmp = row_space_compare(a, b)
    assert (cmp.verdict, cmp.rank_a, cmp.rank_b, cmp.rank_union) == want
    assert a.basis().key is key_a and b.basis().key is key_b


# q - C is a nonzero scalar whose image is 0, and 1/(q - C) has no image:
# its denominator vanishes at the point (C is q's coordinate)
VANISHING = CTX.parse("q - %d" % POINT[0])
SINGULAR = CTX.parse("1/(q - %d)" % POINT[0])
edge_coefficients = st.one_of(coefficients, st.sampled_from([VANISHING, SINGULAR]))
edge_weights = st.one_of(weights, st.just(VANISHING))
edge_polys = st.lists(
    st.tuples(st.sampled_from(WORDS), edge_coefficients), min_size=1, max_size=3
).map(lambda terms: sum((NCPoly.term(CTX, w, c) for w, c in terms), NCPoly.zero(CTX)))


@bounded
@given(relation_lists(edge_polys, edge_weights), st.sampled_from(("none", "a", "b", "both")))
def test_comparison_matches_the_union_reference(lists, kept):
    # whichever bases are kept, and with images that vanish or are undefined
    a_polys, b_polys = lists
    want = union_row_space_compare(
        RelationSet(CTX, FAMILY, a_polys), RelationSet(CTX, FAMILY, b_polys)
    )
    a, b = RelationSet(CTX, FAMILY, a_polys), RelationSet(CTX, FAMILY, b_polys)
    if kept in ("a", "both"):
        a.basis()
    if kept in ("b", "both"):
        b.basis()
    assert tuple(row_space_compare(a, b)) == want


def gens():
    return [NCPoly.gen(CTX, g) for g in FAMILY]


def test_full_image_rank_decides_equal_without_a_second_basis():
    x, y, z, _ = gens()
    a = RelationSet(CTX, FAMILY, [x * y, y * z])
    b = RelationSet(CTX, FAMILY, [2 * (x * y) + y * z, CTX.parse("r/q") * (y * z) - x * y])
    a.basis()
    assert tuple(row_space_compare(a, b)) == ("equal", 2, 2, 2)
    assert b._basis is None
    # b's basis is kept and the first side's is not: that side's relations
    # are the ones tested
    b.basis()
    c = RelationSet(CTX, FAMILY, [y * z, x * y])
    assert tuple(row_space_compare(c, b)) == ("equal", 2, 2, 2)
    assert c._basis is None


def test_images_of_lower_rank_fall_back_to_the_union():
    # x y + (q - C) y z and x y have rank 2, their images rank 1
    x, y, z, _ = gens()
    a = RelationSet(CTX, FAMILY, [x * y, y * z])
    b = RelationSet(CTX, FAMILY, [x * y + VANISHING * (y * z), x * y])
    assert not _spans(a.basis(), b.polys)
    assert tuple(row_space_compare(a, b)) == ("equal", 2, 2, 2)
    assert b._basis is not None


def test_an_undefined_image_falls_back_to_the_union():
    x, y, z, _ = gens()
    a = RelationSet(CTX, FAMILY, [x * y, y * z])
    b = RelationSet(CTX, FAMILY, [x * y + SINGULAR * (y * z), y * z])
    assert mod_image(SINGULAR) is None
    assert not _spans(a.basis(), b.polys)
    assert tuple(row_space_compare(a, b)) == ("equal", 2, 2, 2)


def test_a_lower_exact_rank_is_not_equal():
    # 3 x y and 6 x y: one direction, whose pivot entry is not 1
    x, y, z, _ = gens()
    a = RelationSet(CTX, FAMILY, [x * y, y * z])
    b = RelationSet(CTX, FAMILY, [3 * (x * y), 6 * (x * y)])
    a.basis()
    assert tuple(row_space_compare(a, b)) == ("b_in_a", 2, 1, 2)


def test_every_relation_must_be_a_member():
    # z x and x y reach the kept rank mod PRIME, but z x is not in the span
    x, y, z, _ = gens()
    a = RelationSet(CTX, FAMILY, [x * y, y * z])
    b = RelationSet(CTX, FAMILY, [z * x, x * y, y * z])
    a.basis()
    assert tuple(row_space_compare(a, b)) == ("a_in_b", 2, 3, 3)


@bounded
@given(relation_lists(), keys)
def test_the_image_of_the_reduced_basis_is_the_reduced_basis_of_the_images(lists, key):
    # when the images have the exact rank and every entry of the exact
    # reduced basis has an image, the two reduced bases agree mod PRIME
    exact, image = SpanBasis(CTX, key), SpanBasis(ModP, key)
    for p in lists[0] + lists[1]:
        exact.add(p.terms)
        image.add({w: mod_image(c) for w, c in p.terms.items()})
    assert image.rank <= exact.rank
    assert all(0 <= v < PRIME for _, row in image.rows for v in row.values())
    if image.rank != exact.rank:
        return
    want = {p: {w: mod_image(c) for w, c in rest.items()} for p, rest in exact.reduced().items()}
    if any(v is None for rest in want.values() for v in rest.values()):
        return
    got = {p: {w: v % PRIME for w, v in rest.items()} for p, rest in image.reduced().items()}
    assert got == {p: {w: v for w, v in rest.items() if v} for p, rest in want.items()}
