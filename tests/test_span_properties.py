"""Property test for the rank-only span comparison.

row_space_compare decides containment from three ranks.  The reference
below is the membership comparison it replaced: it reduces every relation
of each set against the other set's basis.  Random relation sets over the
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
from ncorep.rewrite import TermOrder
from ncorep.scalars import Context

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
def relation_lists(draw):
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
