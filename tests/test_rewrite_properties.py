"""Property tests of the rewriting layer against references kept in
conftest.

normal_form, which keeps each word's leftmost reduction on its
RewriteSystem, against the worklist reducer that keeps nothing.  The systems
are the oriented qplane_qprs ideal (not confluent), the oriented qplane_qp
ideal and its extension by the determinant symbols.  Each system is built
once and shared by all examples, so later examples also read forms that
earlier ones kept.

normal_form, _form and confluence_check against the versions kept in
conftest from before kept forms were combined without unit products and
before overlaps were found by their first letter: the same forms, and the
same ambiguity words, in the same order, with the same residual strings, on
random relation sets, the shipped systems under random orders and the
multiparameter quantum GL(n) family of dims 2 and 3.

orient, the reduced echelon basis of the relation span, against the queue
that inter-reduced one relation at a time (reference_orient): random
relation sets over the 2 x 2 matrix family, drawn as combinations of a
shared pool so that relations collapse and rules interact, under random
term orders; and the shipped inputs, the triangular GL(3) input and random
orders of qplane_qprs.  The rules must be equal as dicts, and print the
same.
"""

import functools
import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    load,
    multiparameter_text,
    reference_confluence_check,
    reference_form,
    reference_normal_form,
    reference_orient,
    worklist_normal_form,
)
from ncorep.cli import Workspace, parse_algebra_file
from ncorep.freealg import NCPoly, RelationSet, T
from ncorep.rewrite import (
    RewriteSystem,
    TermOrder,
    confluence_check,
    extend_with_determinant,
    normal_form,
    orient,
)
from ncorep.scalars import Context

COEFFS = ("1", "-2", "q", "1/p", "q^2 - 1", "p*q + 1")


@functools.lru_cache(maxsize=None)
def system(name):
    base = "qplane_qp" if name == "qplane_qp+det" else name
    ws = load(base)
    rs = ws.rewrite_system()
    if name == "qplane_qp+det":
        # the commutations that verify_antipode adjoins the symbol with
        factors = ("1", "1/p^2", "p^2", "1")
        comm = [(g, ws.ctx.parse(f)) for g, f in zip(ws.gens, factors)]
        rs = extend_with_determinant(rs, ws.determinant(), comm)
    return rs


SYSTEMS = ("qplane_qprs", "qplane_qp", "qplane_qp+det")


@st.composite
def combinations(draw):
    rs = system(draw(st.sampled_from(SYSTEMS)))
    alphabet = rs.alphabet()
    word = st.lists(st.sampled_from(alphabet), min_size=2, max_size=4).map(tuple)
    terms = draw(st.lists(st.tuples(word, st.sampled_from(COEFFS)), min_size=1, max_size=4))
    poly = NCPoly.zero(rs.ctx)
    for w, c in terms:
        poly = poly + NCPoly.term(rs.ctx, w, rs.ctx.parse(c))
    return rs, poly


@settings(max_examples=60, deadline=None)
@given(combinations())
def test_kept_forms_match_worklist_reduction(case):
    rs, x = case
    got = normal_form(x, rs)
    want = worklist_normal_form(x, rs)
    assert got.terms == want.terms
    assert str(got) == str(want)
    assert got.terms == reference_normal_form(x, rs).terms
    forms = {}
    for w in x.terms:
        assert rs._form(w) == reference_form(rs, w, forms)


@settings(max_examples=30, deadline=None)
@given(combinations(), st.sampled_from(COEFFS))
def test_second_query_survives_caller_arithmetic(case, coeff):
    rs, x = case
    first = normal_form(x, rs)
    c = rs.ctx.parse(coeff)
    # caller arithmetic on the returned form: a product with one more
    # letter, not a square, whose cost would grow with the form's length
    grown = (c * first + first) * NCPoly.gen(rs.ctx, rs.alphabet()[0])
    assert grown.is_zero() == first.is_zero()
    for w in list(first.terms):
        first.terms[w] = first.terms[w] * c + 1
    first.terms[()] = c
    second = normal_form(x, rs)
    assert second.terms == worklist_normal_form(x, rs).terms
    assert second.terms is not first.terms


CTX = Context(["q", "p"])
FAMILY = tuple(T(i, j) for i in (1, 2) for j in (1, 2))
WORDS = list(itertools.product(FAMILY, repeat=2))
coefficients = st.sampled_from(COEFFS).map(CTX.parse)
polys = st.lists(st.tuples(st.sampled_from(WORDS), coefficients), min_size=1, max_size=4).map(
    lambda terms: sum((NCPoly.term(CTX, w, c) for w, c in terms), NCPoly.zero(CTX))
)


@st.composite
def relation_sets(draw):
    """A relation set of pool relations and their combinations, and an order."""
    pool = draw(st.lists(polys, min_size=1, max_size=6))
    weights = st.one_of(st.just(CTX.zero), coefficients)
    combos = draw(st.lists(st.lists(weights, min_size=len(pool), max_size=len(pool)), max_size=3))
    mixed = [sum((w * p for w, p in zip(ws, pool)), NCPoly.zero(CTX)) for ws in combos]
    order = TermOrder(draw(st.permutations(FAMILY)))
    return RelationSet(CTX, FAMILY, pool + mixed), order


def assert_same_rules(relations, order):
    got, want = orient(relations, order), reference_orient(relations, order)
    assert got.rules == want.rules
    assert [(l, str(r)) for l, r in got.rule_list()] == [(l, str(r)) for l, r in want.rule_list()]


@settings(max_examples=100, deadline=None, database=None)
@given(relation_sets())
def test_orient_matches_the_queue_on_random_relations(case):
    assert_same_rules(*case)


@settings(max_examples=20, deadline=None, database=None)
@given(st.permutations(FAMILY))
def test_orient_matches_the_queue_under_random_orders(precedence):
    assert_same_rules(load("qplane_qprs").relations(), TermOrder(precedence))


def triangular_gl3():
    """The seed-1 GL(3) input with rho_11 = q, rho_22 = p, rho_33 = 1/q and
    rho_ij = 1 for i < j: its 36 rules interact."""
    text = (Path(__file__).parent / "golden" / "gl3_seed1.alg").read_text(encoding="utf-8")
    head = text[: text.index("rho 1 1")]
    rho = {(1, 1): "q", (2, 2): "p", (3, 3): "1/q", (1, 2): "1", (1, 3): "1", (2, 3): "1"}
    return head + "".join('rho %d %d = "%s"\n' % (i, j, v) for (i, j), v in rho.items())


@pytest.mark.parametrize(
    "name", ["qplane_qprs", "qplane_qp", "qplane_frt", "spectral_demo", "gl3_triangular"]
)
def test_orient_matches_the_queue_on_inputs(name, tmp_path):
    if name == "gl3_triangular":
        path = tmp_path / "gl3_triangular.alg"
        path.write_text(triangular_gl3(), encoding="utf-8")
        ws = Workspace(parse_algebra_file(str(path)))
    else:
        ws = load(name)
    assert_same_rules(ws.relations(), ws.order)


def assert_same_ambiguities(rs, maxdeg=3):
    """confluence_check against the reference, on a fresh copy of rs whose
    kept forms start empty."""
    got = confluence_check(RewriteSystem(rs.ctx, rs.order, rs.rules), maxdeg)
    want = reference_confluence_check(rs, maxdeg)
    assert got["confluent"] == want["confluent"]
    assert [(w, str(p)) for w, p in got["ambiguities"]] == [
        (w, str(p)) for w, p in want["ambiguities"]
    ]
    return got


@settings(max_examples=60, deadline=None, database=None)
@given(relation_sets(), st.integers(2, 4))
def test_confluence_matches_the_reference_on_random_relations(case, maxdeg):
    relations, order = case
    assert_same_ambiguities(orient(relations, order), maxdeg)


@pytest.mark.parametrize("name", SYSTEMS + ("qplane_frt", "spectral_demo"))
def test_confluence_matches_the_reference_on_shipped_systems(name):
    out = assert_same_ambiguities(system(name))
    # the overlaps of qplane_qprs, and of the determinant symbols with each
    # other, do not all resolve
    assert out["confluent"] == (name not in ("qplane_qprs", "qplane_qp+det"))


@settings(max_examples=15, deadline=None, database=None)
@given(st.permutations(FAMILY), st.sampled_from(("qplane_qprs", "qplane_qp", "spectral_demo")))
def test_confluence_matches_the_reference_under_random_orders(precedence, name):
    order = TermOrder(precedence)
    assert_same_ambiguities(orient(load(name).relations(), order))


MONOMIALS = ("q", "-q", "p", "1/q", "-1/p", "q*p", "q/p", "q^2")


@settings(max_examples=8, deadline=None, database=None)
@given(st.sampled_from((2, 3)), st.data())
def test_confluence_matches_the_reference_on_the_multiparameter_family(
    tmp_path_factory, n, data
):
    # the family is confluent under its default order; a random order gives
    # systems that are not
    rho = [data.draw(st.sampled_from(MONOMIALS)) for _ in range(n)]
    pairs = itertools.combinations(range(1, n + 1), 2)
    t = {ij: data.draw(st.sampled_from(("t%d%d" % ij, "1", "q"))) for ij in pairs}
    path = tmp_path_factory.mktemp("mp") / "mp.alg"
    path.write_text(multiparameter_text(n, rho, t), encoding="utf-8")
    ws = Workspace(parse_algebra_file(str(path)))
    rs = ws.rewrite_system()
    if data.draw(st.booleans()):
        rs = orient(ws.relations(), TermOrder(data.draw(st.permutations(ws.gens))))
    assert_same_ambiguities(rs)
