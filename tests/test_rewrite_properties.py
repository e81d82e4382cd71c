"""Property tests: normal_form, which keeps each word's leftmost reduction on
its RewriteSystem, against the worklist reducer that keeps nothing.

The systems are the oriented qplane_qprs ideal (not confluent), the oriented
qplane_qp ideal and its extension by the determinant symbols.  Each system is
built once and shared by all examples, so later examples also read forms
that earlier ones kept.
"""

import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import load, worklist_normal_form
from ncorep.freealg import NCPoly
from ncorep.rewrite import extend_with_determinant, normal_form

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
