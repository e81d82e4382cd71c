"""Property tests for the corepresentation checks over random character tables.

A random invertible 2 x 2 table rho over QQ(q, p) gives the factorized
twist theta_ij^kl = rho_i^l rhobar_j^k.  For each table the twist is valid,
its matrix M is group-like, the span of B M - M B is a coideal and the
coaction on the quantum plane of B is an algebra map.  Rescaling one entry
of theta tests the other direction of the validity criterion.  The group-like
defect, which decides Delta(M) = M (x) M without expanding Delta(M), is
compared with the expansion on matrices edited entry by entry, so that the
M (x) M sums miss pairs, glue wrong columns to rows or carry wrong
coefficients.  Dense tables,
with four nonzero entries and a determinant that is not a monomial, give
scalars over shared non-monomial factors such as 1 - q and q^2 + 1.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import expanded_grouplike_defect, from_matrix, sympy_element, tensor_from_entries
from ncorep.corep import (
    QuadraticSpace,
    build_M,
    check_grouplike,
    coideal_check,
    factorized_theta,
    generate_ideal,
    grouplike_defect,
    homomorphism_check,
    validate_theta,
)
from ncorep.freealg import NCPoly, T
from ncorep.scalars import Context
from ncorep.tensors import Tensor

CTX = Context(["q", "p"])
B = from_matrix(CTX, 2, [
    ["1", "0", "0", "0"],
    ["0", "0", "q", "0"],
    ["0", "q", "1 - q^2", "0"],
    ["0", "0", "0", "1"],
])
SPACE = QuadraticSpace(CTX, 2, braid=B)
INDICES = [(i, j) for i in (1, 2) for j in (1, 2)]

bounded = settings(max_examples=10, deadline=None, database=None)

units = st.sampled_from(["1", "-1", "2", "1/3", "q", "p", "-p/q"])
entries = st.sampled_from(["0", "1", "-1", "q", "p", "-p/q", "1 - q"])
dense_entries = st.sampled_from(["1 - q", "q^2 + 1", "p - 1", "1/3", "-p/q", "q", "2"])


@st.composite
def tables(draw):
    """rho = P L D U: a row swap, unit triangular factors and a diagonal of units.

    Every invertible table has this form, and det rho = +-x y keeps the
    inverse's denominators small.
    """
    x, y, a, b = (CTX.parse(draw(pool)) for pool in (units, units, entries, entries))
    rows = [[x, x * a], [b * x, b * x * a + y]]
    if draw(st.booleans()):
        rows.reverse()
    return tensor_from_entries(
        CTX, 2, 1, [((i, j), rows[i - 1][j - 1]) for i, j in INDICES]
    )


@st.composite
def dense_tables(draw):
    """rho with four nonzero entries whose determinant is not a monomial."""
    rows = [[CTX.parse(draw(dense_entries)) for _ in (1, 2)] for _ in (1, 2)]
    det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    fe = sympy_element(det)
    assume(len(fe.numer) > 1 or len(fe.denom) > 1)
    return tensor_from_entries(
        CTX, 2, 1, [((i, j), rows[i - 1][j - 1]) for i, j in INDICES]
    )


def assert_coacting_grouplike(rho):
    theta = factorized_theta(rho)
    M = build_M(theta)
    assert validate_theta(theta)["valid"]
    defect = grouplike_defect(M)
    assert check_grouplike(defect)
    assert coideal_check(B, defect)
    assert homomorphism_check(SPACE, M, generate_ideal(B, M))


@bounded
@given(rho=tables())
def test_character_table_gives_a_coacting_grouplike_matrix(rho):
    assert_coacting_grouplike(rho)


@bounded
@given(rho=dense_tables())
def test_dense_character_table_gives_a_coacting_grouplike_matrix(rho):
    assert_coacting_grouplike(rho)


@bounded
@given(rho=tables(), slot=st.integers(0, 15), factor=entries)
def test_validity_matches_grouplike_after_rescaling(rho, slot, factor):
    t = factorized_theta(rho)
    key = sorted(t.entries)[slot % len(t.entries)]
    scaled = dict(t.entries)
    scaled[key] = scaled[key] * CTX.parse(factor)
    theta = Tensor(CTX, 2, 2, scaled)
    valid = validate_theta(theta)["valid"]
    assert valid == check_grouplike(grouplike_defect(build_M(theta)))
    if factor == "1":
        assert valid


@st.composite
def edited_matrices(draw):
    """M of a random table with up to three entries edited: dropped, scaled,
    a term dropped, a word's letters transposed (T_i^j to T_j^i) or another
    entry copied in."""
    M = build_M(factorized_theta(draw(tables())))
    table = dict(M.entries)
    keys = sorted(table)
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(keys))
        x = table.get(key, NCPoly.zero(CTX))
        edit = draw(st.sampled_from(("drop", "scale", "term", "transpose", "copy")))
        if edit == "drop":
            table.pop(key, None)
        elif edit == "scale":
            table[key] = x * CTX.parse(draw(entries))
        elif edit == "term" and x.terms:
            w = draw(st.sampled_from(sorted(x.terms, key=str)))
            table[key] = NCPoly(CTX, {u: c for u, c in x.terms.items() if u != w})
        elif edit == "transpose":
            flip = {u: tuple(T(g.index[1], g.index[0]) for g in u) for u in x.terms}
            table[key] = NCPoly(CTX, {flip[u]: c for u, c in x.terms.items()})
        elif edit == "copy":
            table[key] = table.get(draw(st.sampled_from(keys)), x)
    return Tensor(CTX, 2, 2, {k: v for k, v in table.items() if not v.is_zero()})


@settings(max_examples=40, deadline=None, database=None)
@given(edited_matrices())
def test_defect_matches_the_expanded_coproduct(M):
    got, want = grouplike_defect(M), expanded_grouplike_defect(M)
    for g, w in zip(got, want):
        assert list(g.entries.items()) == list(w.entries.items())
