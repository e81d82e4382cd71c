"""Property tests for the corepresentation checks over random character tables.

A random invertible 2 x 2 table rho over QQ(q, p) gives the factorized
twist theta_ij^kl = rho_i^l rhobar_j^k.  For each table the twist is valid,
its matrix M is group-like, the span of B M - M B is a coideal and the
coaction on the quantum plane of B is an algebra map.  Rescaling one entry
of theta tests the other direction of the validity criterion.  Dense tables,
with four nonzero entries and a determinant that is not a monomial, give
scalars over shared non-monomial factors such as 1 - q and q^2 + 1.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import from_matrix, sympy_element, tensor_from_entries
from ncorep.corep import (
    QuadraticSpace,
    build_M,
    check_grouplike,
    coideal_check,
    factorized_theta,
    generate_ideal,
    homomorphism_check,
    validate_theta,
)
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
        CTX, 2, 1, 1, [((i, j), rows[i - 1][j - 1]) for i, j in INDICES]
    )


@st.composite
def dense_tables(draw):
    """rho with four nonzero entries whose determinant is not a monomial."""
    rows = [[CTX.parse(draw(dense_entries)) for _ in (1, 2)] for _ in (1, 2)]
    det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    fe = sympy_element(det)
    assume(len(fe.numer) > 1 or len(fe.denom) > 1)
    return tensor_from_entries(
        CTX, 2, 1, 1, [((i, j), rows[i - 1][j - 1]) for i, j in INDICES]
    )


def assert_coacting_grouplike(rho):
    theta = factorized_theta(rho)
    M = build_M(theta)
    assert validate_theta(theta)["valid"]
    assert check_grouplike(M)
    assert coideal_check(B, M)
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
    theta = Tensor(CTX, 2, 2, 2, scaled)
    valid = validate_theta(theta)["valid"]
    assert valid == check_grouplike(build_M(theta))
    if factor == "1":
        assert valid
