"""Differential tests: the sparse contractions against the dense index loops.

Every contraction of the corep, bialg and tensors modules runs over the
nonzero entries of its tables only.  Each test here draws a random sparse
table and requires the result to equal that of the dense loop over every
index, kept in tests/conftest.py, exactly and in the same order: violation
lists, residual dicts (key order included), relation polynomials in order,
M's entries in order, and every verdict.  Tables are dim 2 and dim 3; the
twists include invalid ones and factorizations of non-diagonal character
tables, and the braid tensors include perturbed ones.
"""

import itertools

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    dense_build_M,
    dense_character_pair_form,
    dense_check_grouplike,
    dense_cocycle_check,
    dense_coideal_check,
    dense_compose,
    dense_relation_entries,
    dense_tilde_images,
    dense_twisted_product_relations,
    dense_validate_theta,
)
from ncorep.bialg import (
    Presentation,
    braid_form,
    character_pair_form,
    cocycle_check,
    tilde_images,
    twisted_product_relations,
)
from ncorep.corep import (
    ThetaMap,
    build_M,
    check_grouplike,
    coideal_check,
    factorized_theta,
    relation_entries,
    validate_theta,
)
from ncorep.errors import NCorepError, NotInvertible
from ncorep.scalars import Context
from ncorep.tensors import Tensor, compose

CTX = Context(["q", "p"])
bounded = settings(max_examples=12, deadline=None, database=None)

units = st.sampled_from(["1", "-1", "2", "q", "1/q", "p", "-p/q"])
values = st.sampled_from(["1", "-1", "q", "p", "1 - q", "1/3", "q^2 + 1"])


def gl_braid(n):
    """The quantum GL(n) exchange tensor of the benchmark's dim-3 input."""
    q = CTX.gen("q")
    entries = {(i, i, i, i): CTX.one for i in range(1, n + 1)}
    for i, j in itertools.combinations(range(1, n + 1), 2):
        entries[(i, j, j, i)] = entries[(j, i, i, j)] = q
        entries[(j, i, j, i)] = 1 - q * q
    return Tensor(CTX, n, 2, 2, entries)


def positions(n, arity):
    return st.tuples(*[st.integers(1, n)] * arity)


@st.composite
def rho_tables(draw, n):
    """A diagonal of units and up to three off-diagonal entries, invertible."""
    entries = {(i, i): CTX.parse(draw(units)) for i in range(1, n + 1)}
    for i, j in draw(st.lists(positions(n, 2), max_size=3)):
        if i != j:
            entries[(i, j)] = CTX.parse(draw(values))
    rho = Tensor(CTX, n, 1, 1, entries)
    try:
        factorized_theta(CTX, rho)
    except NotInvertible:
        assume(False)
    return rho


@st.composite
def cases(draw):
    """(rho, theta, B): theta factorizes rho unless it was perturbed, and B
    is the GL(n) exchange tensor, perturbed at up to two entries."""
    n = draw(st.sampled_from((2, 3)))
    rho = draw(rho_tables(n))
    theta = factorized_theta(CTX, rho)
    if draw(st.booleans()):
        entries = dict(theta.tensor.entries)
        for idx in draw(st.lists(positions(n, 4), min_size=1, max_size=2)):
            entries[idx] = CTX.parse(draw(values))
        theta = ThetaMap(Tensor(CTX, n, 2, 2, entries))
    B = gl_braid(n)
    if draw(st.booleans()):
        entries = dict(B.entries)
        for idx in draw(st.lists(positions(n, 4), min_size=1, max_size=2)):
            entries[idx] = CTX.parse(draw(values))
        B = Tensor(CTX, n, 2, 2, entries)
    return rho, theta, B


def outcome(f, *args):
    """f's result, or the type of the NCorepError it raised."""
    try:
        return f(*args)
    except NCorepError as err:
        return type(err)


@bounded
@given(cases())
def test_theta_and_matrix_match_dense_loops(case):
    rho, theta, B = case
    got, want = validate_theta(theta.tensor), dense_validate_theta(theta.tensor)
    assert got["valid"] == want["valid"]
    assert got["violations"] == want["violations"]
    assert tilde_images(CTX, theta.tensor) == dense_tilde_images(CTX, theta.tensor)
    assert theta.images() == dense_tilde_images(CTX, theta.tensor)
    M, dense_M = build_M(theta), dense_build_M(theta)
    assert list(M.entries.items()) == list(dense_M.entries.items())
    assert check_grouplike(M) == dense_check_grouplike(M)
    rel = relation_entries(B, M)
    assert list(rel.items()) == list(dense_relation_entries(B, M).items())
    assert coideal_check(B, M) == dense_coideal_check(B, M)
    # the spectral variant: a label-swapped matrix in the second slot
    labels = ("lam", "mu")
    M1, M2 = build_M(theta, labels), build_M(theta, labels[::-1])
    assert list(M2.entries.items()) == list(dense_build_M(theta, labels[::-1]).entries.items())
    spectral = relation_entries(B, M1, M2)
    assert list(spectral.items()) == list(dense_relation_entries(B, M1, M2).items())
    if theta.dim == 2:  # the dense dim-3 check takes a quarter second
        assert coideal_check(B, M1, M2) == dense_coideal_check(B, M1, M2)


@bounded
@given(cases())
def test_forms_and_twisted_relations_match_dense_loops(case):
    rho, theta, B = case
    pres = Presentation(CTX, rho.dim)
    phi = character_pair_form(pres, rho)
    dense_phi = dense_character_pair_form(pres, rho)
    assert phi.base == dense_phi.base
    got, want = outcome(cocycle_check, phi), outcome(dense_cocycle_check, dense_phi)
    if isinstance(want, dict):
        assert got["holds"] == want["holds"]
        assert list(got["residuals"].items()) == list(want["residuals"].items())
    else:
        assert got is want
    got = outcome(twisted_product_relations, pres, braid_form(pres, B), theta)
    want = outcome(dense_twisted_product_relations, pres, braid_form(pres, B), theta)
    if isinstance(want, type):
        assert got is want
    else:
        assert got.polys == want.polys


@st.composite
def composable(draw):
    n = draw(st.sampled_from((2, 3)))
    shapes = draw(st.sampled_from(((1, 1, 1), (2, 2, 2), (3, 3, 3), (2, 1, 2))))

    def tensor(nlower, nupper):
        idxs = draw(st.lists(positions(n, nlower + nupper), max_size=12))
        return Tensor(CTX, n, nlower, nupper, {i: CTX.parse(draw(values)) for i in idxs})

    return tensor(shapes[0], shapes[1]), tensor(shapes[1], shapes[2])


@settings(max_examples=40, deadline=None, database=None)
@given(composable())
def test_compose_matches_dense_loop(pair):
    a, b = pair
    assert compose(a, b) == dense_compose(a, b)


def test_index_groups_nonzero_entries_in_sorted_order():
    q = CTX.gen("q")
    t = Tensor(CTX, 2, 1, 1, {(2, 1): q, (1, 2): 2 * q, (1, 1): CTX.zero, (2, 2): CTX.one})
    assert t.index((0,)) == {(1,): [((1, 2), 2 * q)], (2,): [((2, 1), q), ((2, 2), CTX.one)]}
    assert t.index([1]) is t.index((1,))
    assert t.index((1, 0))[(1, 2)] == [((2, 1), q)]
