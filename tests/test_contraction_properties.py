"""Differential tests: the sparse contractions against the dense index loops.

Every contraction of the corep, bialg and tensors modules runs over the
nonzero entries of its tables only.  tensors.contract is drawn against a
dense einsum over every index tuple, on sparse and dense tables of dims 2
and 3, with specs of each kind: permutations, partial traces, outer
products, one or two shared letters, and a letter repeated within a factor
and across the factors.  The first-slot weight and its commutation with B
are compared with the dense loops that computed them before.  Each test here draws a random sparse
table and requires the result to equal that of the dense loop over every
index, kept in tests/conftest.py, exactly and in the same order: violation
lists, residual dicts (key order included), relation polynomials in order,
M's entries in order, and every verdict.  Tables are dim 2 and dim 3; the
twists include invalid ones and factorizations of non-diagonal character
tables, and the braid tensors include perturbed ones.  The cocycle check is
also drawn over arbitrary pair-form tables, sparse, dense, perturbed
character forms and singular ones, since every character form satisfies
the identity and leaves its residual path untested.  The integrability
contraction is drawn over the inverses of more heavily perturbed braid
tensors, with the twist's own weight or a random one.  The coideal check's
residuals are compared with the commutator of B and M's group-like defect,
also for a multiple of the identity B, which makes Rel = 0 for any M.
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
    dense_contract,
    dense_contracted_relation,
    dense_relation_entries,
    dense_tilde_images,
    dense_twisted_product_relations,
    dense_validate_theta,
    dense_weight_commutation_holds,
    dense_weighted_trace,
    entry,
)
from ncorep.bialg import (
    LinearForm,
    Presentation,
    braid_form,
    character_pair_form,
    cocycle_check,
    tilde_images,
    twisted_product_relations,
)
from ncorep.corep import (
    build_M,
    check_grouplike,
    coideal_check,
    factorized_theta,
    grouplike_defect,
    relation_entries,
    validate_theta,
)
from ncorep.errors import NCorepError, NotInvertible
from ncorep.freealg import NCPoly, PairPoly, T
from ncorep.integrable import _add_contracted_relation, weight_commutation_holds, weighted_trace
from ncorep.report import Report, passfail
from ncorep.scalars import Context
from ncorep.tensors import Tensor, compose, contract, invert4

CTX = Context(["q", "p"])
bounded = settings(max_examples=12, deadline=None, database=None)

units = st.sampled_from(["1", "-1", "2", "q", "1/q", "p", "-p/q"])
VALUES = ("1", "-1", "q", "p", "1 - q", "1/3", "q^2 + 1")
values = st.sampled_from(VALUES)


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
        factorized_theta(rho)
    except NotInvertible:
        assume(False)
    return rho


def perturbed(draw, t):
    """The 4-index tensor t with one or two entries redrawn."""
    entries = dict(t.entries)
    for idx in draw(st.lists(positions(t.dim, 4), min_size=1, max_size=2)):
        entries[idx] = CTX.parse(draw(values))
    return Tensor(CTX, t.dim, 2, 2, entries)


@st.composite
def cases(draw):
    """(rho, theta, B): theta factorizes rho unless it was perturbed, and B
    is the GL(n) exchange tensor, perturbed at up to two entries."""
    n = draw(st.sampled_from((2, 3)))
    rho = draw(rho_tables(n))
    theta = factorized_theta(rho)
    if draw(st.booleans()):
        theta = perturbed(draw, theta)
    B = gl_braid(n)
    if draw(st.booleans()):
        B = perturbed(draw, B)
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
    got, want = validate_theta(theta), dense_validate_theta(theta)
    assert got["valid"] == want["valid"]
    assert got["violations"] == want["violations"]
    assert tilde_images(theta) == dense_tilde_images(CTX, theta)
    M, dense_M = build_M(theta), dense_build_M(theta)
    assert list(M.entries.items()) == list(dense_M.entries.items())
    defect = grouplike_defect(M)
    assert check_grouplike(defect) == dense_check_grouplike(M)
    rel = relation_entries(B, M)
    assert list(rel.items()) == list(dense_relation_entries(B, M).items())
    assert coideal_check(B, defect) == dense_coideal_check(B, M)
    # the spectral variant: a label-swapped matrix in the second slot
    labels = ("lam", "mu")
    M1, M2 = build_M(theta, labels), build_M(theta, labels[::-1])
    assert list(M2.entries.items()) == list(dense_build_M(theta, labels[::-1]).entries.items())
    spectral = relation_entries(B, M1, M2)
    assert list(spectral.items()) == list(dense_relation_entries(B, M1, M2).items())


@st.composite
def coideal_cases(draw):
    """(theta, B) from cases(), or a perturbed theta with B a multiple of the
    identity tensor: then Rel = 0, and the coideal check passes however far
    M is from group-like."""
    rho, theta, B = draw(cases())
    if draw(st.booleans()):
        theta = perturbed(draw, theta)
        c = CTX.parse(draw(units))
        pairs = itertools.product(range(1, rho.dim + 1), repeat=2)
        B = Tensor(CTX, rho.dim, 2, 2, {(i, j, i, j): c for i, j in pairs})
    return theta, B


@bounded
@given(coideal_cases())
def test_coideal_residuals_are_the_commutator_with_the_defect(case):
    # for every B and M, with M's defect (G, E) (the corep module docstring):
    #   Delta(Rel) - sum_rs (Rel^rs (x) M_rs + M^rs (x) Rel_rs) = B G - G B
    #   counit(Rel) = B E - E B
    theta, B = case
    M = build_M(theta)
    pres = Presentation(CTX, M.dim)
    rng = range(1, M.dim + 1)
    Gt, Et = grouplike_defect(M)
    assert (Gt.nlower, Gt.nupper, Et.nlower, Et.nupper) == (2, 2, 2, 2)
    none = PairPoly(CTX)

    def defect(*idx):
        return Gt.entries.get(idx, none), Et.get(*idx)

    for i, j, k, l in itertools.product(rng, repeat=4):
        x = entry(M, i, j, k, l)
        G = pres.coproduct(x)
        for r, s in itertools.product(rng, repeat=2):
            G = G - PairPoly.tensor(entry(M, i, j, r, s), entry(M, r, s, k, l))
        E = pres.counit(x) - (CTX.one if (i, j) == (k, l) else CTX.zero)
        assert defect(i, j, k, l) == (G, E)
    rel = dense_relation_entries(B, M)
    for (i, j, k, l), r in rel.items():
        lhs = pres.coproduct(r)
        for a, b in itertools.product(rng, repeat=2):
            lhs = lhs - PairPoly.tensor(rel[(i, j, a, b)], entry(M, a, b, k, l))
            lhs = lhs - PairPoly.tensor(entry(M, i, j, a, b), rel[(a, b, k, l)])
        rhs, eps = PairPoly(CTX), CTX.zero
        for m, nn in itertools.product(rng, repeat=2):
            G, E = defect(m, nn, k, l)
            rhs, eps = rhs + G.scale(B.get(i, j, m, nn)), eps + B.get(i, j, m, nn) * E
            G, E = defect(i, j, m, nn)
            rhs, eps = rhs - G.scale(B.get(m, nn, k, l)), eps - E * B.get(m, nn, k, l)
        assert lhs == rhs
        assert pres.counit(r) == eps
    assert check_grouplike((Gt, Et)) == (not Gt.entries and not Et.entries)
    assert check_grouplike((Gt, Et)) == dense_check_grouplike(M)
    assert coideal_check(B, (Gt, Et)) == dense_coideal_check(B, M)


@st.composite
def weights(draw, n):
    """A weight that passes through every exchange tensor (a multiple of the
    identity) or a random table, which mostly does not."""
    if draw(st.booleans()):
        c = CTX.parse(draw(units))
        return Tensor(CTX, n, 1, 1, {(i, i): c for i in range(1, n + 1)})
    return draw(rho_tables(n))


@bounded
@given(cases(), st.data())
def test_weight_contractions_match_dense_loops(case, data):
    rho, theta, B = case
    w = weighted_trace(theta)
    assert w == dense_weighted_trace(theta)
    for w in (w, data.draw(weights(rho.dim))):
        assert weight_commutation_holds(B, w) == dense_weight_commutation_holds(B, w)


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
    got = outcome(twisted_product_relations, braid_form(pres, B), build_M(theta))
    want = outcome(dense_twisted_product_relations, pres, braid_form(pres, B), theta)
    if isinstance(want, type):
        assert got is want
    else:
        assert got.polys == want.polys


# dense values are constants and q, which keeps a dense dim-3 inverse cheap
DENSE_VALUES = ("0", "1", "-1", "2", "1/3", "q")


@st.composite
def pair_tables(draw):
    """(n, entries) of a (2,2) pair-form table.

    The table is sparse (units on the diagonal of the 4-index matrix plus up
    to four entries), dense, or a character form with one or two entries
    redrawn; a character form itself satisfies the cocycle identity.  One
    table in four loses every entry of one lower pair, which makes it
    singular.
    """
    n = draw(st.sampled_from((2, 3)))
    kind = draw(st.sampled_from(("sparse", "dense", "character")))
    if kind == "sparse":
        pairs = itertools.product(range(1, n + 1), repeat=2)
        entries = {(i, j, i, j): CTX.parse(draw(units)) for i, j in pairs}
        for idx in draw(st.lists(positions(n, 4), max_size=4)):
            entries[idx] = CTX.parse(draw(values))
    elif kind == "dense":
        idxs = list(itertools.product(range(1, n + 1), repeat=4))
        coeffs = draw(st.lists(st.sampled_from(DENSE_VALUES), min_size=len(idxs), max_size=len(idxs)))
        entries = {idx: CTX.parse(c) for idx, c in zip(idxs, coeffs)}
    else:
        base = character_pair_form(Presentation(CTX, n), draw(rho_tables(n))).base
        entries = perturbed(draw, base).entries
    if draw(st.integers(0, 3)) == 0:
        row = draw(positions(n, 2))
        entries = {idx: v for idx, v in entries.items() if idx[:2] != row}
    return n, entries


@bounded
@given(pair_tables())
def test_cocycle_check_matches_dense_loop(table):
    n, entries = table
    pres = Presentation(CTX, n)
    # each check gets its own tensor, so neither reads an inverse the other kept
    got = outcome(cocycle_check, LinearForm(pres, Tensor(CTX, n, 2, 2, entries)))
    want = outcome(dense_cocycle_check, LinearForm(pres, Tensor(CTX, n, 2, 2, entries)))
    if isinstance(want, dict):
        assert got["holds"] == want["holds"]
        assert list(got["residuals"].items()) == list(want["residuals"].items())
    else:
        assert got is want is NotInvertible


LABELS = ("lam", "mu")


@st.composite
def contractions(draw):
    """(B^-1, w, entries) for the integrability contraction.

    B is the GL(n) exchange tensor perturbed at two to six entries, and
    invertible.  w is theta's first-slot trace or a random table.  The
    entries are the labeled relation entries of theta, or a table with a
    distinct word in every entry, so that every term of the contraction
    lands on its own word.
    """
    rho, theta, _ = draw(cases())
    n = rho.dim
    B = dict(gl_braid(n).entries)
    for idx in draw(st.lists(positions(n, 4), min_size=2, max_size=6)):
        B[idx] = CTX.parse(draw(values))
    try:
        Binv = invert4(Tensor(CTX, n, 2, 2, B))
    except NotInvertible:
        assume(False)
    w = weighted_trace(theta) if draw(st.booleans()) else draw(rho_tables(n))
    if draw(st.booleans()):
        M1, M2 = build_M(theta, LABELS), build_M(theta, LABELS[::-1])
        entries = relation_entries(Tensor(CTX, n, 2, 2, B), M1, M2)
    else:
        idxs = list(itertools.product(range(1, n + 1), repeat=4))
        coeff = st.sampled_from(("0",) + VALUES)
        coeffs = draw(st.lists(coeff, min_size=len(idxs), max_size=len(idxs)))
        entries = {
            (i, j, m, nn): NCPoly.term(CTX, (T(i, j, "lam"), T(m, nn, "mu")), CTX.parse(c))
            for (i, j, m, nn), c in zip(idxs, coeffs)
        }
    return Binv, w, entries


# the contraction is cheap, and a term that only some tensors reach needs
# many draws: about one in ten inverse tensors has a given off-diagonal entry
@settings(max_examples=100, deadline=None, database=None)
@given(contractions())
def test_integrability_contraction_matches_dense_loop(case):
    Binv, w, entries = case
    rep = Report("contraction")
    commutator = _add_contracted_relation(rep, "contraction", Binv, w, entries, LABELS)
    want_commutator, diff = dense_contracted_relation(Binv, w, entries, LABELS)
    assert commutator == want_commutator
    (item,) = rep.items
    assert item["status"] == passfail(diff.is_zero())
    assert item["residuals"] == ([] if diff.is_zero() else [str(diff)])


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
    t = Tensor(CTX, 2, 1, 1, {(2, 1): q, (1, 2): q * 2, (1, 1): CTX.zero, (2, 2): CTX.one})
    assert t.index((0,)) == {(1,): [((1, 2), q * 2)], (2,): [((2, 1), q), ((2, 2), CTX.one)]}
    assert t.index([1]) is t.index((1,))
    assert t.index((1, 0))[(1, 2)] == [((2, 1), q)]


LETTERS = "ijklmnop"


@st.composite
def einsums(draw):
    """(spec, a, b) of one kind: a permutation, a partial trace, an outer
    product, one or two letters shared by the factors, or a letter repeated
    within a factor and across the factors.  The result keeps an even number
    of letters; a letter missing from it is summed over."""
    kind = draw(st.sampled_from(("permutation", "trace", "outer", "shared", "repeated")))
    if kind == "permutation":
        names = [LETTERS[: draw(st.sampled_from((2, 4, 6)))]]
    elif kind == "trace":
        names = ["".join(draw(st.permutations("ii" + LETTERS[1 : draw(st.sampled_from((3, 5)))])))]
    elif kind == "outer":
        names = ["ij", LETTERS[2 : draw(st.sampled_from((4, 6)))]]
    elif kind == "shared":
        a = "".join(draw(st.permutations("ijkl")))
        common = draw(st.sampled_from((1, 2)))
        own = "mnop"[: draw(st.sampled_from((2, 4))) - common]
        names = [a, "".join(draw(st.permutations(a[:common] + own)))]
    else:
        a = "".join(draw(st.permutations("iijk")))
        b = draw(st.sampled_from(("il", "ji", "iill", "ijlm", "kk")))
        names = [a, "".join(draw(st.permutations(b)))]
    letters = list(dict.fromkeys("".join(names)))
    if kind in ("trace", "shared"):  # sum over each letter that occurs twice
        letters = [c for c in letters if "".join(names).count(c) == 1]
    letters = draw(st.permutations(letters))
    if kind == "repeated":
        letters = letters[: draw(st.integers(1, len(letters) // 2)) * 2]
    n = draw(st.sampled_from((2, 3)))
    dense = draw(st.booleans())
    tables = []
    for name in names:
        idxs = list(itertools.product(range(1, n + 1), repeat=len(name)))
        if not dense:
            idxs = draw(st.lists(st.sampled_from(idxs), max_size=8, unique=True))
        coeff = st.sampled_from(("0",) + VALUES)
        coeffs = draw(st.lists(coeff, min_size=len(idxs), max_size=len(idxs)))
        half = len(name) // 2
        tables.append(Tensor(CTX, n, half, half, {i: CTX.parse(c) for i, c in zip(idxs, coeffs)}))
    spec = "%s->%s" % (",".join(names), "".join(letters))
    return (spec, *tables) if len(tables) == 2 else (spec, tables[0], None)


@settings(max_examples=120, deadline=None, database=None)
@given(einsums())
def test_contract_matches_dense_einsum(case):
    spec, a, b = case
    got, want = contract(spec, a, b), dense_contract(spec, a, b)
    assert (got.nlower, got.nupper) == (want.nlower, want.nupper)
    assert got.entries == want.entries
