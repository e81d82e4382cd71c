"""Tests for sparse exact tensors, composition, inversion and the braid residual."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    dense_invert,
    from_matrix,
    identity4,
    invert_matrix,
    leg_embed,
    tensor_from_entries,
    to_matrix,
)
from ncorep.errors import NotInvertible, ShapeMismatch
from ncorep.scalars import Context
from ncorep.tensors import (
    Tensor,
    _invert,
    compose,
    contract,
    delta,
    invert2,
    invert4,
    swap_lower,
    ybe_residual,
)


def braid_q(ctx):
    return from_matrix(ctx, 2, [
        ["1", "0", "0", "0"],
        ["0", "0", "q", "0"],
        ["0", "q", "1 - q^2", "0"],
        ["0", "0", "0", "1"],
    ])


def symmetrized_flip(ctx):
    # involutive deformation of the flip, scaled to unital diagonal
    c = "1/(q + q^-1)"
    return from_matrix(ctx, 2, [
        ["1", "0", "0", "0"],
        ["0", f"(q - q^-1)*({c})", f"2*({c})", "0"],
        ["0", f"2*({c})", f"(q^-1 - q)*({c})", "0"],
        ["0", "0", "0", "1"],
    ])


def test_entry_access_and_shape():
    ctx = Context(["q"])
    t = tensor_from_entries(ctx, 2, 1, 1, [((1, 2), "q")])
    assert t.get(1, 2) == ctx.gen("q")
    assert t.get(2, 1).is_zero()
    with pytest.raises(ShapeMismatch):
        t.get(1, 2, 1)
    with pytest.raises(ShapeMismatch):
        t.get(0, 1)
    with pytest.raises(ShapeMismatch):
        t.get(3, 1)
    # get validates only a miss: on a tensor that stores every in-range
    # index, a bad index must still raise
    full = Tensor(ctx, 2, 1, 1, {(i, k): ctx.one for i in (1, 2) for k in (1, 2)})
    for bad in ((1,), (1, 1, 1), (0, 1), (1, 3), (3, 3)):
        with pytest.raises(ShapeMismatch):
            full.get(*bad)


def test_duplicate_entry_rejected():
    ctx = Context(["q"])
    with pytest.raises(ShapeMismatch):
        tensor_from_entries(ctx, 2, 1, 1, [((1, 1), "1"), ((1, 1), "2")])


def test_zero_entries_dropped():
    ctx = Context(["q"])
    t = tensor_from_entries(ctx, 2, 1, 1, [((1, 1), "q - q")])
    assert t.entries == {}
    assert t.entry_list() == []


def test_linear_ops():
    ctx = Context(["q"])
    q = ctx.gen("q")
    # a Tensor's one entrywise map is substitute, whose result drops the
    # entries that became zero and keeps the others; its one linear operation
    # is -, which drops the entries that cancel
    a = tensor_from_entries(ctx, 2, 1, 1, [((1, 1), "1"), ((1, 2), "q"), ((2, 2), "q - 1")])
    assert (a - a).entries == {}
    assert (a - delta(ctx, 2)).entries == {(1, 2): q, (2, 2): q - 2}
    with pytest.raises(ShapeMismatch):
        a - identity4(ctx, 2)
    assert a.substitute([("q", 0)]).entries == {(1, 1): ctx.one, (2, 2): -ctx.one}
    assert a.substitute([("q", 1)]).entries == {(1, 1): ctx.one, (1, 2): ctx.one}
    assert a.substitute([("q", "q^2")]).get(1, 2) == q * q


def test_matrix_roundtrip():
    ctx = Context(["q"])
    b = braid_q(ctx)
    assert from_matrix(ctx, 2, to_matrix(b)) == b


def test_compose_contracts_in_order():
    ctx = Context(["q"])
    b = braid_q(ctx)
    i4 = identity4(ctx, 2)
    assert compose(b, i4) == b
    assert compose(i4, b) == b
    # compose matches matrix product in the (row=lower, col=upper) layout
    m = to_matrix(compose(b, b))
    mm = to_matrix(b)
    n = len(mm)
    prod = [[sum((mm[i][k] * mm[k][j] for k in range(n)), ctx.zero)
             for j in range(n)] for i in range(n)]
    assert m == prod


def test_results_have_as_many_upper_indices_as_lower():
    ctx = Context(["q"])
    b = braid_q(ctx)
    with pytest.raises(ShapeMismatch):
        contract("ijkl->ijk", b)
    with pytest.raises(ShapeMismatch):
        contract("ijk->ijk", b)  # a letter for each index of each factor
    # a (2,1) tensor composed with a (1,1) one would be a (2,1) tensor
    a = Tensor(ctx, 2, 2, 1, {(1, 2, 1): ctx.one})
    with pytest.raises(ShapeMismatch):
        compose(a, delta(ctx, 2))
    b = Tensor(ctx, 2, 1, 2, {(1, 2, 2): ctx.one})
    assert compose(a, b).entries == {(1, 2, 2, 2): ctx.one}


def test_delta_and_identity():
    ctx = Context(["q"])
    d = delta(ctx, 2)
    assert d.get(1, 1) == ctx.one
    assert d.get(1, 2).is_zero()
    i4 = identity4(ctx, 2)
    assert i4.get(1, 2, 1, 2) == ctx.one
    assert i4.get(1, 2, 2, 1).is_zero()


def test_swap_lower():
    ctx = Context(["q"])
    b = braid_q(ctx)
    r = swap_lower(b)
    assert r.get(1, 2, 1, 2) == b.get(2, 1, 1, 2)
    assert swap_lower(r) == b


def test_leg_embed_spectator():
    ctx = Context(["q"])
    b = braid_q(ctx)
    b12 = leg_embed(b, (1, 2))
    b23 = leg_embed(b, (2, 3))
    # leg 3 untouched by the (1,2) embedding
    assert b12.get(1, 2, 1, 2, 1, 1) == b.get(1, 2, 2, 1)
    assert b12.get(1, 2, 1, 2, 1, 2).is_zero()
    assert b23.get(1, 1, 2, 1, 2, 1) == b.get(1, 2, 2, 1)


def test_braid_satisfies_ybe():
    ctx = Context(["q"])
    assert not ybe_residual(braid_q(ctx))


def test_flip_satisfies_ybe():
    ctx = Context(["q"])
    flip = tensor_from_entries(ctx, 2, 2, 2, [
        ((1, 1, 1, 1), "1"), ((1, 2, 2, 1), "1"),
        ((2, 1, 1, 2), "1"), ((2, 2, 2, 2), "1"),
    ])
    assert not ybe_residual(flip)


def test_symmetrized_flip_fails_ybe_but_squares_to_identity():
    ctx = Context(["q"])
    bp = symmetrized_flip(ctx)
    assert ybe_residual(bp)
    assert compose(bp, bp) == identity4(ctx, 2)
    assert compose(bp, bp) != bp


def test_invert_matrix_random():
    # the dense reference that _invert is compared with
    ctx = Context(["q"])
    rng = random.Random(23)
    for _ in range(8):
        n = rng.randint(1, 4)
        m = [[ctx.scalar(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            m[i][i] = m[i][i] + ctx.gen("q")  # push away from singularity
        try:
            inv = invert_matrix(ctx, m)
        except NotInvertible:
            continue
        prod = [[sum((m[i][k] * inv[k][j] for k in range(n)), ctx.zero)
                 for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(n):
                assert prod[i][j] == (ctx.one if i == j else ctx.zero)


def test_invert_matrix_singular():
    ctx = Context(["q"])
    one = ctx.one
    with pytest.raises(NotInvertible):
        invert_matrix(ctx, [[one, one], [one, one]])


CTX = Context(["q", "p"])
VALUES = ("1", "-1", "2", "q", "1/p", "q^2 - 1", "(q - 1)/(p - 1)")
SMALL = ("1", "-1", "2", "q")  # a dense 9 x 9 inverse over VALUES takes seconds


@st.composite
def square_tensors(draw):
    """A (1,1) or (2,2) tensor of dim 2 or 3, sparse or dense, often singular.

    A dense draw fills every entry; a sparse one leaves each entry out with
    probability about one half.  Half of the draws are made singular: one
    lower row is copied onto another, scaled, or left empty.  The 9 x 9 tables draw from
    SMALL.
    """
    k, dim = draw(st.sampled_from(((1, 2), (1, 3), (2, 2), (2, 3))))
    values = st.sampled_from(SMALL if (k, dim) == (2, 3) else VALUES)
    dense = draw(st.booleans())
    keys = list(itertools.product(range(1, dim + 1), repeat=k))
    entries = {}
    for i in keys:
        for j in keys:
            if dense or draw(st.booleans()):
                entries[i + j] = CTX.parse(draw(values))
    singular = draw(st.sampled_from((None, None, "copy", "empty")))
    src, dst = draw(st.lists(st.sampled_from(keys), min_size=2, max_size=2, unique=True))
    if singular == "copy":
        c = CTX.parse(draw(values))
        for j in keys:
            entries.pop(dst + j, None)
            if src + j in entries:
                entries[dst + j] = c * entries[src + j]
    elif singular == "empty":
        for j in keys:
            entries.pop(dst + j, None)
    return Tensor(CTX, dim, k, k, entries)


@settings(max_examples=100, deadline=None, database=None)
@given(square_tensors())
def test_invert_matches_the_dense_reference(a):
    try:
        want = dense_invert(a)
    except NotInvertible:
        with pytest.raises(NotInvertible):
            _invert(a, a.nlower)
        return
    got = _invert(a, a.nlower)
    assert got == want
    assert got.entry_list() == want.entry_list()
    if a.nlower == 2:
        assert compose(a, got) == identity4(CTX, a.dim)


def test_singular_tables_do_not_invert():
    ctx = Context(["q"])
    # the pivot falls in the identity part only on a later row
    b = from_matrix(ctx, 2, [
        ["1", "q", "0", "0"], ["0", "1", "0", "0"], ["1", "0", "0", "0"], ["0", "0", "1", "1"],
    ])
    for a in (b, tensor_from_entries(ctx, 2, 1, 1, [((1, 1), "q"), ((2, 1), "1")])):
        with pytest.raises(NotInvertible):
            _invert(a, a.nlower)
    with pytest.raises(NotInvertible):
        invert4(b)
    with pytest.raises(ShapeMismatch):
        invert4(delta(ctx, 2))
    with pytest.raises(ShapeMismatch):
        invert2(b)


def test_invert4_roundtrip():
    ctx = Context(["q"])
    b = braid_q(ctx)
    binv = invert4(b)
    assert compose(b, binv) == identity4(ctx, 2)
    assert compose(binv, b) == identity4(ctx, 2)


def test_invert2_roundtrip():
    ctx = Context(["q", "p", "r", "s"])
    rho = tensor_from_entries(ctx, 2, 1, 1, [
        ((1, 1), "1"), ((1, 2), "r/s"),
        ((2, 1), "-s/p"), ((2, 2), "(1 - r)/p"),
    ])
    rhobar = invert2(rho)
    prod_entries = {}
    for i in (1, 2):
        for j in (1, 2):
            acc = ctx.zero
            for k in (1, 2):
                acc = acc + rho.get(i, k) * rhobar.get(k, j)
            if not acc.is_zero():
                prod_entries[(i, j)] = acc
    assert prod_entries == {(1, 1): ctx.one, (2, 2): ctx.one}


def test_substitute_entrywise():
    ctx = Context(["q"])
    b = braid_q(ctx)
    b1 = b.substitute([("q", 1)])
    flip_plus = tensor_from_entries(ctx, 2, 2, 2, [
        ((1, 1, 1, 1), "1"), ((1, 2, 2, 1), "1"),
        ((2, 1, 1, 2), "1"), ((2, 2, 2, 2), "1"),
    ])
    assert b1 == flip_plus
