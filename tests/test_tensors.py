"""Tests for sparse exact tensors, composition and the braid residual."""

import random

import pytest

from conftest import identity4, tensor_from_entries
from ncorep.errors import NotInvertible, ShapeMismatch
from ncorep.scalars import Context
from ncorep.tensors import (
    Tensor,
    compose,
    delta,
    from_matrix,
    invert2,
    invert4,
    invert_matrix,
    leg_embed,
    swap_lower,
    to_matrix,
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


def test_duplicate_entry_rejected():
    ctx = Context(["q"])
    with pytest.raises(ShapeMismatch):
        tensor_from_entries(ctx, 2, 1, 1, [((1, 1), "1"), ((1, 1), "2")])


def test_zero_entries_dropped():
    ctx = Context(["q"])
    t = tensor_from_entries(ctx, 2, 1, 1, [((1, 1), "q - q")])
    assert t.is_zero()
    assert t.entry_list() == []


def test_linear_ops():
    ctx = Context(["q"])
    q = ctx.gen("q")
    a = tensor_from_entries(ctx, 2, 1, 1, [((1, 1), "1"), ((1, 2), "q")])
    b = tensor_from_entries(ctx, 2, 1, 1, [((1, 2), "-q")])
    assert (a + b).get(1, 2).is_zero()
    assert (a - a).is_zero()
    assert a.map_entries(lambda v: v * q).get(1, 2) == q * q
    assert (-a).get(1, 1) == -ctx.one


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
    assert ybe_residual(braid_q(ctx)).is_zero()


def test_flip_satisfies_ybe():
    ctx = Context(["q"])
    flip = tensor_from_entries(ctx, 2, 2, 2, [
        ((1, 1, 1, 1), "1"), ((1, 2, 2, 1), "1"),
        ((2, 1, 1, 2), "1"), ((2, 2, 2, 2), "1"),
    ])
    assert ybe_residual(flip).is_zero()


def test_symmetrized_flip_fails_ybe_but_squares_to_identity():
    ctx = Context(["q"])
    bp = symmetrized_flip(ctx)
    assert not ybe_residual(bp).is_zero()
    assert compose(bp, bp) == identity4(ctx, 2)
    assert compose(bp, bp) != bp


def test_invert_matrix_random():
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
