"""The braid residual by modular image, against the dense exact residual.

tensors.ybe_residual decides a row of A12 A23 A12 - A23 A12 A23 from the
images of A's entries in F_P when every key of the row has a nonzero image,
and computes the other rows exactly.  These tests require its nonzero
positions to equal the entries of the whole exact residual, composed from
leg-embedded copies of A in tests/conftest.py, on tables whose rows are
decided, undecided or both: the entries come from a pool with zeros,
Laurent monomials and multi-term denominators, and many tables are
perturbed braid solutions, so that structurally present sums cancel.  One
table has an entry whose denominator vanishes at the image point, so every
row must be computed exactly.
"""

import itertools
import random

from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import dense_ybe_residual, load
from ncorep.bialg import braid_form, twist_R
from ncorep.modp import ModP
from ncorep.scalars import POINT, PRIME, Context, mod_image
from ncorep.tensors import Tensor, _braid_rows, _by_lower, swap_lower, ybe_residual

CTX = Context(["p", "q"])
POOL = (
    "0", "0", "1", "-1", "2", "q", "1/q", "p^-2", "-p/q", "1 - q^2",
    "1/(q^2 + 1)", "q^2/(q^2 + 1)", "(q - 1)/(p - 1)", "(p - 1)/(q - 1)",
)


def hecke(n, q):
    """The quantum GL(n) exchange tensor in braid form, a braid solution."""
    entries = {(i, i, i, i): CTX.one for i in range(1, n + 1)}
    for i, j in itertools.combinations(range(1, n + 1), 2):
        entries[(i, j, j, i)] = entries[(j, i, i, j)] = q
        entries[(j, i, j, i)] = 1 - q * q
    return entries


def table(n, rnd):
    """A (2,2) table: a braid solution (a weighted flip or the Hecke tensor,
    conjugated by a diagonal change of basis) or nothing, then a few entries
    set to pool values."""
    kind = rnd.randrange(3)
    rng = range(1, n + 1)
    if kind == 0:
        entries = {(i, j, j, i): CTX.parse(rnd.choice(POOL[2:])) for i in rng for j in rng}
    elif kind == 1:
        entries = hecke(n, CTX.parse(rnd.choice(("q", "1/q", "q/(q^2 + 1)"))))
        d = [CTX.parse(rnd.choice(("1", "q", "p^-1", "q^2 + 1"))) for _ in rng]
        entries = {
            (i, j, k, l): v * d[k - 1] * d[l - 1] / (d[i - 1] * d[j - 1])
            for (i, j, k, l), v in entries.items()
        }
    else:
        entries = {}
    for _ in range(rnd.randrange(4 if kind < 2 else 12)):
        idx = tuple(rnd.randint(1, n) for _ in range(4))
        entries[idx] = CTX.parse(rnd.choice(POOL))
    return Tensor(CTX, n, 2, 2, entries)


def row_kinds(a):
    """For each lower triple with keys: 'decided' when every key has a
    nonzero image, 'mixed' when some do, 'zero' when none does."""
    rows = {}
    lows = list(itertools.product(range(1, a.dim + 1), repeat=3))
    for key, v in sorted(_braid_rows(_by_lower(a, mod_image), lows, ModP).items()):
        rows.setdefault(key[:3], []).append(not ModP.is_zero(v))
    return [
        "decided" if all(nonzero) else "mixed" if any(nonzero) else "zero"
        for nonzero in rows.values()
    ]


def matches_reference(a):
    return ybe_residual(a) == sorted(dense_ybe_residual(a).entries)


def check(a):
    for kind in set(row_kinds(a)):
        event("dim %d: %s rows" % (a.dim, kind))
    assert matches_reference(a)


@settings(max_examples=100, deadline=None, database=None)
@given(st.randoms(use_true_random=False))
def test_dim2_residual_matches_the_dense_reference(rnd):
    check(table(2, rnd))


@settings(max_examples=30, deadline=None, database=None)
@given(st.integers(0, 2 ** 32))
def test_seeded_dim3_residual_matches_the_dense_reference(seed):
    check(table(3, random.Random(seed)))


def test_fixed_tables_have_every_kind_of_row():
    # a Hecke tensor with one entry added: some rows cancel exactly, some
    # do not, and some rows hold keys of both kinds
    entries = hecke(2, CTX.gen("q"))
    entries[(1, 2, 1, 2)] = CTX.parse("1/(q^2 + 1)")
    a = Tensor(CTX, 2, 2, 2, entries)
    assert {"decided", "mixed", "zero"} <= set(row_kinds(a))
    assert matches_reference(a)
    # the image of -1 is PRIME - 1, so the sum that cancels in row (1, 1, 2)
    # is PRIME before it is reduced
    x = CTX.parse("q^2/(q^2 + 1)")
    entries = {(1, 2, 2, 1): x, (1, 2, 2, 2): 1, (1, 2, 2, 3): -1, (1, 3, 2, 1): x, (2, 2, 3, 2): "q"}
    a = Tensor(CTX, 3, 2, 2, {idx: CTX.scalar(v) for idx, v in entries.items()})
    assert row_kinds(a)[0] == "mixed" and matches_reference(a)
    for seed in range(6):
        assert matches_reference(table(3, random.Random(seed)))


def test_vanishing_denominator_computes_every_row_exactly():
    # q is the second parameter, so q - POINT[1] vanishes at the point; the
    # weighted flip satisfies the braid identity whatever its weights, and
    # the changed entry makes some rows nonzero
    bad = CTX.parse("1/(q - %d)" % POINT[1])
    assert mod_image(bad) is None
    rng = range(1, 3)
    entries = {(i, j, j, i): bad if i < j else CTX.parse("q - %d" % POINT[1]) for i in rng for j in rng}
    a = Tensor(CTX, 2, 2, 2, entries)
    assert _by_lower(a, mod_image) is None
    assert ybe_residual(a) == [] == sorted(dense_ybe_residual(a).entries)
    entries[(1, 2, 1, 2)] = bad * bad
    a = Tensor(CTX, 2, 2, 2, entries)
    assert ybe_residual(a) != [] and matches_reference(a)


def test_image_decides_every_row_of_the_twisted_exchange_residual():
    # the four-parameter input's twisted tensor fails the identity in all
    # 64 entries, and the image proves each of them
    ws = load("qplane_qprs")
    phi = ws.pair_form()
    a = swap_lower(twist_R(braid_form(phi.pres, ws.B), phi))
    assert set(row_kinds(a)) == {"decided"}
    assert len(ybe_residual(a)) == 64 == len(dense_ybe_residual(a).entries)
