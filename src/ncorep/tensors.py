"""Dense-indexed tensors of Scalars and the braid-equation machinery.

Every table of the package is an endomorphism of a tensor power of the
coordinate space, so a Tensor has one order k: k lower indices followed by
k upper ones, each running 1..dim.  The exchange tensor, the twist, the
R-matrix, the pair forms and M with its defect have order 2, a character
table order 1, the cocycle contractions order 3.  The composition
convention throughout the package contracts the upper indices of the left
factor against the lower indices of the right factor, in order:

    (A x B)_{ij}^{rs} = sum_{kl} A_{ij}^{kl} B_{kl}^{rs}

A tensor of order k is the dim^k x dim^k matrix with row I its lower
indices and column K its upper ones: compose is the matrix product, and
invert4 and invert2 read the inverse off the reduced echelon form of
[A | 1], which freealg.SpanBasis computes.  Conversion between the two
index conventions in use for solutions of the quantum Yang-Baxter equation
(braid form vs R-form) is the explicit swap_lower operation, never an
implicit relabeling.

Every contraction of Scalar tables in the package is one contract call, an
einsum in index letters: contract("akrm,bmst->abkrst", phi, phi) is
sum_m phi_ak^rm phi_bm^st.  Each factor has a letter per index, lower ones
first; a repeated letter is an equality filter, a letter missing after the
arrow is summed over, and the result's first half of letters is lower, its
second half upper, so a result of odd length is a ShapeMismatch, and so is
a factor whose order does not fit its letters.  Only nonzero entries are
stored and visited: index(positions) groups the second factor's entries by
the letters it shares with the first, and the result is summed once
through add_terms, its keys in the order they are met.  The specs are a
fixed set of strings, so what a spec alone determines (_plan: the letters'
positions, the filters and the output getter) is worked out once per spec
and kept; the orders and dimensions of the given tensors are checked on
every call.

A table may also hold polynomials (PairPoly) when it is the first factor,
so that each product is a polynomial times a Scalar: corep.coideal_check
contracts the group-like defect with B.

Five sums stay written out.  The braid residual below also runs over ints
mod P and needs the keys of zero sums.  corep.build_M's T T products, the
M (x) M sum of corep.grouplike_defect, B M - M B in corep.relation_entries
and R M Rbar in bialg.twisted_product_relations multiply or sum words where
every entry is a polynomial, and through contract each product is one more
object and each addition one more dict copy: on a 2-vCPU host,
generate_ideal took 1.8 times as long on spectral_demo and 1.4 times on the
quantum GL(3) input, build_M about 2 times, and the 49 shipped commands 8%
longer; R M Rbar summed per word took half the time of the two contracts.

ybe_residual reports only where the braid residual is nonzero, and where it
can, it proves an entry nonzero by a modular image (scalars.mod_image)
instead of computing it.  It contracts the rows

    e_I A12 A23 A12 - e_I A23 A12 A23,

one for each lower triple I and each on its own, over A.index((0, 1)), and
runs that contraction twice: over the images of A's entries for every row,
then exactly over the Scalars for the rows the images leave open.  Zero
sums keep their keys in both runs, so a row has the same keys in each, and
only those keys can hold a nonzero entry.  The image run is exact where it
decides:

* evaluation at the point is a ring homomorphism on the fractions whose
  denominators do not vanish there;
* each residual entry is an integer polynomial in A's entries;
* so a nonzero image proves a nonzero entry, while a zero image decides
  nothing.

A row whose keys all have a nonzero image is decided: its keys are its
nonzero positions.  A row with a key whose image is zero is computed
exactly, and so is every row when some entry of A has a denominator that
vanishes at the point.  An image never decides that an entry is zero.
"""

from __future__ import annotations

import functools
import itertools
from operator import itemgetter

from .errors import NotInvertible, ShapeMismatch
from .freealg import SpanBasis, add_terms
from .modp import ModP
from .scalars import Context, mod_image

LETTERS = "abcdefghijklmnopqrstuvwxyz"  # index names for compose's spec


class Tensor:
    __slots__ = ("ctx", "dim", "k", "entries", "_groups", "_inverse")

    def __init__(self, ctx: Context, dim: int, k: int, entries=None):
        self.ctx = ctx
        self.dim = dim
        self.k = k
        entries = entries or {}
        arity, rng = 2 * k, set(range(1, dim + 1))
        if any(len(i) != arity for i in entries) or not set().union(*entries) <= rng:
            for idx in entries:  # names the first bad index
                _check_index(idx, arity, dim)
        self.entries = {tuple(idx): v for idx, v in entries.items() if not v.is_zero()}
        self._groups = {}
        self._inverse = None  # kept by invert4

    def get(self, *idx):
        v = self.entries.get(idx)
        if v is None:  # only a valid index can hit, so only a miss is checked
            _check_index(idx, 2 * self.k, self.dim)
            return self.ctx.zero
        return v

    def index(self, positions):
        """The nonzero entries grouped by their indices at positions.

        Maps each key (idx[p] for p in positions) to the sorted list of that
        key's (idx, value) pairs.  Built once per positions tuple: a tensor
        is never changed after __init__, so the kept groups stay exact.
        """
        positions = tuple(positions)
        groups = self._groups.get(positions)
        if groups is None:
            groups = self._groups[positions] = {}
            for idx, v in sorted(self.entries.items()):
                groups.setdefault(tuple(idx[p] for p in positions), []).append((idx, v))
        return groups

    def __eq__(self, other):
        return (
            isinstance(other, Tensor)
            and (self.dim, self.k) == (other.dim, other.k)
            and self.entries == other.entries
        )

    def __sub__(self, other):
        if (self.dim, self.k) != (other.dim, other.k):
            raise ShapeMismatch("cannot subtract tensors of different shapes")
        out = add_terms(dict(self.entries), ((idx, -v) for idx, v in other.entries.items()))
        return Tensor(self.ctx, self.dim, self.k, out)

    def substitute(self, bindings):
        return Tensor(
            self.ctx, self.dim, self.k,
            {idx: v.substitute(bindings) for idx, v in self.entries.items()},
        )

    def entry_list(self):
        """Sorted sparse entries [(i1,...,kN), canonical string] for reports."""
        return [[list(idx), str(v)] for idx, v in sorted(self.entries.items())]

    def __str__(self):
        body = ", ".join(
            "%s: %s" % (",".join(map(str, idx)), v) for idx, v in sorted(self.entries.items())
        )
        return "Tensor(%d;%d,%d){%s}" % (self.dim, self.k, self.k, body)

    __repr__ = __str__


def _check_index(idx, arity, dim):
    if len(idx) != arity:
        raise ShapeMismatch("index %r has wrong arity for an order-%d tensor" % (idx, arity // 2))
    for i in idx:
        if not 1 <= i <= dim:
            raise ShapeMismatch("index %r out of range 1..%d" % (idx, dim))


def delta(ctx, dim):
    return Tensor(ctx, dim, 1, {(i, i): ctx.one for i in range(1, dim + 1)})


def contract(spec: str, a: Tensor, b: Tensor = None) -> Tensor:
    """The einsum spec of a, or of a and b, over their nonzero entries.

    "jnkn->jk" is the trace sum_n a_jn^kn, "ijkl->jilk" a transposition and
    "il,jk->ijkl" an outer product (module docstring).
    """
    names, key, b_key, same, pick, k = _plan(spec)
    factors = (a,) if b is None else (a, b)
    if len(names) != len(factors) or any(
        len(name) != 2 * t.k or t.dim != a.dim for name, t in zip(names, factors)
    ):
        raise ShapeMismatch("%r does not fit the given tensors" % spec)
    if pick is None:
        raise ShapeMismatch("%r gives a result of odd length" % spec)
    # a single factor is contracted with the unit of no indices
    groups = {(): [((), a.ctx.one)]} if b is None else b.index(b_key)
    terms = add_terms({}, (
        (pick(idx), x * y)
        for i, x in a.entries.items()
        for j, y in groups.get(tuple(i[p] for p in key), ())
        for idx in (i + j,)
        if not same or all(idx[p] == idx[q] for p, q in same)
    ))
    return Tensor(a.ctx, a.dim, k, terms)


@functools.cache
def _plan(spec):
    """What contract reads from spec alone, once per spec string: the factor
    names, the positions in a's and in b's index of the letters they share,
    the equality filters, the output getter (None for an odd output) and
    the output's order."""
    inputs, out = spec.split("->")
    names = inputs.split(",")
    # letters by position in a's index followed by b's
    full, na = "".join(names), len(names[0])
    first = {c: full.index(c) for c in full}
    shared = [full.index(c, na) for c in dict.fromkeys(full[na:]) if first[c] < na]
    same = [(first[c], p) for p, c in enumerate(full) if p > first[c] and p not in shared]
    key, b_key = [first[full[p]] for p in shared], tuple(p - na for p in shared)
    pick = itemgetter(*[first[c] for c in out]) if out and not len(out) % 2 else None
    return names, key, b_key, same, pick, len(out) // 2


def compose(a: Tensor, b: Tensor) -> Tensor:
    """Contract all upper indices of a against all lower indices of b, in
    order; contract checks that b has a's order and dimension."""
    k = a.k
    lower, mid, upper = LETTERS[:k], LETTERS[k:2 * k], LETTERS[2 * k:3 * k]
    return contract("%s%s,%s%s->%s%s" % (lower, mid, mid, upper, lower, upper), a, b)


def swap_lower(a: Tensor) -> Tensor:
    """Exchange the two lower indices of an order-2 tensor.

    This is the conversion between the braid-form and R-form conventions
    for Yang-Baxter solutions: R_{ij}^{kl} = B_{ji}^{kl}.
    """
    return contract("jikl->ijkl", a)


def ybe_residual(a: Tensor) -> list:
    """The sorted positions (i1, i2, i3, k1, k2, k3) of the nonzero entries of
    the braid-form Yang-Baxter residual A12 A23 A12 - A23 A12 A23; empty iff
    A satisfies the braid identity.

    Each row is first computed over the modular images of A's entries and
    decided there when every key has a nonzero image; the other rows, or all
    of them when an entry's denominator vanishes at the point, are computed
    exactly (see the module docstring).
    """
    if a.k != 2:
        raise ShapeMismatch("ybe_residual needs an order-2 tensor")
    rows = list(itertools.product(range(1, a.dim + 1), repeat=3))
    out = []
    image = _by_lower(a, mod_image)
    if image is not None:
        res = _braid_rows(image, rows, ModP)
        open_rows = {key[:3] for key, v in res.items() if ModP.is_zero(v)}
        out = [key for key in res if key[:3] not in open_rows]
        rows = sorted(open_rows)
    ctx = a.ctx
    res = _braid_rows(_by_lower(a, lambda v: v), rows, ctx)
    out.extend(key for key, v in res.items() if not ctx.is_zero(v))
    return sorted(out)


def _by_lower(a, value):
    """{(i, j): [((k, l), value(A_ij^kl)), ...]} over A's nonzero entries, or
    None when value returns None for one of them (mod_image does when the
    entry's denominator vanishes at the point)."""
    out = {}
    for pair, entries in a.index((0, 1)).items():
        out[pair] = row = []
        for idx, v in entries:
            v = value(v)
            if v is None:
                return None
            row.append((idx[2:], v))
    return out


def _braid_rows(groups, rows, field):
    """Rows I in rows of A12 A23 A12 - A23 A12 A23 as {I + K: value}.

    groups holds A's entries by lower pair (_by_lower), as Scalars or as
    their images, and field is their field object: the Context, or
    modp.ModP for images, whose sums are left unreduced.  Each row starts
    as e_I, field.one at I + I, and is contracted on its own.  Sums that
    come to zero keep their key, so the keys are the same over both.
    """
    lhs = rhs = {row + row: field.one for row in rows}
    for leg in (0, 1, 0):  # A12 A23 A12 and A23 A12 A23
        lhs, rhs = _on_legs(groups, lhs, leg), _on_legs(groups, rhs, 1 - leg)
    return add_terms(lhs, ((key, -v) for key, v in rhs.items()))


def _on_legs(groups, vecs, leg):
    """Each I + K of vecs times A acting on legs leg + 1 and leg + 2 of K."""
    out = {}
    for key, x in vecs.items():
        head, pair, tail = key[:3 + leg], key[3 + leg:5 + leg], key[5 + leg:]
        add_terms(out, ((head + up + tail, x * v) for up, v in groups.get(pair, ())))
    return out


def _invert(a: Tensor, k) -> Tensor:
    """The inverse of a tensor of order k.  Row I of [A | 1] holds A_I^K at
    column (0,) + K and 1 at (1,) + I, so the A columns key lowest, and a
    pivot in the identity part means A is singular."""
    if a.k != k:
        raise ShapeMismatch("invert%d needs an order-%d tensor" % (2 * k, k))
    basis = SpanBasis(a.ctx, key=lambda col: col)
    rows = a.index(range(k))
    for lower in itertools.product(range(1, a.dim + 1), repeat=k):
        vec = {(0,) + idx[k:]: v for idx, v in rows.get(lower, ())}
        basis.add({**vec, (1,) + lower: a.ctx.one})
    if basis.rows[-1][0][0]:
        raise NotInvertible("matrix is singular over the scalar field")
    solved = basis.reduced().items()
    return Tensor(a.ctx, a.dim, k, {i[1:] + j[1:]: v for i, r in solved for j, v in r.items()})


def invert4(a: Tensor) -> Tensor:
    """Inverse of an order-2 tensor under the composition convention.

    Computed once per tensor and kept on it, like its index groups: a tensor
    is never changed after __init__, and an inversion that raised keeps
    nothing, so it raises again.
    """
    if a._inverse is None:
        a._inverse = _invert(a, 2)
    return a._inverse


def invert2(a: Tensor) -> Tensor:
    """Inverse of an order-1 tensor (a matrix M_i^k)."""
    return _invert(a, 1)
