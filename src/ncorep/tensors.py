"""Dense-indexed tensors of Scalars and the braid-equation machinery.

A Tensor has a fixed number of lower and upper indices, each running
1..dim.  The composition convention throughout the package contracts the
upper indices of the left factor against the lower indices of the right
factor, in order:

    (A x B)_{ij}^{rs} = sum_{kl} A_{ij}^{kl} B_{kl}^{rs}

Four-index tensors linearize to dim^2 x dim^2 matrices with row (i,j) and
column (k,l) ordered lexicographically, i.e. the basis e_1(x)e_1,
e_1(x)e_2, e_2(x)e_1, e_2(x)e_2 for dim 2.  Conversion between the two
index conventions in use for solutions of the quantum Yang-Baxter
equation (braid form vs R-form) is the explicit swap_lower operation,
never an implicit relabeling.

Only nonzero entries are stored, and contractions iterate over them:
index(positions) groups a tensor's entries by the indices at the given
positions, so a sum over a contracted index visits only the terms whose
factor from that tensor is nonzero.
"""

from __future__ import annotations

import itertools

from .errors import NotInvertible, ShapeMismatch
from .freealg import add_terms
from .scalars import Context

class Tensor:
    __slots__ = ("ctx", "dim", "nlower", "nupper", "entries", "_groups")

    def __init__(self, ctx: Context, dim: int, nlower: int, nupper: int, entries=None):
        self.ctx = ctx
        self.dim = dim
        self.nlower = nlower
        self.nupper = nupper
        self.entries = {}
        if entries:
            for idx, val in entries.items():
                self._check_idx(idx)
                if not val.is_zero():
                    self.entries[tuple(idx)] = val
        self._groups = {}

    def _check_idx(self, idx):
        if len(idx) != self.nlower + self.nupper:
            raise ShapeMismatch(
                "index %r has wrong arity for (%d,%d) tensor" % (idx, self.nlower, self.nupper)
            )
        for i in idx:
            if not 1 <= i <= self.dim:
                raise ShapeMismatch("index %r out of range 1..%d" % (idx, self.dim))

    def get(self, *idx):
        v = self.entries.get(idx)
        if v is None:  # only a valid index can hit, so only a miss is checked
            self._check_idx(idx)
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

    def same_shape(self, other):
        return (
            self.dim == other.dim
            and self.nlower == other.nlower
            and self.nupper == other.nupper
        )

    def __add__(self, other):
        if not self.same_shape(other):
            raise ShapeMismatch("cannot add tensors of different shapes")
        out = dict(self.entries)
        add_terms(out, other.entries.items())
        return Tensor(self.ctx, self.dim, self.nlower, self.nupper, out)

    def __neg__(self):
        return Tensor(
            self.ctx, self.dim, self.nlower, self.nupper,
            {idx: -v for idx, v in self.entries.items()},
        )

    def __sub__(self, other):
        return self + (-other)

    def is_zero(self):
        return not self.entries

    def __eq__(self, other):
        return (
            isinstance(other, Tensor)
            and self.same_shape(other)
            and self.entries == other.entries
        )

    def map_entries(self, f):
        return Tensor(
            self.ctx, self.dim, self.nlower, self.nupper,
            {idx: f(v) for idx, v in self.entries.items()},
        )

    def substitute(self, bindings):
        return self.map_entries(lambda v: v.substitute(bindings))

    def entry_list(self):
        """Sorted sparse entries [(i1,...,kN), canonical string] for reports."""
        return [[list(idx), str(v)] for idx, v in sorted(self.entries.items())]

    def __str__(self):
        body = ", ".join(
            "%s: %s" % (",".join(map(str, idx)), v) for idx, v in sorted(self.entries.items())
        )
        return "Tensor(%d;%d,%d){%s}" % (self.dim, self.nlower, self.nupper, body)

    __repr__ = __str__


def delta(ctx, dim):
    return Tensor(ctx, dim, 1, 1, {(i, i): ctx.one for i in range(1, dim + 1)})


def compose(a: Tensor, b: Tensor) -> Tensor:
    """Contract all upper indices of a against all lower indices of b, in order."""
    if a.dim != b.dim or a.nupper != b.nlower:
        raise ShapeMismatch(
            "cannot compose (%d,%d) with (%d,%d)" % (a.nlower, a.nupper, b.nlower, b.nupper)
        )
    out = {}
    by_lower = b.index(range(b.nlower))
    for aidx, av in a.entries.items():
        add_terms(out, (
            (aidx[: a.nlower] + bidx[b.nlower:], av * bv)
            for bidx, bv in by_lower.get(aidx[a.nlower:], ())
        ))
    return Tensor(a.ctx, a.dim, a.nlower, b.nupper, out)


def swap_lower(a: Tensor) -> Tensor:
    """Exchange the two lower indices of a 4-index tensor.

    This is the conversion between the braid-form and R-form conventions
    for Yang-Baxter solutions: R_{ij}^{kl} = B_{ji}^{kl}.
    """
    if a.nlower != 2 or a.nupper != 2:
        raise ShapeMismatch("swap_lower needs a (2,2) tensor")
    return Tensor(
        a.ctx, a.dim, 2, 2,
        {(j, i, k, l): v for (i, j, k, l), v in a.entries.items()},
    )


def leg_embed(a: Tensor, legs) -> Tensor:
    """Embed a (2,2) tensor into a (3,3) tensor acting on the named legs.

    legs is one of (1,2), (2,3), (1,3); the remaining leg carries the
    identity."""
    if a.nlower != 2 or a.nupper != 2:
        raise ShapeMismatch("leg_embed needs a (2,2) tensor")
    legs = tuple(legs)
    if legs not in {(1, 2), (2, 3), (1, 3)}:
        raise ShapeMismatch("legs must be (1,2), (2,3) or (1,3), got %r" % (legs,))
    spectator = ({1, 2, 3} - set(legs)).pop()
    out = {}
    for (i1, i2, k1, k2), v in a.entries.items():
        for m in range(1, a.dim + 1):
            lower = [0, 0, 0]
            upper = [0, 0, 0]
            lower[legs[0] - 1], lower[legs[1] - 1] = i1, i2
            upper[legs[0] - 1], upper[legs[1] - 1] = k1, k2
            lower[spectator - 1] = upper[spectator - 1] = m
            out[tuple(lower) + tuple(upper)] = v
    return Tensor(a.ctx, a.dim, 3, 3, out)


def ybe_residual(a: Tensor) -> Tensor:
    """Braid-form Yang-Baxter residual A12 A23 A12 - A23 A12 A23 (zero iff satisfied)."""
    a12 = leg_embed(a, (1, 2))
    a23 = leg_embed(a, (2, 3))
    return compose(compose(a12, a23), a12) - compose(compose(a23, a12), a23)


def to_matrix(a: Tensor):
    """A (2,2) tensor as a dim^2 x dim^2 nested list, row (i,j) lex, column (k,l) lex."""
    if a.nlower != 2 or a.nupper != 2:
        raise ShapeMismatch("to_matrix needs a (2,2) tensor")
    pairs = list(itertools.product(range(1, a.dim + 1), repeat=2))
    return [[a.get(i, j, k, l) for (k, l) in pairs] for (i, j) in pairs]


def from_matrix(ctx, dim, rows) -> Tensor:
    pairs = list(itertools.product(range(1, dim + 1), repeat=2))
    if len(rows) != len(pairs) or any(len(r) != len(pairs) for r in rows):
        raise ShapeMismatch("matrix must be dim^2 x dim^2")
    out = {
        (i, j, k, l): ctx.scalar(rows[r][c])
        for r, (i, j) in enumerate(pairs)
        for c, (k, l) in enumerate(pairs)
    }
    return Tensor(ctx, dim, 2, 2, out)


def invert_matrix(ctx, rows):
    """Exact inverse of a square matrix of Scalars by Gaussian elimination."""
    n = len(rows)
    aug = [[ctx.scalar(v) for v in row] + [ctx.one if i == j else ctx.zero for j in range(n)]
           for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if not aug[r][col].is_zero()), None)
        if pivot is None:
            raise NotInvertible("matrix is singular over the scalar field")
        if pivot != col:
            aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [v / pv for v in aug[col]]
        for r in range(n):
            if r == col:
                continue
            f = aug[r][col]
            if f.is_zero():
                continue
            aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def invert4(a: Tensor) -> Tensor:
    """Inverse of a 4-index tensor under the composition convention."""
    inv = invert_matrix(a.ctx, to_matrix(a))
    return from_matrix(a.ctx, a.dim, inv)


def invert2(a: Tensor) -> Tensor:
    """Inverse of a 2-index tensor (a matrix M_i^k)."""
    if a.nlower != 1 or a.nupper != 1:
        raise ShapeMismatch("invert2 needs a (1,1) tensor")
    rows = [[a.get(i, k) for k in range(1, a.dim + 1)] for i in range(1, a.dim + 1)]
    inv = invert_matrix(a.ctx, rows)
    rng = range(1, a.dim + 1)
    return Tensor(a.ctx, a.dim, 1, 1, {(i, k): inv[i - 1][k - 1] for i in rng for k in rng})
