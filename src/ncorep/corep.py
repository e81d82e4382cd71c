"""Twisted coactions on quantum linear spaces and the matrix they generate.

A twisting tensor theta replaces the flip in the usual tensor-product
coaction: the coordinate that crosses a matrix generator picks up

    T_i^j  |->  theta_im^jn T_n^m.

Validity of theta is two entrywise identities over the function field
(a coassociativity-type quadratic one and a counit-type trace one); a
valid theta makes

    M_ij^kl = T_i^k theta_jn^lm T_m^n

a group-like matrix, and the span of (B M - M B) a coideal whose quotient
coacts on the underlying quadratic algebra.

Every identity here is an index contraction, and the tables it contracts
are mostly zeros (a diagonal character table on dim 3 gives 9 nonzero
theta entries out of 81).  So each sum runs only over the terms whose
tensor factors are nonzero, found through Tensor.index, and each sum of
polynomials is built in one dict whose zero coefficients are dropped once.
This changes no result: a skipped term has a zero factor, so its product
is zero, and every stored Scalar is canonical, so adding zero returns the
other summand unchanged.  The field is exact, so neither does the order in
which the terms are added.  The outer loops keep their index order, so
violation lists and residual dicts come out in the same order as from the
dense loops over every index.
"""

import itertools

from .bialg import Presentation, tilde_images
from .errors import InvalidTheta, ShapeMismatch
from .freealg import (
    NCPoly,
    PairPoly,
    RelationSet,
    T,
    add_terms,
    apply_hom,
    e,
    poly_vector,
    tensor_terms,
    xi,
)
from .tensors import Tensor, invert2


class ThetaMap:
    """A twisting tensor, optionally remembered together with a factorization."""

    def __init__(self, tensor: Tensor, rho=None, rhobar=None):
        if tensor.nlower != 2 or tensor.nupper != 2:
            raise ShapeMismatch("twisting tensor must have two lower and two upper legs")
        self.tensor = tensor
        self.rho = rho
        self.rhobar = rhobar
        self._validation = None
        self._images = None
        if rho is not None:
            if rhobar is None:
                raise ValueError("factorized map needs both rho and its inverse")
            n = tensor.dim
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    for k in range(1, n + 1):
                        for l in range(1, n + 1):
                            if tensor.get(i, j, k, l) != rho.get(i, l) * rhobar.get(j, k):
                                raise InvalidTheta(
                                    "tensor entry (%d,%d,%d,%d) does not match the declared factorization"
                                    % (i, j, k, l)
                                )

    @property
    def dim(self):
        return self.tensor.dim

    def validate(self):
        if self._validation is None:
            self._validation = validate_theta(self.tensor)
        return self._validation

    def images(self):
        """The generator images T_i^j |-> theta_im^jn T_n^m, computed once."""
        if self._images is None:
            self._images = tilde_images(self.tensor.ctx, self.tensor)
        return self._images


def require_valid(theta: ThetaMap) -> ThetaMap:
    """theta itself; InvalidTheta when one of its identities fails."""
    res = theta.validate()
    if not res["valid"]:
        raise InvalidTheta(
            "twisting tensor fails %d validity identities" % len(res["violations"])
        )
    return theta


def factorized_theta(ctx, rho: Tensor) -> ThetaMap:
    """theta_ij^kl = rho_i^l rhobar_j^k from an invertible 2-index table."""
    rhobar = invert2(rho)
    entries = {
        (i, j, k, l): a * b
        for (i, l), a in rho.entries.items()
        for (j, k), b in rhobar.entries.items()
    }
    return ThetaMap(Tensor(ctx, rho.dim, 2, 2, entries), rho=rho, rhobar=rhobar)


def validate_theta(t: Tensor):
    """Check the two structural identities; violations come back as data.

    coassociativity:  sum_p theta_ij^pl theta_pk^rs - delta_j^s theta_ik^rl = 0
    counit:           sum_n theta_jn^kn - delta_j^k = 0
    """
    ctx = t.ctx
    n = t.dim
    rng = range(1, n + 1)
    violations = []
    by_ijl = t.index((0, 1, 3))
    with ctx.products():
        for i, j, k, r, s, l in itertools.product(rng, repeat=6):
            acc = ctx.zero
            for (_, _, p, _), a in by_ijl.get((i, j, l), ()):
                b = t.entries.get((p, k, r, s))
                if b is not None:
                    acc = acc + a * b
            if j == s:
                acc = acc - t.get(i, k, r, l)
            if not acc.is_zero():
                violations.append(("coassociativity", (i, j, k, r, s, l), acc))
    for j in rng:
        for k in rng:
            acc = ctx.zero
            for nn in rng:
                acc = acc + t.get(j, nn, k, nn)
            if j == k:
                acc = acc - ctx.one
            if not acc.is_zero():
                violations.append(("counit", (j, k), acc))
    return {"valid": not violations, "violations": violations}


class MMatrix:
    """The n^2 x n^2 matrix of degree-2 words generated by a twisting tensor."""

    def __init__(self, ctx, dim, entries, labels=None):
        self.ctx = ctx
        self.dim = dim
        self.entries = entries  # (i,j,k,l) -> NCPoly
        self.labels = labels
        self.pres = Presentation(ctx, dim)  # its coproduct memo serves every check on M

    def get(self, i, j, k, l) -> NCPoly:
        return self.entries.get((i, j, k, l), NCPoly.zero(self.ctx))

    def family(self):
        n = self.dim
        labels = self.labels if self.labels is not None else (None, None)
        fam = []
        for lab in dict.fromkeys(labels):
            fam.extend(T(i, j, lab) for i in range(1, n + 1) for j in range(1, n + 1))
        return fam


def build_M(theta: ThetaMap, labels=None) -> MMatrix:
    """M_ij^kl = T_i^k theta_jn^lm T_m^n, optionally with a spectral label pair.

    theta is not validated; a caller that needs that calls require_valid.
    """
    t = theta.tensor
    ctx = t.ctx
    n = t.dim
    lab1, lab2 = labels if labels is not None else (None, None)
    entries = {}
    by_jl = t.index((0, 2))
    for i, j, k, l in itertools.product(range(1, n + 1), repeat=4):
        group = by_jl.get((j, l))
        if group:  # the words T_i^k T_m^n of one entry are distinct
            entries[(i, j, k, l)] = NCPoly(
                ctx, {(T(i, k, lab1), T(m, nn, lab2)): c for (_, nn, _, m), c in group}
            )
    return MMatrix(ctx, n, entries, labels)


def check_grouplike(M: MMatrix) -> bool:
    """Delta(M) = M (x) M entrywise together with counit(M) = identity."""
    pres = M.pres
    rng = range(1, M.dim + 1)
    with M.ctx.products():
        for i, j, k, l in itertools.product(rng, repeat=4):
            rhs = {}
            for r, s in itertools.product(rng, repeat=2):
                left, right = M.entries.get((i, j, r, s)), M.entries.get((r, s, k, l))
                if left is not None and right is not None:
                    add_terms(rhs, tensor_terms(left, right))
            x = M.get(i, j, k, l)
            if pres.coproduct(x) != PairPoly(M.ctx, rhs):
                return False
            eps = pres.counit(x)
            want = M.ctx.one if (i == k and j == l) else M.ctx.zero
            if eps != want:
                return False
    return True


def relation_entries(B: Tensor, M: MMatrix, M_second: MMatrix = None) -> dict:
    """The entries (B M - M_second B)_ij^kl keyed by (i, j, k, l) in lexicographic order.

    M_second defaults to M; the spectral variant passes the label-swapped matrix.
    """
    if B.dim != M.dim or B.nlower != 2 or B.nupper != 2:
        raise ShapeMismatch("braid tensor shape does not match the matrix")
    if M_second is None:
        M_second = M
    rows, cols = B.index((0, 1)), B.index((2, 3))
    entries = {}
    for i, j, k, l in itertools.product(range(1, M.dim + 1), repeat=4):
        acc = {}
        for (_, _, m, nn), c in rows.get((i, j), ()):
            x = M.entries.get((m, nn, k, l))
            if x is not None:
                add_terms(acc, ((w, v * c) for w, v in x.terms.items()))
        for (m, nn, _, _), c in cols.get((k, l), ()):
            x = M_second.entries.get((i, j, m, nn))
            if x is not None:
                add_terms(acc, ((w, -(v * c)) for w, v in x.terms.items()))
        entries[(i, j, k, l)] = NCPoly(M.ctx, acc)
    return entries


def generate_ideal(B: Tensor, M: MMatrix) -> RelationSet:
    """Entries of B M - M B as degree-2 relations (identity parts cancel)."""
    return RelationSet(M.ctx, M.family(), relation_entries(B, M).values())


def coideal_check(B: Tensor, M: MMatrix) -> bool:
    """The relation matrix Rel = B M - M B satisfies

        Delta(Rel_ij^kl) = sum_rs Rel_ij^rs (x) M_rs^kl + sum_rs M_ij^rs (x) Rel_rs^kl

    together with counit(Rel) = 0, so the span of Rel generates a coideal.
    """
    ctx = M.ctx
    pres = M.pres
    rng = range(1, M.dim + 1)
    with ctx.products():
        rel = relation_entries(B, M)
        for (i, j, k, l), r in rel.items():
            rhs = {}
            for a, b in itertools.product(rng, repeat=2):
                x = M.entries.get((a, b, k, l))
                if x is not None:
                    add_terms(rhs, tensor_terms(rel[(i, j, a, b)], x))
                y = M.entries.get((i, j, a, b))
                if y is not None:
                    add_terms(rhs, tensor_terms(y, rel[(a, b, k, l)]))
            if pres.coproduct(r) != PairPoly(ctx, rhs):
                return False
            if not pres.counit(r).is_zero():
                return False
    return True


def coaction_word(gamma: ThetaMap, indices):
    """Coaction of a coordinate word: each crossing applies one more twist.

    Returns {output index tuple: NCPoly coefficient}; the j-th coordinate
    contributes a generator twisted j-1 times.
    """
    if not gamma.validate()["valid"]:
        raise InvalidTheta("coaction requires a valid twisting tensor")
    ctx = gamma.tensor.ctx
    images = gamma.images()
    out = {(): NCPoly.one(ctx)}
    for pos, i in enumerate(indices):
        nxt = {}  # each (key, k) extends to its own key, so nothing is summed
        for k in range(1, gamma.dim + 1):
            gen = NCPoly.gen(ctx, T(i, k))
            for _ in range(pos):
                gen = apply_hom(gen, images)
            for key, coef in out.items():
                c = coef * gen
                if not c.is_zero():
                    nxt[key + (k,)] = c
        out = nxt
    return out


class QuadraticSpace:
    """A quadratic coordinate algebra: n coordinates modulo degree-2 relations."""

    def __init__(self, ctx, dim, parity="bosonic", relations=None, braid=None):
        if parity not in ("bosonic", "grassmann"):
            raise ValueError("parity must be bosonic or grassmann")
        self.ctx = ctx
        self.dim = dim
        self.parity = parity
        mk = xi if parity == "grassmann" else e
        self.coord = mk
        rels = []
        if braid is not None:
            if braid.dim != dim:
                raise ShapeMismatch("braid dimension does not match the space")
            rows = braid.index((0, 1))
            for i, j in itertools.product(range(1, dim + 1), repeat=2):
                p = {(mk(i), mk(j)): ctx.one}
                add_terms(p, (((mk(k), mk(l)), -c) for (_, _, k, l), c in rows.get((i, j), ())))
                p = NCPoly(ctx, p)
                if not p.is_zero():
                    rels.append(p)
        if relations:
            rels.extend(relations)
        if parity == "grassmann":
            for i in range(1, dim + 1):
                rels.append(NCPoly.gen(ctx, mk(i)) * NCPoly.gen(ctx, mk(i)))
        self.relations = RelationSet(ctx, [mk(i) for i in range(1, dim + 1)], rels)

    def reduce_vector(self, vec):
        """Eliminate relation pivots from {coordinate word: NCPoly} exactly."""
        return self.relations.basis()._reduce(vec)


def homomorphism_check(space: QuadraticSpace, gamma, relations: RelationSet) -> bool:
    """Coacting on each space relation must land in the relation ideal.

    The coordinate part is reduced modulo the space's own relation span;
    every surviving matrix-coefficient must lie in the Scalar span of the
    given degree-2 relations.
    """
    basis = relations.basis()
    for p in space.relations:
        vec = {}  # coordinate word -> {matrix word: Scalar}
        for w, c in p.terms.items():
            co = coaction_word(gamma, tuple(g.index[0] for g in w))
            for outidx, coef in co.items():
                word = tuple(space.coord(i) for i in outidx)
                add_terms(vec.setdefault(word, {}), ((u, v * c) for u, v in coef.terms.items()))
        vec = {word: NCPoly(space.ctx, terms) for word, terms in vec.items()}
        for residual in space.reduce_vector(vec).values():
            if not basis.contains(poly_vector(residual)):
                return False
    return True
