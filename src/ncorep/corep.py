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

Both matrix checks read one defect of M, computed once per matrix:

    G_ij^kl = Delta(M_ij^kl) - sum_rs M_ij^rs (x) M_rs^kl
    E_ij^kl = counit(M_ij^kl) - delta_i^k delta_j^l

M is group-like exactly when G and E vanish.  The coideal check does not
assume that.  Expand Rel = B M - M B bilinearly, with B scalar:

    Delta(Rel_ij^kl) = sum_mn B_ij^mn Delta(M_mn^kl) - Delta(M_ij^mn) B_mn^kl
    sum_rs Rel_ij^rs (x) M_rs^kl = sum B_ij^mn M_mn^rs (x) M_rs^kl
                                 - sum M_ij^mn B_mn^rs (x) M_rs^kl
    sum_rs M_ij^rs (x) Rel_rs^kl = sum M_ij^rs (x) B_rs^mn M_mn^kl
                                 - sum M_ij^rs (x) M_rs^mn B_mn^kl

The two middle sums are the same sum (a scalar crosses the tensor sign),
so they cancel, and what is left is, for every B and every M,

    Delta(Rel) - sum_rs (Rel^rs (x) M_rs + M^rs (x) Rel_rs) = B G - G B
    counit(Rel) = B E - E B        (the delta part gives B 1 - 1 B = 0)

with B G contracted over B's upper pair and G's lower pair.  So the coideal
identity holds exactly when both right-hand sides vanish: always for a
group-like M, and otherwise only when B commutes with the defect.

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
    """A twisting tensor, with the character table it factors through when
    it was built by factorized_theta."""

    def __init__(self, tensor: Tensor, rho=None):
        if tensor.nlower != 2 or tensor.nupper != 2:
            raise ShapeMismatch("twisting tensor must have two lower and two upper legs")
        self.tensor = tensor
        self.rho = rho
        self._validation = None
        self._images = None

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
    return ThetaMap(Tensor(ctx, rho.dim, 2, 2, entries), rho=rho)


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
        self._defect = None

    def defect(self) -> dict:
        """grouplike_defect(self), computed once."""
        if self._defect is None:
            self._defect = grouplike_defect(self)
        return self._defect

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


def grouplike_defect(M: MMatrix) -> dict:
    """{(i, j, k, l): (G_ij^kl, E_ij^kl)} for the entries where either is nonzero.

    G = Delta(M) - M (x) M is a PairPoly and E = counit(M) - identity a Scalar;
    empty exactly when M is group-like.
    """
    ctx = M.ctx
    pres = M.pres
    rng = range(1, M.dim + 1)
    defect = {}
    with ctx.products():
        for i, j, k, l in itertools.product(rng, repeat=4):
            rhs = {}
            for r, s in itertools.product(rng, repeat=2):
                left, right = M.entries.get((i, j, r, s)), M.entries.get((r, s, k, l))
                if left is not None and right is not None:
                    add_terms(rhs, tensor_terms(left, right))
            x = M.get(i, j, k, l)
            lhs, rhs = pres.coproduct(x), PairPoly(ctx, rhs)
            eps = pres.counit(x) - (ctx.one if (i == k and j == l) else ctx.zero)
            if lhs != rhs or not eps.is_zero():
                defect[(i, j, k, l)] = (lhs - rhs, eps)
    return defect


def check_grouplike(M: MMatrix) -> bool:
    """Delta(M) = M (x) M entrywise together with counit(M) = identity."""
    return not M.defect()


def _commutator(B: Tensor, first: dict, second: dict, dim):
    """(key, terms) for each entry of B first - second B, keys in lexicographic order.

    first and second map (i, j, k, l) to an entry's {term: Scalar} dict, a
    missing key being a zero entry; the yielded dicts may hold zeros.
    """
    if B.dim != dim or B.nlower != 2 or B.nupper != 2:
        raise ShapeMismatch("braid tensor shape does not match the matrix")
    rows, cols = B.index((0, 1)), B.index((2, 3))
    for i, j, k, l in itertools.product(range(1, dim + 1), repeat=4):
        acc = {}
        for (_, _, m, nn), c in rows.get((i, j), ()):
            x = first.get((m, nn, k, l))
            if x is not None:
                add_terms(acc, ((w, v * c) for w, v in x.items()))
        for (m, nn, _, _), c in cols.get((k, l), ()):
            x = second.get((i, j, m, nn))
            if x is not None:
                add_terms(acc, ((w, -(v * c)) for w, v in x.items()))
        yield (i, j, k, l), acc


def relation_entries(B: Tensor, M: MMatrix, M_second: MMatrix = None) -> dict:
    """The entries (B M - M_second B)_ij^kl keyed by (i, j, k, l) in lexicographic order.

    M_second defaults to M; the spectral variant passes the label-swapped matrix.
    """
    first = {key: x.terms for key, x in M.entries.items()}
    second = first if M_second is None else {key: x.terms for key, x in M_second.entries.items()}
    return {key: NCPoly(M.ctx, acc) for key, acc in _commutator(B, first, second, M.dim)}


def generate_ideal(B: Tensor, M: MMatrix) -> RelationSet:
    """Entries of B M - M B as degree-2 relations (identity parts cancel)."""
    return RelationSet(M.ctx, M.family(), relation_entries(B, M).values())


def coideal_check(B: Tensor, M: MMatrix) -> bool:
    """The relation matrix Rel = B M - M B satisfies

        Delta(Rel_ij^kl) = sum_rs Rel_ij^rs (x) M_rs^kl + sum_rs M_ij^rs (x) Rel_rs^kl

    together with counit(Rel) = 0, so the span of Rel generates a coideal.
    The two residuals are B G - G B and B E - E B for M's defect (G, E);
    the module docstring derives them for any M, group-like or not.
    """
    defect = M.defect()
    G = {key: g.terms for key, (g, _) in defect.items()}
    E = {key: {(): e} for key, (_, e) in defect.items()}  # one-term tables
    return all(
        all(c.is_zero() for c in acc.values())
        for table in (G, E)
        for _, acc in _commutator(B, table, table, M.dim)
    )


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
