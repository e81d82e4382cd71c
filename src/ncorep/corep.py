"""Twisted coactions on quantum linear spaces and the matrix they generate.

A twisting tensor theta replaces the flip in the usual tensor-product
coaction: the coordinate that crosses a matrix generator picks up

    T_i^j  |->  theta_im^jn T_n^m.

Validity of theta is two entrywise identities over the function field,
each a tensors.contract spec set against a delta term:

    sum_p theta_ij^pl theta_pk^rs = delta_j^s theta_ik^rl
      "ijpl,pkrs->ijkrsl"           "js,ikrl->ijkrsl"
    sum_n theta_jn^kn = delta_j^k   "jnkn->jk"

A valid theta makes

    M_ij^kl = T_i^k theta_jn^lm T_m^n

a group-like matrix, and the span of (B M - M B) a coideal whose quotient
coacts on the underlying quadratic algebra.  M is built once, and it is
the one table of twisted products: the coordinate x_j that crosses T_i^k
is twisted once, so row (i, j) of M is the coaction of the word x_i x_j,

    x_i x_j  |->  sum_kl M_ij^kl (x) x_k x_l,

and bialg.twisted_product_relations reads the same table as m_theta.

Both matrix checks read one defect of M, computed once per matrix as two
(2,2) tables, G of PairPolys and E of Scalars:

    G_ij^kl = Delta(M_ij^kl) - sum_rs M_ij^rs (x) M_rs^kl
    E_ij^kl = counit(M_ij^kl) - delta_i^k delta_j^l

M is group-like exactly when G and E are empty.  The coideal check does not
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

with B G contracted over B's upper pair and G's lower pair, "mnkl,ijmn->ijkl"
with the defect first, and G B as "ijmn,mnkl->ijkl".  So the coideal
identity holds exactly when both right-hand sides vanish: always for a
group-like M, and otherwise only when B commutes with the defect.

The tables are mostly zeros (a diagonal character table on dim 3 gives 9
nonzero theta entries out of 81), so the sums of polynomials written out
here (build_M, the M (x) M sum of the defect and B M - M B), like
tensors.contract, run only over the terms whose tensor factors are nonzero,
found through Tensor.index, and build each sum in one dict.  This changes
no result: a skipped term has a zero factor, every stored Scalar is
canonical, and the field is exact, so neither adding zero nor the order of
the terms changes a sum.  The outer loops keep their index order.
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
    e,
    poly_vector,
    tensor_terms,
    xi,
)
from .tensors import Tensor, contract, delta, invert2


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
    """theta_ij^kl = rho_i^l rhobar_j^k, "il,jk->ijkl", from an invertible
    2-index table."""
    return ThetaMap(contract("il,jk->ijkl", rho, invert2(rho)), rho=rho)


def validate_theta(t: Tensor):
    """Check the two structural identities (module docstring); violations
    come back as data, the coassociativity ones first, each in index order."""
    one = delta(t.ctx, t.dim)
    coassoc = contract("ijpl,pkrs->ijkrsl", t, t) - contract("js,ikrl->ijkrsl", one, t)
    counit = contract("jnkn->jk", t) - one
    violations = [("coassociativity", idx, v) for idx, v in sorted(coassoc.entries.items())]
    violations += [("counit", idx, v) for idx, v in sorted(counit.entries.items())]
    return {"valid": not violations, "violations": violations}


class MMatrix:
    """The n^2 x n^2 matrix of degree-2 words generated by a twisting tensor."""

    def __init__(self, ctx, dim, entries, labels=None):
        self.ctx = ctx
        self.dim = dim
        self.table = Tensor(ctx, dim, 2, 2, entries)
        self.entries = self.table.entries  # (i,j,k,l) -> NCPoly, the table's own dict
        self.labels = labels
        self.pres = Presentation(ctx, dim)  # its coproduct memo serves every check on M
        self._defect = None

    def defect(self):
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


def grouplike_defect(M: MMatrix):
    """(G, E), two (2,2) tables holding the nonzero G_ij^kl and E_ij^kl.

    G = Delta(M) - M (x) M holds PairPolys and E = counit(M) - identity
    Scalars; both are empty exactly when M is group-like.
    """
    ctx = M.ctx
    pres = M.pres
    rng = range(1, M.dim + 1)
    G, E = {}, {}
    with ctx.products():
        for i, j, k, l in itertools.product(rng, repeat=4):
            rhs = {}
            for r, s in itertools.product(rng, repeat=2):
                left, right = M.entries.get((i, j, r, s)), M.entries.get((r, s, k, l))
                if left is not None and right is not None:
                    add_terms(rhs, tensor_terms(left, right))
            x = M.get(i, j, k, l)
            lhs, rhs = pres.coproduct(x), PairPoly(ctx, rhs)
            if lhs != rhs:
                G[(i, j, k, l)] = lhs - rhs
            E[(i, j, k, l)] = pres.counit(x) - (ctx.one if (i == k and j == l) else ctx.zero)
    return Tensor(ctx, M.dim, 2, 2, G), Tensor(ctx, M.dim, 2, 2, E)


def check_grouplike(M: MMatrix) -> bool:
    """Delta(M) = M (x) M entrywise together with counit(M) = identity."""
    return not any(d.entries for d in M.defect())


def relation_entries(B: Tensor, M: MMatrix, M_second: MMatrix = None) -> dict:
    """The entries (B M - M_second B)_ij^kl keyed by (i, j, k, l) in lexicographic order.

    M_second defaults to M; the spectral variant passes the label-swapped matrix.
    """
    dim = M.dim
    if B.dim != dim or B.nlower != 2 or B.nupper != 2:
        raise ShapeMismatch("braid tensor shape does not match the matrix")
    second = (M_second or M).entries
    rows, cols = B.index((0, 1)), B.index((2, 3))
    out = {}
    for i, j, k, l in itertools.product(range(1, dim + 1), repeat=4):
        acc = {}
        for (_, _, m, nn), c in rows.get((i, j), ()):
            x = M.entries.get((m, nn, k, l))
            if x is not None:
                add_terms(acc, ((w, v * c) for w, v in x.terms.items()))
        for (m, nn, _, _), c in cols.get((k, l), ()):
            x = second.get((i, j, m, nn))
            if x is not None:
                add_terms(acc, ((w, -(v * c)) for w, v in x.terms.items()))
        out[(i, j, k, l)] = NCPoly(M.ctx, acc)
    return out


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
    with M.ctx.products():
        return all(
            contract("mnkl,ijmn->ijkl", d, B) == contract("ijmn,mnkl->ijkl", d, B)
            for d in M.defect()
        )


def coaction_word(M: MMatrix, pair):
    """Coaction of the coordinate word x_i x_j, pair = (i, j): {(k, l): M_ij^kl}
    over the nonzero entries of M's row (i, j), in index order."""
    return {idx[2:]: x for idx, x in M.table.index((0, 1)).get(pair, ())}


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


def homomorphism_check(space: QuadraticSpace, M: MMatrix, relations: RelationSet) -> bool:
    """Coacting on each space relation must land in the relation ideal.

    Each coordinate pair coacts through its row of M (coaction_word).  The
    coordinate part is reduced modulo the space's own relation span; every
    surviving matrix-coefficient must lie in the Scalar span of the given
    degree-2 relations.
    """
    basis = relations.basis()
    for p in space.relations:
        vec = {}  # coordinate word -> {matrix word: Scalar}
        for w, c in p.terms.items():
            co = coaction_word(M, tuple(g.index[0] for g in w))
            for outidx, coef in co.items():
                word = tuple(space.coord(i) for i in outidx)
                add_terms(vec.setdefault(word, {}), ((u, v * c) for u, v in coef.terms.items()))
        vec = {word: NCPoly(space.ctx, terms) for word, terms in vec.items()}
        for residual in space.relations.basis().reduce(vec).values():
            if not basis.contains(poly_vector(residual)):
                return False
    return True
