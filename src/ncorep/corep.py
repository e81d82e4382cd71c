"""Twisted coactions on quantum linear spaces and the matrix they generate.

A twisting tensor theta replaces the flip in the usual tensor-product
coaction: the coordinate that crosses a matrix generator picks up

    T_i^j  |->  theta_im^jn T_n^m.

Validity of theta is two entrywise identities over the function field,
each a tensors.contract spec set against a delta term:

    sum_p theta_ij^pl theta_pk^rs = delta_j^s theta_ik^rl
      "ijpl,pkrs->ijkrsl"           "js,ikrl->ijkrsl"
    sum_n theta_jn^kn = delta_j^k   "jnkn->jk"

theta is a plain order-2 Tensor, like the exchange tensor B; validate_theta
returns its violations as data, and a run (cli.Workspace) keeps that
result, as it keeps M and M's defect.  A valid theta makes

    M_ij^kl = T_i^k theta_jn^lm T_m^n

a group-like matrix, and the span of (B M - M B) a coideal whose quotient
coacts on the underlying quadratic algebra.  M is an order-2 Tensor of
NCPolys, built once, and it is the one table of twisted products: the
coordinate x_j that crosses T_i^k is twisted once, so row (i, j) of M is
the coaction of the word x_i x_j,

    x_i x_j  |->  sum_kl M_ij^kl (x) x_k x_l,

and bialg.twisted_product_relations reads the same table as m_theta.

Both matrix checks read one defect of M, computed once per run as two
order-2 tables, G of PairPolys and E of Scalars:

    G_ij^kl = Delta(M_ij^kl) - sum_rs M_ij^rs (x) M_rs^kl
    E_ij^kl = counit(M_ij^kl) - delta_i^k delta_j^l

M is group-like exactly when G and E are empty.  G is decided without
expanding Delta(M) where it vanishes.  For a word w = T_a1^b1 ... T_ad^bd
with coefficient c, Delta(c w) is the n^d pairs

    (T_a1^m1 ... T_ad^md, T_m1^b1 ... T_md^bd),   m in 1..n,

each with coefficient c, and distinct words or middle indices give distinct
pairs.  So the M (x) M sum of an entry is Delta(M_ij^kl) exactly when it
has sum_w n^|w| nonzero terms and each glues back into a word of M_ij^kl
with an equal coefficient, letter by letter (T_i^m, T_m^j) -> T_i^j within
one label: those terms are then a subset of Delta(M_ij^kl)'s as large as
it.  Only an entry that fails this test has its coproduct expanded, and G
holds the difference as before, so a group-like M expands none.  The
letters of M are checked first, in index order, so an unknown generator
raises as the expansion would raise it.  The M (x) M sum multiplies the
same coefficients many times over, since build_M puts each theta entry
into every word that uses it: each pair of coefficient objects is
multiplied once, kept under the pair's ids while M holds both objects.

The coideal check does not assume that M is group-like.  Expand
Rel = B M - M B bilinearly, with B scalar:

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
from .errors import ShapeMismatch
from .freealg import (
    NCPoly,
    PairPoly,
    RelationSet,
    T,
    add_terms,
    e,
    matrix_family,
    word_key,
    xi,
)
from .tensors import Tensor, contract, delta, invert2


def factorized_theta(rho: Tensor) -> Tensor:
    """theta_ij^kl = rho_i^l rhobar_j^k, "il,jk->ijkl", from an invertible
    2-index table."""
    return contract("il,jk->ijkl", rho, invert2(rho))


def validate_theta(t: Tensor):
    """Check the two structural identities (module docstring); violations
    come back as data, the coassociativity ones first, each in index order."""
    one = delta(t.ctx, t.dim)
    coassoc = contract("ijpl,pkrs->ijkrsl", t, t) - contract("js,ikrl->ijkrsl", one, t)
    counit = contract("jnkn->jk", t) - one
    violations = [("coassociativity", idx, v) for idx, v in sorted(coassoc.entries.items())]
    violations += [("counit", idx, v) for idx, v in sorted(counit.entries.items())]
    return {"valid": not violations, "violations": violations}


def build_M(theta: Tensor, labels=None) -> Tensor:
    """M_ij^kl = T_i^k theta_jn^lm T_m^n, optionally with a spectral label
    pair, as an order-2 Tensor of NCPolys: T_i^k (label one) times the image
    of T_j^l under theta (bialg.tilde_images, label two).

    theta is not validated; a caller that needs a valid one reads
    validate_theta first.
    """
    ctx = theta.ctx
    n = theta.dim
    lab1, lab2 = labels if labels is not None else (None, None)
    images = tilde_images(theta, lab2)
    entries = {}
    for i, j, k, l in itertools.product(range(1, n + 1), repeat=4):
        head = (T(i, k, lab1),)
        entries[(i, j, k, l)] = NCPoly(
            ctx, {head + w: c for w, c in images[T(j, l, lab2)].terms.items()}
        )
    return Tensor(ctx, n, 2, entries)


def _is_coproduct(x: NCPoly, pairs: dict, n: int, glue: dict) -> bool:
    """Whether the nonzero terms of pairs sum to Delta(x), decided without
    expanding it (module docstring): there are sum_w n^|w| of them, and each
    glues into a word of x with an equal coefficient, letter by letter
    through glue, which maps (T_i^m, T_m^j) of one label to T_i^j."""
    terms = [(k, c) for k, c in pairs.items() if not c.is_zero()]
    if len(terms) != sum(n ** len(w) for w in x.terms):
        return False
    for (u, v), c in terms:
        kept = x.terms.get(tuple([glue.get(ab) for ab in zip(u, v)])) if len(u) == len(v) else None
        if kept is None or kept != c:
            return False
    return True


def _tensor_terms(x: NCPoly, y: NCPoly, products: dict):
    """The terms ((u, v), a b) of x (x) y, for x = sum a u and y = sum b v,
    each product a b kept in products under the ids of a and b."""
    for u, a in x.terms.items():
        for v, b in y.terms.items():
            key = (id(a), id(b))
            c = products.get(key)
            if c is None:
                c = products[key] = a * b
            yield (u, v), c


def grouplike_defect(M: Tensor):
    """(G, E), two order-2 tables holding the nonzero G_ij^kl and E_ij^kl.

    G = Delta(M) - M (x) M holds PairPolys and E = counit(M) - identity
    Scalars; both are empty exactly when M is group-like.

    Delta(M_ij^kl) is expanded only when the M (x) M sum is not it
    (_is_coproduct).  The letters of M's entries are checked first, in
    index order, as the coproduct would check them; past the check every
    letter is a T of the n x n family, so glue holds every pair of M's
    letters that glues.  Each product of two coefficients is computed once
    per call (_tensor_terms, module docstring).
    """
    ctx = M.ctx
    n = M.dim
    pres = Presentation(ctx, n)
    zero = NCPoly.zero(ctx)
    rng = range(1, n + 1)
    for _, x in sorted(M.entries.items()):
        for w in x.terms:
            for g in w:
                pres._check_gen(g)
    letters = {g for x in M.entries.values() for w in x.terms for g in w}
    glue = {
        (a, b): T(a.index[0], b.index[1], a.label)
        for a in letters
        for b in letters
        if a.index[1] == b.index[0] and a.label == b.label
    }
    G, E, products = {}, {}, {}
    for i, j, k, l in itertools.product(rng, repeat=4):
        rhs = {}
        for r, s in itertools.product(rng, repeat=2):
            left, right = M.entries.get((i, j, r, s)), M.entries.get((r, s, k, l))
            if left is not None and right is not None:
                add_terms(rhs, _tensor_terms(left, right, products))
        x = M.entries.get((i, j, k, l), zero)
        if not _is_coproduct(x, rhs, n, glue):
            lhs, rhs = pres.coproduct(x), PairPoly(ctx, rhs)
            if lhs != rhs:
                G[(i, j, k, l)] = lhs - rhs
        E[(i, j, k, l)] = pres.counit(x) - (ctx.one if (i == k and j == l) else ctx.zero)
    return Tensor(ctx, n, 2, G), Tensor(ctx, n, 2, E)


def check_grouplike(defect) -> bool:
    """Delta(M) = M (x) M entrywise together with counit(M) = identity,
    read off M's defect (G, E)."""
    return not any(d.entries for d in defect)


def relation_entries(B: Tensor, M: Tensor, M_second: Tensor = None) -> dict:
    """The entries (B M - M_second B)_ij^kl keyed by (i, j, k, l) in lexicographic order.

    M_second defaults to M; the spectral variant passes the label-swapped matrix.
    """
    dim = M.dim
    if (B.dim, B.k) != (dim, 2):
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


def generate_ideal(B: Tensor, M: Tensor, key=word_key) -> RelationSet:
    """Entries of B M - M B as degree-2 relations (identity parts cancel),
    whose basis is kept under key."""
    return RelationSet(M.ctx, matrix_family(M.dim), relation_entries(B, M).values(), key)


def coideal_check(B: Tensor, defect) -> bool:
    """The relation matrix Rel = B M - M B satisfies

        Delta(Rel_ij^kl) = sum_rs Rel_ij^rs (x) M_rs^kl + sum_rs M_ij^rs (x) Rel_rs^kl

    together with counit(Rel) = 0, so the span of Rel generates a coideal.
    The two residuals are B G - G B and B E - E B for M's defect (G, E);
    the module docstring derives them for any M, group-like or not.
    """
    return all(
        contract("mnkl,ijmn->ijkl", d, B) == contract("ijmn,mnkl->ijkl", d, B) for d in defect
    )


def coaction_word(M: Tensor, pair):
    """Coaction of the coordinate word x_i x_j, pair = (i, j): {(k, l): M_ij^kl}
    over the nonzero entries of M's row (i, j), in index order."""
    return {idx[2:]: x for idx, x in M.index((0, 1)).get(pair, ())}


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


def homomorphism_check(space: QuadraticSpace, M: Tensor, relations: RelationSet) -> bool:
    """Coacting on each space relation must land in the relation ideal.

    Coaction, reduction modulo the space's relation span and membership in
    a span are linear, so the rows of the space's basis decide every
    relation.  A row sum_w c_w w coacts through M's rows (coaction_word) to
    sum_w c_w sum_v M_w^v (x) v over coordinate words v.  The space's
    reduced basis {p: rest_p} reads a pivot word p as -rest_p, so what
    survives at a word u that is no pivot is

        R_u = sum_w c_w (M_w^u - sum_p M_w^p rest_p[u]),

    summed per matrix word in one Scalar dict.  Every R_u must lie in the
    Scalar span of the given degree-2 relations.
    """
    basis = relations.basis()
    own = space.relations.basis()
    reduced = own.reduced()
    for _, row in own.rows:
        residuals = {}  # coordinate word -> {matrix word: Scalar}
        for w, c in row.items():
            for outidx, coef in coaction_word(M, tuple(g.index[0] for g in w)).items():
                v = tuple(space.coord(i) for i in outidx)
                rest = reduced.get(v)
                targets = ((v, c),) if rest is None else ((u, -(c * r)) for u, r in rest.items())
                for u, f in targets:
                    add_terms(
                        residuals.setdefault(u, {}), ((x, a * f) for x, a in coef.terms.items())
                    )
        for terms in residuals.values():
            if not basis.contains(terms):
                return False
    return True
