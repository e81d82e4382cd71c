"""Matrix-bialgebra structure and bicharacter forms.

The coordinate bialgebra of n x n quantum matrices carries

    coproduct   T_i^j  |->  sum_k T_i^k (x) T_k^j
    counit      T_i^j  |->  delta_i^j

extended multiplicatively to words.  Scalar-valued forms on pairs of
elements are stored through their generator-pair table, a 4-index tensor

    base[(i, j, k, l)] = f(T_i^k (x) T_j^l),

and extended to longer words by the bicharacter splitting laws

    f(xy (x) z) = sum f(x (x) z_(1)) f(y (x) z_(2))
    f(x (x) yz) = sum f(x_(1) (x) z) f(x_(2) (x) y)

(note the flip in the second slot).  Convolution of forms restricted to
the generator-pair tables is plain tensor composition, which makes
twisting by an invertible form a finite computation.

The 2-cocycle identity needs only two-letter words.  Write phi_ij^kl for
base[(i, j, k, l)].  The coproduct of T_k^t is sum_m T_k^m (x) T_m^t, so the
first law with x = T_a^r, y = T_b^s, z = T_k^t and the second with
x = T_i^r, y = T_b^s, z = T_c^t give phi(T_a^r T_b^s (x) T_k^t) = left_abk^rst
and phi(T_i^r (x) T_b^s T_c^t) = right_bci^rst below, and the two sides of
the identity on T_i^r (x) T_j^s (x) T_k^t are contractions of three copies
of the table, each written as its tensors.contract spec:

    left_abk^rst  = sum_m phi_ak^rm phi_bm^st          "akrm,bmst->abkrst"
    right_bci^rst = sum_m phi_ic^mt phi_mb^rs          "icmt,mbrs->bcirst"
    LHS_ijk^rst   = sum_{a,b} phi_ij^ab left_abk^rst   "abkrst,ijab->ijkrst"
    RHS_ijk^rst   = sum_{b,c} phi_jk^bc right_bci^rst  "bcirst,jkbc->ijkrst"

The character form phi_ij^kl = delta_i^k rho_j^l is "ik,jl->ijkl", the
R-matrix of a braid tensor "jikl->ijkl" (tensors.swap_lower), and phibar_21
in twist_R the transposition "ijkl->jilk" of the inverse table.

The twisted product m_theta(T_i^k (x) T_j^l) = T_i^k theta_jn^lm T_m^n is the
matrix M that corep.build_M builds, so twisted_product_relations reads M's
table and computes no product of words itself:

    m_theta(T_j^l (x) T_i^k)                 = M_ji^lk
    sum_ac R_ij^ac m_theta(T_a^b (x) T_c^d)  = (R M)_ij^bd
    sum_bd (R M)_ij^bd Rbar_bd^kl            = (R M Rbar)_ij^kl

Each is a sum of M's word coefficients times Scalars, so it is written out
per word, as corep writes build_M and B M - M B: for each (i, j), the
coefficients of (R M)_ij^bd are summed in one dict per (b, d), over R's
entries in row (i, j) and M's entries with lower pair (a, c), then those of
(R M Rbar)_ij^kl in one dict per (k, l), negated, and each relation is
M_ji^lk plus that dict, built once as an NCPoly in index order.  No word
is multiplied and no polynomial-valued table is contracted.
"""

import itertools

from .errors import PresentationMismatch, UnknownGenerator
from .freealg import NCPoly, PairPoly, RelationSet, T, add_terms, matrix_family
from .tensors import Tensor, compose, contract, delta, invert4, swap_lower


class Presentation:
    """The n x n matrix coordinate family with its coalgebra maps."""

    def __init__(self, ctx, dim):
        self.ctx = ctx
        self.dim = dim

    def _check_gen(self, g):
        if g.kind != "T" or len(g.index) != 2:
            raise UnknownGenerator("%s is not a matrix coordinate generator" % g)
        if not (1 <= g.index[0] <= self.dim and 1 <= g.index[1] <= self.dim):
            raise UnknownGenerator("%s outside the %d x %d family" % (g, self.dim, self.dim))

    def coproduct_word(self, word) -> PairPoly:
        out = PairPoly.unit(self.ctx)
        one, rng = self.ctx.one, range(1, self.dim + 1)
        for g in word:
            self._check_gen(g)
            (i, j), lab = g.index, g.label
            out = out * PairPoly(self.ctx, {((T(i, k, lab),), (T(k, j, lab),)): one for k in rng})
        return out

    def coproduct(self, x: NCPoly) -> PairPoly:
        out = {}
        for w, c in x.terms.items():
            add_terms(out, self.coproduct_word(w).scale(c).terms.items())
        return PairPoly(self.ctx, out)

    def counit_word(self, word):
        c = self.ctx.one
        for g in word:
            self._check_gen(g)
            if g.index[0] != g.index[1]:
                return self.ctx.zero
        return c

    def counit(self, x: NCPoly):
        acc = self.ctx.zero
        for w, c in x.terms.items():
            acc = acc + c * self.counit_word(w)
        return acc


class LinearForm:
    """Scalar bicharacter form on pairs, determined by its generator-pair table.

    Long words are split by the two bicharacter laws; word-pair values are
    memoized.  No check reaches word_value: cocycle_check sums the
    two-letter values as contractions of the table instead.
    """

    def __init__(self, pres: Presentation, base: Tensor):
        self.pres = pres
        self.base = base
        self._memo = {}

    def word_value(self, u, v):
        """f(u (x) v) for words u, v."""
        key = (u, v)
        hit = self._memo.get(key)
        if hit is None:
            hit = self._memo[key] = self._word_value(u, v)
        return hit

    def _word_value(self, u, v):
        pres = self.pres
        if not u:
            return pres.counit_word(v)
        if not v:
            return pres.counit_word(u)
        if len(u) == 1 and len(v) == 1:
            gu, gv = u[0], v[0]
            pres._check_gen(gu)
            pres._check_gen(gv)
            return self.base.get(gu.index[0], gv.index[0], gu.index[1], gv.index[1])
        if len(u) > 1:
            head, rest = (u[0],), u[1:]
            acc = pres.ctx.zero
            for (v1, v2), c in pres.coproduct_word(v).terms.items():
                acc = acc + c * self.word_value(head, v1) * self.word_value(rest, v2)
            return acc
        # len(u) == 1, len(v) > 1: f(x (x) yz) = sum f(x1 (x) z) f(x2 (x) y)
        head, rest = (v[0],), v[1:]
        acc = pres.ctx.zero
        for (u1, u2), c in pres.coproduct_word(u).terms.items():
            acc = acc + c * self.word_value(u1, rest) * self.word_value(u2, head)
        return acc


def braid_form(pres, braid: Tensor) -> LinearForm:
    """The form whose generator-pair table is the R-matrix of a braid tensor."""
    return LinearForm(pres, swap_lower(braid))


def character_pair_form(pres, rho: Tensor) -> LinearForm:
    """The form  counit (x) rho  for a 2-index character table rho."""
    return LinearForm(pres, contract("ik,jl->ijkl", delta(pres.ctx, pres.dim), rho))


def cocycle_check(phi: LinearForm):
    """Test the 2-cocycle identity for phi on all generator triples.

    Compares  sum_{a,b} phi(T_i^a (x) T_j^b) phi(T_a^r T_b^s (x) T_k^t)
    with      sum_{b,c} phi(T_j^b (x) T_k^c) phi(T_i^r (x) T_b^s T_c^t);
    the two sides are the convolution products phi_12 * (phi o (m (x) id))
    and phi_23 * (phi o (id (x) m)) evaluated on T_i^r (x) T_j^s (x) T_k^t.
    Both are contractions of three copies of the table (module docstring);
    the residuals are the nonzero LHS - RHS in sorted key order.
    """
    base = phi.base
    invert4(base)  # NotInvertible when phi cannot be convolution-inverted
    left = contract("akrm,bmst->abkrst", base, base)
    right = contract("icmt,mbrs->bcirst", base, base)
    lhs = contract("abkrst,ijab->ijkrst", left, base)
    rhs = contract("bcirst,jkbc->ijkrst", right, base)
    residuals = dict(sorted((lhs - rhs).entries.items()))
    return {"holds": not residuals, "residuals": residuals}


def twist_R(R: LinearForm, phi: LinearForm) -> Tensor:
    """Generator-pair table of the twisted form  phibar_21 * R * phi."""
    if R.pres is not phi.pres:
        raise PresentationMismatch("forms live on different presentations")
    phibar21 = contract("ijkl->jilk", invert4(phi.base))
    return compose(phibar21, compose(R.base, phi.base))


def tilde_images(theta: Tensor):
    """Generator images of the twisting endomorphism: T_i^j |-> theta_im^jn T_n^m."""
    n = theta.dim
    by_ij = theta.index((0, 2))
    return {
        T(i, j): NCPoly(theta.ctx, {(T(nn, m),): c for (_, m, _, nn), c in by_ij.get((i, j), ())})
        for i, j in itertools.product(range(1, n + 1), repeat=2)
    }


def twisted_product_relations(R: LinearForm, M) -> RelationSet:
    """Relations forcing the opposite deformed product to agree with R-conjugation.

    For each generator pair the element

        m_theta(T_j^l (x) T_i^k)
          - sum_{a,b,c,d} R(T_i^a (x) T_j^c) m_theta(T_a^b (x) T_c^d) Rbar(T_b^k (x) T_d^l)

    is M_ji^lk - (R M Rbar)_ij^kl, read off M's table (module docstring).
    The nonzero ones, in index order, span the defining ideal of the
    twisted algebra.  theta is not validated; the caller gates on it.
    """
    ctx, rng = M.ctx, range(1, M.dim + 1)
    by_lower = M.index((0, 1))
    R_rows, Rbar_rows = R.base.index((0, 1)), invert4(R.base).index((0, 1))
    rels = []
    for i, j in itertools.product(rng, repeat=2):
        RM = {}  # (b, d) -> {word: (R M)_ij^bd's coefficient}
        for (_, _, a, c), r in R_rows.get((i, j), ()):
            for (_, _, b, d), x in by_lower.get((a, c), ()):
                add_terms(RM.setdefault((b, d), {}), ((w, v * r) for w, v in x.terms.items()))
        RMR = {}  # (k, l) -> {word: -(R M Rbar)_ij^kl's coefficient}
        for bd, acc in RM.items():
            for (_, _, k, l), rb in Rbar_rows.get(bd, ()):
                add_terms(RMR.setdefault((k, l), {}), ((w, -(v * rb)) for w, v in acc.items()))
        for k, l in itertools.product(rng, repeat=2):
            x = M.entries.get((j, i, l, k))
            terms = {} if x is None else dict(x.terms)
            p = NCPoly(ctx, add_terms(terms, RMR.get((k, l), {}).items()))
            if not p.is_zero():
                rels.append(p)
    return RelationSet(ctx, matrix_family(M.dim), rels)
