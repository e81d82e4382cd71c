"""Matrix-bialgebra structure and bicharacter forms.

The coordinate bialgebra of n x n quantum matrices carries

    coproduct   T_i^j  |->  sum_k T_i^k (x) T_k^j
    counit      T_i^j  |->  delta_i^j

extended multiplicatively to words; a Presentation keeps the coproduct
of each word it expands.  Scalar-valued forms on pairs of elements are
stored through their generator-pair table, a 4-index tensor

    base[(i, j, k, l)] = f(T_i^k (x) T_j^l),

and extended to longer words by the bicharacter splitting laws

    f(xy (x) z) = sum f(x (x) z_(1)) f(y (x) z_(2))
    f(x (x) yz) = sum f(x_(1) (x) z) f(x_(2) (x) y)

(note the flip in the second slot).  Convolution of forms restricted to
the generator-pair tables is plain tensor composition, which makes
twisting by an invertible form a finite computation.

The contractions below run over nonzero table entries only and build each
sum in one dict; the corep module docstring says why that changes no result.
"""

import itertools

from .errors import PresentationMismatch, UnknownGenerator
from .freealg import NCPoly, PairPoly, RelationSet, T, add_terms
from .tensors import Tensor, compose, invert4


class Presentation:
    """The n x n matrix coordinate family with its coalgebra maps.

    The coproduct of each word is computed once and kept; callers only read it.
    """

    def __init__(self, ctx, dim):
        self.ctx = ctx
        self.dim = dim
        self._coproducts = {}

    def family(self):
        n = self.dim
        return [T(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]

    def _check_gen(self, g):
        if g.kind != "T" or len(g.index) != 2:
            raise UnknownGenerator("%s is not a matrix coordinate generator" % g)
        if not (1 <= g.index[0] <= self.dim and 1 <= g.index[1] <= self.dim):
            raise UnknownGenerator("%s outside the %d x %d family" % (g, self.dim, self.dim))

    def coproduct_word(self, word) -> PairPoly:
        out = self._coproducts.get(word)
        if out is not None:
            return out
        out = PairPoly.unit(self.ctx)
        one, rng = self.ctx.one, range(1, self.dim + 1)
        for g in word:
            self._check_gen(g)
            (i, j), lab = g.index, g.label
            out = out * PairPoly(self.ctx, {((T(i, k, lab),), (T(k, j, lab),)): one for k in rng})
        self._coproducts[word] = out
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
    memoized.
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
    from .tensors import swap_lower

    return LinearForm(pres, swap_lower(braid))


def character_pair_form(pres, rho: Tensor) -> LinearForm:
    """The form  counit (x) rho  for a 2-index character table rho."""
    n = pres.dim
    entries = {(i, j, i, l): c for i in range(1, n + 1) for (j, l), c in rho.entries.items()}
    return LinearForm(pres, Tensor(pres.ctx, n, 2, 2, entries))


def cocycle_check(phi: LinearForm):
    """Test the 2-cocycle identity for phi on all generator triples.

    Compares  sum_{a,b} phi(T_i^a (x) T_j^b) phi(T_a^r T_b^s (x) T_k^t)
    with      sum_{b,c} phi(T_j^b (x) T_k^c) phi(T_i^r (x) T_b^s T_c^t);
    the two sides are the convolution products phi_12 * (phi o (m (x) id))
    and phi_23 * (phi o (id (x) m)) evaluated on T_i^r (x) T_j^s (x) T_k^t.
    """
    pres = phi.pres
    ctx = pres.ctx
    n = pres.dim
    invert4(phi.base)  # NotInvertible when phi cannot be convolution-inverted
    residuals = {}
    by_lower = phi.base.index((0, 1))
    with ctx.products():
        for i, j, k, r, s, t in itertools.product(range(1, n + 1), repeat=6):
            lhs = ctx.zero
            for (_, _, a, b), c1 in by_lower.get((i, j), ()):
                lhs = lhs + c1 * phi.word_value((T(a, r), T(b, s)), (T(k, t),))
            rhs = ctx.zero
            for (_, _, b, c), c1 in by_lower.get((j, k), ()):
                rhs = rhs + c1 * phi.word_value((T(i, r),), (T(b, s), T(c, t)))
            d = lhs - rhs
            if not d.is_zero():
                residuals[(i, j, k, r, s, t)] = d
    return {"holds": not residuals, "residuals": residuals}


def twist_R(R: LinearForm, phi: LinearForm) -> Tensor:
    """Generator-pair table of the twisted form  phibar_21 * R * phi."""
    if R.pres is not phi.pres:
        raise PresentationMismatch("forms live on different presentations")
    n = R.pres.dim
    inv = invert4(phi.base)
    swapped = {}
    for (i, j, k, l), c in inv.entries.items():
        swapped[(j, i, l, k)] = c
    phibar21 = Tensor(R.pres.ctx, n, 2, 2, swapped)
    return compose(phibar21, compose(R.base, phi.base))


def tilde_images(ctx, theta: Tensor):
    """Generator images of the twisting endomorphism: T_i^j |-> theta_im^jn T_n^m."""
    n = theta.dim
    by_ij = theta.index((0, 2))
    return {
        T(i, j): NCPoly(ctx, {(T(nn, m),): c for (_, m, _, nn), c in by_ij.get((i, j), ())})
        for i, j in itertools.product(range(1, n + 1), repeat=2)
    }


def twisted_product_relations(pres, R: LinearForm, theta):
    """Relations forcing the opposite deformed product to agree with R-conjugation.

    For each generator pair the element

        m_theta(T_j^l (x) T_i^k)
          - sum_{a,b,c,d} R(T_i^a (x) T_j^c) m_theta(T_a^b (x) T_c^d) Rbar(T_b^k (x) T_d^l)

    is returned; their span is the defining ideal of the twisted algebra.
    InvalidTheta when the ThetaMap theta is not valid; it keeps its
    validation, so it is validated once.
    """
    from .corep import require_valid  # deferred, corep builds on this module

    ctx = pres.ctx
    rows = R.base.index((0, 1))
    cols = invert4(R.base).index((2, 3))
    images = require_valid(theta).images()

    def mtheta(g1, g2):
        return NCPoly.gen(ctx, g1) * images[g2]

    polys = []
    for i, j, k, l in itertools.product(range(1, pres.dim + 1), repeat=4):
        acc = dict(mtheta(T(j, l), T(i, k)).terms)
        terms = sorted(
            (a, b, c, d, r1 * r2)
            for (_, _, a, c), r1 in rows.get((i, j), ())
            for (b, d, _, _), r2 in cols.get((k, l), ())
        )
        for a, b, c, d, r in terms:
            add_terms(acc, ((w, -(v * r)) for w, v in mtheta(T(a, b), T(c, d)).terms.items()))
        acc = NCPoly(ctx, acc)
        if not acc.is_zero():
            polys.append(acc)
    return RelationSet(ctx, pres.family(), polys)
