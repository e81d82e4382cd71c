"""Spectral families and two exact routes to commuting traces.

Attaching a label to each matrix coordinate turns the coordinate bialgebra
into a union over labels, with the commutation between differently labeled
coordinates governed by a per-pair exchange tensor and twisting tensor.
Contracting the resulting quadratic relations with the inverse exchange
tensor turns them into statements about traces: the plain trace commutes
when the twisting tensor contracts to the identity on its first slot, and
a weighted trace commutes when the weight passes through the exchange
tensor.  Everything here is exact free-algebra arithmetic; no analytic
structure is attached to the labels.
"""

from .corep import MMatrix, ThetaMap, as_theta, build_M, relation_entries, require_valid
from .errors import AnsatzFailed, MixedFamilies
from .freealg import NCPoly, RelationSet, T, poly_vector
from .report import Report, passfail
from .tensors import Tensor, delta, invert4


def weighted_trace(theta) -> Tensor:
    """The first-slot contraction w_j^l = sum_s theta_sj^sl."""
    th = as_theta(theta)
    t = th.tensor
    n = t.dim
    entries = {}
    for j in range(1, n + 1):
        for l in range(1, n + 1):
            acc = t.ctx.zero
            for s in range(1, n + 1):
                acc = acc + t.get(s, j, s, l)
            if not acc.is_zero():
                entries[(j, l)] = acc
    return Tensor(t.ctx, n, 1, 1, entries)


def weighted_trace_element(w: Tensor, label=None) -> NCPoly:
    """The weight-contracted trace sum_ik w_k^i T_i^k as a free-algebra element."""
    ctx = w.ctx
    out = NCPoly.zero(ctx)
    for i in range(1, w.dim + 1):
        for k in range(1, w.dim + 1):
            c = w.get(k, i)
            if not c.is_zero():
                out = out + NCPoly.term(ctx, (T(i, k, label),), c)
    return out


def plain_trace(ctx, dim, label=None) -> NCPoly:
    out = NCPoly.zero(ctx)
    for m in range(1, dim + 1):
        out = out + NCPoly.gen(ctx, T(m, m, label))
    return out


def weight_commutation_holds(B: Tensor, w: Tensor) -> bool:
    """The weight passes through the exchange tensor: B_ij^rk w_r^l = w_i^r B_rj^lk."""
    n = B.dim
    rng = range(1, n + 1)
    for i in rng:
     for j in rng:
      for k in rng:
       for l in rng:
        lhs = B.ctx.zero
        rhs = B.ctx.zero
        for r in rng:
            lhs = lhs + B.get(i, j, r, k) * w.get(r, l)
            rhs = rhs + w.get(i, r) * B.get(r, j, l, k)
        if lhs != rhs:
            return False
    return True


def spectral_relations(B: Tensor, theta, labels, theta_swapped=None):
    """Entries of B M(first, second) - M(second, first) B and their span.

    Returns a dict with the entry table, the two labeled matrices and the
    relation span; the swapped matrix may carry its own twisting tensor.
    """
    lam, mu = labels
    th = require_valid(theta)
    ths = th if theta_swapped is None else require_valid(theta_swapped)
    M1 = build_M(th, labels=(lam, mu), check=False)
    M2 = build_M(ths, labels=(mu, lam), check=False)
    entries = relation_entries(B, M1, M2)
    fam = list(dict.fromkeys(M1.family() + M2.family()))
    return {
        "entries": entries,
        "relations": RelationSet(M1.ctx, fam, entries.values()),
        "M": M1,
        "M_swapped": M2,
    }


def first_integrability(B: Tensor, theta, labels, theta_swapped=None) -> Report:
    """Contract the labeled relation matrix into the plain trace commutator.

    Requires the exchange tensor to be invertible and the twisting tensor to
    satisfy the first-slot trace condition; under those the contraction of
    the relation entries with the inverse exchange tensor collapses to
    tr(first) tr(second) - tr(second) tr(first) identically.
    """
    th = require_valid(theta)
    ths = th if theta_swapped is None else require_valid(theta_swapped)
    for cand in (th, ths):
        if weighted_trace(cand) != delta(cand.tensor.ctx, cand.dim):
            raise AnsatzFailed("twisting tensor fails the first-slot trace condition")
    Binv = invert4(B)
    rep = Report("first integrability route")
    rep.add(
        "trace-ansatz",
        "first-slot contraction of the twisting tensor is the identity",
        "pass",
    )
    data = spectral_relations(B, th, labels, theta_swapped=ths)
    ctx = B.ctx
    n = B.dim
    rng = range(1, n + 1)
    contracted = NCPoly.zero(ctx)
    for i in rng:
     for j in rng:
      for k in rng:
       for l in rng:
        c = Binv.get(k, l, i, j)
        if not c.is_zero():
            contracted = contracted + c * data["entries"][(i, j, k, l)]
    lam, mu = labels
    tlam, tmu = plain_trace(ctx, n, lam), plain_trace(ctx, n, mu)
    commutator = tlam * tmu - tmu * tlam
    diff = contracted - commutator
    rep.add(
        "contracted-relation",
        "inverse-exchange contraction equals the plain trace commutator",
        passfail(diff.is_zero()),
        residuals=[] if diff.is_zero() else [str(diff)],
        artifacts={"commutator": commutator},
    )
    rels = data["relations"]
    member = rels.basis().contains(poly_vector(commutator))
    rep.add(
        "commutator-in-relation-span",
        "trace commutator lies in the scalar span of the relation entries",
        passfail(member),
        artifacts={"relation_rank": rels.rank()},
    )
    return rep


def second_integrability(B: Tensor, theta, labels, theta_swapped=None) -> Report:
    """Weight-contract the labeled relation matrix into a weighted commutator.

    The weighted trace must pass through the exchange tensor for the chain
    to close; when it does, contracting the relation entries with the weight
    and the inverse exchange tensor yields the commutator of the weighted
    traces.  A factorized twisting tensor has identity weight, collapsing
    this route to the plain one.
    """
    th = require_valid(theta)
    ths = th if theta_swapped is None else require_valid(theta_swapped)
    Binv = invert4(B)
    ctx = B.ctx
    n = B.dim
    rep = Report("second integrability route")
    w = weighted_trace(th)
    wsw = weighted_trace(ths)
    ident = delta(ctx, n)
    if th.rho is not None:
        rep.add(
            "factorized-weight-identity",
            "factorized twisting tensor must have identity weight",
            passfail(w == ident),
            artifacts={"weight": w},
        )
    else:
        rep.add(
            "weight-table",
            "first-slot contraction weight of the twisting tensor",
            "info",
            artifacts={"weight": w},
        )
    bggb = weight_commutation_holds(B, w)
    rep.add(
        "weight-commutation",
        "weight passes through the exchange tensor",
        passfail(bggb),
    )
    if not bggb:
        rep.add(
            "contracted-relation",
            "weighted contraction skipped: the weight does not pass through",
            "info",
        )
        return rep
    data = spectral_relations(B, th, labels, theta_swapped=ths)
    rng = range(1, n + 1)
    contracted = NCPoly.zero(ctx)
    for r in rng:
     for j in rng:
      for m in rng:
       for nn in rng:
        c = Binv.get(m, nn, r, j)
        if c.is_zero():
            continue
        for i in rng:
            cw = w.get(r, i)
            if not cw.is_zero():
                contracted = contracted + (c * cw) * data["entries"][(i, j, m, nn)]
    lam, mu = labels
    expected = weighted_trace_element(w, lam) * weighted_trace_element(w, mu) - (
        weighted_trace_element(w, mu) * weighted_trace_element(wsw, lam)
    )
    diff = contracted - expected
    rep.add(
        "contracted-relation",
        "weight-and-inverse contraction equals the weighted trace commutator",
        passfail(diff.is_zero()),
        residuals=[] if diff.is_zero() else [str(diff)],
        artifacts={"commutator": expected},
    )
    if w == ident and wsw == ident:
        rep.add(
            "route-collapse",
            "identity weight reduces the weighted route to the plain one",
            "info",
        )
    return rep


class SpectralFamily:
    """Labeled spaces with one exchange tensor and twisting tensor per pair.

    Both tensors may be given as single objects (used for every ordered
    pair) or as dicts keyed by (first, second) label pairs.  Every twisting
    tensor is validated up front.
    """

    def __init__(self, ctx, labels, B, theta):
        self.ctx = ctx
        self.labels = tuple(labels)
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate spectral labels")
        if len(self.labels) < 2:
            raise ValueError("a spectral family needs at least two labels")
        self._B = B
        self._theta = {}
        raw = theta
        for pair in self.pairs():
            item = raw.get(pair) if isinstance(raw, dict) else raw
            if item is None:
                raise MixedFamilies("no twisting tensor for label pair %r" % (pair,))
            self._theta[pair] = require_valid(item)

    def pairs(self):
        return [(a, b) for a in self.labels for b in self.labels if a != b]

    def _check(self, lam, mu):
        if lam not in self.labels or mu not in self.labels or lam == mu:
            raise MixedFamilies("label pair (%r, %r) is not part of this family" % (lam, mu))

    def exchange(self, lam, mu) -> Tensor:
        self._check(lam, mu)
        if isinstance(self._B, dict):
            item = self._B.get((lam, mu))
            if item is None:
                raise MixedFamilies("no exchange tensor for label pair %r" % ((lam, mu),))
            return item
        return self._B

    def theta(self, lam, mu) -> ThetaMap:
        self._check(lam, mu)
        return self._theta[(lam, mu)]

    def matrix(self, lam, mu) -> MMatrix:
        return build_M(self.theta(lam, mu), labels=(lam, mu), check=False)

    def relations(self, lam, mu):
        return spectral_relations(
            self.exchange(lam, mu),
            self.theta(lam, mu),
            (lam, mu),
            theta_swapped=self.theta(mu, lam),
        )

    def first_report(self, lam, mu) -> Report:
        return first_integrability(
            self.exchange(lam, mu),
            self.theta(lam, mu),
            (lam, mu),
            theta_swapped=self.theta(mu, lam),
        )

    def second_report(self, lam, mu) -> Report:
        return second_integrability(
            self.exchange(lam, mu),
            self.theta(lam, mu),
            (lam, mu),
            theta_swapped=self.theta(mu, lam),
        )
