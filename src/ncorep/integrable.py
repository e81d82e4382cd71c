"""Spectral families and two exact routes to commuting traces.

Attaching a label to each matrix coordinate turns the coordinate bialgebra
into a union over labels, with the commutation between differently labeled
coordinates governed by one exchange tensor and one twisting tensor.
Contracting the resulting quadratic relations with the inverse exchange
tensor turns them into statements about traces: the plain trace commutes
when the twisting tensor contracts to the identity on its first slot, and
a weighted trace commutes when the weight passes through the exchange
tensor.  Everything here is exact free-algebra arithmetic; no analytic
structure is attached to the labels.
"""

import functools

from .corep import ThetaMap, build_M, relation_entries, require_valid
from .errors import AnsatzFailed
from .freealg import NCPoly, RelationSet, T, add_terms, poly_vector
from .report import Report, passfail
from .tensors import Tensor, delta, invert4


def weighted_trace(theta: ThetaMap) -> Tensor:
    """The first-slot contraction w_j^l = sum_s theta_sj^sl."""
    t = theta.tensor
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
    return NCPoly(w.ctx, {(T(i, k, label),): c for (k, i), c in w.entries.items()})


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


def spectral_relations(B: Tensor, theta: ThetaMap, labels):
    """Entries of B M(first, second) - M(second, first) B and their span.

    Returns a dict with the entry table and the relation span.
    """
    lam, mu = labels
    th = require_valid(theta)
    M1 = build_M(th, labels=(lam, mu))
    M2 = build_M(th, labels=(mu, lam))
    entries = relation_entries(B, M1, M2)
    fam = list(dict.fromkeys(M1.family() + M2.family()))
    return {
        "entries": entries,
        "relations": RelationSet(M1.ctx, fam, entries.values()),
    }


def _add_contracted_relation(rep, identity, Binv, w, entries, labels):
    """Record whether the contracted relation entries equal the weighted trace commutator.

    The contraction is sum Binv_mn^rj w_r^i Rel_ij^mn.  Both routes take it,
    the first with the identity weight, under which the weighted traces are
    the plain ones.  Returns the commutator.
    """
    lam, mu = labels
    tlam, tmu = weighted_trace_element(w, lam), weighted_trace_element(w, mu)
    commutator = tlam * tmu - tmu * tlam
    diff = {u: -v for u, v in commutator.terms.items()}
    by_row = w.index((0,))
    for (m, nn, r, j), c in Binv.entries.items():
        for (_, i), cw in by_row.get((r,), ()):
            f = c * cw
            add_terms(diff, ((u, v * f) for u, v in entries[(i, j, m, nn)].terms.items()))
    diff = NCPoly(Binv.ctx, diff)
    rep.add(
        "contracted-relation",
        identity,
        passfail(diff.is_zero()),
        residuals=[] if diff.is_zero() else [str(diff)],
        artifacts={"commutator": commutator},
    )
    return commutator


class SpectralFamily:
    """Labeled spaces sharing one exchange tensor and one twisting tensor.

    Both routes read the inverse exchange tensor and the labeled relation
    entries; each is computed once per family, at its first use.
    """

    def __init__(self, B: Tensor, theta: ThetaMap):
        self.B = B
        self.theta = theta
        self._spectral = {}  # labels -> spectral_relations

    @functools.cached_property
    def _Binv(self):
        return invert4(self.B)

    def _relations(self, labels):
        if labels not in self._spectral:
            self._spectral[labels] = spectral_relations(self.B, self.theta, labels)
        return self._spectral[labels]

    def first_report(self, lam, mu) -> Report:
        """Contract the labeled relation matrix into the plain trace commutator.

        Requires the exchange tensor to be invertible and the twisting
        tensor to satisfy the first-slot trace condition; under those the
        contraction of the relation entries with the inverse exchange tensor
        collapses to tr(first) tr(second) - tr(second) tr(first) identically.
        """
        th = require_valid(self.theta)
        ident = delta(th.tensor.ctx, th.dim)
        if weighted_trace(th) != ident:
            raise AnsatzFailed("twisting tensor fails the first-slot trace condition")
        Binv = self._Binv
        rep = Report("first integrability route")
        rep.add(
            "trace-ansatz",
            "first-slot contraction of the twisting tensor is the identity",
            "pass",
        )
        data = self._relations((lam, mu))
        commutator = _add_contracted_relation(
            rep,
            "inverse-exchange contraction equals the plain trace commutator",
            Binv, ident, data["entries"], (lam, mu),
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

    def second_report(self, lam, mu) -> Report:
        """Weight-contract the labeled relation matrix into a weighted commutator.

        The weighted trace must pass through the exchange tensor for the
        chain to close; when it does, contracting the relation entries with
        the weight and the inverse exchange tensor yields the commutator of
        the weighted traces.  A factorized twisting tensor has identity
        weight, collapsing this route to the plain one.
        """
        B = self.B
        th = require_valid(self.theta)
        Binv = self._Binv
        rep = Report("second integrability route")
        w = weighted_trace(th)
        ident = delta(B.ctx, B.dim)
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
        _add_contracted_relation(
            rep,
            "weight-and-inverse contraction equals the weighted trace commutator",
            Binv, w, self._relations((lam, mu))["entries"], (lam, mu),
        )
        if w == ident:
            rep.add(
                "route-collapse",
                "identity weight reduces the weighted route to the plain one",
                "info",
            )
        return rep
