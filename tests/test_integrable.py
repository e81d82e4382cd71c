"""Tests for spectral families and both trace-commutation routes."""

import pytest

from conftest import (
    check_trace_ansatz,
    flip_theta,
    from_matrix,
    identity4,
    load,
    tensor_from_entries,
)
from ncorep.corep import ThetaMap
from ncorep.errors import InvalidTheta, NotInvertible
from ncorep import integrable, tensors
from ncorep.integrable import (
    SpectralFamily,
    spectral_relations,
    weight_commutation_holds,
    weighted_trace,
    weighted_trace_element,
)
from ncorep.freealg import NCPoly, T
from ncorep.scalars import Context
from ncorep.tensors import Tensor, delta


def statuses(rep):
    return {item["name"]: item["status"] for item in rep.items}


def standard_family():
    ws = load("qplane_qprs")
    return ws, SpectralFamily(ws.B, ws.theta)


def test_first_route_standard():
    ws, fam = standard_family()
    rep = fam.first_report("lam", "mu")
    assert rep.verdict() == "pass"
    assert statuses(rep) == {
        "trace-ansatz": "pass",
        "contracted-relation": "pass",
        "commutator-in-relation-span": "pass",
    }


def test_second_route_standard():
    ws, fam = standard_family()
    rep = fam.second_report("lam", "mu")
    assert rep.verdict() == "pass"
    st = statuses(rep)
    assert st["factorized-weight-identity"] == "pass"
    assert st["weight-commutation"] == "pass"
    assert st["contracted-relation"] == "pass"
    assert st["route-collapse"] == "info"


def test_spectral_relation_rank():
    ws = load("qplane_qprs")
    data = spectral_relations(ws.B, ws.theta, ("lam", "mu"))
    assert len(data["relations"].polys) == 16
    assert data["relations"].rank() == 16


def test_flip_routes():
    ws = load("qplane_qprs")
    flip = flip_theta(ws.ctx, 2)
    assert SpectralFamily(ws.B, flip).first_report("lam", "mu").verdict() == "pass"
    rep = SpectralFamily(ws.B, flip).second_report("lam", "mu")
    assert rep.verdict() == "pass"
    # the flip carries no recorded factorization, so the weight is reported
    assert statuses(rep)["weight-table"] == "info"


def test_identity_exchange_same_label_degenerates():
    ws = load("qplane_qprs")
    ident = identity4(ws.ctx, 2)
    data = spectral_relations(ident, ws.theta, (None, None))
    assert all(p.is_zero() for p in data["entries"].values())
    rep = SpectralFamily(ident, ws.theta).first_report(None, None)
    assert rep.verdict() == "pass"


def test_weighted_trace_identity_for_factorized_and_flip():
    ws = load("qplane_qprs")
    assert weighted_trace(ws.theta) == delta(ws.ctx, 2)
    assert weighted_trace(flip_theta(ws.ctx, 2)) == delta(ws.ctx, 2)
    assert check_trace_ansatz(ws.theta) is True
    assert check_trace_ansatz(flip_theta(ws.ctx, 2)) is True


def test_weighted_trace_element_shape():
    ctx = Context(["q", "p", "r", "s"])
    w = Tensor(ctx, 2, 1, 1, {(1, 1): ctx.one, (2, 2): ctx.parse("p")})
    elt = weighted_trace_element(w, "lam")
    expect = NCPoly.gen(ctx, T(1, 1, "lam")) + ctx.parse("p") * NCPoly.gen(
        ctx, T(2, 2, "lam")
    )
    assert elt == expect


def test_trace_ansatz_rejects_invalid_theta():
    ctx = Context(["q", "p", "r", "s"])
    broken = ThetaMap(tensor_from_entries(ctx, 2, 2, 2, [((1, 1, 1, 1), "1")]))
    with pytest.raises(InvalidTheta):
        check_trace_ansatz(broken)


def test_weight_commutation_negative():
    ws = load("qplane_qprs")
    ctx = ws.ctx
    w_bad = Tensor(ctx, 2, 1, 1, {(1, 1): ctx.one, (2, 2): ctx.parse("2")})
    assert weight_commutation_holds(ws.B, w_bad) is False
    assert weight_commutation_holds(ws.B, delta(ctx, 2)) is True


def test_raw_theta_second_route():
    ws = load("qplane_qp")
    # the factorized two-parameter tensor, without its character table
    raw = ThetaMap(ws.theta.tensor)
    rep = SpectralFamily(ws.B, raw).second_report("lam", "mu")
    assert rep.verdict() == "pass"
    st = statuses(rep)
    assert st["weight-table"] == "info"
    assert st["route-collapse"] == "info"


def test_singular_exchange_rejected():
    ws = load("qplane_qprs")
    ctx = ws.ctx
    rows = [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "0"]]
    singular = from_matrix(ctx, 2, rows)
    with pytest.raises(NotInvertible):
        SpectralFamily(singular, ws.theta).first_report("lam", "mu")
    with pytest.raises(NotInvertible):
        SpectralFamily(singular, ws.theta).second_report("lam", "mu")


def test_both_routes_share_one_inverse_and_one_relation_table(monkeypatch):
    # invert4 reaches _invert once for each inversion it computes
    ws, fam = standard_family()
    calls = {"_invert": [], "spectral_relations": []}
    for module, name in ((tensors, "_invert"), (integrable, "spectral_relations")):
        original = getattr(module, name)

        def counting(*args, _name=name, _original=original):
            calls[_name].append(args[0])
            return _original(*args)

        monkeypatch.setattr(module, name, counting)
    first = fam.first_report("lam", "mu")
    second = fam.second_report("lam", "mu")
    assert first.verdict() == second.verdict() == "pass"
    assert [len(args) for args in calls.values()] == [1, 1]
    assert calls["_invert"][0] is fam.B
