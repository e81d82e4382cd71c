"""End-to-end checks of the deformed-plane configuration and its reports."""

import pytest

from ncorep.corep import QuadraticSpace, ThetaMap, poly_vector
from ncorep.errors import (
    DenominatorVanishes,
    InvalidTheta,
    InvariantViolated,
    NotGroupCoefficient,
)
from ncorep.freealg import NCPoly, T, row_space_compare
from ncorep.qplane import (
    QPlaneContext,
    bmqp_relations,
    build_context,
    cross_relations,
    derive_relations,
    determinant,
    determinant_report,
    flip_context,
    limit_report,
    limit_rho_expected,
    limit_theta_expected,
    master_relation_check,
    one_parameter_relations,
    relation_report,
    sequential_limit,
    verify_antipode,
    verify_D_commutations,
    verify_gamma_action_table,
)
from ncorep.rewrite import matrix_order
from ncorep.scalars import Context
from ncorep.tensors import Tensor, tensor_from_entries


def statuses(rep):
    return {item["name"]: item["status"] for item in rep.items}


def test_build_context_smoke():
    qp = build_context()
    assert qp.dim == 2
    assert qp.theta.rho is not None
    assert len(qp.gens) == 4


def test_build_context_rejects_singular_character_table():
    ctx = Context(["q", "p", "r", "s"])
    rho = tensor_from_entries(ctx, 2, 1, 1, [
        ((1, 1), "1"), ((1, 2), "1"), ((2, 1), "1"), ((2, 2), "1"),
    ])
    with pytest.raises(InvariantViolated):
        build_context(ctx, rho=rho)


def test_build_context_rejects_invalid_theta():
    ctx = Context(["q", "p", "r", "s"])
    broken = tensor_from_entries(ctx, 2, 2, 2, [((1, 1, 1, 1), "1")])
    with pytest.raises(InvariantViolated):
        build_context(ctx, theta=broken)


def test_relation_report_full_parameters():
    qp = build_context()
    rep = relation_report(qp)
    assert rep.verdict() == "pass"
    assert derive_relations(qp).rank() == 6


def test_relation_report_flip():
    fc = flip_context()
    rep = relation_report(fc)
    assert rep.verdict() == "pass"
    cross = cross_relations(fc)
    cmp = row_space_compare(cross, one_parameter_relations(fc.ctx))
    assert cmp.verdict == "equal"


def test_determinant_report():
    qp = build_context()
    rep = determinant_report(qp)
    assert rep.verdict() == "pass"
    assert statuses(rep) == {
        "determinant-matrix-form": "pass",
        "determinant-expanded": "pass",
        "determinant-limit": "pass",
    }


def test_determinant_full_vs_matrix_pair():
    qp = build_context()
    ctx = qp.ctx
    det = determinant(qp)
    mform = qp.M.get(1, 2, 1, 2) - ctx.gen("q") * qp.M.get(1, 2, 2, 1)
    assert det.poly == mform
    # the four-term shape only appears after reduction by the relations
    a, b, c, d = (NCPoly.gen(ctx, g) for g in qp.gens)
    expanded = (
        a * d
        - ctx.parse("(q/p)*(1 - r)") * (b * c)
        - ctx.parse("r/s") * (a * c)
        - ctx.parse("q*s/p") * (b * d)
    )
    diff = det.poly - expanded
    assert not diff.is_zero()
    assert derive_relations(qp).basis().contains(poly_vector(diff))


def test_determinant_limit_two_terms():
    qp = build_context()
    lim = sequential_limit(qp)
    ctx = qp.ctx
    a, b, c, d = (NCPoly.gen(ctx, g) for g in qp.gens)
    assert determinant(lim).poly == a * d - ctx.parse("q/p") * (b * c)


def test_determinant_flip_classical():
    fc = flip_context()
    ctx = fc.ctx
    a, b, c, d = (NCPoly.gen(ctx, g) for g in fc.gens)
    dflip = determinant(fc).poly
    assert dflip == a * d - ctx.gen("q") * (b * c)
    assert dflip.substitute([("q", "1"), ("p", "1")]) == (a * d - b * c)


def test_context_keeps_each_derivation():
    fc = flip_context()
    assert fc.relations() is derive_relations(fc)
    order = matrix_order(fc.ctx, 2)
    assert fc.rewrite_system(order) is fc.rewrite_system(matrix_order(fc.ctx, 2))
    assert fc.determinant() is fc.determinant()
    entries = dict(fc.theta.tensor.entries)
    entries[(2, 1, 1, 2)] = fc.ctx.gen("q")
    theta = ThetaMap(Tensor(fc.ctx, 2, 2, 2, entries))
    bad = QPlaneContext(fc.ctx, fc.B, fc.Bprime, theta, fc.bosonic, fc.grassmann)
    assert bad.M is bad.M
    with pytest.raises(InvalidTheta) as first:
        bad.rewrite_system(order)
    with pytest.raises(InvalidTheta) as again:
        bad.relations()
    assert again.value is first.value


def test_determinant_needs_exchange_relation():
    qp = build_context()
    bare = QuadraticSpace(qp.ctx, 2, parity="grassmann", relations=[])
    stripped = QPlaneContext(qp.ctx, qp.B, qp.Bprime, qp.theta, qp.bosonic, bare)
    with pytest.raises(NotGroupCoefficient):
        determinant(stripped)
    with pytest.raises(NotGroupCoefficient) as first:
        stripped.determinant()
    with pytest.raises(NotGroupCoefficient) as again:
        stripped.determinant()
    assert again.value is first.value


def test_limit_report():
    qp = build_context()
    rep = limit_report(qp)
    assert rep.verdict() == "pass"
    assert all(item["status"] == "pass" for item in rep.items)


def test_limit_tensors():
    qp = build_context()
    lim = sequential_limit(qp)
    assert lim.theta.tensor == limit_theta_expected(qp.ctx)
    assert lim.theta.rho == limit_rho_expected(qp.ctx)


def test_limit_reversal_hits_pole():
    qp = build_context()
    with pytest.raises(DenominatorVanishes) as exc:
        sequential_limit(qp, (("s", "0"), ("r", "0")))
    assert exc.value.param == "s"


def test_limit_relations_match_literal_table():
    qp = build_context()
    lim = sequential_limit(qp)
    cmp = row_space_compare(derive_relations(lim), bmqp_relations(qp.ctx))
    assert cmp.verdict == "equal"
    assert bmqp_relations(qp.ctx).rank() == 6


def test_D_commutations_at_limit():
    lim = sequential_limit(build_context())
    rep = verify_D_commutations(lim)
    assert rep.verdict() == "pass"
    assert statuses(rep)["system-confluent"] == "pass"


def test_antipode_at_limit():
    lim = sequential_limit(build_context())
    rep = verify_antipode(lim)
    assert rep.verdict() == "pass"
    assert len(rep.items) == 9


def test_gamma_table_at_limit():
    qp = build_context()
    lim = sequential_limit(qp)
    ctx = qp.ctx
    table = (ctx.one, ctx.gen("p"), ctx.gen("p").inv(), ctx.one)
    rep = verify_gamma_action_table(lim, expected=table)
    assert rep.verdict() == "pass"
    st = statuses(rep)
    assert st["exchange-scalars-plain"] == "pass"
    assert st["exchange-scalars-twisted"] == "pass"


def test_gamma_table_full_parameters_not_diagonal():
    qp = build_context()
    rep = verify_gamma_action_table(qp)
    st = statuses(rep)
    assert st["trace-preserved"] == "pass"
    assert st["exchange-scalars-plain"] == "info"
    assert st["exchange-scalars-twisted"] == "info"


def test_gamma_table_partial_limit_not_diagonal():
    # killing only the off-diagonal deformation keeps a triangular character
    # table, so twisted generators still fail to be exchange eigenvectors
    qp = build_context()
    three = sequential_limit(qp, (("r", "0"),))
    st = statuses(verify_gamma_action_table(three))
    assert st["trace-preserved"] == "pass"
    assert st["exchange-scalars-twisted"] == "info"


def test_gamma_table_flip_identity_factors():
    fc = flip_context()
    rep = verify_gamma_action_table(fc)
    assert rep.verdict() == "pass"
    factors = [it for it in rep.items if it["name"] == "exchange-scalars-plain"]
    assert factors[0]["artifacts"]["factors"] == {
        "a": "1", "b": "1", "c": "1", "d": "1",
    }


def test_master_relation_check():
    qp = build_context()
    rep = master_relation_check(qp)
    assert rep.verdict() == "pass"
    st = statuses(rep)
    assert st["symmetric-form-involution"] == "pass"
    assert st["alternative-ideal"] == "pass"
    assert st["master-sandwich-contained"] == "pass"
    assert st["master-sandwich-two-sided"] == "pass"
    ranks = {it["name"]: it.get("artifacts", {}).get("rank") for it in rep.items}
    assert ranks["master-sandwich-contained"] == 3
    assert ranks["master-sandwich-two-sided"] == 6
