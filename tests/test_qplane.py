"""End-to-end checks of the deformed-plane configuration and its reports."""

import pytest

from conftest import load, one_parameter_relations, two_parameter_relations
from ncorep.cli import Workspace, parse_algebra_file
from ncorep.corep import QuadraticSpace, ThetaMap, poly_vector
from ncorep.errors import (
    DenominatorVanishes,
    InputFormat,
    InvalidTheta,
    NotGroupCoefficient,
)
from ncorep.freealg import NCPoly, row_space_compare
from ncorep.qplane import (
    QPlaneContext,
    cross_relations,
    determinant,
    relation_report,
    verify_antipode,
    verify_D_commutations,
    verify_gamma_action_table,
)
from ncorep.rewrite import matrix_order
from ncorep.tensors import Tensor

LIMIT = (("r", "0"), ("s", "0"))
# the character table is the identity at r = s = 0, p = 1: the plain flip
FLIP = LIMIT + (("p", "1"),)


def statuses(rep):
    return {item["name"]: item["status"] for item in rep.items}


def test_build_context_smoke():
    qp = load("qplane_qprs")
    assert qp.B.dim == 2
    assert qp.theta.rho is not None
    assert len(qp.gens) == 4


def test_build_context_rejects_singular_character_table(tmp_path):
    path = tmp_path / "singular.alg"
    path.write_text(
        '[algebra]\ndim = 2\nparams = q\n'
        '[B]\n1 1 1 1 = "1"\n'
        '[theta]\nrho 1 1 = "1"\nrho 1 2 = "1"\nrho 2 1 = "1"\nrho 2 2 = "1"\n'
    )
    with pytest.raises(InputFormat, match="not invertible"):
        Workspace(parse_algebra_file(path))


def test_relation_report_full_parameters():
    qp = load("qplane_qprs")
    rep = relation_report(qp)
    assert rep.verdict() == "pass"
    assert qp.relations().rank() == 6


def test_relation_report_flip():
    fc = load("qplane_frt")
    rep = relation_report(fc)
    assert rep.verdict() == "pass"
    cmp = row_space_compare(cross_relations(fc), one_parameter_relations(fc.ctx))
    assert cmp.verdict == "equal"


def test_determinant_full_vs_matrix_pair():
    qp = load("qplane_qprs")
    ctx = qp.ctx
    det = determinant(qp)
    mform = qp.M.get(1, 2, 1, 2) - ctx.gen("q") * qp.M.get(1, 2, 2, 1)
    assert det == mform
    # the four-term shape only appears after reduction by the relations
    a, b, c, d = (NCPoly.gen(ctx, g) for g in qp.gens)
    expanded = (
        a * d
        - ctx.parse("(q/p)*(1 - r)") * (b * c)
        - ctx.parse("r/s") * (a * c)
        - ctx.parse("q*s/p") * (b * d)
    )
    diff = det - expanded
    assert not diff.is_zero()
    assert qp.relations().basis().contains(poly_vector(diff))


def test_determinant_limit_two_terms():
    lim = load("qplane_qprs", *LIMIT)
    ctx = lim.ctx
    a, b, c, d = (NCPoly.gen(ctx, g) for g in lim.gens)
    assert determinant(lim) == a * d - ctx.parse("q/p") * (b * c)


def test_determinant_flip_classical():
    fc = load("qplane_qprs", *FLIP)
    ctx = fc.ctx
    a, b, c, d = (NCPoly.gen(ctx, g) for g in fc.gens)
    dflip = determinant(fc)
    assert dflip == a * d - ctx.gen("q") * (b * c)
    assert dflip.substitute([("q", "1")]) == (a * d - b * c)


def test_context_keeps_each_derivation():
    fc = load("qplane_qprs", *FLIP)
    assert fc.relations() is fc.relations()
    order = matrix_order(2)
    assert fc.rewrite_system(order) is fc.rewrite_system(matrix_order(2))
    assert fc.determinant() is fc.determinant()
    entries = dict(fc.theta.tensor.entries)
    entries[(2, 1, 1, 2)] = fc.ctx.gen("q")
    theta = ThetaMap(Tensor(fc.ctx, 2, 2, 2, entries))
    bad = QPlaneContext(fc.ctx, fc.B, theta, fc.bosonic, fc.grassmann)
    assert bad.M is bad.M
    with pytest.raises(InvalidTheta) as first:
        bad.rewrite_system(order)
    with pytest.raises(InvalidTheta) as again:
        bad.relations()
    assert again.value is first.value


def test_determinant_needs_exchange_relation():
    qp = load("qplane_qprs")
    bare = QuadraticSpace(qp.ctx, 2, parity="grassmann", relations=[])
    stripped = QPlaneContext(qp.ctx, qp.B, qp.theta, qp.bosonic, bare)
    with pytest.raises(NotGroupCoefficient):
        determinant(stripped)
    with pytest.raises(NotGroupCoefficient) as first:
        stripped.determinant()
    with pytest.raises(NotGroupCoefficient) as again:
        stripped.determinant()
    assert again.value is first.value


def test_limit_tensors():
    lim = load("qplane_qprs", *LIMIT)
    ctx = lim.ctx
    assert lim.theta.rho.entries == {(1, 1): ctx.one, (2, 2): ctx.parse("1/p")}
    assert lim.theta.tensor.entries == {
        (1, 1, 1, 1): ctx.one,
        (1, 2, 2, 1): ctx.gen("p"),
        (2, 1, 1, 2): ctx.parse("1/p"),
        (2, 2, 2, 2): ctx.one,
    }


def test_limit_reversal_hits_pole():
    with pytest.raises(DenominatorVanishes) as exc:
        load("qplane_qprs", ("s", "0"), ("r", "0"))
    assert exc.value.param == "s"


def test_limit_relations_match_literal_table():
    lim = load("qplane_qprs", *LIMIT)
    two = two_parameter_relations(lim.ctx)
    assert row_space_compare(lim.relations(), two).verdict == "equal"
    assert two.rank() == 6


def test_D_commutations_at_limit():
    lim = load("qplane_qprs", *LIMIT)
    rep = verify_D_commutations(lim, matrix_order(2))
    assert rep.verdict() == "pass"
    assert statuses(rep)["system-confluent"] == "pass"


def test_antipode_at_limit():
    lim = load("qplane_qprs", *LIMIT)
    rep = verify_antipode(lim, matrix_order(2))
    assert rep.verdict() == "pass"
    assert len(rep.items) == 9


def factors(rep, name):
    return [it for it in rep.items if it["name"] == name][0]["artifacts"]["factors"]


def test_gamma_table_at_limit():
    lim = load("qplane_qprs", *LIMIT)
    ctx = lim.ctx
    rep = verify_gamma_action_table(lim)
    assert rep.verdict() == "pass"
    st = statuses(rep)
    assert st["exchange-scalars-plain"] == "pass"
    assert st["exchange-scalars-twisted"] == "pass"
    # report artifacts hold the printed scalars
    table = dict(zip("abcd", map(str, (ctx.one, ctx.gen("p"), ctx.gen("p").inv(), ctx.one))))
    assert factors(rep, "exchange-scalars-plain") == table
    assert factors(rep, "exchange-scalars-twisted") == table


def test_gamma_table_full_parameters_not_diagonal():
    rep = verify_gamma_action_table(load("qplane_qprs"))
    st = statuses(rep)
    assert st["trace-preserved"] == "pass"
    assert st["exchange-scalars-plain"] == "info"
    assert st["exchange-scalars-twisted"] == "info"


def test_gamma_table_partial_limit_not_diagonal():
    # killing only the off-diagonal deformation keeps a triangular character
    # table, so twisted generators still fail to be exchange eigenvectors
    three = load("qplane_qprs", ("r", "0"))
    st = statuses(verify_gamma_action_table(three))
    assert st["trace-preserved"] == "pass"
    assert st["exchange-scalars-twisted"] == "info"


def test_gamma_table_flip_identity_factors():
    rep = verify_gamma_action_table(load("qplane_frt"))
    assert rep.verdict() == "pass"
    assert factors(rep, "exchange-scalars-plain") == {
        "a": "1", "b": "1", "c": "1", "d": "1",
    }
