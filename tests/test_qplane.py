"""End-to-end checks of the deformed-plane configuration and its reports."""

import sys
from pathlib import Path

import pytest

from conftest import entry, load, one_parameter_relations, two_parameter_relations
from ncorep.cli import Workspace, _resolve_input, parse_algebra_file
from ncorep.errors import (
    DenominatorVanishes,
    InputFormat,
    InvalidTheta,
    NotGroupCoefficient,
)
from ncorep.freealg import NCPoly, row_space_compare
from ncorep.qplane import (
    cross_relations,
    determinant,
    relation_report,
    verify_antipode,
    verify_D_commutations,
    verify_gamma_action_table,
)
from ncorep.rewrite import TermOrder, matrix_order, orient

GOLDEN = Path(__file__).resolve().parent / "golden"
LIMIT = (("r", "0"), ("s", "0"))
# the character table is the identity at r = s = 0, p = 1: the plain flip
FLIP = LIMIT + (("p", "1"),)


def statuses(rep):
    return {item["name"]: item["status"] for item in rep.items}


def test_build_context_smoke():
    ws = load("qplane_qprs")
    assert ws.B.dim == 2
    assert ws.rho is not None
    assert len(ws.gens) == 4


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
    ws = load("qplane_qprs")
    rep = relation_report(ws)
    assert rep.verdict() == "pass"
    assert ws.relations().rank() == 6


def test_relation_report_flip():
    fc = load("qplane_frt")
    rep = relation_report(fc)
    assert rep.verdict() == "pass"
    cmp = row_space_compare(cross_relations(fc), one_parameter_relations(fc.ctx))
    assert cmp.verdict == "equal"


def test_determinant_full_vs_matrix_pair():
    ws = load("qplane_qprs")
    ctx = ws.ctx
    det = determinant(ws)
    mform = entry(ws.M, 1, 2, 1, 2) - ctx.gen("q") * entry(ws.M, 1, 2, 2, 1)
    assert det == mform
    # the four-term shape only appears after reduction by the relations
    a, b, c, d = (NCPoly.gen(ctx, g) for g in ws.gens)
    expanded = (
        a * d
        - ctx.parse("(q/p)*(1 - r)") * (b * c)
        - ctx.parse("r/s") * (a * c)
        - ctx.parse("q*s/p") * (b * d)
    )
    diff = det - expanded
    assert not diff.is_zero()
    assert ws.relations().basis().contains(diff.terms)


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


def test_context_keeps_each_derivation(monkeypatch):
    reverse = TermOrder(reversed(matrix_order(2).precedence))
    af = parse_algebra_file(_resolve_input("qplane_qp"))
    ws = Workspace(af, (), order=reverse, max_degree=2)
    assert ws.order is reverse and ws.max_degree == 2
    # every module that binds orient gets the counting wrapper
    oriented = []

    def counting(relations, order):
        oriented.append(order)
        return orient(relations, order)

    for name, module in sorted(sys.modules.items()):
        if name.startswith("ncorep.") and getattr(module, "orient", None) is orient:
            monkeypatch.setattr(module, "orient", counting)
    assert verify_D_commutations(ws).verdict() == "pass"
    assert verify_antipode(ws).verdict() == "pass"
    assert oriented == [reverse]
    assert ws.rewrite_system().order is ws.order
    kept = (
        ws.validation,
        ws.images,
        lambda: ws.M,
        lambda: ws.bosonic,
        ws.relations,
        ws.rewrite_system,
        lambda: ws.confluence(ws.max_degree),
        ws.determinant,
        ws.pair_form,
        ws.cocycle,
    )
    for derive in kept:
        assert derive() is derive()
    assert len(oriented) == 1
    # a derivation that raised raises the same error again
    bad = Workspace(parse_algebra_file(GOLDEN / "corrupt_theta.alg"))
    assert bad.M is bad.M
    with pytest.raises(InvalidTheta) as first:
        bad.rewrite_system()
    with pytest.raises(InvalidTheta) as again:
        bad.relations()
    assert again.value is first.value


def test_determinant_needs_exchange_relation(tmp_path):
    # the shipped input with its Grassmann space stripped to the square rules
    text = _resolve_input("qplane_qprs").read_text(encoding="utf-8")
    path = tmp_path / "bare.alg"
    path.write_text("".join(line for line in text.splitlines(True) if not line.startswith("rel ")))
    stripped = Workspace(parse_algebra_file(path))
    assert stripped.space.relations.rank() == 2
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
    assert lim.rho.entries == {(1, 1): ctx.one, (2, 2): ctx.parse("1/p")}
    assert lim.theta.entries == {
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
    rep = verify_D_commutations(lim)
    assert rep.verdict() == "pass"
    assert statuses(rep)["system-confluent"] == "pass"


def test_antipode_at_limit():
    lim = load("qplane_qprs", *LIMIT)
    rep = verify_antipode(lim)
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
