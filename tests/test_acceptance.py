"""Acceptance suite: eleven exact end-to-end properties, one test each.

Every check is exact arithmetic over the rational function field; there are
no tolerances anywhere.  Run with -v to get one verdict line per property.
"""

import itertools

import pytest

from conftest import (
    check_trace_ansatz,
    identity4,
    load,
    one_parameter_relations,
    read_over,
    tensor_from_entries,
    two_parameter_relations,
)
from ncorep.bialg import (
    Presentation,
    braid_form,
    twist_R,
    twisted_product_relations,
)
from ncorep.cli import _resolve_input, main, parse_algebra_file
from ncorep.corep import (
    build_M,
    check_grouplike,
    coaction_word,
    coideal_check,
    generate_ideal,
    grouplike_defect,
    homomorphism_check,
    validate_theta,
)
from ncorep.errors import DenominatorVanishes
from ncorep.freealg import NCPoly, RelationSet, T, poly_vector, row_space_compare
from ncorep.integrable import (
    spectral_relations,
    weight_commutation_holds,
    weighted_trace,
)
from ncorep.qplane import cross_relations, verify_antipode, verify_D_commutations
from ncorep.rewrite import confluence_check, count_irreducible
from ncorep.tensors import (
    compose,
    delta,
    invert4,
    swap_lower,
    ybe_residual,
)

GOLDEN = ("qplane_qprs", "qplane_qp", "qplane_frt", "spectral_demo")
LIMIT = (("r", "0"), ("s", "0"))


def corrupted_theta(ctx):
    # the flip with one crossing rescaled; breaks both validity identities
    return tensor_from_entries(ctx, 2, 2, 2, [
        ((1, 1, 1, 1), "1"), ((1, 2, 2, 1), "1"),
        ((2, 1, 1, 2), "q"), ((2, 2, 2, 2), "1"),
    ])


def test_c01_braid_identity_holds_and_symmetric_form_fails_it():
    af = parse_algebra_file(_resolve_input("qplane_qprs"))
    assert not ybe_residual(af.B)
    assert ybe_residual(af.Bprime)
    # the symmetric form is an involution instead
    assert compose(af.Bprime, af.Bprime) == identity4(af.ctx, 2)


def test_c02_twist_validity_equivalent_to_grouplike_matrix():
    full = load("qplane_qprs").theta
    res = validate_theta(full)
    assert res["valid"] and res["violations"] == []
    flip = load("qplane_frt").theta
    corrupt = corrupted_theta(full.ctx)
    assert not validate_theta(corrupt)["valid"]
    for th in (full, flip, corrupt):
        grouplike = check_grouplike(grouplike_defect(build_M(th)))
        assert validate_theta(th)["valid"] == grouplike


def test_c03_commutation_ideal_spans_the_six_twisted_relations():
    ws = load("qplane_qprs")
    ideal = generate_ideal(ws.B, build_M(ws.theta))
    assert ideal.rank() == 6
    cmp = row_space_compare(ideal, cross_relations(ws))
    assert cmp.verdict == "equal"
    # the [Bprime] form is an involution, not a braid, yet its commutation
    # ideal with the same matrix is the braid ideal
    Bprime = read_over(ws.ctx, parse_algebra_file(_resolve_input("qplane_qprs")).Bprime)
    assert row_space_compare(generate_ideal(Bprime, ws.M), ideal).verdict == "equal"


def test_c04_determinant_four_term_form_and_two_parameter_limit():
    ws = load("qplane_qprs")
    ctx = ws.ctx
    a, b, c, d = (NCPoly.gen(ctx, g) for g in ws.gens)
    four = (
        a * d
        - ctx.parse("(q/p)*(1 - r)") * (b * c)
        - ctx.parse("r/s") * (a * c)
        - ctx.parse("q*(s/p)") * (b * d)
    )
    # equality holds in the quotient: the free-algebra difference is an
    # explicit combination of the quadratic relations
    diff = ws.determinant() - four
    assert ws.relations().basis().contains(poly_vector(diff))
    lim = load("qplane_qprs", *LIMIT)
    a, b, c, d = (NCPoly.gen(lim.ctx, g) for g in lim.gens)
    assert lim.determinant() == a * d - lim.ctx.parse("q/p") * (b * c)


def test_c05_sequential_limit_chain_and_order_obstruction():
    lim = load("qplane_qprs", *LIMIT)
    ctx = lim.ctx
    # the ordered limit is the shipped two-parameter configuration, read
    # into the limit's Context
    two = load("qplane_qp")
    assert lim.theta == read_over(ctx, two.theta)
    assert lim.rho == read_over(ctx, two.rho)
    assert row_space_compare(lim.relations(), read_over(ctx, two.relations())).verdict == "equal"
    assert row_space_compare(lim.relations(), two_parameter_relations(ctx)).verdict == "equal"
    # substituting into the four-parameter relations reaches the same span
    full = read_over(ctx, load("qplane_qprs").relations())
    subst = RelationSet(ctx, full.family, [r.substitute(LIMIT) for r in full])
    assert row_space_compare(subst, two_parameter_relations(ctx)).verdict == "equal"
    # p = 1 recovers the one-parameter span
    one = RelationSet(ctx, full.family, [r.substitute([("p", "1")]) for r in lim.relations()])
    assert row_space_compare(one, one_parameter_relations(ctx)).verdict == "equal"
    with pytest.raises(DenominatorVanishes) as exc:
        load("qplane_qprs", ("s", "0"), ("r", "0"))
    assert exc.value.param == "s"


def brute_count(rs, degree):
    # exhaustive scan over every word of the given length, no pruning
    lhs = [l for l, _ in rs.rule_list()]
    total = 0
    for word in itertools.product(rs.alphabet(), repeat=degree):
        hit = any(
            word[i:i + len(l)] == l
            for l in lhs
            for i in range(len(word) - len(l) + 1)
        )
        if not hit:
            total += 1
    return total


def test_c06_limit_system_confluent_with_flat_dimension_growth():
    lim = load("qplane_qprs", *LIMIT)
    rs = lim.rewrite_system()
    out = confluence_check(rs, maxdeg=3)
    assert out["confluent"] and out["ambiguities"] == []
    for deg, expected in enumerate([1, 4, 10, 20, 35]):
        assert count_irreducible(rs, deg) == expected
        assert brute_count(rs, deg) == expected


def test_c07_scale_commutations_and_antipode_inverses_reduce_to_zero():
    lim = load("qplane_qprs", *LIMIT)
    drep = verify_D_commutations(lim)
    assert drep.verdict() == "pass"
    commutations = [
        it["name"] for it in drep.items if it["name"].startswith("commutation-")
    ]
    assert commutations == [
        "commutation-a", "commutation-b", "commutation-c", "commutation-d",
    ]
    arep = verify_antipode(lim)
    assert arep.verdict() == "pass"
    inverses = [it for it in arep.items if it["name"].startswith("inverse-")]
    assert len(inverses) == 8
    assert all(it["status"] == "pass" for it in inverses)


def test_c08_coideal_and_comodule_for_flip_and_twisted_coactions():
    fr = load("qplane_frt")
    ideal_f = generate_ideal(fr.B, build_M(fr.theta))
    assert coideal_check(fr.B, fr.defect())
    assert row_space_compare(ideal_f, one_parameter_relations(fr.ctx)).verdict == "equal"
    assert homomorphism_check(fr.bosonic, fr.M, ideal_f)
    ws = load("qplane_qprs")
    ctx = ws.ctx
    ideal = ws.relations()
    assert coideal_check(ws.B, ws.defect())
    assert homomorphism_check(ws.bosonic, ws.M, ideal)
    assert homomorphism_check(ws.space, ws.M, ideal)
    # coacting on the odd top pair lands on the top word alone: squares die
    # in the quotient and the disordered pair folds in with factor -q
    co = coaction_word(ws.M, (1, 2))
    assert set(co) <= {(1, 1), (1, 2), (2, 1), (2, 2)}
    folded = co[(1, 2)] - ctx.gen("q") * co.get((2, 1), NCPoly.zero(ctx))
    assert not folded.is_zero()
    assert folded == ws.determinant()


def test_c09_twisted_exchange_keeps_braid_identity_and_relations():
    two = load("qplane_qp")
    phi = two.pair_form()
    R = braid_form(phi.pres, two.B)
    twisted = twist_R(R, phi)
    assert twisted != R.base
    assert not ybe_residual(swap_lower(twisted))
    ws = load("qplane_qprs")
    R = braid_form(Presentation(ws.ctx, 2), ws.B)
    M = build_M(ws.theta)
    rel = twisted_product_relations(R, M)
    cmp = row_space_compare(rel, generate_ideal(ws.B, M))
    assert cmp.verdict == "equal"
    out = load("qplane_qprs", ("r", "0")).cocycle()
    assert out["holds"] and out["residuals"] == {}


def test_c10_labeled_contraction_gives_trace_commutator():
    ws = load("qplane_qprs")
    ctx = ws.ctx
    B, th = ws.B, ws.theta
    assert check_trace_ansatz(th)
    data = spectral_relations(B, th, ("lam", "mu"))
    Binv = invert4(B)
    contracted = NCPoly.zero(ctx)
    for i, j, k, l in itertools.product((1, 2), repeat=4):
        c = Binv.get(k, l, i, j)
        if not c.is_zero():
            contracted = contracted + c * data["entries"][(i, j, k, l)]

    def tr(label):
        out = NCPoly.zero(ctx)
        for m in (1, 2):
            out = out + NCPoly.gen(ctx, T(m, m, label))
        return out

    tlam, tmu = tr("lam"), tr("mu")
    assert contracted == tlam * tmu - tmu * tlam
    # the factorized twist has identity weight, so the weighted route
    # degenerates to the plain one and the pass-through holds trivially
    w = weighted_trace(th)
    assert w == delta(ctx, 2)
    assert weight_commutation_holds(B, w)


def test_c11_full_reports_on_golden_inputs_are_byte_identical(tmp_path):
    for name in GOLDEN:
        blobs = []
        for tag in ("one", "two"):
            out = tmp_path / ("%s_%s.json" % (name, tag))
            code = main(["--input", name, "full-report", "--json", str(out)])
            assert code in (0, 1)
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]
