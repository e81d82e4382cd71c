"""Tests for twisting-tensor validity, the generated matrix and coaction checks."""

import collections
from pathlib import Path

import pytest

from conftest import (
    expanded_grouplike_defect,
    flip_theta,
    from_matrix,
    identity4,
    load,
    reference_coaction_word,
    tensor_from_entries,
)
from ncorep import corep, scalars
from ncorep.bialg import Presentation, tilde_images
from ncorep.cli import Workspace, main, parse_algebra_file
from ncorep.corep import (
    MMatrix,
    QuadraticSpace,
    build_M,
    check_grouplike,
    coaction_word,
    coideal_check,
    factorized_theta,
    generate_ideal,
    grouplike_defect,
    homomorphism_check,
    validate_theta,
)
from ncorep.errors import ShapeMismatch, UnknownGenerator
from ncorep.freealg import (
    NCPoly,
    RelationSet,
    SpanBasis,
    T,
    apply_hom,
    matrix_family,
    poly_vector,
    row_space_compare,
)
from ncorep.scalars import Context
from ncorep.tensors import Tensor


GOLDEN = Path(__file__).parent / "golden"


def ctx4():
    return Context(["q", "p", "r", "s"])


def braid(ctx):
    return from_matrix(ctx, 2, [
        ["1", "0", "0", "0"],
        ["0", "0", "q", "0"],
        ["0", "q", "1 - q^2", "0"],
        ["0", "0", "0", "1"],
    ])


def rho_full(ctx):
    return tensor_from_entries(ctx, 2, 1, 1, [
        ((1, 1), "1"), ((1, 2), "r/s"), ((2, 1), "-s/p"), ((2, 2), "(1 - r)/p"),
    ])


def corrupted_theta(ctx):
    # flip with one off-diagonal entry rescaled: keeps the counit identity,
    # breaks the coassociativity identity
    ent = dict(flip_theta(ctx, 2).entries)
    ent[(1, 2, 2, 1)] = ctx.gen("q")
    return Tensor(ctx, 2, 2, 2, ent)


def test_validate_factorized():
    ctx = ctx4()
    th = factorized_theta(rho_full(ctx))
    out = validate_theta(th)
    assert out["valid"]
    assert out["violations"] == []


def test_validate_flip():
    ctx = ctx4()
    assert validate_theta(flip_theta(ctx, 2))["valid"]


def test_validate_zero_tensor():
    ctx = ctx4()
    out = validate_theta(Tensor(ctx, 2, 2, 2, {}))
    assert not out["valid"]
    counit_hits = [v[1] for v in out["violations"] if v[0] == "counit"]
    assert counit_hits == [(1, 1), (2, 2)]


def test_validate_corrupted():
    ctx = ctx4()
    out = validate_theta(corrupted_theta(ctx))
    assert not out["valid"]
    kinds = {v[0] for v in out["violations"]}
    assert kinds == {"coassociativity"}


def test_build_M_entries():
    ctx = ctx4()
    th = factorized_theta(rho_full(ctx))
    M = build_M(th)
    a = NCPoly.gen(ctx, T(1, 1))
    dt = apply_hom(NCPoly.gen(ctx, T(2, 2)), tilde_images(th))
    assert M.get(1, 2, 1, 2) == a * dt
    for (i, j, k, l), entry in M.entries.items():
        assert {len(w) for w in entry.terms} == {2}


def test_build_M_flip():
    ctx = ctx4()
    M = build_M(flip_theta(ctx, 2))
    for i in (1, 2):
        for j in (1, 2):
            for k in (1, 2):
                for l in (1, 2):
                    want = NCPoly.gen(ctx, T(i, k)) * NCPoly.gen(ctx, T(j, l))
                    assert M.get(i, j, k, l) == want


def test_build_M_spectral_labels():
    ctx = ctx4()
    th = factorized_theta(rho_full(ctx))
    M = build_M(th, labels=("lam", "mu"))
    for entry in M.entries.values():
        for w in entry.terms:
            assert len(w) == 2
            assert w[0].label == "lam"
            assert w[1].label == "mu"


def test_grouplike_iff_valid():
    ctx = ctx4()
    th = factorized_theta(rho_full(ctx))
    assert check_grouplike(build_M(th))
    assert check_grouplike(build_M(flip_theta(ctx, 2)))
    assert not check_grouplike(build_M(corrupted_theta(ctx)))
    # the zero tensor satisfies the coassociativity identity and fails only
    # the counit one: M = 0 has Delta(M) = M (x) M but counit(M) = 0
    zero = build_M(Tensor(ctx, 2, 2, 2, {}))
    assert not check_grouplike(zero)
    G, E = grouplike_defect(zero)
    assert G.entries == {}
    assert set(E.entries) == {(i, j, i, j) for i in (1, 2) for j in (1, 2)}


def assert_defect_matches_the_expansion(M):
    got, want = grouplike_defect(M), expanded_grouplike_defect(M)
    for g, w in zip(got, want):
        assert list(g.entries.items()) == list(w.entries.items())
    return got[0]


def test_defect_counts_the_pairs_of_each_coproduct():
    # M_11^11 (x) M_11^11 = T11 (x) T11 glues into T11 T11 with its
    # coefficient, but Delta(T11 T11) has 2^2 pairs, not one
    ctx = ctx4()
    word = NCPoly.term(ctx, (T(1, 1), T(1, 1)))
    G = assert_defect_matches_the_expansion(MMatrix(ctx, 2, {(1, 1, 1, 1): word}))
    assert len(G.get(1, 1, 1, 1).terms) == 3


def test_defect_glues_a_column_only_to_its_row():
    # M_11^11 (x) M_11^11 + M_11^12 (x) M_12^11 = T11 (x) T11 + T12 (x) T11:
    # two pairs, as many as Delta(T11) has, and each reads T11 from its outer
    # indices, but T12 (x) T11 joins column 2 to row 1
    ctx = ctx4()
    a, b = NCPoly.gen(ctx, T(1, 1)), NCPoly.gen(ctx, T(1, 2))
    M = MMatrix(ctx, 2, {(1, 1, 1, 1): a, (1, 1, 1, 2): b, (1, 2, 1, 1): a})
    G = assert_defect_matches_the_expansion(M)
    assert set(G.get(1, 1, 1, 1).terms) == {((T(1, 2),), (T(2, 1),)), ((T(1, 2),), (T(1, 1),))}


def test_defect_checks_every_letter_before_it_glues():
    # T1,3 (x) T3,1 would glue into T11, but 3 is no index of a 2 x 2
    # family: the letter check names T[1,3], the first bad letter in index
    # order, as the expansion does
    ctx = ctx4()
    a, b, c = (NCPoly.gen(ctx, T(*ij)) for ij in ((1, 1), (1, 3), (3, 1)))
    M = MMatrix(ctx, 2, {(2, 2, 1, 1): c, (1, 1, 1, 1): a, (1, 1, 2, 2): b})
    for defect in (grouplike_defect, expanded_grouplike_defect):
        with pytest.raises(UnknownGenerator, match=r"^T\[1,3\] outside the 2 x 2 family$"):
            defect(M)


def test_grouplike_matrices_expand_no_coproduct(monkeypatch):
    # the defect decides Delta(M) = M (x) M without expanding Delta(M); the
    # matrix of corrupt_theta.alg is not group-like, and its full report
    # expands each word of its defective entries once, and no other word
    expanded = collections.Counter()
    original = Presentation.coproduct_word

    def counting(pres, word):
        expanded[word] += word not in pres._coproducts
        return original(pres, word)

    monkeypatch.setattr(Presentation, "coproduct_word", counting)
    for name in ("qplane_qp", "qplane_qprs", "qplane_frt", "spectral_demo"):
        assert main(["full-report", "--input", name]) in (0, 1)
    assert main(["full-report", "--input", str(GOLDEN / "gl3_seed1.alg")]) == 0
    assert not expanded
    path = str(GOLDEN / "corrupt_theta.alg")
    assert main(["full-report", "--input", path]) == 1
    seen = dict(expanded)
    M = Workspace(parse_algebra_file(path)).M
    G, _ = M.defect()
    assert G.entries and set(seen.values()) == {1}
    assert set(seen) == {w for idx in G.entries for w in M.get(*idx).terms}


def test_generate_ideal_rank():
    ctx = ctx4()
    th = factorized_theta(rho_full(ctx))
    ideal = generate_ideal(braid(ctx), build_M(th))
    assert ideal.rank() == 6
    assert len(ideal) == 12


def test_generate_ideal_identity_braid():
    ctx = ctx4()
    th = factorized_theta(rho_full(ctx))
    assert len(generate_ideal(identity4(ctx, 2), build_M(th))) == 0


def test_generate_ideal_shape_check():
    ctx = ctx4()
    th = factorized_theta(rho_full(ctx))
    rho = rho_full(ctx)
    with pytest.raises(ShapeMismatch):
        generate_ideal(rho, build_M(th))


def test_flip_ideal_is_one_parameter_span():
    ctx = ctx4()
    q = ctx.gen("q")
    M = build_M(flip_theta(ctx, 2))
    ideal = generate_ideal(braid(ctx), M)
    a = NCPoly.gen(ctx, T(1, 1))
    b = NCPoly.gen(ctx, T(1, 2))
    c = NCPoly.gen(ctx, T(2, 1))
    d = NCPoly.gen(ctx, T(2, 2))
    qi = q ** -1
    classical = [
        a * c - q * c * a,
        a * b - q * b * a,
        b * c - c * b,
        c * d - q * d * c,
        b * d - q * d * b,
        a * d - d * a + (qi - q) * c * b,
    ]
    cmp = row_space_compare(ideal, RelationSet(ctx, matrix_family(2), classical))
    assert cmp.verdict == "equal"


def test_coideal_check():
    ctx = ctx4()
    B = braid(ctx)
    th = factorized_theta(rho_full(ctx))
    assert coideal_check(B, build_M(th))
    assert coideal_check(B, build_M(flip_theta(ctx, 2)))
    # the residuals are B G - G B and B E - E B for M's defect (G, E): a
    # matrix that is not group-like fails with the braid, and passes with a
    # multiple of the identity, which commutes with any defect
    bad = build_M(corrupted_theta(ctx))
    assert not check_grouplike(bad)
    assert not coideal_check(B, bad)
    scaled = Tensor(ctx, 2, 2, 2, {k: ctx.gen("q") for k in identity4(ctx, 2).entries})
    assert coideal_check(scaled, bad)


def test_coideal_check_reads_the_counit_defect():
    # a table of constants C has G = C - C^2 and E = C - 1, so an idempotent
    # C is a matrix whose only defect is E; the braid mixes the pair (1, 2)
    # that C keeps with the pair (2, 1) that it kills, and the identity does not
    ctx = ctx4()
    C = MMatrix(ctx, 2, {(1, 2, 1, 2): NCPoly.one(ctx)})
    G, E = grouplike_defect(C)
    assert G.entries == {} and len(E.entries) == 3
    assert not coideal_check(braid(ctx), C)
    assert coideal_check(identity4(ctx, 2), C)


def test_coideal_check_reads_only_the_defect(monkeypatch):
    # once M's defect is known, the check expands no coproduct and does not
    # rebuild the relation entries
    ctx = ctx4()
    bad = build_M(corrupted_theta(ctx))
    bad.defect()

    def fail(*args):
        raise AssertionError("coideal_check recomputed what the defect holds")

    monkeypatch.setattr(Presentation, "coproduct", fail)
    monkeypatch.setattr(corep, "relation_entries", fail)
    assert not coideal_check(braid(ctx), bad)
    assert coideal_check(identity4(ctx, 2), bad)


def test_coaction_single_coordinate():
    ctx = ctx4()
    th = factorized_theta(rho_full(ctx))
    out = reference_coaction_word(th, (1,))
    assert out == {
        (1,): NCPoly.gen(ctx, T(1, 1)),
        (2,): NCPoly.gen(ctx, T(1, 2)),
    }


def test_coaction_pair_matches_M():
    # M's row (i, j) is the coaction that twists the second coordinate once
    ctx = ctx4()
    th = factorized_theta(rho_full(ctx))
    M = build_M(th)
    for i in (1, 2):
        for j in (1, 2):
            out = coaction_word(M, (i, j))
            assert out == reference_coaction_word(th, (i, j))
            assert list(out) == sorted(out)
            for (k, l), coef in out.items():
                assert coef == M.get(i, j, k, l)


def test_coaction_coassociative_pairs():
    # applying the coproduct to the matrix part agrees with coacting twice
    ctx = ctx4()
    pres = Presentation(ctx, 2)
    M = build_M(factorized_theta(rho_full(ctx)))
    for word in [(1, 2), (2, 1), (2, 2)]:
        out = coaction_word(M, word)
        lhs = {}
        for idx, coef in out.items():
            for (w1, w2), c in pres.coproduct(coef).terms.items():
                key = (w1, w2, idx)
                acc = lhs.get(key, ctx.zero) + c
                lhs[key] = acc
        lhs = {k: v for k, v in lhs.items() if not v.is_zero()}
        rhs = {}
        for mid, coef in out.items():
            inner = coaction_word(M, mid)
            for idx, coef2 in inner.items():
                for w2, c2 in coef2.terms.items():
                    for w1, c1 in coef.terms.items():
                        key = (w1, w2, idx)
                        acc = rhs.get(key, ctx.zero) + c1 * c2
                        rhs[key] = acc
        rhs = {k: v for k, v in rhs.items() if not v.is_zero()}
        assert lhs == rhs


def test_coaction_counit_preservation():
    ctx = ctx4()
    pres = Presentation(ctx, 2)
    th = factorized_theta(rho_full(ctx))
    M = build_M(th)
    for word in [(1,), (2,), (1, 2), (2, 1), (1, 1, 2)]:
        out = coaction_word(M, word) if len(word) == 2 else reference_coaction_word(th, word)
        for idx, coef in out.items():
            want = ctx.one if idx == word else ctx.zero
            assert pres.counit(coef) == want


def test_quadratic_space_from_braid():
    ctx = ctx4()
    space = QuadraticSpace(ctx, 2, braid=braid(ctx))
    assert space.relations.rank() == 1


def test_quadratic_space_grassmann_squares():
    ctx = ctx4()
    space = QuadraticSpace(ctx, 2, parity="grassmann", relations=[])
    # both squares present
    assert space.relations.rank() == 2


def test_homomorphism_check():
    ctx = ctx4()
    B = braid(ctx)
    space = QuadraticSpace(ctx, 2, braid=B)
    th = factorized_theta(rho_full(ctx))
    ideal = generate_ideal(B, build_M(th))
    assert homomorphism_check(space, build_M(th), ideal)
    flip = build_M(flip_theta(ctx, 2))
    assert homomorphism_check(space, flip, generate_ideal(B, flip))


def test_homomorphism_check_dropped_relation():
    ctx = ctx4()
    B = braid(ctx)
    space = QuadraticSpace(ctx, 2, braid=B)
    th = factorized_theta(rho_full(ctx))
    ideal = generate_ideal(B, build_M(th))
    # pick six independent generators, then drop one
    six = []
    basis = SpanBasis(ctx)
    for p in ideal.polys:
        if basis.add(poly_vector(p)):
            six.append(p)
    assert len(six) == 6
    # the second basis element carries part of the coacted space relation
    dropped = RelationSet(ctx, ideal.family, six[:1] + six[2:])
    assert dropped.rank() == 5
    assert not homomorphism_check(space, build_M(th), dropped)


def test_checks_multiply_each_scalar_pair_once(monkeypatch):
    # the field kernel's product behind Scalar.__mul__ sees each pair once per
    # check; each check gets its own matrix, so each computes M's defect itself
    ws = load("qplane_qprs")
    seen = collections.Counter()
    original = scalars._mul

    def counting(ctx, f, g):
        # a Scalar is unhashable; its numerator and split identify it
        seen[(scalars._ident(f), scalars._ident(g))] += 1
        return original(ctx, f, g)

    monkeypatch.setattr(scalars, "_mul", counting)
    checks = (
        lambda: check_grouplike(build_M(ws.theta)),
        lambda: coideal_check(ws.B, build_M(ws.theta)),
    )
    for check in checks:
        seen.clear()
        check()
        assert seen
        assert max(seen.values()) == 1
