"""End-to-end verification of the twisted 2x2 matrix deformation.

Each function reads one ``cli.Workspace``: the exchange tensor, the
twisting tensor, the odd coordinate space and the term order of a run, and
what is derived from them.  The reports below compare the relation ideal
with its twisted cross-relation form, extract the quantum determinant from
the Grassmann top form, and verify the determinant commutations, the
antipode and the coordinate exchange scalars, reporting every identity
exactly.
"""

from .corep import coaction_word
from .errors import NotGroupCoefficient
from .freealg import NCPoly, RelationSet, T, add_terms, apply_hom, row_space_compare
from .report import Report, passfail
from .rewrite import DETBAR, extend_with_determinant, normal_form


def cross_relations(ws) -> RelationSet:
    """The six relations written with once-twisted second factors."""
    ctx = ws.ctx
    a, b, c, d = (NCPoly.gen(ctx, g) for g in ws.gens)
    tl = ws.images()
    ga, gb, gc, gd = ws.gens
    q = ctx.gen("q")
    six = [
        a * tl[gc] - q * (c * tl[ga]),
        a * tl[gb] - q * (b * tl[ga]),
        b * tl[gc] - c * tl[gb],
        c * tl[gd] - q * (d * tl[gc]),
        b * tl[gd] - q * (d * tl[gb]),
        a * tl[gd] - d * tl[ga] + (q.inv() - q) * (c * tl[gb]),
    ]
    return RelationSet(ctx, ws.gens, six)


def relation_report(ws) -> Report:
    rep = Report("relation derivation")
    ideal = ws.relations()
    cross = cross_relations(ws)
    cmp = row_space_compare(ideal, cross)
    rep.add(
        "derived-vs-cross-form",
        "commutation ideal span equals the twisted cross-relation span",
        passfail(cmp.verdict == "equal"),
        artifacts={"verdict": cmp.verdict, "rank": cmp.rank_a},
    )
    rep.add(
        "relation-rank",
        "six independent quadratic relations",
        passfail(ideal.rank() == 6),
        artifacts={"rank": ideal.rank(), "entries": len(ideal)},
    )
    return rep


def _pair_reduction_factor(space, k, m):
    # factor f with (coord_k coord_m) = f * (coord_m coord_k) in the space
    hi = (space.coord(k), space.coord(m))
    lo = (space.coord(m), space.coord(k))
    for rel in space.relations:
        if set(rel.terms) == {hi, lo}:
            return -(rel.coeff(lo) / rel.coeff(hi))
    return None


def determinant(ws) -> NCPoly:
    """Coefficient of the Grassmann top form under the twisted coaction.

    The coaction output is reduced by the odd exchange rule and the square
    rule; everything must land on the ordered top word, otherwise the
    comodule structure is broken and NotGroupCoefficient is raised.
    """
    ctx = ws.ctx
    co = coaction_word(ws.M, (1, 2))
    total = {}
    for (k, m), coef in co.items():
        if k == m:
            continue
        f = ctx.one if (k, m) == (1, 2) else _pair_reduction_factor(ws.space, k, m)
        if f is None:
            raise NotGroupCoefficient(
                "coaction residual on (%d,%d) cannot be reduced to the top form" % (k, m)
            )
        add_terms(total, ((w, c * f) for w, c in coef.terms.items()))
    return NCPoly(ctx, total)


# det * g = c * (g * det) for the generators a, b, c, d in turn
DET_FACTORS = ("1", "1/p^2", "p^2", "1")


def verify_D_commutations(ws) -> Report:
    """Reduce the four determinant commutations in the oriented limit system."""
    ctx = ws.ctx
    rep = Report("determinant commutations")
    rs = ws.rewrite_system()
    conf = ws.confluence(3)
    rep.add(
        "system-confluent",
        "oriented limit system resolves every degree-3 overlap",
        passfail(conf["confluent"]),
        residuals=[str(p) for _, p in conf["ambiguities"]],
    )
    D = ws.determinant()
    names = ("a", "b", "c", "d")
    for pos, expr in enumerate(DET_FACTORS):
        g = NCPoly.gen(ctx, ws.gens[pos])
        c = ctx.parse(expr)
        res = normal_form(D * g - c * (g * D), rs)
        rep.add(
            "commutation-%s" % names[pos],
            "determinant passes the generator up to the factor %s" % expr,
            passfail(res.is_zero()),
            residuals=[] if res.is_zero() else [str(res)],
        )
    return rep


def _counit_ext(ctx, poly):
    # counit on words over T generators extended by the determinant symbols
    total = ctx.zero
    for w, c in poly.terms.items():
        val = c
        for g in w:
            if g.kind == "T":
                if g.index[0] != g.index[1]:
                    val = ctx.zero
                    break
            elif g.kind not in ("D", "Dbar"):
                raise ValueError("counit undefined on %s" % (g,))
        total = total + val
    return total


def antipode_images(ws):
    ctx = ws.ctx
    a, b, c, d = ws.gens
    return {
        a: NCPoly.term(ctx, (DETBAR, d)),
        b: NCPoly.term(ctx, (DETBAR, b), ctx.parse("-1/(p*q)")),
        c: NCPoly.term(ctx, (DETBAR, c), ctx.parse("-p*q")),
        d: NCPoly.term(ctx, (DETBAR, a)),
    }


def verify_antipode(ws) -> Report:
    """The eight inverse identities and the counit compatibility, reduced
    in the oriented system.

    The unit on the right-hand side enters as the inverse symbol times the
    determinant polynomial, which is the defining equation of the adjoined
    symbol spelled out.
    """
    ctx = ws.ctx
    rep = Report("antipode")
    rs = ws.rewrite_system()
    D = ws.determinant()
    comm = [(g, ctx.parse(expr)) for g, expr in zip(ws.gens, DET_FACTORS)]
    ext = extend_with_determinant(rs, D, comm)
    S = antipode_images(ws)
    unit = NCPoly.term(ctx, (DETBAR,)) * D
    names = {(1, 1): "a", (1, 2): "b", (2, 1): "c", (2, 2): "d"}
    for i in (1, 2):
        for j in (1, 2):
            left, right = {}, {}
            for k in (1, 2):
                add_terms(left, (S[T(i, k)] * NCPoly.gen(ctx, T(k, j))).terms.items())
                add_terms(right, (NCPoly.gen(ctx, T(i, k)) * S[T(k, j)]).terms.items())
            left, right = NCPoly(ctx, left), NCPoly(ctx, right)
            want = unit if i == j else NCPoly.zero(ctx)
            for side, val in (("left", left), ("right", right)):
                res = normal_form(val - want, ext)
                rep.add(
                    "inverse-%s-%d%d" % (side, i, j),
                    "antipode convolution identity at entry (%d,%d)" % (i, j),
                    passfail(res.is_zero()),
                    residuals=[] if res.is_zero() else [str(res)],
                )
    ok = all(
        _counit_ext(ctx, S[g]) == _counit_ext(ctx, NCPoly.gen(ctx, g))
        for g in ws.gens
    )
    rep.add(
        "counit-compatibility",
        "counit of each antipode image matches the generator",
        passfail(ok),
        artifacts={"names": [names[g.index] for g in ws.gens]},
    )
    return rep


def _scale_factor(image, reference):
    # image = lambda * reference for a scalar lambda, or None
    if image.is_zero():
        return image.ctx.zero
    if set(image.terms) != set(reference.terms):
        return None
    lam = None
    for w, c in reference.terms.items():
        f = image.terms[w] / c
        if lam is None:
            lam = f
        elif f != lam:
            return None
    return lam


def verify_gamma_action_table(ws) -> Report:
    """Exchange scalars of the coordinate crossing map.

    When the crossing is diagonal on generators, the records carry the
    observed factors.  A non-diagonal crossing is reported with the actual
    images instead (informational, not a failure).
    """
    ctx = ws.ctx
    rep = Report("coordinate exchange table")
    tl = ws.images()
    names = ("a", "b", "c", "d")
    trace = {}
    for g in (T(1, 1), T(2, 2)):
        add_terms(trace, [*tl[g].terms.items(), ((g,), -ctx.one)])
    trace = NCPoly(ctx, trace)
    rep.add(
        "trace-preserved",
        "the twisted trace equals the plain trace",
        passfail(trace.is_zero()),
        residuals=[] if trace.is_zero() else [str(trace)],
    )
    plain = [_scale_factor(tl[g], NCPoly.gen(ctx, g)) for g in ws.gens]
    if all(v is not None for v in plain):
        rep.add(
            "exchange-scalars-plain",
            "plain generators are exchange eigenvectors",
            "pass",
            artifacts={"factors": dict(zip(names, plain))},
        )
    else:
        rep.add(
            "exchange-scalars-plain",
            "plain generators are not exchange eigenvectors here",
            "info",
            artifacts={"images": {names[i]: tl[g] for i, g in enumerate(ws.gens)}},
        )
    twisted = [(tl[g], apply_hom(tl[g], tl)) for g in ws.gens]
    factors = [_scale_factor(t, i) for i, t in twisted]
    if all(v is not None for v in factors):
        rep.add(
            "exchange-scalars-twisted",
            "twisted generators are exchange eigenvectors",
            "pass",
            artifacts={"factors": dict(zip(names, factors))},
        )
    else:
        rep.add(
            "exchange-scalars-twisted",
            "twisted generators are not exchange eigenvectors here",
            "info",
            residuals=[str(t) for (i, t), f in zip(twisted, factors) if f is None],
        )
    return rep
