"""End-to-end verification of the twisted 2x2 matrix deformation.

A configuration is read from an algebra file (see ``cli.Workspace``): an
exchange tensor, a twisting tensor and the even and odd coordinate
spaces.  ``QPlaneContext`` owns what is derived from it.  The reports
below compare the relation ideal with its twisted cross-relation form,
extract the quantum determinant from the Grassmann top form, and verify
the determinant commutations, the antipode and the coordinate exchange
scalars, reporting every identity exactly.
"""

from .bialg import character_pair_form, cocycle_check
from .corep import build_M, coaction_word, generate_ideal, require_valid
from .errors import NCorepError, NotGroupCoefficient
from .freealg import NCPoly, RelationSet, T, apply_hom, row_space_compare
from .report import Report, passfail
from .rewrite import (
    DETBAR,
    confluence_check,
    extend_with_determinant,
    normal_form,
    orient,
)


class QPlaneContext:
    """Immutable bundle of the tensors and spaces of one configuration.

    It also owns what is derived from them: the matrix M, the relation
    ideal, the oriented system and its overlap analysis for each term order,
    the determinant, the character pair form and its cocycle check.  Each is
    computed on first use and kept; a derivation that raised raises the same
    error at every later use.
    """

    def __init__(self, ctx, B, theta, bosonic, grassmann):
        self.ctx = ctx
        self.B = B
        self.theta = theta
        self.bosonic = bosonic
        self.grassmann = grassmann
        rng = range(1, B.dim + 1)
        self.gens = tuple(T(i, j) for i in rng for j in rng)
        self._derived = {}

    @property
    def dim(self):
        return self.B.dim

    def _once(self, key, make):
        if key not in self._derived:
            try:
                self._derived[key] = (True, make())
            except NCorepError as err:
                self._derived[key] = (False, err)
        ok, value = self._derived[key]
        if not ok:
            raise value
        return value

    @property
    def M(self):
        """The coefficient matrix, built whether or not theta is valid."""
        return self._once("M", lambda: build_M(self.theta))

    def relations(self) -> RelationSet:
        """The ideal spanned by B M - M B; InvalidTheta for an invalid theta."""

        def make():
            require_valid(self.theta)
            return generate_ideal(self.B, self.M)

        return self._once("relations", make)

    def rewrite_system(self, order):
        """The relation ideal oriented under one term order."""
        return self._once(("rewrite", order.precedence), lambda: orient(self.relations(), order))

    def determinant(self) -> NCPoly:
        """The top-form coefficient; NotGroupCoefficient when it does not close."""
        return self._once("determinant", lambda: determinant(self))

    def pair_form(self):
        """The form counit (x) rho of the character table."""
        return self._once(
            "pair_form",
            lambda: character_pair_form(self.M.pres, self.theta.rho),
        )

    def cocycle(self):
        """cocycle_check of the character pair form."""
        return self._once("cocycle", lambda: cocycle_check(self.pair_form()))

    def confluence(self, order, maxdeg):
        """confluence_check of the system oriented under order, up to maxdeg."""
        return self._once(
            ("confluence", order.precedence, maxdeg),
            lambda: confluence_check(self.rewrite_system(order), maxdeg),
        )


def _tilde(qp):
    imgs = qp.theta.images()

    def tl(g):
        return apply_hom(NCPoly.gen(qp.ctx, g), imgs)

    return tl


def cross_relations(qp) -> RelationSet:
    """The six relations written with once-twisted second factors."""
    ctx = qp.ctx
    a, b, c, d = (NCPoly.gen(ctx, g) for g in qp.gens)
    tl = _tilde(qp)
    ga, gb, gc, gd = qp.gens
    q = ctx.gen("q")
    six = [
        a * tl(gc) - q * (c * tl(ga)),
        a * tl(gb) - q * (b * tl(ga)),
        b * tl(gc) - c * tl(gb),
        c * tl(gd) - q * (d * tl(gc)),
        b * tl(gd) - q * (d * tl(gb)),
        a * tl(gd) - d * tl(ga) + (q.inv() - q) * (c * tl(gb)),
    ]
    return RelationSet(ctx, qp.gens, six)


def relation_report(qp) -> Report:
    rep = Report("relation derivation")
    ideal = qp.relations()
    cross = cross_relations(qp)
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


def determinant(qp) -> NCPoly:
    """Coefficient of the Grassmann top form under the twisted coaction.

    The coaction output is reduced by the odd exchange rule and the square
    rule; everything must land on the ordered top word, otherwise the
    comodule structure is broken and NotGroupCoefficient is raised.
    """
    ctx = qp.ctx
    co = coaction_word(qp.theta, (1, 2))
    total = NCPoly.zero(ctx)
    for (k, m), coef in co.items():
        if k == m:
            continue
        if (k, m) == (1, 2):
            total = total + coef
            continue
        f = _pair_reduction_factor(qp.grassmann, k, m)
        if f is None:
            raise NotGroupCoefficient(
                "coaction residual on (%d,%d) cannot be reduced to the top form" % (k, m)
            )
        total = total + f * coef
    return total


def verify_D_commutations(qp_limit, order) -> Report:
    """Reduce the four determinant commutations in the limit system oriented by order."""
    ctx = qp_limit.ctx
    rep = Report("determinant commutations")
    rs = qp_limit.rewrite_system(order)
    conf = qp_limit.confluence(order, 3)
    rep.add(
        "system-confluent",
        "oriented limit system resolves every degree-3 overlap",
        passfail(conf["confluent"]),
        residuals=[str(p) for _, p in conf["ambiguities"]],
    )
    D = qp_limit.determinant()
    factors = [("1", 0), ("1/p^2", 1), ("p^2", 2), ("1", 3)]
    names = ("a", "b", "c", "d")
    for expr, pos in factors:
        g = NCPoly.gen(ctx, qp_limit.gens[pos])
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


def antipode_images(qp_limit):
    ctx = qp_limit.ctx
    a, b, c, d = qp_limit.gens
    return {
        a: NCPoly.term(ctx, (DETBAR, d)),
        b: NCPoly.term(ctx, (DETBAR, b), ctx.parse("-1/(p*q)")),
        c: NCPoly.term(ctx, (DETBAR, c), ctx.parse("-p*q")),
        d: NCPoly.term(ctx, (DETBAR, a)),
    }


def verify_antipode(qp_limit, order) -> Report:
    """The eight inverse identities and the counit compatibility, reduced under order.

    The unit on the right-hand side enters as the inverse symbol times the
    determinant polynomial, which is the defining equation of the adjoined
    symbol spelled out.
    """
    ctx = qp_limit.ctx
    rep = Report("antipode")
    rs = qp_limit.rewrite_system(order)
    D = qp_limit.determinant()
    comm = [
        (qp_limit.gens[0], ctx.one),
        (qp_limit.gens[1], ctx.parse("1/p^2")),
        (qp_limit.gens[2], ctx.parse("p^2")),
        (qp_limit.gens[3], ctx.one),
    ]
    ext = extend_with_determinant(rs, D, comm)
    S = antipode_images(qp_limit)
    unit = NCPoly.term(ctx, (DETBAR,)) * D
    names = {(1, 1): "a", (1, 2): "b", (2, 1): "c", (2, 2): "d"}
    for i in (1, 2):
        for j in (1, 2):
            left = NCPoly.zero(ctx)
            right = NCPoly.zero(ctx)
            for k in (1, 2):
                left = left + S[T(i, k)] * NCPoly.gen(ctx, T(k, j))
                right = right + NCPoly.gen(ctx, T(i, k)) * S[T(k, j)]
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
        for g in qp_limit.gens
    )
    rep.add(
        "counit-compatibility",
        "counit of each antipode image matches the generator",
        passfail(ok),
        artifacts={"names": [names[g.index] for g in qp_limit.gens]},
    )
    return rep


def _proportionality(ctx, image, gen):
    # image = lambda * gen for a scalar lambda, or None
    base = NCPoly.gen(ctx, gen)
    if image.is_zero():
        return ctx.zero
    if set(image.terms) != set(base.terms):
        return None
    return image.coeff((gen,))


def _scale_factor(image, reference):
    # image = lambda * reference for a scalar lambda, or None
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


def verify_gamma_action_table(qp) -> Report:
    """Exchange scalars of the coordinate crossing map.

    When the crossing is diagonal on generators, the records carry the
    observed factors.  A non-diagonal crossing is reported with the actual
    images instead (informational, not a failure).
    """
    ctx = qp.ctx
    rep = Report("coordinate exchange table")
    tl = _tilde(qp)
    names = ("a", "b", "c", "d")
    trace = NCPoly.zero(ctx)
    for g in (T(1, 1), T(2, 2)):
        trace = trace + tl(g) - NCPoly.gen(ctx, g)
    rep.add(
        "trace-preserved",
        "the twisted trace equals the plain trace",
        passfail(trace.is_zero()),
        residuals=[] if trace.is_zero() else [str(trace)],
    )
    plain = [_proportionality(ctx, tl(g), g) for g in qp.gens]
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
            artifacts={"images": {names[i]: tl(g) for i, g in enumerate(qp.gens)}},
        )
    twisted = []
    for g in qp.gens:
        img = tl(g)
        twice = apply_hom(img, qp.theta.images())
        twisted.append((img, twice))
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
