"""Configurations for the tests, read from the shipped algebra files, the
literal relation tables they are compared against, small builders that
only the tests need, and the dense index loops that the package's sparse
contractions are compared with."""

import functools
import itertools
from fractions import Fraction

from sympy import ZZ
from sympy.polys.fields import field

from ncorep.cli import Workspace, _resolve_input, parse_algebra_file
from ncorep.bialg import LinearForm, tilde_images
from ncorep.corep import MMatrix, QuadraticSpace, factorized_theta
from ncorep.errors import InputFormat, MissingImage, NotInvertible, ShapeMismatch
from ncorep.freealg import NCPoly, PairPoly, RelationSet, T, apply_hom
from ncorep.integrable import weighted_trace
from ncorep.rewrite import RewriteSystem, normal_form
from ncorep.scalars import Scalar, _den
from ncorep.tensors import Tensor, compose, delta, invert2, invert4


def per_binding_configuration(af, bindings):
    """(B, B', theta tensor, character table or None, space relations) of af
    with bindings applied the way Workspace once applied them.

    The twist is built from the unsubstituted table; then each binding in
    turn is applied to B, B', the twist's tensor, its character table and the
    space relations, and the substituted table is inverted again.  The
    factorization theta_ij^kl = rho_i^l rhobar_j^k is asserted after every
    binding.  The tests compare Workspace, which substitutes each parsed
    table once and builds the twist once, with it.
    """
    B, Bp, rels = af.B, af.Bprime, list(af.space_relations)
    rho = af.rho
    if rho is not None:
        try:
            tensor = factorized_theta(rho)
        except NotInvertible:
            raise InputFormat("[theta] character table is not invertible")
    else:
        tensor = af.theta_entries
    for b in bindings:
        B = B.substitute([b])
        if Bp is not None:
            Bp = Bp.substitute([b])
        tensor = tensor.substitute([b])
        if rho is not None:
            rho = rho.substitute([b])
            rhobar = invert2(rho)
            rng = range(1, af.dim + 1)
            for i, j, k, l in itertools.product(rng, repeat=4):
                assert tensor.get(i, j, k, l) == rho.get(i, l) * rhobar.get(j, k)
        rels = [r.substitute([b]) for r in rels]
    if af.has_space:
        rels = QuadraticSpace(af.ctx, af.dim, parity=af.parity, relations=rels).relations.polys
    return B, Bp, tensor, rho, rels


def load(name, *bindings):
    """The Workspace of a shipped input, with (name, expr) bindings applied in
    order, under the default term order."""
    return Workspace(parse_algebra_file(_resolve_input(name)), bindings)


def read_over(ctx, x):
    """x, a Scalar, NCPoly, Tensor or RelationSet of another Context, read into
    ctx through its text.

    A run reads one Context, and scalars of two Contexts never mix, even over
    the same parameters; the tests that compare two loaded configurations
    move one of them across this way.
    """
    if isinstance(x, Scalar):
        return ctx.parse(str(x))
    if isinstance(x, NCPoly):
        return NCPoly(ctx, {w: read_over(ctx, c) for w, c in x.terms.items()})
    if isinstance(x, Tensor):
        entries = {k: read_over(ctx, c) for k, c in x.entries.items()}
        return Tensor(ctx, x.dim, x.nlower, x.nupper, entries)
    return RelationSet(ctx, x.family, [read_over(ctx, p) for p in x])


@functools.lru_cache(maxsize=None)
def sympy_field(params):
    """sympy's field ZZ(params) in graded-lex order."""
    return field(",".join(params), ZZ, order="grlex")[0]


def sympy_element(s):
    """The Scalar s as an element of sympy's field, numerator and denominator
    as s stores them.

    sympy's field operations cancel by a polynomial gcd, so they are the
    independent reference that the scalar tests compare the kernel with.
    """
    K = sympy_field(s.ctx.params)
    num, den = K.ring.from_dict(s.num), K.ring.from_dict(_den(s.ctx, s.split))
    return K.raw_new(num, den)


def named_key_str(s):
    """str(s) through a context-free key, as the package once wrote it.

    Each polynomial becomes terms keyed by (name, exponent) pairs with
    Fraction coefficients, sorted graded-lex over the parameters that occur
    in it, and both are divided by the denominator's leading coefficient.
    The reference that the exponent-tuple renderer of str(Scalar) is
    compared with.
    """
    names = s.ctx.params

    def key(poly):
        terms = [
            (tuple((n, e) for n, e in zip(names, exps) if e), Fraction(c))
            for exps, c in poly.items()
        ]
        support = sorted({n for mono, _ in terms for n, _ in mono})

        def grlex(item):
            mono = dict(item[0])
            vec = tuple(mono.get(n, 0) for n in support)
            return sum(vec), vec

        return sorted(terms, key=grlex, reverse=True)

    def text(terms):
        if not terms:
            return "0"
        rendered = []
        for mono, coeff in terms:
            parts = "*".join("%s^%d" % (n, e) if e != 1 else n for n, e in mono)
            if not parts:
                rendered.append(str(coeff))
            elif coeff in (1, -1):
                rendered.append(parts if coeff == 1 else "-" + parts)
            else:
                rendered.append("%s*%s" % (coeff, parts))
        out = rendered[0]
        for t in rendered[1:]:
            out += " - " + t[1:] if t.startswith("-") else " + " + t
        return out

    num, den = key(s.num), key(_den(s.ctx, s.split))
    lead = den[0][1]
    num = [(m, c / lead) for m, c in num]
    den = [(m, c / lead) for m, c in den]
    if den == [((), 1)]:
        return text(num)
    return "(%s)/(%s)" % (text(num), text(den))


def two_parameter_relations(ctx):
    """The relations of the r=0, s=0 limit, written out literally."""
    a, b, c, d = (NCPoly.gen(ctx, T(i, j)) for i in (1, 2) for j in (1, 2))
    p = ctx.parse
    six = [
        a * c - p("p*q") * (c * a),
        a * b - p("q/p") * (b * a),
        b * c - p("p^2") * (c * b),
        c * d - p("q/p") * (d * c),
        b * d - p("p*q") * (d * b),
        a * d - d * a + p("p*(q^-1 - q)") * (c * b),
    ]
    return RelationSet(ctx, [T(i, j) for i in (1, 2) for j in (1, 2)], six)


def one_parameter_relations(ctx):
    """The classical one-parameter relations (p = 1 in the two-parameter table)."""
    a, b, c, d = (NCPoly.gen(ctx, T(i, j)) for i in (1, 2) for j in (1, 2))
    q = ctx.gen("q")
    six = [
        a * c - q * (c * a),
        a * b - q * (b * a),
        b * c - c * b,
        c * d - q * (d * c),
        b * d - q * (d * b),
        a * d - d * a + (q.inv() - q) * (c * b),
    ]
    return RelationSet(ctx, [T(i, j) for i in (1, 2) for j in (1, 2)], six)


def multiparameter_text(n, rho, t):
    """The multiparameter quantum GL(n) of Artin, Schelter and Tate (1991) and
    Sudbery (1990) as an input file, with a diagonal character table.

    B is the quantum GL(n) exchange tensor with B_ii^ii = 1 and, for i < j,
    B_ij^ji = q t_ij, B_ji^ij = q/t_ij and B_ji^ji = 1 - q^2.  rho lists the n
    diagonal entries and t maps each pair i < j to the expression written
    for t_ij.  The parameters are q, p and every t_ij, so a file may leave
    t_ij free (the expression "t12") and a run may bind it with --subst.
    """
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    params = " ".join(["q", "p"] + ["t%d%d" % ij for ij in pairs])
    lines = ["[algebra]", "dim = %d" % n, "params = %s" % params, "", "[B]"]
    lines += ['%d %d %d %d = "1"' % (i, i, i, i) for i in range(1, n + 1)]
    for i, j in pairs:
        lines.append('%d %d %d %d = "q*(%s)"' % (i, j, j, i, t[(i, j)]))
        lines.append('%d %d %d %d = "q/(%s)"' % (j, i, i, j, t[(i, j)]))
        lines.append('%d %d %d %d = "1 - q^2"' % (j, i, j, i))
    lines += ["", "[theta]"]
    lines += ['rho %d %d = "%s"' % (i, i, v) for i, v in enumerate(rho, 1)]
    return "\n".join(lines) + "\n"


def tensor_from_entries(ctx, dim, nlower, nupper, items):
    """items: iterable of (index_tuple, scalar-like)."""
    out = {}
    for idx, val in items:
        idx = tuple(idx)
        if idx in out:
            raise ShapeMismatch("duplicate tensor entry at %r" % (idx,))
        out[idx] = ctx.scalar(val)
    return Tensor(ctx, dim, nlower, nupper, out)


def to_matrix(a: Tensor):
    """A (2,2) tensor as a dim^2 x dim^2 nested list, row (i,j) lex, column (k,l) lex."""
    if a.nlower != 2 or a.nupper != 2:
        raise ShapeMismatch("to_matrix needs a (2,2) tensor")
    pairs = list(itertools.product(range(1, a.dim + 1), repeat=2))
    return [[a.get(i, j, k, l) for (k, l) in pairs] for (i, j) in pairs]


def from_matrix(ctx, dim, rows) -> Tensor:
    """The (2,2) tensor of a dim^2 x dim^2 nested list of scalar-likes, laid
    out as to_matrix lays it out."""
    pairs = list(itertools.product(range(1, dim + 1), repeat=2))
    if len(rows) != len(pairs) or any(len(r) != len(pairs) for r in rows):
        raise ShapeMismatch("matrix must be dim^2 x dim^2")
    out = {
        (i, j, k, l): ctx.scalar(rows[r][c])
        for r, (i, j) in enumerate(pairs)
        for c, (k, l) in enumerate(pairs)
    }
    return Tensor(ctx, dim, 2, 2, out)


def identity4(ctx, dim):
    rng = range(1, dim + 1)
    return Tensor(ctx, dim, 2, 2, {(i, j, i, j): ctx.one for i in rng for j in rng})


def flip_theta(ctx, n) -> Tensor:
    """The untwisted coaction's twist: theta_ij^kl = delta_i^l delta_j^k."""
    rng = range(1, n + 1)
    return Tensor(ctx, n, 2, 2, {(i, j, j, i): ctx.one for i in rng for j in rng})


def apply_antihom(x: NCPoly, images: dict) -> NCPoly:
    """Extend generator images to an algebra anti-homomorphism (reverses words)."""
    out = NCPoly.zero(x.ctx)
    for w, c in x.terms.items():
        acc = NCPoly.term(x.ctx, (), c)
        for g in reversed(w):
            if g not in images:
                raise MissingImage("no image for generator %s" % g)
            acc = acc * images[g]
        out = out + acc
    return out


def reference_coaction_word(theta: Tensor, indices):
    """Coaction of a coordinate word of any length, as the package once
    computed it: each crossing applies one more twist, so the j-th coordinate
    contributes a generator twisted j-1 times.  Returns {output index tuple:
    NCPoly coefficient}; on a pair it is the row of M that
    corep.coaction_word reads.
    """
    ctx = theta.ctx
    images = tilde_images(ctx, theta)
    out = {(): NCPoly.one(ctx)}
    for pos, i in enumerate(indices):
        nxt = {}  # each (key, k) extends to its own key, so nothing is summed
        for k in range(1, theta.dim + 1):
            gen = NCPoly.gen(ctx, T(i, k))
            for _ in range(pos):
                gen = apply_hom(gen, images)
            for key, coef in out.items():
                c = coef * gen
                if not c.is_zero():
                    nxt[key + (k,)] = c
        out = nxt
    return out


def check_trace_ansatz(theta: Tensor) -> bool:
    """Whether the twisting tensor contracts to the identity on its first slot."""
    return weighted_trace(theta) == delta(theta.ctx, theta.dim)


def homogeneous_part(x: NCPoly, d) -> NCPoly:
    """The terms of x whose words have length d."""
    return NCPoly(x.ctx, {w: c for w, c in x.terms.items() if len(w) == d})


def worklist_normal_form(poly, rs, strategy="leftmost"):
    """Reduce poly the way the package did before it kept each word's form.

    Every (word, coefficient) pair is rewritten on its own at its leftmost
    (or rightmost) redex and the irreducible terms are summed as they come;
    equal words are never merged.  The tests compare normal_form with it.
    """
    lengths = sorted({len(w) for w in rs.rules})
    out = NCPoly.zero(poly.ctx)
    work = list(poly.terms.items())
    while work:
        word, coeff = work.pop()
        positions = range(len(word))
        if strategy == "rightmost":
            positions = reversed(positions)
        hit = next(
            (
                (i, word[i : i + ln])
                for i in positions
                for ln in lengths
                if i + ln <= len(word) and word[i : i + ln] in rs.rules
            ),
            None,
        )
        if hit is None:
            out = out + NCPoly.term(poly.ctx, word, coeff)
            continue
        i, lhs = hit
        left, right = word[:i], word[i + len(lhs) :]
        for w2, c2 in rs.rules[lhs].terms.items():
            work.append((left + w2 + right, coeff * c2))
    return out


def reference_orient(relations, order):
    """rewrite.orient as the package wrote it before it used SpanBasis.

    A queue, sorted by leading word, normalizes each relation against the
    rules so far, solves it for its order-largest word, scaled monic, and
    requeues the relation of every earlier rule whose sides the new left
    side now divides, until no rule changes.  The rules change while it
    runs, so each normalization reads a fresh RewriteSystem.
    """
    ctx = relations.ctx

    def lead(p):
        return max(p.terms, key=order.word_key)

    def has_factor(word, piece):
        n = len(piece)
        return any(word[i : i + n] == piece for i in range(len(word) - n + 1))

    rules = {}
    queue = sorted(relations, key=lambda p: order.word_key(lead(p)))
    while queue:
        p = normal_form(queue.pop(0), RewriteSystem(ctx, order, rules))
        if p.is_zero():
            continue
        lhs = lead(p)
        rules[lhs] = NCPoly.term(ctx, lhs) - p * p.coeff(lhs).inv()
        stale = [
            l2
            for l2, r2 in rules.items()
            if l2 != lhs and (has_factor(l2, lhs) or any(has_factor(w, lhs) for w in r2.terms))
        ]
        for l2 in stale:
            queue.append(NCPoly.term(ctx, l2) - rules.pop(l2))
    return RewriteSystem(ctx, order, rules)


# -- dense references ----------------------------------------------------
#
# The contractions as the package wrote them before they iterated over
# nonzero entries: every index runs over 1..dim, and sums are built by
# adding whole polynomials.  The differential tests require the package's
# results to equal these exactly, in the same order.


def invert_matrix(ctx, rows):
    """Exact inverse of a square matrix of Scalars by dense Gauss-Jordan
    elimination, as the package computed tensor inverses before
    tensors._invert; raises NotInvertible on a singular matrix."""
    n = len(rows)
    aug = [[ctx.scalar(v) for v in row] + [ctx.one if i == j else ctx.zero for j in range(n)]
           for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if not aug[r][col].is_zero()), None)
        if pivot is None:
            raise NotInvertible("matrix is singular over the scalar field")
        if pivot != col:
            aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [v / pv for v in aug[col]]
        for r in range(n):
            if r == col:
                continue
            f = aug[r][col]
            if f.is_zero():
                continue
            aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def dense_invert(a: Tensor) -> Tensor:
    """The inverse of a (k,k) tensor through invert_matrix: rows and columns
    are the lower and upper index tuples in lexicographic order."""
    k = a.nlower
    keys = list(itertools.product(range(1, a.dim + 1), repeat=k))
    inv = invert_matrix(a.ctx, [[a.get(*(i + j)) for j in keys] for i in keys])
    entries = {i + j: inv[r][c] for r, i in enumerate(keys) for c, j in enumerate(keys)}
    return Tensor(a.ctx, a.dim, k, k, entries)


def dense_contract(spec, a: Tensor, b: Tensor = None) -> Tensor:
    """tensors.contract over every index tuple: each letter of spec runs over
    1..dim, and each term is the product of the factors' entries there."""
    inputs, out = spec.split("->")
    names = inputs.split(",")
    factors = [a] if b is None else [a, b]
    letters = list(dict.fromkeys("".join(names)))
    entries = {}
    for values in itertools.product(range(1, a.dim + 1), repeat=len(letters)):
        at = dict(zip(letters, values))
        term = a.ctx.one
        for name, t in zip(names, factors):
            term = term * t.get(*(at[c] for c in name))
        key = tuple(at[c] for c in out)
        entries[key] = entries[key] + term if key in entries else term
    return Tensor(a.ctx, a.dim, len(out) // 2, len(out) // 2, entries)


def dense_weighted_trace(t: Tensor) -> Tensor:
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


def dense_weight_commutation_holds(B: Tensor, w: Tensor) -> bool:
    rng = range(1, B.dim + 1)
    for i, j, k, l in itertools.product(rng, repeat=4):
        lhs = B.ctx.zero
        rhs = B.ctx.zero
        for r in rng:
            lhs = lhs + B.get(i, j, r, k) * w.get(r, l)
            rhs = rhs + w.get(i, r) * B.get(r, j, l, k)
        if lhs != rhs:
            return False
    return True


def dense_validate_theta(t: Tensor):
    ctx = t.ctx
    rng = range(1, t.dim + 1)
    violations = []
    for i, j, k, r, s, l in itertools.product(rng, repeat=6):
        acc = ctx.zero
        for p in rng:
            acc = acc + t.get(i, j, p, l) * t.get(p, k, r, s)
        if j == s:
            acc = acc - t.get(i, k, r, l)
        if not acc.is_zero():
            violations.append(("coassociativity", (i, j, k, r, s, l), acc))
    for j in rng:
        for k in rng:
            acc = ctx.zero
            for nn in rng:
                acc = acc + t.get(j, nn, k, nn)
            if j == k:
                acc = acc - ctx.one
            if not acc.is_zero():
                violations.append(("counit", (j, k), acc))
    return {"valid": not violations, "violations": violations}


def dense_build_M(t: Tensor, labels=None) -> MMatrix:
    ctx = t.ctx
    lab1, lab2 = labels if labels is not None else (None, None)
    rng = range(1, t.dim + 1)
    entries = {}
    for i, j, k, l in itertools.product(rng, repeat=4):
        acc = NCPoly.zero(ctx)
        for m in rng:
            for nn in rng:
                c = t.get(j, nn, l, m)
                if not c.is_zero():
                    acc = acc + NCPoly.term(ctx, (T(i, k, lab1), T(m, nn, lab2)), c)
        if not acc.is_zero():
            entries[(i, j, k, l)] = acc
    return MMatrix(ctx, t.dim, entries)


def dense_check_grouplike(M: MMatrix) -> bool:
    pres = M.pres
    rng = range(1, M.dim + 1)
    for i, j, k, l in itertools.product(rng, repeat=4):
        lhs = pres.coproduct(M.get(i, j, k, l))
        rhs = PairPoly(M.ctx)
        for r in rng:
            for s in rng:
                rhs = rhs + PairPoly.tensor(M.get(i, j, r, s), M.get(r, s, k, l))
        if lhs != rhs:
            return False
        eps = pres.counit(M.get(i, j, k, l))
        if eps != (M.ctx.one if (i == k and j == l) else M.ctx.zero):
            return False
    return True


def dense_relation_entries(B: Tensor, M: MMatrix, M_second: MMatrix = None) -> dict:
    M_second = M if M_second is None else M_second
    rng = range(1, M.dim + 1)
    entries = {}
    for i, j, k, l in itertools.product(rng, repeat=4):
        acc = NCPoly.zero(M.ctx)
        for m in rng:
            for nn in rng:
                c1 = B.get(i, j, m, nn)
                if not c1.is_zero():
                    acc = acc + c1 * M.get(m, nn, k, l)
                c2 = B.get(m, nn, k, l)
                if not c2.is_zero():
                    acc = acc - c2 * M_second.get(i, j, m, nn)
        entries[(i, j, k, l)] = acc
    return entries


def dense_coideal_check(B: Tensor, M: MMatrix) -> bool:
    pres = M.pres
    rng = range(1, M.dim + 1)
    rel = dense_relation_entries(B, M)
    for (i, j, k, l), r in rel.items():
        rhs = PairPoly(M.ctx)
        for a in rng:
            for b in rng:
                rhs = rhs + PairPoly.tensor(rel[(i, j, a, b)], M.get(a, b, k, l))
                rhs = rhs + PairPoly.tensor(M.get(i, j, a, b), rel[(a, b, k, l)])
        if pres.coproduct(r) != rhs or not pres.counit(r).is_zero():
            return False
    return True


def dense_tilde_images(ctx, theta: Tensor):
    rng = range(1, theta.dim + 1)
    images = {}
    for i in rng:
        for j in rng:
            acc = NCPoly.zero(ctx)
            for m in rng:
                for nn in rng:
                    c = theta.get(i, m, j, nn)
                    if not c.is_zero():
                        acc = acc + NCPoly.term(ctx, (T(nn, m),), c)
            images[T(i, j)] = acc
    return images


def dense_character_pair_form(pres, rho: Tensor) -> LinearForm:
    rng = range(1, pres.dim + 1)
    entries = {}
    for i in rng:
        for j in rng:
            for l in rng:
                c = rho.get(j, l)
                if not c.is_zero():
                    entries[(i, j, i, l)] = c
    return LinearForm(pres, Tensor(pres.ctx, pres.dim, 2, 2, entries))


def dense_cocycle_check(phi: LinearForm):
    ctx = phi.pres.ctx
    rng = range(1, phi.pres.dim + 1)
    invert4(phi.base)
    residuals = {}
    for i, j, k, r, s, t in itertools.product(rng, repeat=6):
        lhs = ctx.zero
        for a in rng:
            for b in rng:
                c1 = phi.base.get(i, j, a, b)
                if not c1.is_zero():
                    lhs = lhs + c1 * phi.word_value((T(a, r), T(b, s)), (T(k, t),))
        rhs = ctx.zero
        for b in rng:
            for c in rng:
                c1 = phi.base.get(j, k, b, c)
                if not c1.is_zero():
                    rhs = rhs + c1 * phi.word_value((T(i, r),), (T(b, s), T(c, t)))
        d = lhs - rhs
        if not d.is_zero():
            residuals[(i, j, k, r, s, t)] = d
    return {"holds": not residuals, "residuals": residuals}


def dense_twisted_product_relations(pres, R: LinearForm, theta: Tensor) -> RelationSet:
    ctx = pres.ctx
    rbar = invert4(R.base)
    images = dense_tilde_images(ctx, theta)

    def mtheta(g1, g2):
        return NCPoly.gen(ctx, g1) * apply_hom(NCPoly.gen(ctx, g2), images)

    rng = range(1, pres.dim + 1)
    polys = []
    for i, j, k, l in itertools.product(rng, repeat=4):
        acc = mtheta(T(j, l), T(i, k))
        for a, b, c, d in itertools.product(rng, repeat=4):
            r1 = R.base.get(i, j, a, c)
            r2 = rbar.get(b, d, k, l)
            if not (r1.is_zero() or r2.is_zero()):
                acc = acc - r1 * r2 * mtheta(T(a, b), T(c, d))
        if not acc.is_zero():
            polys.append(acc)
    return RelationSet(ctx, [T(i, j) for i in rng for j in rng], polys)


def dense_compose(a: Tensor, b: Tensor) -> Tensor:
    out = {}
    for aidx, av in a.entries.items():
        for bidx, bv in b.entries.items():
            if bidx[: b.nlower] == aidx[a.nlower:]:
                idx = aidx[: a.nlower] + bidx[b.nlower:]
                out[idx] = out[idx] + av * bv if idx in out else av * bv
    return Tensor(a.ctx, a.dim, a.nlower, b.nupper, out)


def dense_contracted_relation(Binv: Tensor, w: Tensor, entries: dict, labels):
    """The integrability contraction, over every index: the weighted trace
    commutator and sum Binv_mn^rj w_r^i Rel_ij^mn minus that commutator."""
    ctx = Binv.ctx
    rng = range(1, Binv.dim + 1)
    traces = []
    for label in labels:
        acc = NCPoly.zero(ctx)
        for i, k in itertools.product(rng, repeat=2):
            acc = acc + NCPoly.term(ctx, (T(i, k, label),), w.get(k, i))
        traces.append(acc)
    tlam, tmu = traces
    commutator = tlam * tmu - tmu * tlam
    acc = NCPoly.zero(ctx)
    for i, j, m, nn, r in itertools.product(rng, repeat=5):
        c = Binv.get(m, nn, r, j) * w.get(r, i)
        if not c.is_zero():
            acc = acc + c * entries[(i, j, m, nn)]
    return commutator, acc - commutator


def leg_embed(a: Tensor, legs) -> Tensor:
    """Embed a (2,2) tensor into a (3,3) tensor acting on the named legs.

    legs is one of (1,2), (2,3), (1,3); the remaining leg carries the
    identity."""
    if a.nlower != 2 or a.nupper != 2:
        raise ShapeMismatch("leg_embed needs a (2,2) tensor")
    legs = tuple(legs)
    if legs not in {(1, 2), (2, 3), (1, 3)}:
        raise ShapeMismatch("legs must be (1,2), (2,3) or (1,3), got %r" % (legs,))
    spectator = ({1, 2, 3} - set(legs)).pop()
    out = {}
    for (i1, i2, k1, k2), v in a.entries.items():
        for m in range(1, a.dim + 1):
            lower = [0, 0, 0]
            upper = [0, 0, 0]
            lower[legs[0] - 1], lower[legs[1] - 1] = i1, i2
            upper[legs[0] - 1], upper[legs[1] - 1] = k1, k2
            lower[spectator - 1] = upper[spectator - 1] = m
            out[tuple(lower) + tuple(upper)] = v
    return Tensor(a.ctx, a.dim, 3, 3, out)


def dense_ybe_residual(a: Tensor) -> Tensor:
    """The braid residual A12 A23 A12 - A23 A12 A23 as a whole exact (3,3)
    tensor, composed from leg-embedded copies of A, as the package computed
    it before ybe_residual worked row by row over modular images."""
    a12 = leg_embed(a, (1, 2))
    a23 = leg_embed(a, (2, 3))
    out = dict(compose(compose(a12, a23), a12).entries)
    for idx, v in compose(compose(a23, a12), a23).entries.items():
        out[idx] = out[idx] - v if idx in out else -v
    return Tensor(a.ctx, a.dim, 3, 3, out)
