"""Configurations for the tests, read from the shipped algebra files, the
literal relation tables they are compared against, small builders that
only the tests need, and the dense index loops that the package's sparse
contractions are compared with."""

import functools
import itertools
from bisect import insort
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import add, sub

from sympy import ZZ
from sympy.polys.fields import field

from ncorep.cli import Workspace, _resolve_input, parse_algebra_file
from ncorep.bialg import LinearForm, Presentation, tilde_images
from ncorep.corep import QuadraticSpace, factorized_theta
from ncorep.errors import (
    DenominatorVanishes,
    InputFormat,
    MissingImage,
    NotInvertible,
    ShapeMismatch,
)
from ncorep.freealg import (
    NCPoly,
    PairPoly,
    RelationSet,
    SpanBasis,
    T,
    add_terms,
    apply_hom,
    tensor_terms,
)
from ncorep.integrable import weighted_trace
from ncorep.rewrite import RewriteSystem, normal_form
from ncorep.scalars import POINT, PRIME, Scalar, _exps, _fraction, _mono
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
    as the coprime polynomials of its canonical form (scalars._fraction).

    sympy's field operations cancel by a polynomial gcd, so they are the
    independent reference that the scalar tests compare the kernel with.
    """
    K = sympy_field(s.ctx.params)
    num, den = (K.ring.from_dict(unpacked(s.ctx, p)) for p in _fraction(s.ctx, s))
    return K.raw_new(num, den)


def named_key_str(s):
    """str(s) through a context-free key, as the package once wrote it.

    Each polynomial becomes terms keyed by (name, exponent) pairs with
    Fraction coefficients, sorted graded-lex over the parameters that occur
    in it, and both are divided by the denominator's leading coefficient.
    The reference that the renderer of str(Scalar), which reads packed
    monomials, is compared with.
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

    num, den = (key(unpacked(s.ctx, p)) for p in _fraction(s.ctx, s))
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
    images = tilde_images(theta)
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


def reference_form(rs, word, forms):
    """RewriteSystem._form as the package wrote it before kept forms were
    combined without unit products: every kept coefficient is multiplied in,
    ctx.one included.  forms is the caller's dict of kept forms, so the
    reference shares nothing with the system's own."""
    stack = [(word, None)]
    while stack:
        w, step = stack.pop()
        if step is not None:
            out = {}
            for v, c in step:
                add_terms(out, ((u, c * cu) for u, cu in forms[v].items()))
            forms[w] = {u: c for u, c in out.items() if not c.is_zero()}
            continue
        if w in forms:
            continue
        hit = rs._redex(w)
        if hit is None:
            forms[w] = {w: rs.ctx.one}
            continue
        i, lhs = hit
        left, right = w[:i], w[i + len(lhs) :]
        step = [(left + v + right, c) for v, c in rs.rules[lhs].terms.items()]
        stack.append((w, step))
        stack.extend((v, None) for v, _ in step if v not in forms)
    return forms[word]


def reference_normal_form(poly, rs, forms=None):
    """normal_form as the package wrote it then, over reference_form."""
    forms = {} if forms is None else forms
    out = {}
    for word, coeff in poly.terms.items():
        add_terms(out, ((u, coeff * c) for u, c in reference_form(rs, word, forms).items()))
    return NCPoly(poly.ctx, out)


def reference_confluence_check(rs, maxdeg=3):
    """confluence_check as the package wrote it then: every ordered pair of
    left sides and every overlap length, each gap reduced by
    reference_normal_form."""
    forms = {}
    ambiguities = []
    lhss = list(rs.rules)
    for u in lhss:
        for v in lhss:
            for k in range(1, min(len(u), len(v))):
                if u[len(u) - k :] != v[:k]:
                    continue
                word = u + v[k:]
                if len(word) > maxdeg:
                    continue
                gap = {w + v[k:]: c for w, c in rs.rules[u].terms.items()}
                add_terms(gap, ((u[: len(u) - k] + w, -c) for w, c in rs.rules[v].terms.items()))
                diff = reference_normal_form(NCPoly(rs.ctx, gap), rs, forms)
                if not diff.is_zero():
                    ambiguities.append((word, diff))
    ambiguities.sort(key=lambda t: rs.order.word_key(t[0]))
    return {"confluent": not ambiguities, "ambiguities": ambiguities}


def entry(M: Tensor, *idx) -> NCPoly:
    """M's entry at idx, the zero polynomial where M has none."""
    return M.entries.get(idx, NCPoly.zero(M.ctx))


def expanded_grouplike_defect(M: Tensor):
    """corep.grouplike_defect as the package wrote it before it decided
    Delta(M) = M (x) M unexpanded: the coproduct of every entry is expanded,
    on a Presentation of its own, and compared as a PairPoly."""
    ctx, rng = M.ctx, range(1, M.dim + 1)
    pres = Presentation(ctx, M.dim)
    G, E = {}, {}
    for i, j, k, l in itertools.product(rng, repeat=4):
        rhs = {}
        for r, s in itertools.product(rng, repeat=2):
            left, right = M.entries.get((i, j, r, s)), M.entries.get((r, s, k, l))
            if left is not None and right is not None:
                add_terms(rhs, tensor_terms(left, right))
        x = entry(M, i, j, k, l)
        lhs, rhs = pres.coproduct(x), PairPoly(ctx, rhs)
        if lhs != rhs:
            G[(i, j, k, l)] = lhs - rhs
        E[(i, j, k, l)] = pres.counit(x) - (ctx.one if (i == k and j == l) else ctx.zero)
    return Tensor(ctx, M.dim, 2, 2, G), Tensor(ctx, M.dim, 2, 2, E)


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


def union_row_space_compare(a, b):
    """freealg.row_space_compare as the package wrote it before it proved
    equal spans by membership and a modular rank: (verdict, rank_a, rank_b,
    rank_union) read off both exact bases and their union."""
    ba, bb = a.basis(), b.basis()
    union = SpanBasis(a.ctx, ba.key)
    union.rows = list(ba.rows)
    for _, row in bb.rows:
        union.add(row)
    a_in_b = union.rank == bb.rank
    b_in_a = union.rank == ba.rank
    if a_in_b and b_in_a:
        verdict = "equal"
    elif a_in_b:
        verdict = "a_in_b"
    elif b_in_a:
        verdict = "b_in_a"
    else:
        verdict = "incomparable"
    return verdict, ba.rank, bb.rank, union.rank


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


def dense_build_M(t: Tensor, labels=None) -> Tensor:
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
    return Tensor(ctx, t.dim, 2, 2, entries)


def dense_check_grouplike(M: Tensor) -> bool:
    pres = Presentation(M.ctx, M.dim)
    rng = range(1, M.dim + 1)
    for i, j, k, l in itertools.product(rng, repeat=4):
        lhs = pres.coproduct(entry(M, i, j, k, l))
        rhs = PairPoly(M.ctx)
        for r in rng:
            for s in rng:
                rhs = rhs + PairPoly.tensor(entry(M, i, j, r, s), entry(M, r, s, k, l))
        if lhs != rhs:
            return False
        eps = pres.counit(entry(M, i, j, k, l))
        if eps != (M.ctx.one if (i == k and j == l) else M.ctx.zero):
            return False
    return True


def dense_relation_entries(B: Tensor, M: Tensor, M_second: Tensor = None) -> dict:
    M_second = M if M_second is None else M_second
    rng = range(1, M.dim + 1)
    entries = {}
    for i, j, k, l in itertools.product(rng, repeat=4):
        acc = NCPoly.zero(M.ctx)
        for m in rng:
            for nn in rng:
                c1 = B.get(i, j, m, nn)
                if not c1.is_zero():
                    acc = acc + c1 * entry(M, m, nn, k, l)
                c2 = B.get(m, nn, k, l)
                if not c2.is_zero():
                    acc = acc - c2 * entry(M_second, i, j, m, nn)
        entries[(i, j, k, l)] = acc
    return entries


def dense_coideal_check(B: Tensor, M: Tensor) -> bool:
    pres = Presentation(M.ctx, M.dim)
    rng = range(1, M.dim + 1)
    rel = dense_relation_entries(B, M)
    for (i, j, k, l), r in rel.items():
        rhs = PairPoly(M.ctx)
        for a in rng:
            for b in rng:
                rhs = rhs + PairPoly.tensor(rel[(i, j, a, b)], entry(M, a, b, k, l))
                rhs = rhs + PairPoly.tensor(entry(M, i, j, a, b), rel[(a, b, k, l)])
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


# -- the tuple-exponent scalar kernel ---------------------------------------
#
# The kernel that stored each monomial as a tuple of exponents in parameter
# order, kept as the reference for the packed one in ncorep.scalars: the
# same algorithm on tuples, with its own factor base per TupleContext.
# tk_mod_image raises each point coordinate by pow(), where the package
# once kept a list of its powers.


class TupleContext:
    """The tuple kernel's state for one parameter list: its factor base."""

    def __init__(self, params):
        self.params = tuple(sorted(params))
        zero = (0,) * len(self.params)
        self._unit = (1, zero, ())
        self.zero = TupleScalar(self, {}, self._unit)
        self.one = TupleScalar(self, {zero: 1}, self._unit)
        self._factors = []
        self._factor_ids = {}
        self._splits = {}
        self._dens = {}


class TupleScalar:
    """A canonical element of the tuple kernel, with the package's operators."""

    __slots__ = ("ctx", "num", "split")

    def __init__(self, ctx, num, split):
        self.ctx, self.num, self.split = ctx, num, split

    def __add__(self, other):
        return tk_add(self.ctx, self, other)

    def __neg__(self):
        return TupleScalar(self.ctx, {e: -v for e, v in self.num.items()}, self.split)

    def __sub__(self, other):
        return tk_add(self.ctx, self, -other)

    def __mul__(self, other):
        if not self.num or not other.num:
            return self.ctx.zero
        return tk_mul(self.ctx, self, other)

    def __truediv__(self, other):
        if not self.num:
            return self.ctx.zero
        return tk_mul(self.ctx, self, tk_inverse(self.ctx, other))

    def __pow__(self, n):
        if n == 0:
            return self.ctx.one
        return tk_power(self if n > 0 else tk_inverse(self.ctx, self), abs(n))

    def substitute(self, name, value):
        """self with the parameter name bound to the TupleScalar value."""
        ctx = self.ctx
        i = ctx.params.index(name)
        numer, denom = self.num, tk_den(ctx, self.split)
        d = max(exps[i] for poly in (numer, denom) for exps in poly)
        if d == 0:
            return self
        a_pows = tk_powers(ctx, value.num, d)
        b_pows = tk_powers(ctx, tk_den(ctx, value.split), d)
        num, den = (tk_compose(poly, i, a_pows, b_pows) for poly in (numer, denom))
        if not den:
            raise DenominatorVanishes("a denominator vanishes", param=name)
        return tk_canonical(ctx, num, den)

    def __str__(self):
        c, m, ks = self.split
        if not ks and not any(m):
            return tk_poly_str(self.num, self.ctx.params, c)
        den = tk_den(self.ctx, self.split)
        lead = den[max(den, key=tk_grlex)]
        num, den = (tk_poly_str(p, self.ctx.params, lead) for p in (self.num, den))
        return "(%s)/(%s)" % (num, den)


def unpacked(ctx, poly):
    """A polynomial of the package's Context ctx with exponent tuples as keys."""
    return {_exps(ctx, e): v for e, v in poly.items()}


def packed(ctx, poly):
    """A polynomial with exponent tuples as keys, packed for the Context ctx."""
    return {_mono(e): v for e, v in poly.items()}


def tuple_scalar(tctx, s):
    """The package Scalar s as an element of the TupleContext tctx."""
    return tk_canonical(tctx, *(unpacked(s.ctx, p) for p in _fraction(s.ctx, s)))




def tk_grlex(e):
    """The graded-lex sort key of an exponent tuple (sympy's grlex)."""
    return sum(e), e


def tk_padd(a, b):
    """a + b."""
    if len(a) < len(b):
        a, b = b, a
    out = dict(a)
    for e, v in b.items():
        v += out.get(e, 0)
        if v:
            out[e] = v
        else:
            del out[e]
    return out


def tk_pterm(a, m, c):
    """a * c x^m."""
    return {tuple(map(add, e, m)): v * c for e, v in a.items()}


def tk_pmul(a, b):
    """a * b."""
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        ((m, c),) = b.items()
        return tk_pterm(a, m, c)
    out = {}
    get = out.get
    for eb, vb in b.items():
        for ea, va in a.items():
            e = tuple(map(add, ea, eb))
            out[e] = get(e, 0) + va * vb
    return {e: v for e, v in out.items() if v}


def tk_ppow(a, n):
    """a^n for n > 0: a closed form for one term, repeated squaring otherwise."""
    if len(a) == 1:
        ((m, c),) = a.items()
        return {tuple(e * n for e in m): c ** n}
    out = None
    while True:
        if n & 1:
            out = a if out is None else tk_pmul(out, a)
        n >>= 1
        if not n:
            return out
        a = tk_pmul(a, a)


def tk_powers(ctx, poly, d):
    """[1, poly, ..., poly^d]."""
    out = [ctx.one.num]
    for _ in range(d):
        out.append(tk_pmul(out[-1], poly))
    return out


def tk_compose(poly, i, a_pows, b_pows):
    """sum c * rest * a^e * b^(d - e) over the terms c * rest * x_i^e of poly."""
    d = len(a_pows) - 1
    by_exp = {}
    for exps, coeff in poly.items():
        by_exp.setdefault(exps[i], {})[exps[:i] + (0,) + exps[i + 1:]] = coeff
    out = {}
    for e, part in by_exp.items():
        if a_pows[e]:
            out = tk_padd(out, tk_pmul(tk_pmul(part, a_pows[e]), b_pows[d - e]))
    return out


def tk_split(ctx, den):
    """The split of a denominator with positive leading coefficient; a new
    multi-term one is factored once per Context."""
    if len(den) == 1:
        ((m, c),) = den.items()
        return c, m, ()
    key = frozenset(den.items())
    split = ctx._splits.get(key)
    if split is None:
        split = ctx._splits[key] = tk_factor(ctx, den)
    return split


def tk_factor(ctx, den):
    """The split of den, which has at least two terms and a positive leading
    coefficient; new factors join the base.

    The monomial content and the integer content come out first.  What is
    left, f, is primitive, leads positive and no parameter divides it, and
    tk_small_factors splits the common shapes exactly.  Anything else is
    factored by sympy's factor_list, the only place the package imports
    sympy.  Over ZZ it returns primitive factors whose leading coefficient
    is positive in lex order, not graded-lex (q^2 - 2*p comes back as
    2*p - q^2), so such a factor is negated; then f, which leads positive,
    is their product exactly and the constant it returns is 1.
    """
    c = gcd(*den.values())
    m = tuple(map(min, *den))
    f = {tuple(map(sub, e, m)): v // c for e, v in den.items()}
    pairs = tk_small_factors(f)
    if pairs is None:
        from sympy import ZZ
        from sympy.polys.orderings import grlex
        from sympy.polys.rings import PolyRing

        _, found = PolyRing(ctx.params, ZZ, grlex).from_dict(f).factor_list()
        pairs = []
        for g, k in found:
            g = {e: int(v) for e, v in g.items()}
            if g[max(g, key=tk_grlex)] < 0:
                g = {e: -v for e, v in g.items()}
            pairs.append((g, k))
    ks = {}
    for g, k in pairs:
        i = tk_factor_id(ctx, g)
        ks[i] = ks.get(i, 0) + k
    return c, m, tuple(sorted(ks.items()))


def tk_small_factors(f):
    """The irreducible factors of f as (factor, multiplicity) pairs, when f
    is linear with an integer coefficient or constant term in some parameter,
    or quadratic in its only parameter; else None.

    f is primitive, leads positive and has no monomial factor.
    * f = a x + b with a or b a nonzero integer is irreducible: b is not
      zero, since x does not divide f, and a factor of f either has no x,
      so it divides a and b and hence an integer, and is a unit because f
      is primitive; or its cofactor has no x and is a unit the same way.
    * f = A x^2 + B x + C is irreducible when B^2 - 4AC is not a square.
      Otherwise it has the rational roots (-B +- sqrt(B^2 - 4AC)) / 2A, and
      f is the product of the primitive linear factors d x - n for the
      roots n/d (one factor squared for a double root): by Gauss's lemma
      that product is primitive, and it leads with d d' > 0, as f does.
    """
    zero = (0,) * len(next(iter(f)))
    degrees = tuple(map(max, *f))
    for i, d in enumerate(degrees):
        if d == 1:
            xs = [e for e in f if e[i]]
            if len(xs) == 1 and sum(xs[0]) == 1 or len(f) - len(xs) == 1 and zero in f:
                return [(f, 1)]
    support = [i for i, d in enumerate(degrees) if d]
    if len(support) != 1 or degrees[support[0]] != 2:
        return None
    (i,) = support
    x1, x2 = (zero[:i] + (k,) + zero[i + 1:] for k in (1, 2))
    a, b, c = f[x2], f.get(x1, 0), f[zero]
    disc = b * b - 4 * a * c
    if disc < 0 or isqrt(disc) ** 2 != disc:
        return [(f, 1)]
    root = isqrt(disc)
    linear = []
    for s in {root, -root}:
        r = Fraction(-b + s, 2 * a)
        linear.append(({x1: r.denominator, zero: -r.numerator}, 2 if s == 0 else 1))
    return linear


def tk_factor_id(ctx, f):
    """The index of the base factor f, which joins the base if it is new."""
    key = frozenset(f.items())
    i = ctx._factor_ids.get(key)
    if i is None:
        i = ctx._factor_ids[key] = len(ctx._factors)
        ctx._factors.append((f, max(f, key=tk_grlex), min(f, key=tk_grlex)))
    return i


def tk_den(ctx, split):
    """The polynomial of a split, kept on the Context when it has factors."""
    c, m, ks = split
    if not ks:
        return {m: c}
    den = ctx._dens.get(split)
    if den is None:
        den = {m: c}
        for i, k in ks:
            den = tk_pmul(den, tk_ppow(ctx._factors[i][0], k))
        ctx._dens[split] = den
        ctx._splits[frozenset(den.items())] = split
    return den


def tk_merge(kx, ky, op):
    """Two factor exponent lists as one, op combining the shared entries."""
    if not kx or not ky:
        return kx or ky
    out = dict(kx)
    for i, k in ky:
        out[i] = op(out.get(i, 0), k)
    return tuple(sorted(out.items()))


def tk_mdiv(a, b):
    """The monomial a / b, or None when b does not divide a."""
    d = tuple(map(sub, a, b))
    return d if min(d) >= 0 else None


def tk_exquo(num, factor):
    """num / f when f divides num in ZZ[params], else None.

    Long division on leading terms, stopped at the first that the leading
    term of f does not divide (see the module docstring).  The order is
    multiplicative, so f can divide num only if the trailing term of f
    divides that of num, which is checked first.  The leading and trailing
    terms of f were found once, when f joined the factor base.  The
    remainder's graded-lex keys are kept sorted: a step cancels the leading
    term and changes only smaller ones, so the largest key left is the next
    leading term once the keys of cancelled terms are skipped.
    """
    f, lead, trail = factor
    bottom = min(num, key=tk_grlex)
    if tk_mdiv(bottom, trail) is None or num[bottom] % f[trail]:
        return None
    top_c = f[lead]
    rest, quo = dict(num), {}
    keys = sorted([(sum(e), e) for e in rest])
    while keys:
        _, top = keys.pop()
        if top not in rest:
            continue
        m = tk_mdiv(top, lead)
        if m is None or rest[top] % top_c:
            return None
        c = quo[m] = rest[top] // top_c
        for e, v in f.items():
            e = tuple(map(add, e, m))
            old = rest.get(e)
            if old is None:
                rest[e] = -c * v
                insort(keys, (sum(e), e))
            elif old != c * v:
                rest[e] = old - c * v
            else:
                del rest[e]
    return quo


def tk_divide_out(ctx, num, ks, tries):
    """Divide num by each factor f_i of ks with i in tries while it divides,
    at most k_i times; return num and ks less the factors divided out."""
    left = []
    for i, k in ks:
        if num and i in tries:
            factor = ctx._factors[i]
            while k:
                quo = tk_exquo(num, factor)
                if quo is None:
                    break
                num, k = quo, k - 1
        if k:
            left.append((i, k))
    return num, tuple(left)


def tk_reduce(ctx, num, c, m, ks):
    """num / (c x^m prod f_i^k_i) in canonical form, when no f_i divides num.

    What num and the denominator can still share is a monomial and an
    integer, the least exponents and the gcd of the contents.
    """
    if not num:
        return ctx.zero
    g = 1 if c == 1 else gcd(c, *num.values())
    low = tuple(map(min, m, *num)) if any(m) else m
    if g != 1 or any(low):
        num = {tuple(map(sub, e, low)): v // g for e, v in num.items()}
        c, m = c // g, tuple(map(sub, m, low))
    return TupleScalar(ctx, num, (c, m, ks))


def tk_canonical(ctx, num, den):
    """num / den in canonical form, for any polynomials with den nonzero."""
    if den[max(den, key=tk_grlex)] < 0:
        num, den = {e: -v for e, v in num.items()}, {e: -v for e, v in den.items()}
    c, m, ks = tk_split(ctx, den)
    num, ks = tk_divide_out(ctx, num, ks, {i for i, _ in ks})
    return tk_reduce(ctx, num, c, m, ks)


def tk_mul(ctx, x, y):
    """x * y for canonical x and y."""
    cx, mx, kx = x.split
    cy, my, ky = y.split
    nx, ny = x.num, y.num
    if kx or ky:
        # each numerator is coprime to its own denominator, so it can share
        # only the factors that the other denominator has alone
        ix, iy = {i for i, _ in kx}, {i for i, _ in ky}
        nx, ky = tk_divide_out(ctx, nx, ky, iy - ix)
        ny, kx = tk_divide_out(ctx, ny, kx, ix - iy)
    return tk_reduce(ctx, tk_pmul(nx, ny), cx * cy, tuple(map(add, mx, my)), tk_merge(kx, ky, add))


def tk_add(ctx, x, y):
    """x + y for canonical x and y."""
    if not x.num:
        return y
    if not y.num:
        return x
    if x.split == y.split:
        c, m, ks = x.split
        num, ks = tk_divide_out(ctx, tk_padd(x.num, y.num), ks, {i for i, _ in ks})
        return tk_reduce(ctx, num, c, m, ks)
    cx, mx, kx = x.split
    cy, my, ky = y.split
    c, m, ks = lcm(cx, cy), tuple(map(max, mx, my)), tk_merge(kx, ky, max)
    num = tk_padd(
        tk_scale(ctx, x.num, c // cx, tuple(map(sub, m, mx)), tk_less(ks, kx)),
        tk_scale(ctx, y.num, c // cy, tuple(map(sub, m, my)), tk_less(ks, ky)),
    )
    # a factor with more weight in one denominator divides one summand and
    # not the other, so only factors of equal weight can divide the sum
    num, ks = tk_divide_out(ctx, num, ks, {i for i, _ in set(kx) & set(ky)})
    return tk_reduce(ctx, num, c, m, ks)


def tk_less(ks, kx):
    """The exponents of ks minus those of kx, which ks dominates."""
    have = dict(kx)
    return tuple((i, k - have.get(i, 0)) for i, k in ks if k > have.get(i, 0))


def tk_scale(ctx, num, c, m, ks):
    """num * c x^m prod f_i^k_i."""
    if ks:
        return tk_pmul(num, tk_den(ctx, (c, m, ks)))
    return tk_pterm(num, m, c)


def tk_inverse(ctx, x):
    """1 / x for nonzero canonical x: swap, then make the leading coefficient positive."""
    num, den = tk_den(ctx, x.split), x.num
    if den[max(den, key=tk_grlex)] < 0:
        num, den = {e: -v for e, v in num.items()}, {e: -v for e, v in den.items()}
    return TupleScalar(ctx, num, tk_split(ctx, den))


def tk_power(x, n):
    """x^n for n > 0: a power of a coprime pair is coprime."""
    c, m, ks = x.split
    split = (c ** n, tuple(e * n for e in m), tuple((i, k * n) for i, k in ks))
    return TupleScalar(x.ctx, tk_ppow(x.num, n) if x.num else x.num, split)


def tk_mod_image(s):
    """s at scalars.POINT, as mod_image computes it; each power by pow()."""
    ctx = s.ctx
    if len(ctx.params) > len(POINT):
        return None
    c, m, ks = s.split
    den = c * tk_poly_image(ctx, {m: 1})
    for i, k in ks:
        den = den * pow(tk_poly_image(ctx, ctx._factors[i][0]), k, PRIME)
    den %= PRIME
    if not den:
        return None
    return tk_poly_image(ctx, s.num) * pow(den, -1, PRIME) % PRIME


def tk_poly_image(ctx, poly):
    out = 0
    for e, c in poly.items():
        for a, k in zip(POINT, e):
            c = c * pow(a, k, PRIME) % PRIME
        out += c
    return out % PRIME


def tk_poly_str(poly, names, lead):
    """poly / lead as text, its terms in descending graded-lex order."""
    if not poly:
        return "0"
    out = ""
    for e in sorted(poly, key=tk_grlex, reverse=True):
        c = poly[e] if lead == 1 else Fraction(poly[e], lead)
        mono = "*".join(n if k == 1 else "%s^%d" % (n, k) for n, k in zip(names, e) if k)
        if not mono:
            term = str(c)
        elif c == 1:
            term = mono
        elif c == -1:
            term = "-" + mono
        else:
            term = "%s*%s" % (c, mono)
        if not out:
            out = term
        elif term.startswith("-"):
            out += " - " + term[1:]
        else:
            out += " + " + term
    return out
