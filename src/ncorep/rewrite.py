"""Ordered rewriting for quadratic algebra presentations.

Relations are oriented into rules lhs -> rhs where lhs is the order-maximal
word of the relation and every rhs word is strictly smaller, so repeated
replacement terminates.  Diamond-lemma overlap analysis decides confluence;
for a confluent system normal forms are unique and counting irreducible
words gives the graded dimension of the quotient algebra.

The relations have degree 2, so their span R is a space of degree-2 words,
and orient returns its reduced row echelon basis with each row's pivot at
its order-largest word (Bergman 1978), by freealg.SpanBasis keyed by the
reversed order.  No other rule set for R is inter-reduced (monic rules
whose lhs is the order-largest word and whose rhs holds no lhs): two such
sets share their lhs, the order-largest words of R's nonzero vectors, and
two rules with one lhs differ by a vector of R that holds no lhs, which is
zero.  So any inter-reduction, such as the queue that re-normalized each
relation against the rules so far, gives these rules as dicts of Scalars.

normal_form reduces each word by rewriting its leftmost redex until none is
left.  That reduction of one word is deterministic, and normal_form is its
linear extension, so a RewriteSystem keeps the reduction of each word it has
reduced and reuses it.  This is exact whether or not the system is
confluent: a kept entry is what the same reduction would compute again, and
the rules are fixed when the system is built.

A multiplicative determinant can be adjoined afterwards as a pair of atomic
symbols (the element and its inverse) together with the commutation rules it
satisfies against the matrix generators.  The claimed commutations are
checked against the base system before anything is added.
"""

from .errors import CommutationUnverified, OrderMissingGenerator
from .freealg import Generator, NCPoly, SpanBasis, add_terms, matrix_family

DET = Generator("D", ())
DETBAR = Generator("Dbar", ())


class TermOrder:
    """Degree-first word order, ties broken left-to-right by a precedence list.

    The precedence list gives the generators from smallest to largest.  The
    induced order on words compares length first and then ranks letter by
    letter, which makes it compatible with concatenation on both sides.
    """

    def __init__(self, precedence):
        self.precedence = tuple(precedence)
        self._rank = {}
        for i, g in enumerate(self.precedence):
            if g in self._rank:
                raise ValueError("duplicate generator in precedence list: %s" % (g,))
            self._rank[g] = i

    def rank(self, g):
        r = self._rank.get(g)
        if r is None:
            raise OrderMissingGenerator("generator %s is not ordered" % (g,))
        return r

    def word_key(self, word):
        return (len(word), tuple(self.rank(g) for g in word))


def matrix_order(n):
    """Row-major order on an n x n matrix family, T[1,1] smallest."""
    return TermOrder(matrix_family(n))


class RewriteSystem:
    """A set of oriented rules over a fixed term order.

    rules maps each left-hand word to the polynomial it rewrites to; it is
    fixed at construction.  The system also keeps the leftmost reduction of
    every word it has reduced.
    """

    def __init__(self, ctx, order, rules):
        self.ctx = ctx
        self.order = order
        self.rules = dict(rules)
        self._forms = {}
        self._lengths = sorted({len(w) for w in self.rules})

    def alphabet(self):
        return self.order.precedence

    def rule_list(self):
        return sorted(self.rules.items(), key=lambda kv: self.order.word_key(kv[0]))

    def __len__(self):
        return len(self.rules)

    def _redex(self, word):
        """The leftmost (position, lhs) occurrence of a left side in word, or None."""
        for i in range(len(word)):
            for ln in self._lengths:
                piece = word[i : i + ln]
                if len(piece) == ln and piece in self.rules:
                    return i, piece
        return None

    def _form(self, word):
        """The kept leftmost reduction of word, {irreducible word: Scalar}.

        Reduces on an explicit stack: a word is expanded into the words of
        its one-step rewrite, and combined once all of those are kept.  Each
        word meets _redex once; the rewrite strictly lowers the order, so a
        word never waits on itself.
        """
        forms = self._forms
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
            hit = self._redex(w)
            if hit is None:
                forms[w] = {w: self.ctx.one}
                continue
            i, lhs = hit
            left, right = w[:i], w[i + len(lhs) :]
            step = [(left + v + right, c) for v, c in self.rules[lhs].terms.items()]
            stack.append((w, step))
            stack.extend((v, None) for v, _ in step if v not in forms)
        return forms[word]


def normal_form(poly, rs):
    """Reduce poly to an irreducible representative.

    Each word of poly is replaced by its kept leftmost reduction; the sum is
    built in one dict and its zero coefficients dropped once.
    """
    out = {}
    for word, coeff in poly.terms.items():
        add_terms(out, ((u, coeff * c) for u, c in rs._form(word).items()))
    return NCPoly(poly.ctx, out)


def orient(relations, order):
    """Turn a RelationSet into its inter-reduced rewrite system: each rule
    is a row of the span's reduced echelon basis solved for its pivot, the
    order-largest word (module docstring), since negated ranks reverse the
    order on words of one length.  Duplicated relations collapse."""
    ctx = relations.ctx
    basis = SpanBasis(ctx, key=lambda w: tuple(-order.rank(g) for g in w))
    for p in relations:
        basis.add(p.terms)
    rules = {lhs: NCPoly(ctx, {w: -c for w, c in rest.items()})
             for lhs, rest in basis.reduced().items()}
    return RewriteSystem(ctx, order, rules)


def confluence_check(rs, maxdeg=3):
    """Resolve every overlap of two rule left sides up to maxdeg.

    Returns {"confluent": bool, "ambiguities": [(word, difference), ...]}
    where the difference is the (nonzero) gap between the two one-step
    resolutions after full reduction.  Workspace.confluence keeps the
    result per run.
    """
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
                # rhs(u) v[k:] - u[:-k] rhs(v), the gap between the two rewrites
                gap = {w + v[k:]: c for w, c in rs.rules[u].terms.items()}
                add_terms(gap, ((u[: len(u) - k] + w, -c) for w, c in rs.rules[v].terms.items()))
                diff = normal_form(NCPoly(rs.ctx, gap), rs)
                if not diff.is_zero():
                    ambiguities.append((word, diff))
    ambiguities.sort(key=lambda t: rs.order.word_key(t[0]))
    return {"confluent": not ambiguities, "ambiguities": ambiguities}


def count_irreducible(rs, degree):
    """The number of degree-d words over the ordered alphabet avoiding every lhs."""

    # words grow from irreducible prefixes, so only a new suffix can be a left side
    def grow(word):
        if len(word) == degree:
            return 1
        total = 0
        for g in rs.alphabet():
            w = word + (g,)
            if not any(w[len(w) - ln :] in rs.rules for ln in rs._lengths if ln <= len(w)):
                total += grow(w)
        return total

    return grow(())


def extend_with_determinant(rs, det_poly, commutations):
    """Adjoin a grouplike determinant symbol and its inverse to rs.

    commutations lists (generator, c) pairs claiming det * g = c * g * det.
    Each claim is first checked in the base system with det replaced by its
    polynomial; a failure raises CommutationUnverified.  The determinant
    symbol itself stays atomic: rules only move it across generators and
    cancel it against its inverse.
    """
    ctx = rs.ctx
    for g, c in commutations:
        gp = NCPoly.term(ctx, (g,))
        claim = det_poly * gp - gp * det_poly * c
        if not normal_form(claim, rs).is_zero():
            raise CommutationUnverified(
                "determinant does not commute with %s by factor %s" % (g, c)
            )

    order2 = TermOrder((DETBAR,) + tuple(rs.order.precedence) + (DET,))
    rules2 = dict(rs.rules)
    for g, c in commutations:
        rules2[(DET, g)] = NCPoly.term(ctx, (g, DET), c)
        rules2[(g, DETBAR)] = NCPoly.term(ctx, (DETBAR, g), c)
    rules2[(DET, DETBAR)] = NCPoly.one(ctx)
    rules2[(DETBAR, DET)] = NCPoly.one(ctx)
    return RewriteSystem(ctx, order2, rules2)
