"""Ordered rewriting for quadratic algebra presentations.

Relations are oriented into rules lhs -> rhs where lhs is the order-maximal
word of the relation and every rhs word is strictly smaller, so repeated
replacement terminates.  Diamond-lemma overlap analysis decides confluence;
for a confluent system normal forms are unique and counting irreducible
words gives the graded dimension of the quotient algebra.

The relations have degree 2, so their span R is a space of degree-2 words,
and orient returns its reduced row echelon basis with each row's pivot at
its order-largest word (Bergman 1978), by freealg.SpanBasis keyed by the
reversed order (TermOrder.rule_key).  No other rule set for R is
inter-reduced (monic rules whose lhs is the order-largest word and whose
rhs holds no lhs): two such sets share their lhs, the order-largest words
of R's nonzero vectors, and two rules with one lhs differ by a vector of R
that holds no lhs, which is zero.  So any inter-reduction, such as the
queue that re-normalized each relation against the rules so far, gives
these rules as dicts of Scalars.  Ranks and membership do not depend on
the key either, so a run keeps its relation ideal's basis under the rule
key (Workspace.relations), and orient reads the rules off that basis: the
span is eliminated once per run.  A basis kept under another key is
eliminated again under the rule key.

normal_form reduces each word by rewriting its leftmost redex until none is
left.  That reduction of one word is deterministic, and normal_form is its
linear extension, so a RewriteSystem keeps the reduction of each word it has
reduced and reuses it.  This is exact whether or not the system is
confluent: a kept entry is what the same reduction would compute again, and
the rules are fixed when the system is built.  An irreducible word's kept
form is {w: one}, so where a kept coefficient is the Context's one,
_combine adds the caller's coefficient as it is instead of multiplying it
by one; sums are built in one dict and their zeros dropped once.

confluence_check visits only the pairs of left sides that can overlap: v
overlaps u in k letters only if v starts with u's k-th letter from the end,
so the left sides are indexed by their first letter.  The pairs are
visited in the order of the full loop over every pair, so the ambiguities
come out in the same order.  Every one-step gap is reduced as normal_form
reduces, through the system's kept forms.

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

    def rule_key(self, word):
        """The key under which a SpanBasis pivots each row at its
        order-largest word: negated ranks reverse the order on words of one
        length."""
        return tuple(-self.rank(g) for g in word)


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
        kept = forms.get(word)
        if kept is not None:
            return kept
        stack = [(word, None)]
        while stack:
            w, step = stack.pop()
            if step is not None:
                out = self._combine(step)
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

    def _combine(self, items):
        """sum c * form(w) over the (word, Scalar) pairs of items, in one dict
        with its zero sums left in.

        An irreducible word's kept form is {w: one}, so where a kept
        coefficient is the Context's one, c is added as it is.
        """
        one = self.ctx.one
        out = {}
        for w, c in items:
            add_terms(out, ((u, c if cu is one else c * cu) for u, cu in self._form(w).items()))
        return out


def normal_form(poly, rs):
    """Reduce poly to an irreducible representative.

    Each word of poly is replaced by its kept leftmost reduction; the sum is
    built in one dict and its zero coefficients dropped once.
    """
    return NCPoly(poly.ctx, rs._combine(poly.terms.items()))


def orient(relations, order):
    """Turn a RelationSet into its inter-reduced rewrite system: each rule
    is a row of the span's reduced echelon basis under order.rule_key,
    solved for its pivot, the order-largest word (module docstring).

    A RelationSet built under that key (as Workspace.relations is) hands
    over its kept basis, so the span is eliminated once per run; any other
    basis's rows are eliminated again under the rule key.  Duplicated
    relations collapse."""
    ctx = relations.ctx
    basis = relations.basis()
    if basis.key != order.rule_key:
        rows, basis = basis.rows, SpanBasis(ctx, order.rule_key)
        for _, row in rows:
            basis.add(row)
    rules = {lhs: NCPoly(ctx, {w: -c for w, c in rest.items()})
             for lhs, rest in basis.reduced().items()}
    return RewriteSystem(ctx, order, rules)


def confluence_check(rs, maxdeg=3):
    """Resolve every overlap of two rule left sides up to maxdeg.

    Returns {"confluent": bool, "ambiguities": [(word, difference), ...]}
    where the difference is the (nonzero) gap between the two one-step
    resolutions after full reduction.  Workspace.confluence keeps the
    result per run.

    The left sides v that u can overlap are found by the letter u[-k] that
    v must start with; they are visited in the order of the rules, and each
    pair by increasing k, so that the ambiguities keep the order of the
    visit over every pair of left sides.
    """
    ambiguities = []
    lhss = list(rs.rules)
    starting = {}  # letter -> [(position among the rules, v)] of the v starting with it
    for pos, v in enumerate(lhss):
        starting.setdefault(v[0], []).append((pos, v))
    for u in lhss:
        meets = []
        for k in range(1, len(u)):
            suffix = u[len(u) - k :]
            meets.extend((pos, k, v) for pos, v in starting.get(suffix[0], ())
                         if k < len(v) and v[:k] == suffix and len(u) + len(v) - k <= maxdeg)
        meets.sort(key=lambda t: t[:2])
        for _, k, v in meets:
            word = u + v[k:]
            # rhs(u) v[k:] - u[:-k] rhs(v), the gap between the two rewrites
            gap = {w + v[k:]: c for w, c in rs.rules[u].terms.items()}
            add_terms(gap, ((u[: len(u) - k] + w, -c) for w, c in rs.rules[v].terms.items()))
            diff = NCPoly(rs.ctx, rs._combine((w, c) for w, c in gap.items() if not c.is_zero()))
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
