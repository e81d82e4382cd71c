"""Ordered rewriting for quadratic algebra presentations.

Relations are oriented into rules lhs -> rhs where lhs is the order-maximal
word of the relation and every rhs word is strictly smaller, so repeated
replacement terminates.  Diamond-lemma overlap analysis decides confluence;
for a confluent system normal forms are unique and counting irreducible
words gives the graded dimension of the quotient algebra.

normal_form reduces each word by rewriting its leftmost redex until none is
left.  That reduction of one word is deterministic, and normal_form is its
linear extension, so a RewriteSystem keeps the reduction of each word it has
reduced and reuses it.  This is exact whether or not the system is
confluent: a kept entry is what the same reduction would compute again.  It
holds only while the rules stay the same, so whoever adds or drops a rule
(orient, while it inter-reduces) calls reset() before the next reduction.

A multiplicative determinant can be adjoined afterwards as a pair of atomic
symbols (the element and its inverse) together with the commutation rules it
satisfies against the matrix generators.  The claimed commutations are
checked against the base system before anything is added.
"""

from .errors import CommutationUnverified, OrderMissingGenerator
from .freealg import Generator, NCPoly, add_terms

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

    def leading_word(self, poly):
        if poly.is_zero():
            return None
        return max(poly.terms, key=self.word_key)


def matrix_order(n):
    """Row-major order on an n x n matrix family, T[1,1] smallest."""
    prec = [Generator("T", (i, j)) for i in range(1, n + 1) for j in range(1, n + 1)]
    return TermOrder(prec)


class RewriteSystem:
    """A set of oriented rules over a fixed term order.

    rules maps each left-hand word to the polynomial it rewrites to.  The
    system also keeps the leftmost reduction of every word it has reduced;
    whoever adds or drops a rule calls reset() before the next reduction.
    """

    def __init__(self, ctx, order, rules):
        self.ctx = ctx
        self.order = order
        self.rules = dict(rules)
        self.reset()

    def reset(self):
        """Forget every kept reduction; the rules have changed."""
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


def _has_factor(word, piece):
    n = len(piece)
    return any(word[i : i + n] == piece for i in range(len(word) - n + 1))


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
    """Turn a RelationSet into an inter-reduced rewrite system.

    Each relation is solved for its order-maximal word and scaled monic.
    Rules whose right side mentions a later left side are re-reduced, so no
    rule's rhs contains any lhs as a factor; duplicated relations collapse.
    A RelationSet holds only nonzero degree-2 relations, so each has a
    leading word.
    """
    ctx = relations.ctx
    rs = RewriteSystem(ctx, order, {})
    queue = sorted(relations, key=lambda p: order.word_key(order.leading_word(p)))
    while queue:
        p = normal_form(queue.pop(0), rs)
        if p.is_zero():
            continue
        lhs = order.leading_word(p)
        rhs = NCPoly.term(ctx, lhs) - p * p.coeff(lhs).inv()
        rs.rules[lhs] = rhs
        # earlier rules may now have reducible sides; requeue their monic
        # relations lhs - rhs
        stale = [
            l2
            for l2, r2 in rs.rules.items()
            if l2 != lhs and (_has_factor(l2, lhs) or any(_has_factor(w, lhs) for w in r2.terms))
        ]
        for l2 in stale:
            queue.append(NCPoly.term(ctx, l2) - rs.rules.pop(l2))
        rs.reset()
    return rs


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
