"""Free associative algebra over the scalar field.

Elements are finite Scalar-combinations of words in formal generators.
Nothing here knows about relations; quotients are handled elsewhere either
by rewriting (rewrite module) or by linear algebra on homogeneous slices
(SpanBasis below, the package's only exact elimination).
A RelationSet keeps the basis of its span once built, under the column key
it was given (word_key unless given); callers only read it.

Generators carry a kind ("T", "e", "xi", "D", "Dbar", or any custom name),
an integer index tuple, and an optional spectral label, so T[1,2](lam) and
T[1,2](mu) are distinct free generators.

Each generator is one object.  Generator keeps a table from (kind, index,
label) to the instance made for that key: one entry per distinct generator
met (dim^2 per label, plus e/xi and D/Dbar), and no Scalar or Context.
Generators compare and hash by identity, which is value equality on the
key, since equal keys give the same object.  So every dict and set of words
holds the entries that value equality would give, and hashing or comparing
a word runs in CPython's tuple code with no Python call per letter.  Only
the iteration order of a set of generators depends on the identities, as
it would depend on PYTHONHASHSEED under a hash of the key; the golden
reports pass under any seed (tests/test_golden.py), so no output reads
that order.
"""

from __future__ import annotations

import collections
from bisect import insort

from .errors import MissingImage, MixedFamilies
from .scalars import Context, Scalar

_KIND_RANK = {"T": 0, "e": 1, "xi": 2, "D": 3, "Dbar": 4}


class Generator:
    """A free generator: the one instance for its kind, index and label.

    Generator(kind, index, label) returns the instance kept in the class
    table under that key, made on the first call, so two equal generators
    are one object and words hash and compare by identity (module
    docstring).  Its sort key and its text are computed then and never
    change.  Copies and pickles go back through the table.
    """

    __slots__ = ("kind", "index", "label", "_sort", "_text")
    _table = {}  # (kind, index, label) -> the generator

    def __new__(cls, kind: str, index: tuple = (), label: str | None = None):
        key = (kind, index, label)
        g = cls._table.get(key)
        if g is None:
            g = cls._table[key] = object.__new__(cls)
            g.kind, g.index, g.label = key
            g._sort = (_KIND_RANK.get(kind, 5), kind, label or "", index)
            text = kind + ("[%s]" % ",".join(map(str, index)) if index else "")
            g._text = text if label is None else "%s(%s)" % (text, label)
        return g

    def __reduce__(self):
        return Generator, (self.kind, self.index, self.label)

    def __str__(self):
        return self._text

    __repr__ = __str__


def T(i, j, label=None):
    return Generator("T", (i, j), label)


def matrix_family(n, labels=(None,)):
    """The generators T[i,j] of an n x n matrix, row-major, once per distinct label."""
    rng = range(1, n + 1)
    return [T(i, j, lab) for lab in dict.fromkeys(labels) for i in rng for j in rng]


def e(i):
    return Generator("e", (i,))


def xi(i):
    return Generator("xi", (i,))


def word_key(w):
    return (len(w), tuple([g._sort for g in w]))


class NCPoly:
    """Finite Scalar-linear combination of words (tuples of Generators)."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: Context, terms=None):
        self.ctx = ctx
        self.terms = {}
        if terms:
            for w, c in terms.items():
                if not c.is_zero():
                    self.terms[w] = c

    @classmethod
    def zero(cls, ctx):
        return cls(ctx)

    @classmethod
    def one(cls, ctx):
        return cls(ctx, {(): ctx.one})

    @classmethod
    def term(cls, ctx, word, coeff=1):
        word = tuple(word)
        return cls(ctx, {word: ctx.scalar(coeff)})

    @classmethod
    def gen(cls, ctx, g: Generator):
        return cls.term(ctx, (g,))

    def is_zero(self):
        return not self.terms

    def coeff(self, word):
        return self.terms.get(tuple(word), self.ctx.zero)

    # -- arithmetic ------------------------------------------------------

    def _coerce_scalar(self, other):
        if isinstance(other, Scalar) or isinstance(other, int):
            return self.ctx.scalar(other)
        return None

    def __add__(self, other):
        if isinstance(other, NCPoly):
            return NCPoly(self.ctx, add_terms(dict(self.terms), other.terms.items()))
        s = self._coerce_scalar(other)
        if s is None:
            return NotImplemented
        return self + NCPoly.term(self.ctx, (), s)

    def __neg__(self):
        return NCPoly(self.ctx, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, NCPoly):
            negated = ((w, -c) for w, c in other.terms.items())
            return NCPoly(self.ctx, add_terms(dict(self.terms), negated))
        s = self._coerce_scalar(other)
        if s is None:
            return NotImplemented
        return self + NCPoly.term(self.ctx, (), -s)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, NCPoly):
            products = (
                (w1 + w2, c1 * c2)
                for w1, c1 in self.terms.items()
                for w2, c2 in other.terms.items()
            )
            return NCPoly(self.ctx, add_terms({}, products))
        s = self._coerce_scalar(other)
        if s is None:
            return NotImplemented
        return NCPoly(self.ctx, {w: c * s for w, c in self.terms.items()})

    def __rmul__(self, other):
        s = self._coerce_scalar(other)
        if s is None:
            return NotImplemented
        return self * s

    def substitute(self, bindings):
        return NCPoly(self.ctx, {w: c.substitute(bindings) for w, c in self.terms.items()})

    # -- comparison ------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, NCPoly):
            return self.terms == other.terms
        if isinstance(other, int):
            if other == 0:
                return self.is_zero()
            return self.terms == {(): self.ctx.scalar(other)}
        return NotImplemented

    def __str__(self):
        if not self.terms:
            return "(0)"
        bits = []
        for w in sorted(self.terms, key=word_key):
            c = self.terms[w]
            body = " ".join(str(g) for g in w)
            bits.append("(%s)%s" % (c, " " + body if body else ""))
        return " + ".join(bits)

    __repr__ = __str__


def apply_hom(x: NCPoly, images: dict) -> NCPoly:
    """Extend generator images to an algebra homomorphism (identity on scalars)."""
    out = {}
    for w, c in x.terms.items():
        acc = NCPoly.term(x.ctx, (), c)
        for g in w:
            if g not in images:
                raise MissingImage("no image for generator %s" % g)
            acc = acc * images[g]
        add_terms(out, acc.terms.items())
    return NCPoly(x.ctx, out)


def add_terms(out, items):
    """Add (key, Scalar) pairs into the dict out, in place, and return out.

    This is the package's only accumulator of linear combinations: every sum
    of polynomials, pair polynomials or tensor entries is built by it in one
    dict, so a sum copies nothing.  Zero coefficients stay until the caller
    wraps the dict once; NCPoly, PairPoly and Tensor drop them on
    construction.  The values may also be ints, as in the modular image of
    the braid residual (tensors.ybe_residual), which needs the zero sums'
    keys.
    """
    for k, c in items:
        acc = out.get(k)
        out[k] = c if acc is None else acc + c
    return out


def tensor_terms(x: NCPoly, y: NCPoly):
    """The terms ((u, v), a b) of x (x) y, for x = sum a u and y = sum b v."""
    return (((w1, w2), c1 * c2) for w1, c1 in x.terms.items() for w2, c2 in y.terms.items())


class PairPoly:
    """Element of (free algebra) tensor (free algebra): Scalar combos of word pairs."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms=None):
        self.ctx = ctx
        self.terms = {}
        if terms:
            for k, c in terms.items():
                if not c.is_zero():
                    self.terms[k] = c

    @classmethod
    def unit(cls, ctx):
        return cls(ctx, {((), ()): ctx.one})

    def scale(self, c):
        return PairPoly(self.ctx, {k: v * c for k, v in self.terms.items()})

    @classmethod
    def tensor(cls, x: NCPoly, y: NCPoly):
        return cls(x.ctx, add_terms({}, tensor_terms(x, y)))

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        return PairPoly(self.ctx, add_terms(dict(self.terms), other.terms.items()))

    def __neg__(self):
        return PairPoly(self.ctx, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        negated = ((k, -c) for k, c in other.terms.items())
        return PairPoly(self.ctx, add_terms(dict(self.terms), negated))

    def __mul__(self, other):
        """Componentwise (tensor-algebra) product: (a⊗b)(c⊗d) = ac⊗bd; a
        Scalar operand scales."""
        if not isinstance(other, PairPoly):
            return self.scale(other)
        products = (
            ((a1 + a2, b1 + b2), c1 * c2)
            for (a1, b1), c1 in self.terms.items()
            for (a2, b2), c2 in other.terms.items()
        )
        return PairPoly(self.ctx, add_terms({}, products))

    def __eq__(self, other):
        return isinstance(other, PairPoly) and self.terms == other.terms

    def __str__(self):
        if not self.terms:
            return "(0)"
        bits = []
        for w1, w2 in sorted(self.terms, key=lambda k: (word_key(k[0]), word_key(k[1]))):
            c = self.terms[(w1, w2)]
            left = " ".join(str(g) for g in w1) or "1"
            right = " ".join(str(g) for g in w2) or "1"
            bits.append("(%s) %s (x) %s" % (c, left, right))
        return " + ".join(bits)

    __repr__ = __str__


# -- exact linear algebra over the scalar field ---------------------------


class SpanBasis:
    """Row-echelon span of sparse vectors with exact Scalar entries.

    The package's only exact elimination: relation ranks and membership,
    rewrite.orient's rules and tensors._invert's inverses.  Vectors are
    dicts mapping columns to Scalars.  Pivoting is deterministic: the pivot
    of a reduced vector is its smallest column under key (word_key unless
    given), and rows are kept normalized (pivot entry 1), so ranks and
    membership answers never depend on insertion accidents.
    """

    def __init__(self, ctx: Context, key=word_key):
        self.ctx = ctx
        self.key = key
        self.rows = []  # (pivot, rowdict) sorted by pivot key

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, vec):
        """vec minus its components along the rows; a missing column is zero.

        The entries of vec may be Scalars or anything a Scalar multiplies,
        such as NCPoly coefficients.
        """
        vec = dict(vec)
        for pivot, row in self.rows:
            f = vec.get(pivot)
            if f is not None and not f.is_zero():
                f = -f  # (-f) c is -(f c), negated once per row
                add_terms(vec, ((col, f * c) for col, c in row.items()))
        return {c: v for c, v in vec.items() if not v.is_zero()}

    def add(self, vec):
        """Insert a vector; returns True if it enlarged the span.

        The row is scaled by the pivot's inverse, found once; pivots are
        distinct, so inserting in key order keeps the rows sorted.
        """
        res = self.reduce(vec)
        if not res:
            return False
        pivot = min(res, key=self.key)
        inv = self.ctx.one / res[pivot]
        row = {c: v * inv for c, v in res.items()}
        insort(self.rows, (pivot, row), key=lambda r: self.key(r[0]))
        return True

    def contains(self, vec):
        return not self.reduce(vec)

    def reduced(self):
        """{pivot: rest of its row with every other pivot eliminated}, the
        reduced echelon basis; a row lies at and above its pivot, so reducing
        its rest clears only the later pivots."""
        return {p: self.reduce((c, v) for c, v in row.items() if c != p) for p, row in self.rows}


def poly_vector(x: NCPoly):
    return dict(x.terms)


class RelationSet:
    """A list of homogeneous degree-2 elements over a fixed generator family.

    key orders the columns of its kept basis (SpanBasis), word_key unless
    given.  Ranks and membership do not depend on it; a caller that reads
    the basis's rows passes the key it needs them under, as the Workspace
    passes its term order's rule_key so that rewrite.orient reads the rules
    off the one basis.
    """

    def __init__(self, ctx: Context, family, polys, key=word_key):
        self.ctx = ctx
        self.key = key
        self._basis = None
        self.family = tuple(sorted(set(family), key=lambda g: g._sort))
        fam = set(self.family)
        self.polys = []
        for p in polys:
            if p.is_zero():
                continue
            for w in p.terms:
                if len(w) != 2:
                    raise ValueError("relation %s is not homogeneous of degree 2" % p)
                if not set(w) <= fam:
                    raise MixedFamilies(
                        "relation %s uses generators outside the family" % p
                    )
            self.polys.append(p)

    def __len__(self):
        return len(self.polys)

    def __iter__(self):
        return iter(self.polys)

    def basis(self) -> SpanBasis:
        """The row-echelon basis of the span, built once and kept; read-only to callers."""
        if self._basis is None:
            sb = SpanBasis(self.ctx, self.key)
            for p in self.polys:
                sb.add(poly_vector(p))
            self._basis = sb
        return self._basis

    def rank(self):
        return self.basis().rank


# verdict is "equal", "a_in_b", "b_in_a" or "incomparable"
SpanComparison = collections.namedtuple("SpanComparison", "verdict rank_a rank_b rank_union")


def row_space_compare(a: RelationSet, b: RelationSet) -> SpanComparison:
    """Compare the Scalar row spaces spanned by two degree-2 relation sets.

    The verdict needs only ranks: a lies in b exactly when adding a to b
    leaves b's rank unchanged, so rank(a + b) = rank(b), and symmetrically.
    The union starts from a's rows and so keeps a's key; b's rows are only
    vectors of its span, whatever key b's basis has.
    """
    if a.family != b.family:
        raise MixedFamilies(
            "cannot compare relation sets over different families: %s vs %s"
            % (list(map(str, a.family)), list(map(str, b.family)))
        )
    ba = a.basis()
    bb = b.basis()
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
    return SpanComparison(verdict, ba.rank, bb.rank, union.rank)
