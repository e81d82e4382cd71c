"""Free associative algebra over the scalar field.

Elements are finite Scalar-combinations of words in formal generators.
Nothing here knows about relations; quotients are handled elsewhere either
by rewriting (rewrite module) or by linear algebra on homogeneous slices
(SpanBasis below, the package's only elimination, over the Scalars or over
their images mod PRIME).
A RelationSet keeps the basis of its span once built, under the column key
it was given (word_key unless given); callers only read it.

row_space_compare decides equal spans without a second exact basis.  Let
K be the kept basis of one side, of rank r, and p_1 ... p_n the other
side's relations.  If every p_j reduces to zero against K, the p_j lie in
the span of K, so their rank is at most r.  If the images of some of them
mod PRIME (scalars.mod_image) have rank r, an r x r minor of the images'
coefficients is nonzero.  Evaluation at the point is a ring homomorphism on
the fractions whose denominators do not vanish there, so that minor is the
image of the same minor of the exact coefficients, which is therefore
nonzero, and the p_j have rank at least r.  Both together prove that the
spans are equal and that both ranks and the rank of their union are r.  A
zero image decides nothing, so when the image rank falls short of r, an
image is undefined or some p_j is not a member, the comparison builds the
union of both bases and reads its verdict from three ranks.

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
from .modp import ModP
from .scalars import Context, Scalar, mod_image

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
    """Finite Scalar-linear combination of words (tuples of Generators).

    Its terms never change after __init__, so its text is written once and
    kept."""

    __slots__ = ("ctx", "terms", "_text")

    def __init__(self, ctx: Context, terms=None):
        self.ctx = ctx
        self._text = None
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
        if self._text is None:
            bits = []
            for w in sorted(self.terms, key=word_key):
                body = " ".join(str(g) for g in w)
                bits.append("(%s)%s" % (self.terms[w], " " + body if body else ""))
            self._text = " + ".join(bits) or "(0)"
        return self._text

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
        """x (x) y: the terms ((u, v), a b) for x = sum a u and y = sum b v."""
        return cls(x.ctx, {(u, v): a * b for u, a in x.terms.items() for v, b in y.terms.items()})

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


# -- linear algebra over a field ---------------------------------------------


class SpanBasis:
    """Row-echelon span of sparse vectors over a field.

    The package's only elimination: relation ranks and membership,
    rewrite.orient's rules, tensors._invert's inverses and the modular rank
    of row_space_compare.  The field object gives one and the operations
    is_zero(c), neg(c), mul(a, b) and inv(c): a Context for Scalars, ModP
    for ints mod PRIME (modp).  Vectors are dicts mapping columns to field
    elements.  Pivoting is deterministic: the pivot of a reduced vector is
    its smallest column under key (word_key unless given), and rows are
    kept normalized (pivot entry one), so ranks and membership answers
    never depend on insertion accidents.
    """

    def __init__(self, field, key=word_key):
        self.field = field
        self.key = key
        self.rows = []  # (pivot, rowdict) sorted by pivot key

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, vec):
        """vec minus its components along the rows; a missing column is zero."""
        field = self.field
        vec = dict(vec)
        for pivot, row in self.rows:
            f = vec.get(pivot)
            if f is not None and not field.is_zero(f):
                f = field.neg(f)  # (-f) c is -(f c), negated once per row
                add_terms(vec, ((col, f * c) for col, c in row.items()))
        return {c: v for c, v in vec.items() if not field.is_zero(v)}

    def add(self, vec):
        """Insert a vector; returns True if it enlarged the span.

        The row is scaled by the pivot's inverse, found once; pivots are
        distinct, so inserting in key order keeps the rows sorted.
        """
        res = self.reduce(vec)
        if not res:
            return False
        field = self.field
        pivot = min(res, key=self.key)
        inv = field.inv(res[pivot])
        row = {c: field.mul(v, inv) for c, v in res.items()}
        insort(self.rows, (pivot, row), key=lambda r: self.key(r[0]))
        return True

    def contains(self, vec):
        return not self.reduce(vec)

    def reduced(self):
        """{pivot: rest of its row with every other pivot eliminated}, the
        reduced echelon basis; a row lies at and above its pivot, so reducing
        its rest clears only the later pivots."""
        return {p: self.reduce((c, v) for c, v in row.items() if c != p) for p, row in self.rows}


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
                sb.add(p.terms)
            self._basis = sb
        return self._basis

    def rank(self):
        return self.basis().rank


# verdict is "equal", "a_in_b", "b_in_a" or "incomparable"
SpanComparison = collections.namedtuple("SpanComparison", "verdict rank_a rank_b rank_union")


def row_space_compare(a: RelationSet, b: RelationSet) -> SpanComparison:
    """Compare the Scalar row spaces spanned by two degree-2 relation sets.

    One side's basis is kept: b's when only b has built one, else a's,
    built here if need be.  When the other side's relations span the same
    space as that basis, which _spans proves by membership and a modular
    rank (module docstring), the verdict is "equal" and every rank is the
    kept one, with no second basis built.  Otherwise the verdict comes from
    three ranks: a lies in b exactly when adding a to b leaves b's rank
    unchanged, so rank(a + b) = rank(b), and symmetrically.  The union
    starts from a's rows and so keeps a's key; b's rows are only vectors of
    its span, whatever key b's basis has.
    """
    if a.family != b.family:
        raise MixedFamilies(
            "cannot compare relation sets over different families: %s vs %s"
            % (list(map(str, a.family)), list(map(str, b.family)))
        )
    kept, other = (b, a) if a._basis is None and b._basis is not None else (a, b)
    basis = kept.basis()
    if _spans(basis, other.polys):
        r = basis.rank
        return SpanComparison("equal", r, r, r)
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


def _spans(basis, polys):
    """True when polys span the row space of basis: the images of the first
    of them mod PRIME reach basis's rank, and each of them lies in the span.
    False when either fails or an image is undefined (mod_image)."""
    rank = basis.rank
    cols = {}  # column -> its place in the order met, the image basis's key
    images = SpanBasis(ModP, cols.__getitem__)
    for p in polys:
        vec = {}
        for w, c in p.terms.items():
            v = mod_image(c)
            if v is None:
                return False
            vec[w] = v
            cols.setdefault(w, len(cols))
        if images.add(vec) and images.rank == rank:
            break
    else:
        return False
    return all(basis.contains(p.terms) for p in polys)
