"""Configurations for the tests, read from the shipped algebra files, the
literal relation tables they are compared against, and small builders that
only the tests need."""

import re
import tempfile
from pathlib import Path

from ncorep.cli import Workspace, _resolve_input, parse_algebra_file
from ncorep.corep import ThetaMap, require_valid
from ncorep.errors import MissingImage, ShapeMismatch
from ncorep.freealg import NCPoly, RelationSet, T
from ncorep.integrable import weighted_trace
from ncorep.tensors import Tensor, delta


def load(name, *bindings):
    """The QPlaneContext of a shipped input, with (name, expr) bindings applied in order."""
    return Workspace(parse_algebra_file(_resolve_input(name)), bindings).qp


def load_over(name, params, *bindings):
    """load(name) with its [algebra] params line replaced by params.

    A run reads one field, and scalars of two fields never mix; reading a
    two-parameter input over the four parameters q p r s lets the tests
    compare it with the limit of the four-parameter one.
    """
    src = _resolve_input(name)  # a path, or a shipped example's Traversable
    if isinstance(src, str):
        src = Path(src)
    text = re.sub(r"(?m)^params\s*=.*$", "params = " + params, src.read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / ("%s.alg" % name)
        path.write_text(text, encoding="utf-8")
        af = parse_algebra_file(path)
    return Workspace(af, bindings).qp


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


def tensor_from_entries(ctx, dim, nlower, nupper, items):
    """items: iterable of (index_tuple, scalar-like)."""
    out = {}
    for idx, val in items:
        idx = tuple(idx)
        if idx in out:
            raise ShapeMismatch("duplicate tensor entry at %r" % (idx,))
        out[idx] = ctx.scalar(val)
    return Tensor(ctx, dim, nlower, nupper, out)


def identity4(ctx, dim):
    rng = range(1, dim + 1)
    return Tensor(ctx, dim, 2, 2, {(i, j, i, j): ctx.one for i in rng for j in rng})


def flip_theta(ctx, n) -> ThetaMap:
    """The untwisted coaction's twist: theta_ij^kl = delta_i^l delta_j^k."""
    rng = range(1, n + 1)
    return ThetaMap(Tensor(ctx, n, 2, 2, {(i, j, j, i): ctx.one for i in rng for j in rng}))


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


def check_trace_ansatz(theta) -> bool:
    """Whether the twisting tensor contracts to the identity on its first slot."""
    th = require_valid(theta)
    return weighted_trace(th) == delta(th.tensor.ctx, th.dim)


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
