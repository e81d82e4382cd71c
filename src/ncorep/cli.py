"""Command-line front end: algebra definition files in, verification reports out.

An input file is a flat sectioned text format.  [algebra] declares the
dimension, the parameter names and optional spectral labels; [B] and
[Bprime] list sparse 4-index exchange tensor entries; [theta] carries
either a character table (rho lines) or raw 4-index entries; [space]
describes an odd coordinate space by relation coefficients; [commands]
may name a default suite.  Entry lines look like

    1 2 2 1 = "q"

with every expression string quoted and read over the declared
parameters.  A # starts a comment.  Reports go to stdout as text and,
with --json PATH, to a file in a canonical form whose bytes depend only
on the input and flags.  Exit status: 0 when every check passed, 1 when
at least one failed, 2 for unusable input.
"""

import argparse
import collections
import functools
import math
import os
import re
import sys
from importlib import resources

from .bialg import (
    Presentation,
    braid_form,
    character_pair_form,
    cocycle_check,
    tilde_images,
    twist_R,
    twisted_product_relations,
)
from .corep import (
    QuadraticSpace,
    build_M,
    check_grouplike,
    coideal_check,
    factorized_theta,
    generate_ideal,
    grouplike_defect,
    homomorphism_check,
    validate_theta,
)
from .errors import (
    CommutationUnverified,
    InputFormat,
    InvalidTheta,
    NCorepError,
    NotGroupCoefficient,
    NotInvertible,
    SectionFailed,
    excerpt,
)
from .freealg import NCPoly, RelationSet, T, e, matrix_family, row_space_compare, xi
from .integrable import SpectralFamily
from .qplane import (
    _pair_reduction_factor,
    determinant,
    relation_report,
    verify_D_commutations,
    verify_antipode,
    verify_gamma_action_table,
)
from .report import Report, passfail
from .rewrite import (
    TermOrder,
    confluence_check,
    count_irreducible,
    matrix_order,
    normal_form,
    orient,
)
from .scalars import Context
from .tensors import Tensor, swap_lower, ybe_residual

_SECTIONS = ("algebra", "B", "Bprime", "theta", "space", "commands")
_NAME = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")
_ORDER_TOKEN = re.compile(r"^T\[([0-9]+),([0-9]+)\]$")
_NATURAL = re.compile(r"[0-9]+")  # str.isdigit also takes digits like ², which int() rejects


class AlgebraFile:
    """Parsed and structurally validated algebra definition."""

    def __init__(self, path):
        self.path = str(path)
        self.dim = None
        self.params = None
        self.labels = ()
        self.ctx = None
        self.B = None
        self.Bprime = None
        self.rho = None
        self.theta_entries = None
        self.parity = "grassmann"
        self.space_relations = []
        self.has_space = False
        self.default = ()


def _strip_comment(raw, lineno):
    out = []
    quoted = False
    for ch in raw:
        if ch == '"':
            quoted = not quoted
        if ch == "#" and not quoted:
            break
        out.append(ch)
    if quoted:
        raise InputFormat("unterminated expression string", lineno)
    return "".join(out).strip()


def _quoted(value, lineno):
    if len(value) >= 2 and value[0] == '"' and value[-1] == '"' and '"' not in value[1:-1]:
        return value[1:-1]
    raise InputFormat("expected a quoted expression string", lineno)


def _number(text, lineno=None):
    """int(text); InputFormat when text has more digits than int() converts."""
    try:
        return int(text)
    except ValueError:
        raise InputFormat("number of %d digits is too long to read" % len(text), lineno) from None


def _indices(toks, count, dim, lineno):
    if len(toks) != count:
        raise InputFormat("expected %d indices before `=`" % count, lineno)
    out = []
    for t in toks:
        if not _NATURAL.fullmatch(t):
            raise InputFormat("index %s is not a positive integer" % excerpt(t), lineno)
        v = _number(t, lineno)
        if not 1 <= v <= dim:
            raise InputFormat("index %d outside dimension %d" % (v, dim), lineno)
        out.append(v)
    return tuple(out)


def _expr(ctx, value, lineno):
    s = _quoted(value, lineno)
    try:
        return ctx.parse(s)
    except NCorepError as err:
        raise InputFormat("bad expression %s: %s" % (excerpt(s), err), lineno)


def _names(value, lineno, what):
    toks = value.split()
    if not toks:
        raise InputFormat("empty %s list" % what, lineno)
    for t in toks:
        if not _NAME.match(t):
            raise InputFormat("bad %s name %s" % (what, excerpt(t)), lineno)
    if len(set(toks)) != len(toks):
        raise InputFormat("duplicate %s name" % what, lineno)
    return toks


def parse_algebra_file(path):
    """Read one definition file; the first problem raises InputFormat with its line.

    A leading UTF-8 byte-order mark is read as no text.
    """
    try:
        if hasattr(path, "read_text"):
            text = path.read_text(encoding="utf-8-sig")
        else:
            with open(path, encoding="utf-8-sig") as fh:
                text = fh.read()
    except OSError as err:
        raise InputFormat("cannot read %s: %s" % (path, err.strerror or err))
    except UnicodeDecodeError:
        raise InputFormat("%s is not UTF-8 text" % (path,))
    af = AlgebraFile(path)
    rows = []
    section = None
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = _strip_comment(raw, lineno)
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise InputFormat("malformed section header", lineno)
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise InputFormat("unknown section [%s]" % section, lineno)
            if section in seen:
                raise InputFormat("section [%s] appears twice" % section, lineno)
            seen.add(section)
            continue
        if section is None:
            raise InputFormat("content before the first section header", lineno)
        left, eq, right = line.partition("=")
        if not eq:
            raise InputFormat("expected `key = value`", lineno)
        rows.append((lineno, section, left.split(), right.strip()))

    for lineno, section, keys, value in rows:
        if section != "algebra":
            continue
        if len(keys) != 1:
            raise InputFormat("expected a single field name in [algebra]", lineno)
        key = keys[0]
        if key == "dim":
            dim = _number(value, lineno) if _NATURAL.fullmatch(value) else 0
            if dim < 1:
                raise InputFormat("dim must be a positive integer", lineno)
            if af.dim is not None:
                raise InputFormat("dim given twice", lineno)
            af.dim = dim
        elif key == "params":
            if af.params is not None:
                raise InputFormat("params given twice", lineno)
            af.params = _names(value, lineno, "parameter")
        elif key == "labels":
            labels = _names(value, lineno, "label")
            if len(labels) < 2:
                raise InputFormat("a spectral family needs at least two labels", lineno)
            af.labels = tuple(labels)
        else:
            raise InputFormat("unknown [algebra] field %s" % excerpt(key), lineno)
    if af.dim is None:
        raise InputFormat("[algebra] must declare dim")
    if af.params is None:
        raise InputFormat("[algebra] must declare params")
    af.ctx = Context(af.params)

    tens = {"B": {}, "Bprime": {}}
    rho = {}
    thent = {}
    space_rows = {}
    for lineno, section, keys, value in rows:
        if section in ("B", "Bprime"):
            idx = _indices(keys, 4, af.dim, lineno)
            if idx in tens[section]:
                raise InputFormat("duplicate [%s] entry %s" % (section, (idx,)), lineno)
            tens[section][idx] = _expr(af.ctx, value, lineno)
        elif section == "theta":
            kind = keys[0] if keys else ""
            if kind == "rho":
                if thent:
                    raise InputFormat(
                        "[theta] mixes a character table with raw entries", lineno
                    )
                idx = _indices(keys[1:], 2, af.dim, lineno)
                if idx in rho:
                    raise InputFormat("duplicate rho entry", lineno)
                rho[idx] = _expr(af.ctx, value, lineno)
            elif kind == "entry":
                if rho:
                    raise InputFormat(
                        "[theta] mixes a character table with raw entries", lineno
                    )
                idx = _indices(keys[1:], 4, af.dim, lineno)
                if idx in thent:
                    raise InputFormat("duplicate theta entry", lineno)
                thent[idx] = _expr(af.ctx, value, lineno)
            else:
                raise InputFormat("[theta] lines start with `rho` or `entry`", lineno)
        elif section == "space":
            af.has_space = True
            if keys == ["parity"]:
                if value not in ("grassmann", "bosonic"):
                    raise InputFormat("parity is grassmann or bosonic", lineno)
                af.parity = value
            elif keys and keys[0] == "rel":
                # first token numbers the relation, the next two index coordinates
                if len(keys) != 4:
                    raise InputFormat("expected `rel k i j = \"expr\"`", lineno)
                if not _NATURAL.fullmatch(keys[1]):
                    raise InputFormat(
                        "relation number %s is not an integer" % excerpt(keys[1]), lineno
                    )
                k = _number(keys[1], lineno)
                ij = _indices(keys[2:], 2, af.dim, lineno)
                slot = space_rows.setdefault(k, {})
                if ij in slot:
                    raise InputFormat("duplicate coefficient in relation %d" % k, lineno)
                slot[ij] = _expr(af.ctx, value, lineno)
            else:
                raise InputFormat("[space] lines are `parity = ...` or `rel k i j = ...`", lineno)
        elif section == "commands":
            if keys != ["default"]:
                raise InputFormat("the only [commands] field is `default`", lineno)
            names = value.split()
            for n in names:
                if n not in COMMANDS:
                    raise InputFormat("unknown command %s in default suite" % excerpt(n), lineno)
            af.default = tuple(names)

    if not tens["B"]:
        raise InputFormat("missing or empty [B] section")
    if not rho and not thent:
        raise InputFormat("[theta] must give a character table or entries")
    af.B = Tensor(af.ctx, af.dim, 2, 2, tens["B"])
    if tens["Bprime"]:
        af.Bprime = Tensor(af.ctx, af.dim, 2, 2, tens["Bprime"])
    if rho:
        af.rho = Tensor(af.ctx, af.dim, 1, 1, rho)
    else:
        af.theta_entries = Tensor(af.ctx, af.dim, 2, 2, thent)
    mk = xi if af.parity == "grassmann" else e
    for k in sorted(space_rows):
        coeffs = sorted(space_rows[k].items())
        af.space_relations.append(NCPoly(af.ctx, {(mk(i), mk(j)): c for (i, j), c in coeffs}))
    return af


class Workspace:
    """One run: a configuration, the term order and degree bound it is
    checked under, and everything derived from it.

    The configuration is the exchange tensor B, the twisting tensor theta,
    the character table rho it factors through (None for raw entries) and
    the odd coordinate space.  Each binding's value is read once, a string
    through Context.scalar, so a bad expression raises before any
    substitution.  The bindings are applied once to each parsed table (B,
    B', rho or the raw theta entries, the space relations), and theta is
    built once from the substituted table.  Each derivation (the twist's
    validation and generator images, the matrix M and its group-like
    defect, the even space, the relation ideal, the oriented system and its
    overlap analysis, the determinant, the character pair form and its
    cocycle check) is computed on first use and kept; one that raised
    raises the same error at every later use.
    """

    def __init__(self, af, bindings=(), order=None, max_degree=3):
        self.ctx = af.ctx
        self.dim = af.dim
        self.labels = af.labels
        default = matrix_order(af.dim)
        self.gens = default.precedence
        self.order = order or default
        self.max_degree = max_degree
        self._derived = {}
        bindings = [(name, self.ctx.scalar(value)) for name, value in bindings]
        self.B = af.B.substitute(bindings)
        self.Bprime = None if af.Bprime is None else af.Bprime.substitute(bindings)
        self.rho = None if af.rho is None else af.rho.substitute(bindings)
        if self.rho is not None:
            try:
                self.theta = factorized_theta(self.rho)
            except NotInvertible:
                raise InputFormat("[theta] character table is not invertible")
        else:
            self.theta = af.theta_entries.substitute(bindings)
        self.space = None
        if af.has_space:
            rels = [r.substitute(bindings) for r in af.space_relations]
            self.space = QuadraticSpace(af.ctx, af.dim, parity=af.parity, relations=rels)

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

    def validation(self):
        """validate_theta of the twist: {"valid": bool, "violations": [...]}."""
        return self._once("validation", lambda: validate_theta(self.theta))

    def images(self):
        """The twist's generator images T_i^j |-> theta_im^jn T_n^m."""
        return self._once("images", lambda: tilde_images(self.theta))

    @property
    def M(self):
        """The coefficient matrix, built whether or not theta is valid."""
        return self._once("M", lambda: build_M(self.theta))

    def defect(self):
        """grouplike_defect of M: (G, E), both empty when M is group-like."""
        return self._once("defect", lambda: grouplike_defect(self.M))

    @property
    def bosonic(self):
        """The even coordinate space that B braids."""
        return self._once("bosonic", lambda: QuadraticSpace(self.ctx, self.dim, braid=self.B))

    def relations(self) -> RelationSet:
        """The ideal spanned by B M - M B; InvalidTheta for an invalid theta.

        Its basis is kept under the term order's rule key, so orient reads
        the rules off it and the span is eliminated once per run.
        """

        def make():
            bad = self.validation()["violations"]
            if bad:
                raise InvalidTheta("twisting tensor fails %d validity identities" % len(bad))
            return generate_ideal(self.B, self.M, self.order.rule_key)

        return self._once("relations", make)

    def rewrite_system(self):
        """The relation ideal oriented under the run's term order."""
        return self._once("rewrite", lambda: orient(self.relations(), self.order))

    def confluence(self, maxdeg):
        """confluence_check of the oriented system, up to maxdeg."""
        return self._once(
            ("confluence", maxdeg), lambda: confluence_check(self.rewrite_system(), maxdeg)
        )

    def determinant(self) -> NCPoly:
        """The top-form coefficient; NotGroupCoefficient when it does not close."""
        return self._once("determinant", lambda: determinant(self))

    def pair_form(self):
        """The form counit (x) rho of the character table."""
        return self._once(
            "pair_form", lambda: character_pair_form(Presentation(self.ctx, self.dim), self.rho)
        )

    def cocycle(self):
        """cocycle_check of the character pair form."""
        return self._once("cocycle", lambda: cocycle_check(self.pair_form()))


# A section's preconditions: (test on the Workspace, what the input must give).
DIM2 = (lambda ws: ws.dim == 2, "a 2-dimensional algebra file")
SPACE = (lambda ws: ws.space is not None, "a [space] section")
CHARACTERS = (lambda ws: ws.rho is not None, "a character table in [theta]")
LABELS = (lambda ws: len(ws.labels) >= 2, "spectral labels in [algebra]")
# the paper's cross relations are written in q, its determinant factors and
# antipode images in p and q
PARAM_Q = (lambda ws: "q" in ws.ctx.params, "a parameter q")
PARAMS_PQ = (lambda ws: {"p", "q"} <= set(ws.ctx.params), "parameters p and q")

Section = collections.namedtuple("Section", "name title needs gated body")
SECTIONS = []


def section(name, title, needs=(), gated=False):
    """Declare the decorated body(ws, rep) as the report section `name`.

    A command whose preconditions `needs` fail exits 2, and full-report
    skips it.  A gated section whose twisting tensor fails validation
    reports only that failure, under `title`, instead of running its body.
    """

    def declare(body):
        SECTIONS.append(Section(name, title, needs, gated, body))
        return body

    return declare


def _unmet(sec, ws):
    """What the input lacks for sec, or None when every precondition holds."""
    return next((what for test, what in sec.needs if not test(ws)), None)


def _twist_record(rep, res):
    rep.add(
        "twist-valid",
        "structural identities of the twisting tensor",
        passfail(res["valid"]),
        residuals=["%s at %s: %s" % v for v in res["violations"][:6]],
        artifacts={"violations": len(res["violations"])},
    )


def _cocycle_record(rep, out):
    rep.add(
        "cocycle-identity",
        "the induced pair form satisfies the twisting identity",
        passfail(out["holds"]),
        residuals=["%s: %s" % kv for kv in sorted(out["residuals"].items())][:8],
    )


def _group_coefficient_failure(rep, err):
    rep.add(
        "group-coefficient",
        "coaction of the top form closes on the top word",
        "fail",
        residuals=[str(err)],
    )
    return rep


def _word(w):
    return " ".join(str(g) for g in w)


def _rule_strings(rs):
    return ["%s -> %s" % (_word(lhs), rhs) for lhs, rhs in rs.rule_list()]


def _merge(rep, prefix, sub):
    for it in sub.items:
        d = dict(it)
        d["name"] = "%s.%s" % (prefix, it["name"])
        rep.items.append(d)


@section("validate-theta", "twist validity")
def _validate_theta(ws, rep):
    res = ws.validation()
    _twist_record(rep, res)
    grp = check_grouplike(ws.defect())
    rep.add(
        "matrix-grouplike",
        "coproduct splits the matrix entrywise and the counit gives the identity",
        passfail(grp),
    )
    rep.add(
        "validity-matches-grouplike",
        "the tensor identities and the matrix criterion agree",
        passfail(res["valid"] == grp),
    )
    return rep


@section("ybe", "exchange braiding")
def _ybe(ws, rep):
    r = ybe_residual(ws.B)
    rep.add(
        "braid-identity",
        "degree-3 exchange identity for [B]",
        passfail(not r),
        artifacts={"nonzero": len(r)},
    )
    if ws.Bprime is not None:
        r2 = ybe_residual(ws.Bprime)
        rep.add(
            "alternative-tensor",
            "whether [Bprime] satisfies the same identity (reported, not gated)",
            "info",
            artifacts={"braiding": not r2, "nonzero": len(r2)},
        )
    return rep


@section("relations", "product relations", gated=True)
def _relations(ws, rep):
    ideal = ws.relations()
    rep.add(
        "coideal",
        "the relation ideal regenerates under the coproduct",
        passfail(coideal_check(ws.B, ws.defect())),
    )
    rep.add(
        "comodule-algebra",
        "coacting on the coordinate relations stays inside the ideal",
        passfail(homomorphism_check(ws.bosonic, ws.M, ideal)),
    )
    rep.add(
        "rank",
        "independent quadratic relations",
        "info",
        artifacts={"rank": ideal.rank(), "entries": len(ideal)},
    )
    rep.add(
        "oriented-rules",
        "reduced rewriting presentation of the ideal",
        "info",
        artifacts={"rules": _rule_strings(ws.rewrite_system())},
    )
    return rep


@section("compare-ideals", "ideal comparison", needs=(DIM2, PARAM_Q), gated=True)
def _compare_ideals(ws, rep):
    return relation_report(ws)


@section("det", "determinant coefficient", needs=(DIM2, SPACE), gated=True)
def _det(ws, rep):
    try:
        det = ws.determinant()
    except NotGroupCoefficient as err:
        return _group_coefficient_failure(rep, err)
    rep.add(
        "group-coefficient",
        "coaction of the top form closes on the top word",
        "pass",
        artifacts={"determinant": det},
    )
    f = _pair_reduction_factor(ws.space, 2, 1)
    M, zero = ws.M.entries, NCPoly.zero(ws.ctx)
    ok = f is not None and det == M.get((1, 2, 1, 2), zero) + f * M.get((1, 2, 2, 1), zero)
    rep.add(
        "matrix-form",
        "coefficient equals the exchange-weighted matrix pair",
        passfail(ok),
    )
    rep.add(
        "reduced-form",
        "normal form of the coefficient in the oriented system",
        "info",
        artifacts={"reduced": normal_form(det, ws.rewrite_system())},
    )
    return rep


@section("normal-form", "rewriting soundness", gated=True)
def _normal_form(ws, rep):
    rs = ws.rewrite_system()
    rep.add(
        "oriented-rules",
        "reduced rewriting presentation of the ideal",
        "info",
        artifacts={"rules": _rule_strings(rs)},
    )
    bad = []
    for p in ws.relations():
        nf = normal_form(p, rs)
        if not nf.is_zero():
            bad.append(str(nf))
    rep.add(
        "generators-reduce",
        "every defining relation reduces to zero",
        passfail(not bad),
        residuals=bad[:6],
    )
    return rep


@section("confluence", "overlap resolution", gated=True)
def _confluence(ws, rep):
    rs = ws.rewrite_system()
    out = ws.confluence(ws.max_degree)
    rep.add(
        "confluent",
        "every overlap up to degree %d resolves" % ws.max_degree,
        passfail(out["confluent"]),
        residuals=["%s: %s" % (_word(w), p) for w, p in out["ambiguities"][:8]],
        artifacts={"rules": len(rs), "ambiguities": len(out["ambiguities"])},
    )
    return rep


@section("pbw-count", "monomial growth", gated=True)
def _pbw_count(ws, rep):
    rs = ws.rewrite_system()
    counts = [count_irreducible(rs, d) for d in range(ws.max_degree + 1)]
    n2 = ws.dim * ws.dim
    expected = [math.comb(n2 + d - 1, d) for d in range(ws.max_degree + 1)]
    rep.add(
        "flat-growth",
        "irreducible monomial counts match the commutative series",
        passfail(counts == expected),
        artifacts={"counts": counts, "expected": expected},
    )
    return rep


@section(
    "d-commutations", "determinant commutations", needs=(DIM2, SPACE, PARAMS_PQ), gated=True
)
def _d_commutations(ws, rep):
    try:
        return verify_D_commutations(ws)
    except NotGroupCoefficient as err:
        return _group_coefficient_failure(rep, err)


@section("antipode", "antipode identities", needs=(DIM2, SPACE, PARAMS_PQ), gated=True)
def _antipode(ws, rep):
    try:
        return verify_antipode(ws)
    except (CommutationUnverified, NotGroupCoefficient) as err:
        rep.add(
            "extended-system",
            "determinant adjunction must verify its commutation claims",
            "fail",
            residuals=[str(err)],
        )
        return rep


@section("gamma-table", "exchange action table", needs=(DIM2,), gated=True)
def _gamma_table(ws, rep):
    return verify_gamma_action_table(ws)


@section("cocycle", "cocycle identity", needs=(CHARACTERS,))
def _cocycle(ws, rep):
    _cocycle_record(rep, ws.cocycle())
    return rep


# A character table always gives a valid factorized theta, so this gate
# never fires; it stands for the relation ideal and the twisted product
# relations that the body reads, neither of which checks theta itself.
@section("twist-r", "twisted exchange", needs=(CHARACTERS,), gated=True)
def _twist_r(ws, rep):
    _cocycle_record(rep, ws.cocycle())
    phi = ws.pair_form()
    R = braid_form(phi.pres, ws.B)
    res = ybe_residual(swap_lower(twist_R(R, phi)))
    rep.add(
        "twisted-braiding",
        "the conjugated exchange tensor satisfies the degree-3 identity",
        passfail(not res),
        artifacts={"nonzero": len(res)},
    )
    rel = twisted_product_relations(R, ws.M)
    cmp = row_space_compare(rel, ws.relations())
    rep.add(
        "product-relations",
        "opposite-product relations span the commutation ideal",
        passfail(cmp.verdict == "equal"),
        artifacts={"verdict": cmp.verdict, "rank": cmp.rank_a},
    )
    return rep


@section("integrability", "spectral integrability", needs=(LABELS,), gated=True)
def _integrability(ws, rep):
    fam = SpectralFamily(ws.B, ws.theta, ws.rho)
    lam, mu = ws.labels[0], ws.labels[1]
    _merge(rep, "first", fam.first_report(lam, mu))
    _merge(rep, "second", fam.second_report(lam, mu))
    return rep


def _command(sec):
    """The callable of one section on a Workspace: preconditions, gate, body.

    An error that leaves the gate or the body is raised again as
    SectionFailed, with the section's name before its message.
    """

    def run(ws):
        unmet = _unmet(sec, ws)
        if unmet is not None:
            raise InputFormat("%s needs %s" % (sec.name, unmet))
        rep = Report(sec.title)
        try:
            if sec.gated and not ws.validation()["valid"]:
                _twist_record(rep, ws.validation())
                return rep
            return sec.body(ws, rep)
        except NCorepError as err:
            raise SectionFailed("%s: %s" % (sec.name, err)) from err

    return run


def _full_report(ws):
    rep = Report("full verification suite")
    for sec in SECTIONS:
        if _unmet(sec, ws) is None:
            _merge(rep, sec.name, COMMANDS[sec.name](ws))
    return rep


SECTION_ORDER = tuple(sec.name for sec in SECTIONS)
COMMANDS = {sec.name: _command(sec) for sec in SECTIONS}
COMMANDS["full-report"] = _full_report


def _run_suite(ws, names):
    if len(names) == 1:
        return COMMANDS[names[0]](ws)
    rep = Report("default suite")
    for name in names:
        _merge(rep, name, COMMANDS[name](ws))
    return rep


def _parse_substs(af, raw):
    """The --subst items as (name, expression text) pairs; the Workspace
    reads each text once."""
    out = []
    for item in raw:
        name, eq, expr = item.partition("=")
        name = name.strip()
        expr = expr.strip()
        if not eq or not name or not expr:
            raise InputFormat("--subst expects NAME=EXPR, got %s" % excerpt(item))
        if name not in af.params:
            raise InputFormat("--subst names unknown parameter %s" % excerpt(name))
        out.append((name, expr))
    return out


def _parse_order(text, af):
    gens = []
    for tok in text.split("<"):
        m = _ORDER_TOKEN.match(tok.strip())
        if not m:
            raise InputFormat("--order tokens look like T[i,j], got %s" % excerpt(tok.strip()))
        i, j = _number(m.group(1)), _number(m.group(2))
        if not (1 <= i <= af.dim and 1 <= j <= af.dim):
            raise InputFormat("--order index outside dimension %d" % af.dim)
        gens.append(T(i, j))
    needed = set(matrix_family(af.dim))
    if len(gens) != len(needed) or set(gens) != needed:
        raise InputFormat("--order must list every matrix generator exactly once")
    return TermOrder(tuple(gens))


def _resolve_input(name):
    if os.path.exists(name):
        return name
    trav = _shipped_inputs().get(name if name.endswith(".alg") else name + ".alg")
    if trav is None:
        raise InputFormat("no input file or shipped example named %s" % excerpt(name))
    return trav


@functools.cache
def _shipped_inputs():
    # package data does not change while the program runs, so it is listed once
    try:
        return {t.name: t for t in resources.files(__package__).joinpath("data").iterdir() if t.is_file()}
    except (ModuleNotFoundError, FileNotFoundError):
        return {}


@functools.cache
def build_parser():
    # parse_args leaves the parser unchanged, so one serves every main() call
    ap = argparse.ArgumentParser(
        prog="ncorep",
        description="verification suites for twisted matrix coactions",
    )
    ap.add_argument(
        "command",
        nargs="?",
        choices=sorted(COMMANDS),
        metavar="command",
        help="one of: %s; omit to run the file's default suite" % ", ".join(sorted(COMMANDS)),
    )
    ap.add_argument("--input", required=True, help="algebra file path or shipped example name")
    ap.add_argument("--json", help="also write the report as canonical JSON to this path")
    ap.add_argument(
        "--subst",
        action="append",
        default=[],
        metavar="NAME=EXPR",
        help="substitute a parameter before running; repeatable, applied in order",
    )
    ap.add_argument("--order", help="generator precedence, e.g. T[1,1]<T[1,2]<T[2,1]<T[2,2]")
    ap.add_argument("--max-degree", type=int, default=3, help="overlap and counting degree bound")
    return ap


def main(argv=None):
    try:
        ns = build_parser().parse_args(argv)
    except SystemExit as err:
        return err.code if isinstance(err.code, int) else 2
    try:
        if ns.max_degree < 0:
            raise InputFormat("--max-degree must be nonnegative")
        af = parse_algebra_file(_resolve_input(ns.input))
        order = _parse_order(ns.order, af) if ns.order else None
        ws = Workspace(af, _parse_substs(af, ns.subst), order, ns.max_degree)
        if ns.command is not None:
            rep = COMMANDS[ns.command](ws)
        elif af.default:
            rep = _run_suite(ws, af.default)
        else:
            raise InputFormat("no command given and %s declares no default suite" % af.path)
        # written first, so that a path it cannot write leaves stdout empty
        if ns.json:
            try:
                with open(ns.json, "w", encoding="utf-8") as fh:
                    fh.write(rep.to_json())
            except OSError as err:
                raise InputFormat("cannot write %s: %s" % (ns.json, err.strerror or err))
    except NCorepError as err:
        sys.stderr.write("ncorep: %s\n" % err)
        return 2
    sys.stdout.write(rep.to_text())
    return 0 if rep.verdict() == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
