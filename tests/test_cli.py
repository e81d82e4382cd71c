"""Front-end tests: file parsing, command dispatch, exit codes, determinism."""

import collections
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ncorep
from conftest import per_binding_configuration
from ncorep.bialg import Presentation
from ncorep.cli import (
    Workspace,
    _resolve_input,
    main,
    parse_algebra_file,
)
from ncorep.corep import MMatrix
from ncorep.errors import ExpressionSyntax, InputFormat, NCorepError
from ncorep.freealg import RelationSet
from ncorep.rewrite import RewriteSystem
from ncorep.scalars import Context

BASE = """\
[algebra]
dim = 2
params = q p

[B]
1 1 1 1 = "1"
1 2 2 1 = "q"
2 1 1 2 = "q"
2 1 2 1 = "1 - q^2"
2 2 2 2 = "1"

[theta]
rho 1 1 = "1"
rho 2 2 = "1/p"
"""


def write(tmp_path, text, name="case.alg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_golden_parses():
    af = parse_algebra_file(_resolve_input("qplane_qprs"))
    assert af.dim == 2
    assert af.params == ["q", "p", "r", "s"]
    assert af.rho is not None and af.theta_entries is None
    assert af.Bprime is not None
    assert af.has_space
    assert af.default[0] == "validate-theta"


def test_golden_names_resolve_with_suffix():
    assert parse_algebra_file(_resolve_input("spectral_demo.alg")).labels == ("lam", "mu")


def test_unknown_input_name():
    with pytest.raises(InputFormat):
        _resolve_input("nosuch_example")


def test_conflicting_theta(tmp_path):
    text = BASE + 'entry 1 1 1 1 = "1"\n'
    with pytest.raises(InputFormat) as exc:
        parse_algebra_file(write(tmp_path, text))
    assert "character table" in str(exc.value)
    assert exc.value.line == 15


def test_index_out_of_range(tmp_path):
    text = BASE.replace('1 2 2 1 = "q"', '1 3 2 1 = "q"')
    with pytest.raises(InputFormat) as exc:
        parse_algebra_file(write(tmp_path, text))
    assert "outside dimension" in str(exc.value)


def test_bad_expression_carries_line(tmp_path):
    text = BASE.replace('"1/p"', '"1/z"')
    with pytest.raises(InputFormat) as exc:
        parse_algebra_file(write(tmp_path, text))
    assert "z" in str(exc.value) and exc.value.line == 14


def test_unterminated_quote(tmp_path):
    with pytest.raises(InputFormat):
        parse_algebra_file(write(tmp_path, BASE.replace('"1/p"', '"1/p')))


def test_unknown_section(tmp_path):
    with pytest.raises(InputFormat):
        parse_algebra_file(write(tmp_path, BASE + "[mystery]\n"))


def test_duplicate_entry(tmp_path):
    text = BASE + "\n[Bprime]\n1 1 1 1 = \"1\"\n1 1 1 1 = \"2\"\n"
    with pytest.raises(InputFormat):
        parse_algebra_file(write(tmp_path, text))


def test_content_before_section(tmp_path):
    with pytest.raises(InputFormat):
        parse_algebra_file(write(tmp_path, "dim = 2\n" + BASE))


def test_byte_order_mark_is_read_as_no_text(tmp_path, capsys):
    # a file saved with a UTF-8 byte-order mark reports as the same file without
    text = Path(_resolve_input("qplane_qp")).read_text(encoding="utf-8")
    plain, bom = tmp_path / "plain.alg", tmp_path / "bom.alg"
    plain.write_text(text, encoding="utf-8")
    bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    runs = []
    for path in (plain, bom):
        report = tmp_path / (path.stem + ".json")
        code = main(["full-report", "--input", str(path), "--json", str(report)])
        runs.append((code, capsys.readouterr(), report.read_bytes()))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0 and runs[0][1].err == ""
    # the other branch of the reader, a path object with read_text
    assert parse_algebra_file(bom).params == parse_algebra_file(plain).params == ["q", "p"]


def test_missing_theta(tmp_path):
    text = BASE.split("[theta]")[0]
    with pytest.raises(InputFormat):
        parse_algebra_file(write(tmp_path, text))


def test_single_label_rejected(tmp_path):
    with pytest.raises(InputFormat):
        parse_algebra_file(write(tmp_path, BASE.replace("params = q p", "params = q p\nlabels = lam")))


def test_duplicate_label_rejected(tmp_path):
    with pytest.raises(InputFormat) as exc:
        parse_algebra_file(write(tmp_path, BASE.replace("params = q p", "params = q p\nlabels = lam lam")))
    assert "duplicate label" in str(exc.value) and exc.value.line == 4


# str.isdigit accepts digits such as ², which int() rejects; each parser
# site that reads a number takes ASCII digits only.  A run of ASCII digits
# longer than CPython converts between int and text (4,300 digits by
# default) is unusable input too, at the same sites.
LONG = "9" * 5000
SUPERSCRIPT_NUMBERS = {
    "index": BASE.replace('1 1 1 1 = "1"', '1 1 1 \u00b2 = "1"'),
    "dim": BASE.replace("dim = 2", "dim = \u00b2"),
    "relation-number": BASE + '\n[space]\nrel \u00b2 1 2 = "1"\n',
    "index-too-long": BASE.replace('1 1 1 1 = "1"', '1 1 1 %s = "1"' % LONG),
    "dim-too-long": BASE.replace("dim = 2", "dim = " + LONG),
    "relation-number-too-long": BASE + '\n[space]\nrel %s 1 2 = "1"\n' % LONG,
}


@pytest.mark.parametrize("site", sorted(SUPERSCRIPT_NUMBERS))
def test_superscript_digits_exit_two_with_their_line(site, tmp_path, capsys):
    text = SUPERSCRIPT_NUMBERS[site]
    line = next(n for n, row in enumerate(text.splitlines(), 1) if "\u00b2" in row or LONG in row)
    assert main(["ybe", "--input", write(tmp_path, text)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("ncorep: ") and err.endswith("(line %d)\n" % line)


QP = _resolve_input("qplane_qp").read_text(encoding="utf-8")
RHO22 = 'rho 2 2 = "1/p"'

# the other numbers past the digit limit: an expression literal, an --order
# index and a --subst value, and a coefficient that grows past it; that one
# is first printed in the relations section, also under full-report, or at
# its gate, among the violations of a raw twist
GATED_TWIST = (
    (Path(__file__).parent / "golden" / "corrupt_theta.alg").read_text(encoding="utf-8")
    .replace('entry 1 2 2 1 = "1"', 'entry 1 2 2 1 = "7^4500"')
    .replace('entry 2 1 1 2 = "q"', 'entry 2 1 1 2 = "7^4500"')
)
TOO_LONG = {
    "literal": (QP.replace(RHO22, 'rho 2 2 = "%s"' % LONG), ["ybe"]),
    "order": (QP, ["ybe", "--order", "T[1,1]<T[1,2]<T[2,1]<T[2,%s]" % LONG]),
    "subst": (QP, ["ybe", "--subst", "p=" + LONG]),
    "printed-relations": (QP.replace(RHO22, 'rho 2 2 = "7^3000"'), ["relations"]),
    "printed-full-report": (QP.replace(RHO22, 'rho 2 2 = "7^3000"'), ["full-report"]),
    "printed-at-the-gate": (GATED_TWIST, ["relations"]),
}


@pytest.mark.parametrize("case", sorted(TOO_LONG))
def test_numbers_past_the_digit_limit_exit_two(case, tmp_path, capsys):
    text, args = TOO_LONG[case]
    assert main(args + ["--input", write(tmp_path, text)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("ncorep: ") and err.count("\n") == 1
    if case.startswith("printed"):
        assert err == "ncorep: relations: a coefficient has too many digits to print\n"


DEEP = "(" * 1200 + "q" + ")" * 1200

# expressions nested past Python's recursion limit: in the file, a nesting
# error keeps the line it is on
NESTED = {
    "parentheses": ('rho 2 2 = "%s"' % DEEP, []),
    "minus-signs": ('rho 2 2 = "%sq"' % ("-" * 3000), []),
    "subst": (RHO22, ["--subst", "p=" + DEEP]),
}


@pytest.mark.parametrize("case", sorted(NESTED))
def test_deeply_nested_expressions_exit_two(case, tmp_path, capsys):
    line, args = NESTED[case]
    text = QP.replace(RHO22, line)
    assert main(["ybe", "--input", write(tmp_path, text)] + args) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("ncorep: ") and err.count("\n") == 1
    assert "expression nested too deeply" in err
    if args:
        assert err == "ncorep: expression nested too deeply\n"
    else:
        n = text.splitlines().index(line) + 1
        assert err.endswith("(line %d)\n" % n)


# the exponent limit (scalars module docstring): a monomial of total degree
# 2^62 exits 2 with one line, where it is read and where a section forms it
LIMIT = 2 ** 62
EXPONENT_LIMIT = {
    "theta": (QP.replace(RHO22, 'rho 2 2 = "p^%d"' % LIMIT), ["ybe"]),
    "subst": (QP, ["ybe", "--subst", "q=p^%d" % LIMIT]),
    "section": (QP.replace(RHO22, 'rho 2 2 = "p^%d"' % (LIMIT // 2)), ["relations"]),
}


@pytest.mark.parametrize("case", sorted(EXPONENT_LIMIT))
def test_exponents_past_the_limit_exit_two(case, tmp_path, capsys):
    text, args = EXPONENT_LIMIT[case]
    path = write(tmp_path, text)
    assert main(args + ["--input", path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    expected = {
        "theta": "ncorep: bad expression 'p^%d': exponent too large (line 26)\n" % LIMIT,
        "subst": "ncorep: exponent too large\n",
        "section": "ncorep: relations: exponent too large\n",
    }
    assert err == expected[case]


def test_large_exponents_below_the_limit_keep_their_reports(tmp_path, capsys):
    # both sections read the twist; sha256 of the text and the JSON, as
    # before monomials were packed
    path = write(tmp_path, QP.replace(RHO22, 'rho 2 2 = "p^3000000000"'))
    digests = {
        "validate-theta": (
            "4e81c0253602eeaf5ea923335dd3da0266b93544ae4030131a5fd30a25097401",
            "6d1cff971e59d9f6fed841503b30980552c836cf4d8f259833cd603e7c1e65e0",
        ),
        "relations": (
            "8e7134450579260b3fc22210436267cf83f873bc577db998a732b66d0b553d40",
            "843c9a63c7bbee6c2e638b2403ac339f4e27371511fb0f9102c8d6c0d4086112",
        ),
    }
    report = tmp_path / "report.json"
    for command, (text_sha, json_sha) in digests.items():
        assert main([command, "--input", path, "--json", str(report)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == text_sha
        assert hashlib.sha256(report.read_bytes()).hexdigest() == json_sha


# every exit-2 line that quotes user text quotes at most 40 characters of
# it, marked as cut, with its length
HUGE = "x" * 5000
QUOTED = {
    "index": (BASE.replace('1 1 1 1 = "1"', '1 1 1 %s = "1"' % HUGE), [], 5000),
    "expression-digits": (QP.replace(RHO22, 'rho 2 2 = "%s"' % LONG), [], 5000),
    "expression-nested": (QP.replace(RHO22, 'rho 2 2 = "%s"' % DEEP), [], len(DEEP)),
    # the parser's own message quotes the name or the token, cut as well
    "expression-parameter": (QP.replace(RHO22, 'rho 2 2 = "%s"' % HUGE), [], 5000),
    "expression-trailing": (QP.replace(RHO22, 'rho 2 2 = "p %s"' % HUGE), [], 5000),
    "parameter-name": (BASE.replace("params = q p", "params = q 9" + HUGE), [], 5001),
    "field": (BASE.replace("dim = 2", "dim = 2\n%s = 1" % HUGE), [], 5000),
    "relation-number": (BASE + '\n[space]\nrel %s 1 2 = "1"\n' % HUGE, [], 5000),
    "command": (BASE + "\n[commands]\ndefault = %s\n" % HUGE, [], 5000),
    "subst-form": (QP, ["--subst", HUGE], 5000),
    "subst-name": (QP, ["--subst", HUGE + "=1"], 5000),
    "order": (QP, ["--order", HUGE], 5000),
    "input": (None, [], 5000),
}


@pytest.mark.parametrize("case", sorted(QUOTED))
def test_quoted_input_is_cut_in_error_lines(case, tmp_path, capsys):
    text, args, length = QUOTED[case]
    path = HUGE if text is None else write(tmp_path, text)
    command = [] if case == "command" else ["ybe"]
    assert main(command + ["--input", path] + args) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("ncorep: ") and err.count("\n") == 1
    # an expression's own error quotes the cut name or token a second time
    cuts = 2 if case in ("expression-parameter", "expression-trailing") else 1
    assert err.count("'... (cut, ") == cuts
    assert len(err) < 100 + 100 * cuts
    assert "'... (cut, %d characters)" % length in err


def test_comments_and_quoted_hash(tmp_path):
    text = BASE.replace('rho 1 1 = "1"', 'rho 1 1 = "1"  # unity')
    af = parse_algebra_file(write(tmp_path, text))
    assert af.rho.get(1, 1) == af.ctx.one


def test_workspace_substitution_order(tmp_path):
    af = parse_algebra_file(_resolve_input("qplane_qprs"))
    ws = Workspace(af, [("r", "0"), ("s", "0")])
    assert ws.rho.get(2, 2) == af.ctx.parse("1/p")
    from ncorep.errors import DenominatorVanishes

    with pytest.raises(DenominatorVanishes):
        Workspace(af, [("s", "0"), ("r", "0")])


def test_workspace_parses_each_binding_once(monkeypatch):
    af = parse_algebra_file(_resolve_input("qplane_qprs"))
    calls = []
    parse = Context.parse
    monkeypatch.setattr(Context, "parse", lambda ctx, text: calls.append(text) or parse(ctx, text))
    Workspace(af, [("r", "0"), ("s", "0")])
    assert calls == ["0", "0"]


def test_workspace_reads_every_binding_before_substituting(tmp_path):
    # p = 0 makes the denominator of B_11^11 = 1/p vanish, but the bad string
    # of the later binding is read, and raises, before any substitution
    af = parse_algebra_file(write(tmp_path, BASE.replace('1 1 1 1 = "1"', '1 1 1 1 = "1/p"')))
    with pytest.raises(ExpressionSyntax):
        Workspace(af, [("p", "0"), ("q", "(q")])


SUBSTITUTED = tuple(
    parse_algebra_file(_resolve_input(name))
    for name in ("qplane_qprs", "qplane_qp", "qplane_frt", "spectral_demo")
)


def binding_pool(params):
    """Values a binding draws: constants, a parameter and a quotient."""
    return ("0", "1", "-1", params[-1], "%s/%s" % (params[0], params[-1]), "1/(%s - 1)" % params[0])


@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_workspace_matches_the_per_binding_construction(data):
    af = data.draw(st.sampled_from(SUBSTITUTED))
    pair = st.tuples(st.sampled_from(af.params), st.sampled_from(binding_pool(af.params)))
    bindings = data.draw(st.lists(pair, max_size=3))
    try:
        want = per_binding_configuration(af, bindings)
    except NCorepError:
        want = None
    try:
        # the command line hands Workspace parsed values, the reference strings
        ws = Workspace(af, [(name, af.ctx.parse(v)) for name, v in bindings])
    except NCorepError:
        assert want is None
        return
    assert want is not None
    rels = ws.space.relations.polys if ws.space is not None else []
    got = (ws.B, ws.Bprime, ws.theta, ws.rho, *rels)
    want = (*want[:4], *want[4])
    assert got == want
    assert [str(x) for x in got] == [str(x) for x in want]


@pytest.mark.parametrize("rho22", ["1", "p"])
def test_singular_substituted_table_reports_the_table(rho22, tmp_path, capsys):
    # the substituted character table is inverted once, so a binding that
    # makes it singular gets the message of a table that is singular as read
    table = 'rho 1 1 = "p"\nrho 2 2 = "%s"' % rho22
    path = write(tmp_path, BASE.replace('rho 1 1 = "1"\nrho 2 2 = "1/p"', table))
    assert main(["ybe", "--input", path, "--subst", "p=0"]) == 2
    assert capsys.readouterr() == ("", "ncorep: [theta] character table is not invertible\n")


def test_error_in_a_section_body_names_the_section(tmp_path, capsys):
    # this B is singular, so twisting it fails inside the twist-r body; the
    # precondition message of test_flag_errors_exit_two keeps its form
    text = BASE.replace('1 2 2 1 = "q"\n2 1 1 2 = "q"\n2 1 2 1 = "1 - q^2"\n', "")
    path = write(tmp_path, text)
    for command in ("twist-r", "full-report"):
        assert main([command, "--input", path]) == 2
        assert capsys.readouterr() == (
            "", "ncorep: twist-r: matrix is singular over the scalar field\n"
        )


def test_ybe_exit_zero():
    assert main(["ybe", "--input", "qplane_qprs"]) == 0


def test_corrupted_theta_exits_one(tmp_path):
    text = BASE.replace('rho 1 1 = "1"\nrho 2 2 = "1/p"', 'entry 1 1 1 1 = "1"\nentry 1 2 2 1 = "1"\nentry 2 1 1 2 = "q"\nentry 2 2 2 2 = "1"')
    path = write(tmp_path, text)
    assert main(["validate-theta", "--input", path]) == 1
    assert main(["relations", "--input", path]) == 1


def test_order_takes_ascii_digits_only(capsys):
    # an Arabic-Indic one is a digit to \d and to int(), but not an index
    order = "T[\u0661,\u0661]<T[1,2]<T[2,1]<T[2,2]"
    assert main(["det", "--input", "qplane_qp", "--order", order]) == 2
    assert capsys.readouterr().err == (
        "ncorep: --order tokens look like T[i,j], got 'T[\u0661,\u0661]'\n"
    )


def test_reversed_substitution_exits_two():
    code = main(["det", "--input", "qplane_qprs", "--subst", "s=0", "--subst", "r=0"])
    assert code == 2


def test_order_error_precedes_substitution_error(capsys):
    # --order is read before the Workspace is built, so when both flags fail
    # the order's message is the one printed
    bad_order = ["--order", "T[1,1]<T[1,2]"]
    for subst in (["--subst", "s=0", "--subst", "r=0"], ["--subst", "z=1"]):
        assert main(["det", "--input", "qplane_qprs"] + subst + bad_order) == 2
        assert capsys.readouterr().err == (
            "ncorep: --order must list every matrix generator exactly once\n"
        )


DIM3 = """\
[algebra]
dim = 3
params = q

[B]
1 1 1 1 = "1"
2 2 2 2 = "1"
3 3 3 3 = "1"

[theta]
rho 1 1 = "1"
rho 2 2 = "1"
rho 3 3 = "1"
"""


def test_flag_errors_exit_two(tmp_path, capsys):
    assert main(["ybe", "--input", "qplane_qp", "--subst", "z=1"]) == 2
    assert main(["confluence", "--input", "qplane_qp", "--order", "T[1,1]<T[1,2]"]) == 2
    assert main(["ybe", "--input", "nosuch"]) == 2
    assert main(["compare-ideals", "--input", "qplane_qp", "--max-degree", "-1"]) == 2
    capsys.readouterr()
    dim3 = write(tmp_path, DIM3, "dim3.alg")
    # qplane_frt has no [space] and a raw theta; qplane_qp has no labels
    unmet = [
        ("compare-ideals", dim3, "a 2-dimensional algebra file"),
        ("gamma-table", dim3, "a 2-dimensional algebra file"),
        ("det", "qplane_frt", "a [space] section"),
        ("d-commutations", "qplane_frt", "a [space] section"),
        ("antipode", "qplane_frt", "a [space] section"),
        ("cocycle", "qplane_frt", "a character table in [theta]"),
        ("twist-r", "qplane_frt", "a character table in [theta]"),
        ("integrability", "qplane_qp", "spectral labels in [algebra]"),
    ]
    for command, name, what in unmet:
        assert main([command, "--input", name]) == 2
        assert capsys.readouterr().err == "ncorep: %s needs %s\n" % (command, what)


def test_full_report_derives_each_once(monkeypatch):
    # every ncorep module that binds a name gets the counting wrapper, so the
    # count does not depend on which module makes the call
    import sys

    counts = {}
    last = {}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            last[name] = fn(*args, **kwargs)
            return last[name]

        return wrapper

    names = (
        "generate_ideal", "orient", "cocycle_check", "determinant", "validate_theta",
        "confluence_check", "grouplike_defect", "relation_entries", "character_pair_form",
    )
    for name in names:
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("ncorep.")]
        original = next(getattr(m, name) for m in modules if hasattr(m, name))
        wrapper = counting(name, original)
        for m in modules:
            if getattr(m, name, None) is original:
                monkeypatch.setattr(m, name, wrapper)

    # a derivation built once hands back the same object at every call, and
    # one presentation serves the whole report; every result is held, so no
    # id is reused during the report.  M's defect is read by validate-theta
    # and by relations.
    results = collections.defaultdict(list)

    def same_object(method, key):
        def wrapper(self, *args):
            out = method(self, *args)
            results[key(self, *args)].append(out)
            return out

        return wrapper

    monkeypatch.setattr(
        Presentation, "coproduct_word",
        same_object(Presentation.coproduct_word, lambda pres, word: ("coproduct", word)),
    )
    monkeypatch.setattr(
        RelationSet, "basis", same_object(RelationSet.basis, lambda rels: ("basis", rels)),
    )
    monkeypatch.setattr(MMatrix, "defect", same_object(MMatrix.defect, lambda M: ("defect", M)))

    # each word meets a rule lookup once per system; a system's rules are
    # fixed when it is built
    lookups = collections.defaultdict(collections.Counter)
    redex = RewriteSystem._redex

    def counting_redex(rs, word):
        lookups[id(rs)][word] += 1
        return redex(rs, word)

    monkeypatch.setattr(RewriteSystem, "_redex", counting_redex)

    # invert4 and invert2 reach _invert once for each inversion they
    # compute; the cocycle check and the twist both invert the pair form's
    # table
    inverted = []
    invert = ncorep.tensors._invert

    def counting_invert(a, k):
        inverted.append(a)
        return invert(a, k)

    monkeypatch.setattr(ncorep.tensors, "_invert", counting_invert)

    for name, code in (("qplane_qp", 0), ("qplane_qprs", 1)):
        counts.update(dict.fromkeys(names, 0))
        results.clear()
        lookups.clear()
        inverted.clear()
        assert main(["full-report", "--input", name]) == code
        assert counts == dict.fromkeys(names, 1), name
        built = {key: len({id(out) for out in outs}) for key, outs in results.items()}
        # both inputs give a group-like M, whose coproduct is never expanded
        # (test_corep pins the expansions of a matrix that is not group-like)
        assert not [key for key in built if key[0] == "coproduct"]
        assert {key: n for key, n in built.items() if n != 1} == {}
        assert len(results[("basis", last["generate_ideal"])]) > 1
        assert [len(outs) for key, outs in results.items() if key[0] == "defect"] == [2]
        assert lookups
        assert {w: n for seen in lookups.values() for w, n in seen.items() if n > 1} == {}
        assert sum(a is last["character_pair_form"].base for a in inverted) == 1
        assert len(inverted) == len({id(a) for a in inverted})


def test_order_flag_reaches_every_section(monkeypatch):
    import sys

    import ncorep.rewrite

    reverse = "T[2,2]<T[2,1]<T[1,2]<T[1,1]"
    orders = []
    original = ncorep.rewrite.orient

    def counting(relations, order):
        orders.append(" < ".join(map(str, order.precedence)))
        return original(relations, order)

    for name, module in sorted(sys.modules.items()):
        if name.startswith("ncorep.") and getattr(module, "orient", None) is original:
            monkeypatch.setattr(module, "orient", counting)
    assert main(["full-report", "--input", "qplane_qp", "--order", reverse]) == 0
    assert orders == ["T[2,2] < T[2,1] < T[1,2] < T[1,1]"]


# GL_t(2): one parameter t, a unit character table and a Grassmann plane
GL_T2 = """\
[algebra]
dim = 2
params = t

[B]
1 1 1 1 = "1"
1 2 2 1 = "t"
2 1 1 2 = "t"
2 1 2 1 = "1 - t^2"
2 2 2 2 = "1"

[theta]
rho 1 1 = "1"
rho 2 2 = "1"

[space]
parity = grassmann
rel 1 1 2 = "1"
rel 1 2 1 = "1/t"
"""


def test_sections_written_in_p_and_q_are_preconditions(tmp_path, capsys):
    path = write(tmp_path, GL_T2, "glt2.alg")
    out = tmp_path / "rep.json"
    assert main(["full-report", "--input", path, "--json", str(out)]) in (0, 1)
    sections = {c["name"].split(".")[0] for c in json.loads(out.read_text())["checks"]}
    assert {"relations", "det", "confluence", "cocycle", "twist-r"} <= sections
    assert not sections & {"compare-ideals", "d-commutations", "antipode"}
    capsys.readouterr()
    unmet = [
        ("compare-ideals", "a parameter q"),
        ("d-commutations", "parameters p and q"),
        ("antipode", "parameters p and q"),
    ]
    for command, what in unmet:
        assert main([command, "--input", path]) == 2
        assert capsys.readouterr().err == "ncorep: %s needs %s\n" % (command, what)


# unusable input or output: each run exits 2 with one `ncorep: ` line on
# stderr and nothing on stdout, also when the report was already computed.
# The last two raise DenominatorVanishes and ExpressionSyntax, whose
# constructors no run that exits 0 or 1 reaches.
EXIT_TWO = {
    "input-is-a-directory": lambda tmp: ["full-report", "--input", str(tmp)],
    "input-is-not-text": lambda tmp: ["full-report", "--input", str(tmp / "bytes.alg")],
    "json-path-unwritable": lambda tmp: [
        "ybe", "--input", "qplane_qp", "--json", str(tmp / "absent" / "x.json"),
    ],
    "vanishing-denominator": lambda tmp: [
        "det", "--input", "qplane_qprs", "--subst", "s=0", "--subst", "r=0",
    ],
    "bad-substitution": lambda tmp: ["ybe", "--input", "qplane_qp", "--subst", "q=q +"],
}


@pytest.mark.parametrize("case", sorted(EXIT_TWO))
def test_unusable_input_or_output_exits_two(case, tmp_path, capsys):
    (tmp_path / "bytes.alg").write_bytes(b"[algebra]\ndim = \x80\xff\n")
    assert main(EXIT_TWO[case](tmp_path)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("ncorep: ") and err.endswith("\n") and err.count("\n") == 1


def test_argparse_errors_exit_two(capsys):
    assert main(["frobnicate", "--input", "qplane_qp"]) == 2
    assert main(["ybe"]) == 2
    capsys.readouterr()


def test_full_report_two_parameter_golden(tmp_path):
    out = tmp_path / "rep.json"
    assert main(["full-report", "--input", "qplane_qp", "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "pass"
    names = [c["name"] for c in doc["checks"]]
    assert "d-commutations.commutation-b" in names
    assert "antipode.inverse-left-12" in names
    assert "twist-r.product-relations" in names


def test_full_report_raw_four_parameter_fails():
    assert main(["full-report", "--input", "qplane_qprs"]) == 1


def test_full_report_limit_reproduces_relation_list(tmp_path):
    out = tmp_path / "rep.json"
    code = main([
        "full-report", "--input", "qplane_qprs",
        "--subst", "r=0", "--subst", "s=0", "--json", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    rules = next(
        c["artifacts"]["rules"] for c in doc["checks"]
        if c["name"] == "relations.oriented-rules"
    )
    assert rules == [
        "T[1,2] T[1,1] -> ((p)/(q)) T[1,1] T[1,2]",
        "T[2,1] T[1,1] -> ((1)/(p*q)) T[1,1] T[2,1]",
        "T[2,1] T[1,2] -> ((1)/(p^2)) T[1,2] T[2,1]",
        "T[2,2] T[1,1] -> (1) T[1,1] T[2,2] + ((-q^2 + 1)/(p*q)) T[1,2] T[2,1]",
        "T[2,2] T[1,2] -> ((1)/(p*q)) T[1,2] T[2,2]",
        "T[2,2] T[2,1] -> ((p)/(q)) T[2,1] T[2,2]",
    ]


def test_det_limit_artifact(tmp_path):
    out = tmp_path / "det.json"
    code = main([
        "det", "--input", "qplane_qprs",
        "--subst", "r=0", "--subst", "s=0", "--json", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    top = doc["checks"][0]
    assert top["name"] == "group-coefficient"
    assert top["artifacts"]["determinant"] == "(1) T[1,1] T[2,2] + ((-q)/(p)) T[1,2] T[2,1]"


def test_repeated_runs_byte_identical(tmp_path):
    for name in ("qplane_qprs", "qplane_qp", "qplane_frt", "spectral_demo"):
        a = tmp_path / ("a_%s.json" % name)
        b = tmp_path / ("b_%s.json" % name)
        ca = main(["full-report", "--input", name, "--json", str(a)])
        cb = main(["full-report", "--input", name, "--json", str(b)])
        assert ca == cb
        assert a.read_bytes() == b.read_bytes()


def test_default_suites_pass():
    for name in ("qplane_qprs", "qplane_qp", "qplane_frt", "spectral_demo"):
        assert main(["--input", name]) == 0


def test_no_default_suite_exits_two(tmp_path):
    assert main(["--input", write(tmp_path, BASE)]) == 2


def test_limit_specific_suites():
    assert main(["d-commutations", "--input", "qplane_qp"]) == 0
    assert main(["antipode", "--input", "qplane_qp"]) == 0
    assert main(["d-commutations", "--input", "qplane_qprs"]) == 1
    assert main(["antipode", "--input", "qplane_qprs"]) == 1


def test_order_flag_changes_presentation(tmp_path):
    out = tmp_path / "rev.json"
    code = main([
        "normal-form", "--input", "qplane_qp",
        "--order", "T[2,2]<T[2,1]<T[1,2]<T[1,1]", "--json", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    rules = doc["checks"][0]["artifacts"]["rules"]
    assert "T[1,1] T[1,2] -> ((q)/(p)) T[1,2] T[1,1]" in rules
    assert rules[0] == "T[2,1] T[2,2] -> ((q)/(p)) T[2,2] T[2,1]"


def test_max_degree_flag():
    assert main(["pbw-count", "--input", "qplane_qp", "--max-degree", "4"]) == 0
    assert main(["confluence", "--input", "qplane_qprs", "--max-degree", "3"]) == 1


def test_spectral_demo_reports(tmp_path):
    out = tmp_path / "family.json"
    assert main(["integrability", "--input", "spectral_demo", "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    names = [c["name"] for c in doc["checks"]]
    assert "first.contracted-relation" in names
    assert "second.route-collapse" in names


def test_sympy_is_imported_only_to_factor_a_denominator(tmp_path):
    # the seeded GL(3) input divides only by monomials and the shipped
    # inputs only by denominators that scalars._factor splits itself (a
    # qplane_qp parse meets q^2 + 1), so neither loads sympy; a denominator
    # outside those shapes is factored by sympy and loads it
    script = """
import sys
import ncorep.cli as cli
states = ["sympy" in sys.modules]
code = cli.main(["--input", sys.argv[1], "full-report", "--json", sys.argv[2]])
states.append("sympy" in sys.modules)
ws = cli.Workspace(cli.parse_algebra_file(cli._resolve_input("qplane_qp")))
states.append("sympy" in sys.modules)
ws.ctx.parse("1/(q^3 + p^2 + 1)")
states.append("sympy" in sys.modules)
sys.stderr.write(repr((code, states)))
"""
    src = Path(ncorep.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    gl3 = Path(__file__).parent / "golden" / "gl3_seed1.alg"
    run = subprocess.run(
        [sys.executable, "-c", script, str(gl3), str(tmp_path / "r.json")],
        env=env, capture_output=True, text=True, check=True,
    )
    assert run.stdout
    assert run.stderr == repr((0, [False, False, False, True]))


def test_import_loads_neither_dataclasses_nor_inspect():
    # each costs a fresh process several milliseconds to import, and the
    # package needs neither
    script = """
import sys
before = set(sys.modules)
import ncorep.cli
print(sorted({"dataclasses", "inspect"} & (set(sys.modules) - before)))
"""
    src = Path(ncorep.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True,
    )
    assert run.stdout == "[]\n"
