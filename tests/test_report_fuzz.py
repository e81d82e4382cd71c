"""Whole reports on inputs that nobody wrote: relabelled and mutated files.

Relabelling: swapping the basis indices 1 and 2 in [B], [Bprime],
[theta] and [space] permutes the exchange tensor, the twist and every
residual, so the braid checks must keep their status and their count of
nonzero residual entries.  That is checked on the four shipped inputs and
on random dim-2 character tables.  The two seed-1 GL(3) inputs are
relabelled by each of the six permutations of 1, 2, 3, and the dim-2
shipped inputs and goldens by the swap, and run with --order set to the
image of the row-major order; every full-report record keeps its status,
rank, rule count, ambiguity count, pbw counts, violation count and residual
count.  On the triangular GL(3) table that fails without the matching order
and fails when only [B] is relabelled.  On dim 2 the records whose
constants are written in the paper's labelling are pinned as exceptions.

Mutation: seeded value-level mutants of the dim-2 shipped inputs (a
coefficient replaced, an entry deleted, an entry inserted) run through
cli.main.  Each run must exit 0, 1 or 2; exit 2 writes exactly one
`ncorep: ` line to stderr and nothing to stdout; exits 0 and 1 agree with
the JSON verdict; and a second run gives the same bytes.  Mutants of [B]
reach the rows of the braid residual that its modular image leaves open.
Dim-3 mutants can run for minutes, so none is drawn.
"""

import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ncorep.cli import _resolve_input, main

GOLDEN = Path(__file__).parent / "golden"
GL3 = ("gl3_seed1.alg", "gl3_seed1_rho13.alg")
SHIPPED = ("qplane_qprs", "qplane_qp", "qplane_frt", "spectral_demo")
ENTRY_SECTIONS = ("[B]", "[Bprime]", "[theta]")
BRAID_RECORDS = {
    "ybe": ("braid-identity", "alternative-tensor"),
    "twist-r": ("twisted-braiding",),
}
SWAP = {"1": "2", "2": "1"}
VALUES = (
    "0", "1", "-1", "2", "q", "1/q", "q^-2", "1 - q^2", "1/(q^2 + 1)", "p",
    "(q - 1)/(p - 1)", "-p/q", "q/0", "z", "(q",
)


def shipped_text(name):
    return _resolve_input(name).read_text(encoding="utf-8")


def entry_lines(lines, sections=ENTRY_SECTIONS):
    """(line number, section) of every entry line of the sections, by
    default [B], [Bprime] and [theta]."""
    out, section = [], None
    for n, line in enumerate(lines):
        s = line.strip()
        if s.startswith("["):
            section = s
        elif section in sections and "=" in s and not s.startswith("#"):
            out.append((n, section))
    return out


def relabel(text, perm=SWAP):
    """text with the indices renamed by perm in [B], [Bprime], [theta] and
    the relations of [space]; `rel k i j` keeps its relation number k."""
    lines = text.splitlines()
    for n, _ in entry_lines(lines, ENTRY_SECTIONS + ("[space]",)):
        left, _, right = lines[n].partition("=")
        tokens = left.split()
        keep = 2 if tokens[0] == "rel" else 0
        lines[n] = " ".join(tokens[:keep] + [perm.get(t, t) for t in tokens[keep:]]) + " =" + right
    return "\n".join(lines) + "\n"


def run(path, command, json_path, capsys, flags=()):
    """(exit code, stdout, stderr, JSON bytes or None) of one cli.main call."""
    if json_path.exists():
        json_path.unlink()
    argv = ["--input", str(path), "--json", str(json_path), *flags]
    code = main(argv + [command] if command else argv)
    out, err = capsys.readouterr()
    return code, out, err, json_path.read_bytes() if json_path.exists() else None


def braid_records(path, tmp_path, capsys):
    """{command: (exit code, {record: (status, nonzero)})} for ybe and twist-r."""
    out = {}
    for command, names in BRAID_RECORDS.items():
        code, _, _, raw = run(path, command, tmp_path / "report.json", capsys)
        checks = json.loads(raw)["checks"] if raw is not None else []
        out[command] = code, {
            c["name"]: (c["status"], c["artifacts"].get("nonzero"))
            for c in checks
            if c["name"] in names
        }
    return out


def assert_relabelling_keeps_braid_records(text, tmp_path, capsys):
    original, swapped = tmp_path / "original.alg", tmp_path / "swapped.alg"
    original.write_text(text, encoding="utf-8")
    swapped.write_text(relabel(text), encoding="utf-8")
    want = braid_records(original, tmp_path, capsys)
    assert braid_records(swapped, tmp_path, capsys) == want
    return want


@pytest.mark.parametrize("name", SHIPPED)
def test_relabelling_keeps_the_braid_records_of_shipped_inputs(name, tmp_path, capsys):
    want = assert_relabelling_keeps_braid_records(shipped_text(name), tmp_path, capsys)
    assert want["ybe"][1]["braid-identity"] == ("pass", 0)


CHARACTER_TEMPLATE = """\
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
%s
"""
RHO_VALUES = ("0", "1", "-1", "q", "1/p", "-p/q", "1 - q", "1/3", "(q - 1)/(p - 1)")


# capsys and tmp_path are drained and overwritten by each example
@settings(
    max_examples=12, deadline=None, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(rho=st.lists(st.sampled_from(RHO_VALUES), min_size=4, max_size=4))
def test_relabelling_keeps_the_braid_records_of_character_tables(rho, tmp_path, capsys):
    cells = [(1, 1), (1, 2), (2, 1), (2, 2)]
    lines = ['rho %d %d = "%s"' % (i, j, v) for (i, j), v in zip(cells, rho)]
    assert_relabelling_keeps_braid_records(CHARACTER_TEMPLATE % "\n".join(lines), tmp_path, capsys)


def record_shapes(raw):
    """{record: (status, rank, rule count, ambiguity count, pbw counts,
    violation count, residual count)} of a JSON report; the quantities a
    relabelling with a matching order keeps."""
    out = {}
    checks = json.loads(raw)["checks"]
    for c in checks:
        art = c["artifacts"]
        rules = art.get("rules")
        out[c["name"]] = (
            c["status"],
            art.get("rank"),
            len(rules) if isinstance(rules, list) else rules,
            art.get("ambiguities"),
            art.get("counts"),
            art.get("violations"),
            len(c.get("residuals", [])),
        )
    assert len(out) == len(checks)
    return out


@pytest.mark.parametrize("sigma", itertools.permutations((1, 2, 3)), ids=lambda s: "".join(map(str, s)))
@pytest.mark.parametrize("name", GL3)
def test_relabelling_with_its_order_keeps_the_gl3_full_report(name, sigma, tmp_path, capsys):
    # renaming index i to sigma(i) and ordering the generators by the image of
    # the row-major order is an isomorphism of the whole computation, so every
    # record keeps its status and its counts
    path = GOLDEN / name
    text = path.read_text(encoding="utf-8")
    code, _, _, raw = run(path, "full-report", tmp_path / "original.json", capsys)
    relabelled = tmp_path / "relabelled.alg"
    relabelled.write_text(relabel(text, {str(i): str(s) for i, s in zip((1, 2, 3), sigma)}), encoding="utf-8")
    order = "<".join("T[%d,%d]" % (sigma[i - 1], sigma[j - 1]) for i in (1, 2, 3) for j in (1, 2, 3))
    got = run(relabelled, "full-report", tmp_path / "relabelled.json", capsys, ("--order", order))
    assert got[0] == code
    assert record_shapes(got[3]) == record_shapes(raw)


# The records that the dim-2 relabelling changes, as (status before, status
# after), None for a record that only one report has.  Their checks hardcode
# constants of the paper written for the labelling 1 < 2: the cross
# relations in q, the determinant factors 1/p^2 and p^2, and the antipode
# images.
CROSS_FORM = {"compare-ideals.derived-vs-cross-form": ("pass", "fail")}
ANTIPODE = {
    "antipode.%s" % r: ("pass", None)
    for r in ["counit-compatibility"] + [
        "inverse-%s-%s" % (side, e) for side in ("left", "right") for e in ("11", "12", "21", "22")
    ]
}
RELABEL_CHANGES = {
    "corrupt_theta.alg": {},
    "qplane_qp": {
        **CROSS_FORM,
        **ANTIPODE,
        "antipode.extended-system": (None, "fail"),
        "d-commutations.commutation-b": ("pass", "fail"),
        "d-commutations.commutation-c": ("pass", "fail"),
    },
}


@pytest.mark.parametrize("name", SHIPPED + ("corrupt_theta.alg", "spectral_demo_entries.alg"))
def test_relabelling_with_its_order_keeps_the_dim2_full_report(name, tmp_path, capsys):
    # swapping 1 and 2 everywhere and ordering the generators by the image of
    # the row-major order keeps every record that is not written in the
    # paper's labelling, with its status and its counts; the invalid twist
    # of corrupt_theta keeps its violation count
    path = GOLDEN / name if name.endswith(".alg") else _resolve_input(name)
    text = path.read_text(encoding="utf-8")
    original, swapped = tmp_path / "original.alg", tmp_path / "swapped.alg"
    original.write_text(text, encoding="utf-8")
    swapped.write_text(relabel(text), encoding="utf-8")
    want = record_shapes(run(original, "full-report", tmp_path / "original.json", capsys)[3])
    order = ("--order", "T[2,2]<T[2,1]<T[1,2]<T[1,1]")
    got = record_shapes(run(swapped, "full-report", tmp_path / "swapped.json", capsys, order)[3])
    changed = {
        k: (want[k][0] if k in want else None, got[k][0] if k in got else None)
        for k in want.keys() | got.keys()
        if want.get(k) != got.get(k)
    }
    assert changed == RELABEL_CHANGES.get(name, CROSS_FORM)


def mutate(text, rnd):
    """One value-level mutant of text: an entry's value replaced, an entry
    deleted, or an entry inserted into [B], [Bprime] or [theta]."""
    lines = text.splitlines()
    n, section = rnd.choice(entry_lines(lines))
    value = '"%s"' % rnd.choice(VALUES)
    kind = rnd.choice(("replace", "delete", "insert"))
    if kind == "replace":
        lines[n] = lines[n].partition("=")[0] + "= " + value
    elif kind == "delete":
        del lines[n]
    else:
        head = lines[n].split()[0]
        if section == "[theta]" and head == "rho":
            key = "rho %d %d" % (rnd.randint(1, 2), rnd.randint(1, 2))
        else:
            key = " ".join(str(rnd.randint(1, 2)) for _ in range(4))
            if section == "[theta]":
                key = "entry " + key
        lines.insert(n + 1, "%s = %s" % (key, value))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("seed", range(40))
def test_mutants_of_shipped_inputs_exit_lawfully(seed, tmp_path, capsys):
    rnd = random.Random(seed)
    path = tmp_path / "mutant.alg"
    path.write_text(mutate(shipped_text(SHIPPED[seed % len(SHIPPED)]), rnd), encoding="utf-8")
    command = rnd.choice(("ybe", "twist-r", None))
    first = run(path, command, tmp_path / "report.json", capsys)
    code, out, err, raw = first
    assert code in (0, 1, 2)
    if code == 2:
        assert out == "" and err.startswith("ncorep: ") and err.count("\n") == 1
        assert err.endswith("\n")
    else:
        assert code == (0 if json.loads(raw)["verdict"] == "pass" else 1)
    assert run(path, command, tmp_path / "report.json", capsys) == first
