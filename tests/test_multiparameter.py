"""Whole reports over the multiparameter quantum GL(n), dims 2 and 3.

The family of Artin, Schelter and Tate (1991) and Sudbery (1990) braids for
every q and every t_ij (conftest.multiparameter_text), and a diagonal
character table gives a valid twist, so the braid, coideal, comodule-algebra,
confluence, flat-growth, cocycle and twist records pass on every draw.  The
inputs reach the coaction, the group-like defect and the twisted product
relations on tables that no golden input has.  Each t_ij is left free or
bound by a binding, as --subst binds it.

One record is a known exception: compare-ideals writes the paper's
one-parameter cross relations in q alone, so in dim 2 it fails for a free
t12 and passes at t12 = 1.
"""

import collections
import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import multiparameter_text
from ncorep.cli import COMMANDS, Workspace, parse_algebra_file

bounded = settings(max_examples=12, deadline=None, database=None)

# the benchmark's pool for the dim-3 character table
MONOMIALS = (
    "q", "-q", "p", "-p", "1/q", "-1/q", "1/p", "-1/p",
    "q*p", "-q*p", "q/p", "-q/p", "p/q", "-p/q", "q^2", "-p^2",
)

REQUIRED = (
    "validate-theta.twist-valid",
    "validate-theta.matrix-grouplike",
    "ybe.braid-identity",
    "relations.coideal",
    "relations.comodule-algebra",
    "confluence.confluent",
    "pbw-count.flat-growth",
    "cocycle.cocycle-identity",
    "twist-r.cocycle-identity",
    "twist-r.twisted-braiding",
    "twist-r.product-relations",
)
CROSS_FORM = "compare-ideals.derived-vs-cross-form"


def full_report(path, n, rho, bindings=()):
    """{record name: status} of full-report on the family's input."""
    t = {ij: "t%d%d" % ij for ij in itertools.combinations(range(1, n + 1), 2)}
    path.write_text(multiparameter_text(n, rho, t), encoding="utf-8")
    rep = COMMANDS["full-report"](Workspace(parse_algebra_file(str(path)), bindings))
    return {it["name"]: it["status"] for it in rep.items}


@st.composite
def draws(draw):
    """(n, rho, bindings): each t_ij free or bound to a pool monomial."""
    n = draw(st.sampled_from((2, 3)))
    rho = [draw(st.sampled_from(MONOMIALS)) for _ in range(n)]
    bindings = [
        ("t%d%d" % ij, draw(st.sampled_from(MONOMIALS)))
        for ij in itertools.combinations(range(1, n + 1), 2)
        if draw(st.booleans())
    ]
    return n, rho, bindings


@bounded
@given(draws())
def test_every_multiparameter_input_passes_the_paper_checks(tmp_path_factory, case):
    n, rho, bindings = case
    status = full_report(tmp_path_factory.mktemp("mp") / "mp.alg", n, rho, bindings)
    assert {name: status.get(name) for name in REQUIRED} == dict.fromkeys(REQUIRED, "pass")
    assert {name for name, s in status.items() if s == "fail"} <= {CROSS_FORM}
    assert (CROSS_FORM in status) == (n == 2)


def test_dim2_cross_form_holds_only_at_t12_one(tmp_path):
    rho = ["q", "1/q"]
    free = full_report(tmp_path / "mp.alg", 2, rho)
    assert [name for name, s in free.items() if s == "fail"] == [CROSS_FORM]
    bound = full_report(tmp_path / "mp.alg", 2, rho, [("t12", "1")])
    assert bound[CROSS_FORM] == "pass"
    assert "fail" not in bound.values()


def test_dim3_report_passes_with_three_info_records(tmp_path):
    status = full_report(tmp_path / "mp.alg", 3, ["q", "1/q", "q^2"])
    assert collections.Counter(status.values()) == {"pass": 13, "info": 3}
