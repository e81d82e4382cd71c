"""Job lists, the seeded dim-3 input generator and the correctness oracle.

A job is one invocation of ``ncorep.cli.main(argv)``.  Each workload is a
list of jobs that one pass runs in order:

* ``qprs_full``: full-report on the shipped four-parameter input.
* ``gl3_full``: full-report on one dim-3 input written from the seed.
* ``shipped_commands``: every applicable section command and the default
  suite, each as its own invocation, on the shipped two-parameter inputs.

Shipped-input jobs carry the exit code and report digest captured by
``capture.py``; generated jobs carry the records that must pass.
"""

import hashlib
import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"

WORKLOADS = ("qprs_full", "gl3_full", "shipped_commands")
DEFAULT_SEED = 1

# Entries of the diagonal character table of a generated dim-3 input.  All
# are invertible, so the factorized twist is always valid.  The draw barely
# moves the cost of a report, so seeds vary the input without varying the
# workload's size.
MONOMIAL_POOL = (
    "q", "-q", "p", "-p", "1/q", "-1/q", "1/p", "-1/p",
    "q*p", "-q*p", "q/p", "-q/p", "p/q", "-p/q", "q^2", "-p^2",
)

GL3_REQUIRED = (
    "validate-theta.twist-valid",
    "validate-theta.matrix-grouplike",
    "validate-theta.validity-matches-grouplike",
    "ybe.braid-identity",
    "relations.coideal",
    "relations.comodule-algebra",
    "normal-form.generators-reduce",
    "cocycle.cocycle-identity",
)


def gl3_text(seed):
    """Quantum GL(3) exchange tensor with a seeded diagonal character table."""
    rnd = random.Random(seed)
    rho = [rnd.choice(MONOMIAL_POOL) for _ in range(3)]
    lines = ["# generated from seed %d" % seed, "[algebra]", "dim = 3", "params = q p", "", "[B]"]
    for i in range(1, 4):
        lines.append('%d %d %d %d = "1"' % (i, i, i, i))
    for i in range(1, 4):
        for j in range(i + 1, 4):
            lines.append('%d %d %d %d = "q"' % (i, j, j, i))
            lines.append('%d %d %d %d = "q"' % (j, i, i, j))
            lines.append('%d %d %d %d = "1 - q^2"' % (j, i, j, i))
    lines += ["", "[theta]"]
    for i, value in enumerate(rho, 1):
        lines.append('rho %d %d = "%s"' % (i, i, value))
    return "\n".join(lines) + "\n"


def jobs_for(workload, seed, tmp):
    """The job list of one pass; generated inputs are written under tmp."""
    if workload == "gl3_full":
        path = Path(tmp) / ("gl3_seed%d.alg" % seed)
        path.write_text(gl3_text(seed), encoding="utf-8")
        return [{
            "id": "gl3_seed%d:full-report" % seed,
            "argv": ["--input", str(path), "full-report"],
            "required": list(GL3_REQUIRED),
        }]
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)["workloads"][workload]


def report_digest(text, json_bytes):
    return hashlib.sha256(text.encode("utf-8") + b"\0" + json_bytes).hexdigest()


def check_job(job, code, text, json_bytes):
    """None when the job's output is correct, else the reason it is not."""
    if code == 2:
        return "exit 2"
    if "exit" in job and code != job["exit"]:
        return "exit %r, expected %r" % (code, job["exit"])
    if "sha256" in job and report_digest(text, json_bytes) != job["sha256"]:
        return "report bytes differ from the captured digest"
    if "required" in job:
        if code not in (0, 1):
            return "exit %r, expected 0 or 1" % (code,)
        try:
            status = {c["name"]: c["status"] for c in json.loads(json_bytes)["checks"]}
        except (ValueError, KeyError, TypeError) as err:
            return "unreadable JSON report: %s" % err
        bad = [n for n in job["required"] if status.get(n) != "pass"]
        if bad:
            return "required records not pass: %s" % ", ".join(bad)
    return None
