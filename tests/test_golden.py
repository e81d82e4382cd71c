"""Report bytes pinned against committed golden fixtures.

Each case runs one command line and compares its exit code, its text report
and its JSON report byte for byte with the files in tests/golden/.  The
cases cover full-report on every shipped input, on the ordered r=0, s=0
limit and on two dim-3 inputs (the benchmark's seed-1 quantum GL(3) input,
and the same with the off-diagonal character rho_13 = 1, which fails
confluence), integrability and full-report on spectral_demo with its twist
given as raw entries (no recorded factorization, so the second route reports
its weight table), and every theta-gated section (plus full-report) on a
dim-2 input whose raw twisting tensor fails validation.  The two goldens that the
benchmark also runs must agree with its oracle, bench/expected.json, and
every job of that oracle is run here and must give its pinned exit code
and report digest.  The cases are also run in one fresh interpreter, which
must match the same bytes and never load sympy.

The fixtures change only together with an intended report change.  To
regenerate them, run this file as a script from the repository root:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ncorep.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
BENCH_EXPECTED = Path(__file__).resolve().parents[1] / "bench" / "expected.json"
CORRUPT = "corrupt_theta.alg"
GL3 = "gl3_seed1.alg"  # bench/workloads.gl3_text(1)
GL3_RHO13 = "gl3_seed1_rho13.alg"  # the same with rho 1 3 = "1"
SPECTRAL_ENTRIES = "spectral_demo_entries.alg"  # spectral_demo's twist as entries
EXITS = "exit_codes.json"

GATED = (
    "relations",
    "compare-ideals",
    "det",
    "normal-form",
    "confluence",
    "pbw-count",
    "d-commutations",
    "antipode",
    "gamma-table",
    "integrability",
)

CASES = {
    "qplane_qprs": ["--input", "qplane_qprs", "full-report"],
    "qplane_qp": ["--input", "qplane_qp", "full-report"],
    "qplane_frt": ["--input", "qplane_frt", "full-report"],
    "spectral_demo": ["--input", "spectral_demo", "full-report"],
    "qplane_qprs_limit": [
        "--input", "qplane_qprs", "full-report", "--subst", "r=0", "--subst", "s=0",
    ],
    "gl3_seed1": ["--input", str(GOLDEN / GL3), "full-report"],
    "gl3_seed1_rho13": ["--input", str(GOLDEN / GL3_RHO13), "full-report"],
    "spectral_demo_entries": ["--input", str(GOLDEN / SPECTRAL_ENTRIES), "integrability"],
    "spectral_demo_entries_full": ["--input", str(GOLDEN / SPECTRAL_ENTRIES), "full-report"],
}
for _name in GATED + ("full-report",):
    CASES["corrupt_" + _name.replace("-", "_")] = ["--input", str(GOLDEN / CORRUPT), _name]


def run_case(name, json_path, capsys=None):
    """(exit code, text report, JSON report) of one case."""
    code = main(CASES[name] + ["--json", str(json_path)])
    text = capsys.readouterr().out if capsys is not None else None
    return code, text, Path(json_path).read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_match_golden(name, tmp_path, capsys):
    code, text, blob = run_case(name, tmp_path / "report.json", capsys)
    exits = json.loads((GOLDEN / EXITS).read_text(encoding="utf-8"))
    assert code == exits[name]
    assert text.encode("utf-8") == (GOLDEN / (name + ".txt")).read_bytes()
    assert blob == (GOLDEN / (name + ".json")).read_bytes()


def _oracle_jobs():
    doc = json.loads(BENCH_EXPECTED.read_text(encoding="utf-8"))
    return [job for wl in doc["workloads"].values() for job in wl]


# golden case -> the benchmark job that runs the same command line
ORACLE_JOBS = {"qplane_qprs": "qplane_qprs:full-report", "qplane_qp": "qplane_qp:default"}


def test_goldens_match_benchmark_oracle():
    # the benchmark pins sha256(text, NUL, JSON) of each job's report; a
    # regenerated golden must keep agreeing with it
    jobs = {job["id"]: job for job in _oracle_jobs()}
    exits = json.loads((GOLDEN / EXITS).read_text(encoding="utf-8"))
    for name, job_id in ORACLE_JOBS.items():
        text = (GOLDEN / (name + ".txt")).read_bytes()
        blob = (GOLDEN / (name + ".json")).read_bytes()
        assert hashlib.sha256(text + b"\0" + blob).hexdigest() == jobs[job_id]["sha256"]
        assert exits[name] == jobs[job_id]["exit"]


@pytest.mark.parametrize("job", _oracle_jobs(), ids=lambda job: job["id"])
def test_benchmark_oracle_job(job, tmp_path, capsys):
    # the same digest as bench/workloads.py: sha256(text, NUL, JSON)
    json_path = tmp_path / "report.json"
    code = main(job["argv"] + ["--json", str(json_path)])
    text = capsys.readouterr().out.encode("utf-8")
    blob = json_path.read_bytes() if json_path.exists() else b""
    assert code == job["exit"]
    assert hashlib.sha256(text + b"\0" + blob).hexdigest() == job["sha256"]


# runs command lines in one fresh interpreter: [exit code, text report,
# whether sympy is loaded after it] per line, as JSON on stdout
FRESH = """
import contextlib, io, json, sys
from ncorep.cli import main
runs = []
for argv in json.loads(sys.argv[1]):
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        code = main(argv)
    runs.append([code, text.getvalue(), "sympy" in sys.modules])
print(json.dumps(runs))
"""


def test_no_shipped_report_imports_sympy(tmp_path):
    # scalars._factor splits the paper's denominators (q^2 + 1, r - 1,
    # (r - 1)^2) itself, so no golden case loads sympy: full-report on each
    # shipped input, on the r=0, s=0 limit and on each golden .alg, and each
    # gated section of the corrupt input.
    names = sorted(CASES)
    argvs = [CASES[n] + ["--json", str(tmp_path / (n + ".json"))] for n in names]
    src = Path(__file__).resolve().parents[1] / "src"
    run = subprocess.run(
        [sys.executable, "-c", FRESH, json.dumps(argvs)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, check=True,
    )
    runs = json.loads(run.stdout)
    assert [loaded for _, _, loaded in runs] == [False] * len(argvs)
    exits = json.loads((GOLDEN / EXITS).read_text(encoding="utf-8"))
    for name, (code, text, _) in zip(names, runs):
        assert code == exits[name], name
        assert text.encode("utf-8") == (GOLDEN / (name + ".txt")).read_bytes(), name
        assert (tmp_path / (name + ".json")).read_bytes() == (GOLDEN / (name + ".json")).read_bytes()


@pytest.mark.parametrize("seed", ["0", "12345"])
def test_report_bytes_do_not_follow_the_hash_seed(seed, tmp_path):
    # strings hash by PYTHONHASHSEED and generators by identity, so the
    # iteration order of a set of either may move; no report may read it
    json_path = tmp_path / "report.json"
    argv = CASES["qplane_qprs"] + ["--json", str(json_path)]
    src = Path(__file__).resolve().parents[1] / "src"
    run = subprocess.run(
        [sys.executable, "-c", FRESH, json.dumps([argv])],
        env=dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed),
        capture_output=True, text=True, check=True,
    )
    [[code, text, _]] = json.loads(run.stdout)
    assert code == json.loads((GOLDEN / EXITS).read_text(encoding="utf-8"))["qplane_qprs"]
    assert text.encode("utf-8") == (GOLDEN / "qplane_qprs.txt").read_bytes()
    assert json_path.read_bytes() == (GOLDEN / "qplane_qprs.json").read_bytes()


def regenerate():
    import contextlib
    import io

    exits = {}
    for name in sorted(CASES):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code, _, _ = run_case(name, GOLDEN / (name + ".json"))
        (GOLDEN / (name + ".txt")).write_bytes(out.getvalue().encode("utf-8"))
        exits[name] = code
    (GOLDEN / EXITS).write_text(json.dumps(exits, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(regenerate())
