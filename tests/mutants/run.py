"""Run the mutation checks kept in mutants.json.

    python3 tests/mutants/run.py [MUTANT_ID ...]

Each mutant names a module, one exact source line in it, the line that
replaces it and the tests that must fail once it is replaced; each test
runs on its own, in a process limited to 2 GB of address space.  The runner
copies src/, tests/ and pyproject.toml into a temporary directory, checks
that the named tests pass there unchanged, then applies one mutant at a
time and runs only its tests.  It writes nothing inside the repository.
It exits 1 when a mutant survives (its tests pass), when its line does not
occur exactly once in its module, when its tests time out, or when they
fail on the unmutated copy.  It is not part of tier-1; tests/test_mutant_catalogue.py checks the
catalogue's lines there.
"""

import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
CATALOGUE = Path(__file__).resolve().parent / "mutants.json"


def load(ids=()):
    with open(CATALOGUE, encoding="utf-8") as fh:
        mutants = json.load(fh)
    unknown = set(ids) - {m["id"] for m in mutants}
    if unknown:
        raise SystemExit("unknown mutant ids: %s" % ", ".join(sorted(unknown)))
    return [m for m in mutants if not ids or m["id"] in ids]


TIMEOUT = 600  # seconds per pytest run; a mutant that hangs its tests is not counted killed
MEMORY = 2 << 30  # bytes of address space per pytest run: a mutant can make ints blow up


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY, MEMORY))


def pytest(copy, tests):
    """The exit code of pytest over tests, run in the copy; None on timeout."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(
            cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT, preexec_fn=_limit_memory,
        )
    except subprocess.TimeoutExpired:
        return None
    return done.returncode


def main(argv):
    mutants = load(argv)
    start = time.monotonic()
    failed = []
    with tempfile.TemporaryDirectory(prefix="ncorep-mutants-") as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", copy / "pyproject.toml")
        named = sorted({t for m in mutants for t in m["tests"]})
        if pytest(copy, named):
            print("the named tests fail without any mutant")
            return 1
        for m in mutants:
            path = copy / m["module"]
            source = path.read_text(encoding="utf-8")
            lines = source.splitlines(keepends=True)
            hits = [i for i, line in enumerate(lines) if line.rstrip("\n") == m["line"]]
            if len(hits) != 1:
                verdict = "line found %d times" % len(hits)
            else:
                lines[hits[0]] = m["replacement"] + "\n"
                path.write_text("".join(lines), encoding="utf-8")
                try:  # each named test on its own: every one must fail
                    codes = [pytest(copy, [test]) for test in m["tests"]]
                finally:
                    path.write_text(source, encoding="utf-8")
                names = {0: "survived", 1: "killed", None: "timed out"}
                verdicts = [names.get(c, "pytest exit %s" % c) for c in codes]
                verdict = "killed" if set(verdicts) == {"killed"} else ", ".join(
                    "%s: %s" % (t, v) for t, v in zip(m["tests"], verdicts) if v != "killed"
                )
            print("%-32s %s" % (m["id"], verdict))
            if verdict != "killed":
                failed.append(m["id"])
    elapsed = time.monotonic() - start
    print("%d mutants, %d not killed, %.0f s" % (len(mutants), len(failed), elapsed))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
