"""The mutation checks kept as data (tests/mutants/mutants.json).

Running them takes minutes, so tier-1 only checks the catalogue: each
mutant's source line occurs exactly once in its module, so a refactor that
moves or rewrites a line must update the catalogue, and each names tests
that exist.  tests/mutants/run.py applies the mutants.
"""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_mutant_line_occurs_once_in_its_module():
    with open(ROOT / "tests" / "mutants" / "mutants.json", encoding="utf-8") as fh:
        mutants = json.load(fh)
    assert len({m["id"] for m in mutants}) == len(mutants)
    for m in mutants:
        lines = (ROOT / m["module"]).read_text(encoding="utf-8").splitlines()
        assert lines.count(m["line"]) == 1, m["id"]
        assert m["replacement"] != m["line"], m["id"]
        assert m["tests"], m["id"]
        for test in m["tests"]:
            path, _, name = test.partition("::")
            assert "def %s(" % name.split("[")[0] in (ROOT / path).read_text(encoding="utf-8"), test
