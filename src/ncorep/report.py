"""Deterministic pass/fail reporting for verification suites.

Every check becomes a record {name, identity, status, residuals, artifacts}
where identity names the algebraic law being tested.  Reports carry an
overall verdict (pass iff nothing failed; informational records never count
against it) and serialize to canonical JSON: keys sorted, scalars and
polynomials rendered through their canonical string forms, no timestamps,
so identical runs produce identical bytes.
"""

import json

from .tensors import Tensor

STATUSES = ("pass", "fail", "info")


def jsonable(x):
    """Canonical JSON-ready form of scalars, polys, tensors and containers."""
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, Tensor):
        return x.entry_list()
    if isinstance(x, dict):
        return {_keystr(k): jsonable(v) for k, v in sorted(x.items(), key=lambda kv: _keystr(kv[0]))}
    if isinstance(x, (list, tuple, set, frozenset)):
        items = list(x)
        if isinstance(x, (set, frozenset)):
            items = sorted(items, key=str)
        return [jsonable(v) for v in items]
    return str(x)


def _keystr(k):
    if isinstance(k, str):
        return k
    if isinstance(k, tuple):
        return ",".join(_keystr(v) for v in k)
    return str(k)


def record(name, identity, status, residuals=None, artifacts=None):
    if status not in STATUSES:
        raise ValueError("status must be one of %s" % (STATUSES,))
    return {
        "name": name,
        "identity": identity,
        "status": status,
        "residuals": jsonable(residuals if residuals is not None else []),
        "artifacts": jsonable(artifacts if artifacts is not None else {}),
    }


def passfail(ok):
    return "pass" if ok else "fail"


class Report:
    """An ordered collection of check records with an overall verdict."""

    def __init__(self, title):
        self.title = title
        self.items = []

    def add(self, *args, **kwargs):
        """Append the record that record() builds from these arguments."""
        self.items.append(record(*args, **kwargs))

    def verdict(self):
        return "pass" if all(it["status"] != "fail" for it in self.items) else "fail"

    def counts(self):
        out = {s: 0 for s in STATUSES}
        for it in self.items:
            out[it["status"]] += 1
        return out

    def to_dict(self):
        return {
            "title": self.title,
            "verdict": self.verdict(),
            "checks": self.items,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def to_text(self):
        width = max([len(it["name"]) for it in self.items] + [4])
        lines = ["%s" % self.title, "-" * len(self.title)]
        for it in self.items:
            lines.append("%-*s  %-4s  %s" % (width, it["name"], it["status"].upper(), it["identity"]))
        c = self.counts()
        lines.append(
            "verdict: %s (%d pass, %d fail, %d info)"
            % (self.verdict(), c["pass"], c["fail"], c["info"])
        )
        return "\n".join(lines) + "\n"
