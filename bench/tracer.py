"""Per-layer tracer, installed from outside the package.

Each target function is replaced by a wrapper that keeps a stack of open
calls, so a call's self time is its duration minus the time its traced
callees took.  Wrappers of the hot ``scalars`` and ``freealg`` operations
only accumulate calls and self time; every other wrapper also records a
span (job, id, parent, name, start, end) in memory.

Package modules import many functions by name (``from .corep import
generate_ideal``), classes alias methods (``__radd__ = __add__``) and the
CLI dispatches through the ``COMMANDS`` dict, so a wrapper replaces every
reference to the original that it finds in an ``ncorep`` module namespace,
class dict or module-level dict.  ``missed()`` then looks for references it
could not replace.
"""

import functools
import hashlib
import sys
import types
from time import perf_counter

# (stat, module, attribute path).  Hot targets keep no spans.
HOT = (
    ("scalars.mul", "scalars", "Scalar.__mul__"),
    ("scalars.add", "scalars", "Scalar.__add__"),
    ("scalars.add", "scalars", "Scalar.__sub__"),
    ("scalars.add", "scalars", "Scalar.__rsub__"),
    ("scalars.add", "scalars", "Scalar.__neg__"),
    ("scalars.div", "scalars", "Scalar.__truediv__"),
    ("scalars.div", "scalars", "Scalar.__rtruediv__"),
    ("scalars.div", "scalars", "Scalar.__pow__"),
    ("scalars.div", "scalars", "Scalar.inv"),
    ("scalars.coerce", "scalars", "Context.scalar"),
    ("scalars.parse", "scalars", "Context.parse"),
    ("scalars.substitute", "scalars", "Scalar.substitute"),
    ("scalars.eq", "scalars", "Scalar.__eq__"),
    ("freealg.ncpoly_mul", "freealg", "NCPoly.__mul__"),
    ("freealg.ncpoly_mul", "freealg", "NCPoly.__rmul__"),
    ("freealg.ncpoly_add", "freealg", "NCPoly.__add__"),
    ("freealg.ncpoly_add", "freealg", "NCPoly.__sub__"),
    ("freealg.ncpoly_add", "freealg", "NCPoly.__rsub__"),
    ("freealg.ncpoly_add", "freealg", "NCPoly.__neg__"),
    ("freealg.pairpoly", "freealg", "PairPoly.tensor"),
    ("freealg.pairpoly", "freealg", "PairPoly.scale"),
    ("freealg.pairpoly", "freealg", "PairPoly.__add__"),
    ("freealg.pairpoly", "freealg", "PairPoly.__sub__"),
    ("freealg.pairpoly", "freealg", "PairPoly.__neg__"),
    ("freealg.pairpoly", "freealg", "PairPoly.__mul__"),
    ("freealg.spanbasis_add", "freealg", "SpanBasis.add"),
    ("freealg.spanbasis_contains", "freealg", "SpanBasis.contains"),
    ("freealg.row_space_compare", "freealg", "row_space_compare"),
    ("freealg.apply_hom", "freealg", "apply_hom"),
)

SPANNED = (
    ("tensors.compose", "tensors", "compose"),
    ("tensors.ybe_residual", "tensors", "ybe_residual"),
    ("tensors.invert", "tensors", "invert2"),
    ("tensors.invert", "tensors", "invert4"),
    ("corep.validate_theta", "corep", "validate_theta"),
    ("corep.build_M", "corep", "build_M"),
    ("corep.generate_ideal", "corep", "generate_ideal"),
    ("corep.coideal_check", "corep", "coideal_check"),
    ("corep.homomorphism_check", "corep", "homomorphism_check"),
    ("corep.check_grouplike", "corep", "check_grouplike"),
    ("corep.coaction_word", "corep", "coaction_word"),
    ("bialg.coproduct", "bialg", "Presentation.coproduct"),
    ("bialg.coproduct", "bialg", "Presentation.coproduct_word"),
    ("bialg.word_value", "bialg", "LinearForm.word_value"),
    ("bialg.cocycle_check", "bialg", "cocycle_check"),
    ("bialg.twist_R", "bialg", "twist_R"),
    ("bialg.twisted_product_relations", "bialg", "twisted_product_relations"),
    ("rewrite.orient", "rewrite", "orient"),
    ("rewrite.normal_form", "rewrite", "normal_form"),
    ("rewrite.confluence_check", "rewrite", "confluence_check"),
    ("rewrite.count_irreducible", "rewrite", "count_irreducible"),
    ("qplane.relation_report", "qplane", "relation_report"),
    ("qplane.determinant", "qplane", "determinant"),
    ("qplane.verify_D_commutations", "qplane", "verify_D_commutations"),
    ("qplane.verify_antipode", "qplane", "verify_antipode"),
    ("qplane.verify_gamma_action_table", "qplane", "verify_gamma_action_table"),
    ("integrable.first_report", "integrable", "SpectralFamily.first_report"),
    ("integrable.second_report", "integrable", "SpectralFamily.second_report"),
    ("report.render", "report", "Report.to_text"),
    ("report.render", "report", "Report.to_json"),
    ("cli.parse", "cli", "parse_algebra_file"),
    ("cli.workspace", "cli", "Workspace.__init__"),
)


# Counts taken from a call's arguments and result, outside its timed interval.
def _terms_out(stat, args, result):
    terms = getattr(result, "terms", None)
    if isinstance(terms, dict):
        stat["terms_out"] += len(terms)


def _useful(stat, args, result):
    if result is True:
        stat["useful"] += 1


def _records(stat, args, result):
    stat["records"] += len(args[0].items)


def _rules(stat, args, result):
    stat["rules"] += len(result)


def _ambiguities(stat, args, result):
    stat["ambiguities"] += len(result["ambiguities"])


def _words(stat, args, result):
    stat["words"] += result


# Keyed by target path; NCPoly.__rmul__ delegates to __mul__, which counts.
AFTER = {
    "NCPoly.__mul__": _terms_out,
    "SpanBasis.add": _useful,
    "Report.to_text": _records,
    "orient": _rules,
    "confluence_check": _ambiguities,
    "count_irreducible": _words,
}


# Content keys for repeat_ratio: identical inputs give identical keys.
def _entries_key(entries):
    return sorted((k, str(v)) for k, v in entries.items())


def _ideal_key(args, kwargs):
    B, M = args[0], args[1]
    return repr((_entries_key(B.entries), _entries_key(M.entries)))


def _orient_key(args, kwargs):
    relations, order = args[0], args[1]
    polys = getattr(relations, "polys", relations)
    return repr(([str(p) for p in polys], [str(g) for g in order.precedence]))


KEYED = {"corep.generate_ideal": _ideal_key, "rewrite.orient": _orient_key}

COUNT_STATS = ("calls", "rules", "ambiguities", "words", "terms_out", "useful", "records", "errors")

PACKAGE = "ncorep"


class Tracer:
    """Wrappers, their stats and spans; install() and uninstall() swap them in."""

    def __init__(self):
        self.stats = {}
        self.spans = []
        self.keys = {}
        self.job = None
        self.stack = [[0.0, None]]
        self.next_span = 0
        self.originals = []
        self.wrappers = set()
        self.restore = []

    @staticmethod
    def modules():
        return [m for n, m in sorted(sys.modules.items())
                if n == PACKAGE or n.startswith(PACKAGE + ".")]

    # -- installation ----------------------------------------------------

    def install(self):
        cli = sys.modules[PACKAGE + ".cli"]
        for hot, table in ((True, HOT), (False, SPANNED)):
            for stat, module, path in table:
                owner = sys.modules["%s.%s" % (PACKAGE, module)]
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                if isinstance(fn, classmethod):
                    fn = fn.__func__
                wrapper = self._wrap(fn, stat, span=not hot, after=AFTER.get(path), key=KEYED.get(stat))
                self._replace(fn, wrapper)
        for command, fn in list(cli.COMMANDS.items()):
            if command in cli.SECTION_ORDER:
                stat = "cli.section.%s" % command
            else:
                stat = "cli.%s" % command.replace("-", "_")
            self._replace(fn, self._wrap(fn, stat, span=True, errors=cli.NCorepError))

    def _wrap(self, fn, name, span, after=None, key=None, errors=None):
        # one stat per wrapped function; metrics sum them per name
        stat = dict.fromkeys(COUNT_STATS, 0)
        stat.update(self_s=0.0, total_s=0.0)
        self.stats["%s:%s" % (name, fn.__qualname__)] = stat
        stack = self.stack
        spans = self.spans
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if key is not None:
                k0 = perf_counter()
                seen = tracer.keys.setdefault(name, set())
                seen.add((tracer.job, hashlib.sha1(key(args, kwargs).encode()).hexdigest()))
                parent[0] += perf_counter() - k0
            if span:
                sid = tracer.next_span
                tracer.next_span += 1
            else:
                sid = parent[1]
            frame = [0.0, sid]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if errors is not None and isinstance(exc, errors):
                    stat["errors"] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                dt = t1 - t0
                stat["calls"] += 1
                stat["self_s"] += dt - frame[0]
                stat["total_s"] += dt
                parent[0] += dt
                if span:
                    spans.append((tracer.job, sid, parent[1], name, t0, t1))
            if after is not None:
                after(stat, args, result)
            return result

        functools.update_wrapper(wrapper, fn)
        self.wrappers.add(wrapper)
        return wrapper

    def _replace(self, original, wrapper):
        """Point every reachable reference to original at wrapper."""
        self.originals.append(original)
        for mod in self.modules():
            ns = vars(mod)
            for name, value in list(ns.items()):
                if value is original:
                    self._set(ns, name, wrapper)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            self._set(value, k, wrapper)
                elif isinstance(value, type) and value.__module__ == mod.__name__:
                    for attr, v in list(value.__dict__.items()):
                        if v is original:
                            self._set(value, attr, wrapper)
                        elif isinstance(v, classmethod) and v.__func__ is original:
                            self._set(value, attr, classmethod(wrapper))

    def _set(self, owner, key, value):
        """Set a dict item, or a class attribute when owner is a class."""
        if isinstance(owner, type):
            self.restore.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, value)
        else:
            self.restore.append((owner, key, owner[key]))
            owner[key] = value

    def uninstall(self):
        for owner, key, value in reversed(self.restore):
            if isinstance(owner, type):
                setattr(owner, key, value)
            else:
                owner[key] = value
        self.restore = []

    def missed(self):
        """References to an original target that install() did not replace."""
        targets = {id(f) for f in self.originals}
        found = []

        def look(where, value):
            if isinstance(value, (classmethod, staticmethod)):
                value = value.__func__
            if id(value) in targets:
                found.append("%s -> %s" % (where, value.__qualname__))

        def look_function(where, fn):
            if fn in self.wrappers:
                return
            for d in (fn.__defaults__ or ()):
                look(where + " default", d)
            for d in (fn.__kwdefaults__ or {}).values():
                look(where + " default", d)
            for cell in (fn.__closure__ or ()):
                try:
                    look(where + " closure", cell.cell_contents)
                except ValueError:
                    pass

        for mod in self.modules():
            for name, value in vars(mod).items():
                where = "%s.%s" % (mod.__name__, name)
                look(where, value)
                if isinstance(value, dict):
                    for k, v in value.items():
                        look("%s[%r]" % (where, k), v)
                elif isinstance(value, (list, tuple, set, frozenset)):
                    for v in value:
                        look(where + "[]", v)
                elif isinstance(value, types.FunctionType):
                    look_function(where, value)
                elif isinstance(value, type) and value.__module__ == mod.__name__:
                    for attr, v in value.__dict__.items():
                        look("%s.%s" % (where, attr), v)
                        if isinstance(v, types.FunctionType):
                            look_function("%s.%s" % (where, attr), v)
        return found

    # -- collection ------------------------------------------------------

    def job_span(self, job, fn, *args):
        """Run fn(*args) as the root span of job."""
        self.job = job
        sid = self.next_span
        self.next_span += 1
        frame = [0.0, sid]
        self.stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = perf_counter()
            self.stack.pop()
            self.spans.append((job, sid, None, "job", t0, t1))

    def take(self):
        """Return and clear everything recorded since the last take()."""
        out = {
            "stats": {n: dict(s) for n, s in self.stats.items()},
            "keys": {n: len(v) for n, v in self.keys.items()},
            "spans": self.spans[:],
        }
        for s in self.stats.values():
            for k in s:
                s[k] = 0 if k in COUNT_STATS else 0.0
        self.keys.clear()
        del self.spans[:]
        return out


def coverage(spans):
    """Per job, the share of the job span covered by its cli-layer spans.

    Parsing, Workspace construction, the sections and rendering should
    account for a job's time; a section that escaped wrapping shows up as a
    gap.  None of these spans nests inside another.
    """
    jobs = {s[0]: s[5] - s[4] for s in spans if s[3] == "job"}
    covered = dict.fromkeys(jobs, 0.0)
    for job, sid, parent, name, t0, t1 in spans:
        if name in ("cli.parse", "cli.workspace", "report.render") or name.startswith("cli.section."):
            covered[job] += t1 - t0
    return {job: covered[job] / jobs[job] for job in jobs}


def _by_name(stats):
    """Sum per-function stats ("name:qualname") per metric name."""
    out = {}
    for key, st in stats.items():
        acc = out.setdefault(key.split(":")[0], dict.fromkeys(st, 0))
        for k, v in st.items():
            acc[k] += v
    return out


def layer_metrics(a, b, names):
    """Per-layer metric values from two traced passes over the same jobs.

    Counts come from the first pass and must repeat exactly in the second;
    times are the mean of the two.  Returns (metrics, unresolved).
    """
    unresolved = ["%s.%s" % (fn, k) for fn, st in a["stats"].items()
                  for k in COUNT_STATS if st[k] != b["stats"][fn][k]]
    ga, gb = _by_name(a["stats"]), _by_name(b["stats"])
    stats = {name: {k: v if k in COUNT_STATS else (v + gb[name][k]) / 2 for k, v in st.items()}
             for name, st in ga.items()}
    for name in set(a["keys"]) | set(b["keys"]):
        if a["keys"].get(name) != b["keys"].get(name):
            unresolved.append("%s.distinct_inputs" % name)

    def ratio(x, y):
        return x / y if y else 0.0

    values = {}
    for name, st in stats.items():
        values[name + ".calls"] = st["calls"]
        values[name + ".self_s"] = st["self_s"]
        values[name + ".total_s"] = st["total_s"]
        values[name + ".us_per_call"] = ratio(st["self_s"] * 1e6, st["calls"])
        for k in ("rules", "ambiguities", "words", "terms_out", "errors"):
            values["%s.%s" % (name, k)] = st[k]
        values[name + ".useful_ratio"] = ratio(st["useful"], st["calls"])
        values[name + ".repeat_ratio"] = ratio(st["calls"], a["keys"].get(name, 0))
    values["report.records"] = stats["report.render"]["records"]
    values["scalars.self_s"] = sum(st["self_s"] for n, st in stats.items() if n.startswith("scalars."))
    values["cli.section.errors"] = sum(
        st["errors"] for n, st in stats.items() if n.startswith("cli.section."))
    return {n: values[n] for n in names if n in values}, sorted(unresolved)
