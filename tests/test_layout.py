"""Package layout: no code that only the tests reach.

A module-level function or class of ``src/ncorep`` must be used by name
somewhere in the package outside its own definition: read as a bare name
(a call, a default, a table entry) or imported (``from .corep import
build_M``).  An attribute of the same name, such as ``ctx.parse``, does not
count, so it cannot hide a dead function.  A decorated module-level
function is exempt: its decorator registers it.  A definition that only the
benchmark tracer names is pinned in TRACED_ONLY, so that its name is
written down instead of hidden behind an attribute of the same name.

A method or property of a package class, other than a dunder that Python
calls itself, must be read as an attribute (``x.name``) somewhere in the
package outside its own definition.  Attributes are matched by name only,
so a method shares its uses with every attribute of the same name.  A
method whose name another package class also defines could hide behind
that class's uses, so the set of such shared names is pinned: a new one
fails until it is reviewed and added to SHARED_METHOD_NAMES.

A method whose name is also an attribute that package code sets as
``self.name = ...`` shares that attribute's uses the same way, so those
names are pinned too (ATTRIBUTE_METHOD_NAMES).

A dunder is not matched by name, since Python calls it for an operator,
a conversion or a constructor.  Instead the golden cases are run with
every dunder that a package class defines wrapped in a counter, an alias
such as ``__radd__ = __add__`` counted under its own name.  Each one must
be called, be a target of the benchmark tracer, or be pinned in
KEPT_FOR_USERS.

Builders that only the tests need live in ``tests/conftest.py``.

sympy is imported in one place, inside ``scalars._factor``, as the fallback
that factors a new multi-term denominator outside the shapes that _factor
splits itself (linear in a parameter with an integer coefficient or
constant term, or quadratic in one parameter); a run that never meets one,
which includes every shipped input, never loads sympy.

The benchmark reaches into the package from outside: ``bench/tracer.py``
wraps the functions its HOT and SPANNED tables name, and
``bench/worker.py`` builds a Workspace from two positional arguments, the
parsed file and the bindings, and reads its relations.  A change that
removes one of those names fails here, not first in the benchmark.  The
tracer is also run here over every job of the benchmark's oracle
(bench/expected.json), so that a reference it cannot replace, a traced
report that differs, a job whose sections escape their spans or a
per-layer metric it cannot produce fails here too.
"""

import ast
import importlib
import json
from collections import Counter, defaultdict
from pathlib import Path

import ncorep
from ncorep import cli
from test_golden import CASES, _oracle_jobs, run_case

SRC = Path(ncorep.__file__).parent
BENCH = Path(__file__).resolve().parents[1] / "bench"

# non-dunder method names that more than one package class defines; each
# one's uses were checked by hand, since the name match cannot tell them apart
# (is_zero, neg, mul and inv are the field interface of freealg.SpanBasis,
# which Context and ModP both give; Scalar.inv is qplane's q.inv())
SHARED_METHOD_NAMES = {
    "add", "gen", "inv", "is_zero", "mul", "neg", "parse", "rank", "substitute", "term",
}

# method names that equal an attribute set as self.name somewhere in the
# package; each one's uses were checked by hand, as for the shared names
ATTRIBUTE_METHOD_NAMES = {"one", "relations", "zero"}

# definitions that no package code reaches and the benchmark tracer wraps
# (its HOT table): the tracer needs the name, so it stays until the
# benchmark's next change drops it from the table (ROADMAP item 3)
TRACED_ONLY = {("freealg", "PairPoly.tensor")}

# dunders that no golden case calls and no tracer names: the text forms a
# user prints, the copy and pickle path of a generator, and the constructors
# of errors that only exit-2 paths raise
KEPT_FOR_USERS = {
    "Context.__repr__", "Generator.__reduce__", "Generator.__repr__", "NCPoly.__repr__",
    "PairPoly.__repr__", "PairPoly.__str__", "Scalar.__repr__", "Tensor.__repr__",
    "Tensor.__str__",
    "DenominatorVanishes.__init__", "ExpressionSyntax.__init__", "InputFormat.__init__",
}


def _uses(node):
    """(bare-name uses, attribute uses) inside node, counted by name."""
    names, attrs = Counter(), Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names[n.id] += 1
        elif isinstance(n, ast.alias):
            names[n.name] += 1
        elif isinstance(n, ast.Attribute):
            attrs[n.attr] += 1
    return names, attrs


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def unreferenced():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    names, attrs = Counter(), Counter()
    for tree in trees.values():
        n, a = _uses(tree)
        names.update(n)
        attrs.update(a)
    out = set()
    for mod, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            registered = isinstance(node, ast.FunctionDef) and node.decorator_list
            if not registered and names[node.name] == _uses(node)[0][node.name]:
                out.add((mod, node.name))
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not _dunder(item.name):
                    if attrs[item.name] == _uses(item)[1][item.name]:
                        out.add((mod, "%s.%s" % (node.name, item.name)))
    return out


def test_no_code_only_the_tests_reach():
    assert unreferenced() == TRACED_ONLY
    traced = {(module, path) for _, module, path in _tracer_targets()}
    assert TRACED_ONLY <= traced


def shared_method_names():
    """Non-dunder method names defined on more than one package class."""
    owners = defaultdict(set)
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not _dunder(item.name):
                        owners[item.name].add(node.name)
    return {name for name, classes in owners.items() if len(classes) > 1}


def test_shared_method_names_are_pinned():
    assert shared_method_names() == SHARED_METHOD_NAMES


def attribute_method_names():
    """Method names of package classes that equal a self.name attribute."""
    methods, attrs = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                methods.update(f.name for f in node.body if isinstance(f, ast.FunctionDef))
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                attrs.add(node.attr)
    return methods & attrs


def test_attribute_method_names_are_pinned():
    assert attribute_method_names() == ATTRIBUTE_METHOD_NAMES


def package_dunders():
    """{"Class.__name__": module} for every dunder a package class defines in
    its body, an alias such as __radd__ = __add__ under its own name."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    names = [item.name]
                elif isinstance(item, ast.Assign) and isinstance(item.value, ast.Name):
                    names = [t.id for t in item.targets]
                else:
                    continue
                for name in filter(_dunder, names):
                    key = "%s.%s" % (node.name, name)
                    assert key not in out, key
                    out[key] = path.stem
    return out


def _counting(fn, key, calls):
    def counted(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)

    return counted


def golden_dunder_calls(tmp_path):
    """Calls of each package dunder over every golden case."""
    calls = Counter()
    wrapped = []
    for key, module in package_dunders().items():
        cls_name, name = key.split(".")
        cls = getattr(importlib.import_module("ncorep." + module), cls_name)
        wrapped.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, _counting(cls.__dict__[name], key, calls))
    try:
        for case in sorted(CASES):
            run_case(case, tmp_path / "report.json")
    finally:
        for cls, name, fn in wrapped:
            setattr(cls, name, fn)
    return calls


def test_every_dunder_is_reached(tmp_path):
    defined = package_dunders()
    calls = golden_dunder_calls(tmp_path)
    traced = {path for _, _, path in _tracer_targets()}
    unreached = {key for key in defined if not calls[key] and key not in traced}
    assert unreached <= KEPT_FOR_USERS
    assert KEPT_FOR_USERS <= set(defined)


def _tracer():
    # executed from source, so that no bytecode is written under bench/
    path = BENCH / "tracer.py"
    ns = {"__name__": "bench_tracer"}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), ns)
    return ns


def _tracer_targets():
    ns = _tracer()
    return ns["HOT"] + ns["SPANNED"]


def test_benchmark_targets_resolve():
    # the lookup of Tracer.install, without installing any wrapper
    for _, module, path in _tracer_targets():
        owner = importlib.import_module("ncorep." + module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(fn, classmethod):
            fn = fn.__func__
        assert callable(fn), path
    assert set(cli.SECTION_ORDER) < set(cli.COMMANDS)
    assert issubclass(cli.NCorepError, Exception)


def assert_job_span_shapes(spans, commands):
    """Each job span holds one parse, one Workspace and two renders, and its
    sections either directly or inside one full_report span; a job that
    names a section command holds exactly that section."""
    children = defaultdict(list)  # span id -> [(span id, name) of its direct children]
    for _, sid, parent, name, _, _ in spans:
        children[parent].append((sid, name))
    jobs = {job: children[sid] for job, sid, _, name, _, _ in spans if name == "job"}
    assert sorted(jobs) == sorted(commands)
    for job, kids in jobs.items():
        names = [name for _, name in kids]
        sections = [n for n in names if n.startswith("cli.section.")]
        full = [sid for sid, name in kids if name == "cli.full_report"]
        rest = sorted(n for n in names if n not in sections and n != "cli.full_report")
        assert rest == ["cli.parse", "cli.workspace", "report.render", "report.render"], job
        if full:
            assert len(full) == 1 and not sections, job
            sections = [name for _, name in children[full[0]]]
            assert sections and all(n.startswith("cli.section.") for n in sections), job
        else:
            assert sections, job
        if commands[job] in cli.SECTION_ORDER:
            assert sections == ["cli.section." + commands[job]], job


def test_benchmark_tracer_leaves_the_shipped_reports_unchanged(tmp_path, capsys):
    # a traced benchmark run is correct only when no job fails, every pass
    # prints the same bytes, no reference escapes the wrappers, every job's
    # sections are traced and every per-layer metric is produced; the
    # coverage floor depends on timing and is left to the benchmark.  The
    # jobs are those of the benchmark's oracle: every shipped command and
    # the four-parameter full-report.
    ns = _tracer()
    report = tmp_path / "report.json"
    jobs = _oracle_jobs()
    assert len(jobs) == 50

    def run(job):
        report.unlink(missing_ok=True)  # every job writes its own
        code = cli.main(job["argv"] + ["--json", str(report)])
        return code, capsys.readouterr(), report.read_bytes()

    untraced = [run(job) for job in jobs]
    tracer = ns["Tracer"]()
    tracer.install()
    try:
        assert tracer.missed() == []
        passes = []
        for k in range(2):
            labels = ["%d:%s" % (k, job["id"]) for job in jobs]
            assert [tracer.job_span(label, run, job) for label, job in zip(labels, jobs)] == untraced
            if not k:
                assert set(tracer.keys) == set(ns["KEYED"])
            passes.append(tracer.take())
            commands = {
                label: next((a for a in job["argv"] if a in cli.COMMANDS), None)
                for label, job in zip(labels, jobs)
            }
            assert_job_span_shapes(passes[-1]["spans"], commands)
    finally:
        tracer.uninstall()
    assert [run(job) for job in jobs] == untraced
    with open(BENCH.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = [m["name"] for m in json.load(fh)["per_layer"]]
    values, _ = ns["layer_metrics"](*passes, declared)
    # the two trace.* metrics are the benchmark runner's own
    assert [n for n in declared if n not in values] == [
        "trace.overhead_ratio", "trace.unresolved_counts",
    ]


def test_benchmark_builds_a_workspace():
    # as bench/worker.py builds the first job's Workspace: a data file path
    # and (name, expression) bindings
    path = str(SRC / "data" / "qplane_qprs.alg")
    ws = cli.Workspace(cli.parse_algebra_file(path), [("r", "0"), ("s", "0")])
    assert ws.relations().rank() == 6


def sympy_imports():
    """(module, enclosing definitions) of every import of sympy in the package."""
    out = set()

    def visit(node, mod, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, mod, where + (child.name,))
                continue
            if isinstance(child, ast.Import):
                names = [a.name for a in child.names]
            elif isinstance(child, ast.ImportFrom) and not child.level:
                names = [child.module]
            else:
                names = []
            if any(n == "sympy" or n.startswith("sympy.") for n in names):
                out.add((mod, ".".join(where)))
            visit(child, mod, where)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, ())
    return out


def test_sympy_is_imported_only_to_factor():
    # importing the package must not load sympy; only a new multi-term
    # denominator that scalars._factor hands to factor_list does
    assert sympy_imports() == {("scalars", "_factor")}
