"""ncorep benchmark: end-to-end timings per workload, or per-layer numbers.

    python3 bench/run.py --workload qprs_full --seed 1 --seconds 15 --trace 0

Run it from the repository root; it imports the package from ``src/``.
Workloads, metrics and bounds are declared in BENCHMARK.json; the reasons
for each workload and the seed-commit numbers are in bench/baseline.json.

Every timed process is a fresh interpreter with PYTHONHASHSEED fixed, run
one after another, so the benchmark is a closed loop with one client.  A
timed run alternates four set-up-only processes with three run processes;
each of the seven gives one set-up sample.  Each run process makes one cold
pass over the workload's job list, then warm passes for a third of
``--seconds`` (at least one), collecting garbage between passes.

The host runs the same code up to about 1.6 times slower in spells of
seconds to minutes, which moved medians of whole runs by a quarter.  So
every time is scaled by the host speed sampled while it ran (see
bench/hostspeed.py) and reads as seconds on the reference host; the note
beside each metric gives the median wall time as well.  setup_s is the
median of the seven set-up times, cold_pass_s the median of the three cold
passes and pass_s the median of the warm passes.  job_s.p50 and job_s.tail
are percentiles over the job list of each job's median warm time, so on
one-job workloads they equal pass_s.

With ``--trace 1`` one run process adds two traced passes and the per-layer
metrics are reported instead; spans are written to .bench_out/.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The lines before it print each metric by name and unit, the
failed ratio and one digest over all report bytes of a pass.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS, DEFAULT_SEED, jobs_for

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"
# Timed runs: set-up-only and run processes, in this order.
TIMED_ORDER = ("setup", "run", "setup", "run", "setup", "run", "setup")
RUNS = TIMED_ORDER.count("run")
HASH_SEED = "0"
TIME_LIMIT = 170.0
# A job's cli-layer spans (parse, Workspace, sections, render) must cover
# this share of the job span; a section that escaped the tracer leaves a gap.
COVERAGE_MIN = 0.8
# Per-layer facts that hold on a workload whatever the implementation.
LAYER_FACTS = {
    "qprs_full": (("corep.generate_ideal.calls", "> 0", lambda v: v > 0),),
    "gl3_full": (("qplane.determinant.calls", "== 0", lambda v: v == 0),),
}


def _declared():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    return bench["end_to_end"], bench["per_layer"]


def _spawn(spec, tmp, tag, deadline):
    spec_path = os.path.join(tmp, "spec-%s.json" % tag)
    result_path = os.path.join(tmp, "result-%s.json" % tag)
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    env.pop("PYTHONPATH", None)
    spec = dict(spec, t0=time.monotonic())
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    proc = subprocess.run(
        [sys.executable, str(WORKER), spec_path, result_path],
        env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError("worker %s exited %d:\n%s" % (tag, proc.returncode, proc.stderr[-4000:]))
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def tail(samples):
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, count); with ten samples or fewer there is
    no such percentile and the maximum is reported as p100.  A workload of
    one job has p50 = tail = that job's median warm time.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(results, runs, attempted, failed, declared):
    median = statistics.median
    warm = [p for r in runs for p in r["warm"]]
    warm_wall = [w for r in runs for w in r["warm_wall_s"]]
    job_medians = [median(times) for times in zip(*warm)]
    value, pct, count = tail(job_medians)
    values = {
        "setup_s": median(r["setup_s"] for r in results),
        "cold_pass_s": median(sum(r["cold"]) for r in runs),
        "pass_s": median(sum(p) for p in warm),
        "job_s.p50": median(job_medians),
        "job_s.tail": value,
        "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
        "correct_ratio": (attempted - failed) / attempted,
    }
    notes = {
        "setup_s": "median of %d processes; wall %.4g s"
        % (len(results), median(r["setup_wall_s"] for r in results)),
        "cold_pass_s": "median of %d processes; wall %.4g s"
        % (len(runs), median(r["cold_wall_s"] for r in runs)),
        "pass_s": "median of %d warm passes; wall %.4g s" % (len(warm), median(warm_wall)),
        "job_s.p50": "%d jobs, each median of %d warm runs" % (len(job_medians), len(warm)),
        "job_s.tail": "p%.1f of %d jobs" % (pct, count),
        "correct_ratio": "failed_ratio %g = %d / %d" % (failed / attempted, failed, attempted),
    }
    return {m["name"]: values[m["name"]] for m in declared}, notes


def per_layer(workload, run, declared):
    from tracer import layer_metrics

    untraced_pass_s = min(sum(p) for p in run["warm"])
    trace = run["trace"]
    a, b = trace["passes"]
    names = [m["name"] for m in declared]
    values, unresolved = layer_metrics(a, b, names)
    traced = min(a["pass_s"], b["pass_s"])
    values["trace.overhead_ratio"] = traced / untraced_pass_s
    values["trace.unresolved_counts"] = len(unresolved)
    problems = ["unwrapped reference %s" % m for m in trace["missed"]]
    problems += ["per-layer metric %s not produced" % n for n in names if n not in values]
    for name, text, holds in LAYER_FACTS.get(workload, ()):
        if name in values and not holds(values[name]):
            problems.append("expected %s %s, got %r" % (name, text, values[name]))
    cover = min(min(p["coverage"].values()) for p in (a, b))
    if cover < COVERAGE_MIN:
        problems.append("cli spans cover only %.3f of a job span" % cover)
    notes = {
        "trace.overhead_ratio": "fastest traced pass %.3f s over fastest untraced %.3f s"
        % (traced, untraced_pass_s),
        "trace.unresolved_counts": ", ".join(unresolved) or "every count repeated",
        "coverage": "min per-job cli coverage %.3f" % cover,
    }
    return {n: values[n] for n in names if n in values}, notes, problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT
    if not (SRC / "ncorep" / "cli.py").is_file():
        sys.stderr.write("bench: no package source at %s\n" % (SRC / "ncorep"))
        return 2
    e2e_declared, layer_declared = _declared()

    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="%s-" % ns.workload, dir=ROOT / ".bench_tmp")
    try:
        jobs = jobs_for(ns.workload, ns.seed, tmp)
        trace_out = ROOT / ".bench_out" / ("trace-%s-seed%d.json" % (ns.workload, ns.seed))
        spec = {"src": str(SRC), "jobs": jobs, "tmp": tmp, "seconds": ns.seconds / RUNS,
                "trace": bool(ns.trace), "trace_out": str(trace_out)}
        results = []
        for i, mode in enumerate(("run",) if ns.trace else TIMED_ORDER):
            results.append(_spawn(dict(spec, mode=mode), tmp, "%s%d" % (mode, i), deadline))
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as err:
        sys.stderr.write("bench: %s\n" % err)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    runs = [r for r in results if "cold" in r]

    failures = [f for r in runs for f in r["failures"]]
    for f in failures:
        sys.stderr.write("bench: job %s failed: %s\n" % (f["job"], f["reason"]))
    failed = len(failures)
    attempted = sum(r["attempted"] for r in runs)
    digests = {d for r in runs for d in r["digests"]}
    problems = []
    if len(digests) != 1:
        problems.append("report bytes differ between passes")
    if ns.trace:
        values, notes, more = per_layer(ns.workload, runs[0], layer_declared)
        declared = layer_declared
        problems += more
    else:
        values, notes = end_to_end(results, runs, attempted, failed, e2e_declared)
        declared = e2e_declared
    for p in problems:
        sys.stderr.write("bench: self-check failed: %s\n" % p)

    units = {m["name"]: m["unit"] for m in declared}
    print("workload %s  seed %d  report digest %s" % (ns.workload, ns.seed, runs[0]["digests"][0]))
    for name, value in values.items():
        note = notes.get(name)
        print("  %-44s %14.6g %-6s%s" % (name, value, units[name], "  (%s)" % note if note else ""))
    if ns.trace:
        print("  %s" % notes["coverage"])
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
