"""One fresh interpreter of the ncorep benchmark.

    python3 bench/worker.py SPEC.json RESULT.json

The spec names the source tree, the job list and the parent's monotonic
clock reading taken just before this process was started.  Set-up time runs
from that reading until ``ncorep.cli`` is imported and the first job's input
is parsed into a Workspace.  In ``setup`` mode the worker stops there.  In
``run`` mode it then runs one cold pass, warm passes until ``seconds`` have
passed, and with ``trace`` two more passes under the tracer.  Every job's
output is checked; an exception in a job fails that job only.

Set-up and every pass are timed under ``hostspeed.HostSpeed``: each time
is wall time less the sampler's handler time, scaled to the reference host
by the samples taken during the set-up or about the job.  The handler also
runs inside traced spans, where it adds about half a percent to self times.
"""

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

from hostspeed import HostSpeed
from tracer import Tracer, coverage
from workloads import check_job, report_digest


def _first_workspace(cli, src, argv):
    # argv is ["--input", NAME, ("--subst", "K=V")*, command?]
    name = argv[1]
    if not os.path.exists(name):
        name = os.path.join(src, "ncorep", "data", name + ".alg")
    bindings = [tuple(v.split("=", 1)) for k, v in zip(argv[2::2], argv[3::2]) if k == "--subst"]
    return cli.Workspace(cli.parse_algebra_file(name), bindings)


def main():
    speed = HostSpeed()
    speed.start()
    start = time.perf_counter()
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import ncorep.cli as cli

    _first_workspace(cli, spec["src"], spec["jobs"][0]["argv"])
    wall = time.monotonic() - spec["t0"] - speed.spent
    result = {"setup_s": wall * speed.scale(start, time.perf_counter()), "setup_wall_s": wall}
    if spec["mode"] == "run":
        result.update(_run(cli, spec, speed))
    speed.stop()
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _run(cli, spec, speed):
    jobs = spec["jobs"]
    json_path = os.path.join(spec["tmp"], "report.json")
    failures = []
    attempted = 0

    def run_job(job, label, tracer=None):
        nonlocal attempted
        attempted += 1
        if os.path.exists(json_path):
            os.remove(json_path)
        argv = job["argv"] + ["--json", json_path]
        out = io.StringIO()
        spent = speed.spent
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                if tracer is None:
                    code = cli.main(argv)
                else:
                    code = tracer.job_span(label, cli.main, argv)
        except Exception:
            failures.append({"job": label, "reason": traceback.format_exc(limit=4)})
            t1 = time.perf_counter()
            return t1 - t0 - speed.spent_since(spent), (t0, t1), ""
        t1 = time.perf_counter()
        dt = t1 - t0 - speed.spent_since(spent)
        json_bytes = b""
        if os.path.exists(json_path):
            with open(json_path, "rb") as fh:
                json_bytes = fh.read()
        text = out.getvalue()
        reason = check_job(job, code, text, json_bytes)
        if reason is not None:
            failures.append({"job": label, "reason": reason})
        return dt, (t0, t1), report_digest(text, json_bytes)

    def run_pass(index, tracer=None):
        """Wall and reference-host times of the pass's jobs."""
        gc.collect()
        times = []
        spans = []
        digest = hashlib.sha256()
        for j, job in enumerate(jobs):
            dt, span, d = run_job(job, "%d:%d:%s" % (index, j, job["id"]), tracer)
            times.append(dt)
            spans.append(span)
            digest.update(d.encode())
        scaled = [t * speed.scale(*span) for t, span in zip(times, spans)]
        return times, scaled, digest.hexdigest()

    times, cold, digest = run_pass(0)
    cold_wall = sum(times)
    digests = [digest]
    warm = []
    warm_wall = []
    start = time.perf_counter()
    while not warm or time.perf_counter() - start < spec["seconds"]:
        times, scaled, digest = run_pass(len(warm) + 1)
        warm.append(scaled)
        warm_wall.append(sum(times))
        digests.append(digest)
    out = {"cold": cold, "warm": warm, "cold_wall_s": cold_wall, "warm_wall_s": warm_wall}
    if spec["trace"]:
        out["trace"] = _trace(run_pass, len(warm) + 1, spec)
        # tracing must not change a single report byte
        digests += [p["digest"] for p in out["trace"]["passes"]]
    out.update({
        "digests": digests,
        "failures": failures,
        "attempted": attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    return out


def _trace(run_pass, index, spec):
    tracer = Tracer()
    tracer.install()
    try:
        missed = tracer.missed()
        passes = []
        for k in range(2):
            _, scaled, digest = run_pass(index + k, tracer)
            taken = tracer.take()
            taken.update(pass_s=sum(scaled), digest=digest)
            taken["coverage"] = coverage(taken["spans"])
            passes.append(taken)
    finally:
        tracer.uninstall()
    with open(spec["trace_out"], "w", encoding="utf-8") as fh:
        json.dump({
            "functions": [p["stats"] for p in passes],
            "fields": ["job", "id", "parent", "name", "start", "end"],
            "spans": passes[0]["spans"] + passes[1]["spans"],
        }, fh)
        fh.write("\n")
    for p in passes:
        del p["spans"]
    return {"missed": missed, "passes": passes}


if __name__ == "__main__":
    sys.exit(main())
