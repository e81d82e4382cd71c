"""Write expected.json: the shipped-input jobs with their exit codes and digests.

Run it from the repository root on the commit whose reports are the
reference:

    PYTHONHASHSEED=0 PYTHONPATH=src python3 bench/capture.py

Each job of ``shipped_commands`` is one applicable section command, or the
file's default suite, on one shipped input; ``qprs_full`` is the
four-parameter full-report.
"""

import contextlib
import io
import json
import os
import sys
import tempfile

from workloads import EXPECTED, report_digest

SHIPPED = (
    ("qplane_qp", []),
    ("qplane_frt", []),
    ("spectral_demo", []),
    ("qplane_qprs", ["--subst", "r=0", "--subst", "s=0"]),
)


def _job(cli, job_id, argv, json_path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv + ["--json", json_path])
    with open(json_path, "rb") as fh:
        json_bytes = fh.read()
    os.remove(json_path)
    return {
        "id": job_id,
        "argv": argv,
        "exit": code,
        "sha256": report_digest(out.getvalue(), json_bytes),
    }


def main():
    import ncorep.cli as cli

    with tempfile.TemporaryDirectory() as tmp:
        json_path = os.path.join(tmp, "report.json")
        shipped = []
        for name, substs in SHIPPED:
            af = cli.parse_algebra_file(cli._resolve_input(name))
            ws = cli.Workspace(af, cli._parse_substs(af, substs[1::2]))
            base = ["--input", name] + substs
            for command in cli.SECTION_ORDER:
                if cli._applicable(ws, command):
                    shipped.append(_job(cli, "%s:%s" % (name, command), base + [command], json_path))
            shipped.append(_job(cli, "%s:default" % name, base, json_path))
        qprs = [_job(cli, "qplane_qprs:full-report",
                     ["--input", "qplane_qprs", "full-report"], json_path)]
    doc = {"workloads": {"qprs_full": qprs, "shipped_commands": shipped}}
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print("%d shipped_commands jobs, %d qprs_full job -> %s" % (len(shipped), len(qprs), EXPECTED))


if __name__ == "__main__":
    sys.exit(main())
