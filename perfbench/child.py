"""One benchmark sample, run in a fresh process.

    python3 perfbench/child.py SPEC RECORD

SPEC is a JSON file written by run.py: {"mode": "setup" | "run" | "trace",
"calls": [argv, ...], "spans": path, "run_id": str}. The child imports
`dpgfem.cli` and loads the first call's config; the monotonic time at that
point ends the sample's set-up. In "setup" mode it stops there. Otherwise
it times the calibration kernel (calibrate.py), runs every CLI call
through `dpgfem.cli.main` with stdout captured, times the kernel again
and writes a JSON record to RECORD: exit codes, captured reports,
the wall time and CPU time of the calls, both kernel times, peak RSS, the
DPG linear solves, and in "trace" mode the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def main(spec_path: str, record_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    calls = spec["calls"]
    import dpgfem.cli as cli
    cli.load_config(calls[0][calls[0].index("--config") + 1])
    record = {"t_ready": time.monotonic()}
    if spec["mode"] != "setup":
        import calibrate
        record["cal_s"] = [calibrate.measure()]
        record.update(run_calls(cli, spec))
        record["cal_s"].append(calibrate.measure())
    Path(record_path).write_text(json.dumps(record))
    return 0


def run_calls(cli, spec: dict) -> dict:
    import numpy
    import scipy

    from tracer import Tracer, install_solve_probe

    call_index = [0]
    tracer = None
    solves = []
    if spec["mode"] == "trace":
        tracer = Tracer(call_index)
        tracer.install()
    else:
        install_solve_probe(solves, call_index)

    exit_codes, stdouts = [], []
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for i, argv in enumerate(spec["calls"]):
        call_index[0] = i
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            exit_codes.append(cli.main(argv))
        stdouts.append(buf.getvalue())
    wall_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = {"exit_codes": exit_codes, "stdouts": stdouts, "wall_s": wall_s,
           "cpu_s": cpu_s,
           "peak_rss_mb": peak_rss_mb,
           "versions": {"python": sys.version.split()[0],
                        "numpy": numpy.__version__, "scipy": scipy.__version__}}
    if tracer is None:
        out["solves"] = solves
        return out
    layers = tracer.layer_metrics(wall_s)
    layers["solver.direct_gap"] = tracer.direct_gap()
    tracer.write_spans(spec["spans"], spec["run_id"])
    out["solves"] = [{k: v for k, v in s.items() if k != "system"}
                     for s in tracer.solves]
    out["layers"] = layers
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
