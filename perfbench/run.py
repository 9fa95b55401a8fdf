"""dpgfem benchmark: CLI workloads timed end to end, plus a traced run.

    python3 perfbench/run.py --workload {pot_solve,conc_expr,eoc_sweep,all}
        [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Run from the repository root. One closed-loop client: every sample is a
fresh child process (perfbench/child.py) that imports `dpgfem.cli` and
runs the workload's CLI calls through `dpgfem.cli.main`, one child at a
time, with OpenBLAS/OpenMP/MKL pinned to one thread. A first child that
stops once the CLI is imported warms the file cache and is not counted.
Samples repeat while the next one is expected to end within --seconds (at
least two, so every sample's outputs can be compared with the first's).

Every child also times the calibration kernel of calibrate.py after its
set-up and after its CLI calls; their mean gives the host's speed during
the sample, and the result line's times are in reference seconds
(measured seconds x speed), which take out the host's drifting speed.
The summary and the results file also give the measured seconds.

--trace 0 reports the end-to-end metrics: wall_s (median over samples of
the wall time of the CLI calls inside the child), dofs_per_s (trial dofs
of the workload over wall_s), setup_s (median over samples of the time
from spawn until `dpgfem.cli` is imported and the config loaded),
peak_rss_mb (median of each child's maximum RSS).
--trace 1 runs untraced samples for half of --seconds (at least one),
then one traced sample, and reports the per-layer metrics of the traced
one (see tracer.py), in measured seconds, and its overhead over the
untraced median wall time, in reference seconds. The traced sample must
give the same iterations and byte-identical outputs as the first
untraced one.

Every CLI call counts as one attempted operation. It fails on a nonzero
exit, an unparsable report, or any check in workloads.py. The last line
of stdout is a JSON object {"correct", "attempted", "failed", "metrics"};
the lines before it print every metric with its unit and sample count.
A results file with the environment and the raw samples goes to
.perfbench_out/results/. Exits nonzero, printing no result, when the
package cannot be found or imported.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from calibrate import REF_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
MIN_SAMPLES = 2
RUN_LIMIT_S = 170.0   # no child may run past this point of a run

END_TO_END = {"wall_s": "s", "dofs_per_s": "1/s", "setup_s": "s",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "solver.solve_s": "s", "solver.iterations": "count",
    "solver.s_per_iter": "s", "solver.spmv_bytes_computed": "B",
    "solver.nnz": "count", "solver.rel_residual": "ratio",
    "solver.dense_solves": "count", "solver.direct_gap": "ratio",
    "solver.assemble_s": "s", "solver.indicators_s": "s",
    "solver.other_s": "s",
    "dpg.local_systems": "count", "dpg.local_system_s": "s",
    "dpg.condense_s": "s", "dpg.indicator_s": "s", "dpg.tabulate_s": "s",
    "dpg.tabulate_hits": "count", "dpg.tabulate_misses": "count",
    "expr.evals": "count", "expr.eval_s": "s",
    "verify.error_norms_s": "s", "verify.oracle_s": "s",
    "verify.eoc_study_s": "s",
    "fespace.dofmap_s": "s", "fespace.dofs": "count",
    "mesh.build_s": "s", "output.write_s": "s", "output.bytes": "B",
    "problems.validate_s": "s", "cli.self_s": "s",
    "trace.wall_s": "s", "trace.overhead_s": "s", "trace.spans": "count",
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


@dataclass
class Sample:
    setup_s: float | None = None
    wall_s: float | None = None
    cpu_s: float | None = None
    peak_rss_mb: float | None = None
    cal_s: list = field(default_factory=list)      # kernel pass, before and after
    failures: list = field(default_factory=list)   # per call
    digests: list = field(default_factory=list)    # per call
    solves: list = field(default_factory=list)
    layers: dict | None = None
    versions: dict | None = None
    duration_s: float = 0.0

    @property
    def speed(self) -> float:
        """Host speed during the sample, relative to the calibration reference."""
        return REF_S / statistics.fmean(self.cal_s)

    @property
    def failed(self) -> int:
        return sum(bool(f) for f in self.failures)


def child_env(tmpdir: Path) -> dict:
    env = dict(os.environ, **THREADS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["TMPDIR"] = str(tmpdir)
    return env


def spawn(mode: str, argvs: list, workdir: Path, deadline: float,
          run_id: str = ""):
    """Run one child; returns (t_spawn, exit code or None, record or None)."""
    workdir.mkdir(parents=True, exist_ok=True)
    spec, record = workdir / "spec.json", workdir / "record.json"
    spec.write_text(json.dumps({"mode": mode, "calls": argvs, "run_id": run_id,
                                "spans": str(workdir / "spans.jsonl")}))
    cmd = [sys.executable, str(HERE / "child.py"), str(spec), str(record)]
    with open(workdir / "stderr.txt", "wb") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(workdir),
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    data = json.loads(record.read_text()) if code == 0 and record.exists() else None
    return t_spawn, code, data


def _stderr_tail(workdir: Path) -> str:
    lines = (workdir / "stderr.txt").read_text(errors="replace").strip().splitlines()
    return lines[-1] if lines else "no stderr"


def run_sample(wl, argvs: list, workdir: Path, mode: str, deadline: float,
               ref_digests=None, run_id: str = "") -> Sample:
    t0 = time.monotonic()
    t_spawn, code, data = spawn(mode, argvs, workdir, deadline, run_id)
    sample = Sample(duration_s=time.monotonic() - t0)
    if data is None:
        reason = ("timed out" if code is None else
                  f"child exited with code {code}: {_stderr_tail(workdir)}")
        sample.failures = [[reason] for _ in wl.calls]
        sample.digests = [None] * len(wl.calls)
        return sample
    sample.setup_s = data["t_ready"] - t_spawn
    sample.wall_s = data["wall_s"]
    sample.cpu_s = data["cpu_s"]
    sample.peak_rss_mb = data["peak_rss_mb"]
    sample.cal_s = data["cal_s"]
    sample.solves = data["solves"]
    sample.layers = data.get("layers")
    sample.versions = data["versions"]
    for i, call in enumerate(wl.calls):
        outdir = Path(argvs[i][argvs[i].index("--outdir") + 1])
        solves = [s for s in data["solves"] if s["call"] == i]
        try:
            failures = workloads.check_call(call, data["exit_codes"][i],
                                            data["stdouts"][i], outdir, solves)
            dig = workloads.digest(outdir)
        except (KeyError, TypeError, ValueError, OSError, StopIteration) as exc:
            failures, dig = [f"check raised {type(exc).__name__}: {exc}"], None
        if ref_digests is not None and dig != ref_digests[i]:
            failures.append("output files differ from the first sample's")
        sample.failures.append(failures)
        sample.digests.append(dig)
    for i in range(len(wl.calls)):
        shutil.rmtree(workdir / f"call-{i}", ignore_errors=True)
    return sample


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    return {"git_sha": git_sha(), "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "threads": THREADS,
            "loadavg_before": os.getloadavg()}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> dict:
    wl = workloads.build(name, seed, smoke)
    work = OUT / name
    shutil.rmtree(work, ignore_errors=True)
    (work / "configs").mkdir(parents=True)
    env = environment()
    deadline = time.monotonic() + RUN_LIMIT_S

    def argvs(sample_dir: Path) -> list:
        out = []
        for i, call in enumerate(wl.calls):
            cfg = work / "configs" / f"call-{i}.json"
            if not cfg.exists():
                cfg.write_text(json.dumps(call.config))
            out.append([call.command, "--config", str(cfg),
                        "--outdir", str(sample_dir / f"call-{i}")])
        return out

    probe_dir = work / "warm-up"
    _, code, data = spawn("setup", argvs(probe_dir), probe_dir, deadline)
    if data is None:
        raise BenchError(f"dpgfem could not be imported (exit code {code}): "
                         f"{_stderr_tail(probe_dir)}")

    # a trace run keeps half of --seconds for its traced sample
    budget, min_samples = (seconds / 2, 1) if trace else (seconds, MIN_SAMPLES)
    samples = []
    measure_start = time.monotonic()
    while True:
        sdir = work / f"sample-{len(samples)}"
        ref = samples[0].digests if samples else None
        samples.append(run_sample(wl, argvs(sdir), sdir, "run", deadline, ref))
        if time.monotonic() >= deadline:
            break
        expected = statistics.median(s.duration_s for s in samples)
        elapsed = time.monotonic() - measure_start
        if len(samples) >= min_samples and elapsed + expected > budget:
            break
    traced = None
    if trace:
        tdir = work / "traced"
        traced = run_sample(wl, argvs(tdir), tdir, "trace", deadline,
                            samples[0].digests, run_id=f"{name}-seed{seed}-{os.getpid()}")
        untraced_iters = [s["iterations"] for s in samples[0].solves]
        traced_iters = [s["iterations"] for s in traced.solves]
        if traced.wall_s is not None and traced_iters != untraced_iters:
            traced.failures[0].append(f"traced iterations {traced_iters} != "
                                      f"untraced {untraced_iters}")
    runs = samples + ([traced] if traced else [])
    attempted = sum(len(wl.calls) for _ in runs)
    failed = sum(s.failed for s in runs)
    done = [s for s in samples if s.wall_s is not None]
    if not done or (traced is not None and traced.layers is None):
        raise BenchError("no sample completed; see " + str(work))
    wall = statistics.median(s.wall_s * s.speed for s in done)

    if trace:
        values = dict(traced.layers)
        values["trace.wall_s"] = traced.wall_s
        values["trace.overhead_s"] = traced.wall_s * traced.speed - wall
        metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        values = {"wall_s": wall, "dofs_per_s": wl.dofs / wall,
                  "setup_s": statistics.median(s.setup_s * s.speed for s in done),
                  "peak_rss_mb": statistics.median(s.peak_rss_mb for s in done)}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}

    env["loadavg_after"] = os.getloadavg()
    env["versions"] = next((s.versions for s in runs if s.versions), None)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    measured = {"wall_s": statistics.median(s.wall_s for s in done),
                "setup_s": statistics.median(s.setup_s for s in done),
                "speed": statistics.median(s.speed for s in done)}
    counts = {"samples": len(done), "calls_per_sample": len(wl.calls)}
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps({
        "workload": name, "seed": seed, "smoke": smoke, "params": wl.params,
        "dofs": wl.dofs, "seconds": seconds, "environment": env,
        "counts": counts, "calibration_ref_s": REF_S, "measured": measured,
        "samples": [vars(s) for s in samples],
        "traced": vars(traced) if traced else None, **result}, indent=1))
    print_summary(name, seed, wl, result, counts, measured, samples, traced)
    return result


def print_summary(name, seed, wl, result, counts, measured, samples, traced) -> None:
    n = counts["samples"]
    print(f"== {name}  seed {seed}  {n} untraced sample(s) of {len(wl.calls)} "
          f"CLI call(s), {wl.dofs} trial dofs per sample, "
          f"threads pinned: {', '.join(f'{k}={v}' for k, v in THREADS.items())}")
    print(f"  times in reference seconds; median host speed {measured['speed']:.3f}, "
          f"measured medians wall_s {measured['wall_s']:.4f} s, "
          f"setup_s {measured['setup_s']:.4f} s")
    notes = {"wall_s": f"median of {n} samples (too few for a tail percentile)",
             "dofs_per_s": f"{wl.dofs} dofs / median wall_s of {n} samples",
             "setup_s": f"median of {n} set-ups",
             "peak_rss_mb": f"median of {n} samples"}
    for key, m in result["metrics"].items():
        print(f"  {key:<28} {m['value']:>14.6g} {m['unit']:<6} {notes.get(key, '1 traced sample')}")
    print(f"  {'fail_frac':<28} {result['failed'] / result['attempted']:>14.6g} "
          f"{'':<6} {result['failed']} of {result['attempted']} operations failed")
    for s in samples + ([traced] if traced else []):
        for i, failures in enumerate(s.failures):
            for f in failures:
                print(f"  FAILED call {i}: {f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink every mesh (for the self-tests)")
    args = parser.parse_args(argv)
    # SIGTERM unwinds through spawn(), which kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (ROOT / "src" / "dpgfem" / "cli.py").is_file():
        print(f"error: no dpgfem package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         bool(args.trace), args.smoke)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": m for n, r in results.items()
                             for k, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
