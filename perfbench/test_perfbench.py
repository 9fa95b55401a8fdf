"""Self-tests of the benchmark, on the reduced-size smoke workloads.

    python3 -m pytest perfbench -q

A tampered output (a perturbed report value, a nonzero exit, changed
output bytes) must count as a failure, and the smoke runs must print a
result line with every metric BENCHMARK.json declares.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import statistics
import subprocess
import sys
import time

import pytest

import calibrate
import run
import workloads

WORK = run.OUT / "selftest"


def _spawn_call(name: str, tag: str):
    wl = workloads.build(name, seed=3, smoke=True)
    work = WORK / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg = work / "config.json"
    cfg.write_text(json.dumps(wl.calls[0].config))
    argv = [wl.calls[0].command, "--config", str(cfg), "--outdir", str(work / "out")]
    _, code, data = run.spawn("run", [argv], work, time.monotonic() + 120)
    assert code == 0 and data is not None
    return wl, argv, data, work / "out"


@pytest.fixture(scope="module")
def pot():
    return _spawn_call("pot_solve", "pot")


@pytest.fixture(scope="module")
def conc():
    return _spawn_call("conc_expr", "conc")


def _check(wl, data, outdir, exit_code=0, stdout=None):
    return workloads.check_call(wl.calls[0], exit_code,
                                data["stdouts"][0] if stdout is None else stdout,
                                outdir, data["solves"])


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_dof_formula_matches_the_workload_sizes():
    assert workloads.build("pot_solve").dofs == 25681
    assert workloads.build("conc_expr").dofs == 20481
    assert workloads.build("eoc_sweep").dofs == 36474


def test_seed_picks_the_amplitude_only():
    a, b = workloads.build("conc_expr", seed=5), workloads.build("conc_expr", seed=5)
    assert a.calls[0].config == b.calls[0].config
    assert workloads.amplitude(5) != workloads.amplitude(6)
    assert workloads.build("pot_solve", seed=5).calls[0].config == \
        workloads.build("pot_solve", seed=6).calls[0].config


def test_untampered_outputs_pass(pot, conc):
    for wl, _argv, data, outdir in (pot, conc):
        assert _check(wl, data, outdir) == []


def test_nonzero_exit_fails(pot):
    wl, _argv, data, outdir = pot
    assert _check(wl, data, outdir, exit_code=1)


def test_error_report_fails(pot):
    wl, _argv, data, outdir = pot
    stdout = json.dumps({"error": {"code": "solver", "message": "no convergence"}})
    assert _check(wl, data, outdir, stdout=stdout)


@pytest.mark.parametrize("path, factor", [
    (("errors", "e_field"), 10.0),
    (("errors", "e_flux"), 10.0),
    (("solver", "relative_residual"), 1e3),
    (("dofs", "total"), 2),
])
def test_perturbed_report_value_fails(pot, path, factor):
    wl, _argv, data, outdir = pot
    report = json.loads(data["stdouts"][0])
    report[path[0]][path[1]] *= factor
    assert _check(wl, data, outdir, stdout=json.dumps(report))


def test_perturbed_solve_residual_fails(pot):
    wl, _argv, data, outdir = pot
    solves = [dict(s, relative_residual=1e-6) for s in data["solves"]]
    assert workloads.check_call(wl.calls[0], 0, data["stdouts"][0], outdir, solves)


def test_perturbed_field_fails(conc):
    wl, _argv, data, outdir = conc
    tampered = WORK / "conc-tampered"
    shutil.rmtree(tampered, ignore_errors=True)
    shutil.copytree(outdir, tampered)
    vtk = tampered / "fields.vtk"
    lines = vtk.read_text().splitlines()
    i = next(k for k, s in enumerate(lines) if s.startswith("LOOKUP_TABLE")) + 1
    lines[i] = repr(float(lines[i]) + 1.0)
    vtk.write_text("\n".join(lines) + "\n")
    assert workloads.digest(tampered) != workloads.digest(outdir)
    assert _check(wl, data, tampered)


def test_changed_digest_fails_the_sample(pot):
    wl, argv, _data, _outdir = pot
    sdir = WORK / "pot-digest"
    argv = argv[:-1] + [str(sdir / "call-0")]
    sample = run.run_sample(wl, [argv], sdir, "run", time.monotonic() + 120,
                            ref_digests=["0" * 64])
    assert sample.failed == 1
    assert "differ from the first sample" in sample.failures[0][-1]


def _main(*args) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run.main(list(args) + ["--smoke", "--seconds", "1"]) == 0
    return json.loads(buf.getvalue().strip().splitlines()[-1])


def test_smoke_run_reports_every_end_to_end_metric():
    result = _main("--workload", "conc_expr", "--seed", "4", "--trace", "0")
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    saved = json.loads((run.OUT / "results" / "conc_expr-seed4-trace0.json").read_text())
    scaled = [s["wall_s"] * calibrate.REF_S / statistics.fmean(s["cal_s"])
              for s in saved["samples"]]
    assert result["metrics"]["wall_s"]["value"] == pytest.approx(statistics.median(scaled))


def test_smoke_trace_reports_every_layer_metric():
    result = _main("--workload", "conc_expr", "--seed", "4", "--trace", "1")
    assert result["correct"]
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(m) == set(run.PER_LAYER)
    assert m["expr.evals"] == 2 * 32 * 32 * 9
    assert m["fespace.dofs"] == workloads.build("conc_expr", smoke=True).dofs
    self_times = sum(v for k, v in m.items() if k.endswith("_s")
                     and not k.startswith("trace.") and k != "solver.s_per_iter")
    assert self_times == pytest.approx(m["trace.wall_s"], rel=1e-9)


def test_exits_nonzero_without_the_package():
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pot_solve",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
