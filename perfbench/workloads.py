"""Benchmark workloads and the correctness checks applied to every sample.

Each workload is a list of `dpgfem` CLI calls run in one child process.
`pot_solve` and `eoc_sweep` are named manufactured cases with no free
input; the seed only picks the amplitude A of `conc_expr`, whose exact
solution is A cos(pi x) cos(pi y). `smoke=True` shrinks every mesh so the
self-tests run in seconds; the checks stay the same, with bounds set for
the smaller meshes.

Check bounds, from values measured on the unchanged code with BLAS pinned
to one thread (value at the full size; smoke size in brackets):
- every call: exit code 0, a JSON report, every DPG linear solve at a
  relative residual <= SOLVER_TOL, and the trial dof count of the formula
  in `dpg_dofs`;
- pot_solve: e_field / |u|  <= 6e-6 (measured 2.81e-6) [6e-5, 4.39e-5],
             e_flux / |q|   <= 5e-4 (measured 2.37e-4) [3e-3, 1.48e-3];
- conc_expr: max vertex error in fields.vtk <= 4e-2 * A
             (measured 2.0e-2 * A) [1.6e-1 * A, 7.5e-2 * A];
- eoc_sweep: the last eoc_combined of every sweep >= p - 0.2
             (measured 1.17/2.29/3.59 conc, 1.00/2.00/3.00 pot;
  smoke, meshes 8 and 16: the same);
- every sample's output files are byte-identical to the first sample's.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

SOLVER_TOL = 1e-10
DEFAULT_SEED = 1
NAMES = ("pot_solve", "conc_expr", "eoc_sweep")
SWEEPS = [(case, p) for case in ("conc-trig", "pot-trig") for p in (1, 2, 3)]


@dataclass
class Call:
    command: str
    config: dict
    dofs: int                      # expected DPG trial dofs over the call
    check: callable                # (report, outdir) -> list of failures


@dataclass
class Workload:
    name: str
    calls: list = field(default_factory=list)
    params: dict = field(default_factory=dict)

    @property
    def dofs(self) -> int:
        return sum(c.dofs for c in self.calls)


def dpg_dofs(kind: str, n: int, p: int) -> int:
    """Field + flux + trace dofs of an n x n mesh; the potential cases put
    trace dofs on interior and Dirichlet (left side) facets, concentration
    on interior facets only."""
    facets = 2 * n * (n - 1) + (n if kind == "potential" else 0)
    return (n * p + 1) ** 2 + 2 * p * p * n * n + p * facets


def amplitude(seed: int) -> float:
    return random.Random(seed).uniform(0.5, 2.0)


def build(name: str, seed: int = DEFAULT_SEED, smoke: bool = False) -> Workload:
    if name == "pot_solve":
        n, limits = (16, (6e-5, 3e-3)) if smoke else (40, (6e-6, 5e-4))
        cfg = {"manufactured": "pot-trig", "mesh": {"nx": n, "ny": n},
               "discretization": {"p": 2}}
        return Workload(name, [Call("solve", cfg, dpg_dofs("potential", n, 2),
                                          _pot_check(*limits))])
    if name == "conc_expr":
        n, limit = (32, 1.6e-1) if smoke else (64, 4e-2)
        a = amplitude(seed)
        cfg = {"problem": "concentration", "mesh": {"nx": n, "ny": n},
               "discretization": {"p": 1},
               "coefficients": {
                   "D": 0.5, "dt": 0.1, "J": 0,
                   "c_prev": f"{a!r}*(1 + 0.1*pi^2)*cos(pi*x)*cos(pi*y)"}}
        return Workload(name, [Call("solve", cfg, dpg_dofs("concentration", n, 1),
                                          _conc_check(a, limit * a))],
                        {"amplitude": a})
    if name == "eoc_sweep":
        base_n, levels = (8, 2) if smoke else (4, 3)
        calls = []
        for case, p in SWEEPS:
            kind = "concentration" if case.startswith("conc") else "potential"
            cfg = {"manufactured": case, "discretization": {"p": p},
                   "levels": levels, "base_n": base_n, "with_oracle": True}
            dofs = sum(dpg_dofs(kind, base_n * 2 ** k, p) for k in range(levels))
            calls.append(Call("convergence", cfg, dofs, _eoc_check(p)))
        return Workload(name, calls)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


# -- checks ---------------------------------------------------------------

def _pot_check(field_limit: float, flux_limit: float):
    def check(report, outdir):
        e, norms = report["errors"], report["exact_norms"]
        rel_field = e["e_field"] / norms["field"]
        rel_flux = e["e_flux"] / norms["flux"]
        out = []
        if not rel_field <= field_limit:
            out.append(f"relative field error {rel_field:.3e} > {field_limit:.1e}")
        if not rel_flux <= flux_limit:
            out.append(f"relative flux error {rel_flux:.3e} > {flux_limit:.1e}")
        return out
    return check


def _conc_check(a: float, limit: float):
    def check(report, outdir):
        err = max_vertex_error(Path(outdir) / "fields.vtk",
                               lambda x, y: a * math.cos(math.pi * x) * math.cos(math.pi * y))
        if not err <= limit:
            return [f"max vertex error {err:.3e} > {limit:.3e}"]
        return []
    return check


def _eoc_check(p: int):
    def check(report, outdir):
        last = report["eoc_combined"][-1]
        if last is None or not last >= p - 0.2:
            return [f"{report['case']} p={p}: last eoc_combined {last} < {p - 0.2:.1f}"]
        return []
    return check


def max_vertex_error(vtk_path: Path, exact) -> float:
    lines = vtk_path.read_text().splitlines()
    start = next(i for i, s in enumerate(lines) if s.startswith("POINTS "))
    npts = int(lines[start].split()[1])
    points = [tuple(map(float, s.split()[:2])) for s in lines[start + 1:start + 1 + npts]]
    first = next(i for i, s in enumerate(lines) if s.startswith("LOOKUP_TABLE")) + 1
    values = [float(s) for s in lines[first:first + npts]]
    if len(values) != npts:
        raise ValueError("truncated VTK scalar block")
    return max(abs(v - exact(x, y)) for (x, y), v in zip(points, values))


def digest(outdir: Path) -> str:
    """sha256 over every output file of a call, by name."""
    h = hashlib.sha256()
    for path in sorted(Path(outdir).iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def check_call(call: Call, exit_code, stdout: str, outdir: Path,
               solves: list) -> list:
    """Failures of one CLI call; an empty list means it passed."""
    if exit_code != 0:
        return [f"exit code {exit_code}: {stdout.strip()[:200]}"]
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"stdout is not a JSON report: {exc}"]
    if not isinstance(report, dict) or "error" in report:
        return [f"no report: {stdout.strip()[:200]}"]
    out = []
    if not solves:
        out.append("no DPG linear solve recorded")
    for s in solves:
        if not s["relative_residual"] <= SOLVER_TOL:
            out.append(f"relative residual {s['relative_residual']:.3e} > {SOLVER_TOL:g}")
    if call.command == "solve":
        res = report["solver"]["relative_residual"]
        if not res <= SOLVER_TOL:
            out.append(f"report relative_residual {res:.3e} > {SOLVER_TOL:g}")
        dofs = report["dofs"]["total"]
    else:
        dofs = sum(level["dofs"] for level in report["levels"])
    if dofs != call.dofs:
        out.append(f"{dofs} trial dofs, expected {call.dofs}")
    return out + call.check(report, outdir)
