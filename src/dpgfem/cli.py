"""Command-line front end.

Commands: solve, convergence, infsup, bv. Each reads a JSON config and
writes its outputs under --outdir; the run report is also printed to
stdout. Failures print {"error": {"code", "message"}} and exit nonzero.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from dpgfem.fespace import SpaceLayout, build_dofmap
from dpgfem.manufactured import manufactured_case
from dpgfem.mesh import (
    SIDES,
    BoundaryPartition,
    InvalidPartitionError,
    Rectangle,
    build_rect_mesh,
    classify_boundary,
)
from dpgfem.output import (
    write_eoc_csv,
    write_indicators_csv,
    write_infsup_csv,
    write_report_json,
    write_vtk,
)
from dpgfem.problems import (
    ButlerVolmerParams,
    ConcentrationProblem,
    PotentialProblem,
    ProblemValidationError,
    exchange_current,
    robin_coefficients,
)
from dpgfem.solver import SolverError, active_facets, solve_dpg
from dpgfem.verify import eoc_study, error_norms, infsup_constant


class CliError(Exception):
    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError("usage", message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dpgfem", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("solve", "solve one problem and export field, flux, indicators"),
        ("convergence", "mesh-refinement study on a manufactured case"),
        ("infsup", "discrete inf-sup constants across refinements"),
        ("bv", "Butler-Volmer Robin coefficients from cell constants"),
    ):
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", required=True, help="JSON config path")
        cmd.add_argument("--outdir", default="out", help="output directory")
    return parser


def load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError("config", f"cannot read config: {exc}") from None
    try:
        cfg = json.loads(text, parse_int=_json_int)
    except json.JSONDecodeError as exc:
        raise CliError("config", f"config is not valid JSON: {exc.msg} "
                       f"(line {exc.lineno}, column {exc.colno})") from None
    if not isinstance(cfg, dict):
        raise CliError("config", "config root must be a JSON object")
    return cfg


def _json_int(text: str) -> int:
    """Every config number becomes a float; one beyond their range is an error."""
    if math.isinf(float(text)):
        raise CliError("config", f"integer of {len(text)} characters is beyond the float range")
    return int(text)


_PROBLEM_KEYS = {"manufactured", "problem", "coefficients", "boundary", "mesh",
                 "discretization"}
CONFIG_KEYS = {
    "solve": _PROBLEM_KEYS | {"solver_tol"},
    "convergence": {"manufactured", "discretization", "levels", "base_n",
                    "solver_tol", "with_oracle"},
    "infsup": _PROBLEM_KEYS | {"levels", "base_n"},
    "bv": {"bv"},
}
COEFFICIENT_KEYS = {"concentration": {"D", "dt", "c_prev", "J"},
                    "potential": {"kappa", "beta", "Sx", "Sy", "I", "R"}}
BV_REQUIRED = ("k_bv", "F", "R_gas", "T", "c_smax", "c_e", "c_s", "phi_e")
# configs whose trial dof estimate exceeds this are rejected before any
# allocation (see _check_size)
MAX_DOFS = 2_000_000


def _check_keys(block: dict, allowed, where: str) -> None:
    """A key outside `allowed` is a config error, never a silent default."""
    unknown = sorted(set(block) - set(allowed))
    if unknown:
        raise CliError("config", f"unknown {where} key(s): "
                       + ", ".join(map(repr, unknown)) + " (allowed: "
                       + ", ".join(map(repr, sorted(allowed))) + ")")


def _block(cfg: dict, key: str) -> dict:
    block = cfg.get(key, {})
    if not isinstance(block, dict):
        raise CliError("config", f"{key!r} must be an object")
    return block


def _positive_int(block: dict, key: str, default: int) -> int:
    v = block.get(key, default)
    if not isinstance(v, int) or isinstance(v, bool) or v < 1:
        raise CliError("config", f"{key!r} must be a positive integer")
    return v


def layout_from_config(cfg: dict) -> SpaceLayout:
    disc = _block(cfg, "discretization")
    _check_keys(disc, {"p", "delta_p"}, "'discretization'")
    p = _positive_int(disc, "p", 1)
    delta_p = _positive_int(disc, "delta_p", 1)
    try:
        return SpaceLayout(p, delta_p)
    except ValueError as exc:
        raise CliError("config", str(exc)) from None


def tol_from_config(cfg: dict) -> float:
    tol = cfg.get("solver_tol", 1e-10)
    if not isinstance(tol, (int, float)) or isinstance(tol, bool) or not tol > 0:
        raise CliError("config", "'solver_tol' must be a positive number")
    return float(tol)


def partition_from_config(cfg: dict, kind: str) -> BoundaryPartition:
    defaults = (("neumann",) * 4 if kind == "concentration"
                else ("dirichlet", "neumann", "robin", "robin"))
    block = {**dict(zip(SIDES, defaults)), **_block(cfg, "boundary")}
    return BoundaryPartition.from_names(block)


def _mesh_block(cfg: dict) -> dict:
    block = _block(cfg, "mesh")
    _check_keys(block, {"nx", "ny", "x0", "x1", "y0", "y1"}, "'mesh'")
    return block


def mesh_size_from_config(cfg: dict) -> tuple[int, int]:
    block = _mesh_block(cfg)
    return _positive_int(block, "nx", 8), _positive_int(block, "ny", 8)


def _check_size(nx: int, ny: int, p: int) -> None:
    """Reject an nx x ny mesh before anything is allocated when its trial
    dofs exceed MAX_DOFS. The estimate counts the field lattice, the flux
    and a trace on every facet, a bound of the active ones."""
    facets = nx * (ny + 1) + ny * (nx + 1)
    dofs = (nx * p + 1) * (ny * p + 1) + 2 * p * p * nx * ny + p * facets
    if dofs > MAX_DOFS:
        e = len(str(dofs)) - 1              # beyond the float range at nx = 1e200
        raise CliError("config", f"problem too large: about {dofs / 10 ** e:.3g}e+{e:02d} "
                       f"trial dofs on a {nx} x {ny} mesh at p = {p} "
                       f"(limit {MAX_DOFS:,})")


def domain_from_config(cfg: dict) -> Rectangle:
    block = _mesh_block(cfg)
    vals = []
    for key, default in (("x0", 0.0), ("x1", 1.0), ("y0", 0.0), ("y1", 1.0)):
        v = block.get(key, default)
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise CliError("config", f"{key!r} must be a number")
        vals.append(float(v))
    return Rectangle(*vals)


def problem_from_config(cfg: dict):
    """Returns (case_or_None, problem, domain, partition)."""
    name = cfg.get("manufactured")
    if name is not None:
        case = manufactured_case(name)
        return case, case.problem, case.domain, case.partition
    kind = cfg.get("problem")
    coeff = _block(cfg, "coefficients")
    domain = domain_from_config(cfg)
    if isinstance(kind, str) and kind in COEFFICIENT_KEYS:
        _check_keys(coeff, COEFFICIENT_KEYS[kind], f"{kind} 'coefficients'")
    for key, v in coeff.items():
        if isinstance(v, bool) or not isinstance(v, (int, float, str)):
            raise CliError("config", f"coefficient {key!r} must be a number "
                           "or an expression string")
    if kind == "concentration":
        # a time step has no neutral default, and D pairs with it in dt * D
        missing = [key for key in ("D", "dt") if key not in coeff]
        if missing:
            raise CliError("config", "concentration 'coefficients' missing "
                           "key(s): " + ", ".join(map(repr, missing)))
        partition = partition_from_config(cfg, kind)
        problem = ConcentrationProblem(D=coeff["D"], dt=coeff["dt"],
                                       c_prev=coeff.get("c_prev", 0.0),
                                       J=coeff.get("J", 0.0))
    elif kind == "potential":
        partition = partition_from_config(cfg, kind)
        problem = PotentialProblem(kappa=coeff.get("kappa", 1.0),
                                   beta=coeff.get("beta", 1.0),
                                   S=(coeff.get("Sx", 0.0),
                                      coeff.get("Sy", 0.0)),
                                   I=coeff.get("I", 0.0),
                                   R=coeff.get("R", 0.0))
    else:
        raise CliError("config", "'problem' must be 'concentration' or "
                       "'potential' unless 'manufactured' names a case")
    return None, problem, domain, partition


def cmd_solve(cfg: dict, outdir: Path) -> dict:
    case, problem, domain, partition = problem_from_config(cfg)
    nx, ny = mesh_size_from_config(cfg)
    layout = layout_from_config(cfg)
    _check_size(nx, ny, layout.p)
    mesh = classify_boundary(build_rect_mesh(domain, nx, ny), partition)
    solution, info, system = solve_dpg(mesh, problem, layout,
                                       tol=tol_from_config(cfg))
    dofmap = system.dofmap
    report = {
        "command": "solve",
        "problem": problem.kind,
        "mesh": {"nx": nx, "ny": ny, "h": mesh.h_max},
        "discretization": {"p": layout.p, "delta_p": layout.delta_p},
        "dofs": {"field": dofmap.n_field,
                 "flux": dofmap.n_flux,
                 "trace": dofmap.n_total - dofmap.trace_offset,
                 "total": dofmap.n_total},
        "solver": {"method": info.method, "iterations": info.iterations,
                   "relative_residual": info.relative_residual,
                   "levels": info.levels},
        "eta": solution.eta,
    }
    if case is not None:
        norms = error_norms(mesh, dofmap, solution, case)
        report["manufactured"] = case.name
        report["errors"] = {"e_field": norms.e_field, "e_flux": norms.e_flux,
                            "e_trace": norms.e_trace}
        report["exact_norms"] = {"field": norms.norm_field,
                                 "flux": norms.norm_flux,
                                 "trace": norms.norm_trace}
    write_vtk(outdir / "fields.vtk", mesh, dofmap, solution, problem.kind)
    write_indicators_csv(outdir / "indicators.csv", solution)
    write_report_json(outdir / "report.json", report)
    return report


def cmd_convergence(cfg: dict, outdir: Path) -> dict:
    name = cfg.get("manufactured")
    if name is None:
        raise CliError("config", "convergence requires a 'manufactured' case")
    case = manufactured_case(name)
    layout = layout_from_config(cfg)
    levels = _positive_int(cfg, "levels", 4)
    base_n = _positive_int(cfg, "base_n", 8)
    with_oracle = cfg.get("with_oracle", False)
    if not isinstance(with_oracle, bool):
        raise CliError("config", "'with_oracle' must be true or false")
    # finest mesh base_n * 2^(levels-1); capping the shift bounds the work
    finest = base_n << min(levels - 1, 64)
    _check_size(finest, finest, layout.p)
    report = eoc_study(case, layout.p, levels, delta_p=layout.delta_p,
                       base_n=base_n, tol=tol_from_config(cfg),
                       with_oracle=with_oracle)
    out = report.to_json_dict()
    out["command"] = "convergence"
    if with_oracle:
        out["oracle_e_field"] = [r.oracle_e_field for r in report.rows]
    write_eoc_csv(outdir / "eoc.csv", report)
    write_report_json(outdir / "report.json", out)
    return out


def cmd_infsup(cfg: dict, outdir: Path) -> dict:
    _case, problem, domain, partition = problem_from_config(cfg)
    layout = layout_from_config(cfg)
    levels = _positive_int(cfg, "levels", 3)
    base_n = _positive_int(cfg, "base_n", 1)
    finest = base_n << min(levels - 1, 64)
    _check_size(finest, finest, layout.p)
    rows = []
    for lvl in range(levels):
        n = base_n * 2 ** lvl
        mesh = classify_boundary(build_rect_mesh(domain, n, n), partition)
        dofmap = build_dofmap(mesh, layout, active_facets(mesh))
        alpha = infsup_constant(mesh, problem, layout)
        rows.append((lvl, n, dofmap.n_total, alpha))
    ratios = [b[3] / a[3] if a[3] > 0 else None for a, b in zip(rows, rows[1:])]
    report = {
        "command": "infsup",
        "problem": problem.kind,
        "p": layout.p,
        "levels": [{"level": lvl, "n": n, "dofs": d, "alpha": a}
                   for lvl, n, d, a in rows],
        "ratios": ratios,
    }
    write_infsup_csv(outdir / "infsup.csv", rows, ratios)
    write_report_json(outdir / "report.json", report)
    return report


def cmd_bv(cfg: dict, outdir: Path) -> dict:
    block = _block(cfg, "bv")
    _check_keys(block, BV_REQUIRED + ("t_plus", "phi_open"), "'bv'")
    missing = [k for k in BV_REQUIRED if k not in block]
    if missing:
        raise CliError("config", f"bv block missing keys: {', '.join(missing)}")
    numbers = {key: v for key, v in block.items()
               if not (key == "phi_open" and isinstance(v, str))}
    for key, v in numbers.items():
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise CliError("config", f"bv key {key!r} must be a number")
    params = ButlerVolmerParams(k_bv=block["k_bv"], F=block["F"],
                                R_gas=block["R_gas"], T=block["T"],
                                c_smax=block["c_smax"],
                                t_plus=block.get("t_plus", 0.5),
                                phi_open=block.get("phi_open", 0.0))
    # a NaN in `params` failed its checks above; none may reach the report
    for key, v in numbers.items():
        if not math.isfinite(v):
            raise CliError("config", f"bv key {key!r} must be finite")
    I_c = exchange_current(params, block["c_e"], block["c_s"])
    beta, R_load = robin_coefficients(params, block["c_e"], block["c_s"],
                                      block["phi_e"])
    report = {"command": "bv", "I_c": I_c, "beta": beta, "R_load": R_load}
    for key in ("I_c", "beta", "R_load"):
        if not math.isfinite(report[key]):
            raise CliError("config", f"bv result {key!r} is not finite")
    write_report_json(outdir / "report.json", report)
    return report


COMMANDS = {"solve": cmd_solve, "convergence": cmd_convergence,
            "infsup": cmd_infsup, "bv": cmd_bv}


def run(argv) -> int:
    args = build_parser().parse_args(argv)
    cfg = load_config(args.config)
    _check_keys(cfg, CONFIG_KEYS[args.command], f"{args.command!r} config")
    outdir = Path(args.outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError("config", f"cannot create outdir: {exc}") from None
    report = COMMANDS[args.command](cfg, outdir)
    print(json.dumps(report, indent=2, allow_nan=False))
    return 0


def main(argv=None) -> int:
    try:
        return run(sys.argv[1:] if argv is None else argv)
    except CliError as exc:
        _emit_error(exc.code, exc.message)
        return 2 if exc.code == "usage" else 1
    except (ProblemValidationError, InvalidPartitionError) as exc:
        _emit_error("validation", str(exc))
        return 1
    except SolverError as exc:
        _emit_error("solver", str(exc))
        return 1
    except ValueError as exc:
        _emit_error("config", str(exc))
        return 1
    except Exception as exc:  # pragma: no cover - last-resort guard
        _emit_error("internal", f"{type(exc).__name__}: {exc}")
        return 1


def _emit_error(code: str, message: str) -> None:
    print(json.dumps({"error": {"code": code, "message": message}}))


if __name__ == "__main__":
    sys.exit(main())
