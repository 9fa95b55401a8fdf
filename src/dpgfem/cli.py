"""Command-line front end.

Commands: solve, convergence, infsup, bv. Each reads a JSON config and
writes its outputs under --outdir; the run report is also printed to
stdout. Failures print {"error": {"code", "message"}} and exit nonzero.
The messages of the Python warnings a command raises, if any, are listed
under "warnings" in the report or beside the error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import warnings
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
from dpgfem.verify import dofmap_infsup_constant, eoc_study, error_norms


class CliError(Exception):
    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError("usage", message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it
    unchanged, so every call of `run` shares it."""
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
# The kinds of config values, each named by what its error says a value must
# be, with its test of a JSON value. `type` is exact, so a boolean is not a
# number; every number a kind accepts must also be finite (see read_value).
POSITIVE_INT = "a positive integer"
NUMBER = "a number"
POSITIVE = "a positive number"
DATA = "a number or an expression string"
BOOLEAN = "true or false"
_KIND_TESTS = {
    POSITIVE_INT: lambda v: type(v) is int and v > 0,
    NUMBER: lambda v: type(v) in (int, float),
    POSITIVE: lambda v: type(v) in (int, float) and v > 0,
    DATA: lambda v: type(v) in (int, float, str),
    BOOLEAN: lambda v: type(v) is bool,
}
REQUIRED = None                     # the default of a key that has none
# key -> (kind, default) of each config block; the coefficients block is
# read through the table of its problem kind
SCHEMA = {
    "mesh": {"nx": (POSITIVE_INT, 8), "ny": (POSITIVE_INT, 8), "x0": (NUMBER, 0.0),
             "x1": (NUMBER, 1.0), "y0": (NUMBER, 0.0), "y1": (NUMBER, 1.0)},
    "discretization": {"p": (POSITIVE_INT, 1), "delta_p": (POSITIVE_INT, 1)},
    # a time step has no neutral default, and D pairs with it in dt * D
    "concentration": {"D": (NUMBER, REQUIRED), "dt": (NUMBER, REQUIRED),
                      "c_prev": (DATA, 0.0), "J": (DATA, 0.0)},
    "potential": {"kappa": (NUMBER, 1.0), "beta": (DATA, 1.0), "Sx": (DATA, 0.0),
                  "Sy": (DATA, 0.0), "I": (DATA, 0.0), "R": (DATA, 0.0)},
    "bv": {**dict.fromkeys(("k_bv", "F", "R_gas", "T", "c_smax", "c_e", "c_s",
                            "phi_e"), (NUMBER, REQUIRED)),
           "t_plus": (NUMBER, 0.5), "phi_open": (DATA, 0.0)},
}
# how an error names a key of a block
_KEY_PREFIX = {"coefficients": "coefficient ", "bv": "bv key "}
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


def read_value(block: dict, key: str, kind: str, default, prefix: str = ""):
    """block[key], or the default, checked against its kind."""
    v = block.get(key, default)
    if not _KIND_TESTS[kind](v):
        raise CliError("config", f"{prefix}{key!r} must be {kind}")
    if type(v) is float and not math.isfinite(v):
        raise CliError("config", f"{prefix}{key!r} must be finite")
    return v


def read_block(cfg: dict, key: str, table: str | None = None) -> dict:
    """Every key of SCHEMA[table or key], read from the object cfg[key]."""
    block = cfg.get(key, {})
    if not isinstance(block, dict):
        raise CliError("config", f"{key!r} must be an object")
    schema = SCHEMA[table or key]
    where = f"{table} {key!r}" if table else repr(key)
    _check_keys(block, schema, where)
    missing = [k for k, (_, default) in schema.items()
               if default is REQUIRED and k not in block]
    if missing:
        raise CliError("config", f"{where} missing key(s): "
                       + ", ".join(map(repr, missing)))
    return {k: read_value(block, k, kind, default, _KEY_PREFIX.get(key, ""))
            for k, (kind, default) in schema.items()}


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


def problem_from_config(cfg: dict, mesh: dict):
    """Returns (case_or_None, problem, domain, partition); `mesh` is the
    read mesh block, whose domain a manufactured case overrides."""
    name = cfg.get("manufactured")
    if name is not None:
        case = manufactured_case(name)
        return case, case.problem, case.domain, case.partition
    kind = cfg.get("problem")
    if kind not in ("concentration", "potential"):
        raise CliError("config", "'problem' must be 'concentration' or "
                       "'potential' unless 'manufactured' names a case")
    coeff = read_block(cfg, "coefficients", kind)
    domain = Rectangle(*(float(mesh[k]) for k in ("x0", "x1", "y0", "y1")))
    boundary = cfg.get("boundary", {})
    if not isinstance(boundary, dict):
        raise CliError("config", "'boundary' must be an object")
    defaults = (("neumann",) * 4 if kind == "concentration"
                else ("dirichlet", "neumann", "robin", "robin"))
    partition = BoundaryPartition.from_names({**dict(zip(SIDES, defaults)), **boundary})
    if kind == "concentration":
        problem = ConcentrationProblem(**coeff)
    else:
        problem = PotentialProblem(kappa=coeff["kappa"], beta=coeff["beta"],
                                   S=(coeff["Sx"], coeff["Sy"]), I=coeff["I"],
                                   R=coeff["R"])
    return None, problem, domain, partition


def cmd_solve(cfg: dict, outdir: Path) -> dict:
    mesh_cfg = read_block(cfg, "mesh")
    case, problem, domain, partition = problem_from_config(cfg, mesh_cfg)
    nx, ny = mesh_cfg["nx"], mesh_cfg["ny"]
    layout = SpaceLayout(**read_block(cfg, "discretization"))
    tol = read_value(cfg, "solver_tol", POSITIVE, 1e-10)
    _check_size(nx, ny, layout.p)
    mesh = classify_boundary(build_rect_mesh(domain, nx, ny), partition)
    solution, info, system = solve_dpg(mesh, problem, layout, tol=tol)
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
    return report


def cmd_convergence(cfg: dict, outdir: Path) -> dict:
    name = cfg.get("manufactured")
    if name is None:
        raise CliError("config", "convergence requires a 'manufactured' case")
    case = manufactured_case(name)
    layout = SpaceLayout(**read_block(cfg, "discretization"))
    levels = read_value(cfg, "levels", POSITIVE_INT, 4)
    base_n = read_value(cfg, "base_n", POSITIVE_INT, 8)
    tol = read_value(cfg, "solver_tol", POSITIVE, 1e-10)
    with_oracle = read_value(cfg, "with_oracle", BOOLEAN, False)
    # finest mesh base_n * 2^(levels-1); capping the shift bounds the work
    finest = base_n << min(levels - 1, 64)
    _check_size(finest, finest, layout.p)
    report = eoc_study(case, layout.p, levels, delta_p=layout.delta_p,
                       base_n=base_n, tol=tol, with_oracle=with_oracle)
    out = report.to_json_dict()
    out["command"] = "convergence"
    if with_oracle:
        out["oracle_e_field"] = [r.oracle_e_field for r in report.rows]
    write_eoc_csv(outdir / "eoc.csv", report)
    return out


def cmd_infsup(cfg: dict, outdir: Path) -> dict:
    mesh_cfg = read_block(cfg, "mesh")
    _case, problem, domain, partition = problem_from_config(cfg, mesh_cfg)
    layout = SpaceLayout(**read_block(cfg, "discretization"))
    levels = read_value(cfg, "levels", POSITIVE_INT, 3)
    base_n = read_value(cfg, "base_n", POSITIVE_INT, 1)
    finest = base_n << min(levels - 1, 64)
    _check_size(finest, finest, layout.p)
    rows = []
    for lvl in range(levels):
        n = base_n * 2 ** lvl
        mesh = classify_boundary(build_rect_mesh(domain, n, n), partition)
        dofmap = build_dofmap(mesh, layout, active_facets(mesh))
        rows.append((lvl, n, dofmap.n_total, dofmap_infsup_constant(dofmap, problem)))
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
    return report


def cmd_bv(cfg: dict, outdir: Path) -> dict:
    bv = read_block(cfg, "bv")
    c_e, c_s, phi_e = (bv.pop(key) for key in ("c_e", "c_s", "phi_e"))
    params = ButlerVolmerParams(**bv)
    I_c = exchange_current(params, c_e, c_s)
    beta, R_load = robin_coefficients(params, c_e, c_s, phi_e)
    report = {"command": "bv", "I_c": I_c, "beta": beta, "R_load": R_load}
    for key in ("I_c", "beta", "R_load"):
        if not math.isfinite(report[key]):
            raise CliError("config", f"bv result {key!r} is not finite")
    return report


COMMANDS = {"solve": cmd_solve, "convergence": cmd_convergence,
            "infsup": cmd_infsup, "bv": cmd_bv}


def run(argv) -> int:
    """Run one command, print its report or its error as one JSON object,
    and return the exit code. Warnings are recorded, not shown."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            args = build_parser().parse_args(argv)
            cfg = load_config(args.config)
            _check_keys(cfg, CONFIG_KEYS[args.command], f"{args.command!r} config")
            outdir = Path(args.outdir)
            try:
                outdir.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise CliError("config", f"cannot create outdir: {exc}") from None
            out = COMMANDS[args.command](cfg, outdir)
            if caught:
                out["warnings"] = _messages(caught)
            write_report_json(outdir / "report.json", out)
            status = 0
        except CliError as exc:
            out, status = _error(exc.code, exc.message), 2 if exc.code == "usage" else 1
        except (ProblemValidationError, InvalidPartitionError) as exc:
            out, status = _error("validation", str(exc)), 1
        except SolverError as exc:
            out, status = _error("solver", str(exc)), 1
        except ValueError as exc:
            out, status = _error("config", str(exc)), 1
        except Exception as exc:  # pragma: no cover - last-resort guard
            out, status = _error("internal", f"{type(exc).__name__}: {exc}"), 1
        if status and caught:
            out["warnings"] = _messages(caught)
    print(json.dumps(out, indent=None if status else 2, allow_nan=False))
    return status


def _error(code: str, message: str) -> dict:
    return {"error": {"code": code, "message": message}}


def _messages(caught) -> list:
    """The distinct messages of the recorded warnings, in order."""
    return list(dict.fromkeys(str(w.message) for w in caught))


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
