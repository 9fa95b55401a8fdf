"""Verification: error norms (on p + delta_p + 2 Gauss points, one more
than the DPG kernels), trace dual norms, a classical Galerkin oracle,
convergence studies, and inf-sup constants by Lanczos over DPG solves."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dpgfem.dpg import (
    ProblemKernels,
    SolverError,
    coefficient_loads,
    condense_local,
    element_groups,
    geometry_kernels,
)
from dpgfem.fespace import SpaceLayout, build_dofmap
from dpgfem.manufactured import ManufacturedCase, manufactured_case
from dpgfem.mesh import Mesh, build_rect_mesh, classify_boundary
from dpgfem.problems import sample, validate_problem
from dpgfem.solver import (
    _row_lookup,
    active_facets,
    condensed_system,
    dirichlet_field_dofs,
    recover_local,
    solve_dpg,
    solve_spd,
)

INFSUP_STEPS = 1000


def _error_kernels(mesh: Mesh, layout: SpaceLayout):
    """Tabulations for the error measures, with p + delta_p + 2 points."""
    return geometry_kernels(layout, mesh.dx, mesh.dy,
                            layout.default_quad_points + 1)


def field_l2_error(mesh: Mesh, dofmap, coeffs: np.ndarray,
                   exact) -> tuple[float, float]:
    """(L2 error, L2 norm of exact) for the scalar field."""
    geom = _error_kernels(mesh, dofmap.layout)
    pts = geom.vol_points(mesh.element_origin(np.arange(mesh.n_elems)))
    ex = sample(exact, pts, "exact field")
    diff = coeffs[dofmap.elem_field] @ geom.field_val.T - ex
    return (float(np.sqrt(np.sum((diff * diff) @ geom.wvol))),
            float(np.sqrt(np.sum((ex * ex) @ geom.wvol))))


def flux_l2_error(mesh: Mesh, dofmap, flux_coeffs: np.ndarray,
                  exact_flux) -> tuple[float, float]:
    """(L2 error, L2 norm of exact) for the vector flux."""
    layout = dofmap.layout
    geom = _error_kernels(mesh, layout)
    pts = geom.vol_points(mesh.element_origin(np.arange(mesh.n_elems)))
    ex = sample(exact_flux, pts, "exact flux")
    modes = flux_coeffs.reshape(mesh.n_elems, 2, layout.n_flux_scalar)
    diff = np.stack([modes[:, 0] @ geom.flux_val.T,
                     modes[:, 1] @ geom.flux_val.T], axis=-1) - ex
    return (float(np.sqrt(np.sum(np.sum(diff * diff, axis=-1) @ geom.wvol))),
            float(np.sqrt(np.sum(np.sum(ex * ex, axis=-1) @ geom.wvol))))


def project_trace(mesh: Mesh, layout: SpaceLayout, active: np.ndarray,
                  normal_flux) -> np.ndarray:
    """Facetwise L2 projection of a normal-flux function onto the trace space.

    normal_flux is evaluated against each facet's global unit normal, so the
    result is single-valued like the trace unknowns.
    """
    geom = _error_kernels(mesh, layout)
    basis, w = geom.trace_val, geom.line_w
    active = np.sort(np.asarray(active, dtype=np.int64))
    ends = mesh.vertices[mesh.facet_verts[active]]
    pts = ends[:, :1] + geom.edge_t01[None, :, None] * (ends[:, 1:] - ends[:, :1])
    vals = sample(normal_flux, pts, "exact normal flux",
                  mesh.facet_normals[active])
    # the facet length scales the mass matrix and the load alike
    mass = (basis * w[:, None]).T @ basis
    out = np.linalg.solve(mass, ((vals * w) @ basis).T)
    return out.T.ravel()


def skeleton_dual_norm(mesh: Mesh, layout: SpaceLayout, active: np.ndarray,
                       trace_coeffs: np.ndarray) -> float:
    """Discrete dual norm of a trace function over the active skeleton.

    The supremum of <sigma, u> / ||u||_H1 over the broken enriched test
    space equals (c^T C G^-1 C^T c)^(1/2); it is evaluated element by
    element through the block-diagonal Gram. G is the unweighted H1 Gram
    of the geometry, not a problem's weighted test norm, so the measure
    does not depend on the problem data.
    """
    geom = _error_kernels(mesh, layout)
    slot = np.full(mesh.n_facets, -1)
    slot[np.sort(np.asarray(active, dtype=np.int64))] = np.arange(len(active))
    modes = trace_coeffs.reshape(-1, layout.p)
    b = np.zeros((mesh.n_elems, layout.n_enriched))
    for k in range(4):
        s = slot[mesh.elem_facets[:, k]]
        on = s >= 0
        b[on] += modes[s[on]] @ geom.trace_tmpl[k].T
    total = float(np.sum(b * (b @ geom.gram_inv)))
    return float(np.sqrt(max(total, 0.0)))


@dataclass
class ErrorNorms:
    e_field: float
    e_flux: float
    e_trace: float
    norm_field: float
    norm_flux: float
    norm_trace: float


def error_norms(mesh: Mesh, dofmap, solution, case: ManufacturedCase) -> ErrorNorms:
    """Field/flux L2 errors and the trace error in the skeleton dual norm.

    The trace is compared against the facetwise L2 projection of the exact
    normal flux on active facets.
    """
    e_field, n_field = field_l2_error(mesh, dofmap, solution.field,
                                      case.exact_field)
    e_flux, n_flux = flux_l2_error(mesh, dofmap, solution.flux,
                                   case.exact_flux)
    active = dofmap.active_facets
    proj = project_trace(mesh, dofmap.layout, active, case.exact_normal_flux)
    e_trace = skeleton_dual_norm(mesh, dofmap.layout, active,
                                 solution.trace - proj)
    n_trace = skeleton_dual_norm(mesh, dofmap.layout, active, proj)
    return ErrorNorms(e_field, e_flux, e_trace, n_field, n_flux, n_trace)


def classical_galerkin_solve(mesh: Mesh, problem, layout: SpaceLayout,
                             tol: float = 1e-10) -> np.ndarray:
    """Continuous Galerkin solve of the same BVP on the field space alone.

    Concentration: (c, r) + dt (D grad c, grad r) = (c_prev, r) - dt <J, r>.
    Potential: (kappa grad phi, grad zeta) + <beta phi, zeta>_R =
    -(S, grad zeta) - <I, zeta>_N - <R, zeta>_R with phi = 0 on the
    Dirichlet part. An independent discretization used as an oracle; it
    shares with DPG only `coefficient_loads`, called once here against the
    field basis, its `element_groups`, and `condensed_system`, which
    eliminates the interior lattice nodes of each element: at once for all
    elements without a Robin edge, which share one matrix, and for the
    stack of the others.
    Returns the field coefficients.
    """
    geom = geometry_kernels(layout, mesh.dx, mesh.dy)
    dofmap = build_dofmap(mesh, layout, np.empty(0, dtype=np.int64))
    w = geom.wvol[:, None]
    mass = (geom.field_val * w).T @ geom.field_val
    stiff = ((geom.field_gx * w).T @ geom.field_gx
             + (geom.field_gy * w).T @ geom.field_gy)
    if problem.kind == "concentration":
        S_shared = mass + problem.dt * problem.D * stiff
    else:
        S_shared = problem.kappa * stiff

    load, (rows, robin), _ = coefficient_loads(
        mesh, problem, geom, geom.field_val, geom.field_edge,
        (geom.field_gx, geom.field_gy))
    systems = [(elems, dofmap.elem_field[elems],
                S_shared if rows[elems[0]] < 0 else S_shared + robin[rows[elems]], load[elems])
               for elems in element_groups(rows)]
    system = condensed_system(dofmap, problem.kind, systems)
    return recover_local(system, solve_spd(system, tol)[0])[:dofmap.n_field]


@dataclass
class EocRow:
    level: int
    n: int
    h: float
    dofs: int
    e_field: float
    e_flux: float
    e_trace: float
    eta: float
    iterations: int
    oracle_e_field: float | None = None
    # true when the trial space contains the exact solution, so errors sit
    # at the solver-tolerance floor; rates from such rows are meaningless
    floor: bool = False

    @property
    def e_combined(self) -> float:
        return float(np.hypot(self.e_field, self.e_flux))


@dataclass
class EocReport:
    """Mesh-refinement study; rates are log2 ratios of consecutive levels.

    No wall-clock data is kept, so identical configs yield bit-identical
    CSV/JSON output files.
    """

    case: str
    p: int
    delta_p: int
    rows: list

    def _rates(self, getter) -> list:
        v = [getter(r) for r in self.rows]
        return [None, *(float(np.log2(a / b)) if a > 0 and b > 0 else None
                        for a, b in zip(v, v[1:]))][:len(v)]

    def eoc_field(self):
        return self._rates(lambda r: r.e_field)

    def eoc_flux(self):
        return self._rates(lambda r: r.e_flux)

    def eoc_combined(self):
        return self._rates(lambda r: r.e_combined)

    def eoc_eta(self):
        return self._rates(lambda r: r.eta)

    def to_csv_text(self) -> str:
        lines = ["level,n,h,dofs,e_field,e_flux,e_trace,eta,"
                 "eoc_field,eoc_flux,eoc_combined,eoc_eta"]
        for r, eocs in zip(self.rows, zip(self.eoc_field(), self.eoc_flux(),
                                          self.eoc_combined(), self.eoc_eta())):
            rates = ",".join("" if v is None else repr(v) for v in eocs)
            lines.append(f"{r.level},{r.n},{r.h!r},{r.dofs},{r.e_field!r},"
                         f"{r.e_flux!r},{r.e_trace!r},{r.eta!r},{rates}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "case": self.case,
            "p": self.p,
            "delta_p": self.delta_p,
            "levels": [
                {"level": r.level, "n": r.n, "h": r.h, "dofs": r.dofs,
                 "e_field": r.e_field, "e_flux": r.e_flux,
                 "e_trace": r.e_trace, "eta": r.eta,
                 "iterations": r.iterations, "floor": r.floor}
                for r in self.rows
            ],
            "eoc_field": self.eoc_field(),
            "eoc_flux": self.eoc_flux(),
            "eoc_combined": self.eoc_combined(),
            "eoc_eta": self.eoc_eta(),
        }


def case_mesh(case: ManufacturedCase, n: int) -> Mesh:
    return classify_boundary(build_rect_mesh(case.domain, n, n), case.partition)


def eoc_study(case, p: int, levels: int, delta_p: int = 1, base_n: int = 8,
              tol: float = 1e-10, with_oracle: bool = False) -> EocReport:
    """Solve a manufactured case on base_n, 2*base_n, ... meshes."""
    if isinstance(case, str):
        case = manufactured_case(case)
    layout = SpaceLayout(p, delta_p)
    floor = case.poly_degree is not None and case.poly_degree <= p
    rows = []
    for lvl in range(levels):
        n = base_n * 2 ** lvl
        mesh = case_mesh(case, n)
        solution, info, system = solve_dpg(mesh, case.problem, layout, tol=tol)
        norms = error_norms(mesh, system.dofmap, solution, case)
        oracle = None
        if with_oracle:
            gal = classical_galerkin_solve(mesh, case.problem, layout, tol)
            oracle = field_l2_error(mesh, system.dofmap, gal,
                                    case.exact_field)[0]
        rows.append(EocRow(lvl, n, mesh.h_max, system.dofmap.n_total,
                           norms.e_field, norms.e_flux, norms.e_trace,
                           solution.eta, info.iterations, oracle, floor))
    return EocReport(case.name, p, delta_p, rows)


def infsup_constant(mesh: Mesh, problem, layout: SpaceLayout) -> float:
    """`dofmap_infsup_constant` on the DPG trial space of the mesh."""
    return dofmap_infsup_constant(build_dofmap(mesh, layout, active_facets(mesh)), problem)


def dofmap_infsup_constant(dofmap, problem) -> float:
    """Discrete inf-sup constant sqrt(lambda), lambda the smallest eigenvalue
    of the pencil of the DPG matrix A and the trial Gram M (H1 field, L2
    flux, trace dual norm C^T G^-1 C) over the free trial dofs. Lanczos on
    A^-1 M in the M inner product (Saad 2011), from a fixed start and
    without reorthogonalization, finds 1/lambda; A^-1 is a DPG run's solve
    with the element rows of M v as loads. It stops at a Ritz residual of
    1e-8 times the value; SolverError after INFSUP_STEPS steps."""
    mesh, geom = dofmap.mesh, geometry_kernels(dofmap.layout, dofmap.mesh.dx, dofmap.mesh.dy)
    validate_problem(problem, mesh)
    kernels = ProblemKernels(geom, problem, mesh)
    S = [condense_local(kernels.local_system(elems))[0] for elems in kernels.groups]
    if not all(np.isfinite(s).all() for s in S):
        raise SolverError("non-finite DPG matrix in the inf-sup eigensolve")
    free = np.setdiff1d(np.arange(dofmap.n_total), dirichlet_field_dofs(mesh, dofmap))
    # each element's rows, group by group; an absent or Dirichlet dof has none
    rows = _row_lookup(free, dofmap.n_total)[dofmap.elem_dofs[np.concatenate(kernels.groups)]]
    ends = np.cumsum([0] + [elems.size for elems in kernels.groups])
    wq, C = geom.wvol[:, None], np.hstack(geom.trace_tmpl)
    blocks = [sum((f * wq).T @ f for f in (geom.field_val, geom.field_gx, geom.field_gy)),
              *[(geom.flux_val * wq).T @ geom.flux_val] * 2, C.T @ geom.gram_inv @ C]
    at = np.cumsum([0] + [len(block) for block in blocks])
    gram = sum(np.pad(block, (lo, at[-1] - hi)) for block, lo, hi in zip(blocks, at, at[1:]))

    def loads(v):                       # the element rows of M v
        return np.append(v, 0.0)[rows] @ gram

    def dot(u, loads_v):                # u^T M v; an overflow is a SolverError
        with np.errstate(over="ignore", invalid="ignore"):
            value = float(np.sum(np.append(u, 0.0)[rows] * loads_v))
        if not np.isfinite(value):
            raise SolverError("non-finite M inner product in the inf-sup eigensolve")
        return value

    def solve(loads_v):                 # A^-1 M v
        system = condensed_system(dofmap, problem.kind, [
            (elems, dofmap.elem_dofs[elems], s, loads_v[lo:hi])
            for elems, s, lo, hi in zip(kernels.groups, S, ends, ends[1:])])
        return recover_local(system, solve_spd(system)[0])[free]

    q = np.random.default_rng(0).standard_normal(free.size)
    q /= dot(q, loads(q)) ** 0.5
    q_prev, Mq, b, diag, off = 0.0 * q, loads(q), 0.0, [], []
    for k in range(1, INFSUP_STEPS + 1):
        w = solve(Mq)
        diag.append(dot(w, Mq))
        w -= diag[-1] * q + b * q_prev
        Mw = loads(w)
        b = max(dot(w, Mw), 0.0) ** 0.5
        off.append(b)
        # the k x k eigenproblem costs k^3: solved every k/16 steps, at most 16 apart
        if k % max(1, k // 16) == 0 or b == 0.0:
            T = np.diag(diag) + np.diag(off[:-1], 1) + np.diag(off[:-1], -1)
            mu, vecs = np.linalg.eigh(T)
            if b * abs(vecs[-1, -1]) <= 1e-8 * mu[-1]:
                return float(np.sqrt(1.0 / mu[-1]))
        q_prev, q, Mq = q, w / b, Mw / b
    raise SolverError("not SPD / no convergence: the inf-sup eigen-iteration did not "
                      f"converge in {INFSUP_STEPS} Lanczos steps")
