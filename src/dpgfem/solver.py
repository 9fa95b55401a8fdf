"""Global assembly, essential boundary conditions, SPD solve, extraction.

Assembly walks the element groups of the dof map in order and
scatter-adds the condensed element matrices of each group; repeated runs
produce bit-identical systems. Dirichlet field dofs (potential problem)
are eliminated symmetrically: rows and columns zeroed, unit diagonal,
zero right-hand side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from dpgfem.dpg import ProblemKernels, condense_local, error_indicator, geometry_kernels
from dpgfem.fespace import DofMap, SpaceLayout, build_dofmap
from dpgfem.mesh import FacetTag, Mesh
from dpgfem.problems import validate_problem

DENSE_LIMIT = 2000


class SolverError(RuntimeError):
    pass


@dataclass
class GlobalSystem:
    matrix: sp.csr_matrix
    rhs: np.ndarray
    dofmap: DofMap
    constrained: np.ndarray


@dataclass
class SolveInfo:
    method: str
    iterations: int
    relative_residual: float


@dataclass
class Solution:
    field: np.ndarray
    flux: np.ndarray
    trace: np.ndarray
    indicators: np.ndarray      # (n_elems, 2): eta_sq_riesz, eta_sq_fosls
    eta: float


def active_facets(mesh: Mesh, problem) -> np.ndarray:
    """Facets carrying trace unknowns.

    Concentration: interior facets (the flux datum J sits in the load).
    Potential: interior plus Dirichlet facets; Neumann/Robin data sit in
    the load, so those facets carry none.
    """
    interior = mesh.interior_facets()
    if problem.kind == "concentration":
        return interior
    dirichlet = mesh.facets_with_tag(FacetTag.DIRICHLET)
    return np.sort(np.concatenate([interior, dirichlet]))


def dirichlet_field_dofs(mesh: Mesh, dofmap: DofMap) -> np.ndarray:
    """Global field dofs on Dirichlet boundary facets."""
    p = dofmap.layout.p
    lattice = np.arange((p + 1) ** 2).reshape(p + 1, p + 1)     # [iy, ix]
    edge_dofs = np.stack([lattice[:, 0], lattice[:, p], lattice[0], lattice[p]])
    facets = mesh.facets_with_tag(FacetTag.DIRICHLET)
    elems = mesh.facet_elems[facets, 0]
    edges = np.argmax(mesh.elem_facets[elems] == facets[:, None], axis=1)
    return np.unique(dofmap.elem_field[elems[:, None], edge_dofs[edges]])


def eliminate_dofs(matrix: sp.spmatrix, rhs: np.ndarray,
                   constrained: np.ndarray) -> sp.csr_matrix:
    """Symmetric elimination of the constrained dofs (homogeneous data):
    their rows and columns are zeroed, the diagonal set to one and the
    right-hand side entries (changed in place) to zero."""
    keep = np.ones(matrix.shape[0])
    keep[constrained] = 0.0
    P = sp.diags(keep)
    rhs[constrained] = 0.0
    return (P @ matrix @ P + sp.diags(1.0 - keep)).tocsr()


def assemble(mesh: Mesh, dofmap: DofMap, problem) -> GlobalSystem:
    layout = dofmap.layout
    geom = geometry_kernels(layout, mesh.dx, mesh.dy)
    kernels = ProblemKernels(geom, problem)
    n = dofmap.n_total
    rows, cols, vals = [], [], []
    rhs = np.zeros(n)
    for group in dofmap.element_groups():
        S, r = condense_local(kernels.local_system(mesh, group))
        dofs = group.dofs.astype(np.int32)
        n_g, m = dofs.shape
        rows.append(np.repeat(dofs, m, axis=1).ravel())
        cols.append(np.tile(dofs, m).ravel())
        vals.append(np.broadcast_to(S, (n_g, m, m)).ravel())
        np.add.at(rhs, dofs, r)
    matrix = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n)).tocsr()

    constrained = np.empty(0, dtype=np.int64)
    if problem.kind == "potential":
        constrained = dirichlet_field_dofs(mesh, dofmap)
    if constrained.size:
        matrix = eliminate_dofs(matrix, rhs, constrained)
    matrix.sort_indices()
    return GlobalSystem(matrix, rhs, dofmap, constrained)


def solve_spd(system: GlobalSystem, tol: float = 1e-10):
    """Solve the SPD system; dense Cholesky for small n, else diagonal-PCG.

    Returns (coefficients, SolveInfo). A system with inf or NaN entries
    raises SolverError before either path. Jacobi equilibration is applied
    on the dense path as well, so heavily weighted Robin terms do not
    degrade the factorization.
    """
    A, b = system.matrix, system.rhs
    bad_a = int(np.count_nonzero(~np.isfinite(A.data)))
    bad_b = int(np.count_nonzero(~np.isfinite(b)))
    if bad_a or bad_b:
        raise SolverError(f"non-finite system: {bad_a} matrix and {bad_b} "
                          "right-hand-side entries are inf or NaN")
    n = A.shape[0]
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(n), SolveInfo("trivial", 0, 0.0)

    diag = A.diagonal()
    if np.any(diag <= 0):
        raise SolverError("not SPD / no convergence: nonpositive diagonal entry")

    if n <= DENSE_LIMIT:
        d = 1.0 / np.sqrt(diag)
        As = (A.toarray() * d[:, None]) * d[None, :]
        try:
            factor = scipy.linalg.cho_factor(As, lower=True)
        except scipy.linalg.LinAlgError as exc:
            raise SolverError(f"not SPD / no convergence: {exc}") from None
        x = d * scipy.linalg.cho_solve(factor, d * b)
        res = float(np.linalg.norm(b - A @ x)) / bnorm
        return x, SolveInfo("dense", 0, res)

    minv = 1.0 / diag
    x = np.zeros(n)
    r = b.copy()
    z = minv * r
    p = z.copy()
    rz = float(r @ z)
    max_iter = 10 * n
    for it in range(1, max_iter + 1):
        Ap = A @ p
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            raise SolverError("not SPD / no convergence: negative curvature")
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        rnorm = float(np.linalg.norm(r))
        if rnorm <= tol * bnorm:
            return x, SolveInfo("pcg", it, rnorm / bnorm)
        z = minv * r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise SolverError(f"not SPD / no convergence: {max_iter} iterations exceeded")


def compute_indicators(mesh: Mesh, dofmap: DofMap, problem,
                       coeffs: np.ndarray) -> np.ndarray:
    geom = geometry_kernels(dofmap.layout, mesh.dx, mesh.dy)
    kernels = ProblemKernels(geom, problem)
    out = np.empty((mesh.n_elems, 2))
    for group in dofmap.element_groups():
        out[group.elems] = error_indicator(kernels.local_system(mesh, group),
                                           coeffs[group.dofs])
    return out


def extract_solution(coeffs: np.ndarray, dofmap: DofMap,
                     indicators: np.ndarray) -> Solution:
    if coeffs.shape[0] != dofmap.n_total:
        raise ValueError(f"coefficient vector has size {coeffs.shape[0]}, "
                         f"dofmap expects {dofmap.n_total}")
    indicators = np.asarray(indicators, dtype=float).reshape(-1, 2)
    if indicators.shape[0] != dofmap.mesh.n_elems:
        raise ValueError("indicator array does not match element count")
    eta = float(np.sqrt(indicators.sum()))
    return Solution(
        field=coeffs[:dofmap.n_field].copy(),
        flux=coeffs[dofmap.flux_offset:dofmap.trace_offset].copy(),
        trace=coeffs[dofmap.trace_offset:].copy(),
        indicators=indicators,
        eta=eta,
    )


def solve_dpg(mesh: Mesh, problem, layout: SpaceLayout, tol: float = 1e-10):
    """Assemble, solve, and post-process one DPG run.

    Returns (Solution, SolveInfo, GlobalSystem).
    """
    validate_problem(problem, mesh)
    dofmap = build_dofmap(mesh, layout, active_facets(mesh, problem))
    system = assemble(mesh, dofmap, problem)
    coeffs, info = solve_spd(system, tol)
    indicators = compute_indicators(mesh, dofmap, problem, coeffs)
    return extract_solution(coeffs, dofmap, indicators), info, system
