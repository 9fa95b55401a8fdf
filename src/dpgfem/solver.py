"""Global assembly, essential boundary conditions, SPD solve, extraction.

Local/skeleton split. The flux unknowns are element-local (broken L2)
and the interior nodes of an element's field lattice (1 <= ix, iy <= p-1)
couple only within that element. These local unknowns L are eliminated
group by group before the scatter: from the element system S u = r of
`condense_local`, assembly forms the Schur complement
S_GG - S_GL S_LL^-1 S_LG and the load r_G - S_GL S_LL^-1 r_L over the
element's skeleton unknowns G (the field nodes on element edges and the
traces). A group that shares S needs one Cholesky factor of S_LL; Robin
groups, whose S is stacked per element, take one batched solve. The
global matrix therefore lives on the skeleton dofs only;
`GlobalSystem.skeleton` maps its rows to the full numbering (field,
flux, trace), and is ascending.

Back-substitution. After the skeleton solve, `recover_local` sets the
local unknowns of every element to u_L = S_LL^-1 r_L - S_LL^-1 S_LG u_G,
so the indicators and the outputs see the full coefficient vector.

Assembly walks the element groups of the dof map in order; repeated runs
produce bit-identical systems. Dirichlet field dofs (potential problem),
which are never local, are eliminated symmetrically from the skeleton
system: rows and columns zeroed, unit diagonal, zero right-hand side.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from dpgfem.dpg import ProblemKernels, condense_local, error_indicator, geometry_kernels
from dpgfem.fespace import DofMap, SpaceLayout, build_dofmap
from dpgfem.mesh import FacetTag, Mesh
from dpgfem.problems import validate_problem

DENSE_LIMIT = 1000


class SolverError(RuntimeError):
    pass


@dataclass
class LocalSolve:
    """Back-substitution data of one element group: u_L = y - X u_G.

    local, skeleton: (n, n_L) and (n, n_G) full dofs of the group's local
        and skeleton unknowns.
    X: S_LL^-1 S_LG, (n_L x n_G) when shared by the group, else stacked
        per element (n x n_L x n_G).
    y: S_LL^-1 r_L per element (n x n_L).
    """

    local: np.ndarray
    skeleton: np.ndarray
    X: np.ndarray
    y: np.ndarray


@dataclass
class GlobalSystem:
    """The linear system handed to `solve_spd`.

    matrix, rhs: over the skeleton dofs when built by `assemble`.
    constrained: Dirichlet field dofs in the full numbering.
    skeleton: full dof of each row of matrix (ascending); None when the
        rows are the full numbering.
    local: one LocalSolve per element group.
    """

    matrix: sp.csr_matrix
    rhs: np.ndarray
    dofmap: DofMap
    constrained: np.ndarray
    skeleton: np.ndarray | None = None
    local: list = field(default_factory=list)


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


def skeleton_dofs(dofmap: DofMap) -> np.ndarray:
    """Full dofs that stay in the global system, ascending: the field
    lattice nodes on element edges, then every trace dof."""
    p = dofmap.layout.p
    nxp, nyp = dofmap.field_lattice_shape()
    inside = (np.arange(nyp) % p != 0)[:, None] & (np.arange(nxp) % p != 0)
    return np.concatenate([np.flatnonzero(~inside.ravel()),
                           np.arange(dofmap.trace_offset, dofmap.n_total)])


def _local_columns(layout: SpaceLayout, n_trial: int):
    """Local trial columns (interior lattice nodes, then the flux) and the
    remaining skeleton columns of an element system."""
    p, nf = layout.p, layout.n_field_local
    lattice = np.arange(nf).reshape(p + 1, p + 1)
    local = np.concatenate([lattice[1:p, 1:p].ravel(),
                            np.arange(nf, nf + layout.n_flux_local)])
    return local, np.setdiff1d(np.arange(n_trial), local)


def _condense_group(S: np.ndarray, r: np.ndarray, L: np.ndarray, G: np.ndarray):
    """Eliminate the local columns L of a group's element systems.

    Returns the Schur complement over G (shared or stacked, like S), the
    condensed loads (n x n_G), and X = S_LL^-1 S_LG and y = S_LL^-1 r_L
    for the back-substitution.
    """
    bad_s = int(np.count_nonzero(~np.isfinite(S)))
    bad_r = int(np.count_nonzero(~np.isfinite(r)))
    if bad_s or bad_r:
        raise SolverError(f"non-finite system: {bad_s} element-matrix and "
                          f"{bad_r} element-load entries are inf or NaN")
    S_LL = S[..., L[:, None], L]
    S_LG = S[..., L[:, None], G]
    S_GG = S[..., G[:, None], G]
    try:
        if S.ndim == 2:
            factor = scipy.linalg.cho_factor(S_LL, lower=True)
            Xy = scipy.linalg.cho_solve(factor, np.hstack([S_LG, r[:, L].T]))
            X, y = Xy[:, :G.size], Xy[:, G.size:].T
        else:
            Xy = np.linalg.solve(S_LL, np.concatenate([S_LG, r[:, L, None]], axis=-1))
            X, y = Xy[..., :G.size], Xy[..., G.size]
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"not SPD / no convergence: local block: {exc}") from None
    S_GL = np.swapaxes(S_LG, -1, -2)
    S_c = S_GG - S_GL @ X
    S_c = 0.5 * (S_c + np.swapaxes(S_c, -1, -2))
    r_c = r[:, G] - (y[:, None, :] @ S_LG)[:, 0]
    return S_c, r_c, X, y


def assemble(mesh: Mesh, dofmap: DofMap, problem) -> GlobalSystem:
    layout = dofmap.layout
    geom = geometry_kernels(layout, mesh.dx, mesh.dy)
    kernels = ProblemKernels(geom, problem)
    skeleton = skeleton_dofs(dofmap)
    n = skeleton.size
    rows, cols, vals = [], [], []
    rhs = np.zeros(n)
    local = []
    for group in dofmap.element_groups():
        S, r = condense_local(kernels.local_system(mesh, group))
        L, G = _local_columns(layout, r.shape[1])
        S_c, r_c, X, y = _condense_group(S, r, L, G)
        local.append(LocalSolve(group.dofs[:, L], group.dofs[:, G], X, y))
        dofs = np.searchsorted(skeleton, group.dofs[:, G]).astype(np.int32)
        n_g, m = dofs.shape
        rows.append(np.repeat(dofs, m, axis=1).ravel())
        cols.append(np.tile(dofs, m).ravel())
        vals.append(np.broadcast_to(S_c, (n_g, m, m)).ravel())
        np.add.at(rhs, dofs, r_c)
    matrix = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n)).tocsr()

    constrained = np.empty(0, dtype=np.int64)
    if problem.kind == "potential":
        constrained = dirichlet_field_dofs(mesh, dofmap)
    if constrained.size:
        matrix = eliminate_dofs(matrix, rhs, np.searchsorted(skeleton, constrained))
    matrix.sort_indices()
    return GlobalSystem(matrix, rhs, dofmap, constrained, skeleton, local)


def recover_local(system: GlobalSystem, x: np.ndarray) -> np.ndarray:
    """Full coefficient vector from the skeleton solution x."""
    coeffs = np.zeros(system.dofmap.n_total)
    coeffs[system.skeleton] = x
    for ls in system.local:
        u_G = coeffs[ls.skeleton]
        coeffs[ls.local] = ls.y - (ls.X @ u_G[:, :, None])[:, :, 0]
    return coeffs


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
        # one n x n array: equilibrated and factored in place
        d = 1.0 / np.sqrt(diag)
        As = A.toarray(order="F")
        As *= d[:, None]
        As *= d[None, :]
        try:
            factor = scipy.linalg.cho_factor(As, lower=True, overwrite_a=True)
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
    """Assemble the skeleton system, solve it, recover the local unknowns
    and compute the indicators of one DPG run.

    Returns (Solution, SolveInfo, GlobalSystem).
    """
    validate_problem(problem, mesh)
    dofmap = build_dofmap(mesh, layout, active_facets(mesh, problem))
    system = assemble(mesh, dofmap, problem)
    x, info = solve_spd(system, tol)
    coeffs = recover_local(system, x)
    indicators = compute_indicators(mesh, dofmap, problem, coeffs)
    return extract_solution(coeffs, dofmap, indicators), info, system
