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

Linear solve. `solve_spd` factors systems of at most DENSE_LIMIT rows
densely. Larger ones run CG preconditioned by one geometric multigrid
V(1,1)-cycle per iteration, whose iteration count stays flat under
refinement, where diagonal PCG grows like h^-1. The first iteration that
uses it follows the problem kind the system was assembled from
(`GlobalSystem.kind`): a potential system starts on the V-cycle, while a
concentration step, which the diagonal alone usually finishes, first
spends JACOBI_ITERATIONS diagonal iterations (see `solve_spd`).

Hierarchy (`Multigrid`). The mesh is halved while both nx and ny are
even, down to 1 x 1 on power-of-two meshes. The rows of a coarse
level are the coarse mesh's skeleton dofs; a coarse facet carries traces
when its fine halves do. The prolongation P interpolates along coarse
edges (field nodes by degree-p Lagrange interpolation on the
Gauss-Lobatto nodes, traces by restricting the coarse facet's degree
p-1 trace to each half), and sets the fine rows strictly inside a coarse
element to the A-harmonic extension -A_II^-1 A_IE of those edge values.
The Dirichlet rows of either level are zero in P, and the Galerkin
coarse matrix P^T A P gets a unit diagonal on the coarse ones. The
coarsest level is factored densely when it has at most DENSE_LIMIT rows;
otherwise (a large odd mesh) it is smoothed only.

Smoother. Additive Schwarz over vertex patches: a patch holds the rows
located strictly inside the vertex's elements (a facet's traces sit at
its midpoint), with one batched inverse per level. Patches of vertices
with the same index parity share no element, so the patches are
4-colourable, the undamped Schwarz operator M^-1 A has lambda_max <= 4,
and the damping 0.4 keeps 0.4 * 4 < 2. The smoother therefore converges
in the A-norm, which makes the symmetric V-cycle positive definite
(Gopalakrishnan & Schoeberl 2014; Petrides & Demkowicz 2021).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from dpgfem.dpg import ProblemKernels, condense_local, error_indicator, geometry_kernels
from dpgfem.fespace import (
    DofMap,
    SpaceLayout,
    build_dofmap,
    gauss_lobatto_nodes,
    lagrange_1d,
)
from dpgfem.mesh import FacetTag, Mesh, build_rect_mesh
from dpgfem.problems import validate_problem

DENSE_LIMIT = 1000
JACOBI_ITERATIONS = 300
DAMPING = 0.4


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
    kind: the problem kind the system was assembled from ("concentration"
        or "potential"); None for a hand-built system.
    """

    matrix: sp.csr_matrix
    rhs: np.ndarray
    dofmap: DofMap
    constrained: np.ndarray
    skeleton: np.ndarray | None = None
    local: list = field(default_factory=list)
    kind: str | None = None


@dataclass
class SolveInfo:
    """method: "trivial", "dense" or "pcg"; iterations count both CG
    phases; levels: row count of each multigrid level, [] when no
    hierarchy was built."""

    method: str
    iterations: int
    relative_residual: float
    levels: list = field(default_factory=list)


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
    return GlobalSystem(matrix, rhs, dofmap, constrained, skeleton, local,
                        problem.kind)


def recover_local(system: GlobalSystem, x: np.ndarray) -> np.ndarray:
    """Full coefficient vector from the skeleton solution x."""
    coeffs = np.zeros(system.dofmap.n_total)
    coeffs[system.skeleton] = x
    for ls in system.local:
        u_G = coeffs[ls.skeleton]
        coeffs[ls.local] = ls.y - (ls.X @ u_G[:, :, None])[:, :, 0]
    return coeffs


def _dense_factor(A: sp.csr_matrix):
    """Jacobi-equilibrated dense Cholesky factor of A, held in one n x n
    array factored in place; the equilibration keeps heavily weighted
    Robin terms from degrading the factorization."""
    d = 1.0 / np.sqrt(A.diagonal())
    As = A.toarray(order="F")
    As *= d[:, None]
    As *= d[None, :]
    try:
        return d, scipy.linalg.cho_factor(As, lower=True, overwrite_a=True)
    except scipy.linalg.LinAlgError as exc:
        raise SolverError(f"not SPD / no convergence: {exc}") from None


def _dense_solve(dense, b: np.ndarray) -> np.ndarray:
    d, factor = dense
    return d * scipy.linalg.cho_solve(factor, d * b)


def _facet_site(mesh: Mesh, f: np.ndarray):
    """(vertical, i, j) of facets f: orientation and lower-end vertex, in
    the numbering of `build_rect_mesh` (vertical facets first)."""
    n_vert = (mesh.nx + 1) * mesh.ny
    vertical = f < n_vert
    g = np.where(vertical, f, f - n_vert)
    width = np.where(vertical, mesh.nx + 1, mesh.nx)
    return vertical, g % width, g // width


def _facet_id(mesh: Mesh, vertical: np.ndarray, i: np.ndarray, j: np.ndarray):
    """Inverse of `_facet_site`."""
    n_vert = (mesh.nx + 1) * mesh.ny
    return np.where(vertical, j * (mesh.nx + 1) + i, n_vert + j * mesh.nx + i)


def _sites(dofmap: DofMap, rows: np.ndarray):
    """Site of each row in half-lattice units, (U, V) = twice the field
    lattice coordinates of a field node or of its facet's midpoint for a
    trace, and the trace mode (-1 on field rows)."""
    p = dofmap.layout.p
    nxp, _ = dofmap.field_lattice_shape()
    trace = rows >= dofmap.trace_offset
    U, V = 2 * (rows % nxp), 2 * (rows // nxp)
    mode = np.full(rows.size, -1)
    t = rows[trace] - dofmap.trace_offset
    vertical, i, j = _facet_site(dofmap.mesh, dofmap.active_facets[t // p])
    U[trace] = 2 * p * i + np.where(vertical, 0, p)
    V[trace] = 2 * p * j + np.where(vertical, p, 0)
    mode[trace] = t % p
    return U, V, mode


def _dense_blocks(A: sp.csr_matrix, idx: np.ndarray) -> np.ndarray:
    """A[idx[b][:, None], idx[b]] for every row b of idx; the padding index
    n = A.shape[0] reads as an identity row and column. The lookup runs
    over chunks of 64 blocks, which bounds its temporary arrays."""
    n = A.shape[0]
    keys = np.repeat(np.arange(n, dtype=np.int64) * (n + 1), np.diff(A.indptr))
    keys += A.indices                           # ascending: A is canonical
    blocks = np.empty(idx.shape + idx.shape[-1:])
    for c in range(0, idx.shape[0], 64):
        chunk = idx[c:c + 64]
        query = chunk[:, :, None] * (n + 1) + chunk[:, None, :]
        pos = np.minimum(np.searchsorted(keys, query), keys.size - 1)
        blocks[c:c + 64] = np.where(keys[pos] == query, A.data[pos], 0.0)
    b, s = np.nonzero(idx == n)
    blocks[b, s, s] = 1.0
    return blocks


def _block_inverses(A: sp.csr_matrix, idx: np.ndarray, what: str) -> np.ndarray:
    """Inverses L^-T L^-1 of the SPD blocks _dense_blocks(A, idx), exactly
    symmetric. Each Cholesky factor L is overwritten by L^-1, by forward
    substitution across the whole stack row by row, which beats one LAPACK
    call per small block and holds two stacks at a time, not four."""
    try:
        L = np.linalg.cholesky(_dense_blocks(A, idx))
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"not SPD / no convergence: {what}: {exc}") from None
    for i in range(L.shape[-1]):
        # rows < i of L already hold L^-1
        row = -np.einsum("bk,bkj->bj", L[:, i, :i], L[:, :i])
        row[:, i] += 1.0
        L[:, i] = row / L[:, i, i, None]
    return np.swapaxes(L, -1, -2) @ L


def _patches(dofmap: DofMap, rows: np.ndarray) -> np.ndarray:
    """Rows of each vertex patch (one per mesh vertex), padded with
    rows.size: the rows whose site lies strictly inside the vertex's
    elements."""
    mesh, h = dofmap.mesh, 2 * dofmap.layout.p
    U, V, _ = _sites(dofmap, rows)
    members, verts = [], []
    for da in (0, 1):
        for db in (0, 1):
            ok = ((da == 0) | (U % h != 0)) & ((db == 0) | (V % h != 0))
            members.append(np.flatnonzero(ok))
            verts.append(((V // h + db) * (mesh.nx + 1) + U // h + da)[ok])
    members, verts = np.concatenate(members), np.concatenate(verts)
    order = np.lexsort((members, verts))
    members, verts = members[order], verts[order]
    counts = np.bincount(verts, minlength=(mesh.nx + 1) * (mesh.ny + 1))
    start = np.cumsum(counts) - counts
    idx = np.full((counts.size, counts.max()), rows.size)
    idx[verts, np.arange(verts.size) - start[verts]] = members
    return idx


def _coarsen(dofmap: DofMap) -> DofMap:
    """Dof map of the mesh with every 2 x 2 block of elements merged; a
    coarse facet takes the tag and the traces of its fine halves."""
    mesh = dofmap.mesh
    coarse = build_rect_mesh(mesh.domain, mesh.nx // 2, mesh.ny // 2)
    vertical, i, j = _facet_site(coarse, np.arange(coarse.n_facets))
    half = _facet_id(mesh, vertical, 2 * i, 2 * j)
    coarse = replace(coarse, facet_tags=mesh.facet_tags[half])
    active = np.flatnonzero(dofmap.facet_slot[half] >= 0)
    return DofMap(coarse, dofmap.layout, active)


def _prolongation(A: sp.csr_matrix, fine: DofMap, rows: np.ndarray,
                  fixed: np.ndarray, coarse: DofMap, c_rows: np.ndarray,
                  c_fixed: np.ndarray) -> sp.csr_matrix:
    """P from the coarse rows c_rows to the fine rows; `fixed`, `c_fixed`
    are the Dirichlet rows of each level, whose P rows/columns are zero."""
    p = fine.layout.p
    U, V, mode = _sites(fine, rows)
    E = 4 * p                                   # coarse element width
    vertical = U % E == 0                       # on a vertical coarse edge
    edge = vertical | (V % E == 0)
    along = np.where(vertical, V, U)
    across = np.where(vertical, U, V) // 4      # coarse lattice line

    # field nodes: Lagrange interpolation from the coarse edge's p + 1 nodes
    f = np.flatnonzero(edge & (mode < 0))
    lattice = along[f] // 2
    n_along = np.where(vertical[f], fine.mesh.ny, fine.mesh.nx)
    e = np.minimum(lattice // p, n_along - 1)
    xi = gauss_lobatto_nodes(p)[lattice - e * p]
    W_f = lagrange_1d(gauss_lobatto_nodes(p), e % 2 + 0.5 * (xi + 1.0) - 1.0)
    pos = (e // 2 * p)[:, None] + np.arange(p + 1)
    line = across[f, None]
    nxp_c, _ = coarse.field_lattice_shape()
    dofs_f = np.where(vertical[f, None], pos * nxp_c + line, line * nxp_c + pos)

    # traces: the coarse facet's degree p-1 trace restricted to each half
    t = np.flatnonzero(edge & (mode >= 0))
    e = (along[t] - p) // (2 * p)
    tau = gauss_lobatto_nodes(p - 1)[mode[t]]
    W_t = lagrange_1d(gauss_lobatto_nodes(p - 1), e % 2 + 0.5 * (tau + 1.0) - 1.0)
    v, line = vertical[t], across[t] // p
    facet = _facet_id(coarse.mesh, v, np.where(v, line, e // 2),
                      np.where(v, e // 2, line))
    dofs_t = (coarse.trace_offset + (coarse.facet_slot[facet] * p)[:, None]
              + np.arange(p))

    r_idx = np.concatenate([np.repeat(f, p + 1), np.repeat(t, p)])
    c_idx = np.searchsorted(c_rows, np.concatenate([dofs_f.ravel(),
                                                    dofs_t.ravel()]))
    w = np.concatenate([W_f.ravel(), W_t.ravel()])
    keep = (w != 0.0) & ~np.isin(r_idx, fixed) & ~np.isin(c_idx, c_fixed)
    P_E = sp.csr_matrix((w[keep], (r_idx[keep], c_idx[keep])),
                        shape=(rows.size, c_rows.size))

    # rows strictly inside a coarse element: -A_II^-1 A_IE P_E, per element
    inside = np.flatnonzero(~edge)
    parent = (V[inside] // E) * coarse.mesh.nx + U[inside] // E
    inside = inside[np.argsort(parent, kind="stable")]
    inside = inside.reshape(coarse.mesh.n_elems, -1)
    inv = _block_inverses(A, inside, "harmonic-extension block")
    n_b, k = inside.shape
    A_II_inv = sp.bsr_matrix((inv, np.arange(n_b), np.arange(n_b + 1)),
                             shape=(n_b * k, n_b * k))
    place = sp.csr_matrix((np.ones(n_b * k),
                           (inside.ravel(), np.arange(n_b * k))),
                          shape=(rows.size, n_b * k))
    return (P_E - place @ (A_II_inv @ (A[inside.ravel()] @ P_E))).tocsr()


@dataclass
class _Level:
    """One level of a Multigrid: its matrix with a smoother and the
    prolongation from the next level, or, coarsest, a dense factor."""

    A: sp.csr_matrix
    patches: np.ndarray | None = None       # smoother rows, padded with n
    inverses: np.ndarray | None = None      # one inverse per patch
    P: sp.csr_matrix | None = None          # from the next coarser level
    dense: tuple | None = None              # coarsest only: _dense_factor

    def smooth(self, r: np.ndarray) -> np.ndarray:
        n = r.size
        z = (self.inverses @ np.append(r, 0.0)[self.patches][:, :, None])[:, :, 0]
        return DAMPING * np.bincount(self.patches.ravel(), z.ravel(), n + 1)[:n]


class Multigrid:
    """Geometric multigrid V(1,1)-cycle for a system built on a structured
    mesh: the skeleton system of `assemble`, or a field-only system whose
    rows are the full field lattice. Calling it applies one cycle to a
    residual; `sizes` lists the row count of each level."""

    def __init__(self, system: GlobalSystem):
        A = system.matrix
        if not A.has_canonical_format:
            A = A.copy()
            A.sum_duplicates()
        dofmap = system.dofmap
        rows = (np.arange(A.shape[0]) if system.skeleton is None
                else system.skeleton)
        fixed = np.searchsorted(rows, system.constrained)
        self.levels = []
        while True:
            level = _Level(A)
            self.levels.append(level)
            coarsest = dofmap.mesh.nx % 2 or dofmap.mesh.ny % 2
            if coarsest and A.shape[0] <= DENSE_LIMIT:
                level.dense = _dense_factor(A)
                break
            level.patches = _patches(dofmap, rows)
            level.inverses = _block_inverses(A, level.patches, "vertex patch")
            if coarsest:
                break
            coarse = _coarsen(dofmap)
            c_rows = skeleton_dofs(coarse)
            c_fixed = np.searchsorted(c_rows, dirichlet_field_dofs(coarse.mesh, coarse))
            level.P = _prolongation(A, dofmap, rows, fixed, coarse, c_rows, c_fixed)
            A_c = level.P.T.tocsr() @ (A @ level.P)
            unit = np.zeros(c_rows.size)
            unit[c_fixed] = 1.0
            A = (0.5 * (A_c + A_c.T) + sp.diags(unit)).tocsr()
            A.sum_duplicates()
            dofmap, rows, fixed = coarse, c_rows, c_fixed

    @property
    def sizes(self) -> list:
        return [level.A.shape[0] for level in self.levels]

    def __call__(self, r: np.ndarray, depth: int = 0) -> np.ndarray:
        level = self.levels[depth]
        if level.dense is not None:
            return _dense_solve(level.dense, r)
        x = level.smooth(r)
        if level.P is None:
            return x
        x += level.P @ self(level.P.T @ (r - level.A @ x), depth + 1)
        x += level.smooth(r - level.A @ x)
        return x


def solve_spd(system: GlobalSystem, tol: float = 1e-10):
    """Solve the SPD system: dense Cholesky for n <= DENSE_LIMIT, else
    preconditioned CG.

    A potential system builds a `Multigrid` hierarchy on its mesh before
    the first iteration and takes one V(1,1)-cycle per iteration as the
    preconditioner. Any other system with a dof map (a concentration
    step) first runs JACOBI_ITERATIONS iterations with the diagonal; if it
    has not converged, it builds the hierarchy and restarts from the
    current iterate on the V-cycle. Diagonal PCG finishes concentration
    systems in 2-182 iterations from 32^2 to 128^2 (p = 1..3), and the
    setup costs about 280 of them on a 45k-row system, so the budget of
    300 keeps them clear of the setup; a budget of 20 makes the conc-trig
    solve at 64^2 about 7 times slower at p = 2 and 5 times at p = 3. A
    hand-built system with no dof map keeps the diagonal.

    Both paths solve for the right-hand side times the power of two 2^-k
    that brings its largest entry into [0.5, 1), and scale the solution
    back. Every operation of either path is linear in the right-hand
    side, so this is exact (unless an entry falls below 2^-1022 when
    scaled): the iterates are those of the unscaled solve times 2^-k, bit
    for bit, but no inner product of large data overflows.

    Returns (coefficients, SolveInfo). A system with inf or NaN entries
    raises SolverError before either path, as does a solution that
    overflows when scaled back.
    """
    A, b = system.matrix, system.rhs
    bad_a = int(np.count_nonzero(~np.isfinite(A.data)))
    bad_b = int(np.count_nonzero(~np.isfinite(b)))
    if bad_a or bad_b:
        raise SolverError(f"non-finite system: {bad_a} matrix and {bad_b} "
                          "right-hand-side entries are inf or NaN")
    bmax = float(np.abs(b).max(initial=0.0))
    if bmax == 0.0:
        return np.zeros(A.shape[0]), SolveInfo("trivial", 0, 0.0)
    k = math.frexp(bmax)[1]
    x, info = _solve_scaled(system, np.ldexp(b, -k), tol)
    with np.errstate(over="ignore"):
        x = np.ldexp(x, k)
    if not np.isfinite(x).all():
        raise SolverError("non-finite solution: the solution overflows")
    return x, info


def _solve_scaled(system: GlobalSystem, b: np.ndarray, tol: float):
    """The two paths of `solve_spd`, for a nonzero right-hand side b."""
    A = system.matrix
    n = A.shape[0]
    bnorm = float(np.linalg.norm(b))
    diag = A.diagonal()
    if np.any(diag <= 0):
        raise SolverError("not SPD / no convergence: nonpositive diagonal entry")

    if n <= DENSE_LIMIT:
        x = _dense_solve(_dense_factor(A), b)
        res = float(np.linalg.norm(b - A @ x)) / bnorm
        return x, SolveInfo("dense", 0, res)

    # -div(kappa grad phi) has no zeroth-order term, so a potential system
    # is conditioned like h^-2 and diagonal PCG does not finish it within
    # the budget; the mass term of a concentration step clusters its
    # spectrum, and the diagonal usually finishes first.
    jacobi = 0 if system.kind == "potential" else JACOBI_ITERATIONS
    minv = 1.0 / diag
    precondition, levels = (lambda v: minv * v), []
    x = np.zeros(n)
    r = b.copy()
    rz = None                   # None (re)starts CG from the current x
    max_iter = 10 * n
    for it in range(1, max_iter + 1):
        if it == jacobi + 1 and system.dofmap is not None:
            multigrid = Multigrid(system)
            precondition, levels, rz = multigrid, multigrid.sizes, None
        z = precondition(r)
        rz_new = float(r @ z)
        p = z if rz is None else z + (rz_new / rz) * p
        rz = rz_new
        Ap = A @ p
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            raise SolverError("not SPD / no convergence: negative curvature")
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        rnorm = float(np.linalg.norm(r))
        if rnorm <= tol * bnorm:
            return x, SolveInfo("pcg", it, rnorm / bnorm, levels)
    raise SolverError(f"not SPD / no convergence: {max_iter} iterations exceeded")


def compute_indicators(mesh: Mesh, dofmap: DofMap, problem,
                       coeffs: np.ndarray) -> np.ndarray:
    geom = geometry_kernels(dofmap.layout, mesh.dx, mesh.dy)
    kernels = ProblemKernels(geom, problem)
    out = np.empty((mesh.n_elems, 2))
    # squared residuals of data beyond about 1e154 overflow; the error
    # below reports them, and numpy stays quiet
    with np.errstate(over="ignore", invalid="ignore"):
        for group in dofmap.element_groups():
            out[group.elems] = error_indicator(kernels.local_system(mesh, group),
                                               coeffs[group.dofs])
        total = out.sum()
    if not np.isfinite(total):
        raise SolverError("non-finite error indicators: the squared residuals "
                          "overflow")
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
