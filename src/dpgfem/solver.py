"""Global assembly, SPD solve, extraction.

Local/skeleton split. The flux unknowns are element-local (broken L2)
and the interior nodes of an element's field lattice (1 <= ix, iy <= p-1)
couple only within that element. Assembly eliminates these local
unknowns L group by group: from the element system S u = r of
`condense_local` it forms S_GG - S_GL S_LL^-1 S_LG and r_G - S_GL S_LL^-1
r_L over the skeleton unknowns G (the field nodes on element edges and
the traces), with one Cholesky-based inverse of S_LL per group (per
element where Robin terms stack S). `recover_local` sets u_L = S_LL^-1 r_L
- S_LL^-1 S_LG u_G after the solve. The field dofs on Dirichlet facets
(potential problem) lie in the trial space's zero trace: they have no row
in any system or multigrid level, and an element reads them as 0.

Assembly. The condensed system is its `Multigrid`'s fine level, a `_Grid`
of element rows and class matrices (a class per shared group matrix and
per element of the Robin stack), never summed: `ElementOperator` applies
it class by class (gather, one GEMM per shared matrix or one batched
product per stack, one bincount back), as it applies every coarser level
and the back-substitution's X. `scatter` exports an ElementOperator as a
canonical CSR matrix, `GlobalSystem.matrix` on request; no solve reads it.

Linear solve. `solve_spd` runs CG preconditioned by a `Multigrid`
V(1,1)-cycle, whose iteration count stays flat under refinement; a
concentration step first runs CG on the diagonal, which its mass term
makes cheap. A level of at most DENSE_LIMIT rows is factored exactly by a
`LayerCholesky`: every unknown is element-local or tied to one facet, so
the rows grouped by mesh layer (a row of elements, or a column on a wide
mesh) make a block-tridiagonal matrix, factored block by block and never
formed whole. A small system is one factored level, solved in one step.

Hierarchy (`Multigrid`). The mesh is halved while nx and ny are even; a
coarse level's rows are the coarse mesh's skeleton dofs. An element
matrix's columns are its slots, some absent (no row), so a shared group
matrix is a class, and so is each element of the Robin stack; a 2 x 2
block of elements takes its class from its elements' and its absent
rows. Per class of coarse elements, P interpolates along the coarse
edges and extends A-harmonically, -A_II^-1 A_IE, inside, and the coarse
element matrix is sum_e P_e^T S_e P_e (element-by-element Galerkin
coarsening). A, P and P^T of every
level apply per class; a fine row takes its P row from the one coarse
element that owns it. The first level with at most DENSE_LIMIT rows is
factored and ends the hierarchy; a large odd mesh ends it smoothed only.

Smoother. Additive Schwarz over vertex patches, the rows strictly inside
a vertex's elements (a facet's traces sit at its midpoint); a patch
block is summed from element matrices and inverted once per class.
Patches of vertices with the same index parity share no element, so the
patches are 4-colourable, M^-1 A has lambda_max <= 4, and the damping
0.4 keeps 0.4 * 4 < 2: the smoother converges in the A-norm, and the
symmetric V-cycle is positive definite (Gopalakrishnan & Schoeberl 2014;
Petrides & Demkowicz 2021).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache

import numpy as np

from dpgfem.dpg import (
    ProblemKernels,
    SolverError,
    cholesky,
    condense_local,
    error_indicator,
    geometry_kernels,
    spd_inverses,
)
from dpgfem.fespace import (
    DofMap,
    SpaceLayout,
    build_dofmap,
    gauss_lobatto_nodes,
    lagrange_1d,
)
from dpgfem.mesh import FacetTag, Mesh, build_rect_mesh
from dpgfem.problems import validate_problem

# A multigrid level of at most this many rows is factored, at any depth:
# pot-trig, p = 2, solves in 8.6/20.2/27.5/62.8 ms on 16/32/40/64^2, and
# at p = 3 on 16^2 in 12.6 ms, against 13.4/25.0/28.7/67.0 and 17.3 ms
# when only the odd coarsest mesh is factored (medians of 15 alternated
# pairs, BLAS at 1 thread, 2-vCPU x86-64 VM). One level beats the V-cycle
# up to about 2,400 rows, but the benchmark's smoke check (16^2, p = 2)
# tells a tampered residual only from an iterative one; ROADMAP item 1(g).
DENSE_LIMIT = 1000
JACOBI_ITERATIONS = 300
DAMPING = 0.4
SCATTER_CHUNK = 2**14                   # triplets per step of `scatter`


@dataclass
class GlobalSystem:
    """The linear system handed to `solve_spd`, built by
    `condensed_system`: the element matrices of `grid` summed over its rows.

    kind: the problem kind the system was assembled from ("concentration"
        or "potential"); a concentration step starts CG on the diagonal.
    grid: the fine level of the system's `Multigrid` (a `_Grid`): its rows
        are the full dofs `skeleton` of the rows (ascending; a Dirichlet
        dof has none), its class matrices the condensed element matrices.
    local, y, X: the back-substitution u_L = y - X u_G, with each element's
        local unknowns' full dofs and y = S_LL^-1 r_L (n_elems x n_L), and
        X = S_LL^-1 S_LG per class of the grid (n_classes x n_L x m).
    """

    rhs: np.ndarray
    kind: str
    grid: _Grid
    local: np.ndarray
    y: np.ndarray
    X: np.ndarray

    dofmap = property(lambda self: self.grid.dofmap)
    skeleton = property(lambda self: self.grid.rows)

    @cached_property
    def operator(self) -> ElementOperator:
        """The grid's matrix (the solves' A)."""
        return self.grid.operator()

    @cached_property
    def matrix(self):
        """The matrix as a canonical CSR matrix, built on first access: an
        export for inspection and direct solvers; no solve reads it."""
        return scatter(self.operator)


@dataclass
class SolveInfo:
    """method: "trivial", "dense" (CG on one factored level from the
    start) or "pcg"; iterations count both CG phases; relative_residual
    is the true ||b - A x|| / ||b||; levels: row count of each multigrid
    level, [] when no hierarchy was built."""

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


def active_facets(mesh: Mesh) -> np.ndarray:
    """Facets carrying trace unknowns: the interior and Dirichlet facets.

    Neumann and Robin data sit in the load, so those facets carry none;
    a valid concentration mesh, whose flux J is Neumann data, has no
    Dirichlet facets.
    """
    return np.flatnonzero(np.isin(mesh.facet_tags,
                                  (FacetTag.INTERIOR, FacetTag.DIRICHLET)))


def dirichlet_field_dofs(mesh: Mesh, dofmap: DofMap) -> np.ndarray:
    """Global field dofs on Dirichlet boundary facets."""
    p = dofmap.layout.p
    lattice = np.arange((p + 1) ** 2).reshape(p + 1, p + 1)     # [iy, ix]
    edge_dofs = np.stack([lattice[:, 0], lattice[:, p], lattice[0], lattice[p]])
    facets = mesh.facets_with_tag(FacetTag.DIRICHLET)
    elems = mesh.facet_elems[facets, 0]
    edges = np.argmax(mesh.elem_facets[elems] == facets[:, None], axis=1)
    return np.unique(dofmap.elem_field[elems[:, None], edge_dofs[edges]])


def scatter(op: ElementOperator):
    """The matrix of an ElementOperator as a CSR matrix. The present
    triplets are written in place, one array each, filtered from about
    SCATTER_CHUNK at a time to bound the peak."""
    from scipy.sparse import coo_matrix

    n, m = op.shape
    parts = [(count, M, op.rows[r].reshape(count, -1), op.cols[c].reshape(count, -1))
             for count, M, r, c in op.parts]
    size = sum(int(np.count_nonzero(R < n, axis=1) @ np.count_nonzero(C < m, axis=1))
               for _, _, R, C in parts)
    idx = np.int32 if max(n, m) < 2**31 else np.int64      # the CSR index type
    vals, rows, cols = np.empty(size), np.empty(size, idx), np.empty(size, idx)
    at = 0
    for count, M, R, C in parts:
        b, a = M.shape[-2:]
        step = max(1, SCATTER_CHUNK // (b * a))
        for i in range(0, count, step):
            shape = (min(step, count - i), b, a)
            r, c, v = np.empty(shape, idx), np.empty(shape, idx), np.empty(shape)
            r[...], c[...] = R[i:i + step, :, None], C[i:i + step, None, :]
            v[...] = M if M.ndim == 2 else M[i:i + step]
            keep = (r < n) & (c < m)
            part = slice(at, at + np.count_nonzero(keep))
            rows[part], cols[part], vals[part] = r[keep], c[keep], v[keep]
            at = part.stop
            del r, c, v, keep           # freed before the next chunk and the CSR
    return coo_matrix((vals, (rows, cols)), shape=op.shape).tocsr()


def _class_runs(classes: np.ndarray):
    """Elements of the given classes in run order, and each run's (count,
    class): one run per class of several elements, then one stack, (count,
    classes), of the elements alone in their class."""
    counts = np.bincount(classes)
    order = np.argsort(np.where(counts[classes] > 1, classes, counts.size), kind="stable")
    alone = order[np.count_nonzero(counts[classes] > 1):]
    runs = [(counts[c], c) for c in np.flatnonzero(counts > 1)]
    return order, runs + [(alone.size, classes[alone])] * bool(alone.size)


class ElementOperator:
    """The matrix sum_e R_e^T M_e C_e of `shape`, applied element by
    element. Runs (count, M) hold a matrix shared by `count` elements or a
    stack of one per element; rows and cols index each element's output
    and input entries, flat, run by run (the row or column count stands
    for none, such as a Dirichlet dof: its column reads 0). Equal rows and
    cols are held once."""

    def __init__(self, shape: tuple, rows: np.ndarray, cols: np.ndarray, runs: list):
        self.shape, self.runs = shape, runs
        self.rows = np.asarray(rows, np.intp)
        self.cols = self.rows if cols is rows else np.asarray(cols, np.intp)
        self.parts, at_r, at_c = [], 0, 0       # (count, M, output, input slice)
        for count, M in runs:
            b, a = M.shape[-2:]
            self.parts.append((count, M, slice(at_r, at_r + count * b),
                               slice(at_c, at_c + count * a)))
            at_r, at_c = at_r + count * b, at_c + count * a

    @classmethod
    def by_class(cls, shape: tuple, rows: np.ndarray, cols: np.ndarray,
                 classes: np.ndarray, mats: np.ndarray) -> ElementOperator:
        """Elements with rows and cols (n x b, n x a) and the matrices
        mats[classes], in the runs of `_class_runs`."""
        order, runs = _class_runs(classes)
        out = rows[order].ravel()
        return cls(shape, out, out if cols is rows else cols[order].ravel(),
                   [(count, mats[c]) for count, c in runs])

    @cached_property
    def T(self) -> ElementOperator:
        return ElementOperator(self.shape[::-1], self.cols, self.rows,
                               [(c, np.swapaxes(M, -1, -2)) for c, M in self.runs])

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        g = np.append(x, 0.0)[self.cols]
        out = np.empty(self.rows.size)
        for count, M, r, c in self.parts:
            X, Y = g[c].reshape(count, -1), out[r].reshape(count, -1)
            if M.ndim == 2:
                np.matmul(X, M.T, out=Y)
            else:
                np.matmul(M, X[:, :, None], out=Y[:, :, None])
        n = self.shape[0]
        # astype: without rows, bincount counts in integers
        return np.bincount(self.rows, out, n + 1)[:n].astype(float, copy=False)

    def diagonal(self) -> np.ndarray:
        """Diagonal of a square operator whose rows and cols agree."""
        n = self.shape[0]
        d = np.concatenate([np.broadcast_to(np.diagonal(M, 0, -2, -1),
                                            (count, M.shape[-1])).ravel()
                            for count, M, _, _ in self.parts])
        return np.bincount(self.rows, d, n + 1)[:n]


def mesh_layers(mesh: Mesh, rows: np.ndarray, n: int) -> np.ndarray:
    """Layer of each of n rows, from the rows of every element (n_elems x
    m, n for none): the highest mesh row, elem // nx, among the elements
    that hold the row, or mesh column, elem % nx, when nx > ny, so that
    the layers are thin. An element holds rows of its own layer and the
    next one only, so rows sorted by layer make any matrix summed from
    element matrices block-tridiagonal."""
    layer = np.zeros(n + 1, dtype=np.intp)
    row, col = np.divmod(np.arange(mesh.n_elems), mesh.nx)
    np.maximum.at(layer, rows, (col if mesh.nx > mesh.ny else row)[:, None])
    return layer[:n]


def _triangular_inverse(L: np.ndarray) -> np.ndarray:
    """Inverse of a lower triangular matrix by halves, [[A, 0], [B, C]]^-1
    = [[A^-1, 0], [-C^-1 B A^-1, C^-1]]: products, where np.linalg.inv
    (an LU factorization) costs six Cholesky factorizations at 150 rows."""
    n = len(L)
    if n <= 32:
        return np.linalg.inv(L)
    h = n // 2
    out = np.zeros_like(L)
    out[:h, :h] = A = _triangular_inverse(L[:h, :h])
    out[h:, h:] = C = _triangular_inverse(L[h:, h:])
    out[h:, :h] = -C @ (L[h:, :h] @ A)
    return out


class LayerCholesky:
    """Direct solver for a square SPD ElementOperator A whose rows, sorted
    by `layer`, make A block-tridiagonal (see `mesh_layers`). A is Jacobi-
    equilibrated, which keeps heavily weighted Robin terms from degrading
    the factorization; its diagonal blocks D_i and upper blocks B_i are
    summed straight from the element matrices, and for each layer in turn
    D_i <- D_i - C_{i-1}^T C_{i-1}, L_i = chol(D_i), C_i = L_i^-1 B_i.
    Calling it solves A x = b by forward and back substitution over the
    layers. `cholesky` raises SolverError when A is not SPD."""

    def __init__(self, A: ElementOperator, layer: np.ndarray):
        n = A.shape[0]
        layer = np.append(layer, 0)
        sizes = np.bincount(layer[:n])
        self.order = np.argsort(layer[:n], kind="stable")
        self.cuts = np.cumsum(sizes)[:-1]
        local = np.zeros(n + 1, dtype=np.intp)          # row within its layer
        local[self.order] = np.arange(n) - np.repeat(np.append(0, self.cuts), sizes)
        # the blocks [D_i B_i], s_i x (s_i + s_i+1), row-major one after another
        width = sizes + np.append(sizes[1:], 0)
        start = np.append(0, np.cumsum(sizes * width))
        # a nonpositive or tiny diagonal leaves inf or NaN, which cholesky reports
        with np.errstate(all="ignore"):
            self.d = 1.0 / np.sqrt(A.diagonal())
            d = np.append(self.d, 0.0)
            index, vals = [], []
            for count, M, r, c in A.parts:
                R = A.rows[r].reshape(count, -1, 1)
                C = A.cols[c].reshape(count, 1, -1)
                at, up = layer[R], layer[C] - layer[R]       # up: 0 in D, 1 in B
                ok = (R < n) & (C < n) & (up >= 0)
                index.append((start[at] + local[R] * width[at] + up * sizes[at]
                              + local[C])[ok])
                vals.append((M * (d[R] * d[C]))[ok])
        blocks = np.bincount(np.concatenate(index), np.concatenate(vals), start[-1])
        self.inv, self.upper = [], []
        C = np.empty((0, sizes[0]))
        for i, s in enumerate(sizes):
            W = blocks[start[i]:start[i + 1]].reshape(s, -1)
            L = cholesky(W[:, :s] - C.T @ C, f"factored level, layer {i}")
            self.inv.append(_triangular_inverse(L))
            C = self.inv[-1] @ W[:, s:]
            self.upper.append(C)

    def __call__(self, b: np.ndarray) -> np.ndarray:
        x = (self.d * b)[self.order]
        parts = np.split(x, self.cuts)          # views of x, one per layer
        k = len(parts)
        for i in range(k):                      # L y = b
            if i:
                parts[i] -= self.upper[i - 1].T @ parts[i - 1]
            parts[i][:] = self.inv[i] @ parts[i]
        for i in reversed(range(k)):            # L^T x = y
            if i < k - 1:
                parts[i] -= self.upper[i] @ parts[i + 1]
            parts[i][:] = self.inv[i].T @ parts[i]
        out = np.empty(x.size)
        out[self.order] = x
        return self.d * out


def skeleton_dofs(dofmap: DofMap) -> np.ndarray:
    """Full dofs that stay in the global system, ascending: the field
    lattice nodes on element edges, off the Dirichlet facets, then every
    trace dof."""
    p = dofmap.layout.p
    nxp, nyp = dofmap.field_lattice_shape()
    keep = np.zeros(dofmap.n_total, dtype=bool)
    keep[:dofmap.n_field] = ((np.arange(nyp) % p == 0)[:, None]
                             | (np.arange(nxp) % p == 0)).ravel()
    keep[dirichlet_field_dofs(dofmap.mesh, dofmap)] = False
    keep[dofmap.trace_offset:] = True
    return np.flatnonzero(keep)


def _row_lookup(rows: np.ndarray, n_total: int) -> np.ndarray:
    """Row of each of n_total full dofs, given the full dof of each row:
    rows.size for a dof with no row and for the index -1."""
    lookup = np.full(n_total + 1, rows.size, dtype=np.int32)
    lookup[rows] = np.arange(rows.size)
    return lookup


@lru_cache(maxsize=32)
def _local_columns(layout: SpaceLayout, n_trial: int):
    """Local trial columns (interior lattice nodes, then the flux columns
    among the n_trial) and the remaining skeleton columns of an element
    system. Built once per (layout, n_trial) and shared, so both arrays
    are read-only."""
    p, nf = layout.p, layout.n_field_local
    lattice = np.arange(nf).reshape(p + 1, p + 1)
    local = np.concatenate([lattice[1:p, 1:p].ravel(),
                            np.arange(nf, min(n_trial, nf + layout.n_flux_local))])
    columns = local, np.setdiff1d(np.arange(n_trial), local)
    for a in columns:
        a.setflags(write=False)
    return columns


def _raise_non_finite(bad: list, what: str):
    """SolverError naming the lowest-numbered element in the arrays bad."""
    bad = np.concatenate(bad)
    if bad.size:
        raise SolverError(f"non-finite system: element {bad.min()} has inf or "
                          f"NaN entries in its {what}")


def _condense_group(S: np.ndarray, r: np.ndarray, L: np.ndarray, G: np.ndarray):
    """Eliminate the local columns L of a group's element systems.

    Returns the Schur complement over G (shared or stacked, like S), the
    condensed loads (n x n_G), and X = S_LL^-1 S_LG and y = S_LL^-1 r_L
    for the back-substitution.
    """
    S_LG = S[..., L[:, None], G]
    S_GG = S[..., G[:, None], G]
    inv = spd_inverses(S[..., L[:, None], L], "local block")
    X = inv @ S_LG
    S_GL = np.swapaxes(S_LG, -1, -2)
    S_c = S_GG - S_GL @ X
    S_c = 0.5 * (S_c + np.swapaxes(S_c, -1, -2))
    # a shared S gives one GEMM each for the whole group; huge loads can
    # overflow here, which `solve_spd` reports, and numpy stays quiet
    with np.errstate(over="ignore", invalid="ignore"):
        y = r[:, L] @ inv if S.ndim == 2 else (inv @ r[:, L, None])[:, :, 0]
        r_c = r[:, G] - (y @ S_LG if S.ndim == 2 else (y[:, None, :] @ S_LG)[:, 0])
    return S_c, r_c, X, y


def condensed_system(dofmap: DofMap, kind: str, systems) -> GlobalSystem:
    """The skeleton system of a problem of `kind` from element systems
    (elems, their rows of `DofMap.elem_dofs` or its field block, S, r), S
    shared by the elements or stacked: each one's local columns eliminated
    by `_condense_group`. The field dofs on the mesh's Dirichlet facets
    (none on a concentration mesh) and absent trial dofs (-1) have no row,
    and their loads are dropped. The fine grid's slots are the columns G,
    its classes each shared S and each element of a stacked one."""
    n, p = dofmap.mesh.n_elems, dofmap.layout.p
    bad, mats, Xs, grid = [], [], [], None
    for elems, trial, S, r in systems:
        bad.append(elems[~(np.isfinite(S).all(axis=(-2, -1))
                           & np.isfinite(r).all(axis=1))])
        if any(b.size for b in bad):        # check the rest, condense no more
            continue
        L, G = _local_columns(dofmap.layout, r.shape[1])
        S_c, r_c, X, y = _condense_group(S, r, L, G)
        if grid is None:                    # slots at the sites of the columns G
            grid = _grid(dofmap, skeleton_dofs(dofmap), _slot_sites(p, G.size > 4 * p))
            grid.elem_class, rhs = np.empty(n, dtype=np.int64), np.zeros(grid.rows.size + 1)
            local, ys = np.empty((n, L.size), dtype=np.int64), np.empty((n, L.size))
        if S_c.ndim == 2:
            S_c, X = S_c[None], X[None]
        grid.elem_class[elems] = sum(map(len, mats)) + np.arange(elems.size) % len(S_c)
        mats.append(S_c)
        Xs.append(X)
        local[elems], ys[elems] = trial[:, L], y
        with np.errstate(over="ignore", invalid="ignore"):
            np.add.at(rhs, grid.elem_rows[elems], r_c)
    _raise_non_finite(bad, "matrix or load")
    grid.mats = np.concatenate(mats)
    return GlobalSystem(rhs[:-1], kind, grid, local, ys, np.concatenate(Xs))


def assemble(mesh: Mesh, dofmap: DofMap, problem) -> GlobalSystem:
    kernels = ProblemKernels(geometry_kernels(dofmap.layout, mesh.dx, mesh.dy),
                             problem, mesh)
    return condensed_system(dofmap, problem.kind, (
        (elems, dofmap.elem_dofs[elems], *condense_local(kernels.local_system(elems)))
        for elems in kernels.groups))


def recover_local(system: GlobalSystem, x: np.ndarray) -> np.ndarray:
    """Full coefficient vector from the skeleton solution x: u_L = y - X u_G,
    X applied over the runs of `system.operator`, whose columns it shares;
    the Dirichlet field dofs, which have no row, are 0."""
    A, grid = system.operator, system.grid
    order, runs = _class_runs(grid.elem_class)
    back = ElementOperator((grid.dofmap.n_total, A.shape[1]), system.local[order].ravel(),
                           A.cols, [(count, system.X[c]) for count, c in runs])
    # huge data can overflow here; the error below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = back @ x                   # X u_G on the local dofs, else 0
        coeffs[system.local] = system.y - coeffs[system.local]
    coeffs[grid.rows] = x
    if not np.isfinite(coeffs).all():
        raise SolverError("non-finite solution: the local unknowns overflow")
    return coeffs


def _classes(ids: np.ndarray, flags: np.ndarray):
    """First row of each class and class of each row, where rows equal in
    both ids (n x k integers) and flags (n x m booleans) share a class."""
    keys = np.column_stack([ids, np.packbits(flags, axis=1)])
    order = np.lexsort(keys.T)
    new = np.concatenate([[True], np.any(np.diff(keys[order], axis=0) != 0, axis=1)])
    cls = np.empty_like(order)
    cls[order] = np.cumsum(new) - 1
    return order[new], cls


@dataclass
class _Grid:
    """Element data of a multigrid level, whose elements share their slots
    at element-local sites (u, v, mode) in half-lattice units: a field node
    (ix, iy) at (2 ix, 2 iy), mode -1, an edge's traces at its midpoint.
    elem_rows: each slot's row, rows.size if absent (a trace slot on a facet
    without traces, or a Dirichlet dof); mats[elem_class]: the element
    matrices."""

    dofmap: DofMap
    rows: np.ndarray
    sites: np.ndarray
    elem_rows: np.ndarray
    layout: tuple                           # _block_layout of the sites
    elem_class: np.ndarray | None = None
    mats: np.ndarray | None = None

    def operator(self) -> ElementOperator:
        """The level's matrix, applied class by class."""
        n = self.rows.size
        return ElementOperator.by_class((n, n), self.elem_rows, self.elem_rows,
                                        self.elem_class, self.mats)


def _slot_sites(p: int, traces: bool) -> np.ndarray:
    """Sites of an element's lattice nodes on its edges, and with traces
    of p trace modes per edge in edge order."""
    iy, ix = np.divmod(np.arange((p + 1) ** 2), p + 1)
    on = (ix % p == 0) | (iy % p == 0)
    sites = np.column_stack([2 * ix[on], 2 * iy[on], np.full(on.sum(), -1)])
    if not traces:
        return sites
    mid = np.repeat([(0, p), (2 * p, p), (p, 0), (p, 2 * p)], p, axis=0)
    return np.vstack([sites, np.column_stack([mid, np.tile(np.arange(p), 4)])])


def _grid(dofmap: DofMap, rows: np.ndarray, sites: np.ndarray) -> _Grid:
    layout, (u, v, mode) = dofmap.layout, sites.T
    p = layout.p
    edge = (u == 2 * p) + 2 * (v == 0) + 3 * (v == 2 * p)    # left, right, ...
    # each site's column of elem_dofs: a lattice node, or a trace mode of an edge
    cols = np.where(mode < 0, v // 2 * (p + 1) + u // 2,
                    layout.n_field_local + layout.n_flux_local + edge * p + mode)
    return _Grid(dofmap, rows, sites, _row_lookup(rows, dofmap.n_total)[dofmap.elem_dofs[:, cols]],
                 _block_layout(p, tuple(map(tuple, sites.tolist()))))


def _edge_weights(p: int, fine: np.ndarray, coarse: np.ndarray) -> np.ndarray:
    """Interpolation from a coarse element's slots (sites `coarse`) to the
    fine slots on its edges (sites `fine`): field nodes by degree-p Lagrange
    interpolation, traces by restricting the coarse trace to each half."""
    nodes, t_nodes = gauss_lobatto_nodes(p), gauss_lobatto_nodes(p - 1)
    lattice = np.arange(2 * p + 1)          # fine lattice index along an edge
    e = np.minimum(lattice // p, 1)
    field_w = lagrange_1d(nodes, e + 0.5 * (nodes[lattice - e * p] + 1.0) - 1.0)
    half = np.repeat([0, 1], p)             # rows half * p + trace mode
    trace_w = lagrange_1d(t_nodes, half + 0.5 * (np.tile(t_nodes, 2) + 1.0) - 1.0)
    u, v, mode = fine.T
    vertical = u % (4 * p) == 0
    along, across = np.where(vertical, v, u), np.where(vertical, u, v)
    cu, cv, cmode = 2 * coarse[:, 0], 2 * coarse[:, 1], coarse[:, 2]
    c_along = np.where(vertical[:, None], cv, cu)
    on = ((vertical | (v % (4 * p) == 0))[:, None]
          & (np.where(vertical[:, None], cu, cv) == across[:, None]))
    W = np.zeros((len(fine), len(coarse)))
    s, c = np.nonzero(on & (mode[:, None] < 0) & (cmode < 0))
    W[s, c] = field_w[along[s] // 2, c_along[s, c] // 4]
    s, c = np.nonzero(on & (mode[:, None] >= 0) & (cmode >= 0) & (c_along == 2 * p))
    W[s, c] = trace_w[(along[s] - p) // (2 * p) * p + mode[s], cmode[c]]
    return W


@lru_cache(maxsize=16)
def _block_layout(p: int, sites: tuple):
    """Slots of a 2 x 2 block of elements with slots at `sites`: their sites
    (each once), where each element's (lower left, lower right, upper left,
    upper right) go, the inner ones strictly inside the block, the block's
    slot sites as a coarse element, and the `_edge_weights` from them."""
    sites = np.array(sites)
    shifts = [[2 * p * qx, 2 * p * qy, 0] for qy in (0, 1) for qx in (0, 1)]
    block, pos = np.unique(np.concatenate([sites + s for s in shifts]), axis=0,
                           return_inverse=True)
    inner = np.flatnonzero(np.all((block[:, :2] > 0) & (block[:, :2] < 4 * p), axis=1))
    coarse = _slot_sites(p, bool((sites[:, 2] >= 0).any()))
    return block, pos.reshape(4, -1), inner, coarse, _edge_weights(p, block, coarse)


def _summed(grid: _Grid, cls: np.ndarray, pos: np.ndarray, slots: np.ndarray):
    """Block matrices on the block slots `slots` (ascending), summed from the
    element matrices of the classes cls (n x 4, -1 for none) placed at pos."""
    m, k = len(grid.sites), slots.size
    mats = np.vstack([grid.mats.reshape(-1, m * m), np.zeros(m * m)])
    A = np.zeros((len(cls), k * k))
    for q, at in enumerate(pos):
        sel = np.flatnonzero(np.isin(at, slots))
        at = np.searchsorted(slots, at[sel])
        A[:, (at[:, None] * k + at).ravel()] += \
            mats[cls[:, q]][:, (sel[:, None] * m + sel).ravel()]
    return A.reshape(-1, k, k)


def _vertex_blocks(grid: _Grid):
    """The 2 x 2 block of elements around each mesh vertex, partly outside
    the mesh at its ends. Returns each block's rows (rows.size if absent)
    and element classes (-1 if absent), the class of each block, by those
    and by which of its rows are absent, and the inverse of each class's
    inner block (the patch of the vertex), absent rows replaced by identity
    ones."""
    mesh, n = grid.dofmap.mesh, grid.rows.size
    sites, pos, inner = grid.layout[:3]
    j, i = np.divmod(np.arange((mesh.nx + 1) * (mesh.ny + 1)), mesh.nx + 1)
    rows = np.full((4, i.size, len(sites)), n, dtype=np.int32)
    cls = np.full((i.size, 4), -1)
    for q in range(4):
        ii, jj = i - 1 + q % 2, j - 1 + q // 2
        b = np.flatnonzero((ii >= 0) & (ii < mesh.nx) & (jj >= 0) & (jj < mesh.ny))
        rows[q][b[:, None], pos[q]] = grid.elem_rows[jj[b] * mesh.nx + ii[b]]
        cls[b, q] = grid.elem_class[jj[b] * mesh.nx + ii[b]]
    rows = rows.min(axis=0)                 # a site shared by two elements
    first, vclass = _classes(cls, rows == n)
    keep = rows[first][:, inner] < n
    A_II = np.where(keep[:, :, None] & keep[:, None, :],
                    _summed(grid, cls[first], pos, inner), 0.0)
    A_II[:, np.arange(inner.size), np.arange(inner.size)] += ~keep
    return rows, cls, vclass, spd_inverses(A_II, "vertex patch")


def _coarsen(grid: _Grid, rows: np.ndarray, cls: np.ndarray, vclass: np.ndarray,
             inverses: np.ndarray):
    """The next coarser level and the prolongation P from it, given the
    `_vertex_blocks`: a coarse element K is the block around the vertex at
    its centre. Within K, P interpolates along K's edges and extends A-
    harmonically, -A_II^-1 A_IE, to the fine rows inside K, which couple
    only within K's four elements; absent rows and columns of P are zero. K's
    element matrix sum_{e in K} P_e^T S_e P_e is formed once per class."""
    dofmap, mesh, n = grid.dofmap, grid.dofmap.mesh, grid.rows.size
    p, (sites, pos, inner, c_sites, W) = dofmap.layout.p, grid.layout
    # merge 2 x 2 blocks; a coarse facet has its lower/left half's tag and traces
    c_mesh = build_rect_mesh(mesh.domain, mesh.nx // 2, mesh.ny // 2)
    J, I = np.divmod(np.arange(c_mesh.n_elems), c_mesh.nx)
    corner = 2 * J * mesh.nx + 2 * I
    half = np.empty(c_mesh.n_facets, dtype=np.int64)
    half[c_mesh.elem_facets] = mesh.elem_facets[
        np.column_stack([corner, corner + 1, corner, corner + mesh.nx]), np.arange(4)]
    coarse = DofMap(replace(c_mesh, facet_tags=mesh.facet_tags[half]), dofmap.layout,
                    np.flatnonzero(dofmap.facet_slot[half] >= 0))
    c_grid = _grid(coarse, skeleton_dofs(coarse), c_sites)
    v = (2 * J + 1) * (mesh.nx + 1) + 2 * I + 1
    c_on = c_grid.elem_rows < c_grid.rows.size
    first, c_grid.elem_class = _classes(vclass[v, None], ~c_on)
    rows = rows[v]
    A = _summed(grid, cls[v[first]], pos, np.arange(len(sites)))
    P = W * (rows[first] < n)[:, :, None] * c_on[first][:, None, :]
    P[:, inner] = -inverses[vclass[v[first]]] @ (A[:, inner] @ P)
    S = np.swapaxes(P, -1, -2) @ A @ P
    c_grid.mats = 0.5 * (S + np.swapaxes(S, -1, -2))

    # each fine row takes its P row from the one coarse element that owns
    # it: a row on K's right or top edge belongs to the neighbour there
    owned = (((sites[:, 0] < 4 * p) | (I == c_mesh.nx - 1)[:, None])
             & ((sites[:, 1] < 4 * p) | (J == c_mesh.ny - 1)[:, None]))
    return ElementOperator.by_class((n, c_grid.rows.size), np.where(owned, rows, n),
                                    c_grid.elem_rows, c_grid.elem_class, P), c_grid


@dataclass
class _Level:
    """One level of a Multigrid: its matrix with the undamped additive
    Schwarz smoother and the prolongation P from the next level, or, at
    most DENSE_LIMIT rows, a direct solver of the matrix."""

    A: ElementOperator
    smoother: ElementOperator | None = None
    P: ElementOperator | None = None
    direct: LayerCholesky | None = None


class Multigrid:
    """Geometric multigrid V(1,1)-cycle for a skeleton system on a
    structured mesh. Calling it applies one cycle to a residual, or the
    exact solve of a system of one factored level; `sizes` lists the row
    count of each level."""

    def __init__(self, system: GlobalSystem):
        grid, A = system.grid, system.operator
        self.levels = []
        while True:
            level = _Level(A)
            self.levels.append(level)
            n, mesh = A.shape[0], grid.dofmap.mesh
            if n <= DENSE_LIMIT:
                level.direct = LayerCholesky(A, mesh_layers(mesh, grid.elem_rows, n))
                break
            rows, cls, vclass, inverses = _vertex_blocks(grid)
            patches = rows[:, grid.layout[2]]
            level.smoother = ElementOperator.by_class((n, n), patches, patches,
                                                      vclass, inverses)
            if mesh.nx % 2 or mesh.ny % 2:
                break
            level.P, grid = _coarsen(grid, rows, cls, vclass, inverses)
            A = grid.operator()

    @property
    def sizes(self) -> list:
        return [level.A.shape[0] for level in self.levels]

    def __call__(self, r: np.ndarray, depth: int = 0) -> np.ndarray:
        level = self.levels[depth]
        if level.direct is not None:
            return level.direct(r)
        x = DAMPING * (level.smoother @ r)
        if level.P is None:
            return x
        x += level.P @ self(level.P.T @ (r - level.A @ x), depth + 1)
        x += DAMPING * (level.smoother @ (r - level.A @ x))
        return x


def solve_spd(system: GlobalSystem, tol: float = 1e-10):
    """Solve the SPD system through `system.operator` by CG preconditioned
    by its `Multigrid`; on a system of at most DENSE_LIMIT rows, one
    factored level, CG converges in one iteration (method "dense"). A
    concentration system (its mass term clusters the spectrum) first
    spends up to JACOBI_ITERATIONS iterations on the diagonal, which
    finishes conc-trig from 4^2 to 128^2 (p = 1..3) in 2-182 iterations.
    That holds for its eigenfunction data only: `c_prev = 1 + x*y` at
    D = 0.5, dt = 0.1 uses up all 300 at 64^2, p = 1, and at 32^2, p = 2.

    CG stops when the true residual b - A x, recomputed each time the
    updated one meets tol, meets tol too, and otherwise continues from it.
    SolverError is raised when a recomputed residual is not below the one
    before, or after 10 n iterations past the diagonal phase.

    CG solves for the right-hand side times the power of two 2^-k that
    brings its largest entry into [0.5, 1), and scales the solution back:
    exact (unless an entry falls below 2^-1022 when scaled), as every
    operation is linear in it, but no inner product of large data
    overflows. Returns (coefficients, SolveInfo). A system with inf or NaN
    entries raises SolverError, as does a solution that overflows.
    """
    A, n, grid = system.operator, system.rhs.size, system.grid
    finite = np.append(np.isfinite(system.rhs), True)
    ok = (np.isfinite(grid.mats).all(axis=(1, 2))[grid.elem_class]
          & finite[grid.elem_rows].all(axis=1))
    _raise_non_finite([np.flatnonzero(~ok)], "matrix or right-hand-side rows")
    bmax = float(np.abs(system.rhs).max(initial=0.0))
    if bmax == 0.0:
        return np.zeros(n), SolveInfo("trivial", 0, 0.0)
    k = math.frexp(bmax)[1]
    b = np.ldexp(system.rhs, -k)
    bnorm = float(np.linalg.norm(b))
    diag = A.diagonal()
    if np.any(diag <= 0):
        raise SolverError("not SPD / no convergence: nonpositive diagonal entry")

    # -div(kappa grad phi) has no zeroth-order term: a potential system
    # is conditioned like h^-2, beyond the diagonal's budget
    jacobi = JACOBI_ITERATIONS if system.kind == "concentration" else 0
    minv = 1.0 / diag
    precondition, levels, method = (lambda v: minv * v), [], "pcg"
    x = np.zeros(n)
    r = b.copy()
    rz = None                   # None (re)starts CG from the current x
    checked = math.inf          # the last recomputed residual norm
    for it in range(1, jacobi + 10 * n + 1):
        if it == jacobi + 1:
            multigrid = Multigrid(system)
            precondition, levels, rz = multigrid, multigrid.sizes, None
            if it == 1 and multigrid.levels[0].direct is not None:
                method = "dense"
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
        if float(np.linalg.norm(r)) <= tol * bnorm:
            r = b - A @ x
            rnorm = float(np.linalg.norm(r))
            if rnorm <= tol * bnorm:
                break
            if not rnorm < checked:
                raise SolverError("not SPD / no convergence: the true residual "
                                  f"stalls at {rnorm / bnorm:.3g}")
            checked, rz = rnorm, None
    else:
        raise SolverError(f"not SPD / no convergence: {it} iterations exceeded")
    with np.errstate(over="ignore"):
        x = np.ldexp(x, k)
    if not np.isfinite(x).all():
        raise SolverError("non-finite solution: the solution overflows")
    return x, SolveInfo(method, it, rnorm / bnorm, levels)


def compute_indicators(mesh: Mesh, dofmap: DofMap, problem,
                       coeffs: np.ndarray) -> np.ndarray:
    geom = geometry_kernels(dofmap.layout, mesh.dx, mesh.dy)
    kernels = ProblemKernels(geom, problem, mesh)
    out = np.empty((mesh.n_elems, 2))
    # squared residuals of data beyond about 1e154 overflow; the error
    # below reports them, and numpy stays quiet
    with np.errstate(over="ignore", invalid="ignore"):
        u = np.append(coeffs, 0.0)[dofmap.elem_dofs]    # an absent dof reads 0
        for elems in kernels.groups:
            out[elems] = error_indicator(kernels.local_system(elems), u[elems])
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
    return Solution(coeffs[:dofmap.n_field].copy(),
                    coeffs[dofmap.n_field:dofmap.trace_offset].copy(),
                    coeffs[dofmap.trace_offset:].copy(), indicators,
                    float(np.sqrt(indicators.sum())))


def solve_dpg(mesh: Mesh, problem, layout: SpaceLayout, tol: float = 1e-10):
    """Assemble the skeleton system, solve it, recover the local unknowns
    and compute the indicators of one DPG run.

    Returns (Solution, SolveInfo, GlobalSystem).
    """
    validate_problem(problem, mesh)
    dofmap = build_dofmap(mesh, layout, active_facets(mesh))
    system = assemble(mesh, dofmap, problem)
    x, info = solve_spd(system, tol)
    coeffs = recover_local(system, x)
    indicators = compute_indicators(mesh, dofmap, problem, coeffs)
    return extract_solution(coeffs, dofmap, indicators), info, system
