import dataclasses
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import dpgfem.expr as expr_mod
import dpgfem.solver as solver_mod
import dpgfem.verify as verify_mod
from dpgfem.dpg import (
    ProblemKernels,
    condense_local,
    error_indicator,
    geometry_kernels,
)
from dpgfem.fespace import (
    DofMap,
    SpaceLayout,
    build_dofmap,
    gauss_lobatto_nodes,
    lagrange_1d,
)
from dpgfem.manufactured import manufactured_case
from dpgfem.mesh import (
    BoundaryPartition,
    Rectangle,
    build_rect_mesh,
    classify_boundary,
)
from dpgfem.problems import ConcentrationProblem, PotentialProblem
from dpgfem.solver import (
    SolverError,
    active_facets,
    assemble,
    dirichlet_field_dofs,
    extract_solution,
    solve_dpg,
    solve_spd,
)
from dpgfem.verify import case_mesh, classical_galerkin_solve, error_norms

UNIT = Rectangle(0.0, 1.0, 0.0, 1.0)

POT_PARTITION = BoundaryPartition.from_names(
    {"left": "dirichlet", "right": "neumann",
     "bottom": "robin", "top": "robin"})

NO_DIRICHLET_PARTITION = BoundaryPartition.from_names(
    {"left": "neumann", "right": "neumann",
     "bottom": "robin", "top": "robin"})


def _pot_problem(**overrides):
    base = dict(kappa=1.0, beta=1.0, S=(0.0, 0.0), I=0.0, R=0.0)
    base.update(overrides)
    return PotentialProblem(**base)


def _tampered(system, change):
    """The system with change(S, rows) applied to the element matrix S of
    the grid's class with the most elements, whose rows are rows, in a copy
    of the class matrices; the operator, built on first use, reads it."""
    grid = system.grid
    assert "operator" not in vars(system)
    c = np.bincount(grid.elem_class).argmax()
    mats = grid.mats.copy()
    change(mats[c], grid.elem_rows[grid.elem_class == c])
    grid.mats = mats
    return system


def _indefinite(system):
    """Give the largest class the pair A_ij = A_ji = 2 sqrt(A_ii A_jj)
    between its first two rows, taken on its first element that has both;
    the diagonal stays positive."""
    diag = dataclasses.replace(system).operator.diagonal()

    def change(S, rows):
        e = np.flatnonzero(np.all(rows[:, :2] < diag.size, axis=1))[0]
        i, j = rows[e, :2]
        S[..., 0, 1] = S[..., 1, 0] = 2.0 * np.sqrt(diag[i] * diag[j])

    return _tampered(system, change)


class TestGroupedAssembly:
    # pot-trig: the elements without a Robin edge and the Robin stack
    @pytest.mark.parametrize("name, p, n_groups", [("pot-trig", 2, 2),
                                                   ("conc-trig", 1, 1)])
    def test_matches_one_element_groups(self, monkeypatch, name, p, n_groups):
        case = manufactured_case(name)
        mesh = case_mesh(case, 4)
        dofmap = build_dofmap(mesh, SpaceLayout(p=p), active_facets(mesh))
        grouped = assemble(mesh, dofmap, case.problem)
        groups = dofmap.element_groups()
        assert len(groups) == n_groups
        single_groups = [
            dataclasses.replace(g, elems=g.elems[i:i + 1], dofs=g.dofs[i:i + 1])
            for g in groups for i in range(len(g.elems))]
        monkeypatch.setattr(DofMap, "element_groups", lambda self: single_groups)
        single = assemble(mesh, dofmap, case.problem)
        assert len(dofmap.element_groups()) == mesh.n_elems
        diff = sp.linalg.norm(grouped.matrix - single.matrix)
        assert diff <= 1e-13 * sp.linalg.norm(single.matrix)
        assert (np.linalg.norm(grouped.rhs - single.rhs)
                <= 1e-13 * np.linalg.norm(single.rhs))
        assert np.array_equal(grouped.skeleton, single.skeleton)

    # element 2 (Neumann side) has an infinite load; element 1's condensed
    # load overflows when the right-hand side sums it
    @pytest.mark.parametrize("data, message", [
        ({"I": 1e308}, "element 2 has inf or NaN entries in its matrix or load"),
        ({"S": ("1e308*x", 0.0)},
         "element 1 has inf or NaN entries in its matrix or right-hand-side rows"),
    ], ids=["element-load", "right-hand-side"])
    def test_non_finite_system_names_the_same_element(self, monkeypatch, data,
                                                      message):
        mesh = classify_boundary(build_rect_mesh(UNIT, 3, 2), POT_PARTITION)
        problem = _pot_problem(**data)
        grouped = DofMap.element_groups

        def single_groups(dofmap):
            return [dataclasses.replace(g, elems=g.elems[i:i + 1], dofs=g.dofs[i:i + 1])
                    for g in grouped(dofmap) for i in range(len(g.elems))]

        with pytest.raises(SolverError) as on_groups:
            solve_dpg(mesh, problem, SpaceLayout(p=2))
        monkeypatch.setattr(DofMap, "element_groups", single_groups)
        with pytest.raises(SolverError) as on_elements:
            solve_dpg(mesh, problem, SpaceLayout(p=2))
        assert str(on_groups.value) == str(on_elements.value) == (
            "non-finite system: " + message)

    @pytest.mark.parametrize("p", [1, 2])
    def test_indicators_read_absent_traces_as_zero(self, p):
        # Dirichlet left, Neumann right, Robin bottom and top: the Neumann
        # and Robin edges keep trace columns without dofs
        case = manufactured_case("pot-trig")
        mesh = case_mesh(case, 4)
        layout = SpaceLayout(p=p)
        solution, _, system = solve_dpg(mesh, case.problem, layout)
        dofmap = system.dofmap
        coeffs = np.concatenate([solution.field, solution.flux, solution.trace])
        # reading coeffs[-1] for an absent dof would pick up this value
        assert coeffs[-1] != 0.0
        kernels = ProblemKernels(geometry_kernels(layout, mesh.dx, mesh.dy),
                                 case.problem, mesh)
        want = np.empty((mesh.n_elems, 2))
        absent = 0
        for g in dofmap.element_groups():
            for i, e in enumerate(g.elems):
                one = dataclasses.replace(g, elems=g.elems[i:i + 1], dofs=g.dofs[i:i + 1])
                u = np.where(one.dofs >= 0, coeffs[one.dofs], 0.0)
                want[e] = error_indicator(kernels.local_system(one), u)[0]
                absent += int(np.count_nonzero(one.dofs < 0))
        assert absent == 12 * p                 # 4 Neumann and 8 Robin edges
        got = solver_mod.compute_indicators(mesh, dofmap, case.problem, coeffs)
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)
        assert np.array_equal(got, solution.indicators)

    # p = 2 elements have 256 triplets: one element per step, three, 64
    @pytest.mark.parametrize("chunk", [1, 3 * 256, 2**14])
    def test_matrix_is_the_dense_block_sum_without_absent_entries(self, monkeypatch,
                                                                  chunk):
        case = manufactured_case("pot-trig")
        mesh = case_mesh(case, 4)
        system = assemble(mesh, build_dofmap(mesh, SpaceLayout(p=2), active_facets(mesh)),
                          case.problem)
        n, grid = system.rhs.size, system.grid
        want = np.zeros((n + 1, n + 1))
        for c, S in enumerate(grid.mats):
            # every class has absent rows: a Dirichlet field dof or a
            # trace column on a Neumann or Robin edge
            rows = grid.elem_rows[grid.elem_class == c]
            assert np.any(rows == n)
            np.add.at(want, (rows[:, :, None], rows[:, None, :]),
                      np.broadcast_to(S, rows.shape + rows.shape[1:]))
        monkeypatch.setattr(solver_mod, "SCATTER_CHUNK", chunk)
        got = solver_mod.scatter(system.operator)
        assert got.has_canonical_format
        assert np.allclose(got.toarray(), want[:n, :n], rtol=1e-14,
                           atol=1e-14 * np.abs(want).max())
        assert (system.matrix != got).nnz == 0


class TestActiveFacets:
    def test_concentration_uses_interior_only(self):
        mesh = build_rect_mesh(UNIT, 2, 2)
        assert active_facets(mesh).size == 4

    def test_potential_adds_dirichlet_facets(self):
        mesh = classify_boundary(build_rect_mesh(UNIT, 2, 2), POT_PARTITION)
        assert active_facets(mesh).size == 6

    def test_single_element_without_dirichlet_has_none(self):
        mesh = classify_boundary(build_rect_mesh(UNIT, 1, 1), NO_DIRICHLET_PARTITION)
        assert active_facets(mesh).size == 0


class TestDirichletFieldDofs:
    def test_left_side_lattice_column(self):
        mesh = classify_boundary(build_rect_mesh(UNIT, 2, 2), POT_PARTITION)
        for p in (1, 2):
            layout = SpaceLayout(p=p)
            dofmap = build_dofmap(mesh, layout, active_facets(mesh))
            dofs = dirichlet_field_dofs(mesh, dofmap)
            nxp = 2 * p + 1
            assert dofs.size == nxp  # full x=0 lattice column
            assert np.array_equal(dofs, np.arange(nxp) * nxp)

    def test_right_and_top_sides(self):
        part = BoundaryPartition.from_names(
            {"left": "robin", "right": "dirichlet",
             "bottom": "neumann", "top": "dirichlet"})
        mesh = classify_boundary(build_rect_mesh(UNIT, 3, 2), part)
        for p in (1, 2, 3):
            dofmap = build_dofmap(mesh, SpaceLayout(p=p), active_facets(mesh))
            lattice = np.arange(dofmap.n_field).reshape(2 * p + 1, 3 * p + 1)
            assert np.array_equal(dirichlet_field_dofs(mesh, dofmap),
                                  np.union1d(lattice[:, -1], lattice[-1]))

    def test_empty_without_dirichlet_facets(self):
        mesh = build_rect_mesh(UNIT, 2, 2)
        dofmap = build_dofmap(mesh, SpaceLayout(p=1), active_facets(mesh))
        assert dirichlet_field_dofs(mesh, dofmap).size == 0


class TestSolveSpd:
    @pytest.mark.parametrize("name, p, n, ny", [("pot-trig", 1, 4, None),
                                                ("pot-trig", 2, 9, 7),
                                                ("pot-poly2", 3, 6, None)])
    def test_small_system_is_one_factored_level(self, name, p, n, ny):
        system = _case_system(name, p, n, ny)
        x, info = solve_spd(system)
        assert system.rhs.size <= solver_mod.DENSE_LIMIT
        assert (info.method, info.iterations) == ("dense", 1)
        assert info.levels == [system.rhs.size]
        assert info.relative_residual <= 1e-14
        assert _direct_gap(system, x) <= 1e-12

    @pytest.mark.parametrize("name, p, n, tol", [("pot-trig", 2, 16, 1e-10),
                                                 ("conc-trig", 2, 16, 1e-14)])
    def test_reports_the_true_residual(self, name, p, n, tol):
        # at 1e-14 the updated residual of the diagonal phase drifts 25%
        # below the true one
        system = _case_system(name, p, n)
        x, info = solve_spd(system, tol=tol)
        true = (np.linalg.norm(system.rhs - system.matrix @ x)
                / np.linalg.norm(system.rhs))
        assert info.relative_residual <= tol
        assert info.relative_residual == pytest.approx(true, rel=0.1, abs=0.0)

    @pytest.mark.parametrize("name, p, n", [("pot-trig", 2, 16),      # V-cycle
                                            ("pot-trig", 1, 4),       # factored
                                            ("conc-trig", 1, 8)])     # diagonal
    def test_unreachable_tol_is_solver_error(self, name, p, n):
        # the updated residual underflows below 1e-300; the true one stalls
        # near rounding and may not pass for it
        with pytest.raises(SolverError, match="true residual stalls"):
            solve_spd(_case_system(name, p, n), tol=1e-300)

    def test_zero_rhs_short_circuits(self):
        system = _case_system("pot-trig", 1, 4)
        x, info = solve_spd(dataclasses.replace(system, rhs=np.zeros(system.rhs.size)))
        assert np.all(x == 0.0)
        assert info.method == "trivial"
        assert info.iterations == 0

    @pytest.mark.parametrize("jacobi", [0, solver_mod.JACOBI_ITERATIONS])
    @pytest.mark.parametrize("name", ["pot-trig", "conc-trig"])
    def test_indefinite_matrix_raises(self, monkeypatch, name, jacobi):
        # at either start: the factored level, or a concentration step's diagonal
        monkeypatch.setattr(solver_mod, "JACOBI_ITERATIONS", jacobi)
        with pytest.raises(SolverError, match="not SPD / no convergence"):
            solve_spd(_indefinite(_case_system(name, 2, 4)))

    def test_nonpositive_diagonal_raises(self):
        system = _tampered(_case_system("pot-trig", 1, 4),
                           lambda S, block: np.negative(S, out=S))
        with pytest.raises(SolverError, match="nonpositive diagonal entry"):
            solve_spd(system)

    @pytest.mark.parametrize("dense_limit", [solver_mod.DENSE_LIMIT, 1])
    def test_non_finite_system_raises_on_every_path(self, monkeypatch,
                                                    dense_limit):
        monkeypatch.setattr(solver_mod, "DENSE_LIMIT", dense_limit)

        def entry(value):
            return lambda S, block: S[..., 0, 0].fill(value)

        for name in ("pot-trig", "conc-trig"):
            for system in (_tampered(_case_system(name, 1, 3), entry(np.inf)),
                           _tampered(_case_system(name, 1, 3), entry(np.nan))):
                with pytest.raises(SolverError, match="non-finite"):
                    solve_spd(system)
            system = _case_system(name, 1, 3)
            system.rhs[0] = np.nan
            with pytest.raises(SolverError, match="non-finite"):
                solve_spd(system)
            system = _tampered(_case_system(name, 1, 3), entry(np.nan))
            system.rhs[:] = 0.0
            with pytest.raises(SolverError, match="non-finite"):
                solve_spd(system)

    @pytest.mark.parametrize("scale", [2.0 ** -600, 2.0 ** 600], ids=["tiny", "huge"])
    @pytest.mark.parametrize("name, p, n", [("pot-trig", 1, 4),      # dense
                                            ("conc-trig", 1, 4),     # diagonal
                                            ("conc-trig", 2, 16),    # diagonal
                                            ("pot-trig", 2, 16)])    # V-cycle
    def test_load_times_power_of_two_scales_solution_exactly(self, name, p, n,
                                                             scale):
        # at these scales the unscaled inner products underflow or overflow
        system = _case_system(name, p, n)
        x, info = solve_spd(system)
        xs, info_s = solve_spd(dataclasses.replace(system, rhs=system.rhs * scale))
        assert info_s == info
        assert np.array_equal(xs, x * scale)

    def test_diagonal_phase_matches_the_factored_level(self, monkeypatch):
        mesh = build_rect_mesh(UNIT, 2, 2)
        problem = ConcentrationProblem(D=0.5, dt=0.1, c_prev="x*y", J=0.0)
        dofmap = build_dofmap(mesh, SpaceLayout(p=1), active_facets(mesh))
        system = assemble(mesh, dofmap, problem)
        iterative, info_i = solve_spd(system, tol=1e-12)
        assert info_i.method == "pcg" and info_i.levels == []
        assert info_i.iterations > 1
        assert info_i.relative_residual <= 1e-12
        # without the diagonal phase the same system is one factored level
        monkeypatch.setattr(solver_mod, "JACOBI_ITERATIONS", 0)
        dense, info_d = solve_spd(system, tol=1e-12)
        assert (info_d.method, info_d.iterations) == ("dense", 1)
        assert np.allclose(iterative, dense, atol=1e-9)

    @pytest.mark.parametrize("nx, ny, p, D", [(1, 1, 3, 1e12),    # 12 rows
                                              (3, 2, 1, 1e14)])   # 19 rows
    def test_small_diffusion_dominated_step_reports_the_true_residual(
            self, nx, ny, p, D):
        # the solution is nearly constant, where A x cancels: any solve in
        # double precision leaves a true residual of about 1e-3 (12 rows) or
        # 0.06 (19 rows), while CG's updated residual falls below 1e-10
        problem = ConcentrationProblem(D=D, dt=1.0, c_prev="1 + x*y", J=0.0)
        mesh = build_rect_mesh(UNIT, nx, ny)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)     # D dt >= 1
            with pytest.raises(SolverError, match="true residual stalls"):
                solve_dpg(mesh, problem, SpaceLayout(p=p))
            _, info, system = solve_dpg(mesh, problem, SpaceLayout(p=p), tol=0.5)
        assert system.rhs.size < 20
        assert 1e-4 < info.relative_residual <= 0.5


def _case_system(name, p, nx, ny=None):
    case = manufactured_case(name)
    mesh = classify_boundary(build_rect_mesh(case.domain, nx, ny or nx), case.partition)
    dofmap = build_dofmap(mesh, SpaceLayout(p=p), active_facets(mesh))
    return assemble(mesh, dofmap, case.problem)


def _direct_gap(system, x):
    direct = spla.spsolve(system.matrix.tocsc(), system.rhs)
    return np.linalg.norm(x - direct) / np.linalg.norm(direct)


# -- frozen reference: the CSR-based hierarchy setup --------------------
# The hierarchy as built before it was formed per element class: patch
# blocks looked up in the assembled CSR, one inverse per vertex, the
# harmonic extension from CSR rows and the sparse Galerkin product P^T A P.

def _ref_facet_site(mesh, f: np.ndarray):
    """(vertical, i, j) of facets f: orientation and lower-end vertex, in
    the numbering of `build_rect_mesh` (vertical facets first)."""
    n_vert = (mesh.nx + 1) * mesh.ny
    vertical = f < n_vert
    g = np.where(vertical, f, f - n_vert)
    width = np.where(vertical, mesh.nx + 1, mesh.nx)
    return vertical, g % width, g // width


def _ref_facet_id(mesh, vertical: np.ndarray, i: np.ndarray, j: np.ndarray):
    """Inverse of `_facet_site`."""
    n_vert = (mesh.nx + 1) * mesh.ny
    return np.where(vertical, j * (mesh.nx + 1) + i, n_vert + j * mesh.nx + i)


def _ref_sites(dofmap: DofMap, rows: np.ndarray):
    """Site of each row in half-lattice units, (U, V) = twice the field
    lattice coordinates of a field node or of its facet's midpoint for a
    trace, and the trace mode (-1 on field rows)."""
    p = dofmap.layout.p
    nxp, _ = dofmap.field_lattice_shape()
    trace = rows >= dofmap.trace_offset
    U, V = 2 * (rows % nxp), 2 * (rows // nxp)
    mode = np.full(rows.size, -1)
    t = rows[trace] - dofmap.trace_offset
    vertical, i, j = _ref_facet_site(dofmap.mesh, dofmap.active_facets[t // p])
    U[trace] = 2 * p * i + np.where(vertical, 0, p)
    V[trace] = 2 * p * j + np.where(vertical, p, 0)
    mode[trace] = t % p
    return U, V, mode


def _ref_dense_blocks(A: sp.csr_matrix, idx: np.ndarray) -> np.ndarray:
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


def _ref_block_inverses(A: sp.csr_matrix, idx: np.ndarray, what: str) -> np.ndarray:
    """Inverses L^-T L^-1 of the SPD blocks _ref_dense_blocks(A, idx), exactly
    symmetric. Each Cholesky factor L is overwritten by L^-1, by forward
    substitution across the whole stack row by row, which beats one LAPACK
    call per small block and holds two stacks at a time, not four."""
    try:
        L = np.linalg.cholesky(_ref_dense_blocks(A, idx))
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"not SPD / no convergence: {what}: {exc}") from None
    for i in range(L.shape[-1]):
        # rows < i of L already hold L^-1
        row = -np.einsum("bk,bkj->bj", L[:, i, :i], L[:, :i])
        row[:, i] += 1.0
        L[:, i] = row / L[:, i, i, None]
    return np.swapaxes(L, -1, -2) @ L


def _ref_patches(dofmap: DofMap, rows: np.ndarray) -> np.ndarray:
    """Rows of each vertex patch (one per mesh vertex), padded with
    rows.size: the rows whose site lies strictly inside the vertex's
    elements."""
    mesh, h = dofmap.mesh, 2 * dofmap.layout.p
    U, V, _ = _ref_sites(dofmap, rows)
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


def _ref_coarsen(dofmap: DofMap) -> DofMap:
    """Dof map of the mesh with every 2 x 2 block of elements merged; a
    coarse facet takes the tag and the traces of its fine halves."""
    mesh = dofmap.mesh
    coarse = build_rect_mesh(mesh.domain, mesh.nx // 2, mesh.ny // 2)
    vertical, i, j = _ref_facet_site(coarse, np.arange(coarse.n_facets))
    half = _ref_facet_id(mesh, vertical, 2 * i, 2 * j)
    coarse = dataclasses.replace(coarse, facet_tags=mesh.facet_tags[half])
    active = np.flatnonzero(dofmap.facet_slot[half] >= 0)
    return DofMap(coarse, dofmap.layout, active)


def _ref_prolongation(A: sp.csr_matrix, fine: DofMap, rows: np.ndarray,
                      coarse: DofMap, c_rows: np.ndarray) -> sp.csr_matrix:
    """P from the coarse rows c_rows to the fine rows; a coarse Dirichlet
    dof has no row, so its weights are dropped."""
    p = fine.layout.p
    U, V, mode = _ref_sites(fine, rows)
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
    facet = _ref_facet_id(coarse.mesh, v, np.where(v, line, e // 2),
                      np.where(v, e // 2, line))
    dofs_t = (coarse.trace_offset + (coarse.facet_slot[facet] * p)[:, None]
              + np.arange(p))

    r_idx = np.concatenate([np.repeat(f, p + 1), np.repeat(t, p)])
    c_at = np.full(coarse.n_total, c_rows.size)
    c_at[c_rows] = np.arange(c_rows.size)
    c_idx = c_at[np.concatenate([dofs_f.ravel(), dofs_t.ravel()])]
    w = np.concatenate([W_f.ravel(), W_t.ravel()])
    keep = (w != 0.0) & (c_idx < c_rows.size)
    P_E = sp.csr_matrix((w[keep], (r_idx[keep], c_idx[keep])),
                        shape=(rows.size, c_rows.size))

    # rows strictly inside a coarse element: -A_II^-1 A_IE P_E, per element
    inside = np.flatnonzero(~edge)
    parent = (V[inside] // E) * coarse.mesh.nx + U[inside] // E
    inside = inside[np.argsort(parent, kind="stable")]
    inside = inside.reshape(coarse.mesh.n_elems, -1)
    inv = _ref_block_inverses(A, inside, "harmonic-extension block")
    n_b, k = inside.shape
    A_II_inv = sp.bsr_matrix((inv, np.arange(n_b), np.arange(n_b + 1)),
                             shape=(n_b * k, n_b * k))
    place = sp.csr_matrix((np.ones(n_b * k),
                           (inside.ravel(), np.arange(n_b * k))),
                          shape=(rows.size, n_b * k))
    return (P_E - place @ (A_II_inv @ (A[inside.ravel()] @ P_E))).tocsr()


def _reference_multigrid(system):
    """A Multigrid whose levels are built by the CSR-based setup and hold
    CSR matrices: A, P, the smoother's sum of patch inverses, and a dense
    inverse on the first level of at most DENSE_LIMIT rows."""
    A = system.matrix
    dofmap = system.dofmap
    rows = system.skeleton
    cycle = object.__new__(solver_mod.Multigrid)
    cycle.levels = []
    while True:
        level = solver_mod._Level(A)
        cycle.levels.append(level)
        if A.shape[0] <= solver_mod.DENSE_LIMIT:
            level.direct = np.linalg.inv(A.toarray()).__matmul__
            break
        patches = _ref_patches(dofmap, rows)
        inverses = _ref_block_inverses(A, patches, "vertex patch")
        level.smoother = solver_mod.scatter(solver_mod.ElementOperator(
            A.shape, patches.ravel(), patches.ravel(), [(len(patches), inverses)]))
        if dofmap.mesh.nx % 2 or dofmap.mesh.ny % 2:
            break
        coarse = _ref_coarsen(dofmap)
        c_rows = solver_mod.skeleton_dofs(coarse)
        level.P = _ref_prolongation(A, dofmap, rows, coarse, c_rows)
        A_c = level.P.T.tocsr() @ (A @ level.P)
        A = (0.5 * (A_c + A_c.T)).tocsr()
        A.sum_duplicates()
        dofmap, rows = coarse, c_rows
    return cycle


def _oracle_system(name, p, n):
    """The condensed field system of the Galerkin oracle."""
    case = manufactured_case(name)
    systems = []
    solve = verify_mod.solve_spd
    verify_mod.solve_spd = lambda system, tol: (systems.append(system),
                                                solve(system, tol))[1]
    try:
        classical_galerkin_solve(case_mesh(case, n), case.problem, SpaceLayout(p=p))
    finally:
        verify_mod.solve_spd = solve
    return systems[0]


def _csr(op):
    """The entries of an ElementOperator as a CSR matrix, summed by scipy."""
    n, m = op.shape
    rows, cols, vals = [], [], []
    for count, M, r, c in op.parts:
        R, C, V = np.broadcast_arrays(op.rows[r].reshape(count, -1, 1),
                                      op.cols[c].reshape(count, 1, -1), M)
        keep = (R < n) & (C < m)
        rows.append(R[keep]), cols.append(C[keep]), vals.append(V[keep])
    return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows),
                                                 np.concatenate(cols))),
                         shape=op.shape).tocsr()


def _dense(op):
    """A square ElementOperator as a dense array, summed by one bincount."""
    n = op.shape[0]
    index, vals = [], []
    for count, M, r, c in op.parts:
        rows = op.rows[r].reshape(count, -1, 1)
        index.append((rows * (n + 1) + op.cols[c].reshape(count, 1, -1)).ravel())
        vals.append(np.broadcast_to(M, (count,) + M.shape[-2:]).ravel())
    A = np.bincount(np.concatenate(index), np.concatenate(vals),
                    (n + 1) ** 2).reshape(n + 1, n + 1)[:n, :n]
    return A


def _assert_applies_as(op, matrix, rng):
    """The grouped product matches the CSR one to 1e-14 relative."""
    for v in rng.standard_normal((3, matrix.shape[1])):
        want = matrix @ v
        assert np.linalg.norm(op @ v - want) <= 1e-14 * np.linalg.norm(want)


def _assert_same_hierarchy(system):
    """Every level's A to 1e-12 of its largest entry, P to 1e-11, and the
    V-cycle on random vectors to 1e-12. The grouped A, P and P^T apply
    their entries to 1e-14.

    P's harmonic rows solve with A_II, whose condition number reaches about
    3e4 at p = 3 on 16^2: summing A_II in another order moves them by
    about 1e-12 (both setups lie within 2.1e-12 of an extension computed
    with extended-precision residuals), while A = P^T A P is stationary in
    those errors."""
    new, ref = solver_mod.Multigrid(system), _reference_multigrid(system)
    assert new.sizes == ref.sizes
    rng = np.random.default_rng(3)
    for got, want in zip(new.levels, ref.levels):
        assert (got.direct is None) == (want.direct is None)
        A = _csr(got.A)
        assert abs(A - want.A).max() <= 1e-12 * abs(want.A).max()
        _assert_applies_as(got.A, A, rng)
        assert (got.P is None) == (want.P is None)
        if got.P is not None:
            P = _csr(got.P)
            assert abs(P - want.P).max() <= 1e-11 * abs(want.P).max()
            _assert_applies_as(got.P, P, rng)
            _assert_applies_as(got.P.T, P.T.tocsr(), rng)
    for v in rng.standard_normal((3, new.sizes[0])):
        want = ref(v)
        assert np.linalg.norm(new(v) - want) <= 1e-12 * np.linalg.norm(want)


class TestMultigrid:
    @pytest.mark.parametrize("p, n", [(2, 16), (2, 32), (2, 64), (3, 16),
                                      (3, 32), (3, 64), (1, 32), (1, 64)])
    def test_iterations_flat_under_refinement(self, monkeypatch, p, n):
        monkeypatch.setattr(solver_mod, "JACOBI_ITERATIONS", 0)
        system = _case_system("pot-trig", p, n)
        x, info = solve_spd(system)
        assert info.method == "pcg"
        assert len(info.levels) >= 2
        assert info.iterations <= 20
        assert _direct_gap(system, x) <= 1e-8

    @pytest.mark.parametrize("dense_limit", [solver_mod.DENSE_LIMIT, 1])
    @pytest.mark.parametrize("name, p", [("pot-trig", 2), ("conc-trig", 3)])
    def test_vcycle_symmetric_positive(self, monkeypatch, dense_limit, name, p):
        # pot-trig has Dirichlet, Neumann and Robin groups; the hierarchy
        # ends factored at 8 x 8 or, at dense_limit 1, smoothed at 1 x 1
        monkeypatch.setattr(solver_mod, "DENSE_LIMIT", dense_limit)
        cycle = solver_mod.Multigrid(_case_system(name, p, 16))
        assert len(cycle.sizes) == (2 if dense_limit > 1 else 5)
        rng = np.random.default_rng(7)
        for _ in range(5):
            v, w = rng.standard_normal((2, cycle.sizes[0]))
            Mv, Mw = cycle(v), cycle(w)
            assert (abs(v @ Mw - w @ Mv)
                    <= 1e-12 * np.linalg.norm(v) * np.linalg.norm(Mw))
            assert v @ Mv > 0.0

    def test_indefinite_patch_is_solver_error(self):
        # the hierarchy reads the element matrices, not system.matrix: the
        # largest group's first two field nodes share the patch of the
        # element's lower-left vertex
        with pytest.raises(SolverError,
                           match="not SPD / no convergence: vertex patch"):
            solve_spd(_indefinite(_case_system("pot-trig", 2, 16)))

    @pytest.mark.parametrize("name, p, nx, ny, dense_limit", [
        *[("pot-trig", p, n, n, None) for n in (8, 16) for p in (1, 2, 3)],
        ("conc-trig", 2, 16, 16, None),
        ("pot-trig", 2, 9, 7, 1),           # smoothed only, no hierarchy
        ("pot-trig", 2, 8, 8, 1),           # 1 x 1 level smoothed only
        ("pot-trig", 2, 10, 10, None),      # one factored level
        ("pot-trig", 2, 20, 20, None),      # 10 x 10 level factored
        ("pot-trig", 1, 32, 32, None),      # 16 x 16 level factored
    ])
    def test_matches_the_csr_reference(self, monkeypatch, name, p, nx, ny,
                                       dense_limit):
        # Dirichlet, Neumann and (stacked) Robin groups on pot-trig
        if dense_limit is not None:
            monkeypatch.setattr(solver_mod, "DENSE_LIMIT", dense_limit)
        _assert_same_hierarchy(_case_system(name, p, nx, ny))

    @pytest.mark.parametrize("name", ["pot-trig", "conc-trig"])
    def test_oracle_matches_the_csr_reference(self, name):
        # a field system condensed like DPG's: its rows are the field
        # lattice nodes on element edges, 33^2 - 16^2, less pot-trig's 33
        # Dirichlet nodes
        system = _oracle_system(name, 2, 16)
        rows = {"pot-trig": 800, "conc-trig": 833}[name]
        assert system.rhs.size == system.skeleton.size == rows
        _assert_same_hierarchy(system)

    def test_patch_blocks_are_inverted_per_class(self, monkeypatch):
        # 5 position classes per direction on conc-trig, whose element
        # matrices are shared by their groups
        counts = []
        inverses = solver_mod.spd_inverses

        def counting(blocks, what):
            if what == "vertex patch":
                counts.append(len(blocks))
            return inverses(blocks, what)

        monkeypatch.setattr(solver_mod, "spd_inverses", counting)
        cycle = solver_mod.Multigrid(_case_system("conc-trig", 2, 32))
        assert len(counts) == sum(level.P is not None for level in cycle.levels)
        assert max(counts) <= 25

    def test_odd_mesh_smoother_only(self, monkeypatch):
        monkeypatch.setattr(solver_mod, "DENSE_LIMIT", 1)
        monkeypatch.setattr(solver_mod, "JACOBI_ITERATIONS", 0)
        system = _case_system("pot-trig", 2, 9, 7)
        x, info = solve_spd(system)
        assert info.levels == [system.matrix.shape[0]]
        assert _direct_gap(system, x) <= 1e-8

    def test_jacobi_phase_then_multigrid(self, monkeypatch):
        # a concentration system restarts on the V-cycle after the budget
        monkeypatch.setattr(solver_mod, "JACOBI_ITERATIONS", 5)
        system = _case_system("conc-trig", 3, 16)
        x, info = solve_spd(system)
        assert 5 < info.iterations <= 25
        assert info.levels
        assert _direct_gap(system, x) <= 1e-8

    @pytest.mark.parametrize("n, levels", [(16, [1792, 448]),
                                           (40, [11200, 2800, 700])])
    def test_potential_starts_on_the_vcycle(self, n, levels):
        # the first level of at most DENSE_LIMIT rows (8^2, 10^2) is factored
        system = _case_system("pot-trig", 2, n)
        x, info = solve_spd(system)
        assert info.method == "pcg"
        assert info.levels == levels
        assert 2 <= info.iterations <= 20
        assert _direct_gap(system, x) <= 1e-8

    def test_benchmark_smoke_mesh_iterates(self):
        # a tampered residual check of the smoke pot_solve run (16^2, p = 2)
        # scales the solve's residual by 1e3; it must stay an iterative
        # one, near tol, to fail the check
        case = manufactured_case("pot-trig")
        _, info, _ = solve_dpg(case_mesh(case, 16), case.problem, SpaceLayout(p=2))
        assert info.method == "pcg" and info.iterations >= 2
        assert info.relative_residual > 1e-13

    def test_concentration_converges_in_the_diagonal_phase(self):
        system = _case_system("conc-trig", 2, 32)
        x, info = solve_spd(system)
        assert info.method == "pcg"
        assert info.levels == []
        assert _direct_gap(system, x) <= 1e-8

    def test_galerkin_oracle_shares_the_solver(self, monkeypatch):
        # the diagonal finishes the concentration oracle; at budget 0 the
        # same system goes through one V-cycle hierarchy instead
        built = []

        class Counting(solver_mod.Multigrid):
            def __init__(self, system):
                built.append(system.kind)
                super().__init__(system)

        monkeypatch.setattr(solver_mod, "Multigrid", Counting)
        case = manufactured_case("conc-trig")
        mesh = case_mesh(case, 16)
        layout = SpaceLayout(p=3)
        default = classical_galerkin_solve(mesh, case.problem, layout)
        assert built == []
        monkeypatch.setattr(solver_mod, "JACOBI_ITERATIONS", 0)
        multigrid = classical_galerkin_solve(mesh, case.problem, layout)
        assert built == ["concentration"]
        assert (np.linalg.norm(multigrid - default)
                <= 1e-8 * np.linalg.norm(default))


class TestAssemble:
    def test_matrix_symmetric(self):
        mesh = classify_boundary(build_rect_mesh(UNIT, 3, 3), POT_PARTITION)
        problem = _pot_problem(S=("x", "y"), I=1.0, R="x")
        dofmap = build_dofmap(mesh, SpaceLayout(p=2), active_facets(mesh))
        system = assemble(mesh, dofmap, problem)
        asym = (system.matrix - system.matrix.T).toarray()
        scale = np.abs(system.matrix.toarray()).max()
        assert np.abs(asym).max() <= 1e-12 * scale

    @pytest.mark.parametrize("beta", [None, "1 + 1e3*x"])     # the case's, a steep one
    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_dirichlet_dofs_have_no_row(self, monkeypatch, p, n, beta):
        case = manufactured_case("pot-trig")
        problem = (case.problem if beta is None
                   else dataclasses.replace(case.problem, beta=beta))
        mesh = case_mesh(case, n)
        dofmap = build_dofmap(mesh, SpaceLayout(p=p), active_facets(mesh))
        system = assemble(mesh, dofmap, problem)
        dirichlet = dirichlet_field_dofs(mesh, dofmap)
        assert dirichlet.size == n * p + 1
        assert not np.isin(system.skeleton, dirichlet).any()

        # the form that kept them: rows for every field node on element
        # edges, eliminated as identity rows; its free block is the export
        on = (np.arange(n * p + 1)[:, None] % p == 0) | (np.arange(n * p + 1) % p == 0)
        full = np.concatenate([np.flatnonzero(on),
                               np.arange(dofmap.trace_offset, dofmap.n_total)])
        rows, mats, grid = [], [], system.grid
        for group in dofmap.element_groups():
            _, G = solver_mod._local_columns(dofmap.layout, group.dofs.shape[1])
            # an absent trace dof (-1) stands for none, like the row count
            d = group.dofs[:, G]
            rows.append(np.where(d < 0, full.size, np.searchsorted(full, d)))
            mats.append(grid.mats[grid.elem_class[group.elems]])
        rows = np.concatenate(rows).ravel()
        free = np.flatnonzero(~np.isin(full, dirichlet))
        want = solver_mod.scatter(solver_mod.ElementOperator(
            (full.size,) * 2, rows, rows, [(mesh.n_elems, np.concatenate(mats))]))
        want = want[free][:, free]
        assert abs(system.matrix - want).max() <= 1e-12 * abs(want).max()

        # no level of the hierarchy has a row for one either
        grids, grid = [system.grid], solver_mod._grid
        monkeypatch.setattr(solver_mod, "_grid",
                            lambda *args: grids.append(grid(*args)) or grids[-1])
        monkeypatch.setattr(solver_mod, "DENSE_LIMIT", 1)
        sizes = solver_mod.Multigrid(system).sizes
        assert [g.rows.size for g in grids] == sizes
        for g in grids:
            assert not np.isin(g.rows, dirichlet_field_dofs(g.dofmap.mesh, g.dofmap)).any()
        monkeypatch.undo()

        coeffs = solver_mod.recover_local(system, solve_spd(system)[0])
        assert np.all(coeffs[dirichlet] == 0.0)


class TestSamplingCounts:
    """Each pass samples a volume coefficient once, on every element of the
    mesh: assembly and the indicator pass of a DPG solve, and the Galerkin
    oracle. The benchmark pins the expression count of these passes."""

    MESH = (5, 4)
    LAYOUT = SpaceLayout(p=2)

    def _mesh(self):
        return build_rect_mesh(UNIT, *self.MESH)

    def test_compiled_expression_evaluations(self, monkeypatch):
        evals = []
        compile_expr = expr_mod.compile_expr

        def counting(text):
            fn = compile_expr(text)

            def counted(x, y):
                evals.append((x, y))
                return fn(x, y)
            return counted

        monkeypatch.setattr(expr_mod, "compile_expr", counting)
        problem = ConcentrationProblem(D=0.5, dt=0.1, c_prev="1 + x*y", J=0.0)
        mesh = self._mesh()
        solve_dpg(mesh, problem, self.LAYOUT)
        nq = self.LAYOUT.default_quad_points ** 2
        assert len(evals) == 2 * mesh.n_elems * nq

    def test_plain_callable_called_once_per_pass(self):
        calls = []

        def c_prev(x, y):
            calls.append(x.shape)
            return 1.0 + x * y

        problem = ConcentrationProblem(D=0.5, dt=0.1, c_prev=c_prev, J=0.0)
        mesh = self._mesh()
        nq = self.LAYOUT.default_quad_points ** 2
        solve_dpg(mesh, problem, self.LAYOUT)
        assert calls == [(mesh.n_elems, nq)] * 2
        calls.clear()
        classical_galerkin_solve(mesh, problem, self.LAYOUT)
        assert calls == [(mesh.n_elems, nq)]


class TestGroupedOperator:
    # the solves apply the element matrices by class; system.matrix is the CSR export
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("name", ["conc-poly2", "conc-trig", "pot-poly2",
                                      "pot-trig"])
    def test_matches_the_csr_export(self, name, p):
        # pot cases hold Dirichlet rows and stacked Robin groups
        system = _case_system(name, p, 6)
        A = system.matrix
        rng = np.random.default_rng(5)
        for x in rng.standard_normal((3, A.shape[0])):
            want = A @ x
            assert (np.linalg.norm(system.operator @ x - want)
                    <= 1e-14 * np.linalg.norm(want))
        assert np.allclose(system.operator.diagonal(), A.diagonal(),
                           rtol=1e-14, atol=0.0)
        assert abs(A - _dense(system.operator)).max() <= 1e-14 * abs(A).max()

    def test_by_class_without_an_element_alone_in_its_class(self):
        # the oracle's merged groups: every class holds two elements, so
        # there is no stack of lone elements
        rng = np.random.default_rng(9)
        rows, cols = rng.integers(0, 6, (2, 4, 3))
        classes, mats = np.array([0, 1, 0, 1]), rng.standard_normal((2, 3, 3))
        op = solver_mod.ElementOperator.by_class((6, 6), rows, cols, classes, mats)
        assert [count for count, _ in op.runs] == [2, 2]
        want = np.zeros((6, 6))
        for e in range(4):
            np.add.at(want, (rows[e][:, None], cols[e]), mats[classes[e]])
        x = rng.standard_normal(6)
        assert np.linalg.norm(op @ x - want @ x) <= 1e-14 * np.linalg.norm(want @ x)

    @pytest.mark.parametrize("name", ["pot-trig", "conc-trig"])
    def test_export_is_the_scatter_of_the_blocks(self, name):
        # every entry of the class matrices with a row and a column, summed by scipy
        # in the same order; the export is canonical with int32 indices
        for system in (_case_system(name, 2, 8), _oracle_system(name, 2, 8)):
            want = _csr(system.operator)
            got = system.matrix
            assert got.has_canonical_format
            for attr in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(got, attr), getattr(want, attr))
            assert got.indices.dtype == got.indptr.dtype == np.int32

    @pytest.mark.parametrize("name, p, n", [("pot-trig", 1, 4),      # dense
                                            ("conc-trig", 1, 4),     # diagonal
                                            ("conc-trig", 2, 16),    # diagonal
                                            ("pot-trig", 2, 16)])    # V-cycle
    def test_solve_does_not_read_the_export(self, name, p, n):
        x, info = solve_spd(_case_system(name, p, n))
        system = _case_system(name, p, n)
        system.matrix
        x_read, info_read = solve_spd(system)
        assert info_read == info
        assert np.array_equal(x_read, x)

    @pytest.mark.parametrize("name, p, n, ny", [
        ("pot-trig", 2, 8, None), ("conc-trig", 3, 8, None),  # below DENSE_LIMIT
        ("pot-trig", 2, 16, None), ("conc-trig", 2, 16, None),
        ("pot-trig", 2, 12, 3),         # layers along mesh columns
        ("pot-trig", 2, 3, 12),         # layers along mesh rows
        ("pot-trig", 2, 12, None), ("pot-trig", 3, 10, None),
        ("conc-trig", 1, 20, None)])
    def test_factored_level_matches_the_sparse_direct_solve(self, monkeypatch,
                                                            name, p, n, ny):
        # rows above DENSE_LIMIT make one factored level (a LayerCholesky)
        # under a raised limit; a concentration system skips the diagonal
        system = _case_system(name, p, n, ny)
        monkeypatch.setattr(solver_mod, "DENSE_LIMIT",
                            max(solver_mod.DENSE_LIMIT, system.rhs.size))
        monkeypatch.setattr(solver_mod, "JACOBI_ITERATIONS", 0)
        x, info = solve_spd(system)
        assert info.method == "dense"
        assert _direct_gap(system, x) <= 1e-10


class TestLayerCholesky:
    def test_robin_stacked_potential(self):
        # a heavy, varying beta stacks the Robin groups' element matrices
        mesh = classify_boundary(build_rect_mesh(UNIT, 8, 6), POT_PARTITION)
        problem = _pot_problem(beta="1 + 1e6*x", S=("x", "y"), I=1.0, R="x")
        dofmap = build_dofmap(mesh, SpaceLayout(p=2), active_facets(mesh))
        system = assemble(mesh, dofmap, problem)
        assert any(M.ndim == 3 for _, M in system.operator.runs)
        x, info = solve_spd(system)
        assert info.method == "dense"
        assert _direct_gap(system, x) <= 1e-10

    @pytest.mark.parametrize("nx, ny", [(6, 6), (7, 3), (3, 7), (12, 3), (3, 12)])
    def test_elements_hold_rows_of_two_consecutive_layers(self, nx, ny):
        # the layers come from the fine level's slots; the groups' rows agree
        system = _case_system("pot-trig", 3, nx, ny)
        n, dofmap = system.rhs.size, system.dofmap
        layer = solver_mod.mesh_layers(dofmap.mesh, system.grid.elem_rows, n)
        assert np.unique(layer).size == max(nx, ny)
        row = solver_mod._row_lookup(system.skeleton, dofmap.n_total)
        for g in dofmap.element_groups():
            _, G = solver_mod._local_columns(dofmap.layout, g.dofs.shape[1])
            dofs = row[g.dofs[:, G]]
            own = (g.elems % nx if nx > ny else g.elems // nx)[:, None]
            layers = np.append(layer, -1)[dofs]         # -1: a Dirichlet dof
            assert np.all((layers >= own) | (dofs == n))
            assert np.all(layers <= own + 1)

    def test_coarse_level_is_solved_exactly(self):
        # 20^2 -> 10^2: the factored level holds Robin rows, and its
        # elements hold Dirichlet dofs without rows
        cycle = solver_mod.Multigrid(_case_system("pot-trig", 2, 20))
        coarsest = cycle.levels[-1]
        assert len(cycle.levels) == 2
        assert coarsest.direct is not None and coarsest.smoother is None
        A = _csr(coarsest.A).tocsc()
        for v in np.random.default_rng(11).standard_normal((3, A.shape[0])):
            want = spla.spsolve(A, v)
            assert (np.linalg.norm(coarsest.direct(v) - want)
                    <= 1e-10 * np.linalg.norm(want))

    def test_one_layer_is_one_dense_factor(self):
        # two elements share row 1; the second one's middle dof has no row
        M = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
        rows = np.array([0, 1, 2, 1, 4, 3])
        A = solver_mod.ElementOperator((4, 4), rows, rows, [(2, M)])
        x = solver_mod.LayerCholesky(A, np.zeros(4, dtype=np.intp))(np.arange(1.0, 5.0))
        want = np.linalg.solve(_dense(A), np.arange(1.0, 5.0))
        assert np.allclose(x, want, rtol=1e-14, atol=0.0)


def _uncondensed_solve(mesh, problem, layout):
    """Direct solve of the full system summed from the group blocks; an
    absent trace dof (-1) goes to an extra last row and column, which no
    free dof reaches."""
    dofmap = build_dofmap(mesh, layout, active_facets(mesh))
    kernels = ProblemKernels(geometry_kernels(layout, mesh.dx, mesh.dy),
                             problem, mesh)
    n = dofmap.n_total
    rows, cols, vals = [], [], []
    rhs = np.zeros(n + 1)
    for group in dofmap.element_groups():
        S, r = condense_local(kernels.local_system(group))
        dofs = np.where(group.dofs < 0, n, group.dofs)
        n_g, m = dofs.shape
        rows.append(np.repeat(dofs, m, axis=1).ravel())
        cols.append(np.tile(dofs, m).ravel())
        vals.append(np.broadcast_to(S, (n_g, m, m)).ravel())
        np.add.at(rhs, dofs, r)
    matrix = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n + 1,) * 2)
    free = np.setdiff1d(np.arange(dofmap.n_total), dirichlet_field_dofs(mesh, dofmap))
    x = np.zeros(dofmap.n_total)
    x[free] = spla.spsolve(matrix.tocsr()[free][:, free].tocsc(), rhs[free])
    return x, dofmap


def _ref_recover_local(system, systems, x):
    """Frozen reference: the back-substitution u_L = y - X u_G group by
    group, X and y from `_condense_group` of each element system given to
    `condensed_system`, shared or stacked."""
    dofmap = system.dofmap
    row = solver_mod._row_lookup(system.skeleton, dofmap.n_total)
    coeffs = np.zeros(dofmap.n_total)
    coeffs[system.skeleton] = x
    x = np.append(x, 0.0)
    for _elems, trial, S, r in systems:
        L, G = solver_mod._local_columns(dofmap.layout, r.shape[1])
        _, _, X, y = solver_mod._condense_group(S, r, L, G)
        u_G = x[row[trial[:, G]]]
        coeffs[trial[:, L]] = (y - u_G @ X.T if X.ndim == 2
                               else y - (X @ u_G[:, :, None])[:, :, 0])
    return coeffs


class TestCondensation:
    @pytest.mark.parametrize("name, p, oracle", [
        ("pot-trig", 2, False),     # with a steep beta: a stacked Robin X
        ("conc-trig", 3, False),
        ("pot-trig", 1, True),      # the Galerkin oracle: no local unknowns
    ])
    def test_recover_local_matches_the_per_group_reference(self, monkeypatch,
                                                           name, p, oracle):
        case = manufactured_case(name)
        problem = (dataclasses.replace(case.problem, beta="1 + 1e6*x")
                   if name == "pot-trig" and not oracle else case.problem)
        mesh = case_mesh(case, 8)
        module = verify_mod if oracle else solver_mod
        condense, recorded = module.condensed_system, []

        def recording(dofmap, kind, systems):
            recorded.append(list(systems))
            recorded.append(condense(dofmap, kind, recorded[-1]))
            return recorded[-1]

        monkeypatch.setattr(module, "condensed_system", recording)
        if oracle:
            classical_galerkin_solve(mesh, problem, SpaceLayout(p=p))
        else:
            assemble(mesh, build_dofmap(mesh, SpaceLayout(p=p), active_facets(mesh)),
                     problem)
        systems, system = recorded
        assert system.local.shape[1] == (0 if oracle else 2 * p * p + (p - 1) ** 2)
        if name == "pot-trig":
            assert any(M.ndim == 3 for _, M in system.operator.runs)
        x = solve_spd(system)[0]
        got = solver_mod.recover_local(system, x)
        want = _ref_recover_local(system, systems, x)
        assert got.dtype == np.float64
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)

    # pot-trig has Dirichlet, Neumann and (stacked-B) Robin groups
    @pytest.mark.parametrize("name", ["pot-trig", "conc-trig"])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_matches_uncondensed_direct_solve(self, name, p):
        case = manufactured_case(name)
        mesh = case_mesh(case, 4)
        layout = SpaceLayout(p=p)
        solution, _, system = solve_dpg(mesh, case.problem, layout, tol=1e-13)
        full, dofmap = _uncondensed_solve(mesh, case.problem, layout)
        for got, want in ((solution.field, full[:dofmap.n_field]),
                          (solution.flux,
                           full[dofmap.n_field:dofmap.trace_offset]),
                          (solution.trace, full[dofmap.trace_offset:])):
            assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)

    @pytest.mark.parametrize("name", ["pot-trig", "conc-trig"])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_local_unknowns_leave_the_global_system(self, name, p):
        case = manufactured_case(name)
        mesh = case_mesh(case, 4)
        _, _, system = solve_dpg(mesh, case.problem, SpaceLayout(p=p))
        n_local = 2 * p * p + (p - 1) ** 2
        n_dirichlet = dirichlet_field_dofs(mesh, system.dofmap).size
        assert system.matrix.shape[0] == (system.dofmap.n_total
                                          - mesh.n_elems * n_local - n_dirichlet)
        assert system.skeleton.shape[0] == system.matrix.shape[0]

    @pytest.mark.parametrize("S", [
        np.array([[-1.0, 0.5], [0.5, 2.0]]),       # shared, S_LL negative
        np.array([[[0.0, 0.5], [0.5, 2.0]]]),      # stacked, S_LL singular
    ])
    def test_bad_local_block_is_solver_error(self, S):
        # local column 0, skeleton column 1
        with pytest.raises(SolverError, match="not SPD"):
            solver_mod._condense_group(S, np.ones((1, 2)), np.array([0]),
                                       np.array([1]))

    @pytest.mark.parametrize("block", [[[np.inf, 0.0], [0.0, 1.0]],
                                       [[np.nan, 0.0], [0.0, 1.0]],
                                       [[1.0, np.inf], [np.inf, 1.0]]])
    def test_non_finite_block_is_a_quiet_solver_error(self, block):
        # numpy's Cholesky factors some inf and NaN blocks without an error
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for blocks in (np.array(block), np.array([block])):
                with pytest.raises(SolverError, match="not SPD.*infs or NaNs"):
                    solver_mod.spd_inverses(blocks, "local block")
            A = solver_mod.ElementOperator((2, 2), np.arange(2), np.arange(2),
                                           [(1, np.array(block))])
            with pytest.raises(SolverError, match="not SPD / no convergence: "
                               "factored level, layer 0: .*infs or NaNs"):
                solver_mod.LayerCholesky(A, np.zeros(2, dtype=np.intp))


class TestSolveDpg:
    def test_zero_loads_give_zero_solution(self):
        mesh = build_rect_mesh(UNIT, 2, 2)
        problem = ConcentrationProblem(D=0.5, dt=0.1, c_prev=0.0, J=0.0)
        solution, info, _ = solve_dpg(mesh, problem, SpaceLayout(p=1))
        assert np.all(solution.field == 0.0)
        assert np.all(solution.flux == 0.0)
        assert np.all(solution.trace == 0.0)
        assert solution.eta == 0.0
        assert info.method == "trivial"

    @pytest.mark.parametrize("name", ["conc-trig", "pot-trig"])
    def test_partitions_the_elements_once(self, monkeypatch, name):
        partitions, lookups = [], []
        partition, element_groups = DofMap._partition, DofMap.element_groups

        def counted_partition(self):
            partitions.append(self)
            return partition(self)

        def counted_groups(self):
            lookups.append(self)
            return element_groups(self)

        monkeypatch.setattr(DofMap, "_partition", counted_partition)
        monkeypatch.setattr(DofMap, "element_groups", counted_groups)
        case = manufactured_case(name)
        solve_dpg(case_mesh(case, 4), case.problem, SpaceLayout(p=2))
        # assembly and the indicator pass both ask for the groups
        assert len(lookups) == 2 and lookups[0] is lookups[1]
        assert partitions == [lookups[0]]

    @pytest.mark.parametrize("name", ["conc-poly2", "pot-poly2"])
    def test_exact_reproduction_of_quadratic_cases(self, name):
        case = manufactured_case(name)
        mesh = case_mesh(case, 2)
        solution, _, _ = solve_dpg(mesh, case.problem, SpaceLayout(p=2))
        dofmap = build_dofmap(mesh, SpaceLayout(p=2), active_facets(mesh))
        norms = error_norms(mesh, dofmap, solution, case)
        assert norms.e_field <= 1e-9 * norms.norm_field
        assert norms.e_flux <= 1e-9 * norms.norm_flux
        assert norms.e_trace <= 1e-9 * max(norms.norm_trace, 1.0)

    def test_dirichlet_dofs_exactly_zero(self):
        case = manufactured_case("pot-trig")
        mesh = case_mesh(case, 4)
        solution, _, system = solve_dpg(mesh, case.problem, SpaceLayout(p=2))
        dirichlet = dirichlet_field_dofs(mesh, system.dofmap)
        assert dirichlet.size > 0
        assert np.all(solution.field[dirichlet] == 0.0)

    def test_load_linearity(self):
        mesh = build_rect_mesh(UNIT, 4, 4)
        layout = SpaceLayout(p=2)
        one = ConcentrationProblem(D=0.5, dt=0.1, c_prev="x*y + 1", J="x")
        two = ConcentrationProblem(D=0.5, dt=0.1, c_prev="2*(x*y + 1)",
                                   J="2*x")
        sol1, _, _ = solve_dpg(mesh, one, layout, tol=1e-12)
        sol2, _, _ = solve_dpg(mesh, two, layout, tol=1e-12)
        for a, b in ((sol1.field, sol2.field), (sol1.flux, sol2.flux),
                     (sol1.trace, sol2.trace)):
            scale = np.abs(b).max()
            assert np.abs(2.0 * a - b).max() <= 1e-9 * scale

    def test_repeat_runs_bitwise_identical(self):
        case = manufactured_case("pot-trig")
        mesh = case_mesh(case, 4)
        sol_a, _, _ = solve_dpg(mesh, case.problem, SpaceLayout(p=1))
        sol_b, _, _ = solve_dpg(mesh, case.problem, SpaceLayout(p=1))
        assert np.array_equal(sol_a.field, sol_b.field)
        assert np.array_equal(sol_a.flux, sol_b.flux)
        assert np.array_equal(sol_a.trace, sol_b.trace)
        assert np.array_equal(sol_a.indicators, sol_b.indicators)

    def test_indicator_layout_and_eta(self):
        case = manufactured_case("conc-trig")
        mesh = case_mesh(case, 4)
        solution, _, _ = solve_dpg(mesh, case.problem, SpaceLayout(p=1))
        assert solution.indicators.shape == (16, 2)
        assert np.all(solution.indicators >= 0.0)
        assert solution.eta == pytest.approx(
            np.sqrt(solution.indicators.sum()), rel=1e-14)


class TestExtractSolution:
    def test_rejects_mismatched_sizes(self):
        mesh = build_rect_mesh(UNIT, 2, 2)
        dofmap = build_dofmap(mesh, SpaceLayout(p=1), active_facets(mesh))
        with pytest.raises(ValueError):
            extract_solution(np.zeros(dofmap.n_total + 1), dofmap,
                             np.zeros((4, 2)))
        with pytest.raises(ValueError):
            extract_solution(np.zeros(dofmap.n_total), dofmap,
                             np.zeros((3, 2)))

    def test_block_sizes(self):
        mesh = build_rect_mesh(UNIT, 2, 2)
        dofmap = build_dofmap(mesh, SpaceLayout(p=1), active_facets(mesh))
        solution = extract_solution(np.arange(dofmap.n_total, dtype=float),
                                    dofmap, np.zeros((4, 2)))
        assert solution.field.size == dofmap.n_field
        assert solution.flux.size == dofmap.n_flux
        assert solution.trace.size == dofmap.n_trace
        assert solution.field[0] == 0.0
        assert solution.trace[-1] == dofmap.n_total - 1
