import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from dpgfem.dpg import (
    ProblemKernels,
    SolverError,
    coefficient_loads,
    condense_local,
    geometry_kernels,
)
from dpgfem.fespace import (
    SpaceLayout,
    build_dofmap,
    tabulate_facet_basis,
    tabulate_h1_basis,
)
from dpgfem.manufactured import manufactured_case
from dpgfem.mesh import (
    BoundaryPartition,
    FacetTag,
    Rectangle,
    build_rect_mesh,
    classify_boundary,
)
from dpgfem.problems import ConcentrationProblem, PotentialProblem, ProblemValidationError
from dpgfem.quadrature import gauss_1d, tensor_quad
from dpgfem.solver import active_facets, dirichlet_field_dofs, solve_dpg
import dpgfem.verify as verify_mod
from dpgfem.verify import (
    EocReport,
    case_mesh,
    classical_galerkin_solve,
    eoc_study,
    error_norms,
    field_l2_error,
    flux_l2_error,
    infsup_constant,
    project_trace,
    skeleton_dual_norm,
)

UNIT = Rectangle(0.0, 1.0, 0.0, 1.0)
RNG = np.random.default_rng(31415)


def dense_trial_forms(mesh, dofmap, problem):
    """(trial Gram, DPG matrix) over the full trial space, dense: the
    reference of the inf-sup constants. The DPG matrix sums the
    `condense_local` blocks of each group before any local elimination or
    boundary condition; absent trace columns are dropped."""
    layout = dofmap.layout
    geom = geometry_kernels(layout, mesh.dx, mesh.dy)
    n = dofmap.n_total
    # an absent dof (-1) lands in the last row and column, cut off below
    M = np.zeros((n + 1, n + 1))
    A = np.zeros((n + 1, n + 1))
    kernels = ProblemKernels(geom, problem, mesh)
    w = geom.wvol[:, None]
    field_gram = ((geom.field_val * w).T @ geom.field_val
                  + (geom.field_gx * w).T @ geom.field_gx
                  + (geom.field_gy * w).T @ geom.field_gy)
    flux_gram = (geom.flux_val * w).T @ geom.flux_val
    C = np.hstack(geom.trace_tmpl)
    trace_gram = C.T @ geom.gram_inv @ C
    nf, ns = layout.n_field_local, layout.n_flux_scalar
    for elems in kernels.groups:
        rows = dofmap.elem_dofs[elems]
        for dofs, block in ((rows[:, :nf], field_gram),
                            (rows[:, nf:nf + ns], flux_gram),
                            (rows[:, nf + ns:nf + 2 * ns], flux_gram),
                            (rows[:, nf + 2 * ns:], trace_gram)):
            np.add.at(M, (dofs[:, :, None], dofs[:, None, :]), block)
        S, _ = condense_local(kernels.local_system(elems))
        np.add.at(A, (rows[:, :, None], rows[:, None, :]), S)
    return M[:n, :n], A[:n, :n]


def trial_gram_dense(mesh, dofmap) -> np.ndarray:
    """Dense trial-space Gram: H1 for the field, L2 for the flux, and the
    skeleton dual norm for the traces, as the inf-sup constants use it;
    it does not depend on the problem passed along."""
    problem = ConcentrationProblem(D=0.5, dt=0.1, c_prev=0.0, J=0.0)
    return dense_trial_forms(mesh, dofmap, problem)[0]


def _interior_dofmap(mesh, layout):
    return build_dofmap(mesh, layout, mesh.interior_facets())


class TestFieldNorms:
    def test_zero_solution_error_equals_exact_norm_conc_trig(self):
        case = manufactured_case("conc-trig")
        mesh = case_mesh(case, 4)
        dofmap = _interior_dofmap(mesh, SpaceLayout(p=2))
        err, norm = field_l2_error(mesh, dofmap, np.zeros(dofmap.n_field),
                                   case.exact_field)
        # ||cos(pi x) cos(pi y)||_{L2} over the unit square is 1/2
        assert err == pytest.approx(0.5, rel=1e-10)
        assert norm == pytest.approx(0.5, rel=1e-10)

    def test_zero_solution_error_equals_exact_norm_pot_poly2(self):
        case = manufactured_case("pot-poly2")
        mesh = case_mesh(case, 4)
        dofmap = _interior_dofmap(mesh, SpaceLayout(p=2))
        err, _ = field_l2_error(mesh, dofmap, np.zeros(dofmap.n_field),
                                case.exact_field)
        # ||x(1-x)||_{L2} = sqrt(1/30)
        assert err == pytest.approx(math.sqrt(1.0 / 30.0), rel=1e-12)

    def test_field_l2_of_interpolated_constant(self):
        mesh = build_rect_mesh(Rectangle(0.0, 2.0, 0.0, 1.0), 3, 2)
        dofmap = _interior_dofmap(mesh, SpaceLayout(p=2))
        coeffs = np.full(dofmap.n_field, 3.0)
        # ||3||_{L2} over an area-2 domain
        assert field_l2_error(mesh, dofmap, coeffs, lambda x, y: 0.0)[0] == \
            pytest.approx(3.0 * math.sqrt(2.0), rel=1e-13)

    def test_interpolant_of_polynomial_has_negligible_error(self):
        case = manufactured_case("conc-poly2")
        mesh = case_mesh(case, 3)
        layout = SpaceLayout(p=2)
        dofmap = _interior_dofmap(mesh, layout)
        # nodal interpolation on the global lattice
        nxp, nyp = dofmap.field_lattice_shape()
        xs = np.linspace(0.0, 1.0, nxp)
        ys = np.linspace(0.0, 1.0, nyp)
        coeffs = np.empty(dofmap.n_field)
        for j, y in enumerate(ys):
            for i, x in enumerate(xs):
                coeffs[j * nxp + i] = case.exact_field(x, y)
        err, norm = field_l2_error(mesh, dofmap, coeffs, case.exact_field)
        assert err <= 1e-13 * norm

    def test_flux_error_of_zero_coefficients(self):
        case = manufactured_case("pot-poly2")
        mesh = case_mesh(case, 4)
        dofmap = _interior_dofmap(mesh, SpaceLayout(p=1))
        err, norm = flux_l2_error(mesh, dofmap, np.zeros(dofmap.n_flux),
                                  case.exact_flux)
        # exact flux is the unit vector (-1, 0): L2 norm 1 on the unit square
        assert err == pytest.approx(1.0, rel=1e-12)
        assert norm == pytest.approx(1.0, rel=1e-12)


class TestProjectTrace:
    def test_projects_constant_normal_flux_by_facet_orientation(self):
        mesh = build_rect_mesh(UNIT, 2, 2)
        layout = SpaceLayout(p=1)
        active = mesh.interior_facets()

        def normal_flux(x, y, nx, ny):
            return 1.0 * nx + 0.0 * ny  # the field (1, 0) dotted with n

        proj = project_trace(mesh, layout, active, normal_flux)
        assert proj.shape == (4,)
        for slot, f in enumerate(np.sort(active)):
            expected = mesh.facet_normals[f][0]
            assert proj[slot] == pytest.approx(expected, abs=1e-14)

    def test_left_dirichlet_trace_is_the_flux_along_plus_x(self):
        # a boundary facet's normal points along +x or +y like an interior
        # one's, out of the domain only on the right and top sides
        partition = BoundaryPartition(FacetTag.DIRICHLET, FacetTag.NEUMANN,
                                      FacetTag.ROBIN, FacetTag.ROBIN)
        mesh = classify_boundary(build_rect_mesh(UNIT, 2, 2), partition)
        layout = SpaceLayout(p=2)
        active = active_facets(mesh)

        def normal_flux(x, y, nx, ny):
            return (1.0 + y) * nx + (2.0 - x) * ny  # sigma = (1 + y, 2 - x)

        proj = project_trace(mesh, layout, active, normal_flux).reshape(-1, 2)
        slot = {int(f): s for s, f in enumerate(np.sort(active))}
        line = gauss_1d(4)
        basis = tabulate_facet_basis(layout.p - 1, line.points)
        left = mesh.facets_with_tag(FacetTag.DIRICHLET)
        assert left.size == 2
        for f in left:
            ends = mesh.vertices[mesh.facet_verts[f]]
            assert np.all(ends[:, 0] == 0.0)
            y = ends[0, 1] + 0.5 * (line.points + 1.0) * (ends[1, 1] - ends[0, 1])
            # sigma . (+x), affine along the facet, so projected exactly
            assert np.allclose(basis @ proj[slot[int(f)]], 1.0 + y, rtol=0.0, atol=1e-13)

    def test_projection_is_exact_for_trace_space_members(self):
        mesh = build_rect_mesh(UNIT, 2, 2)
        layout = SpaceLayout(p=2)
        active = mesh.interior_facets()

        def normal_flux(x, y, nx, ny):
            return (x + 2.0 * y) * (nx + ny)  # affine along every facet

        proj = project_trace(mesh, layout, active, normal_flux)
        # evaluate the projection at facet quadrature points and compare
        line = gauss_1d(4)
        basis = tabulate_facet_basis(layout.p - 1, line.points)
        for slot, f in enumerate(np.sort(active)):
            ends = mesh.vertices[mesh.facet_verts[f]]
            t01 = 0.5 * (line.points + 1.0)
            pts = ends[0][None, :] + t01[:, None] * (ends[1] - ends[0])
            nx, ny = mesh.facet_normals[f]
            want = np.array([normal_flux(x, y, nx, ny) for x, y in pts])
            got = basis @ proj[slot * 2:(slot + 1) * 2]
            assert np.allclose(got, want, atol=1e-13)


def _brute_force_dual_norm(mesh, layout, active, trace_coeffs):
    """Independent dense evaluation of the skeleton dual norm.

    Assembles the full broken enriched Gram and the pairing vector from
    scratch and maximizes <sigma, u> / ||u||_H1 over the whole broken
    space at once.
    """
    q = layout.enriched_degree
    n_enr = (q + 1) ** 2
    rule = tensor_quad(q + 2)
    vals, grads = tabulate_h1_basis(q, rule.points)
    dx, dy = mesh.dx, mesh.dy
    jac = dx * dy / 4.0
    w = rule.weights * jac
    gram_e = ((vals * w[:, None]).T @ vals
              + (grads[:, :, 0] * w[:, None]).T @ grads[:, :, 0] * (2 / dx) ** 2
              + (grads[:, :, 1] * w[:, None]).T @ grads[:, :, 1] * (2 / dy) ** 2)

    n = mesh.n_elems * n_enr
    G = np.zeros((n, n))
    for e in range(mesh.n_elems):
        G[e * n_enr:(e + 1) * n_enr, e * n_enr:(e + 1) * n_enr] = gram_e

    p = layout.p
    line = gauss_1d(q + 2)
    fbasis = tabulate_facet_basis(p - 1, line.points)
    slot = {int(f): s for s, f in enumerate(np.sort(np.asarray(active)))}
    b = np.zeros(n)
    for e in range(mesh.n_elems):
        ox, oy = mesh.element_origin(e)
        for k in range(4):
            f = int(mesh.elem_facets[e, k])
            s = slot.get(f)
            if s is None:
                continue
            ends = mesh.vertices[mesh.facet_verts[f]]
            # +1 where the facet's global normal points out of the element
            center = np.array([ox + 0.5 * dx, oy + 0.5 * dy])
            sign = float(np.sign(mesh.facet_normals[f] @ (ends.mean(axis=0) - center)))
            L = float(np.linalg.norm(ends[1] - ends[0]))
            t01 = 0.5 * (line.points + 1.0)
            pts = ends[0][None, :] + t01[:, None] * (ends[1] - ends[0])
            ref = np.column_stack([2.0 * (pts[:, 0] - ox) / dx - 1.0,
                                   2.0 * (pts[:, 1] - oy) / dy - 1.0])
            enr_vals, _ = tabulate_h1_basis(q, ref)
            sigma = fbasis @ trace_coeffs[s * p:(s + 1) * p]
            wline = 0.5 * L * line.weights
            b[e * n_enr:(e + 1) * n_enr] += sign * enr_vals.T @ (wline * sigma)
    u_star = np.linalg.solve(G, b)
    return math.sqrt(max(float(b @ u_star), 0.0)), G, b, u_star


class TestSkeletonDualNorm:
    def test_zero_trace(self):
        mesh = build_rect_mesh(UNIT, 2, 2)
        layout = SpaceLayout(p=1)
        active = mesh.interior_facets()
        assert skeleton_dual_norm(mesh, layout, active, np.zeros(4)) == 0.0

    def test_absolute_homogeneity(self):
        mesh = build_rect_mesh(UNIT, 2, 2)
        layout = SpaceLayout(p=2)
        active = mesh.interior_facets()
        coeffs = RNG.normal(size=active.size * 2)
        base = skeleton_dual_norm(mesh, layout, active, coeffs)
        for a in (-3.0, 0.5, 2.0):
            scaled = skeleton_dual_norm(mesh, layout, active, a * coeffs)
            assert scaled == pytest.approx(abs(a) * base, rel=1e-12)

    def test_matches_dense_brute_force_on_unit_trace(self):
        mesh = build_rect_mesh(UNIT, 2, 2)
        layout = SpaceLayout(p=1, delta_p=1)
        active = mesh.interior_facets()
        coeffs = np.zeros(4)
        coeffs[0] = 1.0  # unit constant trace on a single facet
        value = skeleton_dual_norm(mesh, layout, active, coeffs)
        ref, G, b, u_star = _brute_force_dual_norm(mesh, layout, active,
                                                   coeffs)
        assert value == pytest.approx(ref, rel=1e-12)
        assert value > 0.0
        # u_star attains the supremum; random directions stay below it
        attained = float(b @ u_star) / math.sqrt(float(u_star @ G @ u_star))
        assert attained == pytest.approx(value, rel=1e-12)
        for _ in range(25):
            u = RNG.normal(size=b.shape[0])
            ratio = abs(float(b @ u)) / math.sqrt(float(u @ G @ u))
            assert ratio <= value * (1.0 + 1e-10)

    def test_matches_dense_brute_force_on_random_trace(self):
        mesh = build_rect_mesh(UNIT, 2, 2)
        layout = SpaceLayout(p=2, delta_p=1)
        active = mesh.interior_facets()
        coeffs = RNG.normal(size=active.size * 2)
        value = skeleton_dual_norm(mesh, layout, active, coeffs)
        ref, _, _, _ = _brute_force_dual_norm(mesh, layout, active, coeffs)
        assert value == pytest.approx(ref, rel=1e-11)

    def test_triangle_inequality(self):
        mesh = build_rect_mesh(UNIT, 2, 2)
        layout = SpaceLayout(p=1)
        active = mesh.interior_facets()
        a = RNG.normal(size=4)
        b = RNG.normal(size=4)
        na = skeleton_dual_norm(mesh, layout, active, a)
        nb = skeleton_dual_norm(mesh, layout, active, b)
        nab = skeleton_dual_norm(mesh, layout, active, a + b)
        assert nab <= na + nb + 1e-12


class TestErrorNorms:
    def test_exact_reproduction_reports_floor_errors(self):
        case = manufactured_case("conc-poly2")
        mesh = case_mesh(case, 2)
        layout = SpaceLayout(p=2)
        solution, _, _ = solve_dpg(mesh, case.problem, layout)
        dofmap = build_dofmap(mesh, layout, active_facets(mesh))
        norms = error_norms(mesh, dofmap, solution, case)
        scale = norms.norm_field + norms.norm_flux + norms.norm_trace
        assert norms.e_field <= 1e-8 * scale
        assert norms.e_flux <= 1e-8 * scale
        assert norms.e_trace <= 1e-8 * scale


def _full_lattice_galerkin(mesh, problem, layout) -> np.ndarray:
    """The oracle's field-only Galerkin system over the full field lattice,
    summed by scipy from the field mass and stiffness matrices and the
    `coefficient_loads` of each element, restricted to the non-Dirichlet
    dofs and solved by spsolve: no condensation, no elimination and no CG."""
    geom = geometry_kernels(layout, mesh.dx, mesh.dy)
    dofmap = build_dofmap(mesh, layout, np.empty(0, dtype=np.int64))
    w = geom.wvol[:, None]
    mass = (geom.field_val * w).T @ geom.field_val
    stiff = ((geom.field_gx * w).T @ geom.field_gx
             + (geom.field_gy * w).T @ geom.field_gy)
    if problem.kind == "concentration":
        S = mass + problem.dt * problem.D * stiff
    else:
        S = problem.kappa * stiff
    n = dofmap.n_field
    load, (robin_rows, robin), _ = coefficient_loads(
        mesh, problem, geom, geom.field_val, geom.field_edge,
        (geom.field_gx, geom.field_gy))
    S_e = np.repeat(S[None], mesh.n_elems, axis=0)
    S_e[robin_rows >= 0] += robin
    dofs = dofmap.elem_field
    rows, cols = np.broadcast_arrays(dofs[:, :, None], dofs[:, None, :])
    A = sp.coo_matrix((S_e.ravel(), (rows.ravel(), cols.ravel())),
                      shape=(n, n)).tocsr()
    b = np.zeros(n)
    np.add.at(b, dofs, load)
    free = np.setdiff1d(np.arange(n), dirichlet_field_dofs(mesh, dofmap))
    x = np.zeros(n)
    x[free] = spla.spsolve(A[free][:, free].tocsc(), b[free])
    return x


class TestClassicalGalerkin:
    @pytest.mark.parametrize("name, p, beta", [
        *[(name, p, None) for name in ("pot-trig", "conc-trig") for p in (1, 2, 3)],
        ("pot-trig", 2, "1 + 1e3*x"),       # stacked Robin element matrices
    ])
    def test_matches_the_full_lattice_reference(self, name, p, beta):
        # the oracle condenses the interior lattice nodes like DPG's
        # skeleton system; the reference shares none of that path
        case = manufactured_case(name)
        mesh = case_mesh(case, 8)
        problem = (case.problem if beta is None
                   else dataclasses.replace(case.problem, beta=beta))
        layout = SpaceLayout(p=p)
        want = _full_lattice_galerkin(mesh, problem, layout)
        got = classical_galerkin_solve(mesh, problem, layout)
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    @pytest.mark.parametrize("name", ["conc-poly2", "pot-poly2"])
    def test_exact_reproduction_of_quadratic_cases(self, name):
        case = manufactured_case(name)
        mesh = case_mesh(case, 2)
        layout = SpaceLayout(p=2)
        coeffs = classical_galerkin_solve(mesh, case.problem, layout)
        dofmap = build_dofmap(mesh, layout, np.empty(0, dtype=np.int64))
        err, norm = field_l2_error(mesh, dofmap, coeffs, case.exact_field)
        assert err <= 1e-9 * norm

    def test_zero_loads_give_zero_solution(self):
        mesh = build_rect_mesh(UNIT, 3, 3)
        problem = ConcentrationProblem(D=0.5, dt=0.1, c_prev=0.0, J=0.0)
        coeffs = classical_galerkin_solve(mesh, problem, SpaceLayout(p=2))
        assert np.all(coeffs == 0.0)

    def test_dirichlet_side_honored(self):
        case = manufactured_case("pot-trig")
        mesh = case_mesh(case, 4)
        coeffs = classical_galerkin_solve(mesh, case.problem, SpaceLayout(p=1))
        nxp = 4 + 1
        left_column = np.arange(nxp) * nxp
        assert np.all(coeffs[left_column] == 0.0)

    def test_beta_checked_where_the_oracle_samples_it(self):
        # negative only near the facet midpoint, a node of the 3-point rule
        # on which the oracle integrates at p = 1
        partition = manufactured_case("pot-trig").partition
        mesh = classify_boundary(build_rect_mesh(UNIT, 1, 1), partition)
        problem = PotentialProblem(kappa=1.0, beta="1000*(x-0.5)^2 - 0.01",
                                   S=(0.0, 0.0), I=0.0, R=0.0)
        with pytest.raises(ProblemValidationError, match="beta not positive"):
            classical_galerkin_solve(mesh, problem, SpaceLayout(p=1))

    def test_agrees_with_exact_solution_on_fine_trig_mesh(self):
        case = manufactured_case("pot-trig")
        mesh = case_mesh(case, 8)
        layout = SpaceLayout(p=2)
        coeffs = classical_galerkin_solve(mesh, case.problem, layout)
        dofmap = build_dofmap(mesh, layout, np.empty(0, dtype=np.int64))
        err, norm = field_l2_error(mesh, dofmap, coeffs, case.exact_field)
        assert err <= 1e-3 * norm


class TestEocStudy:
    def test_polynomial_case_sits_at_solver_floor(self):
        report = eoc_study("conc-poly2", p=2, levels=2, base_n=4)
        assert isinstance(report, EocReport)
        assert all(row.floor for row in report.rows)
        assert all(row.e_field <= 1e-9 for row in report.rows)

    @pytest.mark.parametrize("name, p, floor", [
        ("conc-poly2", 2, True), ("pot-poly2", 2, True),
        ("pot-poly2", 3, True), ("conc-poly2", 1, False)])
    def test_floor_follows_the_case_not_the_solver_path(self, name, p, floor):
        # 16^2 is solved by PCG, whose tolerance leaves errors far above
        # the dense-solve floor of the coarser levels
        report = eoc_study(name, p=p, levels=3, base_n=4)
        assert [row.floor for row in report.rows] == [floor] * 3

    def test_h_halves_between_levels(self):
        report = eoc_study("conc-trig", p=1, levels=3, base_n=2)
        hs = [row.h for row in report.rows]
        assert hs[0] == pytest.approx(2.0 * hs[1])
        assert hs[1] == pytest.approx(2.0 * hs[2])
        ns = [row.n for row in report.rows]
        assert ns == [2, 4, 8]

    def test_trig_case_converges_at_first_order(self):
        report = eoc_study("conc-trig", p=1, levels=2, base_n=4)
        assert not any(row.floor for row in report.rows)
        rate = report.eoc_combined()[-1]
        assert 0.5 <= rate <= 2.5

    def test_csv_text_layout(self):
        report = eoc_study("conc-trig", p=1, levels=2, base_n=2)
        lines = report.to_csv_text().strip().split("\n")
        assert lines[0] == ("level,n,h,dofs,e_field,e_flux,e_trace,eta,"
                            "eoc_field,eoc_flux,eoc_combined,eoc_eta")
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "2"
        # no rates on the first level
        assert first[8] == "" and first[11] == ""

    def test_json_dict_contents(self):
        report = eoc_study("conc-trig", p=1, levels=2, base_n=2)
        data = report.to_json_dict()
        assert data["case"] == "conc-trig"
        assert data["p"] == 1
        assert len(data["levels"]) == 2
        row = data["levels"][0]
        assert {"level", "n", "h", "dofs", "e_field", "e_flux", "e_trace",
                "eta", "iterations", "floor"} <= set(row)
        # wall-clock times must never reach the serialized report
        assert all("runtime" not in r for r in data["levels"])
        assert data["eoc_combined"][0] is None
        assert isinstance(data["eoc_combined"][1], float)

    def test_oracle_splits_once_per_level(self, monkeypatch):
        # the oracle splits the Robin rows of its own loads with the DPG
        # kernels' element_groups, once per level; the kernels' splits go
        # through `dpg` and are not counted here
        splits = []
        split = verify_mod.element_groups

        def counted_split(rows):
            splits.append(rows)
            return split(rows)

        monkeypatch.setattr(verify_mod, "element_groups", counted_split)
        eoc_study("pot-trig", p=2, levels=3, base_n=2, with_oracle=True)
        assert [rows.size for rows in splits] == [4, 16, 64]

    def test_accepts_case_object_and_oracle(self):
        case = manufactured_case("pot-trig")
        report = eoc_study(case, p=1, levels=2, base_n=2, with_oracle=True)
        for row in report.rows:
            assert row.oracle_e_field is not None
            assert row.oracle_e_field > 0.0

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_concentration_field_error_tracks_galerkin(self, p):
        # the dt*D-weighted test norm keeps the minimum-residual field error
        # within a factor 2 of the Galerkin oracle on the mass-dominated
        # conc-trig step (dt*D = 0.05); a fast guard for acceptance
        # criterion 5
        report = eoc_study("conc-trig", p=p, levels=2, base_n=4,
                           with_oracle=True)
        for row in report.rows:
            ratio = row.e_field / row.oracle_e_field
            assert 0.5 <= ratio <= 2.0, (p, row.n, ratio)


class TestInfsup:
    def test_single_element_concentration(self):
        mesh = build_rect_mesh(UNIT, 1, 1)
        problem = ConcentrationProblem(D=0.5, dt=0.5, c_prev=0.0, J=0.0)
        alpha = infsup_constant(mesh, problem, SpaceLayout(p=1))
        assert alpha > 0.0

    def test_potential_without_dirichlet_is_coercive_through_robin(self):
        partition = __import__("dpgfem.mesh", fromlist=["BoundaryPartition"]) \
            .BoundaryPartition.from_names(
                {"left": "neumann", "right": "neumann",
                 "bottom": "robin", "top": "robin"})
        mesh = classify_boundary(build_rect_mesh(UNIT, 2, 2), partition)
        problem = PotentialProblem(kappa=1.0, beta=1.0, S=(0.0, 0.0), I=0.0, R=0.0)
        alpha = infsup_constant(mesh, problem, SpaceLayout(p=1))
        assert alpha > 0.0

    def test_trend_under_refinement(self):
        problem = ConcentrationProblem(D=0.5, dt=0.5, c_prev=0.0, J=0.0)
        alphas = []
        for n in (1, 2, 4):
            mesh = build_rect_mesh(UNIT, n, n)
            alphas.append(infsup_constant(mesh, problem, SpaceLayout(p=1)))
        assert all(a > 0.0 for a in alphas)
        for coarse, fine in zip(alphas, alphas[1:]):
            assert fine >= 0.8 * coarse

    @pytest.mark.parametrize("name, n, p", [("conc-trig", 1, 1), ("conc-trig", 4, 1),
                                            ("pot-trig", 2, 2), ("pot-poly2", 3, 1),
                                            ("pot-trig", 8, 1), ("pot-trig", 8, 2),
                                            ("conc-trig", 8, 1), ("conc-trig", 8, 2)])
    def test_matches_the_generalized_eigensolver(self, name, n, p):
        # scipy is the test oracle: eigh on the dense pencil
        import scipy.linalg

        case = manufactured_case(name)
        mesh = case_mesh(case, n)
        layout = SpaceLayout(p=p)
        dofmap = build_dofmap(mesh, layout, active_facets(mesh))
        M, A = dense_trial_forms(mesh, dofmap, case.problem)
        free = np.setdiff1d(np.arange(dofmap.n_total),
                            dirichlet_field_dofs(mesh, dofmap))
        A = A[np.ix_(free, free)]
        want = np.sqrt(scipy.linalg.eigh(0.5 * (A + A.T), M[np.ix_(free, free)],
                                         eigvals_only=True)[0])
        got = infsup_constant(mesh, case.problem, layout)
        assert abs(got - want) <= 1e-10 * want

    def test_unconverged_iteration_is_solver_error(self, monkeypatch):
        # the clustered concentration pencil needs 157 steps at 16^2, p = 1
        case = manufactured_case("conc-trig")
        monkeypatch.setattr(verify_mod, "INFSUP_STEPS", 40)
        with pytest.raises(SolverError, match="did not converge in 40 Lanczos steps"):
            infsup_constant(case_mesh(case, 16), case.problem, SpaceLayout(p=1))

    def test_trial_gram_is_spd(self):
        mesh = build_rect_mesh(UNIT, 2, 2)
        dofmap = build_dofmap(mesh, SpaceLayout(p=1), active_facets(mesh))
        M = trial_gram_dense(mesh, dofmap)
        assert M.shape == (dofmap.n_total, dofmap.n_total)
        assert np.allclose(M, M.T, atol=1e-12)
        assert np.linalg.eigvalsh(M)[0] > 0.0
