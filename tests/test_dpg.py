import dataclasses
import warnings

import numpy as np
import pytest
import scipy.linalg

from dpgfem.dpg import (
    _EDGE_REF,
    GeometryKernels,
    LocalSystem,
    ProblemKernels,
    SolverError,
    coefficient_loads,
    condense_local,
    error_indicator,
    geometry_kernels,
    spd_inverses,
)
from dpgfem.fespace import (
    SpaceLayout,
    build_dofmap,
    tabulate_facet_basis,
    tabulate_h1_basis,
    tabulate_l2_basis,
)
from dpgfem.mesh import (
    OUTWARD,
    BoundaryPartition,
    FacetTag,
    Rectangle,
    build_rect_mesh,
    classify_boundary,
)
from dpgfem.problems import (
    ConcentrationProblem,
    PotentialProblem,
    ProblemValidationError,
)
from dpgfem.quadrature import gauss_1d, tensor_quad

UNIT = Rectangle(0.0, 1.0, 0.0, 1.0)

POT_PARTITION = BoundaryPartition.from_names(
    {"left": "dirichlet", "right": "neumann",
     "bottom": "robin", "top": "robin"})


def _pot_problem(**overrides):
    base = dict(kappa=1.0, beta=1.0, S=(0.0, 0.0), I=0.0, R=0.0)
    base.update(overrides)
    return PotentialProblem(**base)


def element_system(mesh, e, problem, layout, active_facets=()):
    """LocalSystem of element e alone: its group cut down to one element."""
    dofmap = build_dofmap(mesh, layout, np.asarray(active_facets, dtype=np.int64))
    group = next(g for g in dofmap.element_groups() if e in g.elems)
    i = int(np.flatnonzero(group.elems == e)[0])
    one = dataclasses.replace(group, elems=group.elems[i:i + 1], dofs=group.dofs[i:i + 1])
    geom = geometry_kernels(layout, mesh.dx, mesh.dy)
    return ProblemKernels(geom, problem, mesh).local_system(one)


def problem_gram(mesh, problem, layout):
    """Enriched Gram of the problem's test norm, which LocalSystem holds
    only as its inverse."""
    return ProblemKernels(geometry_kernels(layout, mesh.dx, mesh.dy), problem,
                          mesh).gram


def local_trial_test(mesh, e, problem, layout, active_facets):
    """Coupling matrix B and enriched load l of element e."""
    ls = element_system(mesh, e, problem, layout, active_facets)
    B = ls.coupling if ls.coupling.ndim == 2 else ls.coupling[0]
    return B, ls.load[0]


def local_fosls(mesh, e, problem, layout):
    """Least-squares block (A_fosls, f_fosls) and the system of element e
    without trace unknowns."""
    ls = element_system(mesh, e, problem, layout)
    return ls.lsq_matrix, ls.lsq_load[0], ls


def fosls_indicator(ls, u):
    """eta_sq_fosls of the one element of ls at trial coefficients u."""
    return error_indicator(ls, u[None, :])[0, 1]


class TestLocalGram:
    def test_unit_element_p1_is_9x9_spd(self):
        mesh = build_rect_mesh(UNIT, 1, 1)
        G = geometry_kernels(SpaceLayout(p=1, delta_p=1), mesh.dx, mesh.dy).gram
        assert G.shape == (9, 9)
        assert np.allclose(G, G.T, atol=1e-14)
        assert scipy.linalg.eigvalsh(G)[0] > 0.0

    def test_constant_has_h1_norm_equal_to_element_area(self):
        mesh = build_rect_mesh(Rectangle(0.0, 2.0, 0.0, 1.0), 4, 2)
        for p in (1, 2):
            G = geometry_kernels(SpaceLayout(p=p), mesh.dx, mesh.dy).gram
            ones = np.ones(G.shape[0])
            # constants have zero gradient, so 1' G 1 = |K|
            assert ones @ G @ ones == pytest.approx(mesh.dx * mesh.dy,
                                                    rel=1e-13)

    def test_shared_across_congruent_elements(self):
        # element 0 (a Robin corner) and 4 (interior) lie in different
        # groups; a concentration mesh is one group
        mesh = classify_boundary(build_rect_mesh(UNIT, 3, 3), POT_PARTITION)
        layout = SpaceLayout(p=2)
        problem = _pot_problem()
        active = np.concatenate([mesh.interior_facets(),
                                 mesh.facets_with_tag(FacetTag.DIRICHLET)])
        G0 = element_system(mesh, 0, problem, layout, active).gram_inv
        G4 = element_system(mesh, 4, problem, layout, active).gram_inv
        assert np.array_equal(G0, G4)

    def test_geometry_kernels_cached(self):
        layout = SpaceLayout(p=1)
        a = geometry_kernels(layout, 0.5, 0.25, None)
        b = geometry_kernels(layout, 0.5, 0.25, None)
        assert a is b


class TestTrialTestCoupling:
    def test_interior_concentration_element_has_zero_load(self):
        mesh = build_rect_mesh(UNIT, 3, 3)
        problem = ConcentrationProblem(D=0.5, dt=0.1, c_prev=0.0, J=1.0)
        B, load = local_trial_test(mesh, 4, problem, SpaceLayout(p=1),
                                   mesh.interior_facets())
        assert np.all(load == 0.0)
        assert B.shape == (9, 4 + 2 + 4)  # field, flux, one trace per edge

    def test_interior_potential_element_decouples_field(self):
        mesh = classify_boundary(build_rect_mesh(UNIT, 3, 3), POT_PARTITION)
        B, load = local_trial_test(mesh, 4, _pot_problem(), SpaceLayout(p=1),
                                   mesh.interior_facets())
        # the field enters the broken form only through the Robin boundary
        assert np.all(load == 0.0)
        assert np.all(B[:, :4] == 0.0)
        # flux and trace columns still couple
        assert np.any(B[:, 4:] != 0.0)

    def test_shared_trace_couples_with_opposite_signs(self):
        mesh = build_rect_mesh(UNIT, 2, 1)
        problem = ConcentrationProblem(D=1.0, dt=1.0, c_prev=0.0, J=0.0)
        layout = SpaceLayout(p=1)
        active = mesh.interior_facets()
        B0, _ = local_trial_test(mesh, 0, problem, layout, active)
        B1, _ = local_trial_test(mesh, 1, problem, layout, active)
        ones = np.ones(B0.shape[0])
        # pairing of the trace mode with the constant test function equals
        # +/- its facet integral depending on the element side: the facet
        # is element 0's right edge (column 6 + 1) and element 1's left (6)
        assert ones @ B0[:, 7] == pytest.approx(-(ones @ B1[:, 6]), rel=1e-13)
        assert abs(ones @ B0[:, 7]) > 1e-3

    def test_neumann_data_enters_concentration_load(self):
        mesh = build_rect_mesh(UNIT, 2, 2)
        layout = SpaceLayout(p=1)
        quiet = ConcentrationProblem(D=0.5, dt=0.1, c_prev=0.0, J=0.0)
        loud = ConcentrationProblem(D=0.5, dt=0.1, c_prev=0.0, J=1.0)
        _, l_quiet = local_trial_test(mesh, 0, quiet, layout,
                                      mesh.interior_facets())
        _, l_loud = local_trial_test(mesh, 0, loud, layout,
                                     mesh.interior_facets())
        assert np.all(l_quiet == 0.0)
        assert np.any(l_loud != 0.0)


class TestFosls:
    def test_exact_constitutive_pair_gives_zero(self):
        # c = x with j = -D grad c on a single element: the first-order
        # residual vanishes, so the least-squares form is zero at this pair
        mesh = build_rect_mesh(UNIT, 1, 1)
        problem = ConcentrationProblem(D=1.0, dt=1.0, c_prev=0.0, J=0.0)
        A, f, ls = local_fosls(mesh, 0, problem, SpaceLayout(p=1))
        # field lattice, flux, then the absent traces of the four edges
        u = np.array([0.0, 1.0, 0.0, 1.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        assert u @ A @ u - 2.0 * f @ u == pytest.approx(0.0, abs=1e-14)
        assert fosls_indicator(ls, u) == pytest.approx(0.0, abs=1e-14)
        assert np.all(f == 0.0) and ls.res_shift is None

    def test_mismatched_pair_gives_positive_value(self):
        mesh = build_rect_mesh(UNIT, 1, 1)
        problem = ConcentrationProblem(D=1.0, dt=1.0, c_prev=0.0, J=0.0)
        A, f, ls = local_fosls(mesh, 0, problem, SpaceLayout(p=1))
        # flux with wrong sign; zeros at the absent traces
        u = np.array([0.0, 1.0, 0.0, 1.0, +1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        assert ls.res_shift is None
        assert u @ A @ u - 2.0 * f @ u > 0.1
        assert fosls_indicator(ls, u) > 0.1

    def test_zero_source_means_zero_least_squares_load(self):
        mesh = classify_boundary(build_rect_mesh(UNIT, 2, 2), POT_PARTITION)
        A, f, ls = local_fosls(mesh, 0, _pot_problem(), SpaceLayout(p=2))
        assert np.all(f == 0.0)
        assert ls.res_shift is None
        assert fosls_indicator(ls, np.zeros(A.shape[0])) == 0.0

    def test_source_shifts_least_squares_load(self):
        mesh = classify_boundary(build_rect_mesh(UNIT, 2, 2), POT_PARTITION)
        problem = _pot_problem(S=(1.0, 0.0))
        A, f, ls = local_fosls(mesh, 0, problem, SpaceLayout(p=1))
        assert np.any(f != 0.0)
        assert np.any(ls.res_shift != 0.0)
        # the u-independent part of the first-order residual square
        assert fosls_indicator(ls, np.zeros(A.shape[0])) > 0.0

    def test_trace_rows_are_zero(self):
        mesh = build_rect_mesh(UNIT, 2, 2)
        problem = ConcentrationProblem(D=0.5, dt=0.1, c_prev=0.0, J=0.0)
        ls = element_system(mesh, 0, problem, SpaceLayout(p=1),
                            mesh.interior_facets())
        n_ff = 4 + 2  # field + flux
        assert np.all(ls.lsq_matrix[n_ff:, :] == 0.0)
        assert np.all(ls.lsq_matrix[:, n_ff:] == 0.0)


class TestGramInverse:
    @pytest.mark.parametrize("gram", [[[1.0, 2.0], [2.0, 1.0]],
                                      [[np.inf, 0.0], [0.0, 1.0]],
                                      [[np.nan, 0.0], [0.0, 1.0]]])
    def test_bad_gram_is_a_quiet_solver_error(self, gram):
        # a solver error at the CLI, which names the matrix
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(SolverError, match="not SPD / no convergence: gram: "):
                spd_inverses(np.array(gram), "gram")

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_matches_a_direct_inverse(self, p):
        geom = geometry_kernels(SpaceLayout(p=p), 0.25, 0.5)
        want = np.linalg.inv(geom.gram)
        assert np.abs(geom.gram_inv - want).max() <= 1e-12 * np.abs(want).max()
        stacked = spd_inverses(np.stack([geom.gram, 2.0 * geom.gram]), "gram")
        assert np.abs(stacked[1] - 0.5 * want).max() <= 1e-12 * np.abs(want).max()


class _ReferenceGeometry:
    """Frozen reference: GeometryKernels as built before the reference
    tables were shared, every basis tabulated again for each geometry."""

    def __init__(self, layout, dx, dy, n_quad=None):
        self.layout = layout
        self.dx, self.dy = float(dx), float(dy)
        n = n_quad or layout.default_quad_points
        vol = tensor_quad(n)
        jac = 0.25 * self.dx * self.dy
        self.wvol = vol.weights * jac
        self.vol_ref = vol.points
        scale_x = 2.0 / self.dx
        scale_y = 2.0 / self.dy
        q = layout.enriched_degree
        ev, eg = tabulate_h1_basis(q, vol.points)
        self.enr_val = ev
        self.enr_gx = scale_x * eg[:, :, 0]
        self.enr_gy = scale_y * eg[:, :, 1]
        fv, fg = tabulate_h1_basis(layout.p, vol.points)
        self.field_val = fv
        self.field_gx = scale_x * fg[:, :, 0]
        self.field_gy = scale_y * fg[:, :, 1]
        self.flux_val = tabulate_l2_basis(layout.p - 1, vol.points)
        w = self.wvol[:, None]
        self.enr_mass = (ev * w).T @ ev
        self.enr_stiff_x = (self.enr_gx * w).T @ self.enr_gx
        self.enr_stiff_y = (self.enr_gy * w).T @ self.enr_gy
        self.gram = self.enr_mass + 1.0 * self.enr_stiff_x + 1.0 * self.enr_stiff_y
        self.gram_inv = spd_inverses(self.gram, "geometry Gram")
        line = gauss_1d(n)
        self.line_w = line.weights
        self.edge_t01 = 0.5 * (line.points + 1.0)
        lengths = (self.dy, self.dy, self.dx, self.dx)
        self.edge_w = [0.5 * L * line.weights for L in lengths]
        self.enr_edge, self.field_edge = [], []
        for k in range(4):
            coords = _EDGE_REF[k](line.points)
            self.enr_edge.append(tabulate_h1_basis(q, coords)[0])
            self.field_edge.append(tabulate_h1_basis(layout.p, coords)[0])
        self.trace_val = tabulate_facet_basis(layout.p - 1, line.points)
        # every facet normal points along +x or +y: -1 on the left and
        # bottom edges, +1 on the right and top ones
        self.trace_tmpl = [
            sign * ((self.enr_edge[k] * self.edge_w[k][:, None]).T @ self.trace_val)
            for k, sign in enumerate((-1.0, 1.0, -1.0, 1.0))]


class TestReferenceTables:
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("dx, dy", [(0.25, 0.25), (0.125, 0.5), (1.0 / 3.0, 0.2),
                                        (2.0, 0.0625)])
    @pytest.mark.parametrize("extra", [0, 1])    # DPG kernels, error measures
    def test_matches_the_per_geometry_tabulation(self, p, dx, dy, extra):
        layout = SpaceLayout(p=p)
        n_quad = layout.default_quad_points + extra if extra else None
        got = GeometryKernels(layout, dx, dy, n_quad)
        want = _ReferenceGeometry(layout, dx, dy, n_quad)
        assert vars(got).keys() == vars(want).keys()
        for name, value in vars(want).items():
            if isinstance(value, list):          # one array per local edge
                assert len(getattr(got, name)) == len(value)
                assert all(np.array_equal(a, b) for a, b in zip(getattr(got, name), value))
            elif isinstance(value, np.ndarray):
                assert np.array_equal(getattr(got, name), value), name
            else:
                assert getattr(got, name) == value, name

    def test_tables_are_shared_and_read_only(self):
        layout = SpaceLayout(p=2)
        a = geometry_kernels(layout, 0.25, 0.25)
        b = geometry_kernels(layout, 0.125, 0.5)
        assert a is not b
        for name in ("vol_ref", "enr_val", "field_val", "flux_val", "line_w",
                     "trace_val"):
            assert getattr(a, name) is getattr(b, name)
            with pytest.raises(ValueError):
                getattr(a, name)[0, ...] = 1.0
        for k in range(4):
            assert a.enr_edge[k] is b.enr_edge[k]
            assert a.field_edge[k] is b.field_edge[k]
            with pytest.raises(ValueError):
                a.field_edge[k][0, 0] = 1.0
        assert a.enr_val is not geometry_kernels(layout, 0.25, 0.25, 5).enr_val


class TestCondense:
    def test_no_coupling_returns_least_squares_block(self):
        gram = np.eye(3)
        lsq = np.diag([1.0, 2.0, 3.0])
        ls = LocalSystem(gram_inv=gram, coupling=np.zeros((3, 3)),
                         load=np.zeros((1, 3)), lsq_matrix=lsq,
                         lsq_load=np.zeros((1, 3)), res_x=np.zeros((1, 3)),
                         res_y=np.zeros((1, 3)), res_weights=np.ones(1))
        S, rhs = condense_local(ls)
        assert np.allclose(S, lsq)
        assert np.all(rhs == 0.0)

    def test_zero_loads_give_zero_rhs(self):
        mesh = build_rect_mesh(UNIT, 2, 2)
        problem = ConcentrationProblem(D=0.5, dt=0.1, c_prev=0.0, J=0.0)
        ls = element_system(mesh, 0, problem, SpaceLayout(p=1),
                            mesh.interior_facets())
        S, rhs = condense_local(ls)
        assert rhs.shape == (1, ls.coupling.shape[1])
        assert np.all(rhs == 0.0)

    def test_condensed_matrix_symmetric_positive_semidefinite(self):
        mesh = build_rect_mesh(UNIT, 2, 2)
        problem = ConcentrationProblem(D=0.5, dt=0.1, c_prev="x*y", J=0.0)
        ls = element_system(mesh, 0, problem, SpaceLayout(p=2),
                            mesh.interior_facets())
        S, _ = condense_local(ls)
        assert np.allclose(S, S.T, atol=1e-12)
        assert scipy.linalg.eigvalsh(S)[0] > -1e-12

    def test_matches_explicit_schur_complement(self):
        mesh = build_rect_mesh(UNIT, 2, 2)
        problem = ConcentrationProblem(D=0.5, dt=0.1, c_prev="x+y", J=1.0)
        ls = element_system(mesh, 0, problem, SpaceLayout(p=1),
                            mesh.interior_facets())
        S, rhs = condense_local(ls)
        Ginv = np.linalg.inv(problem_gram(mesh, problem, SpaceLayout(p=1)))
        S_ref = ls.lsq_matrix + ls.coupling.T @ Ginv @ ls.coupling
        rhs_ref = ls.lsq_load[0] + ls.coupling.T @ Ginv @ ls.load[0]
        assert np.allclose(S, S_ref, atol=1e-11)
        assert np.allclose(rhs[0], rhs_ref, atol=1e-11)


class TestErrorIndicator:
    def test_zero_coefficients_leave_pure_riesz_residual(self):
        mesh = build_rect_mesh(UNIT, 2, 2)
        problem = ConcentrationProblem(D=0.5, dt=0.1, c_prev=1.0, J=0.0)
        ls = element_system(mesh, 0, problem, SpaceLayout(p=1),
                            mesh.interior_facets())
        n_trial = ls.coupling.shape[1]
        eta_riesz, eta_fosls = error_indicator(ls, np.zeros((1, n_trial)))[0]
        G = problem_gram(mesh, problem, SpaceLayout(p=1))
        want = ls.load[0] @ np.linalg.solve(G, ls.load[0])
        assert eta_riesz == pytest.approx(want, rel=1e-12)
        assert eta_fosls == 0.0
        assert eta_riesz + eta_fosls == pytest.approx(want, rel=1e-12)

    def test_source_shift_enters_first_order_residual(self):
        mesh = classify_boundary(build_rect_mesh(UNIT, 2, 2), POT_PARTITION)
        problem = _pot_problem(S=(1.0, 0.0))
        ls = element_system(mesh, 0, problem, SpaceLayout(p=1),
                            mesh.interior_facets())
        n_trial = ls.coupling.shape[-1]
        eta_fosls = fosls_indicator(ls, np.zeros(n_trial))
        # residual of the constitutive equation is kappa^-1 * S, squared
        # over the element: |K| * 1
        assert eta_fosls == pytest.approx(mesh.dx * mesh.dy, rel=1e-12)

    def test_pointwise_and_quadratic_form_agree_away_from_cancellation(self):
        mesh = build_rect_mesh(UNIT, 2, 2)
        problem = ConcentrationProblem(D=0.5, dt=0.1, c_prev="x*y", J=0.0)
        ls = element_system(mesh, 0, problem, SpaceLayout(p=2),
                            mesh.interior_facets())
        rng = np.random.default_rng(7)
        u = rng.normal(size=ls.coupling.shape[1])
        # without a source the first-order residual has no u-independent part
        assert ls.res_shift is None
        quad_form = float(u @ ls.lsq_matrix @ u - 2.0 * ls.lsq_load[0] @ u)
        assert fosls_indicator(ls, u) == pytest.approx(quad_form, rel=1e-9)

    def test_nonnegative(self):
        mesh = build_rect_mesh(UNIT, 2, 2)
        problem = ConcentrationProblem(D=0.5, dt=0.1, c_prev="x*y", J="x")
        ls = element_system(mesh, 3, problem, SpaceLayout(p=1),
                            mesh.interior_facets())
        rng = np.random.default_rng(11)
        for _ in range(10):
            u = rng.normal(size=(1, ls.coupling.shape[1]))
            eta_riesz, eta_fosls = error_indicator(ls, u)[0]
            assert eta_riesz >= 0.0
            assert eta_fosls >= 0.0


class TestCoefficientLoads:
    LAYOUT = SpaceLayout(p=2)

    @pytest.mark.parametrize("kind", ["potential", "concentration"])
    def test_each_element_integrates_its_own_points(self, kind):
        # the per-mesh loads and Robin terms, element by element, against
        # integrals of the data sampled at that element's points alone
        if kind == "potential":
            mesh = classify_boundary(build_rect_mesh(UNIT, 4, 3), POT_PARTITION)
            problem = _pot_problem(beta=lambda x, y: 1 + x,
                                   S=(lambda x, y: np.sin(x) * y, "x - y"),
                                   I=lambda x, y: x * y, R=lambda x, y: np.cos(y))
        else:
            mesh = build_rect_mesh(UNIT, 4, 3)
            problem = ConcentrationProblem(D=0.5, dt=0.1, c_prev="1 + x*y^2",
                                           J="x + 2*y")
        geom = geometry_kernels(self.LAYOUT, mesh.dx, mesh.dy)
        load, (rows, robin), source = coefficient_loads(
            mesh, problem, geom, geom.enr_val, geom.enr_edge,
            (geom.enr_gx, geom.enr_gy))
        tags = mesh.facet_tags[mesh.elem_facets]
        with_robin = np.flatnonzero(np.any(tags == FacetTag.ROBIN, axis=1))
        assert np.array_equal(np.flatnonzero(rows >= 0), with_robin)
        assert np.array_equal(rows[with_robin], np.arange(with_robin.size))
        assert np.all(rows[rows < 0] == -1)
        assert robin.shape == (with_robin.size, self.LAYOUT.n_enriched,
                               self.LAYOUT.n_field_local)
        assert (source is None) == (kind == "concentration")
        if kind == "potential":
            assert with_robin.size == 8
        for e in range(mesh.n_elems):
            origin = mesh.element_origin(e)
            x, y = geom.vol_points(origin).T
            if kind == "potential":
                sx, sy = np.sin(x) * y, x - y
                assert np.allclose(source[0][e], sx, rtol=1e-15, atol=0.0)
                assert np.allclose(source[1][e], sy, rtol=1e-15, atol=0.0)
                want = -((geom.wvol * sx) @ geom.enr_gx
                         + (geom.wvol * sy) @ geom.enr_gy)
            else:
                want = (geom.wvol * (1 + x * y ** 2)) @ geom.enr_val
            want_robin = np.zeros(robin.shape[1:])
            for k in range(4):
                if tags[e, k] == FacetTag.INTERIOR:
                    continue
                ex, ey = geom.edge_points(k, origin).T
                w, v = geom.edge_w[k], geom.enr_edge[k]
                if kind == "concentration":
                    want -= problem.dt * ((w * (ex + 2 * ey)) @ v)
                elif tags[e, k] == FacetTag.ROBIN:
                    want -= (w * np.cos(ey)) @ v
                    want_robin += (v.T * (w * (1 + ex))) @ geom.field_edge[k]
                elif tags[e, k] == FacetTag.NEUMANN:
                    want -= (w * ex * ey) @ v
            assert np.allclose(load[e], want, rtol=1e-13, atol=1e-15)
            if rows[e] >= 0:
                assert np.allclose(robin[rows[e]], want_robin,
                                   rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("name, tag", [("J", FacetTag.NEUMANN), ("I", FacetTag.NEUMANN),
                                           ("R", FacetTag.ROBIN)])
    def test_boundary_data_see_each_local_edge_outward_normal(self, name, tag):
        mesh = classify_boundary(build_rect_mesh(Rectangle(-0.5, 1.0, 0.0, 2.0), 3, 2),
                                 BoundaryPartition(tag, tag, tag, tag))
        calls = []

        def record(x, y, nx, ny):
            calls.append([np.array(a, dtype=float).ravel()
                          for a in np.broadcast_arrays(x, y, nx, ny)])
            return np.zeros_like(x)

        if name == "J":
            problem = ConcentrationProblem(D=0.5, dt=0.1, c_prev=0.0, J=record)
        else:
            problem = _pot_problem(**{name: record})
        geom = geometry_kernels(self.LAYOUT, mesh.dx, mesh.dy)
        coefficient_loads(mesh, problem, geom, geom.enr_val, geom.enr_edge)
        x, y, nx, ny = (np.concatenate([c[i] for c in calls]) for i in range(4))
        # each point's local edge is the domain side it lies on
        on = np.column_stack([np.isclose(x, -0.5), np.isclose(x, 1.0),
                              np.isclose(y, 0.0), np.isclose(y, 2.0)])
        assert np.all(on.sum(axis=1) == 1)
        k = np.argmax(on, axis=1)
        assert np.array_equal(np.column_stack([nx, ny]), OUTWARD[k])
        # every boundary facet's points, each side's once
        nq = geom.edge_w[0].size
        assert np.bincount(k).tolist() == [2 * nq, 2 * nq, 3 * nq, 3 * nq]

    def test_non_finite_value_named_at_first_point_in_element_order(self):
        mesh = build_rect_mesh(UNIT, 4, 4)
        geom = geometry_kernels(self.LAYOUT, mesh.dx, mesh.dy)
        def bad(x, y):
            # a corner element and an interior one
            return (((x > 0.75) & (y < 0.25))
                    | ((x > 0.5) & (x < 0.75) & (y > 0.5) & (y < 0.75)))

        problem = ConcentrationProblem(
            D=0.5, dt=0.1, J=0.0,
            c_prev=lambda x, y: np.where(bad(x, y), np.inf, 1.0))
        pts = geom.vol_points(mesh.element_origin(np.arange(mesh.n_elems)))
        flat = pts.reshape(-1, 2)
        x, y = flat[np.argmax(bad(flat[:, 0], flat[:, 1]))]
        assert x > 0.75 and y < 0.25            # element 3, before element 10
        with pytest.raises(ProblemValidationError,
                           match=rf"c_prev is not finite at \({x:g}, {y:g}\)"):
            coefficient_loads(mesh, problem, geom, geom.enr_val, geom.enr_edge)

    def test_robin_minimum_over_the_whole_mesh(self):
        mesh = classify_boundary(build_rect_mesh(UNIT, 3, 3), POT_PARTITION)
        geom = geometry_kernels(self.LAYOUT, mesh.dx, mesh.dy)
        # negative on the bottom side, more negative on the top side
        problem = _pot_problem(beta=lambda x, y: np.where(y > 0.5, -2.0, -1.0))
        with pytest.raises(ProblemValidationError,
                           match=r"at the assembly's quadrature points "
                                 r"\(min sampled value -2\)"):
            coefficient_loads(mesh, problem, geom, geom.enr_val, geom.enr_edge)

