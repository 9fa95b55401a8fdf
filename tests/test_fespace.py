import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import dpgfem.solver as solver_mod
from dpgfem.dpg import coefficient_loads, element_groups, geometry_kernels
from dpgfem.fespace import (
    MAX_DEGREE,
    SpaceLayout,
    build_dofmap,
    gauss_lobatto_nodes,
    tabulate_facet_basis,
    tabulate_h1_basis,
    tabulate_l2_basis,
)
from dpgfem.manufactured import manufactured_case
from dpgfem.mesh import (
    BoundaryPartition,
    FacetTag,
    Rectangle,
    build_rect_mesh,
    classify_boundary,
)
from dpgfem.problems import ConcentrationProblem, PotentialProblem
from dpgfem.quadrature import gauss_1d, tensor_quad
from dpgfem.solver import active_facets, assemble
from dpgfem.verify import case_mesh

UNIT = Rectangle(0.0, 1.0, 0.0, 1.0)

RNG = np.random.default_rng(20240817)


def _flux_dofs(dofmap, e):
    """The flux dofs of element e: 2 p^2 per element after the field block."""
    n = dofmap.layout.n_flux_local
    return dofmap.n_field + e * n + np.arange(n)


def _facet_trace_dofs(dofmap, f):
    """The p trace dofs of facet f, from its slot among the active facets."""
    s = dofmap.facet_slot[f]
    if s < 0:
        raise ValueError(f"facet {f} carries no trace dofs")
    p = dofmap.layout.p
    return dofmap.trace_offset + s * p + np.arange(p)


def _padded_dofs(dofmap, e):
    """The dofs of element e, from the facet numbering: field, flux, then p
    trace dofs per local edge, p absent dofs (-1) on an edge without
    traces."""
    p = dofmap.layout.p
    active = {k: f for k, f, _sign in dofmap.element_active_edges(e)}
    parts = [dofmap.elem_field[e], _flux_dofs(dofmap, e)]
    for k in range(4):
        parts.append(_facet_trace_dofs(dofmap, active[k]) if k in active
                     else np.full(p, -1))
    return np.concatenate(parts)


# every facet normal points along +x or +y, so every element's trace signs
# are -1 on its left and bottom edges and +1 on its right and top ones
EDGE_SIGNS = (-1.0, 1.0, -1.0, 1.0)


def _edge_signs(dofmap, e):
    """Trace sign of each local edge of element e, EDGE_SIGNS where the
    edge has no traces."""
    signs = list(EDGE_SIGNS)
    for k, _f, sign in dofmap.element_active_edges(e):
        signs[k] = sign
    return signs


def _reference_groups(dofmap):
    """The padded partition, element by element: the elements without a
    Robin edge, then those with one, an empty group omitted. (elems,
    signs, dofs) per group."""
    mesh = dofmap.mesh
    robin = [FacetTag.ROBIN in mesh.facet_tags[mesh.elem_facets[e]]
             for e in range(mesh.n_elems)]
    groups = []
    for key in (False, True):
        elems = np.array([e for e in range(mesh.n_elems) if robin[e] == key],
                         dtype=np.int64)
        if elems.size:
            groups.append((elems, np.array([_edge_signs(dofmap, e) for e in elems]),
                           np.array([_padded_dofs(dofmap, e) for e in elems])))
    return groups


# (nx, ny, partition) of the meshes the partition checks run over; None is
# the concentration problem's partition
PARTITIONS = [
    (4, 3, (FacetTag.DIRICHLET, FacetTag.NEUMANN, FacetTag.ROBIN, FacetTag.ROBIN)),
    (3, 5, (FacetTag.ROBIN, FacetTag.DIRICHLET, FacetTag.NEUMANN, FacetTag.DIRICHLET)),
    (1, 1, (FacetTag.DIRICHLET, FacetTag.ROBIN, FacetTag.NEUMANN, FacetTag.ROBIN)),
    (5, 1, (FacetTag.NEUMANN, FacetTag.NEUMANN, FacetTag.ROBIN, FacetTag.NEUMANN)),
    (4, 4, (FacetTag.DIRICHLET, FacetTag.DIRICHLET, FacetTag.NEUMANN, FacetTag.NEUMANN)),
    (1, 1, None),
    (1, 4, None),
    (6, 2, None),
    (4, 4, None),
]


def _problem(partition):
    """The concentration problem for partition None, else a potential one."""
    return (ConcentrationProblem(D=0.5, dt=0.1, c_prev=1.0, J=0.0) if partition is None
            else PotentialProblem(kappa=1.0, beta=1.0, S=(0.0, 0.0), I=0.0, R=0.0))


def _groups(dofmap, partition):
    """`element_groups` of the Robin rows that `coefficient_loads` gives the
    dof map's mesh for the `_problem` of partition."""
    mesh = dofmap.mesh
    geom = geometry_kernels(dofmap.layout, mesh.dx, mesh.dy)
    _, (rows, _), _ = coefficient_loads(mesh, _problem(partition), geom, geom.enr_val,
                                        geom.enr_edge)
    return element_groups(rows)


def _partitioned_dofmap(nx, ny, partition, p):
    """DofMap of an nx-by-ny mesh tagged by partition, with the traces of
    the potential problem, or of the concentration problem (Neumann sides,
    interior traces) for partition None."""
    mesh = build_rect_mesh(Rectangle(-0.5, 1.0, 0.0, 2.0), nx, ny)
    if partition is None:
        mesh = classify_boundary(mesh, BoundaryPartition())
        active = mesh.interior_facets()
    else:
        mesh = classify_boundary(mesh, BoundaryPartition(*partition))
        active = np.concatenate([mesh.interior_facets(),
                                 mesh.facets_with_tag(FacetTag.DIRICHLET)])
    return build_dofmap(mesh, SpaceLayout(p=p), active)


def _reference_nodes(degree):
    """gauss_lobatto_nodes as computed on every call before it was cached."""
    if degree == 0:
        return np.array([0.0])
    if degree == 1:
        return np.array([-1.0, 1.0])
    coeffs = np.zeros(degree + 1)
    coeffs[degree] = 1.0
    interior = np.polynomial.legendre.legroots(np.polynomial.legendre.legder(coeffs))
    return np.concatenate([[-1.0], np.sort(np.real(interior)), [1.0]])


def _reference_lagrange_1d(nodes, x):
    """The product-formula values and derivatives of lagrange_1d, one
    point array per axis, as the tensor tabulations called it before they
    evaluated the distinct coordinates of both axes at once."""
    n = nodes.shape[0]
    vals = np.ones((x.shape[0], n))
    for i in range(n):
        for j in range(n):
            if j != i:
                vals[:, i] *= (x - nodes[j]) / (nodes[i] - nodes[j])
    ders = np.zeros((x.shape[0], n))
    for i in range(n):
        denom = np.prod([nodes[i] - nodes[j] for j in range(n) if j != i]) if n > 1 else 1.0
        for k in range(n):
            if k == i:
                continue
            term = np.ones_like(x)
            for j in range(n):
                if j != i and j != k:
                    term *= x - nodes[j]
            ders[:, i] += term / denom
    return vals, ders


def _reference_tensor_basis(degree, pts):
    """(values, grads) of the degree's tensor Lagrange basis from the
    column loop that tabulate_h1_basis and tabulate_l2_basis ran before
    they formed the products with array operations."""
    nodes = _reference_nodes(degree)
    vx, dx = _reference_lagrange_1d(nodes, pts[:, 0])
    vy, dy = _reference_lagrange_1d(nodes, pts[:, 1])
    npts, n1 = vx.shape
    values = np.empty((npts, n1 * n1))
    grads = np.empty((npts, n1 * n1, 2))
    for iy in range(n1):
        for ix in range(n1):
            a = iy * n1 + ix
            values[:, a] = vx[:, ix] * vy[:, iy]
            grads[:, a, 0] = dx[:, ix] * vy[:, iy]
            grads[:, a, 1] = vx[:, ix] * dy[:, iy]
    return values, grads


def _point_sets():
    """Gauss rules, Lobatto lattices, edge points at +-1 and random points,
    with coordinates shared between the axes and within each axis."""
    sets = [tensor_quad(n).points for n in range(1, MAX_DEGREE + 3)]
    for q in (1, 2, 5, MAX_DEGREE):
        nodes = gauss_lobatto_nodes(q)
        sets.append(np.array([[x, y] for y in nodes for x in nodes]))
    t = gauss_1d(4).points
    sets += [np.column_stack([np.full_like(t, c), t]) for c in (-1.0, 1.0)]
    sets.append(np.random.default_rng(7).uniform(-1.0, 1.0, size=(40, 2)))
    return sets


class TestFrozenTabulation:
    """The tabulations reproduce the per-axis loop bit for bit."""

    @pytest.mark.parametrize("p", range(1, MAX_DEGREE + 1))
    def test_h1_basis_matches_column_loop(self, p):
        for pts in _point_sets():
            values, grads = tabulate_h1_basis(p, pts)
            want_values, want_grads = _reference_tensor_basis(p, pts)
            assert np.array_equal(values, want_values)
            assert np.array_equal(grads, want_grads)

    @pytest.mark.parametrize("degree", range(0, MAX_DEGREE + 1))
    def test_l2_basis_matches_column_loop(self, degree):
        for pts in _point_sets():
            assert np.array_equal(tabulate_l2_basis(degree, pts),
                                  _reference_tensor_basis(degree, pts)[0])

    @pytest.mark.parametrize("degree", range(0, MAX_DEGREE + 1))
    def test_nodes_cached_read_only_and_shared(self, degree):
        nodes = gauss_lobatto_nodes(degree)
        assert np.array_equal(nodes, _reference_nodes(degree))
        assert gauss_lobatto_nodes(degree) is nodes
        assert not nodes.flags.writeable
        with pytest.raises(ValueError):
            nodes[0] = 0.5


class TestGaussLobattoNodes:
    def test_low_degrees(self):
        assert np.allclose(gauss_lobatto_nodes(0), [0.0])
        assert np.allclose(gauss_lobatto_nodes(1), [-1.0, 1.0])
        assert np.allclose(gauss_lobatto_nodes(2), [-1.0, 0.0, 1.0])
        s = 1.0 / np.sqrt(5.0)
        assert np.allclose(gauss_lobatto_nodes(3), [-1.0, -s, s, 1.0])

    def test_endpoints_and_symmetry(self):
        for degree in range(1, 9):
            nodes = gauss_lobatto_nodes(degree)
            assert nodes.shape == (degree + 1,)
            assert nodes[0] == -1.0 and nodes[-1] == 1.0
            assert np.all(np.diff(nodes) > 0)
            assert np.allclose(nodes, -nodes[::-1], atol=1e-14)

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            gauss_lobatto_nodes(-1)


class TestH1Basis:
    def test_bilinear_at_center(self):
        values, grads = tabulate_h1_basis(1, np.array([[0.0, 0.0]]))
        assert values.shape == (1, 4)
        assert np.allclose(values, 0.25)

    def test_partition_of_unity_and_gradient_sum(self):
        pts = RNG.uniform(-1.0, 1.0, size=(25, 2))
        for p in range(1, 5):
            values, grads = tabulate_h1_basis(p, pts)
            assert np.max(np.abs(values.sum(axis=1) - 1.0)) <= 1e-13
            assert np.max(np.abs(grads.sum(axis=1))) <= 1e-12

    def test_delta_property_at_nodes(self):
        nodes = gauss_lobatto_nodes(2)
        lattice = np.array([[x, y] for y in nodes for x in nodes])
        values, _ = tabulate_h1_basis(2, lattice)
        assert np.allclose(values, np.eye(9), atol=1e-13)

    def test_interpolates_tensor_polynomials_exactly(self):
        # the nodal interpolant of a bi-degree-p polynomial is the polynomial
        rule = tensor_quad(6)
        for p in range(1, 4):
            nodes = gauss_lobatto_nodes(p)
            lattice = np.array([[x, y] for y in nodes for x in nodes])

            def f(x, y):
                return (1.0 + x + 0.5 * x**p) * (2.0 - y + 0.25 * y**p)

            coeffs = f(lattice[:, 0], lattice[:, 1])
            values, _ = tabulate_h1_basis(p, rule.points)
            exact = f(rule.points[:, 0], rule.points[:, 1])
            rel = np.abs(values @ coeffs - exact) / np.max(np.abs(exact))
            assert np.max(rel) <= 1e-11

    @pytest.mark.parametrize("p", [0, 11])
    def test_rejects_out_of_range_degree(self, p):
        with pytest.raises(ValueError):
            tabulate_h1_basis(p, np.zeros((1, 2)))


class TestL2Basis:
    def test_constant_mode(self):
        pts = RNG.uniform(-1.0, 1.0, size=(7, 2))
        values = tabulate_l2_basis(0, pts)
        assert values.shape == (7, 1)
        assert np.allclose(values, 1.0)

    def test_mode_count_for_quadratic_field(self):
        # flux space of a p=2 field: degree-1 modes, 4 scalar / 8 vector
        values = tabulate_l2_basis(1, np.zeros((1, 2)))
        assert values.shape == (1, 4)
        layout = SpaceLayout(p=2)
        assert layout.n_flux_scalar == 4
        assert layout.n_flux_local == 8

    def test_delta_property_at_own_nodes(self):
        nodes = gauss_lobatto_nodes(1)
        lattice = np.array([[x, y] for y in nodes for x in nodes])
        values = tabulate_l2_basis(1, lattice)
        assert np.allclose(values, np.eye(4), atol=1e-14)


class TestFacetBasis:
    def test_constant_mode(self):
        t = np.linspace(-1.0, 1.0, 5)
        values = tabulate_facet_basis(0, t)
        assert values.shape == (5, 1)
        assert np.allclose(values, 1.0)

    def test_three_modes_with_delta_property(self):
        nodes = gauss_lobatto_nodes(2)
        values = tabulate_facet_basis(2, nodes)
        assert values.shape == (3, 3)
        assert np.allclose(values, np.eye(3), atol=1e-14)

    def test_mode_integrals_match_analytic_values(self):
        # integrals over [-1,1] of the quadratic Lagrange modes on {-1,0,1}:
        # t(t-1)/2 -> 1/3, 1-t^2 -> 4/3, t(t+1)/2 -> 1/3
        rule = gauss_1d(3)
        values = tabulate_facet_basis(2, rule.points)
        integrals = rule.weights @ values
        assert np.allclose(integrals, [1.0 / 3.0, 4.0 / 3.0, 1.0 / 3.0],
                           atol=1e-14)


class TestSpaceLayout:
    def test_counts(self):
        layout = SpaceLayout(p=2, delta_p=1)
        assert layout.n_field_local == 9
        assert layout.n_flux_local == 8
        assert layout.enriched_degree == 3
        assert layout.n_enriched == 16
        assert layout.default_quad_points == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            SpaceLayout(p=0)
        with pytest.raises(ValueError):
            SpaceLayout(p=1, delta_p=0)
        with pytest.raises(ValueError):
            SpaceLayout(p=10, delta_p=1)  # enriched degree exceeds the cap
        SpaceLayout(p=9, delta_p=1)


class TestDofMap:
    def test_reference_counts_2x2_p1(self):
        mesh = build_rect_mesh(UNIT, 2, 2)
        dofmap = build_dofmap(mesh, SpaceLayout(p=1), mesh.interior_facets())
        assert dofmap.n_field == 9
        assert dofmap.n_flux == 8
        assert dofmap.n_trace == 4
        assert dofmap.n_total == 21

    def test_reference_counts_1x1_p2_no_active(self):
        mesh = build_rect_mesh(UNIT, 1, 1)
        dofmap = build_dofmap(mesh, SpaceLayout(p=2), np.empty(0, dtype=int))
        assert dofmap.n_field == 9
        assert dofmap.n_flux == 8
        assert dofmap.n_trace == 0

    @given(nx=st.integers(1, 4), ny=st.integers(1, 4), p=st.integers(1, 3))
    def test_count_formulas(self, nx, ny, p):
        mesh = build_rect_mesh(UNIT, nx, ny)
        active = mesh.interior_facets()
        dofmap = build_dofmap(mesh, SpaceLayout(p=p), active)
        assert dofmap.n_field == (nx * p + 1) * (ny * p + 1)
        assert dofmap.n_flux == 2 * p * p * nx * ny
        assert dofmap.n_trace == p * active.size

    def test_neighbors_share_edge_field_dofs(self):
        mesh = build_rect_mesh(UNIT, 2, 2)
        for p in (1, 2, 3):
            dofmap = build_dofmap(mesh, SpaceLayout(p=p),
                                  mesh.interior_facets())
            horiz = set(dofmap.elem_field[0]) & set(dofmap.elem_field[1])
            diag = set(dofmap.elem_field[0]) & set(dofmap.elem_field[3])
            assert len(horiz) == p + 1   # shared vertical edge
            assert len(diag) == 1        # shared corner vertex

    def test_element_active_edges_signs(self):
        mesh = build_rect_mesh(UNIT, 2, 2)
        dofmap = build_dofmap(mesh, SpaceLayout(p=1), mesh.interior_facets())
        # element 0 (lower-left): interior facets on its right and top edges,
        # where the global normal is its outward normal
        edges0 = dofmap.element_active_edges(0)
        assert sorted(k for k, _, _ in edges0) == [1, 3]
        assert all(sign == 1.0 for _, _, sign in edges0)
        # element 3 (upper-right): interior facets on left and bottom edges
        edges3 = dofmap.element_active_edges(3)
        assert sorted(k for k, _, _ in edges3) == [0, 2]
        assert all(sign == -1.0 for _, _, sign in edges3)

    def test_shared_facet_referenced_from_both_sides(self):
        mesh = build_rect_mesh(UNIT, 2, 2)
        dofmap = build_dofmap(mesh, SpaceLayout(p=2), mesh.interior_facets())
        facet = mesh.elem_facets[0, 1]  # right edge of element 0
        dofs = _facet_trace_dofs(dofmap, facet)
        # element 0's right edge, element 1's left edge
        assert np.array_equal(dofmap.element_dofs(0)[19:21], dofs)
        assert np.array_equal(dofmap.element_dofs(1)[17:19], dofs)

    def test_inactive_facet_has_no_trace_dofs(self):
        mesh = build_rect_mesh(UNIT, 2, 2)
        dofmap = build_dofmap(mesh, SpaceLayout(p=1), mesh.interior_facets())
        boundary = mesh.boundary_facets()[0]
        with pytest.raises(ValueError):
            _facet_trace_dofs(dofmap, boundary)
        # its element keeps the edge's trace column, with an absent dof
        e, k = (int(i[0]) for i in np.nonzero(mesh.elem_facets == boundary))
        assert dofmap.elem_dofs[e, 4 + 2 + k] == -1

    def test_element_dofs_layout(self):
        mesh = build_rect_mesh(UNIT, 2, 2)
        layout = SpaceLayout(p=2)
        dofmap = build_dofmap(mesh, layout, mesh.interior_facets())
        dofs = dofmap.element_dofs(0)
        assert dofs.shape[0] == (layout.n_field_local + layout.n_flux_local
                                 + 4 * layout.p)
        # block order: field lattice, element flux, traces by local edge,
        # absent on element 0's left and bottom (boundary) edges
        assert np.array_equal(dofs[:9], dofmap.elem_field[0])
        assert np.array_equal(dofs[9:17], _flux_dofs(dofmap, 0))
        assert np.all(dofs[[17, 18, 21, 22]] == -1)
        assert np.all(dofs[[19, 20, 23, 24]] >= dofmap.trace_offset)

    @pytest.mark.parametrize("p", [1, 2])
    def test_element_dofs_is_the_row_assembly_condenses(self, monkeypatch, p):
        case = manufactured_case("pot-trig")
        mesh = case_mesh(case, 4)
        dofmap = build_dofmap(mesh, SpaceLayout(p=p), active_facets(mesh))
        rows = {}
        condensed_system = solver_mod.condensed_system

        def recorded(dofmap, kind, systems):
            systems = list(systems)
            for elems, trial, _S, _r in systems:
                rows.update(zip(elems.tolist(), trial))
            return condensed_system(dofmap, kind, systems)

        monkeypatch.setattr(solver_mod, "condensed_system", recorded)
        assemble(mesh, dofmap, case.problem)
        assert sorted(rows) == list(range(mesh.n_elems))
        for e, row in rows.items():
            assert np.array_equal(dofmap.element_dofs(e), row)


class TestElementGroups:
    @pytest.mark.parametrize("p", [1, 2])
    def test_partition_and_dof_rows(self, p):
        # Dirichlet left, Neumann right, Robin bottom/top; traces on
        # interior and Dirichlet facets as for the potential problem
        partition = BoundaryPartition(FacetTag.DIRICHLET, FacetTag.NEUMANN,
                                      FacetTag.ROBIN, FacetTag.ROBIN)
        mesh = classify_boundary(build_rect_mesh(UNIT, 4, 3), partition)
        active = np.concatenate([mesh.interior_facets(),
                                 mesh.facets_with_tag(FacetTag.DIRICHLET)])
        dofmap = build_dofmap(mesh, SpaceLayout(p=p), active)
        groups = _groups(dofmap, partition)
        # the interior with the Dirichlet and Neumann sides, and the bottom
        # and top rows stacked as the Robin group
        assert [g.tolist() for g in groups] == [[4, 5, 6, 7],
                                                [0, 1, 2, 3, 8, 9, 10, 11]]
        assert dofmap.elem_dofs.shape == (12, (p + 1) ** 2 + 2 * p * p + 4 * p)
        for e, row in enumerate(dofmap.elem_dofs):
            assert np.array_equal(row, _padded_dofs(dofmap, e))
        # a Dirichlet edge, like an interior left edge, has the sign -1
        assert [(k, sign) for k, _f, sign in dofmap.element_active_edges(4)] == [
            (0, -1.0), (1, 1.0), (2, -1.0), (3, 1.0)]
        # so do the Robin stack's corners on the Dirichlet side
        for e in (0, 8):
            assert _edge_signs(dofmap, e) == list(EDGE_SIGNS)

    def test_concentration_mesh_is_one_group(self):
        for nx, ny in ((3, 3), (5, 4), (1, 6)):
            mesh = classify_boundary(build_rect_mesh(UNIT, nx, ny), BoundaryPartition())
            dofmap = build_dofmap(mesh, SpaceLayout(p=2), mesh.interior_facets())
            [group] = _groups(dofmap, None)
            assert np.array_equal(group, np.arange(nx * ny))
            assert all(_edge_signs(dofmap, e) == list(EDGE_SIGNS) for e in group)
            # boundary edges keep their columns, with absent dofs
            assert np.count_nonzero(dofmap.elem_dofs[group] == -1) == 2 * 2 * (nx + ny)

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("nx, ny, partition", PARTITIONS)
    def test_matches_the_element_by_element_partition(self, p, nx, ny, partition):
        dofmap = _partitioned_dofmap(nx, ny, partition, p)
        groups = _groups(dofmap, partition)
        reference = _reference_groups(dofmap)
        # at most the elements without a Robin edge and the Robin stack:
        # every element has the same trace signs, Dirichlet edges included
        assert len(groups) == len(reference) <= 2
        assert dofmap.elem_dofs.dtype == np.int64
        for g, (elems, signs, dofs) in zip(groups, reference):
            assert np.array_equal(g, elems)
            assert np.array_equal(signs, np.tile(EDGE_SIGNS, (elems.size, 1)))
            assert np.array_equal(dofmap.elem_dofs[g], dofs)

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("nx, ny, partition", PARTITIONS + [
        (4, 3, (FacetTag.DIRICHLET, FacetTag.NEUMANN, FacetTag.DIRICHLET, FacetTag.ROBIN))])
    def test_only_robin_edges_set_elements_apart(self, p, nx, ny, partition):
        # Dirichlet sides included: the elements without a Robin edge share
        # one element system, and each of the others has its own
        dofmap = _partitioned_dofmap(nx, ny, partition, p)
        mesh = dofmap.mesh
        robin = np.array([FacetTag.ROBIN in mesh.facet_tags[mesh.elem_facets[e]]
                          for e in range(mesh.n_elems)])
        want = [np.flatnonzero(~robin).tolist(), np.flatnonzero(robin).tolist()]
        assert [g.tolist() for g in _groups(dofmap, partition)] == [w for w in want if w]
        grid = assemble(mesh, dofmap, _problem(partition)).grid
        assert len(grid.mats) == int(np.any(~robin)) + np.count_nonzero(robin)
        assert np.unique(grid.elem_class[~robin]).size == int(np.any(~robin))
        assert np.unique(grid.elem_class[robin]).size == np.count_nonzero(robin)
        assert not set(grid.elem_class[~robin]) & set(grid.elem_class[robin])

    def test_dof_rows_are_read_only(self):
        mesh = build_rect_mesh(UNIT, 3, 3)
        dofmap = build_dofmap(mesh, SpaceLayout(p=2), mesh.interior_facets())
        # every pass reads the one array; none may write to it
        for rows in (dofmap.elem_dofs, dofmap.elem_field, dofmap.element_dofs(4)):
            with pytest.raises(ValueError):
                rows[..., 0] = -1
        assert np.shares_memory(dofmap.elem_field, dofmap.elem_dofs)
        # a fresh list of fresh arrays on each call
        first, second = _groups(dofmap, None), _groups(dofmap, None)
        first[0][0] = -1
        assert second[0][0] == 0
