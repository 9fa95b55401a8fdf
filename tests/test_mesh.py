import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dpgfem.mesh import (
    OUTWARD,
    BoundaryPartition,
    FacetTag,
    InvalidPartitionError,
    Rectangle,
    build_rect_mesh,
    classify_boundary,
)

UNIT = Rectangle(0.0, 1.0, 0.0, 1.0)
# (domain, nx, ny) of the meshes the per-element and per-facet checks run over
SHAPES = [(UNIT, 1, 1), (UNIT, 1, 4), (UNIT, 4, 1), (UNIT, 2, 2),
          (Rectangle(0.0, 1.0, 0.0, 2.0), 3, 5)]


def meshes():
    return [build_rect_mesh(*shape) for shape in SHAPES]


# -- frozen references: facet, area and refinement helpers that only
# these checks use, kept here from the library

def facet_endpoints(mesh, f: int) -> np.ndarray:
    return mesh.vertices[mesh.facet_verts[f]]


def facet_length(mesh, f: int) -> float:
    a, b = facet_endpoints(mesh, f)
    return float(np.linalg.norm(b - a))


def element_area(mesh) -> float:
    return mesh.dx * mesh.dy


def facet_geometry(mesh, f: int):
    """Length, global normal, incident elements and per-element signs of a
    facet: +1 where the normal points away from the element's centre."""
    elems = tuple(int(e) for e in mesh.facet_elems[f] if e >= 0)
    normal = mesh.facet_normals[f].copy()
    mid = facet_endpoints(mesh, f).mean(axis=0)
    signs = []
    for e in elems:
        ox, oy = mesh.element_origin(e)
        center = np.array([ox + mesh.dx / 2, oy + mesh.dy / 2])
        signs.append(float(np.sign(np.dot(normal, mid - center))))
    return facet_length(mesh, f), normal, elems, tuple(signs)


def refine_uniform(mesh, partition):
    """Halve every element and tag the boundary facets by `partition`: a
    mesh records its partition only in its facet tags."""
    return classify_boundary(build_rect_mesh(mesh.domain, 2 * mesh.nx, 2 * mesh.ny),
                             partition)


class TestRectangle:
    def test_dimensions(self):
        r = Rectangle(0.0, 2.0, 0.0, 1.0)
        assert r.width == 2.0
        assert r.height == 1.0
        assert r.width * r.height == 2.0

    def test_rejects_degenerate_extent(self):
        with pytest.raises(ValueError):
            Rectangle(0.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            Rectangle(0.0, 1.0, 2.0, 1.0)

    @pytest.mark.parametrize("bounds", [(-1e308, 1e308, 0.0, 1.0), (0.0, 1.0, -1e308, 1e308),
                                        (0.0, float("inf"), 0.0, 1.0)])
    def test_rejects_extent_beyond_the_float_range(self, bounds):
        # finite bounds whose difference overflows, and an infinite bound
        with pytest.raises(ValueError, match="rectangle too large"):
            Rectangle(*bounds)


class TestBuildRectMesh:
    def test_single_element_counts(self):
        mesh = build_rect_mesh(UNIT, 1, 1)
        assert mesh.n_elems == 1
        assert mesh.boundary_facets().size == 4
        assert mesh.interior_facets().size == 0

    def test_two_by_two_counts(self):
        mesh = build_rect_mesh(UNIT, 2, 2)
        assert mesh.n_elems == 4
        assert mesh.boundary_facets().size == 8
        assert mesh.interior_facets().size == 4

    def test_rectangular_domain_areas(self):
        mesh = build_rect_mesh(Rectangle(0.0, 2.0, 0.0, 1.0), 4, 2)
        assert mesh.n_elems == 8
        assert element_area(mesh) == pytest.approx(0.25, abs=0.0)
        assert mesh.n_elems * element_area(mesh) == pytest.approx(2.0)

    def test_rejects_non_positive_subdivision(self):
        with pytest.raises(ValueError):
            build_rect_mesh(UNIT, 0, 2)
        with pytest.raises(ValueError):
            build_rect_mesh(UNIT, 2, -1)

    @given(nx=st.integers(1, 5), ny=st.integers(1, 5))
    def test_facet_count_formulas(self, nx, ny):
        mesh = build_rect_mesh(UNIT, nx, ny)
        assert mesh.n_elems == nx * ny
        assert mesh.boundary_facets().size == 2 * nx + 2 * ny
        assert mesh.interior_facets().size == (nx - 1) * ny + (ny - 1) * nx
        assert mesh.n_facets == (nx + 1) * ny + (ny + 1) * nx

    def test_element_vertices_counterclockwise(self):
        for mesh in meshes():
            for e in range(mesh.n_elems):
                quad = mesh.vertices[mesh.elem_verts[e]]
                # shoelace area of a CCW quad is positive
                x, y = quad[:, 0], quad[:, 1]
                area = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
                assert area == pytest.approx(element_area(mesh))
                # starting from the lower-left corner
                assert np.allclose(quad[0], mesh.element_origin(e))


class TestFacetGeometry:
    def test_boundary_facet_single_incident_along_x_or_y(self):
        for mesh in meshes():
            for f in mesh.boundary_facets():
                length, normal, elems, signs = facet_geometry(mesh, f)
                assert len(elems) == 1
                # boundary normals point along +x or +y like interior ones:
                # into the element on the left and bottom sides, out of it
                # on the right and top sides
                k = int(np.flatnonzero(mesh.elem_facets[elems[0]] == f)[0])
                assert normal.tolist() == ([1.0, 0.0] if k < 2 else [0.0, 1.0])
                assert signs == ((-1.0, 1.0, -1.0, 1.0)[k],)
                assert np.array_equal(signs[0] * normal, OUTWARD[k])

    def test_outward_is_each_local_edge_outward_normal(self):
        for mesh in meshes():
            for e in range(mesh.n_elems):
                ox, oy = mesh.element_origin(e)
                center = np.array([ox + mesh.dx / 2, oy + mesh.dy / 2])
                for k, f in enumerate(mesh.elem_facets[e]):
                    out = facet_endpoints(mesh, f).mean(axis=0) - center
                    assert np.allclose(OUTWARD[k], out / np.linalg.norm(out),
                                       rtol=0.0, atol=1e-14)
        with pytest.raises(ValueError):
            OUTWARD[0, 0] = 1.0

    def test_interior_facet_signs_opposite(self):
        for mesh in meshes():
            for f in mesh.interior_facets():
                length, normal, elems, signs = facet_geometry(mesh, f)
                assert len(elems) == 2
                assert signs == (1.0, -1.0)
                assert normal.tolist() in ([1.0, 0.0], [0.0, 1.0])
                # global normal points from the first element into the second
                c0 = np.array(mesh.element_origin(elems[0]))
                c1 = np.array(mesh.element_origin(elems[1]))
                assert np.dot(normal, c1 - c0) > 0

    def test_vertical_facet_of_2x2_unit_mesh(self):
        mesh = build_rect_mesh(UNIT, 2, 2)
        interior = mesh.interior_facets()
        vertical = [f for f in interior
                    if abs(mesh.facet_normals[f][0]) > 0.5]
        assert vertical
        for f in vertical:
            assert facet_length(mesh, f) == pytest.approx(0.5)
            assert np.allclose(mesh.facet_normals[f], [1.0, 0.0])

    def test_facet_geometry_consistent_with_endpoints(self):
        for mesh in meshes() + [build_rect_mesh(Rectangle(0.0, 2.0, 0.0, 1.0), 2, 2)]:
            for f in range(mesh.n_facets):
                length, normal, elems, signs = facet_geometry(mesh, f)
                ends = facet_endpoints(mesh, f)
                assert length == pytest.approx(np.linalg.norm(ends[1] - ends[0]))
                assert length == pytest.approx(mesh.dx if normal[1] else mesh.dy)
                tangent = (ends[1] - ends[0]) / length
                assert abs(float(np.dot(tangent, normal))) < 1e-14


class TestRefineUniform:
    def test_one_to_four_elements(self):
        fine = refine_uniform(build_rect_mesh(UNIT, 1, 1), BoundaryPartition())
        assert fine.n_elems == 4

    def test_two_by_two_interior_count(self):
        fine = refine_uniform(build_rect_mesh(UNIT, 2, 2), BoundaryPartition())
        assert fine.n_elems == 16
        assert fine.interior_facets().size == 24

    def test_halves_mesh_size(self):
        coarse = build_rect_mesh(Rectangle(0.0, 2.0, 0.0, 1.0), 4, 2)
        fine = refine_uniform(coarse, BoundaryPartition())
        assert fine.dx == pytest.approx(coarse.dx / 2)
        assert fine.dy == pytest.approx(coarse.dy / 2)
        assert fine.h_max == pytest.approx(coarse.h_max / 2)


# the partition rule of each problem is checked on the classified mesh's
# facet tags, by problems.validate_problem (tests/test_problems.py)
class TestBoundaryPartition:
    def test_default_all_neumann(self):
        part = BoundaryPartition()
        assert (part.left, part.right, part.bottom, part.top) == (FacetTag.NEUMANN,) * 4

    def test_from_names_tags_named_sides_only(self):
        part = BoundaryPartition.from_names({"left": "dirichlet", "bottom": "Robin"})
        assert (part.left, part.right, part.bottom, part.top) == (
            FacetTag.DIRICHLET, FacetTag.NEUMANN, FacetTag.ROBIN, FacetTag.NEUMANN)

    def test_unknown_side_or_tag_rejected(self):
        with pytest.raises(InvalidPartitionError):
            BoundaryPartition.from_names({"north": "neumann"})
        with pytest.raises(InvalidPartitionError):
            BoundaryPartition.from_names({"left": "periodic"})


class TestClassifyBoundary:
    def test_tags_by_side(self):
        part = BoundaryPartition.from_names(
            {"left": "dirichlet", "right": "neumann",
             "bottom": "robin", "top": "robin"})
        for mesh in meshes():
            tagged = classify_boundary(mesh, part)
            for f in tagged.boundary_facets():
                mid = facet_endpoints(tagged, f).mean(axis=0)
                if mid[0] == pytest.approx(0.0):
                    assert tagged.facet_tags[f] == FacetTag.DIRICHLET
                elif mid[0] == pytest.approx(1.0):
                    assert tagged.facet_tags[f] == FacetTag.NEUMANN
                else:
                    assert tagged.facet_tags[f] == FacetTag.ROBIN
            for f in tagged.interior_facets():
                assert tagged.facet_tags[f] == FacetTag.INTERIOR
            assert tagged.facets_with_tag(FacetTag.DIRICHLET).size == mesh.ny
            assert tagged.facets_with_tag(FacetTag.ROBIN).size == 2 * mesh.nx

    def test_facets_with_tag_counts(self):
        mesh = build_rect_mesh(UNIT, 2, 2)
        part = BoundaryPartition.from_names(
            {"left": "dirichlet", "right": "neumann",
             "bottom": "robin", "top": "robin"})
        tagged = classify_boundary(mesh, part)
        assert tagged.facets_with_tag(FacetTag.DIRICHLET).size == 2
        assert tagged.facets_with_tag(FacetTag.NEUMANN).size == 2
        assert tagged.facets_with_tag(FacetTag.ROBIN).size == 4
        assert tagged.facets_with_tag(FacetTag.INTERIOR).size == 4

    def test_refinement_inherits_tags(self):
        mesh = build_rect_mesh(UNIT, 2, 2)
        part = BoundaryPartition.from_names(
            {"left": "dirichlet", "right": "neumann",
             "bottom": "robin", "top": "robin"})
        fine = refine_uniform(classify_boundary(mesh, part), part)
        assert fine.facets_with_tag(FacetTag.DIRICHLET).size == 4
        assert fine.facets_with_tag(FacetTag.ROBIN).size == 8
