"""Structured meshes of axis-aligned rectangles with tagged boundary facets.

Element (i, j) has index j*nx + i. Facets are stored explicitly with a
single global unit normal each: on interior facets the normal points from
the incident element of lower index to the one of higher index, on
boundary facets it points out of the domain. A mesh is immutable after
construction and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import IntEnum

import numpy as np


class FacetTag(IntEnum):
    INTERIOR = 0
    DIRICHLET = 1
    NEUMANN = 2
    ROBIN = 3


SIDES = ("left", "right", "bottom", "top")

_TAG_FROM_NAME = {
    "dirichlet": FacetTag.DIRICHLET,
    "neumann": FacetTag.NEUMANN,
    "robin": FacetTag.ROBIN,
}


class InvalidPartitionError(ValueError):
    pass


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned domain (x0, x1) x (y0, y1)."""

    x0: float = 0.0
    x1: float = 1.0
    y0: float = 0.0
    y1: float = 1.0

    def __post_init__(self):
        if not (self.x1 > self.x0 and self.y1 > self.y0):
            raise ValueError("degenerate rectangle: need x1 > x0 and y1 > y0")
        if not (self.width < np.inf and self.height < np.inf):
            raise ValueError(f"rectangle too large: its width ({self.width:g}) and "
                             f"height ({self.height:g}) must be finite")

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0


@dataclass(frozen=True)
class BoundaryPartition:
    """Boundary tag per side of the rectangle.

    Sides carry exactly one tag each. `classify_boundary` copies the tags
    onto the boundary facets, and the mesh keeps no other record of them;
    `problems.validate_problem` checks those facet tags against the
    problem (concentration: every side Neumann; potential: non-empty
    Neumann and Robin parts, the Dirichlet part may be empty).
    """

    left: FacetTag = FacetTag.NEUMANN
    right: FacetTag = FacetTag.NEUMANN
    bottom: FacetTag = FacetTag.NEUMANN
    top: FacetTag = FacetTag.NEUMANN

    @classmethod
    def from_names(cls, names: dict) -> "BoundaryPartition":
        tags = {}
        for side, name in names.items():
            if side not in SIDES:
                raise InvalidPartitionError(f"invalid partition: unknown side {side!r}")
            key = str(name).lower()
            if key not in _TAG_FROM_NAME:
                raise InvalidPartitionError(
                    f"invalid partition: unknown boundary tag {name!r} on side {side!r}"
                )
            tags[side] = _TAG_FROM_NAME[key]
        return cls(**tags)


@dataclass(eq=False)
class Mesh:
    """Structured rectangle mesh; see module docstring for conventions."""

    domain: Rectangle
    nx: int
    ny: int
    vertices: np.ndarray          # (n_vertices, 2)
    elem_verts: np.ndarray        # (n_elems, 4) counterclockwise from lower-left
    facet_verts: np.ndarray       # (n_facets, 2) vertex ids
    facet_normals: np.ndarray     # (n_facets, 2) global unit normal
    facet_elems: np.ndarray       # (n_facets, 2) incident elements, -1 if absent
    facet_tags: np.ndarray        # (n_facets,) FacetTag values
    elem_facets: np.ndarray       # (n_elems, 4) facet id per local edge L,R,B,T
    elem_facet_signs: np.ndarray  # (n_elems, 4) +1 if global normal is outward

    @property
    def n_elems(self) -> int:
        return self.nx * self.ny

    @property
    def n_facets(self) -> int:
        return self.facet_verts.shape[0]

    @property
    def dx(self) -> float:
        return self.domain.width / self.nx

    @property
    def dy(self) -> float:
        return self.domain.height / self.ny

    @property
    def h_max(self) -> float:
        return float(np.hypot(self.dx, self.dy))

    def element_origin(self, e):
        """Lower-left corner (x0, y0) of element e, or arrays of them for
        an array of element ids."""
        i, j = e % self.nx, e // self.nx
        return (self.domain.x0 + i * self.dx, self.domain.y0 + j * self.dy)

    def interior_facets(self) -> np.ndarray:
        return np.flatnonzero(self.facet_elems[:, 1] >= 0)

    def boundary_facets(self) -> np.ndarray:
        return np.flatnonzero(self.facet_elems[:, 1] < 0)

    def facets_with_tag(self, tag: FacetTag) -> np.ndarray:
        return np.flatnonzero(self.facet_tags == int(tag))


def build_rect_mesh(domain: Rectangle, nx: int, ny: int) -> Mesh:
    """Uniform nx-by-ny mesh of the rectangle; boundary facets tagged Neumann."""
    if nx < 1 or ny < 1:
        raise ValueError("need at least one element per direction")
    dx = domain.width / nx
    dy = domain.height / ny

    xs = domain.x0 + dx * np.arange(nx + 1)
    ys = domain.y0 + dy * np.arange(ny + 1)
    X, Y = np.meshgrid(xs, ys)                 # row-major, vertex v = j*(nx+1)+i
    vertices = np.column_stack([X.ravel(), Y.ravel()])

    # element e = j*nx + i; its lower-left vertex and its left facet have id v0
    e = np.arange(nx * ny)
    i, j = e % nx, e // nx
    v0 = j * (nx + 1) + i
    elem_verts = v0[:, None] + np.array([0, 1, nx + 2, nx + 1])

    # vertical facets first (constant x, id = vertex id of the lower end),
    # then horizontal (constant y, id = n_vert + j*nx + i)
    n_vert = (nx + 1) * ny
    n_horz = nx * (ny + 1)
    n_facets = n_vert + n_horz
    jv, iv = np.divmod(np.arange(n_vert), nx + 1)
    jh, ih = np.divmod(np.arange(n_horz), nx)
    facet_verts = np.concatenate([np.arange(n_vert)[:, None] + np.array([0, nx + 1]),
                                  (jh * (nx + 1) + ih)[:, None] + np.array([0, 1])])
    # lower element index first; the second is -1 on the domain boundary,
    # whose normals point out of the domain
    lower = np.concatenate([jv * nx + np.maximum(iv - 1, 0),
                            np.maximum(jh - 1, 0) * nx + ih])
    upper = np.concatenate([np.where((iv > 0) & (iv < nx), jv * nx + iv, -1),
                            np.where((jh > 0) & (jh < ny), jh * nx + ih, -1)])
    facet_elems = np.column_stack([lower, upper])
    facet_normals = np.zeros((n_facets, 2))
    facet_normals[:n_vert, 0] = np.where(iv == 0, -1.0, 1.0)
    facet_normals[n_vert:, 1] = np.where(jh == 0, -1.0, 1.0)
    facet_tags = np.where(upper < 0, int(FacetTag.NEUMANN), int(FacetTag.INTERIOR))

    elem_facets = np.column_stack([v0, v0 + 1, n_vert + e, n_vert + e + nx])
    outward = np.array([(-1.0, 0.0), (1.0, 0.0), (0.0, -1.0), (0.0, 1.0)])
    elem_facet_signs = np.where((facet_normals[elem_facets] * outward).sum(axis=2) > 0,
                                1.0, -1.0)

    return Mesh(domain, nx, ny, vertices, elem_verts, facet_verts, facet_normals,
                facet_elems, facet_tags, elem_facets, elem_facet_signs)


def classify_boundary(mesh: Mesh, partition: BoundaryPartition) -> Mesh:
    """New mesh with boundary facets tagged per side of the partition."""
    tags = mesh.facet_tags.copy()
    bnd = mesh.boundary_facets()
    n = mesh.facet_normals[bnd]
    tags[bnd] = np.select([n[:, 0] < -0.5, n[:, 0] > 0.5, n[:, 1] < -0.5],
                          [partition.left, partition.right, partition.bottom],
                          partition.top)
    return replace(mesh, facet_tags=tags)

