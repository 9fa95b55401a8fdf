"""Lagrange bases on Gauss-Lobatto nodes and global dof numbering.

Trial spaces per element: globally continuous scalar field of degree p,
element-local vector flux of degree p-1 per component, and facet traces
of degree p-1 on active facets. The enriched test space is a broken
scalar space of degree p + delta_p.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from dpgfem.mesh import OUTWARD

MAX_DEGREE = 10


@lru_cache(maxsize=None)
def gauss_lobatto_nodes(degree: int) -> np.ndarray:
    """Nodes in [-1, 1] of the degree-`degree` Lobatto family (degree+1 points).

    Degree 0 degenerates to the single midpoint node. Computed once per
    degree and shared, so the array is read-only.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if degree == 0:
        nodes = np.array([0.0])
    elif degree == 1:
        nodes = np.array([-1.0, 1.0])
    else:
        coeffs = np.zeros(degree + 1)
        coeffs[degree] = 1.0
        interior = np.polynomial.legendre.legroots(np.polynomial.legendre.legder(coeffs))
        nodes = np.concatenate([[-1.0], np.sort(np.real(interior)), [1.0]])
    nodes.setflags(write=False)
    return nodes


def lagrange_1d(nodes: np.ndarray, x: np.ndarray, deriv: bool = False):
    """Values (and optionally derivatives) of the nodal Lagrange basis at x.

    Returns (npts, nnodes) arrays. The product formula is used directly,
    which is exact and stable for the small degrees supported here.
    """
    nodes = np.asarray(nodes, dtype=float)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = nodes.shape[0]
    vals = np.ones((x.shape[0], n))
    for i in range(n):
        for j in range(n):
            if j != i:
                vals[:, i] *= (x - nodes[j]) / (nodes[i] - nodes[j])
    if not deriv:
        return vals
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


def _tensor(fx: np.ndarray, fy: np.ndarray) -> np.ndarray:
    """Products fx[:, ix] * fy[:, iy] of two (npts, n1) tables, column
    iy*n1 + ix."""
    return (fy[:, :, None] * fx[:, None, :]).reshape(fx.shape[0], -1)


def _axis_tables(degree: int, points: np.ndarray, deriv: bool) -> list:
    """`lagrange_1d` of the degree's Lobatto nodes at the x and at the y
    coordinates of points (npts, 2), from one call on their distinct values:
    [(vx, vy)], or with deriv [(vx, vy), (dx, dy)]."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    coords, where = np.unique(pts, return_inverse=True)
    tables = lagrange_1d(gauss_lobatto_nodes(degree), coords, deriv)
    where = where.reshape(pts.shape)
    return [(t[where[:, 0]], t[where[:, 1]]) for t in (tables if deriv else (tables,))]


def tabulate_h1_basis(p: int, points: np.ndarray):
    """Tensor Lagrange basis of degree p on [-1,1]^2 at reference points.

    Returns (values, grads) with shapes (npts, (p+1)^2) and
    (npts, (p+1)^2, 2); gradients are in reference coordinates. Local dof
    a = iy*(p+1) + ix corresponds to the node (ix, iy) of the lattice.
    """
    if not 1 <= p <= MAX_DEGREE:
        raise ValueError(f"field degree {p} outside supported range [1, {MAX_DEGREE}]")
    (vx, vy), (dx, dy) = _axis_tables(p, points, deriv=True)
    return _tensor(vx, vy), np.stack([_tensor(dx, vy), _tensor(vx, dy)], axis=-1)


def tabulate_l2_basis(degree: int, points: np.ndarray) -> np.ndarray:
    """Scalar modes of the element-local space of degree `degree`.

    Returns (npts, (degree+1)^2). The vector flux basis consists of these
    modes per Cartesian component, x-component block first.
    """
    if not 0 <= degree <= MAX_DEGREE:
        raise ValueError(f"flux degree {degree} outside supported range [0, {MAX_DEGREE}]")
    [(vx, vy)] = _axis_tables(degree, points, deriv=False)
    return _tensor(vx, vy)


def tabulate_facet_basis(degree: int, t: np.ndarray) -> np.ndarray:
    """Facet polynomial basis of degree `degree` at 1d reference points t."""
    if not 0 <= degree <= MAX_DEGREE:
        raise ValueError(f"trace degree {degree} outside supported range [0, {MAX_DEGREE}]")
    return lagrange_1d(gauss_lobatto_nodes(degree), np.atleast_1d(t))


@dataclass(frozen=True)
class SpaceLayout:
    """Polynomial degrees of the trial and enriched test spaces."""

    p: int
    delta_p: int = 1

    def __post_init__(self):
        if not 1 <= self.p <= MAX_DEGREE:
            raise ValueError(f"field degree {self.p} outside supported range [1, {MAX_DEGREE}]")
        if self.delta_p < 1:
            raise ValueError("test enrichment delta_p must be >= 1")
        if self.p + self.delta_p > MAX_DEGREE:
            raise ValueError(f"enriched degree {self.p + self.delta_p} exceeds {MAX_DEGREE}")

    @property
    def n_field_local(self) -> int:
        return (self.p + 1) ** 2

    @property
    def n_flux_scalar(self) -> int:
        return self.p ** 2

    @property
    def n_flux_local(self) -> int:
        return 2 * self.p ** 2

    @property
    def enriched_degree(self) -> int:
        return self.p + self.delta_p

    @property
    def n_enriched(self) -> int:
        return (self.enriched_degree + 1) ** 2

    @property
    def default_quad_points(self) -> int:
        # exact for every bilinear-form integrand appearing in the kernels
        return self.p + self.delta_p + 1


class DofMap:
    """Global numbering: field block, then flux block, then trace block.

    Field dofs live on the (nx*p+1) x (ny*p+1) lattice; flux dofs are
    element-local (2 p^2 per element); trace dofs take p slots per active
    facet, ordered by ascending facet id.

    elem_dofs (n_elems x n_field + n_flux + 4 p, read-only) is every
    element's global dofs in the local trial order: field, flux, then p
    trace dofs per local edge, -1 on an edge without traces; elem_field is
    its field block.
    """

    def __init__(self, mesh, layout: SpaceLayout, active_facets: np.ndarray):
        self.mesh = mesh
        self.layout = layout
        p = layout.p
        nxp = mesh.nx * p + 1
        nyp = mesh.ny * p + 1
        self.n_field = nxp * nyp
        self.n_flux = layout.n_flux_local * mesh.n_elems
        self.active_facets = np.sort(np.asarray(active_facets, dtype=np.int64))
        self.n_trace = p * self.active_facets.shape[0]
        self.n_total = self.n_field + self.n_flux + self.n_trace
        self.trace_offset = self.n_field + self.n_flux

        self.facet_slot = np.full(mesh.n_facets, -1, dtype=np.int64)
        self.facet_slot[self.active_facets] = np.arange(self.active_facets.shape[0])

        # element (i, j) owns the lattice block of rows j*p.. and columns
        # i*p..; local dof iy*(p+1) + ix sits at row j*p + iy, column i*p + ix
        e = np.arange(mesh.n_elems)
        corner = (e // mesh.nx) * p * nxp + (e % mesh.nx) * p
        block = np.arange(p + 1)[:, None] * nxp + np.arange(p + 1)
        n_flux = layout.n_flux_local
        slots = self.facet_slot[mesh.elem_facets][:, :, None]
        trace = np.where(slots >= 0, self.trace_offset + slots * p + np.arange(p), -1)
        self.elem_dofs = np.hstack([corner[:, None] + block.ravel(),
                                    self.n_field + e[:, None] * n_flux + np.arange(n_flux),
                                    trace.reshape(mesh.n_elems, -1)])
        self.elem_dofs.setflags(write=False)
        self.elem_field = self.elem_dofs[:, :layout.n_field_local]

    def field_lattice_shape(self) -> tuple[int, int]:
        p = self.layout.p
        return (self.mesh.nx * p + 1, self.mesh.ny * p + 1)

    def element_active_edges(self, e: int):
        """(local edge, facet id, sign) for each active facet of element e;
        the sign of local edge k is the same on every element (`mesh`)."""
        out = []
        for k in range(4):
            f = int(self.mesh.elem_facets[e, k])
            if self.facet_slot[f] >= 0:
                out.append((k, f, float(OUTWARD[k].sum())))
        return out

    def element_dofs(self, e: int) -> np.ndarray:
        """Row e of elem_dofs."""
        return self.elem_dofs[e]


def build_dofmap(mesh, layout: SpaceLayout, active_facets: np.ndarray) -> DofMap:
    return DofMap(mesh, layout, active_facets)
