"""DPG element kernels, built per group of elements.

The broken test space splits into a scalar broken-H1 component and a
vector L2 component. The L2 Riesz map is the identity, so its optimal
test functions are formed analytically from the first-order (constitutive)
equation and contribute the least-squares block A_fosls directly. Only
the broken-H1 component needs discrete Riesz inversions, done on an
enriched space of degree p + delta_p.

Test norm. Each problem weights the H1 seminorm of the test norm,
||v||^2 + eps ||grad v||^2, and the constitutive least-squares term,
eps ||grad u + a^-1 q||^2, by the same eps. The concentration step
c - dt D lap c = c_prev takes eps = dt D: with sigma = -dt j, the
first-order system is c + div sigma = c_prev, sigma + eps grad c = 0,
whose constitutive residual eps^-1 ||sigma + eps grad c||^2 equals
dt D ||grad c + j/D||^2 and whose energy scales like the Galerkin one,
||c||^2 + eps ||grad c||^2; the minimum-residual field error then tracks
the Galerkin error for every dt D (the robust reaction-diffusion norm of
Heuer & Karkulik, SINUM 2017). The potential problem keeps eps = 1.
ProblemKernels.gram is the problem's test norm; GeometryKernels.gram is
the unweighted H1 Gram, kept for trial-side measures (skeleton dual
norms, inf-sup constants) so they do not depend on the problem data.

Local trial dof order, the same on every element: field (p+1)^2, flux
x-modes p^2, flux y-modes p^2, then p trace dofs per local edge (left,
right, bottom, top). Trace columns include the edge's sign, -1 left and
bottom, +1 right and top on every element (every facet normal points
along +x or +y, see `mesh`); an edge without traces has absent dofs,
which read 0.

Groups. Elements of a uniform mesh are congruent and see the same trace
signs, so the element system depends only on Robin beta and on the
loads. `element_groups` splits the elements into those without a Robin
edge and every element with a Robin edge, whose B is stacked per
element; the kernels build, condense and evaluate one group at a time,
with the Gram, A_fosls and (outside the Robin stack) B shared by its
elements, and `DofMap.elem_dofs` gives each element's global dofs. The
coefficients are sampled and integrated once per mesh, and each group
slices the loads and Robin terms of its elements. A concentration mesh
is one group; pot-trig (Dirichlet left, Robin bottom and top) 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from dpgfem.fespace import (
    SpaceLayout,
    tabulate_facet_basis,
    tabulate_h1_basis,
    tabulate_l2_basis,
)
from dpgfem.mesh import OUTWARD, FacetTag, Mesh
from dpgfem.problems import ProblemValidationError, sample
from dpgfem.quadrature import gauss_1d, tensor_quad

# local edge order: left, right, bottom, top
_EDGE_REF = (
    lambda t: np.column_stack([np.full_like(t, -1.0), t]),
    lambda t: np.column_stack([np.full_like(t, 1.0), t]),
    lambda t: np.column_stack([t, np.full_like(t, -1.0)]),
    lambda t: np.column_stack([t, np.full_like(t, 1.0)]),
)


@dataclass
class LocalSystem:
    """Element matrices of the condensed DPG scheme for one group of
    `element_groups`, over n_trial = n_field + n_flux + 4 p columns.

    The n elements of a group share every matrix except where the
    coefficients enter: loads always, and B in the Robin stack, where beta
    varies from element to element.

    gram_inv: inverse of the enriched Gram of the problem's test norm
        (n_enr x n_enr), SPD.
    coupling: B, trial-to-enriched-test, (n_enr x n_trial) when shared by
        the group, else stacked per element (n x n_enr x n_trial).
    load: l per element (n x n_enr).
    lsq_matrix: A_fosls (n_trial x n_trial), PSD, zero on trace dofs.
    lsq_load: f_fosls per element (n x n_trial).
    res_x, res_y, res_weights: pointwise first-order residual per field and
        flux column (nq x n_field+flux) and its quadrature weights; the
        indicator squares the residual at quadrature points instead of
        expanding the quadratic form, which would cancel catastrophically
        near exact solutions.
    res_shift: u-independent residual kappa^-1 S per element (n x nq x 2),
        None when the source vanishes.
    """

    gram_inv: np.ndarray
    coupling: np.ndarray
    load: np.ndarray
    lsq_matrix: np.ndarray
    lsq_load: np.ndarray
    res_x: np.ndarray
    res_y: np.ndarray
    res_weights: np.ndarray
    res_shift: np.ndarray | None = None


class GeometryKernels:
    """Problem-independent tabulations for one element geometry dx-by-dy.

    gram/gram_inv hold the unweighted enriched H1 Gram
    int_K (r_a r_b + grad r_a . grad r_b), used for trial-side measures;
    the problem's test norm is built by test_gram(eps). n_quad Gauss points
    per direction: by default p + delta_p + 1, exact for the enriched Gram;
    the verify error measures ask for p + delta_p + 2. vol_ref, enr_val,
    field_val, flux_val, line_w (the edge rule's weights on [-1, 1]),
    enr_edge, field_edge and trace_val are the `reference_tables` of
    (layout, n_quad): shared by every geometry of the pair, and read-only.
    """

    def __init__(self, layout: SpaceLayout, dx: float, dy: float,
                 n_quad: int | None = None):
        self.layout = layout
        self.dx, self.dy = float(dx), float(dy)
        (self.vol_ref, vol_w, self.enr_val, eg, self.field_val, fg, self.flux_val,
         edge_t, self.line_w, self.enr_edge, self.field_edge, self.trace_val) = \
            reference_tables(layout, n_quad or layout.default_quad_points)

        self.wvol = vol_w * (0.25 * self.dx * self.dy)
        sx, sy = 2.0 / self.dx, 2.0 / self.dy

        self.enr_gx = sx * eg[:, :, 0]
        self.enr_gy = sy * eg[:, :, 1]
        self.field_gx = sx * fg[:, :, 0]
        self.field_gy = sy * fg[:, :, 1]

        w = self.wvol[:, None]
        # an overflowing element area leaves inf and NaN here, which the
        # Gram's Cholesky factorization reports; numpy stays quiet
        with np.errstate(over="ignore", invalid="ignore"):
            self.enr_mass = (self.enr_val * w).T @ self.enr_val
            self.enr_stiff_x = (self.enr_gx * w).T @ self.enr_gx
            self.enr_stiff_y = (self.enr_gy * w).T @ self.enr_gy
        self.gram = self.test_gram(1.0)
        self.gram_inv = spd_inverses(self.gram, f"geometry Gram (dx = {dx:g}, dy = {dy:g})")

        self.edge_t01 = 0.5 * (edge_t + 1.0)
        self.edge_w = [0.5 * L * self.line_w for L in (self.dy, self.dy, self.dx, self.dx)]
        # trace pairing int_f mu_b r_e per local edge, with the edge's sign
        self.trace_tmpl = [
            OUTWARD[k].sum() * ((self.enr_edge[k] * self.edge_w[k][:, None]).T
                                @ self.trace_val) for k in range(4)
        ]

    def test_gram(self, eps: float) -> np.ndarray:
        """Enriched Gram of the test norm ||v||^2 + eps ||grad v||^2; a sum
        that overflows is reported by `spd_inverses`."""
        with np.errstate(over="ignore", invalid="ignore"):
            return (self.enr_mass + eps * self.enr_stiff_x
                    + eps * self.enr_stiff_y)

    def vol_points(self, origin) -> np.ndarray:
        """Volume quadrature points of the elements with lower-left corners
        origin = (x0, y0): (nq, 2) for scalars, (n, nq, 2) for arrays."""
        x0, y0 = (np.asarray(c, dtype=float)[..., None] for c in origin)
        return np.stack([x0 + 0.5 * (self.vol_ref[:, 0] + 1.0) * self.dx,
                         y0 + 0.5 * (self.vol_ref[:, 1] + 1.0) * self.dy], axis=-1)

    def edge_points(self, k: int, origin) -> np.ndarray:
        """Quadrature points on local edge k, shaped as in vol_points."""
        x0, y0 = (np.asarray(c, dtype=float)[..., None] for c in origin)
        t = self.edge_t01
        if k < 2:
            x, y = x0 + k * self.dx, y0 + t * self.dy
        else:
            x, y = x0 + t * self.dx, y0 + (k - 2) * self.dy
        return np.stack(np.broadcast_arrays(x, y), axis=-1)


class SolverError(RuntimeError):
    """A numerical breakdown: a matrix that is not SPD, a solve that does
    not converge, or values that overflow."""


class ProblemKernels:
    """Adds the coefficient-dependent templates for one problem on one
    mesh, with its loads and Robin term integrated once per mesh
    (`coefficient_loads` against the enriched basis); `local_system`
    slices them by one of its `groups`, the `element_groups` of its rows.

    eps weights the test-norm seminorm and the least-squares block (see
    the module docstring); gram/gram_inv are the problem's test norm.
    """

    def __init__(self, geom: GeometryKernels, problem, mesh: Mesh):
        self.geom = geom
        layout = geom.layout
        self.n_field = layout.n_field_local
        self.n_fs = layout.n_flux_scalar
        self.n_ff = layout.n_field_local + layout.n_flux_local
        w = geom.wvol[:, None]

        if problem.kind == "concentration":
            self.coef_inv = 1.0 / problem.D
            self.trace_factor = problem.dt
            self.eps = problem.dt * problem.D
        else:
            self.coef_inv = 1.0 / problem.kappa
            self.trace_factor = 1.0
            self.eps = 1.0
        self.gram = geom.test_gram(self.eps)
        # at eps >> 1 the mass term falls below the seminorm's rounding
        self.gram_inv = geom.gram_inv if self.eps == 1.0 else spd_inverses(
            self.gram, f"test Gram (eps = dt*D = {self.eps:g})")
        # quadrature weights of the eps-weighted first-order residual
        self.res_weights = self.eps * geom.wvol

        # first-order residual components per field+flux trial column
        nq = geom.wvol.shape[0]
        Px = np.zeros((nq, self.n_ff))
        Py = np.zeros((nq, self.n_ff))
        Px[:, :self.n_field] = geom.field_gx
        Py[:, :self.n_field] = geom.field_gy
        Px[:, self.n_field:self.n_field + self.n_fs] = self.coef_inv * geom.flux_val
        Py[:, self.n_field + self.n_fs:] = self.coef_inv * geom.flux_val
        self.res_x, self.res_y = Px, Py
        rw = self.res_weights[:, None]
        # an overflowing 1/kappa or 1/(dt D) leaves inf and NaN here, which
        # assembly's non-finite-system check reports; numpy stays quiet
        with np.errstate(all="ignore"):
            self.lsq_tmpl = np.pad((Px * rw).T @ Px + (Py * rw).T @ Py, (0, 4 * layout.p))

        # B over field, flux and the traces of all four local edges
        B = np.zeros((layout.n_enriched, self.lsq_tmpl.shape[0]))
        if problem.kind == "concentration":
            B[:, :self.n_field] = (geom.enr_val * w).T @ geom.field_val
        B[:, self.n_field:self.n_field + self.n_fs] = \
            -self.trace_factor * (geom.enr_gx * w).T @ geom.flux_val
        B[:, self.n_field + self.n_fs:self.n_ff] = \
            -self.trace_factor * (geom.enr_gy * w).T @ geom.flux_val
        B[:, self.n_ff:] = self.trace_factor * np.hstack(geom.trace_tmpl)
        self.coupling = B
        self.load, (self.robin_rows, self.robin), self.source = \
            coefficient_loads(mesh, problem, geom, geom.enr_val, geom.enr_edge)
        self.groups = element_groups(self.robin_rows)

    def local_system(self, elems: np.ndarray) -> LocalSystem:
        """Build B, l, A_fosls, f_fosls for the elements elems of one group."""
        n = elems.shape[0]
        rows = self.robin_rows[elems]
        B = self.coupling
        if rows[0] >= 0:                # the Robin stack: one B per element
            B = np.repeat(B[None], n, axis=0)
            B[:, :, :self.n_field] += self.robin[rows]
        f = np.zeros((n, self.lsq_tmpl.shape[0]))
        shift = None
        if self.source is not None:
            sx, sy = (s[elems] for s in self.source)
            if np.any(sx) or np.any(sy):
                rw = self.res_weights
                # a huge source over a tiny coefficient leaves inf and NaN
                # here, which assembly reports; numpy stays quiet
                with np.errstate(over="ignore", invalid="ignore"):
                    f[:, :self.n_ff] = -self.coef_inv * ((rw * sx) @ self.res_x
                                                         + (rw * sy) @ self.res_y)
                    shift = self.coef_inv * np.stack([sx, sy], axis=-1)

        return LocalSystem(self.gram_inv, B, self.load[elems],
                           self.lsq_tmpl, f, self.res_x, self.res_y, self.res_weights, shift)


def coefficient_loads(mesh: Mesh, problem, geom: GeometryKernels,
                      test_val: np.ndarray, test_edge, test_grad=None):
    """A problem's loads and Robin term on every element of the mesh, each
    coefficient sampled once at geom's quadrature points: the volume data
    at the points of all elements in element order, then the data of each
    boundary tag a local edge carries, by local edge, with the edge's
    outward normal OUTWARD[k]. beta must be positive.

    The test basis is the enriched one for DPG, the field one for the
    Galerkin oracle: test_val and test_edge[k] tabulate it at the volume
    and edge-k points; test_grad = (gx, gy), when given, adds -(S, grad v)
    to the load (DPG's least-squares term carries S instead).

    Returns load (n_elems x m); robin = (rows, term): term stacks <beta u,
    v>_R, u in the field basis, over the elements with a Robin edge in
    ascending order (n_R x m x n_field), and rows holds each element's row
    of it, -1 without a Robin edge; and source, the sampled (Sx, Sy)
    (n_elems x nq each) of a potential problem, else None.
    """
    origin = mesh.element_origin(np.arange(mesh.n_elems))
    pts = geom.vol_points(origin)
    load = np.zeros((mesh.n_elems, test_val.shape[1]))
    source = None
    if problem.kind == "concentration":
        load += (geom.wvol * sample(problem.c_prev, pts, "c_prev")) @ test_val
    else:
        source = (sample(problem.S[0], pts, "Sx"), sample(problem.S[1], pts, "Sy"))
        if test_grad is not None:
            load -= ((geom.wvol * source[0]) @ test_grad[0]
                     + (geom.wvol * source[1]) @ test_grad[1])
    tags = mesh.facet_tags[mesh.elem_facets]
    has_robin = np.any(tags == FacetTag.ROBIN, axis=1)
    rows = np.where(has_robin, np.cumsum(has_robin) - 1, -1)
    term = np.zeros((np.count_nonzero(has_robin), test_val.shape[1],
                     geom.field_edge[0].shape[1]))
    betas = []
    for k in range(4):
        w = geom.edge_w[k]
        for tag in (FacetTag.DIRICHLET, FacetTag.NEUMANN, FacetTag.ROBIN):
            elems = np.flatnonzero(tags[:, k] == tag)
            if not elems.size:
                continue
            epts = geom.edge_points(k, (origin[0][elems], origin[1][elems]))
            if problem.kind == "concentration":
                J = sample(problem.J, epts, "J", OUTWARD[k])
                load[elems] -= problem.dt * ((w * J) @ test_edge[k])
            elif tag == FacetTag.ROBIN:
                betas.append(sample(problem.beta, epts, "beta"))
                R = sample(problem.R, epts, "R", OUTWARD[k])
                term[rows[elems]] += ((test_edge[k].T * (w * betas[-1])[:, None, :])
                                      @ geom.field_edge[k])
                load[elems] -= (w * R) @ test_edge[k]
            elif tag == FacetTag.NEUMANN:
                load[elems] -= (w * sample(problem.I, epts, "I", OUTWARD[k])) @ test_edge[k]
    if not all(np.all(beta > 0) for beta in betas):
        raise ProblemValidationError([
            "beta not positive on Gamma_R at the assembly's quadrature "
            f"points (min sampled value {min(b.min() for b in betas):g})"])
    return load, (rows, term), source


def element_groups(robin_rows: np.ndarray) -> list:
    """The elements without a Robin edge (robin_rows -1, `coefficient_loads`),
    then those with one, each ascending and only when there are any."""
    return [elems for elems in (np.flatnonzero(robin_rows < 0), np.flatnonzero(robin_rows >= 0))
            if elems.size]


@lru_cache(maxsize=32)
def reference_tables(layout: SpaceLayout, n_quad: int) -> tuple:
    """Bases of a layout on the reference element at n_quad Gauss points
    per direction: the volume rule's points and weights; the enriched and
    the field H1 values and reference gradients, and the flux modes, at
    its points; the edge rule's points and weights; the enriched and the
    field H1 values on each local edge (4-tuples); the trace basis. Built
    once per (layout, n_quad) and shared, so every array is read-only."""
    vol, line = tensor_quad(n_quad), gauss_1d(n_quad)
    q, p = layout.enriched_degree, layout.p
    edges = [_EDGE_REF[k](line.points) for k in range(4)]
    tables = (vol.points, vol.weights, *tabulate_h1_basis(q, vol.points),
              *tabulate_h1_basis(p, vol.points), tabulate_l2_basis(p - 1, vol.points),
              line.points, line.weights,
              tuple(tabulate_h1_basis(q, c)[0] for c in edges),
              tuple(tabulate_h1_basis(p, c)[0] for c in edges),
              tabulate_facet_basis(p - 1, line.points))
    for table in tables:
        for a in table if isinstance(table, tuple) else (table,):
            a.setflags(write=False)
    return tables


@lru_cache(maxsize=32)
def geometry_kernels(layout: SpaceLayout, dx: float, dy: float,
                     n_quad: int | None = None) -> GeometryKernels:
    return GeometryKernels(layout, dx, dy, n_quad)


def cholesky(A: np.ndarray, what: str) -> np.ndarray:
    """np.linalg.cholesky of an SPD matrix, or of a stack of them. Raises
    SolverError naming `what` when one is not positive definite or has inf
    or NaN entries (numpy alone factors some of them quietly)."""
    try:
        if not np.isfinite(A).all():
            raise np.linalg.LinAlgError("array must not contain infs or NaNs")
        return np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"not SPD / no convergence: {what}: {exc}") from None


def spd_inverses(blocks: np.ndarray, what: str) -> np.ndarray:
    """Inverses L^-T L^-1 of an SPD matrix, or of a stack of them, from
    their `cholesky` factors L. In a stack each L becomes L^-1 by forward
    substitution across the whole stack, row by row, which beats one
    LAPACK call per small block."""
    L = cholesky(blocks, what)
    if L.ndim == 2:
        L = np.linalg.inv(L)
    else:
        for i in range(L.shape[-1]):
            # rows < i of L already hold L^-1
            row = -np.einsum("bk,bkj->bj", L[:, i, :i], L[:, :i])
            row[:, i] += 1.0
            L[:, i] = row / L[:, i, i, None]
    return np.swapaxes(L, -1, -2) @ L


def condense_local(ls: LocalSystem):
    """Stiffness S_K = A + B^T G^-1 B and load rhs_K = f + B^T G^-1 l of
    every element of a group.

    S is (n_trial x n_trial) when the group shares B, else (n x n_trial x
    n_trial); rhs is (n x n_trial). Data near the overflow threshold can
    leave inf or NaN entries, which the caller reports; numpy stays quiet.
    """
    B = ls.coupling
    with np.errstate(over="ignore", invalid="ignore"):
        # in place where it can: a Robin stack holds n of each matrix
        S = np.swapaxes(B, -1, -2) @ (ls.gram_inv @ B)
        S += ls.lsq_matrix
        S = S + np.swapaxes(S, -1, -2)
        S *= 0.5
        y = ls.load @ ls.gram_inv
        rhs = ls.lsq_load + (y[:, None, :] @ B)[:, 0]
    return S, rhs


def error_indicator(ls: LocalSystem, u: np.ndarray) -> np.ndarray:
    """Squared residual parts (eta_sq_riesz, eta_sq_fosls) of every element
    of a group at trial coefficients u (n x n_trial); returns (n x 2)."""
    r = ls.load - (ls.coupling @ u[:, :, None])[:, :, 0]
    eta_riesz = np.sum(r * (r @ ls.gram_inv), axis=1)
    uf = u[:, :ls.res_x.shape[1]]
    rx = uf @ ls.res_x.T
    ry = uf @ ls.res_y.T
    if ls.res_shift is not None:
        rx += ls.res_shift[:, :, 0]
        ry += ls.res_shift[:, :, 1]
    eta_fosls = (rx * rx + ry * ry) @ ls.res_weights
    return np.maximum(np.column_stack([eta_riesz, eta_fosls]), 0.0)
