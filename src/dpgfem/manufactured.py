"""Built-in manufactured solutions with hand-derived fluxes and data.

Each case carries independent closures for the field, its gradient, the
flux, and the flux divergence; boundary and volume data are derived from
those closures, so the catalog entries solve their BVPs exactly. The
gradient/flux pairs are written out by hand (not composed from each
other), which lets tests cross-check the algebra pointwise. The closures
use numpy, so each takes coordinate arrays as well as scalars and works
elementwise; a constant part is returned as a scalar, for the caller to
broadcast (as problems.sample does).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dpgfem.mesh import BoundaryPartition, FacetTag, Rectangle
from dpgfem.problems import ConcentrationProblem, PotentialProblem

UNIT_SQUARE = Rectangle(0.0, 1.0, 0.0, 1.0)

ALL_NEUMANN = BoundaryPartition()

# reference potential partition: x=0 Dirichlet, x=1 Neumann, y-sides Robin
POTENTIAL_PARTITION = BoundaryPartition(
    left=FacetTag.DIRICHLET,
    right=FacetTag.NEUMANN,
    bottom=FacetTag.ROBIN,
    top=FacetTag.ROBIN,
)


@dataclass(frozen=True, eq=False)
class ManufacturedCase:
    name: str
    domain: Rectangle
    partition: BoundaryPartition
    problem: object
    # (x, y) scalars or arrays -> values of the same shape, or scalars
    exact_field: object            # (x, y) -> value
    exact_grad: object             # (x, y) -> (gx, gy)
    exact_flux: object             # (x, y) -> (fx, fy); j or i
    exact_flux_div: object         # (x, y) -> div of the flux
    poly_degree: int | None        # None for non-polynomial fields

    def exact_normal_flux(self, x, y, nx, ny):
        fx, fy = self.exact_flux(x, y)
        return fx * nx + fy * ny


def _conc_poly2() -> ManufacturedCase:
    D, dt = 1.0, 1.0

    def c(x, y):
        return x * x

    def grad(x, y):
        return (2.0 * x, 0.0)

    def flux(x, y):
        return (-2.0 * x, 0.0)

    def flux_div(x, y):
        return -2.0

    def c_prev(x, y):
        return c(x, y) + dt * flux_div(x, y)

    def bflux(x, y, nx, ny):
        fx, fy = flux(x, y)
        return fx * nx + fy * ny

    return ManufacturedCase(
        "conc-poly2", UNIT_SQUARE, ALL_NEUMANN,
        ConcentrationProblem(D=D, dt=dt, c_prev=c_prev, J=bflux),
        c, grad, flux, flux_div, poly_degree=2)


def _conc_trig() -> ManufacturedCase:
    D, dt = 0.5, 0.1
    pi = np.pi

    def c(x, y):
        return np.cos(pi * x) * np.cos(pi * y)

    def grad(x, y):
        return (-pi * np.sin(pi * x) * np.cos(pi * y),
                -pi * np.cos(pi * x) * np.sin(pi * y))

    def flux(x, y):
        return (D * pi * np.sin(pi * x) * np.cos(pi * y),
                D * pi * np.cos(pi * x) * np.sin(pi * y))

    def flux_div(x, y):
        return 2.0 * D * pi * pi * np.cos(pi * x) * np.cos(pi * y)

    def c_prev(x, y):
        return c(x, y) + dt * flux_div(x, y)

    def bflux(x, y, nx, ny):
        fx, fy = flux(x, y)
        return fx * nx + fy * ny

    return ManufacturedCase(
        "conc-trig", UNIT_SQUARE, ALL_NEUMANN,
        ConcentrationProblem(D=D, dt=dt, c_prev=c_prev, J=bflux),
        c, grad, flux, flux_div, poly_degree=None)


def _pot_poly2() -> ManufacturedCase:
    kappa = 1.0

    def phi(x, y):
        return x * (1.0 - x)

    def grad(x, y):
        return (1.0 - 2.0 * x, 0.0)

    def source_x(x, y):
        return 2.0 * x

    def source_y(x, y):
        return 0.0

    def flux(x, y):
        return (-1.0, 0.0)

    def flux_div(x, y):
        return 0.0

    def beta(x, y):
        return 1.0

    def neumann(x, y, nx, ny):
        fx, fy = flux(x, y)
        return fx * nx + fy * ny

    def robin(x, y, nx, ny):
        fx, fy = flux(x, y)
        return fx * nx + fy * ny - beta(x, y) * phi(x, y)

    return ManufacturedCase(
        "pot-poly2", UNIT_SQUARE, POTENTIAL_PARTITION,
        PotentialProblem(kappa=kappa, beta=beta, S=(source_x, source_y),
                         I=neumann, R=robin),
        phi, grad, flux, flux_div, poly_degree=2)


def _pot_trig() -> ManufacturedCase:
    kappa = 1.0
    pi = np.pi

    def phi(x, y):
        return np.sin(pi * x) * np.sin(0.5 * pi * y)

    def grad(x, y):
        return (pi * np.cos(pi * x) * np.sin(0.5 * pi * y),
                0.5 * pi * np.sin(pi * x) * np.cos(0.5 * pi * y))

    def source_x(x, y):
        return -1.25 * pi * np.cos(pi * x) * np.sin(0.5 * pi * y)

    def source_y(x, y):
        return 0.0

    def flux(x, y):
        return (0.25 * pi * np.cos(pi * x) * np.sin(0.5 * pi * y),
                -0.5 * pi * np.sin(pi * x) * np.cos(0.5 * pi * y))

    def flux_div(x, y):
        return 0.0

    def beta(x, y):
        return 1.0 + 0.5 * x

    def neumann(x, y, nx, ny):
        fx, fy = flux(x, y)
        return fx * nx + fy * ny

    def robin(x, y, nx, ny):
        fx, fy = flux(x, y)
        return fx * nx + fy * ny - beta(x, y) * phi(x, y)

    return ManufacturedCase(
        "pot-trig", UNIT_SQUARE, POTENTIAL_PARTITION,
        PotentialProblem(kappa=kappa, beta=beta, S=(source_x, source_y),
                         I=neumann, R=robin),
        phi, grad, flux, flux_div, poly_degree=None)


_CASES = {
    "conc-poly2": _conc_poly2,
    "conc-trig": _conc_trig,
    "pot-poly2": _pot_poly2,
    "pot-trig": _pot_trig,
}

CASE_NAMES = tuple(sorted(_CASES))


def manufactured_case(name: str) -> ManufacturedCase:
    # a tuple's membership test compares, so an unhashable name is unknown
    if name not in CASE_NAMES:
        raise ValueError(f"unknown manufactured case {name!r}; "
                         f"available: {', '.join(CASE_NAMES)}")
    return _CASES[name]()
