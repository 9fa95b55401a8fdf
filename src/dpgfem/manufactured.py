"""Built-in manufactured solutions with hand-derived fluxes and data.

Each case writes out by hand closures for the field, its gradient, the
flux and (concentration) the flux divergence; the gradient/flux pairs are
not composed from each other, which lets tests cross-check the algebra
pointwise. One constructor per problem kind derives the problem data from
them, so the catalog entries solve their BVPs exactly: c_prev = c + dt
div j and J = j.n for the concentration step; I = i.n, R = i.n - beta phi
and div i = 0 for the potential problem. The closures use numpy, so each
takes coordinate arrays as well as scalars and works elementwise; a
constant part is returned as a scalar, for the caller to broadcast (as
problems.sample does).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

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
        return _normal_flux(self.exact_flux, x, y, nx, ny)


def _normal_flux(flux, x, y, nx, ny):
    fx, fy = flux(x, y)
    return fx * nx + fy * ny


def _concentration_case(name, D, dt, c, grad, flux, flux_div,
                        poly_degree) -> ManufacturedCase:
    def c_prev(x, y):
        return c(x, y) + dt * flux_div(x, y)

    return ManufacturedCase(
        name, UNIT_SQUARE, ALL_NEUMANN,
        ConcentrationProblem(D=D, dt=dt, c_prev=c_prev, J=partial(_normal_flux, flux)),
        c, grad, flux, flux_div, poly_degree)


def _potential_case(name, kappa, beta, S, phi, grad, flux,
                    poly_degree) -> ManufacturedCase:
    def robin(x, y, nx, ny):
        return _normal_flux(flux, x, y, nx, ny) - beta(x, y) * phi(x, y)

    return ManufacturedCase(
        name, UNIT_SQUARE, POTENTIAL_PARTITION,
        PotentialProblem(kappa=kappa, beta=beta, S=S, I=partial(_normal_flux, flux),
                         R=robin),
        phi, grad, flux, lambda x, y: 0.0, poly_degree)


def _conc_poly2() -> ManufacturedCase:
    def c(x, y):
        return x * x

    def grad(x, y):
        return (2.0 * x, 0.0)

    def flux(x, y):
        return (-2.0 * x, 0.0)

    def flux_div(x, y):
        return -2.0

    return _concentration_case("conc-poly2", 1.0, 1.0, c, grad, flux, flux_div,
                               poly_degree=2)


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

    return _concentration_case("conc-trig", D, dt, c, grad, flux, flux_div,
                               poly_degree=None)


def _pot_poly2() -> ManufacturedCase:
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

    def beta(x, y):
        return 1.0

    return _potential_case("pot-poly2", 1.0, beta, (source_x, source_y),
                           phi, grad, flux, poly_degree=2)


def _pot_trig() -> ManufacturedCase:
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

    def beta(x, y):
        return 1.0 + 0.5 * x

    return _potential_case("pot-trig", 1.0, beta, (source_x, source_y),
                           phi, grad, flux, poly_degree=None)


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
