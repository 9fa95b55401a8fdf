"""Built-in manufactured solutions checked against an independent symbolic
derivation of every load (sympy differentiates the exact fields; the
package's loads were derived by hand)."""

import math

import numpy as np
import pytest
import sympy as sp

from dpgfem.manufactured import (
    CASE_NAMES,
    ManufacturedCase,
    manufactured_case,
)
from dpgfem.mesh import FacetTag


# -- frozen reference: the pointwise check of the first-order system, which
# only these tests use

def strong_form_residual(case, x: float, y: float) -> float:
    """Largest pointwise residual of the first-order system at (x, y)."""
    prob = case.problem
    fx, fy = case.exact_flux(x, y)
    gx, gy = case.exact_grad(x, y)
    if case.problem.kind == "concentration":
        balance = (case.exact_field(x, y) + prob.dt * case.exact_flux_div(x, y)
                   - prob.c_prev(x, y))
        rx = fx / prob.D + gx
        ry = fy / prob.D + gy
    else:
        balance = case.exact_flux_div(x, y)
        sx, sy = prob.S[0](x, y), prob.S[1](x, y)
        rx = fx / prob.kappa + gx + sx / prob.kappa
        ry = fy / prob.kappa + gy + sy / prob.kappa
    return max(abs(balance), abs(rx), abs(ry))


RNG = np.random.default_rng(424242)

X, Y = sp.symbols("x y", real=True)

# exact fields restated symbolically, independent of the package closures
SYMBOLIC_FIELDS = {
    "conc-poly2": X**2,
    "conc-trig": sp.cos(sp.pi * X) * sp.cos(sp.pi * Y),
    "pot-poly2": X * (1 - X),
    "pot-trig": sp.sin(sp.pi * X) * sp.sin(sp.pi * Y / 2),
}

DIFFUSIVITY = {"conc-poly2": 1.0, "conc-trig": 0.5}


def _sample_points(n=50):
    return RNG.uniform(0.0, 1.0, size=(n, 2))


class TestCatalog:
    def test_names(self):
        assert CASE_NAMES == ("conc-poly2", "conc-trig",
                              "pot-poly2", "pot-trig")

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown manufactured case"):
            manufactured_case("conc-cubic")

    @pytest.mark.parametrize("name", CASE_NAMES)
    def test_returns_case(self, name):
        case = manufactured_case(name)
        assert isinstance(case, ManufacturedCase)
        assert case.name == name

    def test_polynomial_degrees(self):
        assert manufactured_case("conc-poly2").poly_degree == 2
        assert manufactured_case("pot-poly2").poly_degree == 2
        assert manufactured_case("conc-trig").poly_degree is None
        assert manufactured_case("pot-trig").poly_degree is None


class TestStrongFormResidual:
    def test_conc_poly2_at_reference_point(self):
        case = manufactured_case("conc-poly2")
        # c + dt*div j - c_prev = x^2 - (x^2 - 2) - 2 = 0
        assert strong_form_residual(case, 0.3, 0.7) <= 1e-12

    @pytest.mark.parametrize("name", CASE_NAMES)
    def test_vanishes_at_50_random_points(self, name):
        case = manufactured_case(name)
        for x, y in _sample_points(50):
            assert strong_form_residual(case, x, y) <= 1e-10


class TestAgainstSymbolicDerivation:
    @pytest.mark.parametrize("name", CASE_NAMES)
    def test_gradient(self, name):
        case = manufactured_case(name)
        u = SYMBOLIC_FIELDS[name]
        gx = sp.lambdify((X, Y), sp.diff(u, X), "math")
        gy = sp.lambdify((X, Y), sp.diff(u, Y), "math")
        for x, y in _sample_points(20):
            got = case.exact_grad(x, y)
            assert got[0] == pytest.approx(gx(x, y), abs=1e-12)
            assert got[1] == pytest.approx(gy(x, y), abs=1e-12)

    @pytest.mark.parametrize("name", ["conc-poly2", "conc-trig"])
    def test_concentration_flux_and_previous_state(self, name):
        case = manufactured_case(name)
        D = DIFFUSIVITY[name]
        dt = case.problem.dt
        u = SYMBOLIC_FIELDS[name]
        jx_s, jy_s = -D * sp.diff(u, X), -D * sp.diff(u, Y)
        div_s = sp.diff(jx_s, X) + sp.diff(jy_s, Y)
        cprev_s = sp.lambdify((X, Y), u + dt * div_s, "math")
        jx = sp.lambdify((X, Y), jx_s, "math")
        jy = sp.lambdify((X, Y), jy_s, "math")
        for x, y in _sample_points(20):
            fx, fy = case.exact_flux(x, y)
            assert fx == pytest.approx(jx(x, y), abs=1e-12)
            assert fy == pytest.approx(jy(x, y), abs=1e-12)
            assert case.problem.c_prev(x, y) == pytest.approx(
                cprev_s(x, y), abs=1e-12)

    @pytest.mark.parametrize("name", ["pot-poly2", "pot-trig"])
    def test_potential_flux_is_divergence_free(self, name):
        case = manufactured_case(name)
        u = SYMBOLIC_FIELDS[name]
        # constitutive law: i = -kappa*grad(phi) - S, manufactured with div i = 0
        sx = sp.lambdify((X, Y), sp.diff(u, X), "math")
        sy = sp.lambdify((X, Y), sp.diff(u, Y), "math")
        for x, y in _sample_points(20):
            fx, fy = case.exact_flux(x, y)
            gx, gy = case.exact_grad(x, y)
            prob_sx = case.problem.S[0](x, y)
            prob_sy = case.problem.S[1](x, y)
            kappa = case.problem.kappa
            assert fx == pytest.approx(-kappa * gx - prob_sx, abs=1e-12)
            assert fy == pytest.approx(-kappa * gy - prob_sy, abs=1e-12)
            assert case.exact_flux_div(x, y) == pytest.approx(0.0, abs=1e-12)
            assert gx == pytest.approx(sx(x, y), abs=1e-12)
            assert gy == pytest.approx(sy(x, y), abs=1e-12)

    @pytest.mark.parametrize("name", ["pot-poly2", "pot-trig"])
    def test_potential_flux_divergence_symbolically(self, name):
        case = manufactured_case(name)
        u = SYMBOLIC_FIELDS[name]
        kappa = case.problem.kappa
        # reconstruct S symbolically from sampled values is unnecessary:
        # check div(-kappa*grad u - S) == 0 using the package's S closure
        # via finite differences at interior points
        h = 1e-6
        for x, y in RNG.uniform(0.1, 0.9, size=(10, 2)):
            def ix(xx, yy):
                return -kappa * case.exact_grad(xx, yy)[0] - case.problem.S[0](xx, yy)

            def iy(xx, yy):
                return -kappa * case.exact_grad(xx, yy)[1] - case.problem.S[1](xx, yy)

            div = ((ix(x + h, y) - ix(x - h, y)) / (2 * h)
                   + (iy(x, y + h) - iy(x, y - h)) / (2 * h))
            assert abs(div) <= 1e-6


class TestBoundaryData:
    def test_conc_poly2_reference_values(self):
        case = manufactured_case("conc-poly2")
        assert case.exact_field(0.4, 0.9) == pytest.approx(0.16)
        assert case.problem.c_prev(0.4, 0.9) == pytest.approx(0.16 - 2.0)
        assert case.exact_flux(0.4, 0.9) == pytest.approx((-0.8, 0.0))

    @pytest.mark.parametrize("name", ["conc-poly2", "conc-trig"])
    def test_neumann_data_equals_normal_flux(self, name):
        case = manufactured_case(name)
        for x in RNG.uniform(0.0, 1.0, size=8):
            for (px, py, nx, ny) in [(x, 0.0, 0.0, -1.0), (x, 1.0, 0.0, 1.0),
                                     (0.0, x, -1.0, 0.0), (1.0, x, 1.0, 0.0)]:
                want = case.exact_normal_flux(px, py, nx, ny)
                assert case.problem.J(px, py, nx, ny) == pytest.approx(
                    want, abs=1e-12)

    @pytest.mark.parametrize("name", ["pot-poly2", "pot-trig"])
    def test_neumann_and_robin_data(self, name):
        case = manufactured_case(name)
        prob = case.problem
        for x in RNG.uniform(0.0, 1.0, size=8):
            # Gamma_N is the x=1 side
            want = case.exact_normal_flux(1.0, x, 1.0, 0.0)
            assert prob.I(1.0, x, 1.0, 0.0) == pytest.approx(want, abs=1e-12)
            # Gamma_R is the two y-sides: R = i.n - beta*phi
            for (px, py, nx, ny) in [(x, 0.0, 0.0, -1.0), (x, 1.0, 0.0, 1.0)]:
                i_n = case.exact_normal_flux(px, py, nx, ny)
                beta = prob.beta(px, py)
                phi = case.exact_field(px, py)
                assert prob.R(px, py, nx, ny) == pytest.approx(
                    i_n - beta * phi, abs=1e-12)

    def test_pot_poly2_robin_load_formula(self):
        case = manufactured_case("pot-poly2")
        # on both y-sides i.n = 0, so R reduces to -x(1-x)
        for x in np.linspace(0.0, 1.0, 9):
            assert case.problem.R(x, 0.0, 0.0, -1.0) == pytest.approx(
                -x * (1 - x), abs=1e-14)
            assert case.problem.R(x, 1.0, 0.0, 1.0) == pytest.approx(
                -x * (1 - x), abs=1e-14)

    def test_partitions(self):
        for name, tags in (
                ("conc-poly2", (FacetTag.NEUMANN,) * 4),
                ("conc-trig", (FacetTag.NEUMANN,) * 4),
                ("pot-poly2", (FacetTag.DIRICHLET, FacetTag.NEUMANN,
                               FacetTag.ROBIN, FacetTag.ROBIN)),
                ("pot-trig", (FacetTag.DIRICHLET, FacetTag.NEUMANN,
                              FacetTag.ROBIN, FacetTag.ROBIN))):
            part = manufactured_case(name).partition
            assert (part.left, part.right, part.bottom, part.top) == tags

    @pytest.mark.parametrize("name", ["pot-poly2", "pot-trig"])
    def test_dirichlet_side_is_homogeneous(self, name):
        # the x=0 side carries phi = 0 so the trial space constraint is exact
        case = manufactured_case(name)
        for y in np.linspace(0.0, 1.0, 9):
            assert case.exact_field(0.0, y) == pytest.approx(0.0, abs=1e-15)

    def test_robin_coefficient_positive_on_robin_sides(self):
        for name in ("pot-poly2", "pot-trig"):
            case = manufactured_case(name)
            for x in np.linspace(0.0, 1.0, 9):
                assert case.problem.beta(x, 0.0) > 0.0
                assert case.problem.beta(x, 1.0) > 0.0


class TestArrayEvaluation:
    def test_array_values_equal_scalar_values(self):
        # every closure of every case, on a (3, 4) array of points, equals its
        # evaluation one point at a time, exactly
        xy = RNG.uniform(0.0, 1.0, size=(3, 4, 2))
        nrm = np.broadcast_to(np.array([(0.0, -1.0), (0.0, 1.0), (-1.0, 0.0),
                                        (1.0, 0.0)]), (3, 4, 2))
        volume = (xy[..., 0], xy[..., 1])
        boundary = volume + (nrm[..., 0], nrm[..., 1])
        for name in CASE_NAMES:
            case = manufactured_case(name)
            prob = case.problem
            fns = [(case.exact_field, volume), (case.exact_grad, volume),
                   (case.exact_flux, volume), (case.exact_flux_div, volume),
                   (case.exact_normal_flux, boundary)]
            if case.problem.kind == "concentration":
                fns += [(prob.c_prev, volume), (prob.J, boundary)]
            else:
                fns += [(prob.beta, volume), (prob.S[0], volume),
                        (prob.S[1], volume), (prob.I, boundary), (prob.R, boundary)]
            for fn, args in fns:
                on_array = fn(*args)
                for idx in np.ndindex(3, 4):
                    on_scalar = fn(*(float(a[idx]) for a in args))
                    got = [np.broadcast_to(v, (3, 4))[idx] for v in
                           (on_array if isinstance(on_array, tuple) else (on_array,))]
                    want = on_scalar if isinstance(on_scalar, tuple) else (on_scalar,)
                    assert got == list(want), (name, fn, idx)


# -- frozen reference: the problem data as each case wrote it out by hand
# before the constructors derived it from the exact field and flux

_PI = np.pi
FROZEN_DATA = {
    "conc-poly2": {
        "c_prev": lambda x, y: x * x + 1.0 * -2.0,
        "J": lambda x, y, nx, ny: -2.0 * x * nx + 0.0 * ny,
    },
    "conc-trig": {
        "c_prev": lambda x, y: (np.cos(_PI * x) * np.cos(_PI * y)
                                + 0.1 * (2.0 * 0.5 * _PI * _PI * np.cos(_PI * x)
                                         * np.cos(_PI * y))),
        "J": lambda x, y, nx, ny: (0.5 * _PI * np.sin(_PI * x) * np.cos(_PI * y) * nx
                                   + 0.5 * _PI * np.cos(_PI * x) * np.sin(_PI * y) * ny),
    },
    "pot-poly2": {
        "I": lambda x, y, nx, ny: -1.0 * nx + 0.0 * ny,
        "R": lambda x, y, nx, ny: -1.0 * nx + 0.0 * ny - 1.0 * (x * (1.0 - x)),
    },
    "pot-trig": {
        "I": lambda x, y, nx, ny: (
            0.25 * _PI * np.cos(_PI * x) * np.sin(0.5 * _PI * y) * nx
            + -0.5 * _PI * np.sin(_PI * x) * np.cos(0.5 * _PI * y) * ny),
        "R": lambda x, y, nx, ny: (
            0.25 * _PI * np.cos(_PI * x) * np.sin(0.5 * _PI * y) * nx
            + -0.5 * _PI * np.sin(_PI * x) * np.cos(0.5 * _PI * y) * ny
            - (1.0 + 0.5 * x) * (np.sin(_PI * x) * np.sin(0.5 * _PI * y))),
    },
}


class TestDerivedData:
    # a 9 x 9 grid of the unit square, each point with each outward normal
    X, Y = np.meshgrid(np.linspace(0.0, 1.0, 9), np.linspace(0.0, 1.0, 9))
    NORMALS = [(0.0, -1.0), (0.0, 1.0), (-1.0, 0.0), (1.0, 0.0)]

    @pytest.mark.parametrize("name", CASE_NAMES)
    def test_equals_the_hand_written_data_bit_for_bit(self, name):
        case = manufactured_case(name)
        shape = self.X.shape
        for key, frozen in FROZEN_DATA[name].items():
            derived = getattr(case.problem, key)
            if key == "c_prev":
                assert np.array_equal(np.broadcast_to(derived(self.X, self.Y), shape),
                                      frozen(self.X, self.Y)), key
                continue
            for nx, ny in self.NORMALS:
                want = np.broadcast_to(frozen(self.X, self.Y, nx, ny), shape)
                assert np.array_equal(np.broadcast_to(
                    derived(self.X, self.Y, nx, ny), shape), want), (key, nx, ny)
                if key in ("J", "I"):
                    assert np.array_equal(np.broadcast_to(
                        case.exact_normal_flux(self.X, self.Y, nx, ny), shape), want)
