import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dpgfem.mesh import (
    BoundaryPartition,
    FacetTag,
    Rectangle,
    build_rect_mesh,
    classify_boundary,
)
from dpgfem.problems import (
    ButlerVolmerParams,
    ConcentrationProblem,
    PotentialProblem,
    ProblemValidationError,
    butler_volmer_current,
    exchange_current,
    overpotential,
    reaction_species_flux,
    robin_coefficients,
    state_of_charge,
    validate_problem,
)
from dpgfem.quadrature import gauss_1d

UNIT = Rectangle(0.0, 1.0, 0.0, 1.0)

POT_PARTITION = BoundaryPartition.from_names(
    {"left": "dirichlet", "right": "neumann",
     "bottom": "robin", "top": "robin"})


def _arithmetic_params() -> ButlerVolmerParams:
    return ButlerVolmerParams(k_bv=2.0, F=3.0, R_gas=2.0, T=6.0, c_smax=5.0)


class TestStateOfCharge:
    def test_examples(self):
        assert state_of_charge(2.5, 5.0) == 0.5
        assert state_of_charge(0.0, 5.0) == 0.0
        assert state_of_charge(5.0, 5.0) == 1.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            state_of_charge(-0.1, 5.0)
        with pytest.raises(ValueError):
            state_of_charge(5.1, 5.0)


class TestExchangeCurrent:
    def test_vanishes_at_depleted_electrode(self):
        assert exchange_current(_arithmetic_params(), c_e=4.0, c_s=0.0) == 0.0

    def test_vanishes_at_saturated_electrode(self):
        assert exchange_current(_arithmetic_params(), c_e=4.0, c_s=5.0) == 0.0

    def test_arithmetic_case(self):
        # 2 * 3 * sqrt(4) * sqrt(5-1) * sqrt(1) = 2*3*2*2*1 = 24
        assert exchange_current(_arithmetic_params(), c_e=4.0, c_s=1.0) == 24.0

    @given(c_s=st.floats(min_value=0.0, max_value=5.0))
    def test_nonnegative(self, c_s):
        assert exchange_current(_arithmetic_params(), c_e=4.0, c_s=c_s) >= 0.0


class TestOverpotential:
    def test_examples(self):
        assert overpotential(1.0, 0.2, 0.3) == pytest.approx(0.5)
        assert overpotential(0.0, 0.0, 0.0) == 0.0
        assert overpotential(-0.1, 0.4, 0.2) == pytest.approx(-0.7)


class TestButlerVolmerCurrent:
    def test_zero_at_equilibrium(self):
        assert butler_volmer_current(_arithmetic_params(), I_c=24.0, eta=0.0) == 0.0

    def test_arithmetic_case(self):
        # 24 * 3 / (2*6) * 1 = 6
        assert butler_volmer_current(_arithmetic_params(), I_c=24.0, eta=1.0) == 6.0

    def test_rejects_negative_exchange_current(self):
        with pytest.raises(ValueError):
            butler_volmer_current(_arithmetic_params(), I_c=-1.0, eta=0.5)

    @given(eta=st.floats(min_value=-10.0, max_value=10.0,
                         allow_nan=False, allow_infinity=False))
    def test_doubling_eta_doubles_current_exactly(self, eta):
        params = _arithmetic_params()
        one = butler_volmer_current(params, 24.0, eta)
        two = butler_volmer_current(params, 24.0, 2.0 * eta)
        assert two == 2.0 * one


class TestRobinCoefficients:
    def test_no_reaction_at_depleted_electrode(self):
        params = _arithmetic_params()
        beta, load = robin_coefficients(params, c_e=4.0, c_s=0.0, phi_e=0.3)
        assert beta == 0.0
        assert load == 0.0

    def test_arithmetic_case(self):
        params = ButlerVolmerParams(k_bv=2.0, F=3.0, R_gas=2.0, T=6.0,
                                    c_smax=5.0, phi_open=0.25)
        beta, load = robin_coefficients(params, c_e=4.0, c_s=1.0, phi_e=0.5)
        assert beta == 6.0
        assert load == pytest.approx(-4.5)

    def test_zero_load_when_no_bias(self):
        params = ButlerVolmerParams(k_bv=2.0, F=3.0, R_gas=2.0, T=6.0,
                                    c_smax=5.0, phi_open=0.0)
        for c_s in (0.5, 1.0, 2.5, 4.0):
            _, load = robin_coefficients(params, c_e=4.0, c_s=c_s, phi_e=0.0)
            assert load == 0.0

    def test_open_circuit_potential_as_expression(self):
        # phi_open given as an expression in the state of charge
        params = ButlerVolmerParams(k_bv=2.0, F=3.0, R_gas=2.0, T=6.0,
                                    c_smax=5.0, phi_open="x/2")
        beta, load = robin_coefficients(params, c_e=4.0, c_s=1.0, phi_e=0.0)
        assert beta == 6.0
        # state of charge 0.2 -> phi_open 0.1 -> load = 6 * (-0.1)
        assert load == pytest.approx(-0.6)


class TestReactionSpeciesFlux:
    def test_electrode_side(self):
        assert reaction_species_flux(2.0, 4.0, 0.5, "electrode") == 0.5

    def test_electrolyte_side(self):
        assert reaction_species_flux(2.0, 4.0, 0.5, "electrolyte") == -0.25

    def test_full_transference_cancels_electrolyte_flux(self):
        assert reaction_species_flux(2.0, 4.0, 1.0, "electrolyte") == 0.0

    def test_unknown_medium(self):
        with pytest.raises(ValueError):
            reaction_species_flux(2.0, 4.0, 0.5, "membrane")


class TestButlerVolmerParams:
    def test_rejects_non_positive_constants(self):
        with pytest.raises(ProblemValidationError):
            ButlerVolmerParams(k_bv=0.0, F=3.0, R_gas=2.0, T=6.0, c_smax=5.0)
        with pytest.raises(ProblemValidationError):
            ButlerVolmerParams(k_bv=2.0, F=-3.0, R_gas=2.0, T=6.0, c_smax=5.0)

    def test_rejects_transference_outside_unit_interval(self):
        with pytest.raises(ProblemValidationError):
            ButlerVolmerParams(k_bv=2.0, F=3.0, R_gas=2.0, T=6.0,
                               c_smax=5.0, t_plus=1.5)


class TestValidateProblem:
    def test_negative_diffusivity_rejected(self):
        mesh = build_rect_mesh(UNIT, 2, 2)
        problem = ConcentrationProblem(D=-1.0, dt=0.5, c_prev=0.0, J=0.0)
        with pytest.raises(ProblemValidationError, match="D must be positive"):
            validate_problem(problem, mesh)

    def test_non_positive_robin_coefficient_rejected(self):
        mesh = classify_boundary(build_rect_mesh(UNIT, 2, 2),
                                 POT_PARTITION, "potential")
        problem = PotentialProblem(kappa=1.0, beta="x-10", S=(0.0, 0.0),
                                   I=0.0, R=0.0, partition=POT_PARTITION)
        with pytest.raises(ProblemValidationError,
                           match="beta not positive on Gamma_R"):
            validate_problem(problem, mesh)

    def test_potential_on_unclassified_mesh_lists_every_violation(self):
        mesh = build_rect_mesh(UNIT, 2, 2)      # every side Neumann, no Robin
        problem = PotentialProblem(kappa=-1.0, beta="x-10", S=(0.0, 0.0),
                                   I=0.0, R=0.0, partition=POT_PARTITION)
        with pytest.raises(ProblemValidationError) as err:
            validate_problem(problem, mesh)
        assert err.value.violations == [
            "kappa must be positive",
            "invalid partition: potential problem requires non-empty Neumann "
            "and Robin boundary parts"]

    def test_beta_sampled_at_gauss_points_of_each_robin_facet(self):
        mesh = classify_boundary(build_rect_mesh(Rectangle(0.0, 1.0, 0.0, 2.0), 3, 2),
                                 POT_PARTITION, "potential")
        seen = []

        def beta(x, y):
            seen.append((x, y))
            return 1.0

        problem = PotentialProblem(kappa=1.0, beta=beta, S=(0.0, 0.0),
                                   I=0.0, R=0.0, partition=POT_PARTITION)
        validate_problem(problem, mesh)
        t = 0.5 * (gauss_1d(4).points + 1.0)
        expected = [a + s * (b - a)
                    for a, b in map(mesh.facet_endpoints,
                                    mesh.facets_with_tag(FacetTag.ROBIN))
                    for s in t]
        assert len(seen) == 2 * 3 * 4
        assert np.allclose(seen, expected, rtol=0.0, atol=1e-15)

    def test_reference_cases_pass(self):
        from dpgfem.manufactured import CASE_NAMES, manufactured_case
        from dpgfem.verify import case_mesh

        for name in CASE_NAMES:
            case = manufactured_case(name)
            validate_problem(case.problem, case_mesh(case, 2))

    def test_warns_on_large_time_step(self):
        mesh = build_rect_mesh(UNIT, 2, 2)
        problem = ConcentrationProblem(D=1.0, dt=1.0, c_prev=0.0, J=0.0)
        with pytest.warns(UserWarning, match="not <"):
            validate_problem(problem, mesh)

    def test_expression_loads_accepted(self):
        mesh = build_rect_mesh(UNIT, 2, 2)
        problem = ConcentrationProblem(D=0.5, dt=0.1, c_prev="x^2",
                                       J="sin(pi*x)*0")
        validate_problem(problem, mesh)
        assert problem.c_prev(0.5, 0.0) == pytest.approx(0.25)
