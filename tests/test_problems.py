import functools
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dpgfem.fespace import SpaceLayout
from dpgfem.mesh import (
    BoundaryPartition,
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
    robin_coefficients,
    sample,
    state_of_charge,
    validate_problem,
)
from dpgfem.solver import solve_dpg
from dpgfem.verify import infsup_constant

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

    @pytest.mark.parametrize("key, text", [("k_bv", "k_bv must be positive"),
                                           ("t_plus", "t_plus must lie in [0, 1]")])
    def test_nan_constant_fails_its_check(self, key, text):
        constants = {"k_bv": 2.0, "F": 3.0, "R_gas": 2.0, "T": 6.0, "c_smax": 5.0}
        with pytest.raises(ProblemValidationError) as err:
            ButlerVolmerParams(**{**constants, key: float("nan")})
        assert err.value.violations == [text]


class TestValidateProblem:
    def test_negative_diffusivity_rejected(self):
        mesh = build_rect_mesh(UNIT, 2, 2)
        problem = ConcentrationProblem(D=-1.0, dt=0.5, c_prev=0.0, J=0.0)
        with pytest.raises(ProblemValidationError, match="D must be positive"):
            validate_problem(problem, mesh)

    @pytest.mark.parametrize("kappa, text", [(float("nan"), "kappa must be positive"),
                                             (float("inf"), "kappa must be finite")])
    def test_non_finite_conductivity_rejected(self, kappa, text):
        mesh = classify_boundary(build_rect_mesh(UNIT, 2, 2), POT_PARTITION)
        problem = PotentialProblem(kappa=kappa, beta=1.0, S=(0.0, 0.0), I=0.0, R=0.0)
        with pytest.raises(ProblemValidationError) as err:
            validate_problem(problem, mesh)
        assert err.value.violations == [text]

    def test_non_positive_robin_coefficient_rejected(self):
        # beta > 0 is checked where assembly samples beta, which both the
        # DPG solve and the inf-sup eigensolve reach
        mesh = classify_boundary(build_rect_mesh(UNIT, 2, 2), POT_PARTITION)
        problem = PotentialProblem(kappa=1.0, beta="x-10", S=(0.0, 0.0), I=0.0, R=0.0)
        for run in (solve_dpg, infsup_constant):
            with pytest.raises(ProblemValidationError,
                               match="beta not positive on Gamma_R"):
                run(mesh, problem, SpaceLayout(p=1))

    # the first node of the 4-point Gauss rule on [0, 1]; beta is negative
    # only within about 0.003 of it
    FIRST_NODE_BETA = "1000*(x-0.06943184420297371)^2 - 0.01"

    def test_beta_checked_at_the_assembly_rule_only(self):
        # p = 1 assembles on the 3-point rule, which never samples the
        # negative part; p = 2 assembles on the 4-point rule, which does
        mesh = classify_boundary(build_rect_mesh(UNIT, 1, 1), POT_PARTITION)
        problem = PotentialProblem(kappa=1.0, beta=self.FIRST_NODE_BETA,
                                   S=(0.0, 0.0), I=1.0, R=0.0)
        solution, _, _ = solve_dpg(mesh, problem, SpaceLayout(p=1))
        assert np.isfinite(solution.field).all() and np.any(solution.field)
        assert infsup_constant(mesh, problem, SpaceLayout(p=1)) == pytest.approx(
            0.5688, abs=5e-5)
        for run in (solve_dpg, infsup_constant):
            with pytest.raises(ProblemValidationError,
                               match="beta not positive on Gamma_R"):
                run(mesh, problem, SpaceLayout(p=2))

    def test_beta_is_never_called(self):
        mesh = classify_boundary(build_rect_mesh(UNIT, 3, 2), POT_PARTITION)

        def beta(x, y):
            raise AssertionError("validate_problem sampled beta")

        problem = PotentialProblem(kappa=1.0, beta=beta, S=(0.0, 0.0), I=0.0, R=0.0)
        assert validate_problem(problem, mesh) is problem

    def test_potential_on_unclassified_mesh_lists_every_violation(self):
        mesh = build_rect_mesh(UNIT, 2, 2)      # every side Neumann, no Robin
        problem = PotentialProblem(kappa=-1.0, beta="x-10", S=(0.0, 0.0), I=0.0, R=0.0)
        with pytest.raises(ProblemValidationError) as err:
            validate_problem(problem, mesh)
        assert err.value.violations == [
            "kappa must be positive",
            "invalid partition: potential problem requires non-empty Neumann "
            "and Robin boundary parts"]

    @pytest.mark.parametrize("kind, sides, valid", [
        ("concentration", {}, True),
        ("concentration", {"left": "dirichlet"}, False),
        ("concentration", {"top": "robin"}, False),
        ("potential", {"left": "dirichlet", "bottom": "robin", "top": "robin"}, True),
        ("potential", {"bottom": "robin"}, True),
        ("potential", {}, False),
        ("potential", dict.fromkeys(("left", "right", "bottom", "top"), "dirichlet"),
         False),
        ("potential", {"left": "dirichlet"}, False),
        ("potential", {"left": "dirichlet", "right": "robin", "bottom": "robin",
                       "top": "robin"}, False),
    ])
    def test_partition_rule_on_the_facet_tags(self, kind, sides, valid):
        mesh = classify_boundary(build_rect_mesh(UNIT, 2, 2),
                                 BoundaryPartition.from_names(sides))
        problem = (ConcentrationProblem(D=0.5, dt=0.5, c_prev=0.0, J=0.0)
                   if kind == "concentration" else
                   PotentialProblem(kappa=1.0, beta=1.0, S=(0.0, 0.0), I=0.0, R=0.0))
        if valid:
            assert validate_problem(problem, mesh) is problem
            return
        with pytest.raises(ProblemValidationError) as err:
            validate_problem(problem, mesh)
        rule = ("Neumann data on every side" if kind == "concentration" else
                "non-empty Neumann and Robin boundary parts")
        assert err.value.violations == [f"invalid partition: {kind} problem requires "
                                        + rule]

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


def _counting(fn, calls):
    @functools.wraps(fn)
    def counted(*args):
        calls.append(args)
        return fn(*args)
    return counted


class TestSample:
    POINTS = np.random.default_rng(7).uniform(0.0, 1.0, size=(5, 3, 2))

    @pytest.mark.parametrize("fn, trailing", [
        (lambda x, y: x * y + 1.0, ()),
        (lambda x, y: (x, 2.0 * y), (2,)),
        (lambda x, y: 3.0, ()),
    ], ids=["scalar", "tuple", "constant"])
    def test_one_call_on_the_whole_point_array(self, fn, trailing):
        calls = []
        out = sample(_counting(fn, calls), self.POINTS, "f")
        assert len(calls) == 1
        assert all(np.shape(a) == (5, 3) for a in calls[0])
        assert out.shape == (5, 3) + trailing
        x, y = self.POINTS[..., 0], self.POINTS[..., 1]
        want = fn(x, y)
        want = np.stack(want, axis=-1) if isinstance(want, tuple) else want
        assert np.array_equal(out, np.broadcast_to(want, out.shape))

    def test_boundary_data_get_one_normal_per_row(self):
        calls = []
        normals = np.array([(1.0, 0.0), (0.0, -1.0), (-1.0, 0.0), (0.0, 1.0),
                            (1.0, 0.0)])
        out = sample(_counting(lambda x, y, nx, ny: x * nx + y * ny, calls),
                     self.POINTS, "g", normals)
        assert len(calls) == 1
        assert np.array_equal(out, self.POINTS[..., 0] * normals[:, None, 0]
                              + self.POINTS[..., 1] * normals[:, None, 1])

    def test_expression_evaluated_once_per_point(self, monkeypatch):
        from dpgfem import expr

        calls = []
        compile_expr = expr.compile_expr
        monkeypatch.setattr(expr, "compile_expr",
                            lambda text: _counting(compile_expr(text), calls))
        j_calls = []
        problem = ConcentrationProblem(
            D=0.5, dt=0.1, c_prev="x^2 - y",
            J=_counting(lambda x, y, nx, ny: x * nx, j_calls))
        out = sample(problem.c_prev, self.POINTS, "c_prev")
        assert len(calls) == 5 * 3
        assert all(type(a) is float for args in calls for a in args)
        x, y = self.POINTS[..., 0], self.POINTS[..., 1]
        assert np.array_equal(out, x ** 2 - y)
        # a plain callable of the same problem is called once
        sample(problem.J, self.POINTS, "J", np.ones((5, 2)))
        assert len(j_calls) == 1

    def test_expression_called_once_per_point_in_c_order(self, monkeypatch):
        # record the compiled function's calls, as perfbench's tracer counts
        # them: one per point, in C order, up to the first error
        from dpgfem import expr

        calls = []
        compile_expr = expr.compile_expr

        def recording_compile(text):
            fn = compile_expr(text)

            def recorded(x, y):
                calls.append((x, y))
                return fn(x, y)
            return recorded

        monkeypatch.setattr(expr, "compile_expr", recording_compile)
        pts = np.array([[(0.0, 0.1), (0.0, 0.2), (0.25, 0.3)],
                        [(0.5, 0.4), (0.0, 0.5), (0.75, 0.6)]])
        order = [tuple(p) for p in pts.reshape(-1, 2).tolist()]
        problem = ConcentrationProblem(D=0.5, dt=0.1,
                                       c_prev="2*(1 + pi^2)*x - y", J=0.0)
        sample(problem.c_prev, pts, "c_prev")
        assert calls == order
        calls.clear()
        # overflow is not a domain error: every point is evaluated, and the
        # first non-finite one in C order is named
        problem = ConcentrationProblem(D=0.5, dt=0.1, c_prev="1e300*x*1e300",
                                       J=0.0)
        with pytest.raises(ProblemValidationError,
                           match=r"c_prev is not finite at \(0\.25, 0\.3\)"):
            sample(problem.c_prev, pts, "c_prev")
        assert calls == order
        calls.clear()
        # a domain error stops at the first bad point in C order
        problem = ConcentrationProblem(D=0.5, dt=0.1, c_prev="1/(x - 0.5)", J=0.0)
        with pytest.raises(expr.ExprDomainError, match="division by zero"):
            sample(problem.c_prev, pts, "c_prev")
        assert calls == order[:4]

    def test_non_finite_expression_names_first_point(self):
        pts = np.array([[(0.0, 0.1), (0.0, 0.2), (0.25, 0.3)],
                        [(0.5, 0.4), (0.0, 0.5), (0.75, 0.6)]])
        problem = ConcentrationProblem(D=0.5, dt=0.1, c_prev="1e300*x*1e300",
                                       J=0.0)
        with pytest.raises(ProblemValidationError,
                           match=r"c_prev is not finite at \(0\.25, 0\.3\)"):
            sample(problem.c_prev, pts, "c_prev")

    def test_non_finite_array_value_names_first_point_without_warning(self):
        pts = np.array([[(0.5, 0.1), (0.0, 0.2)], [(0.0, 0.3), (0.25, 0.4)]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ProblemValidationError,
                               match=r"beta is not finite at \(0, 0\.2\)"):
                sample(lambda x, y: 1.0 / x, pts, "beta")
