"""End-to-end acceptance checks for the DPG electrochemistry solver.

Each test exercises one headline guarantee of the package at its stated
tolerance, so a verbose pytest run of this module yields one pass/fail
line per guarantee.  Tests print the measured numbers they judge.
"""

import json
import math
import time

import numpy as np
import pytest
import scipy.linalg

from dpgfem.cli import main as cli_main
from dpgfem.dpg import geometry_kernels
from dpgfem.expr import compile_expr
from dpgfem.fespace import SpaceLayout, build_dofmap, tabulate_h1_basis
from dpgfem.manufactured import manufactured_case
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
    butler_volmer_current,
    exchange_current,
    robin_coefficients,
)
from dpgfem.quadrature import gauss_1d
from dpgfem.solver import active_facets, assemble, solve_dpg
from dpgfem.verify import (
    case_mesh,
    eoc_study,
    error_norms,
    field_l2_error,
    infsup_constant,
)

UNIT = Rectangle(0.0, 1.0, 0.0, 1.0)

TRIG_CASES = ("conc-trig", "pot-trig")
POLY_CASES = ("conc-poly2", "pot-poly2")
DEGREES = (1, 2, 3)

REFERENCE_PARTITION = BoundaryPartition.from_names(
    {"left": "dirichlet", "right": "neumann",
     "bottom": "robin", "top": "robin"})

NO_DIRICHLET_PARTITION = BoundaryPartition.from_names(
    {"left": "neumann", "right": "neumann",
     "bottom": "robin", "top": "robin"})


@pytest.fixture(scope="module")
def trig_sweeps():
    """Refinement studies 8x8 -> 64x64 for both trigonometric cases,
    p = 1..3, with the classical-Galerkin oracle solved alongside."""
    t0 = time.perf_counter()
    reports = {(case, p): eoc_study(case, p=p, levels=4, base_n=8,
                                    with_oracle=True)
               for case in TRIG_CASES for p in DEGREES}
    return reports, time.perf_counter() - t0


def test_criterion_1_trig_convergence_rates(trig_sweeps):
    """Combined field+flux L2 error converges with rate >= p - 0.2 on the
    finest mesh pair for p = 1..3 on both trigonometric cases, and the
    whole six-sweep study finishes within five minutes."""
    reports, runtime = trig_sweeps
    failures = []
    for (case, p), report in sorted(reports.items()):
        rate = report.eoc_combined()[-1]
        print(f"criterion 1: {case} p={p}: combined EOC {rate:.3f} "
              f"(need >= {p - 0.2:.1f})")
        if rate < p - 0.2:
            failures.append((case, p, round(rate, 3)))
    print(f"criterion 1: total sweep runtime {runtime:.1f}s (need <= 300s)")
    assert not failures, f"combined EOC below p - 0.2: {failures}"
    assert runtime <= 300.0, f"sweep took {runtime:.1f}s"


def test_criterion_2_exact_quadratic_reproduction():
    """Quadratic manufactured solutions are reproduced by p=2 elements on a
    4x4 mesh to 1e-8 relative accuracy in field, flux, and trace."""
    for name in POLY_CASES:
        case = manufactured_case(name)
        mesh = case_mesh(case, 4)
        solution, _, system = solve_dpg(mesh, case.problem, SpaceLayout(p=2))
        norms = error_norms(mesh, system.dofmap, solution, case)
        rel = (norms.e_field / norms.norm_field,
               norms.e_flux / norms.norm_flux,
               norms.e_trace / norms.norm_trace)
        print(f"criterion 2: {name}: relative errors field {rel[0]:.2e} "
              f"flux {rel[1]:.2e} trace {rel[2]:.2e} (need <= 1e-8)")
        assert all(r <= 1e-8 for r in rel), (name, rel)


def test_criterion_3_spd_without_dirichlet():
    """The assembled DPG matrix stays positive definite even with no
    Dirichlet boundary at all: on a 2x2 p=1 mesh the smallest eigenvalue
    clears 1e-12 times the matrix norm for the pure-Neumann concentration
    problem and for the potential problem with an empty Dirichlet part."""
    conc_mesh = build_rect_mesh(UNIT, 2, 2)
    conc = ConcentrationProblem(D=1.0, dt=1.0, c_prev=0.0, J=0.0)
    pot_mesh = classify_boundary(build_rect_mesh(UNIT, 2, 2), NO_DIRICHLET_PARTITION)
    pot = PotentialProblem(kappa=1.0, beta=1.0, S=(0.0, 0.0), I=0.0, R=0.0)
    layout = SpaceLayout(p=1)
    for label, mesh, problem in (("concentration pure-Neumann", conc_mesh,
                                  conc),
                                 ("potential without Dirichlet", pot_mesh,
                                  pot)):
        dofmap = build_dofmap(mesh, layout, active_facets(mesh))
        system = assemble(mesh, dofmap, problem)
        eigs = scipy.linalg.eigvalsh(system.matrix.toarray())
        norm = float(np.max(np.abs(eigs)))
        margin = 1e-12 * norm
        print(f"criterion 3: {label}: lambda_min {eigs[0]:.3e} "
              f"(need > {margin:.3e})")
        assert eigs[0] > margin, (label, eigs[0], margin)


def test_criterion_4_infsup_trend():
    """Discrete inf-sup constants on 1x1, 2x2, 4x4 meshes (p=1) are
    positive and drop by less than 20% per refinement for both model
    problems."""
    conc = ConcentrationProblem(D=0.5, dt=0.5, c_prev=0.0, J=0.0)
    pot = PotentialProblem(kappa=1.0, beta=1.0, S=(0.0, 0.0), I=0.0, R=0.0)
    layout = SpaceLayout(p=1)
    for label, problem, kind in (("concentration", conc, "concentration"),
                                 ("potential", pot, "potential")):
        alphas = []
        for n in (1, 2, 4):
            mesh = build_rect_mesh(UNIT, n, n)
            if kind == "potential":
                mesh = classify_boundary(mesh, REFERENCE_PARTITION)
            alphas.append(infsup_constant(mesh, problem, layout))
        ratios = [b / a for a, b in zip(alphas, alphas[1:])]
        print(f"criterion 4: {label}: alphas "
              f"{['%.4f' % a for a in alphas]} ratios "
              f"{['%.3f' % r for r in ratios]} (need > 0 and >= 0.8)")
        assert all(a > 0.0 for a in alphas), (label, alphas)
        assert all(r >= 0.8 for r in ratios), (label, alphas, ratios)


def test_criterion_5_field_error_vs_galerkin(trig_sweeps):
    """On every trigonometric refinement level the DPG field L2 error is
    within a factor of two of a classical continuous-Galerkin solve of the
    same problem at the same degree."""
    reports, _ = trig_sweeps
    violations = []
    for (case, p), report in sorted(reports.items()):
        ratios = []
        for row in report.rows:
            ratio = row.e_field / row.oracle_e_field
            ratios.append(ratio)
            if max(ratio, 1.0 / ratio) > 2.0:
                violations.append((case, p, row.n, round(ratio, 2)))
        print(f"criterion 5: {case} p={p}: DPG/Galerkin field-error ratios "
              f"{['%.2f' % r for r in ratios]} (need within factor 2)")
    assert not violations, (
        "DPG and Galerkin field errors differ by more than a factor of 2 "
        f"on (case, p, n, ratio): {violations}")


def test_criterion_6_error_estimator(trig_sweeps):
    """The built-in residual estimator vanishes (<= 1e-8 times the load
    norm) when the exact solution lies in the trial space, and converges
    with rate >= p - 0.3 on the trigonometric cases."""
    for name in POLY_CASES:
        case = manufactured_case(name)
        mesh = case_mesh(case, 4)
        solution, _, system = solve_dpg(mesh, case.problem, SpaceLayout(p=2))
        bound = 1e-8 * float(np.linalg.norm(system.rhs))
        print(f"criterion 6: {name}: eta {solution.eta:.3e} "
              f"(need <= {bound:.3e})")
        assert solution.eta <= bound, (name, solution.eta, bound)
    reports, _ = trig_sweeps
    for (case, p), report in sorted(reports.items()):
        rate = report.eoc_eta()[-1]
        print(f"criterion 6: {case} p={p}: eta EOC {rate:.3f} "
              f"(need >= {p - 0.3:.1f})")
        assert rate >= p - 0.3, (case, p, rate)


def _coeff_vector(solution):
    return np.concatenate([solution.field, solution.flux, solution.trace])


def test_criterion_7_linearity_and_robin_limit():
    """Doubling every load doubles the solution to 1e-9 relative accuracy,
    and a Robin coefficient of 1e6 with zero Robin data pins the boundary
    potential: its Robin-boundary L2 norm is at most 1e-4 times its domain
    L2 norm."""
    conc_mesh = build_rect_mesh(UNIT, 4, 4)
    conc_one = ConcentrationProblem(D=0.5, dt=0.25, c_prev="x^2*y + 1",
                                    J="x - y")
    conc_two = ConcentrationProblem(D=0.5, dt=0.25, c_prev="2*(x^2*y + 1)",
                                    J="2*(x - y)")
    pot_mesh = classify_boundary(build_rect_mesh(UNIT, 4, 4), REFERENCE_PARTITION)
    pot_one = PotentialProblem(kappa=2.0, beta=1.5, S=(0.3, -0.2), I="x", R="y - 2")
    pot_two = PotentialProblem(kappa=2.0, beta=1.5, S=(0.6, -0.4), I="2*x",
                               R="2*(y - 2)")
    layout = SpaceLayout(p=2)
    for label, mesh, one, two in (("concentration", conc_mesh, conc_one,
                                   conc_two),
                                  ("potential", pot_mesh, pot_one, pot_two)):
        sol_one, _, _ = solve_dpg(mesh, one, layout, tol=1e-12)
        sol_two, _, _ = solve_dpg(mesh, two, layout, tol=1e-12)
        a, b = _coeff_vector(sol_one), _coeff_vector(sol_two)
        rel = float(np.linalg.norm(2.0 * a - b) / np.linalg.norm(b))
        print(f"criterion 7: {label} load doubling: relative deviation "
              f"{rel:.2e} (need <= 1e-9)")
        assert rel <= 1e-9, (label, rel)

    mesh = classify_boundary(build_rect_mesh(UNIT, 8, 8), NO_DIRICHLET_PARTITION)
    problem = PotentialProblem(kappa=1.0, beta=1e6, S=(0.0, 0.0), I=1.0, R=0.0)
    solution, _, system = solve_dpg(mesh, problem, SpaceLayout(p=2))
    boundary = _field_boundary_l2(mesh, system.dofmap, solution.field,
                                  FacetTag.ROBIN)
    domain = field_l2_error(mesh, system.dofmap, solution.field,
                            lambda x, y: 0.0)[0]
    ratio = boundary / domain
    print(f"criterion 7: Robin limit beta=1e6: boundary/domain L2 ratio "
          f"{ratio:.2e} (need <= 1e-4)")
    assert ratio <= 1e-4, ratio


def _field_boundary_l2(mesh, dofmap, coeffs, tag) -> float:
    """Frozen reference: L2 norm of the field's trace over all boundary
    facets with a tag, at the p + delta_p + 2 points of the error measures."""
    layout = dofmap.layout
    geom = geometry_kernels(layout, mesh.dx, mesh.dy, layout.default_quad_points + 1)
    total = 0.0
    for k in range(4):
        on_tag = mesh.facet_tags[mesh.elem_facets[:, k]] == int(tag)
        vals = coeffs[dofmap.elem_field[on_tag]] @ geom.field_edge[k].T
        total += float(np.sum((vals * vals) @ geom.edge_w[k]))
    return float(np.sqrt(total))


def test_criterion_8_interface_kinetics():
    """Exchange current vanishes exactly at both stoichiometry limits, the
    arithmetic reference cell gives I_c = 24, beta = 6, and Robin load
    -4.5 exactly, and the linearized interface current is exactly linear
    in the overpotential."""
    params = ButlerVolmerParams(k_bv=2.0, F=3.0, R_gas=2.0, T=6.0,
                                c_smax=5.0, phi_open=0.25)
    assert exchange_current(params, 4.0, 0.0) == 0.0
    assert exchange_current(params, 4.0, 5.0) == 0.0
    I_c = exchange_current(params, 4.0, 1.0)
    beta, load = robin_coefficients(params, 4.0, 1.0, phi_e=0.5)
    print(f"criterion 8: I_c={I_c} beta={beta} load={load} "
          f"(need exactly 24, 6, -4.5)")
    assert I_c == 24.0
    assert beta == 6.0
    assert load == -4.5
    for eta in (1e-6, 0.01, 0.3, -0.2, 7.5):
        assert (butler_volmer_current(params, I_c, 2.0 * eta)
                == 2.0 * butler_volmer_current(params, I_c, eta)), eta
    print("criterion 8: interface current exactly linear in overpotential")


def test_criterion_9_infrastructure(tmp_path):
    """Gauss quadrature is exact through degree 2n-1 for n <= 10 (1e-13),
    the nodal bases form a partition of unity to 1e-12, parsed coefficient
    expressions match closed forms to 1e-12 relative at 100 points, and
    repeated runs produce bit-identical output files."""
    for n in range(1, 11):
        rule = gauss_1d(n)
        for k in range(2 * n):
            exact = 0.0 if k % 2 else 2.0 / (k + 1)
            approx = float(np.dot(rule.weights, rule.points ** k))
            assert abs(approx - exact) <= 1e-13, (n, k, approx)
    print("criterion 9: quadrature exact through degree 2n-1 for n <= 10")

    rng = np.random.default_rng(2026)
    pts = rng.uniform(-1.0, 1.0, size=(200, 2))
    worst = 0.0
    for p in range(1, 5):
        values, _ = tabulate_h1_basis(p, pts)
        worst = max(worst, float(np.max(np.abs(values.sum(axis=1) - 1.0))))
    print(f"criterion 9: partition-of-unity defect {worst:.2e} "
          f"(need <= 1e-12)")
    assert worst <= 1e-12

    expressions = [
        ("x^2 + y^2", lambda x, y: x ** 2 + y ** 2),
        ("sin(pi*x)*cos(pi*y)",
         lambda x, y: math.sin(math.pi * x) * math.cos(math.pi * y)),
        ("exp(x - y)", lambda x, y: math.exp(x - y)),
        ("ln(1 + x*y)", lambda x, y: math.log(1.0 + x * y)),
        ("sqrt(x^2 + 1)", lambda x, y: math.sqrt(x ** 2 + 1.0)),
        ("abs(x - y) + 1e-3", lambda x, y: abs(x - y) + 1e-3),
        ("-x + 2*y - 3", lambda x, y: -x + 2.0 * y - 3.0),
        ("2^x", lambda x, y: 2.0 ** x),
        ("x/(1 + y)", lambda x, y: x / (1.0 + y)),
        ("cos(x)^2 + sin(x)^2",
         lambda x, y: math.cos(x) ** 2 + math.sin(x) ** 2),
    ]
    xy = rng.uniform(0.1, 0.9, size=(100, 2))
    for text, ref in expressions:
        fn = compile_expr(text)
        for x, y in xy:
            a, b = fn(x, y), ref(x, y)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b)), (text, x, y)
    print("criterion 9: 10 parsed expressions match closures at 100 points")

    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"manufactured": "conc-trig",
                               "mesh": {"nx": 4, "ny": 4},
                               "discretization": {"p": 1}}))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["solve", "--config", str(cfg),
                     "--outdir", str(out_a)]) == 0
    assert cli_main(["solve", "--config", str(cfg),
                     "--outdir", str(out_b)]) == 0
    for name in ("fields.vtk", "indicators.csv", "report.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), \
            name
    print("criterion 9: repeated solve runs are bit-identical")
