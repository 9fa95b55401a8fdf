import json

import numpy as np
import pytest

from dpgfem.fespace import SpaceLayout, build_dofmap
from dpgfem.manufactured import manufactured_case
from dpgfem.mesh import Rectangle, build_rect_mesh
from dpgfem.output import (
    FIELD_NAMES,
    vertex_field_values,
    vertex_flux_values,
    write_eoc_csv,
    write_indicators_csv,
    write_infsup_csv,
    write_report_json,
    write_vtk,
)
from dpgfem.solver import Solution, active_facets, solve_dpg
from dpgfem.verify import case_mesh, eoc_study

UNIT = Rectangle(0.0, 1.0, 0.0, 1.0)

SPECIAL_VALUES = [-0.0, 1e16, 1e-5, 5e-324, 1.7976931348623157e308]


def _fmt(x):
    return repr(float(x))


def _reference_vtk_text(mesh, dofmap, solution, kind):
    """The VTK export as formatted value by value from numpy scalars,
    before the writer formatted Python floats."""
    scalar_name, vector_name = FIELD_NAMES[kind]
    field = vertex_field_values(mesh, dofmap, solution.field)
    flux = vertex_flux_values(mesh, dofmap, solution.flux)
    npts = (mesh.nx + 1) * (mesh.ny + 1)
    lines = ["# vtk DataFile Version 3.0",
             "dpgfem solution export",
             "ASCII",
             "DATASET STRUCTURED_GRID",
             f"DIMENSIONS {mesh.nx + 1} {mesh.ny + 1} 1",
             f"POINTS {npts} double"]
    lines.extend(f"{_fmt(x)} {_fmt(y)} 0.0" for x, y in mesh.vertices)
    lines.append(f"POINT_DATA {npts}")
    lines.append(f"SCALARS {scalar_name} double")
    lines.append("LOOKUP_TABLE default")
    lines.extend(_fmt(v) for v in field)
    lines.append(f"VECTORS {vector_name} double")
    lines.extend(f"{_fmt(fx)} {_fmt(fy)} 0.0" for fx, fy in flux)
    return "\n".join(lines) + "\n"


def _reference_indicators_text(solution):
    lines = ["element,eta_sq_riesz,eta_sq_fosls"]
    for e, (riesz, fosls) in enumerate(solution.indicators):
        lines.append(f"{e},{_fmt(riesz)},{_fmt(fosls)}")
    return "\n".join(lines) + "\n"


def _solved_case(name, n=2, p=2):
    case = manufactured_case(name)
    mesh = case_mesh(case, n)
    layout = SpaceLayout(p=p)
    solution, _, _ = solve_dpg(mesh, case.problem, layout)
    dofmap = build_dofmap(mesh, layout, active_facets(mesh))
    return case, mesh, dofmap, solution


class TestVertexSampling:
    def test_field_values_are_lattice_gather_p1(self):
        mesh = build_rect_mesh(UNIT, 2, 2)
        dofmap = build_dofmap(mesh, SpaceLayout(p=1), mesh.interior_facets())
        field = np.arange(9, dtype=float)
        # p=1: coefficient lattice coincides with the vertex lattice
        assert np.array_equal(vertex_field_values(mesh, dofmap, field), field)

    def test_field_values_subsample_p2_lattice(self):
        case, mesh, dofmap, solution = _solved_case("conc-poly2")
        values = vertex_field_values(mesh, dofmap, solution.field)
        for v, (x, y) in zip(values, mesh.vertices):
            assert v == pytest.approx(case.exact_field(x, y), abs=1e-9)

    def test_flux_values_average_constant_flux_exactly(self):
        mesh = build_rect_mesh(UNIT, 2, 2)
        layout = SpaceLayout(p=1)
        dofmap = build_dofmap(mesh, layout, mesh.interior_facets())
        flux = np.empty(dofmap.n_flux)
        for e in range(mesh.n_elems):
            flux[e * 2:(e + 1) * 2] = (3.0, -1.5)  # constant per element
        values = vertex_flux_values(mesh, dofmap, flux)
        assert values.shape == (9, 2)
        assert np.allclose(values[:, 0], 3.0)
        assert np.allclose(values[:, 1], -1.5)

    def test_flux_values_recover_smooth_exact_flux(self):
        case, mesh, dofmap, solution = _solved_case("pot-poly2")
        values = vertex_flux_values(mesh, dofmap, solution.flux)
        for (fx, fy), (x, y) in zip(values, mesh.vertices):
            ex, ey = case.exact_flux(x, y)
            assert fx == pytest.approx(ex, abs=1e-8)
            assert fy == pytest.approx(ey, abs=1e-8)


class TestVtkWriter:
    def test_header_and_sections(self, tmp_path):
        case, mesh, dofmap, solution = _solved_case("pot-poly2")
        path = tmp_path / "fields.vtk"
        write_vtk(path, mesh, dofmap, solution, "potential")
        lines = path.read_text().split("\n")
        assert lines[0] == "# vtk DataFile Version 3.0"
        assert lines[1] == "dpgfem solution export"
        assert lines[2] == "ASCII"
        assert lines[3] == "DATASET STRUCTURED_GRID"
        assert lines[4] == "DIMENSIONS 3 3 1"
        assert lines[5] == "POINTS 9 double"
        assert lines[6 + 9] == "POINT_DATA 9"
        assert lines[6 + 10] == "SCALARS potential double"
        assert lines[6 + 11] == "LOOKUP_TABLE default"
        assert lines[6 + 12 + 9] == "VECTORS current_density double"
        assert lines[-1] == ""  # trailing newline

    def test_concentration_field_names(self, tmp_path):
        case, mesh, dofmap, solution = _solved_case("conc-poly2")
        path = tmp_path / "fields.vtk"
        write_vtk(path, mesh, dofmap, solution, "concentration")
        text = path.read_text()
        assert "SCALARS concentration double" in text
        assert "VECTORS species_flux double" in text

    def test_point_coordinates_row_major(self, tmp_path):
        case, mesh, dofmap, solution = _solved_case("conc-poly2")
        path = tmp_path / "fields.vtk"
        write_vtk(path, mesh, dofmap, solution, "concentration")
        lines = path.read_text().split("\n")
        pts = [tuple(float(t) for t in ln.split()) for ln in lines[6:15]]
        assert pts[0] == (0.0, 0.0, 0.0)
        assert pts[1] == (0.5, 0.0, 0.0)
        assert pts[3] == (0.0, 0.5, 0.0)
        assert pts[8] == (1.0, 1.0, 0.0)

    def test_deterministic_bytes(self, tmp_path):
        case, mesh, dofmap, solution = _solved_case("pot-trig", n=2, p=1)
        a, b = tmp_path / "a.vtk", tmp_path / "b.vtk"
        write_vtk(a, mesh, dofmap, solution, "potential")
        write_vtk(b, mesh, dofmap, solution, "potential")
        assert a.read_bytes() == b.read_bytes()


def _assert_writes_reference_bytes(tmp_path, mesh, dofmap, solution, kind):
    write_vtk(tmp_path / "fields.vtk", mesh, dofmap, solution, kind)
    write_indicators_csv(tmp_path / "indicators.csv", solution)
    assert ((tmp_path / "fields.vtk").read_bytes()
            == _reference_vtk_text(mesh, dofmap, solution, kind).encode())
    assert ((tmp_path / "indicators.csv").read_bytes()
            == _reference_indicators_text(solution).encode())


def _hand_solution(dofmap, field, flux, indicators):
    return Solution(field=np.asarray(field, dtype=float),
                    flux=np.asarray(flux, dtype=float),
                    trace=np.zeros(dofmap.n_trace),
                    indicators=np.asarray(indicators, dtype=float).reshape(-1, 2),
                    eta=1.0)


class TestReferenceBytes:
    @pytest.mark.parametrize("name, kind, n, p", [
        ("pot-trig", "potential", 4, 2), ("pot-trig", "potential", 3, 3),
        ("conc-trig", "concentration", 4, 1), ("conc-trig", "concentration", 2, 2)])
    def test_solved_cases(self, tmp_path, name, kind, n, p):
        _case, mesh, dofmap, solution = _solved_case(name, n=n, p=p)
        _assert_writes_reference_bytes(tmp_path, mesh, dofmap, solution, kind)

    @pytest.mark.parametrize("p", [1, 2])
    def test_domain_with_negative_origin(self, tmp_path, p):
        mesh = build_rect_mesh(Rectangle(-1.3, 0.7, -0.1, 2.9), 5, 3)
        dofmap = build_dofmap(mesh, SpaceLayout(p=p), mesh.interior_facets())
        rng = np.random.default_rng(7)
        solution = _hand_solution(dofmap, rng.normal(size=dofmap.n_field),
                                  rng.normal(size=dofmap.n_flux) * 1e3,
                                  rng.random(2 * mesh.n_elems) * 1e-9)
        _assert_writes_reference_bytes(tmp_path, mesh, dofmap, solution,
                                       "concentration")

    def test_special_values(self, tmp_path):
        mesh = build_rect_mesh(UNIT, 3, 1)
        dofmap = build_dofmap(mesh, SpaceLayout(p=1), mesh.interior_facets())
        values = SPECIAL_VALUES + [-v for v in SPECIAL_VALUES]
        solution = _hand_solution(dofmap, values[:dofmap.n_field],
                                  values[:dofmap.n_flux],
                                  values[:2 * mesh.n_elems])
        _assert_writes_reference_bytes(tmp_path, mesh, dofmap, solution,
                                       "potential")
        text = (tmp_path / "indicators.csv").read_text()
        assert text.split("\n")[1:4] == ["0,-0.0,1e+16", "1,1e-05,5e-324",
                                          "2,1.7976931348623157e+308,0.0"]


class TestCsvWriters:
    def test_indicators_layout(self, tmp_path):
        indicators = np.array([[1.0, 2.0], [0.25, 0.0]])
        solution = Solution(field=np.zeros(1), flux=np.zeros(1),
                            trace=np.zeros(0), indicators=indicators,
                            eta=float(np.sqrt(indicators.sum())))
        path = tmp_path / "indicators.csv"
        write_indicators_csv(path, solution)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "element,eta_sq_riesz,eta_sq_fosls"
        assert lines[1] == "0,1.0,2.0"
        assert lines[2] == "1,0.25,0.0"

    def test_eoc_csv_round_trips_report(self, tmp_path):
        report = eoc_study("conc-trig", p=1, levels=2, base_n=2)
        path = tmp_path / "eoc.csv"
        write_eoc_csv(path, report)
        assert path.read_text() == report.to_csv_text()

    def test_infsup_layout(self, tmp_path):
        path = tmp_path / "infsup.csv"
        write_infsup_csv(path, [(0, 1, 6, 0.5), (1, 2, 21, 0.4), (2, 4, 66, 0.0),
                                (3, 8, 196, 0.0)], [0.8, 0.0, None])
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "level,n,dofs,alpha,ratio"
        assert lines[1] == "0,1,6,0.5,"
        assert lines[2] == "1,2,21,0.4,0.8"
        # the ratios are written as given; none over a zero constant
        assert lines[3:] == ["2,4,66,0.0,0.0", "3,8,196,0.0,"]


class TestReportJson:
    def test_round_trip_and_trailing_newline(self, tmp_path):
        report = {"command": "solve", "eta": 1.25e-3,
                  "dofs": {"field": 9, "flux": 8}}
        path = tmp_path / "report.json"
        write_report_json(path, report)
        text = path.read_text()
        assert text.endswith("}\n")
        assert json.loads(text) == report

    def test_deterministic_bytes(self, tmp_path):
        report = {"a": 0.1 + 0.2, "b": [1.0, 2.5]}
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        write_report_json(p1, report)
        write_report_json(p2, report)
        assert p1.read_bytes() == p2.read_bytes()
