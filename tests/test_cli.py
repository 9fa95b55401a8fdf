import json
import warnings

import pytest

from dpgfem.cli import main


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


BV_CONFIG = {"bv": {"k_bv": 2.0, "F": 3.0, "R_gas": 2.0, "T": 6.0,
                    "c_smax": 5.0, "c_e": 4.0, "c_s": 1.0,
                    "phi_e": 0.5, "phi_open": 0.25}}


class TestBvCommand:
    def test_reference_cell_constants(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BV_CONFIG)
        code, out = run_cli(capsys, ["bv", "--config", cfg,
                                     "--outdir", str(tmp_path / "out")])
        assert code == 0
        report = json.loads(out)
        assert report == {"command": "bv", "I_c": 24.0, "beta": 6.0,
                          "R_load": -4.5}
        on_disk = json.loads((tmp_path / "out" / "report.json").read_text())
        assert on_disk == report

    def test_missing_key_is_config_error(self, tmp_path, capsys):
        broken = {"bv": dict(BV_CONFIG["bv"])}
        del broken["bv"]["c_smax"]
        cfg = write_config(tmp_path, broken)
        code, out = run_cli(capsys, ["bv", "--config", cfg,
                                     "--outdir", str(tmp_path / "out")])
        assert code == 1
        err = json.loads(out)["error"]
        assert err["code"] == "config"
        assert "c_smax" in err["message"]

    def test_non_numeric_value_rejected(self, tmp_path, capsys):
        broken = {"bv": dict(BV_CONFIG["bv"], T="hot")}
        cfg = write_config(tmp_path, broken)
        code, out = run_cli(capsys, ["bv", "--config", cfg,
                                     "--outdir", str(tmp_path / "out")])
        assert code == 1
        assert json.loads(out)["error"]["code"] == "config"

    def test_expression_error_message_names_position_once(self, tmp_path,
                                                          capsys):
        broken = {"bv": dict(BV_CONFIG["bv"], phi_open="high")}
        cfg = write_config(tmp_path, broken)
        code, out = run_cli(capsys, ["bv", "--config", cfg,
                                     "--outdir", str(tmp_path / "out")])
        assert code == 1
        assert json.loads(out)["error"] == {
            "code": "config",
            "message": "syntax error at position 0: unknown identifier 'high'"}


class TestSolveCommand:
    def test_manufactured_quadratic_potential(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "manufactured": "pot-poly2",
            "mesh": {"nx": 4, "ny": 4},
            "discretization": {"p": 2},
        })
        outdir = tmp_path / "out"
        code, out = run_cli(capsys, ["solve", "--config", cfg,
                                     "--outdir", str(outdir)])
        assert code == 0
        for name in ("fields.vtk", "indicators.csv", "report.json"):
            assert (outdir / name).exists()
        report = json.loads(out)
        assert report["command"] == "solve"
        assert report["problem"] == "potential"
        assert report["manufactured"] == "pot-poly2"
        assert report["errors"]["e_field"] <= 1e-9
        assert report["eta"] <= 1e-7
        assert report["dofs"]["total"] == (report["dofs"]["field"]
                                           + report["dofs"]["flux"]
                                           + report["dofs"]["trace"])

    def test_explicit_concentration_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "problem": "concentration",
            "mesh": {"nx": 2, "ny": 2},
            "discretization": {"p": 1},
            "coefficients": {"D": 0.5, "dt": 0.1,
                             "c_prev": "x*y", "J": "0"},
        })
        code, out = run_cli(capsys, ["solve", "--config", cfg,
                                     "--outdir", str(tmp_path / "out")])
        assert code == 0
        report = json.loads(out)
        assert report["problem"] == "concentration"
        assert "manufactured" not in report
        assert report["eta"] > 0.0
        assert report["solver"]["levels"] == []

    def test_multigrid_levels_reported(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "manufactured": "pot-trig",
            "mesh": {"nx": 16, "ny": 16},
            "discretization": {"p": 2},
        })
        outdir = tmp_path / "out"
        code, out = run_cli(capsys, ["solve", "--config", cfg,
                                     "--outdir", str(outdir)])
        assert code == 0
        solver = json.loads(out)["solver"]
        assert solver["method"] == "pcg"
        assert solver["levels"][0] == 1825
        on_disk = json.loads((outdir / "report.json").read_text())
        assert on_disk["solver"]["levels"] == solver["levels"]

    def test_oversized_mesh_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "manufactured": "pot-trig",
            "mesh": {"nx": 100000, "ny": 100000},
        })
        code, out = run_cli(capsys, ["solve", "--config", cfg,
                                     "--outdir", str(tmp_path / "out")])
        assert code == 1
        err = json.loads(out)["error"]
        assert err["code"] == "config"
        assert "about 5e+10 trial dofs" in err["message"]
        assert "limit 2,000,000" in err["message"]

    def test_repeat_runs_bit_identical(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "manufactured": "conc-trig",
            "mesh": {"nx": 4, "ny": 4},
            "discretization": {"p": 1},
        })
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        code_a, stdout_a = run_cli(capsys, ["solve", "--config", cfg,
                                            "--outdir", str(out_a)])
        code_b, stdout_b = run_cli(capsys, ["solve", "--config", cfg,
                                            "--outdir", str(out_b)])
        assert code_a == code_b == 0
        assert stdout_a == stdout_b
        for name in ("fields.vtk", "indicators.csv", "report.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_nested_outdir_created(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "manufactured": "conc-poly2",
            "mesh": {"nx": 2, "ny": 2},
            "discretization": {"p": 2},
        })
        outdir = tmp_path / "deep" / "nested" / "dir"
        code, _ = run_cli(capsys, ["solve", "--config", cfg,
                                   "--outdir", str(outdir)])
        assert code == 0
        assert (outdir / "report.json").exists()


class TestConvergenceCommand:
    def test_quadratic_rate_on_trig_case(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "manufactured": "conc-trig",
            "discretization": {"p": 2},
            "levels": 2,
            "base_n": 4,
        })
        outdir = tmp_path / "out"
        code, out = run_cli(capsys, ["convergence", "--config", cfg,
                                     "--outdir", str(outdir)])
        assert code == 0
        report = json.loads(out)
        assert report["command"] == "convergence"
        assert report["case"] == "conc-trig"
        assert report["eoc_combined"][-1] >= 1.5
        csv_lines = (outdir / "eoc.csv").read_text().strip().split("\n")
        assert csv_lines[0].startswith("level,n,h,dofs")
        assert len(csv_lines) == 3

    def test_requires_manufactured_case(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"problem": "concentration"})
        code, out = run_cli(capsys, ["convergence", "--config", cfg,
                                     "--outdir", str(tmp_path / "out")])
        assert code == 1
        err = json.loads(out)["error"]
        assert err["code"] == "config"
        assert "manufactured" in err["message"]

    def test_oversized_finest_level_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"manufactured": "pot-trig",
                                      "levels": 30})
        code, out = run_cli(capsys, ["convergence", "--config", cfg,
                                     "--outdir", str(tmp_path / "out")])
        assert code == 1
        err = json.loads(out)["error"]
        assert err["code"] == "config"
        assert "4294967296 x 4294967296 mesh" in err["message"]
        assert "limit 2,000,000" in err["message"]


class TestInfsupCommand:
    def test_concentration_levels(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "problem": "concentration",
            "coefficients": {"D": 0.5, "dt": 0.5},
            "discretization": {"p": 1},
            "levels": 2,
            "base_n": 1,
        })
        outdir = tmp_path / "out"
        code, out = run_cli(capsys, ["infsup", "--config", cfg,
                                     "--outdir", str(outdir)])
        assert code == 0
        report = json.loads(out)
        assert [lvl["n"] for lvl in report["levels"]] == [1, 2]
        assert all(lvl["alpha"] > 0.0 for lvl in report["levels"])
        assert len(report["ratios"]) == 1
        csv_lines = (outdir / "infsup.csv").read_text().strip().split("\n")
        assert csv_lines[0] == "level,n,dofs,alpha,ratio"
        assert len(csv_lines) == 3

    def test_size_cap_reported_as_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "problem": "concentration",
            "coefficients": {"D": 0.5, "dt": 0.5},
            "discretization": {"p": 2},
            "levels": 4,
            "base_n": 4,
        })
        code, out = run_cli(capsys, ["infsup", "--config", cfg,
                                     "--outdir", str(tmp_path / "out")])
        assert code == 1
        err = json.loads(out)["error"]
        assert err["code"] == "config"
        assert "size cap" in err["message"]


class TestErrorHandling:
    def test_no_arguments_is_usage_error(self, capsys):
        code, out = run_cli(capsys, [])
        assert code == 2
        assert json.loads(out)["error"]["code"] == "usage"

    def test_unknown_command_is_usage_error(self, capsys):
        code, out = run_cli(capsys, ["frobnicate"])
        assert code == 2
        assert json.loads(out)["error"]["code"] == "usage"

    def test_missing_config_flag_is_usage_error(self, capsys):
        code, out = run_cli(capsys, ["solve"])
        assert code == 2
        assert json.loads(out)["error"]["code"] == "usage"

    def test_unreadable_config(self, tmp_path, capsys):
        code, out = run_cli(capsys, ["solve", "--config",
                                     str(tmp_path / "missing.json"),
                                     "--outdir", str(tmp_path / "out")])
        assert code == 1
        err = json.loads(out)["error"]
        assert err["code"] == "config"
        assert "cannot read config" in err["message"]

    def test_malformed_json_reports_location(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"problem": "concentration",}')
        code, out = run_cli(capsys, ["solve", "--config", str(path),
                                     "--outdir", str(tmp_path / "out")])
        assert code == 1
        err = json.loads(out)["error"]
        assert err["code"] == "config"
        assert "line" in err["message"]

    def test_non_object_config_rejected(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        code, out = run_cli(capsys, ["solve", "--config", str(path),
                                     "--outdir", str(tmp_path / "out")])
        assert code == 1
        assert json.loads(out)["error"]["code"] == "config"

    def test_invalid_partition_is_validation_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "problem": "potential",
            "boundary": {"left": "dirichlet", "right": "dirichlet",
                         "bottom": "dirichlet", "top": "dirichlet"},
        })
        code, out = run_cli(capsys, ["solve", "--config", cfg,
                                     "--outdir", str(tmp_path / "out")])
        assert code == 1
        err = json.loads(out)["error"]
        assert err["code"] == "validation"
        assert "invalid partition" in err["message"]

    def test_negative_diffusivity_is_validation_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "problem": "concentration",
            "mesh": {"nx": 2, "ny": 2},
            "coefficients": {"D": -1.0, "dt": 0.1},
        })
        code, out = run_cli(capsys, ["solve", "--config", cfg,
                                     "--outdir", str(tmp_path / "out")])
        assert code == 1
        err = json.loads(out)["error"]
        assert err["code"] == "validation"
        assert "D must be positive" in err["message"]

    def test_expression_syntax_error_reports_position(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "problem": "concentration",
            "mesh": {"nx": 2, "ny": 2},
            "coefficients": {"D": 0.5, "dt": 0.1, "c_prev": "x +"},
        })
        code, out = run_cli(capsys, ["solve", "--config", cfg,
                                     "--outdir", str(tmp_path / "out")])
        assert code == 1
        err = json.loads(out)["error"]
        assert err["code"] == "config"
        assert "position" in err["message"]

    @pytest.mark.parametrize("problem, coefficients, code, text", [
        ("concentration", {"D": 0.5, "dt": 0.1, "c_prev": "exp(1000*x)"},
         "config", "position"),
        ("concentration", {"D": 0.5, "dt": 0.1, "c_prev": "1e308*10"},
         "validation", "c_prev"),
        ("potential", {"beta": float("nan")}, "validation", "beta"),
        ("concentration", {"D": 0.5, "dt": 0.1, "c_prev": "1 + sin(1e308*10)"},
         "config", "domain error at position 4: sin of a non-finite value"),
        # positive, so accepted by validation, but 1/kappa and 1/(dt*D) overflow
        ("potential", {"kappa": 1e-320, "I": 1.0}, "solver", "non-finite"),
        ("concentration", {"D": 1e-320, "dt": 0.1, "c_prev": 1.0}, "solver",
         "non-finite"),
        # dt*D overflows, or underflows to zero
        ("concentration", {"D": 1e308, "dt": 1e308, "c_prev": 1.0}, "validation",
         "eps = dt*D must be finite and nonzero (dt*D = inf)"),
        ("concentration", {"D": 1e-200, "dt": 1e-200, "c_prev": 1.0}, "validation",
         "eps = dt*D must be finite and nonzero (dt*D = 0)"),
    ])
    def test_non_finite_coefficient_data(self, tmp_path, capsys, problem,
                                         coefficients, code, text):
        cfg = write_config(tmp_path, {
            "problem": problem,
            "mesh": {"nx": 2, "ny": 2},
            "coefficients": coefficients,
        })
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code_, out = run_cli(capsys, ["solve", "--config", cfg,
                                          "--outdir", str(tmp_path / "out")])
        assert code_ == 1
        err = json.loads(out)["error"]
        assert err["code"] == code
        assert text in err["message"]
        # the structured error alone reports the problem
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("problem, coefficients, nx, ny, p", [
        ("potential", {"I": 1e300}, 3, 2, 2),
        ("potential", {"Sx": 1e300}, 3, 2, 2),
        ("potential", {"R": 1e300}, 3, 2, 2),
        ("concentration", {"D": 0.5, "dt": 0.1, "c_prev": 1e300}, 3, 2, 2),
        ("concentration", {"D": 0.5, "dt": 0.1, "J": 1e300}, 3, 2, 2),
        # the CG path, whose inner products of this load would overflow
        ("potential", {"I": 3.2e153}, 20, 20, 2),
    ])
    def test_overflowing_data_ends_in_finite_report_or_solver_error(
            self, tmp_path, capsys, problem, coefficients, nx, ny, p):
        cfg = write_config(tmp_path, {
            "problem": problem,
            "mesh": {"nx": nx, "ny": ny},
            "discretization": {"p": p},
            "coefficients": coefficients,
        })
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out = run_cli(capsys, ["solve", "--config", cfg,
                                         "--outdir", str(tmp_path / "out")])
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        if code == 0:
            for text in (out, (tmp_path / "out" / "report.json").read_text()):
                json.loads(text, parse_constant=_reject_constant)
        else:
            assert json.loads(out)["error"]["code"] == "solver"

    @pytest.mark.parametrize("problem, coefficients", [
        ("potential", {"I": 1e308}),
        ("concentration", {"c_prev": 1e308, "D": 1.0, "dt": 1.0}),
    ])
    def test_data_at_the_overflow_threshold_is_a_quiet_solver_error(
            self, tmp_path, capsys, problem, coefficients):
        # the condensed loads overflow; the structured error reports it
        cfg = write_config(tmp_path, {
            "problem": problem,
            "mesh": {"nx": 3, "ny": 2},
            "discretization": {"p": 2},
            "coefficients": coefficients,
        })
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out = run_cli(capsys, ["solve", "--config", cfg,
                                         "--outdir", str(tmp_path / "out")])
        assert code == 1
        assert json.loads(out)["error"]["code"] == "solver"

    def test_singular_test_gram_is_solver_error(self, tmp_path, capsys):
        # at eps = dt*D = 1e14 the mass term of the test Gram falls below
        # rounding, and its Cholesky factorization breaks down
        cfg = write_config(tmp_path, {
            "problem": "concentration",
            "mesh": {"nx": 3, "ny": 3},
            "discretization": {"p": 2},
            "coefficients": {"D": 1e14, "dt": 1.0, "c_prev": 1.0},
        })
        code, out = run_cli(capsys, ["solve", "--config", cfg,
                                     "--outdir", str(tmp_path / "out")])
        assert code == 1
        err = json.loads(out)["error"]
        assert err["code"] == "solver"
        assert "test Gram" in err["message"]

    def test_degenerate_geometry_gram_is_solver_error(self, tmp_path, capsys):
        # at dx = 2.5e-301 the mass term of the geometry Gram falls below
        # the rounding of its gradient terms
        cfg = write_config(tmp_path, {
            "problem": "potential",
            "mesh": {"nx": 4, "ny": 4, "x0": 0, "x1": 1e-300},
        })
        code, out = run_cli(capsys, ["solve", "--config", cfg,
                                     "--outdir", str(tmp_path / "out")])
        assert code == 1
        err = json.loads(out)["error"]
        assert err["code"] == "solver"
        assert "geometry Gram" in err["message"]

    def test_unreachable_solver_tol_is_solver_error(self, tmp_path, capsys):
        # CG's updated residual underflows below 1e-300; the true one stalls
        # near 1e-15
        cfg = write_config(tmp_path, {
            "manufactured": "pot-trig",
            "mesh": {"nx": 16, "ny": 16},
            "discretization": {"p": 2},
            "solver_tol": 1e-300,
        })
        code, out = run_cli(capsys, ["solve", "--config", cfg,
                                     "--outdir", str(tmp_path / "out")])
        assert code == 1
        err = json.loads(out)["error"]
        assert err["code"] == "solver"
        assert "true residual" in err["message"]

    @pytest.mark.parametrize("c_prev", [
        "+".join(["x"] * 3000),
        "-" * 3000 + "x",
        "(" * 3000 + "x" + ")" * 3000,
    ], ids=["long-sum", "minus-chain", "parentheses"])
    def test_deep_nesting_is_config_error(self, tmp_path, capsys, c_prev):
        cfg = write_config(tmp_path, {
            "problem": "concentration",
            "mesh": {"nx": 2, "ny": 2},
            "coefficients": {"D": 0.5, "dt": 0.1, "c_prev": c_prev},
        })
        code, out = run_cli(capsys, ["solve", "--config", cfg,
                                     "--outdir", str(tmp_path / "out")])
        assert code == 1
        err = json.loads(out)["error"]
        assert err["code"] == "config"
        assert "syntax error at position" in err["message"]
        assert "nesting deeper than 100 levels" in err["message"]

    @pytest.mark.parametrize("value", [None, [1.0, 2.0], {"x": 1.0}, True])
    def test_coefficient_of_wrong_json_type(self, tmp_path, capsys, value):
        cfg = write_config(tmp_path, {
            "problem": "potential",
            "mesh": {"nx": 2, "ny": 2},
            "coefficients": {"I": value},
        })
        code, out = run_cli(capsys, ["solve", "--config", cfg,
                                     "--outdir", str(tmp_path / "out")])
        assert code == 1
        err = json.loads(out)["error"]
        assert err["code"] == "config"
        assert "coefficient 'I' must be a number or an expression string" in (
            err["message"])

    @pytest.mark.parametrize("missing", ["D", "dt"])
    def test_concentration_requires_D_and_dt(self, tmp_path, capsys, missing):
        coefficients = {"D": 0.5, "dt": 0.1, "c_prev": 1.0}
        del coefficients[missing]
        cfg = write_config(tmp_path, {
            "problem": "concentration",
            "mesh": {"nx": 2, "ny": 2},
            "coefficients": coefficients,
        })
        code, out = run_cli(capsys, ["solve", "--config", cfg,
                                     "--outdir", str(tmp_path / "out")])
        assert code == 1
        err = json.loads(out)["error"]
        assert err["code"] == "config"
        assert f"missing key(s): {missing!r}" in err["message"]

    def test_concentration_config_emits_no_warning(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "problem": "concentration",
            "mesh": {"nx": 2, "ny": 2},
            "coefficients": {"D": 0.5, "dt": 0.1, "c_prev": 1.0},
        })
        # pyproject.toml filters the D/dt advisory; record it regardless
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _ = run_cli(capsys, ["solve", "--config", cfg,
                                       "--outdir", str(tmp_path / "out")])
        assert code == 0
        assert not [w for w in caught if issubclass(w.category, UserWarning)]

    def test_beta_checked_where_assembly_samples_it(self, tmp_path, capsys):
        # positive at the 4 Gauss points per facet of validate_problem,
        # -0.01 at the facet midpoint, a point of the p = 1 assembly rule
        cfg = write_config(tmp_path, {
            "problem": "potential",
            "mesh": {"nx": 1, "ny": 1},
            "coefficients": {"beta": "1000*(x-0.5)^2 - 0.01"},
        })
        code, out = run_cli(capsys, ["solve", "--config", cfg,
                                     "--outdir", str(tmp_path / "out")])
        assert code == 1
        err = json.loads(out)["error"]
        assert err["code"] == "validation"
        assert "beta not positive" in err["message"]

    def test_unknown_manufactured_case(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"manufactured": "conc-cubic"})
        code, out = run_cli(capsys, ["solve", "--config", cfg,
                                     "--outdir", str(tmp_path / "out")])
        assert code == 1
        err = json.loads(out)["error"]
        assert err["code"] == "config"
        assert "unknown manufactured case" in err["message"]

    def test_invalid_degree(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "manufactured": "conc-poly2",
            "discretization": {"p": 0},
        })
        code, out = run_cli(capsys, ["solve", "--config", cfg,
                                     "--outdir", str(tmp_path / "out")])
        assert code == 1
        assert json.loads(out)["error"]["code"] == "config"

    @pytest.mark.parametrize("command, cfg, key", [
        ("solve", {"manufactured": "pot-trig", "mesh": {"nx": 2, "ny": 2},
                   "solvr_tol": 1e-12}, "'solvr_tol'"),
        ("solve", {"manufactured": "pot-trig",
                   "mesh": {"nx": 2, "ny": 2, "Nz": 2}}, "'Nz'"),
        ("solve", {"problem": "concentration", "mesh": {"nx": 2, "ny": 2},
                   "coefficients": {"D": 0.5, "kappa": 2.0}}, "'kappa'"),
        ("convergence", {"manufactured": "pot-trig", "levels": 1,
                         "base_n": 2, "mesh": {"nx": 2}}, "'mesh'"),
        ("bv", {"bv": dict(BV_CONFIG["bv"], phi0=0.1)}, "'phi0'"),
    ])
    def test_unknown_config_key(self, tmp_path, capsys, command, cfg, key):
        # a misspelt key must not fall back to a default silently
        path = write_config(tmp_path, cfg)
        code, out = run_cli(capsys, [command, "--config", path,
                                     "--outdir", str(tmp_path / "out")])
        assert code == 1
        err = json.loads(out)["error"]
        assert err["code"] == "config"
        assert key in err["message"]

    def test_unknown_discretization_key(self, tmp_path, capsys):
        # a key the discretization block does not know (quad_order was
        # removed) must not be ignored silently
        cfg = write_config(tmp_path, {
            "manufactured": "pot-trig",
            "mesh": {"nx": 2, "ny": 2},
            "discretization": {"p": 1, "quad_order": 3},
        })
        code, out = run_cli(capsys, ["solve", "--config", cfg,
                                     "--outdir", str(tmp_path / "out")])
        assert code == 1
        err = json.loads(out)["error"]
        assert err["code"] == "config"
        assert "'quad_order'" in err["message"]
