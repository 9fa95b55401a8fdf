import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

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


# a 401-digit integer: valid JSON, beyond every float
HUGE = 10 ** 400
NAN, INF = float("nan"), float("inf")
ADVISORY = "D or dt is not < 1; error bounds assume small values"
CONC = {"problem": "concentration", "coefficients": {"D": 0.5, "dt": 0.1},
        "mesh": {"nx": 2, "ny": 2}}
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

    @pytest.mark.parametrize("key, value", [
        ("c_e", float("nan")), ("phi_e", float("nan")), ("phi_open", float("nan")),
        ("c_s", float("nan")), ("phi_e", float("-inf")), ("k_bv", float("inf")),
        ("c_smax", float("inf")), ("k_bv", float("nan")), ("t_plus", float("nan")),
    ])
    def test_non_finite_number_is_config_error(self, tmp_path, capsys, key,
                                               value):
        cfg = write_config(tmp_path, {"bv": dict(BV_CONFIG["bv"], **{key: value})})
        code, out = run_cli(capsys, ["bv", "--config", cfg,
                                     "--outdir", str(tmp_path / "out")])
        assert code == 1
        assert json.loads(out)["error"] == {
            "code": "config", "message": f"bv key {key!r} must be finite"}

    @pytest.mark.parametrize("constants, key", [
        ({"k_bv": 1e300, "F": 1e300}, "I_c"),
        ({"k_bv": 1.0, "F": 1e300}, "beta"),
        ({"k_bv": 1.0, "F": 1e150, "phi_e": -1e10}, "R_load"),
    ])
    def test_non_finite_result_is_config_error(self, tmp_path, capsys,
                                               constants, key):
        # finite constants whose products overflow
        block = {"k_bv": 1.0, "F": 1.0, "R_gas": 1, "T": 1, "c_smax": 2, "c_e": 1,
                 "c_s": 1, "phi_e": 0, **constants}
        outdir = tmp_path / "out"
        cfg = write_config(tmp_path, {"bv": block})
        code, out = run_cli(capsys, ["bv", "--config", cfg, "--outdir", str(outdir)])
        assert code == 1
        assert json.loads(out)["error"] == {
            "code": "config", "message": f"bv result {key!r} is not finite"}
        assert not (outdir / "report.json").exists()

    @pytest.mark.parametrize("value", [[0.25], {"x": 0.25}, None, True])
    def test_open_circuit_potential_of_wrong_json_type(self, tmp_path, capsys,
                                                       value):
        cfg = write_config(tmp_path, {"bv": dict(BV_CONFIG["bv"], phi_open=value)})
        code, out = run_cli(capsys, ["bv", "--config", cfg,
                                     "--outdir", str(tmp_path / "out")])
        assert code == 1
        assert json.loads(out)["error"] == {
            "code": "config",
            "message": "bv key 'phi_open' must be a number or an expression string"}


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
        assert solver["levels"] == [1792, 448]
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

    @pytest.mark.parametrize("command, cfg, text", [
        ("solve", {"manufactured": "pot-trig", "mesh": {"nx": 10 ** 200, "ny": 10 ** 200}},
         "about 5e+400 trial dofs"),
        ("convergence", {"manufactured": "pot-trig", "levels": 1, "base_n": 10 ** 200},
         "about 5e+400 trial dofs"),
    ], ids=["solve", "convergence"])
    def test_mesh_beyond_the_float_range_is_config_error(self, tmp_path, capsys,
                                                         command, cfg, text):
        # a float holds nx, but not the dof estimate
        code, out = run_cli(capsys, [command, "--config", write_config(tmp_path, cfg),
                                     "--outdir", str(tmp_path / "out")])
        assert code == 1
        err = json.loads(out)["error"]
        assert err["code"] == "config"
        assert text in err["message"]

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


    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None, [False]])
    def test_with_oracle_must_be_a_boolean(self, tmp_path, capsys, value):
        cfg = write_config(tmp_path, {"manufactured": "conc-poly2", "levels": 1,
                                      "base_n": 1, "with_oracle": value})
        code, out = run_cli(capsys, ["convergence", "--config", cfg,
                                     "--outdir", str(tmp_path / "out")])
        assert code == 1
        assert json.loads(out)["error"] == {
            "code": "config", "message": "'with_oracle' must be true or false"}
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("value", [True, False])
    def test_with_oracle_boolean(self, tmp_path, capsys, value):
        cfg = write_config(tmp_path, {"manufactured": "conc-poly2", "levels": 1,
                                      "base_n": 1, "with_oracle": value})
        code, out = run_cli(capsys, ["convergence", "--config", cfg,
                                     "--outdir", str(tmp_path / "out")])
        assert code == 0
        assert ("oracle_e_field" in json.loads(out)) is value


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

    @pytest.mark.parametrize("coefficients", [{"D": 1e150, "dt": 1e150},
                                              {"D": 1e-300, "dt": 1e-10}])
    def test_zero_constant_has_no_ratio(self, tmp_path, capsys, coefficients):
        # alpha is 0.0 on both levels: the ratio is null, as an EOC over a
        # zero error is
        cfg = write_config(tmp_path, {"problem": "concentration",
                                      "coefficients": coefficients,
                                      "levels": 2, "base_n": 1})
        outdir = tmp_path / "out"
        code, out = run_cli(capsys, ["infsup", "--config", cfg,
                                     "--outdir", str(outdir)])
        assert code == 0
        report = json.loads(out, parse_constant=_reject_constant)
        assert [lvl["alpha"] for lvl in report["levels"]] == [0.0, 0.0]
        assert report["ratios"] == [None]
        assert (outdir / "infsup.csv").read_text().split("\n")[2].endswith(",0.0,")

    @pytest.mark.parametrize("coefficients", [{"kappa": 1e-300}, {"beta": 1e300}])
    def test_numerical_breakdown_is_solver_error(self, tmp_path, capsys,
                                                 coefficients):
        # as `solve` on the same data: the DPG matrix is not finite
        cfg = write_config(tmp_path, {"problem": "potential",
                                      "coefficients": coefficients,
                                      "levels": 2, "base_n": 1})
        code, out = run_cli(capsys, ["infsup", "--config", cfg,
                                     "--outdir", str(tmp_path / "out")])
        assert code == 1
        assert json.loads(out)["error"] == {
            "code": "solver", "message": "non-finite DPG matrix in the inf-sup eigensolve"}

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


    @pytest.mark.parametrize("problem, coefficients, text", [
        ("potential", {"kappa": 0.0}, "kappa must be positive"),
        ("potential", {"kappa": -1.0}, "kappa must be positive"),
        ("concentration", {"D": -1.0, "dt": 0.1}, "D must be positive"),
    ])
    def test_invalid_problem_is_the_validation_error_of_solve(
            self, tmp_path, capsys, problem, coefficients, text):
        errors = []
        for command, extra in (("solve", {"mesh": {"nx": 2, "ny": 2}}),
                               ("infsup", {"levels": 1, "base_n": 2})):
            cfg = write_config(tmp_path, {"problem": problem,
                                          "coefficients": coefficients, **extra})
            code, out = run_cli(capsys, [command, "--config", cfg,
                                         "--outdir", str(tmp_path / command)])
            assert code == 1
            errors.append(json.loads(out)["error"])
        assert errors[1] == errors[0]
        assert errors[0]["code"] == "validation"
        assert text in errors[0]["message"]


    def test_invalid_coefficient_and_partition_are_both_listed(self, tmp_path,
                                                               capsys):
        # kappa < 0, and the top and bottom sides Neumann leave no Robin part
        for command, extra in (("solve", {"mesh": {"nx": 2, "ny": 2}}),
                               ("infsup", {"levels": 1, "base_n": 2})):
            cfg = write_config(tmp_path, {
                "problem": "potential", "coefficients": {"kappa": -1.0},
                "boundary": {"bottom": "neumann", "top": "neumann"}, **extra})
            code, out = run_cli(capsys, [command, "--config", cfg,
                                         "--outdir", str(tmp_path / command)])
            assert code == 1
            assert json.loads(out)["error"] == {
                "code": "validation",
                "message": "kappa must be positive; invalid partition: potential "
                           "problem requires non-empty Neumann and Robin boundary "
                           "parts"}


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

    @pytest.mark.parametrize("command, key, value", [
        *[(command, "problem", value) for command in ("solve", "infsup")
          for value in (["potential"], {"potential": 1})],
        *[(command, "manufactured", value)
          for command in ("solve", "convergence", "infsup")
          for value in (["pot-trig"], {"pot-trig": 1})],
    ])
    def test_unhashable_problem_name_is_config_error(self, tmp_path, capsys,
                                                     command, key, value):
        cfg = write_config(tmp_path, {key: value})
        code, out = run_cli(capsys, [command, "--config", cfg,
                                     "--outdir", str(tmp_path / "out")])
        assert code == 1
        assert json.loads(out)["error"]["code"] == "config"

    @pytest.mark.parametrize("command, cfg", [
        # the element area 2.5e399 overflows the enriched Gram
        *[(command, {"problem": "potential",
                     "mesh": {"nx": 2, "ny": 2, "x1": 1e200, "y1": 1e200}})
          for command in ("solve", "infsup")],
        # eps = dt*D = 5e307 is finite, but the test Gram's sum overflows
        *[(command, dict(CONC, coefficients={"D": 0.5, "dt": 1e308}))
          for command in ("solve", "infsup")],
    ], ids=["solve", "infsup", "test-gram-solve", "test-gram-infsup"])
    def test_overflowing_element_area_is_quiet_solver_error(self, tmp_path,
                                                            capsys, command, cfg):
        expected = [ADVISORY] if "coefficients" in cfg else None
        path = write_config(tmp_path, {
            **cfg, **({"levels": 1, "base_n": 2} if command == "infsup" else {})})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, "--config", path,
                         "--outdir", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 1
        out = json.loads(captured.out)
        assert out["error"]["code"] == "solver"
        # the advisory on D or dt >= 1 alone; no floating-point warning
        assert out.get("warnings") == expected
        assert not caught
        assert captured.err == ""

    @pytest.mark.parametrize("coefficients, status", [
        ({"D": 2, "dt": 0.1}, 0),
        ({"D": 0.5, "dt": 1e308}, 1),
    ], ids=["D-2", "dt-1e308"])
    def test_warning_is_listed_in_the_json_output(self, tmp_path, capsys,
                                                  coefficients, status):
        cfg = write_config(tmp_path, dict(CONC, coefficients=coefficients))
        code = main(["solve", "--config", cfg, "--outdir", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == status
        assert captured.err == ""
        out = json.loads(captured.out)
        assert out["warnings"] == [ADVISORY]
        if status == 0:
            report = (tmp_path / "out" / "report.json").read_text()
            assert json.loads(report) == out
        else:
            assert set(out) == {"error", "warnings"}
            assert out["error"]["code"] == "solver"

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
        ("potential", {"beta": float("nan")}, "config", "coefficient 'beta' must be finite"),
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
        # the structured error alone reports the problem, beside the D/dt
        # advisory of a large time step
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert json.loads(out).get("warnings") in (None, [ADVISORY])

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
        assert "warnings" not in json.loads(out)
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
        out = json.loads(out)
        assert out["error"]["code"] == "solver"
        # the D/dt advisory of the concentration case, and nothing else
        assert out.get("warnings") in (None, [ADVISORY])

    def test_huge_source_over_tiny_kappa_is_a_quiet_solver_error(self, tmp_path,
                                                                 capsys):
        # the least-squares source shift S / kappa overflows in the element
        # kernels (Dirichlet left, Neumann right, Robin bottom and top)
        cfg = write_config(tmp_path, {
            "problem": "potential",
            "mesh": {"nx": 3, "ny": 2},
            "discretization": {"p": 2},
            "coefficients": {"kappa": 1e-300, "Sx": "1e300*x"},
        })
        code, out = run_cli(capsys, ["solve", "--config", cfg,
                                     "--outdir", str(tmp_path / "out")])
        assert code == 1
        assert json.loads(out) == {"error": {
            "code": "solver", "message": "non-finite system: element 0 has inf or "
                                         "NaN entries in its matrix or load"}}

    def test_huge_source_is_a_quiet_solver_error(self, tmp_path, capsys):
        # the condensed load and its sum into the right-hand side overflow
        # (Dirichlet left, Neumann right, Robin bottom and top)
        cfg = write_config(tmp_path, {
            "problem": "potential",
            "mesh": {"nx": 3, "ny": 2},
            "discretization": {"p": 2},
            "coefficients": {"Sx": "1e308*x"},
        })
        code, out = run_cli(capsys, ["solve", "--config", cfg,
                                     "--outdir", str(tmp_path / "out")])
        assert code == 1
        assert json.loads(out) == {"error": {
            "code": "solver", "message": "non-finite system: element 1 has inf or "
                                         "NaN entries in its matrix or right-hand-side rows"}}

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

    @pytest.mark.parametrize("command, cfg", [
        ("solve", dict(CONC, mesh={"nx": HUGE})),
        ("solve", dict(CONC, mesh={"x1": HUGE})),
        ("solve", dict(CONC, coefficients={"D": HUGE, "dt": 0.1})),
        ("solve", dict(CONC, coefficients={"D": 0.5, "dt": 0.1, "c_prev": HUGE})),
        ("solve", {"problem": "potential", "coefficients": {"kappa": HUGE}}),
        ("solve", {"problem": "potential", "solver_tol": HUGE}),
        ("convergence", {"manufactured": "pot-trig", "base_n": HUGE}),
        ("bv", {"bv": dict(BV_CONFIG["bv"], k_bv=HUGE)}),
        ("bv", {"bv": dict(BV_CONFIG["bv"], phi_e=HUGE)}),
        ("bv", {"bv": dict(BV_CONFIG["bv"], phi_open=HUGE)}),
    ], ids=["nx", "x1", "D", "c_prev", "kappa", "solver_tol", "base_n", "k_bv",
            "phi_e", "phi_open"])
    def test_integer_beyond_the_float_range_is_config_error(self, tmp_path, capsys,
                                                            command, cfg):
        code, out = run_cli(capsys, [command, "--config", write_config(tmp_path, cfg),
                                     "--outdir", str(tmp_path / "out")])
        assert code == 1
        assert json.loads(out)["error"] == {
            "code": "config",
            "message": "integer of 401 characters is beyond the float range"}

    @pytest.mark.parametrize("tol", [float("nan"), 0.0, -1e-10, float("-inf"), "1e-10",
                                     True])
    def test_solver_tol_must_be_positive(self, tmp_path, capsys, tol):
        cfg = write_config(tmp_path, {"manufactured": "pot-trig",
                                      "mesh": {"nx": 2, "ny": 2}, "solver_tol": tol})
        code, out = run_cli(capsys, ["solve", "--config", cfg,
                                     "--outdir", str(tmp_path / "out")])
        assert code == 1
        assert json.loads(out)["error"] == {
            "code": "config", "message": "'solver_tol' must be a positive number"}

    @pytest.mark.parametrize("commands, cfg, message", [
        # json.dumps writes the non-standard NaN and Infinity literals that json reads
        (("solve", "infsup"), {"problem": "potential", "coefficients": {"kappa": NAN}},
         "coefficient 'kappa' must be finite"),
        (("solve", "infsup"), {"problem": "potential", "coefficients": {"kappa": INF}},
         "coefficient 'kappa' must be finite"),
        (("solve", "infsup"), {"problem": "potential", "coefficients": {"kappa": "2"}},
         "coefficient 'kappa' must be a number"),
        (("solve", "infsup"), dict(CONC, coefficients={"D": "0.5", "dt": 0.1}),
         "coefficient 'D' must be a number"),
        (("solve", "infsup"), {"problem": "potential", "mesh": {"x1": INF}},
         "'x1' must be finite"),
        (("solve", "infsup"), {"problem": "potential", "mesh": {"x0": -INF}},
         "'x0' must be finite"),
        # the mesh block is read even where a manufactured case sets the domain
        (("solve", "infsup"), {"manufactured": "pot-trig", "mesh": {"y1": INF}},
         "'y1' must be finite"),
        (("solve", "infsup"), {"manufactured": "pot-trig", "mesh": {"y0": "0"}},
         "'y0' must be a number"),
        # finite bounds whose width overflows
        (("solve", "infsup"), {"problem": "potential", "mesh": {"x0": -1e308, "x1": 1e308}},
         "rectangle too large: its width (inf) and height (1) must be finite"),
        (("solve", "convergence"), {"manufactured": "pot-trig", "solver_tol": INF},
         "'solver_tol' must be finite"),
        (("solve", "infsup"), {"problem": "potential", "boundary": ["robin"]},
         "'boundary' must be an object"),
        (("solve", "infsup"), {"manufactured": "pot-trig", "mesh": [2, 2]},
         "'mesh' must be an object"),
        (("bv",), {"bv": [1.0]}, "'bv' must be an object"),
    ], ids=["kappa-nan", "kappa-inf", "kappa-string", "D-string", "x1-inf", "x0-minus-inf",
            "manufactured-y1-inf", "manufactured-y0-string", "width-overflow",
            "solver_tol-inf", "boundary-list", "mesh-list", "bv-list"])
    def test_config_value_of_the_wrong_kind_is_one_config_error(
            self, tmp_path, capsys, commands, cfg, message):
        for command in commands:
            extra = {"levels": 1, "base_n": 2} if command in ("infsup", "convergence") else {}
            path = write_config(tmp_path, {**cfg, **extra})
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main([command, "--config", path,
                             "--outdir", str(tmp_path / command)])
            captured = capsys.readouterr()
            assert code == 1
            assert json.loads(captured.out) == {"error": {"code": "config",
                                                          "message": message}}
            assert not caught
            assert captured.err == ""

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
            code, out = run_cli(capsys, ["solve", "--config", cfg,
                                         "--outdir", str(tmp_path / "out")])
        assert code == 0
        assert not [w for w in caught if issubclass(w.category, UserWarning)]
        assert "warnings" not in json.loads(out)

    def test_beta_checked_where_assembly_samples_it(self, tmp_path, capsys):
        # negative only near the facet midpoint, a node of the 3-point rule
        # on which p = 1 assembles
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


class TestOneProcess:
    SRC = Path(__file__).resolve().parents[1] / "src"

    def _outputs(self, outdir):
        return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}

    def test_calls_in_one_process_match_fresh_processes(self, tmp_path, capsys):
        # the parser is built once per process; calls that share it, with
        # other commands and configs, print and write what fresh ones do
        conc = write_config(tmp_path, dict(
            CONC, coefficients={"D": 0.5, "dt": 0.1,
                                "c_prev": "2*(1 + pi^2)*cos(pi*x)", "J": 0.0}))
        bv = write_config(tmp_path, BV_CONFIG, "bv.json")
        out = tmp_path / "out"
        calls = [["solve", "--config", conc, "--outdir", str(out)],
                 ["bv", "--config", bv, "--outdir", str(out)],
                 ["solve", "--outdir", str(out)],
                 ["frobnicate"],
                 ["convergence", "--config", conc, "--outdir", str(out)]]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(self.SRC), os.environ.get("PYTHONPATH")])))
        fresh = []
        for argv in calls:
            out.mkdir(exist_ok=True)
            run = subprocess.run([sys.executable, "-m", "dpgfem.cli", *argv],
                                 capture_output=True, text=True, env=env,
                                 timeout=120)
            fresh.append((run.returncode, run.stdout, self._outputs(out)))
            for path in out.iterdir():
                path.unlink()
        assert [code for code, _, _ in fresh] == [0, 0, 2, 2, 1]
        for argv, want in zip(calls, fresh):
            out.mkdir(exist_ok=True)
            code, stdout = run_cli(capsys, argv)
            assert (code, stdout, self._outputs(out)) == want
            for path in out.iterdir():
                path.unlink()
