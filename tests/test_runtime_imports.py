"""The CLI runs on numpy alone: no command loads scipy.

Every command runs through `dpgfem.cli.main` in one fresh interpreter,
which then reports the `scipy` modules it holds. scipy stays a test
dependency (the parity tests use it as an oracle) and serves the
`GlobalSystem.matrix` export, which no command reads.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import contextlib, io, json, sys
import dpgfem.cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(dpgfem.cli.main(argv))
print(json.dumps({"codes": codes, "scipy": sorted(
    m for m in sys.modules if m == "scipy" or m.startswith("scipy."))}))
"""

CONFIGS = {
    # one factored level (465 rows); V-cycle down to a factored 8^2 level (1825 rows)
    "solve": [{"manufactured": "pot-trig", "mesh": {"nx": 8, "ny": 8},
               "discretization": {"p": 2}},
              {"manufactured": "pot-trig", "mesh": {"nx": 16, "ny": 16},
               "discretization": {"p": 2}},
              # diagonal PCG (1201 rows)
              {"problem": "concentration",
               "coefficients": {"D": 0.5, "dt": 0.1,
                                "c_prev": "cos(pi*x)*cos(pi*y)", "J": 0.0},
               "mesh": {"nx": 20, "ny": 20}}],
    "convergence": [{"manufactured": "pot-trig", "discretization": {"p": 1},
                     "levels": 2, "base_n": 4, "with_oracle": True}],
    "infsup": [{"problem": "concentration", "coefficients": {"D": 0.5, "dt": 0.5},
                "discretization": {"p": 1}, "levels": 2, "base_n": 1}],
    "bv": [{"bv": {"k_bv": 2.0, "F": 3.0, "R_gas": 2.0, "T": 6.0, "c_smax": 5.0,
                   "c_e": 4.0, "c_s": 1.0, "phi_e": 0.5, "phi_open": 0.25}}],
}


def test_cli_commands_load_no_scipy(tmp_path):
    calls = []
    for command, configs in CONFIGS.items():
        for i, cfg in enumerate(configs):
            path = tmp_path / f"{command}{i}.json"
            path.write_text(json.dumps(cfg))
            calls.append([command, "--config", str(path),
                          "--outdir", str(tmp_path / f"{command}{i}")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(calls)],
                         capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["codes"] == [0] * len(calls)
    assert result["scipy"] == []
