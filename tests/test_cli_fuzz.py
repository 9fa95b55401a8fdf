"""Whole `solve` and `infsup` configs of both problem kinds, drawn at random.

Every run must end in a report of strict JSON (no NaN or Infinity) or in a
structured error whose code is not `internal`, and a rerun must write a
byte-identical `report.json`. `solve` meshes run from 1 x 1 to 20 x 20 at
p = 1..3, odd and even, so potential systems cross DENSE_LIMIT into the
multigrid path, including hierarchies whose coarsest level is smoothed
only. `infsup` runs 1 or 2 levels from a 1 x 1 or 2 x 2 mesh at p = 1, 2,
within INFSUP_DOF_CAP. Coefficients are numbers or strings of the README
grammar, some of which divide by zero or overflow. An optional `boundary`
map tags any of the four sides Dirichlet, Neumann or Robin, so partitions
invalid for the problem kind are drawn too. Some of the configs then
give one key, at the top level or in a block, a value of a wrong JSON type:
a list, an object, null, a boolean, NaN, +-Infinity or a numeric string.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dpgfem.cli import main

NUMBERS = [0.0, 1.0, -1.0, 0.5, 1e-3, 2.0, 1e300]
EXPRESSIONS = [
    "1 + x/2", "sin(pi*x)*cos(pi*y)", "exp(x*y) - 1", "sqrt(x^2 + y^2)",
    "ln(2 + x)", "abs(x - 0.5)", "-2^2 + 5*y", "2.5E-1",
    "1/(x - x)",            # division by zero
    "exp(1000*x)",          # overflow
    "1e308*10",             # an infinite value
    "ln(0 - y)",            # out of domain
]
POSITIVE = [0.5, 0.1, 1e-3, 2.0]
DATA = st.one_of(st.sampled_from(NUMBERS), st.sampled_from(EXPRESSIONS))

CONCENTRATION = st.fixed_dictionaries(
    {"D": st.sampled_from(POSITIVE + [0.0, -1.0]),
     "dt": st.sampled_from(POSITIVE + [0.0, -1.0])},
    optional={"c_prev": DATA, "J": DATA})
POTENTIAL = st.fixed_dictionaries(
    {}, optional={"kappa": st.sampled_from(POSITIVE + [0.0, -1.0]),
                  "beta": DATA, "Sx": DATA, "Sy": DATA, "I": DATA, "R": DATA})

BOUNDARY = st.fixed_dictionaries({}, optional={
    side: st.sampled_from(["dirichlet", "neumann", "robin"])
    for side in ("left", "right", "bottom", "top")})

PROBLEMS = st.one_of(
    st.tuples(st.just("concentration"), CONCENTRATION),
    st.tuples(st.just("potential"), POTENTIAL),
)
SIZES = {
    "solve": {"mesh": st.fixed_dictionaries({"nx": st.integers(1, 20),
                                             "ny": st.integers(1, 20)}),
              "discretization": st.fixed_dictionaries({"p": st.integers(1, 3)})},
    "infsup": {"levels": st.integers(1, 2), "base_n": st.integers(1, 2),
               "discretization": st.fixed_dictionaries({"p": st.integers(1, 2)})},
}
# values of a wrong JSON type for some key; a numeric string is one for D,
# dt and kappa, which take numbers only
WRONG = st.sampled_from([[1.0], {"x": 1.0}, None, True, False, float("nan"),
                         float("inf"), float("-inf"), "0.5"])


def _with_wrong_value(run):
    """The run, or the run with one key of its config, at the top level or
    in a block, set to a WRONG value."""
    command, cfg = run
    places = [(key,) for key in cfg] + [(key, sub) for key, block in cfg.items()
                                        if isinstance(block, dict) for sub in block]

    def put(place, value):
        wrong = {key: dict(v) if isinstance(v, dict) else v for key, v in cfg.items()}
        (wrong[place[0]] if len(place) == 2 else wrong)[place[-1]] = value
        return command, wrong
    return st.one_of(st.just(run), st.builds(put, st.sampled_from(places), WRONG))


RUNS = st.tuples(st.sampled_from(sorted(SIZES)), PROBLEMS).flatmap(
    lambda run: st.tuples(st.just(run[0]), st.fixed_dictionaries({
        "problem": st.just(run[1][0]), "coefficients": st.just(run[1][1]),
        **SIZES[run[0]]}, optional={"boundary": BOUNDARY}))).flatmap(_with_wrong_value)


def _run(command: str, cfg: dict, root: Path, name: str):
    path = root / f"{name}.json"
    path.write_text(json.dumps(cfg))
    outdir = root / name
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([command, "--config", str(path), "--outdir", str(outdir)])
    report = outdir / "report.json"
    return code, stdout.getvalue(), report.read_bytes() if report.exists() else None


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def _potential(nx, ny, p, **coefficients):
    return {"problem": "potential", "coefficients": coefficients,
            "mesh": {"nx": nx, "ny": ny}, "discretization": {"p": p}}


# no deadline: a first run pays for tabulation and imports (865 ms for an
# infsup run that replays in 33 ms)
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(RUNS)
# a V-cycle from the first iteration; an odd mesh smoothed only
@example(("solve", _potential(16, 16, 2, beta="1 + x/2", Sx="sin(pi*x)*cos(pi*y)")))
@example(("solve", _potential(19, 17, 2, I="abs(x - 0.5)")))
# kappa <= 0: the inf-sup run validates its problem as solve does
@example(("infsup", {"problem": "potential", "coefficients": {"kappa": 0.0},
                     "levels": 1, "base_n": 2}))
@example(("infsup", {"problem": "potential", "coefficients": {"kappa": -1.0},
                     "levels": 1, "base_n": 2}))
# a partition invalid for the kind: a Dirichlet side on the concentration
# problem; no Robin part together with kappa < 0, both violations listed
@example(("solve", {"problem": "concentration", "coefficients": {"D": 0.5, "dt": 0.1},
                    "boundary": {"left": "dirichlet"}, "mesh": {"nx": 2, "ny": 2}}))
@example(("infsup", {"problem": "potential", "coefficients": {"kappa": -1.0},
                     "boundary": {"bottom": "neumann", "top": "neumann"},
                     "levels": 1, "base_n": 2}))
# alpha = 0 on both levels, so the ratio is null; an integer no float holds
@example(("infsup", {"problem": "concentration", "coefficients": {"D": 1e150, "dt": 1e150},
                     "levels": 2, "base_n": 1}))
@example(("solve", {"problem": "potential", "mesh": {"nx": 10 ** 400, "ny": 2}}))
# an infinite tolerance, a numeric string for a number-only coefficient, an
# infinite domain bound, a domain whose width overflows, a test Gram whose
# sum overflows
@example(("solve", {"manufactured": "pot-trig", "mesh": {"nx": 2, "ny": 2},
                    "solver_tol": float("inf")}))
@example(("solve", _potential(2, 2, 1, kappa="2")))
@example(("infsup", {"problem": "concentration", "coefficients": {"D": "0.5", "dt": 0.1},
                     "levels": 1, "base_n": 2}))
@example(("infsup", {"problem": "potential", "mesh": {"x1": float("inf")},
                     "levels": 1, "base_n": 2}))
@example(("solve", {"problem": "potential", "mesh": {"nx": 2, "ny": 2, "x0": -1e308,
                                                      "x1": 1e308}}))
@example(("solve", {"problem": "concentration", "coefficients": {"D": 0.5, "dt": 1e308},
                    "mesh": {"nx": 2, "ny": 2}}))
def test_config_ends_in_report_or_structured_error(run):
    command, cfg = run
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        code, out, report = _run(command, cfg, root, "first")
        if code == 0:
            assert report is not None
            assert (json.loads(out, parse_constant=_reject_constant)
                    == json.loads(report, parse_constant=_reject_constant))
        else:
            assert report is None
            assert json.loads(out)["error"]["code"] in (
                "config", "validation", "solver")
        assert _run(command, cfg, root, "rerun") == (code, out, report)
