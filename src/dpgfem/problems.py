"""Problem data for the two model BVPs and linearized Butler-Volmer kinetics.

Concentration problem (one backward-Euler step of a diffusion equation):

    c + dt * div j = c_prev,   j = -D grad c   in the domain,
    j . n = J                                  on the whole boundary.

Potential problem:

    div i = 0,   i = -kappa grad phi - S       in the domain,
    phi = 0 on the Dirichlet part, i . n = I on the Neumann part,
    i . n - beta * phi = R on the Robin part.

Volume data is a callable f(x, y); boundary data is a callable
g(x, y, nx, ny) of position and outward unit normal. Both are called with
numpy arrays of coordinates (and normal components) and return an array of
the same shape or a scalar, which is broadcast. Constants, expression
strings and plain (x, y) callables are accepted and normalized on
construction; an expression string is compiled once (`expr.compile_expr`)
and its compiled function is called once per point. All specs are
immutable and the functions reentrant.
"""

from __future__ import annotations

import inspect
import math
import warnings
from dataclasses import dataclass

import numpy as np

from dpgfem import expr as expr_mod
from dpgfem.mesh import FacetTag, Mesh


class ProblemValidationError(ValueError):
    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


def _pointwise_expr(text: str):
    """Array callable (x, y) for an expression string; the compiled
    expression is mapped over the points as Python floats, one call per
    point, in C order, so the first bad point raises first."""
    f = expr_mod.compile_expr(text)

    def fn(x, y):
        x, y = np.broadcast_arrays(x, y)
        vals = list(map(f, x.ravel().tolist(), y.ravel().tolist()))
        return np.array(vals, dtype=float).reshape(x.shape)
    return fn


def _as_volume_fn(v):
    if callable(v):
        return v
    if isinstance(v, str):
        return _pointwise_expr(v)
    c = float(v)
    return lambda x, y: c


def _as_boundary_fn(v):
    if callable(v):
        try:
            n_params = len(inspect.signature(v).parameters)
        except (TypeError, ValueError):
            n_params = 4
        if n_params >= 4:
            return v
    f = _as_volume_fn(v)
    return lambda x, y, nx, ny: f(x, y)


@dataclass(frozen=True, eq=False)
class ConcentrationProblem:
    """Backward-Euler diffusion step with prescribed boundary flux J."""

    D: float
    dt: float
    c_prev: object
    J: object

    kind = "concentration"

    def __post_init__(self):
        object.__setattr__(self, "D", float(self.D))
        object.__setattr__(self, "dt", float(self.dt))
        object.__setattr__(self, "c_prev", _as_volume_fn(self.c_prev))
        object.__setattr__(self, "J", _as_boundary_fn(self.J))


@dataclass(frozen=True, eq=False)
class PotentialProblem:
    """Potential equation with Dirichlet/Neumann/Robin boundary parts."""

    kappa: float
    beta: object
    S: tuple
    I: object
    R: object

    kind = "potential"

    def __post_init__(self):
        object.__setattr__(self, "kappa", float(self.kappa))
        object.__setattr__(self, "beta", _as_volume_fn(self.beta))
        sx, sy = self.S
        object.__setattr__(self, "S", (_as_volume_fn(sx), _as_volume_fn(sy)))
        object.__setattr__(self, "I", _as_boundary_fn(self.I))
        object.__setattr__(self, "R", _as_boundary_fn(self.R))


@dataclass(frozen=True, eq=False)
class ButlerVolmerParams:
    """Constants of the linearized Butler-Volmer interface law.

    phi_open is the open-circuit potential as a function of the state of
    charge; it may be a constant, an expression in x (x standing for the
    state of charge), or a callable.
    """

    k_bv: float
    F: float
    R_gas: float
    T: float
    c_smax: float
    t_plus: float = 0.5
    phi_open: object = 0.0

    def __post_init__(self):
        violations = []
        for name in ("k_bv", "F", "R_gas", "T", "c_smax"):
            if not getattr(self, name) > 0:
                violations.append(f"{name} must be positive")
        if not 0.0 <= self.t_plus <= 1.0:
            violations.append("t_plus must lie in [0, 1]")
        if violations:
            raise ProblemValidationError(violations)
        if not callable(self.phi_open):
            f = _as_volume_fn(self.phi_open)
            object.__setattr__(self, "phi_open", lambda soc: float(f(soc, 0.0)))


def state_of_charge(c_s: float, c_smax: float) -> float:
    if not 0.0 <= c_s <= c_smax:
        raise ValueError(f"concentration {c_s} outside [0, {c_smax}]")
    return c_s / c_smax


def exchange_current(params: ButlerVolmerParams, c_e: float, c_s: float) -> float:
    if c_e < 0.0:
        raise ValueError("electrolyte concentration must be nonnegative")
    state_of_charge(c_s, params.c_smax)      # raises outside [0, c_smax]
    return (params.k_bv * params.F * math.sqrt(c_e)
            * math.sqrt(params.c_smax - c_s) * math.sqrt(c_s))


def butler_volmer_current(params: ButlerVolmerParams, I_c: float, eta: float) -> float:
    if I_c < 0.0:
        raise ValueError("exchange current must be nonnegative")
    return I_c * params.F / (params.R_gas * params.T) * eta


def robin_coefficients(params: ButlerVolmerParams, c_e: float, c_s: float,
                       phi_e: float) -> tuple[float, float]:
    """Robin coefficient and load equivalent to the linearized interface law.

    The interface current I_c F/(R T) (phi_s - phi_e - phi_open) splits into
    beta * phi_s with beta = I_c F/(R T), everything else moving to the load.
    """
    I_c = exchange_current(params, c_e, c_s)
    beta = I_c * params.F / (params.R_gas * params.T)
    soc = state_of_charge(c_s, params.c_smax)
    return beta, beta * (-phi_e - params.phi_open(soc))


def sample(fn, points: np.ndarray, name: str, normals=None) -> np.ndarray:
    """Values of the coefficient `name` at points (..., 2), from one call of
    fn on the coordinate arrays.

    Boundary data also receive the unit normal: `normals` holds one per
    row of points, shape points.shape[:-2] + (2,), or one (2,) for all of
    them. Scalar results are broadcast to points.shape[:-1]; a tuple
    (vector-valued function) is stacked on a trailing axis. A non-finite
    value raises ProblemValidationError naming the first such point;
    numpy's floating-point warnings are silenced so that the error alone
    reports it.
    """
    shape = points.shape[:-1]
    args = [points[..., 0], points[..., 1]]
    if normals is not None:
        nrm = np.broadcast_to(np.asarray(normals)[..., None, :], points.shape)
        args += [nrm[..., 0], nrm[..., 1]]
    with np.errstate(all="ignore"):
        val = fn(*args)
    parts = val if isinstance(val, tuple) else (val,)
    out = np.stack([np.broadcast_to(np.asarray(v, dtype=float), shape)
                    for v in parts], axis=-1)
    bad = ~np.isfinite(out).all(axis=-1)
    if bad.any():
        x, y = points[np.unravel_index(np.argmax(bad), shape)]
        raise ProblemValidationError([f"{name} is not finite at ({x:g}, {y:g})"])
    return out if isinstance(val, tuple) else out[..., 0]


def validate_problem(spec, mesh: Mesh):
    """Check the scalar coefficients and the facet-tag partition; raises
    listing all violations at once. beta > 0 on Gamma_R is checked where
    assembly samples beta (`dpg.coefficient_loads`), so beta is never
    called here.

    Smallness of D and dt is advisory only and reported as a warning.
    """
    violations = []
    if spec.kind == "concentration":
        if not spec.D > 0:
            violations.append("D must be positive")
        if not spec.dt > 0:
            violations.append("dt must be positive")
        elif spec.D > 0 and not 0 < spec.dt * spec.D < math.inf:
            violations.append(f"eps = dt*D must be finite and nonzero "
                              f"(dt*D = {spec.dt * spec.D:g})")
        if spec.D >= 1 or spec.dt >= 1:
            warnings.warn("D or dt is not < 1; error bounds assume small values",
                          stacklevel=2)
        bnd = mesh.facet_tags[mesh.boundary_facets()]
        if np.any(bnd != int(FacetTag.NEUMANN)):
            violations.append("invalid partition: concentration problem requires "
                              "Neumann data on every side")
    elif spec.kind == "potential":
        if not spec.kappa > 0:
            violations.append("kappa must be positive")
        elif not math.isfinite(spec.kappa):
            violations.append("kappa must be finite")
        if not (mesh.facets_with_tag(FacetTag.ROBIN).size
                and mesh.facets_with_tag(FacetTag.NEUMANN).size):
            violations.append("invalid partition: potential problem requires "
                              "non-empty Neumann and Robin boundary parts")
    else:
        violations.append(f"unknown problem kind {spec.kind!r}")
    if violations:
        raise ProblemValidationError(violations)
    return spec
