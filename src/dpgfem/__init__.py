"""DPG finite elements on structured quad meshes.

Two model problems are covered: a backward-Euler step of a diffusion
equation with prescribed normal flux, and a potential equation with
Dirichlet/Neumann/Robin boundary parts. Both are discretized with a
broken mixed formulation and per-element optimal test functions.
"""

from dpgfem.mesh import (
    FacetTag,
    Rectangle,
    BoundaryPartition,
    Mesh,
    build_rect_mesh,
    classify_boundary,
)
from dpgfem.fespace import SpaceLayout, DofMap, build_dofmap
from dpgfem.problems import (
    ConcentrationProblem,
    PotentialProblem,
    ButlerVolmerParams,
)
from dpgfem.solver import active_facets, assemble, solve_spd, solve_dpg, Solution
from dpgfem.manufactured import ManufacturedCase, manufactured_case
from dpgfem.verify import (
    EocReport,
    classical_galerkin_solve,
    eoc_study,
    error_norms,
    infsup_constant,
    skeleton_dual_norm,
)

__all__ = [
    "FacetTag",
    "Rectangle",
    "BoundaryPartition",
    "Mesh",
    "build_rect_mesh",
    "classify_boundary",
    "SpaceLayout",
    "DofMap",
    "build_dofmap",
    "ConcentrationProblem",
    "PotentialProblem",
    "ButlerVolmerParams",
    "active_facets",
    "assemble",
    "solve_spd",
    "solve_dpg",
    "Solution",
    "ManufacturedCase",
    "manufactured_case",
    "EocReport",
    "classical_galerkin_solve",
    "eoc_study",
    "error_norms",
    "infsup_constant",
    "skeleton_dual_norm",
]
