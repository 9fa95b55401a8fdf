"""Writers for solution exports: legacy-VTK structured grids, indicator and
study CSVs, and JSON run reports. Floats are emitted with repr so identical
runs produce bit-identical files."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from dpgfem.fespace import tabulate_l2_basis
from dpgfem.mesh import Mesh

FIELD_NAMES = {"concentration": ("concentration", "species_flux"),
               "potential": ("potential", "current_density")}

_CORNERS = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])


def vertex_field_values(mesh: Mesh, dofmap, field: np.ndarray) -> np.ndarray:
    """Field values at mesh vertices, x-fastest ordering.

    Vertices coincide with Gauss-Lobatto lattice points, so sampling is a
    gather from the coefficient vector.
    """
    p = dofmap.layout.p
    return field.reshape(-1, mesh.nx * p + 1)[::p, ::p].ravel()


def vertex_flux_values(mesh: Mesh, dofmap, flux: np.ndarray) -> np.ndarray:
    """Element fluxes evaluated at corners and averaged over incident
    elements; (n_vertices, 2), x-fastest ordering."""
    layout = dofmap.layout
    basis = tabulate_l2_basis(layout.p - 1, _CORNERS)
    # (n_elems, ns, 2) coefficients -> (n_elems, 4 corners, 2) values
    corner_vals = basis @ flux.reshape(mesh.n_elems, 2, -1).transpose(0, 2, 1)
    acc = np.zeros((mesh.vertices.shape[0], 2))
    np.add.at(acc, mesh.elem_verts, corner_vals)
    count = np.bincount(mesh.elem_verts.ravel(), minlength=acc.shape[0])
    return acc / count[:, None]


def write_vtk(path, mesh: Mesh, dofmap, solution, kind: str) -> None:
    """Legacy-VTK ASCII structured grid with vertex-sampled field and flux."""
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
    # the vertices form an x-fastest lattice: format each coordinate once
    xs = [repr(x) for x in mesh.vertices[:mesh.nx + 1, 0].tolist()]
    ys = [repr(y) for y in mesh.vertices[::mesh.nx + 1, 1].tolist()]
    lines.extend(f"{x} {y} 0.0" for y in ys for x in xs)
    lines.append(f"POINT_DATA {npts}")
    lines.append(f"SCALARS {scalar_name} double")
    lines.append("LOOKUP_TABLE default")
    lines.extend(map(repr, field.tolist()))
    lines.append(f"VECTORS {vector_name} double")
    lines.extend(f"{fx!r} {fy!r} 0.0" for fx, fy in flux.tolist())
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


def write_indicators_csv(path, solution) -> None:
    lines = ["element,eta_sq_riesz,eta_sq_fosls"]
    for e, (riesz, fosls) in enumerate(solution.indicators.tolist()):
        lines.append(f"{e},{riesz!r},{fosls!r}")
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


def write_eoc_csv(path, report) -> None:
    Path(path).write_text(report.to_csv_text(), newline="\n")


def write_infsup_csv(path, rows, ratios) -> None:
    """rows: sequence of (level, n, dofs, alpha); ratios: alpha of each
    row over that of the row before, None where there is none."""
    lines = ["level,n,dofs,alpha,ratio"]
    for (level, n, dofs, alpha), ratio in zip(rows, [None, *ratios]):
        ratio = "" if ratio is None else repr(ratio)
        lines.append(f"{level},{n},{dofs},{float(alpha)!r},{ratio}")
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


def write_report_json(path, report: dict) -> None:
    Path(path).write_text(json.dumps(report, indent=2, allow_nan=False) + "\n", newline="\n")
