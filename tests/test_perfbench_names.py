"""The names that the benchmark's tracer reads from dpgfem still exist.

`perfbench/tracer.py` wraps each function of its `TRACED` table, and its
solve records read `GlobalSystem.rhs` and `GlobalSystem.matrix`. A renamed
or removed name would otherwise show only in `pytest perfbench` or in a
benchmark run. The tracer's source is run from its path, so nothing under
`perfbench/` is imported as a package or leaves bytecode behind.
"""

import importlib
import types
from pathlib import Path

import numpy as np
import pytest

from dpgfem.fespace import SpaceLayout, build_dofmap
from dpgfem.manufactured import manufactured_case
from dpgfem.solver import active_facets, solve_dpg, solve_spd
from dpgfem.verify import case_mesh

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), vars(module))
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("key", sorted(tracer.TRACED))
def test_traced_name_resolves(key):
    # as `Tracer.install` looks it up: a module attribute, or a method in
    # its class's own namespace
    mod_name, attr = key.split(":")
    module = importlib.import_module(mod_name)
    if "." in attr:
        cls_name, method = attr.split(".")
        assert callable(getattr(module, cls_name).__dict__[method])
    else:
        assert callable(getattr(module, attr))


@pytest.mark.parametrize("name", ["pot-trig", "conc-trig"])
def test_solve_records_read_the_global_system(name):
    case = manufactured_case(name)
    _, _, system = solve_dpg(case_mesh(case, 4), case.problem, SpaceLayout(p=2))
    x, info = solve_spd(system)
    assert tracer._solve_record(system, x, info)["n"] == system.rhs.size
    traced = tracer.Tracer([0])
    traced._on_solve((system,), (x, info), 0)
    (record,) = traced.solves
    assert record["nnz"] == system.matrix.nnz > 0
    assert record["system"][1] is system.rhs


def test_traced_dofmap_methods_agree_with_elem_dofs():
    # the tracer wraps these by name; each must still work on a dof map
    # and read the one per-element numbering, not just resolve
    traced = sorted(key.rsplit(".", 1)[1] for key in tracer.TRACED
                    if key.startswith("dpgfem.fespace:DofMap."))
    assert traced == ["element_active_edges", "element_dofs"]
    case = manufactured_case("pot-trig")
    mesh = case_mesh(case, 2)
    dofmap = build_dofmap(mesh, SpaceLayout(p=2), active_facets(mesh))
    nf, nflux, p = dofmap.layout.n_field_local, dofmap.layout.n_flux_local, 2
    for e in range(mesh.n_elems):
        assert np.array_equal(dofmap.element_dofs(e), dofmap.elem_dofs[e])
        edges = dofmap.element_active_edges(e)
        assert edges
        for k, f, sign in edges:
            assert sign == (1.0 if k % 2 else -1.0)
            assert f == mesh.elem_facets[e, k]
            assert np.all(dofmap.elem_dofs[e, nf + nflux + k * p:][:p] >= dofmap.trace_offset)
        # the edges it does not list have absent trace dofs
        absent = sorted(set(range(4)) - {k for k, _f, _sign in edges})
        trace = dofmap.elem_dofs[e, nf + nflux:].reshape(4, p)
        assert np.all(trace[absent] == -1)
