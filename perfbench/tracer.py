"""Tracing of dpgfem from outside the package.

`Tracer.install()` replaces the functions listed in `TRACED` by wrappers
that record one span per call: (name, start, end, parent, opaque owner,
expression time). Each function is rebound under its name in every
`dpgfem` module namespace that holds it, so `assemble` is traced whether
it is called through `dpgfem.solver` or `dpgfem.verify`. Wrappers keep
the wrapped signature (`functools.wraps`), which `problems._as_boundary_fn`
inspects.

Compiled coefficient expressions are counted, not spanned: the wrapper on
`expr.compile_expr` returns callables that add their call count and time
to an aggregate and subtract the time from the enclosing span.

A span's self time is its duration minus its child spans and the
expression time inside it. Self times go to the layer metric of the
function in `TRACED`, except below an `OPAQUE` span (the Galerkin oracle),
whose whole duration, linear solve included, is its own metric. Spans stay
in memory and are written once, by `write_spans`.

`install_solve_probe` is the lightweight hook used by untraced samples: it
records the method, iterations and residual of each DPG linear solve so
that every sample can be checked, at the cost of one call per solve.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from time import perf_counter

# "module:attribute" -> metric that receives the span's self time
TRACED = {
    "dpgfem.cli:main": "cli.self_s",
    "dpgfem.mesh:build_rect_mesh": "mesh.build_s",
    "dpgfem.mesh:classify_boundary": "mesh.build_s",
    "dpgfem.fespace:build_dofmap": "fespace.dofmap_s",
    "dpgfem.fespace:DofMap.element_dofs": "fespace.dofmap_s",
    "dpgfem.fespace:DofMap.element_active_edges": "fespace.dofmap_s",
    "dpgfem.problems:validate_problem": "problems.validate_s",
    "dpgfem.dpg:geometry_kernels": "dpg.tabulate_s",
    "dpgfem.dpg:ProblemKernels.local_system": "dpg.local_system_s",
    "dpgfem.dpg:condense_local": "dpg.condense_s",
    "dpgfem.dpg:error_indicator": "dpg.indicator_s",
    "dpgfem.solver:solve_dpg": "solver.other_s",
    "dpgfem.solver:assemble": "solver.assemble_s",
    "dpgfem.solver:solve_spd": "solver.solve_s",
    "dpgfem.solver:compute_indicators": "solver.indicators_s",
    "dpgfem.verify:eoc_study": "verify.eoc_study_s",
    "dpgfem.verify:error_norms": "verify.error_norms_s",
    "dpgfem.verify:field_l2_error": "verify.error_norms_s",
    "dpgfem.verify:classical_galerkin_solve": "verify.oracle_s",
    "dpgfem.output:write_vtk": "output.write_s",
    "dpgfem.output:write_indicators_csv": "output.write_s",
    "dpgfem.output:write_eoc_csv": "output.write_s",
    "dpgfem.output:write_report_json": "output.write_s",
}
OPAQUE = {"dpgfem.verify:classical_galerkin_solve"}
SELF_TIME_METRICS = sorted(set(TRACED.values()) | {"expr.eval_s"})


def _solve_record(system, x, info) -> dict:
    return {"method": info.method, "iterations": int(info.iterations),
            "relative_residual": float(info.relative_residual),
            "n": int(system.matrix.shape[0])}


def install_solve_probe(records: list, call_index: list) -> None:
    """Record each DPG linear solve (those `solve_dpg` makes through the
    `dpgfem.solver` namespace) into `records`, tagged with call_index[0]."""
    import dpgfem.solver as solver
    solve_spd = solver.solve_spd

    @functools.wraps(solve_spd)
    def probed(system, *args, **kwargs):
        x, info = solve_spd(system, *args, **kwargs)
        records.append({**_solve_record(system, x, info), "call": call_index[0]})
        return x, info

    solver.solve_spd = probed


class Tracer:
    def __init__(self, call_index: list):
        self.call_index = call_index
        self.spans = []          # (name, start, end, parent, owner, expr_s)
        self._stack = []         # open frames: [span id, owner id, expr_s]
        self.expr_evals = 0
        self.solves = []         # DPG solves: record plus span id and system
        self.dofs = 0
        self.output_bytes = 0
        self._geometry_kernels = None

    # -- installation -------------------------------------------------
    def install(self) -> None:
        hooks = {"dpgfem.solver:solve_spd": self._on_solve,
                 "dpgfem.fespace:build_dofmap": self._on_dofmap}
        for key in TRACED:
            if key.startswith("dpgfem.output:"):
                hooks[key] = self._on_write
        for key in TRACED:
            mod_name, attr = key.split(":")
            module = importlib.import_module(mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self._wrap(cls.__dict__[meth], key,
                                              hooks.get(key)))
            else:
                original = getattr(module, attr)
                if key == "dpgfem.dpg:geometry_kernels":
                    self._geometry_kernels = original
                self._rebind(original, self._wrap(original, key, hooks.get(key)))
        expr = importlib.import_module("dpgfem.expr")
        self._rebind(expr.compile_expr, self._counting_compile(expr.compile_expr))

    @staticmethod
    def _rebind(original, replacement) -> None:
        for name, module in list(sys.modules.items()):
            if name != "dpgfem" and not name.startswith("dpgfem."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)

    def _wrap(self, fn, key: str, hook):
        spans, stack = self.spans, self._stack
        opaque = key in OPAQUE

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            sid = len(spans)
            owner = sid if opaque else (parent[1] if parent else -1)
            frame = [sid, owner, 0.0]
            spans.append(None)
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[sid] = (key, t0, t1, parent[0] if parent else -1,
                              owner, frame[2])
            if hook is not None and owner < 0:
                hook(args, result, sid)
            return result

        return traced

    def _counting_compile(self, compile_expr):
        stack = self._stack

        @functools.wraps(compile_expr)
        def compile_counted(text):
            fn = compile_expr(text)

            @functools.wraps(fn)
            def counted(x, y):
                t0 = perf_counter()
                try:
                    return fn(x, y)
                finally:
                    self.expr_evals += 1
                    if stack:
                        stack[-1][2] += perf_counter() - t0

            return counted

        return compile_counted

    # -- hooks (DPG path only; calls below an opaque span are skipped) --
    def _on_solve(self, args, result, sid) -> None:
        system = args[0]
        x, info = result
        self.solves.append({**_solve_record(system, x, info),
                            "call": self.call_index[0], "span": sid,
                            "nnz": int(system.matrix.nnz),
                            "index_bytes": int(system.matrix.indices.itemsize),
                            "system": (system.matrix, system.rhs, x)})

    def _on_dofmap(self, args, result, sid) -> None:
        self.dofs += int(result.n_total)

    def _on_write(self, args, result, sid) -> None:
        self.output_bytes += os.path.getsize(args[0])

    # -- results ------------------------------------------------------
    def layer_metrics(self, wall_s: float) -> dict:
        """Per-layer metrics; the self-time metrics sum to wall_s."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _key, t0, t1, parent, _owner, _ex in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        m = {name: 0.0 for name in SELF_TIME_METRICS}
        cli_total = 0.0
        local_systems = 0
        for sid, (key, t0, t1, parent, owner, ex) in enumerate(spans):
            self_s = t1 - t0 - child[sid] - ex
            if owner >= 0:
                m[TRACED[spans[owner][0]]] += self_s + ex
                continue
            m[TRACED[key]] += self_s
            m["expr.eval_s"] += ex
            if parent < 0:
                cli_total += t1 - t0
            if key == "dpgfem.dpg:ProblemKernels.local_system":
                local_systems += 1
        # the gaps between top-level CLI calls belong to the CLI layer
        m["cli.self_s"] += wall_s - cli_total

        pcg = [s for s in self.solves if s["method"] == "pcg"]
        pcg_s = sum(spans[s["span"]][2] - spans[s["span"]][1] for s in pcg)
        iterations = sum(s["iterations"] for s in self.solves)
        pcg_iterations = sum(s["iterations"] for s in pcg)
        info = self._geometry_kernels.cache_info()
        m.update({
            "solver.iterations": iterations,
            "solver.s_per_iter": pcg_s / pcg_iterations if pcg_iterations else 0.0,
            "solver.spmv_bytes_computed": sum(
                s["iterations"] * (s["nnz"] * (8 + s["index_bytes"])
                                   + (s["n"] + 1) * s["index_bytes"]
                                   + 2 * 8 * s["n"])
                for s in pcg),
            "solver.nnz": sum(s["nnz"] for s in self.solves),
            "solver.rel_residual": max(
                (s["relative_residual"] for s in self.solves), default=0.0),
            "solver.dense_solves": sum(s["method"] == "dense" for s in self.solves),
            "dpg.local_systems": local_systems,
            "dpg.tabulate_hits": info.hits,
            "dpg.tabulate_misses": info.misses,
            "expr.evals": self.expr_evals,
            "fespace.dofs": self.dofs,
            "output.bytes": self.output_bytes,
            "trace.spans": len(spans),
        })
        return m

    def direct_gap(self) -> float:
        """max over DPG solves of |x - x_SuperLU| / |x_SuperLU|."""
        import numpy as np
        import scipy.sparse.linalg as sla
        gap = 0.0
        for s in self.solves:
            matrix, rhs, x = s["system"]
            if not np.any(rhs):
                continue
            xd = sla.spsolve(matrix.tocsc(), rhs)
            gap = max(gap, float(np.linalg.norm(x - xd) / np.linalg.norm(xd)))
        return gap

    def write_spans(self, path, run_id: str) -> None:
        with open(path, "w") as fh:
            for sid, (key, t0, t1, parent, owner, ex) in enumerate(self.spans):
                fh.write(json.dumps({"run": run_id, "id": sid, "name": key,
                                     "start": t0, "end": t1, "parent": parent,
                                     "opaque_owner": owner, "expr_s": ex}) + "\n")
