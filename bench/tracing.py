"""Span tracing around the public functions of ilgraph's layers.

Each wrapper is installed on the module attribute where the caller looks
the name up (``ilgraph.solver.solve_symmetric``, not
``ilgraph.linalg.solve_symmetric``, because ``solver`` imports the name
directly). Spans are kept in memory and turned into per-layer metrics when
a run ends; a layer's self time is its span time minus its child spans.
"""

import functools
import importlib
import statistics
import time

# layer name -> the (module, attribute) sites where the benchmark's
# workloads, or the library functions they call, look it up
LAYERS = {
    "graph.exact_knn": [("ilgraph.graph", "exact_knn")],
    "graph.knn_graph": [("ilgraph.toy2d", "knn_graph")],
    "graph.self_tuning_weights": [("ilgraph.graph", "self_tuning_weights")],
    "linalg.solve_symmetric": [("ilgraph.solver", "solve_symmetric")],
    "linalg.check_label_connectivity": [("ilgraph.solver",
                                         "check_label_connectivity")],
    "solver.gl_solve": [("ilgraph.solver", "gl_solve"),
                        ("ilgraph.toy2d", "gl_solve")],
    "solver.wnll_solve": [("ilgraph.solver", "wnll_solve"),
                          ("ilgraph.toy2d", "wnll_solve")],
    "solver.il_solve": [("ilgraph.solver", "il_solve"),
                        ("ilgraph.toy2d", "il_solve"),
                        ("ilgraph.gamma", "il_solve")],
    "solver.objective": [("ilgraph.solver", "objective")],
    "solver.threshold_subproblem": [("ilgraph.solver", "threshold_subproblem")],
    "inpaint.extract_patches": [("ilgraph.inpaint", "extract_patches")],
    "gamma.build_full_kernel_graph": [("ilgraph.gamma",
                                       "build_full_kernel_graph")],
    "gamma.discrete_energy": [("ilgraph.gamma", "discrete_energy")],
}


def _observe(layer, result):
    """Counts read off a layer's return value, stored on its span."""
    if layer == "linalg.solve_symmetric":
        report = result[1]
        return {"iters": report.iterations,
                "rel_residual": report.relative_residual,
                "converged": report.converged}
    if layer == "solver.il_solve":
        diag = result[1]
        return {"outer_iters": diag.iterations, "converged": diag.converged,
                "c_star": diag.c_star, "primal_residual": diag.primal_residual}
    if layer == "gamma.build_full_kernel_graph":
        return {"edges": result.weights.nnz}
    return {}


class Tracer:
    """Records one span per wrapped call while installed."""

    def __init__(self):
        self.spans = []
        self.run_id = None
        self.missing = [f"{mod}.{attr}" for sites in LAYERS.values()
                        for mod, attr in sites
                        if not hasattr(importlib.import_module(mod), attr)]
        self._stack = []
        self._saved = []

    def _wrap(self, layer, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(self.spans)
            span = {"run": self.run_id, "id": span_id,
                    "parent": self._stack[-1] if self._stack else None,
                    "name": layer}
            self.spans.append(span)
            self._stack.append(span_id)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            span.update(_observe(layer, result))
            return result
        return traced

    def install(self, run_id):
        self.run_id = run_id
        for layer, sites in LAYERS.items():
            for mod_name, attr in sites:
                module = importlib.import_module(mod_name)
                if hasattr(module, attr):
                    fn = getattr(module, attr)
                    self._saved.append((module, attr, fn))
                    setattr(module, attr, self._wrap(layer, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        self.run_id = None

    def uncalled(self):
        """Layers without a span: never called, or every site is missing."""
        called = {s["name"] for s in self.spans}
        return [layer for layer in LAYERS if layer not in called]

    def layer_metrics(self, run_id):
        """Per-layer metrics over the spans of one run id."""
        spans = [s for s in self.spans if s["run"] == run_id]
        child_s = {}
        for s in spans:
            if s["parent"] is not None:
                child_s[s["parent"]] = (child_s.get(s["parent"], 0.0)
                                        + s["end"] - s["start"])
        out = {"trace.spans": len(spans)}
        by_layer = {}
        for s in spans:
            by_layer.setdefault(s["name"], []).append(s)
        for layer, group in by_layer.items():
            out[f"{layer}.calls"] = len(group)
            out[f"{layer}.s"] = sum(s["end"] - s["start"] for s in group)
            out[f"{layer}.self_s"] = sum(s["end"] - s["start"]
                                         - child_s.get(s["id"], 0.0)
                                         for s in group)
        solves = by_layer.get("linalg.solve_symmetric", [])
        if solves:
            iters = [s["iters"] for s in solves]
            out["linalg.solve_symmetric.iters_total"] = sum(iters)
            out["linalg.solve_symmetric.iters_p50"] = statistics.median(iters)
            out["linalg.solve_symmetric.iters_max"] = max(iters)
            out["linalg.solve_symmetric.rel_residual_max"] = max(
                s["rel_residual"] for s in solves)
            out["linalg.solve_symmetric.unconverged"] = sum(
                not s["converged"] for s in solves)
        ils = by_layer.get("solver.il_solve", [])
        if ils:
            out["solver.il_solve.outer_iters"] = sum(s["outer_iters"] for s in ils)
            out["solver.il_solve.converged"] = sum(s["converged"] for s in ils)
            out["solver.il_solve.c_star"] = statistics.median(
                s["c_star"] for s in ils)
            out["solver.il_solve.primal_residual"] = max(
                s["primal_residual"] for s in ils)
        graphs = by_layer.get("gamma.build_full_kernel_graph", [])
        if graphs:
            out["gamma.edges_max"] = max(s["edges"] for s in graphs)
        return out
