"""The benchmark's three workloads and the checks on their outputs.

Each workload has ``prepare(seed, smoke)``, which builds the inputs (set-up
time), and ``run(inputs)``, which produces the result from them (time to
result: graph build, every solve and every output check). ``run`` returns
an ``Outcome`` with one entry per operation: a solver call or a study row,
failed when it raised or failed its check.

Library functions are looked up on their modules at call time so that the
tracer's wrappers see every call.
"""

import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from ilgraph import gamma, graph, inpaint, solver, toy2d


@dataclass
class Outcome:
    ops: list                       # (operation name, failure reason or None)
    il_objective: float             # max_i sum_j w_ij (u_i - u_j)^2 of the IL result
    info: dict = field(default_factory=dict)   # extra figures, by metric name

    @property
    def failed(self):
        return [(name, why) for name, why in self.ops if why is not None]


def check_solution(u, labels, maximum_principle=True):
    """Reason a solver result is wrong, or None: values must be finite,
    labelled entries must equal their label values exactly, and, when
    asked for, the maximum principle must hold.

    GL and WNLL results are unique harmonic extensions, so the principle
    holds for them. IL results are not checked against it: at alpha = 0
    the IL model is not strictly convex, and projecting a minimizer onto
    the label range gives another minimizer. The principle then promises
    an in-range minimizer, not that il_solve returns it; how far an IL
    result leaves the range is measured by ``il_range_figures``."""
    u = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u)):
        return "non-finite values"
    if not np.array_equal(u[labels.indices], labels.values):
        return "labelled entries differ from their labels"
    if not maximum_principle:
        return None
    lo, hi = labels.values.min(), labels.values.max()
    tol = 1e-6 * max(1.0, hi - lo)
    if u.min() < lo - tol or u.max() > hi + tol:
        return (f"maximum principle violated: [{u.min():.6g}, {u.max():.6g}] "
                f"outside [{lo:.6g}, {hi:.6g}]")
    return None


def il_range_figures(u, labels, g):
    """How far an IL result leaves the label range, as a share of the
    range, and how much projecting it onto the range lowers its objective,
    as a share of the objective. Both are 0 for a result that obeys the
    maximum principle."""
    lo, hi = labels.values.min(), labels.values.max()
    excess = max(lo - u.min(), u.max() - hi, 0.0) / ((hi - lo) or 1.0)
    f = solver.nonlocal_inf_metric(u, g)
    projected = solver.nonlocal_inf_metric(np.clip(u, lo, hi), g)
    return {"solver.il_solve.range_excess": float(excess),
            "solver.il_solve.projection_gain": float((f - projected) / f) if f else 0.0}


def _worst(figures):
    """Largest value of each IL range figure over a repetition's IL results."""
    return {k: max(f[k] for f in figures) for k in figures[0]} if figures else {}


def _first_failure(*reasons):
    return next((r for r in reasons if r is not None), None)


# --- toy2d: AC4's full-scale grid ------------------------------------------

TOY2D_FULL = dict(grid=101, sigma=0.02, k=10)
TOY2D_SMOKE = dict(grid=31, sigma=1 / 15, k=10)
TOY2D_METHODS = ("gl", "wnll", "il")
# AC4 full-scale references: metric per method, c*, outer iterations
TOY2D_REFS = {"il": 1.92e-4, "wnll": 4.36e-3, "gl": 3.52e-2}
TOY2D_C_STAR, TOY2D_ITERS = 4.59e-3, 123


def prepare_toy2d(seed, smoke=False):
    # the grid and label points are fixed by the paper: the seed is unused
    return SimpleNamespace(params=TOY2D_SMOKE if smoke else TOY2D_FULL,
                           full=not smoke)


def run_toy2d(inputs):
    prob = toy2d.build_toy2d(**inputs.params)
    cfg = solver.SolverConfig(alpha=0.0, rel_obj_tol=1e-5)
    try:
        metrics, sols, diag = toy2d.run_toy2d(prob, TOY2D_METHODS, cfg)
    except Exception as exc:  # any raise fails all three solver calls
        why = f"raised {type(exc).__name__}: {exc}"
        return Outcome([(m, why) for m in TOY2D_METHODS], math.nan)
    reasons = {m: check_solution(sols[m], prob.labels, maximum_principle=m != "il")
               for m in TOY2D_METHODS}
    order_ok = metrics["il"] < metrics["wnll"] < metrics["gl"]
    reasons["il"] = _first_failure(
        reasons["il"], None if order_ok else "ordering il < wnll < gl violated")
    if inputs.full:
        for m, ref in TOY2D_REFS.items():
            if not ref / 3 <= metrics[m] <= ref * 3:
                reasons[m] = _first_failure(
                    reasons[m], f"metric {metrics[m]:.3g} not within 3x of {ref:.3g}")
        if not TOY2D_C_STAR / 2 <= diag.c_star <= TOY2D_C_STAR * 2:
            reasons["il"] = _first_failure(
                reasons["il"], f"c* {diag.c_star:.3g} not within 2x of {TOY2D_C_STAR:.3g}")
        if not 0.5 * TOY2D_ITERS <= diag.iterations <= 1.5 * TOY2D_ITERS:
            reasons["il"] = _first_failure(
                reasons["il"], f"{diag.iterations} iterations not within 50% of {TOY2D_ITERS}")
    return Outcome([(m, reasons[m]) for m in TOY2D_METHODS], metrics["il"],
                   il_range_figures(sols["il"], prob.labels, prob.graph))


# --- desk: AC7's oracle-weight inpainting, graph built once ----------------

DESK_FULL = dict(size=64, max_outer_iter=40)
DESK_SMOKE = dict(size=32, max_outer_iter=20)
DESK_METHODS = ("gl", "wnll", "il")
# AC7's mask gives the gated objective: over masks the IL objective (a max
# over rows) spreads by 60% of its median. The workload seed's mask is
# solved on the same graph and checked like every other result.
AC7_MASK_SEED = 0


def desk_image(n):
    """Synthetic stand-in texture: oriented oscillation with a slow
    amplitude envelope plus a ramp (no two patches identical)."""
    yy, xx = np.mgrid[0:n, 0:n]
    arr = (127.5
           + 90.0 * np.sin(2 * np.pi * (xx + 2 * yy) / 16.0)
           * np.cos(2 * np.pi * (xx - yy) / 48.0)
           + 30.0 * np.sin(2 * np.pi * xx / 64.0))
    return inpaint.Image(np.clip(arr, 0, 255))


def prepare_desk(seed, smoke=False):
    params = DESK_SMOKE if smoke else DESK_FULL
    img = desk_image(params["size"])
    # a list, not a dict: seed 0 still solves two masks, like every seed
    masks = [(name, inpaint.SampleMask.random(img.shape, 0.01, seed=s))
             for name, s in (("ac7-mask", AC7_MASK_SEED), ("seed-mask", seed))]
    return SimpleNamespace(img=img, masks=masks,
                           patches=inpaint.extract_patches(img, 11, 11),
                           max_outer_iter=params["max_outer_iter"])


def _desk_psnr(u, img, mask):
    out = np.clip(u.reshape(img.shape), 0.0, 255.0)
    out[mask.known] = img.pixels[mask.known]
    return inpaint.psnr(inpaint.Image(out), img)


def _desk_solves(g, img, mask, cfg):
    """GL, WNLL and IL on one mask: failure reason, objective and PSNR
    per method, for the methods that returned, and the IL range figures."""
    known = np.nonzero(mask.known.ravel())[0]
    labels = solver.LabelAssignment(known, img.pixels.ravel()[known])
    calls = {"gl": lambda: solver.gl_solve(g, labels, cfg),
             "wnll": lambda: solver.wnll_solve(g, labels, cfg),
             "il": lambda: solver.il_solve(g, labels, cfg)[0]}
    reasons, objective, psnr, il_range = {}, {}, {}, None
    for m, call in calls.items():
        try:
            u = call()
        except Exception as exc:
            reasons[m] = f"raised {type(exc).__name__}: {exc}"
            continue
        reasons[m] = check_solution(u, labels, maximum_principle=m != "il")
        if m == "il":
            il_range = il_range_figures(u, labels, g)
        objective[m] = solver.nonlocal_inf_metric(u, g)
        psnr[m] = _desk_psnr(u, img, mask)
    if len(objective) == 3:
        gap = psnr["il"] - psnr["gl"]
        best = min(objective["gl"], objective["wnll"])
        reasons["il"] = _first_failure(
            reasons["il"],
            None if gap >= 1.0 else f"PSNR(il) - PSNR(gl) = {gap:.2f} dB < 1 dB",
            None if objective["il"] <= best
            else f"il objective {objective['il']:.6g} > baseline {best:.6g}")
    return reasons, objective, psnr, il_range


def run_desk(inputs):
    g = graph.self_tuning_weights(graph.PointCloud(inputs.patches.vectors),
                                  k=50, k_sigma=20)
    cfg = solver.SolverConfig(alpha=0.0, max_outer_iter=inputs.max_outer_iter)
    ops, results, il_range = [], {}, []
    for name, mask in inputs.masks:
        reasons, objective, psnr, il = _desk_solves(g, inputs.img, mask, cfg)
        ops += [(f"{m} {name}", reasons[m]) for m in DESK_METHODS]
        results[name] = (objective, psnr)
        if il:
            il_range.append(il)
    objective, psnr = results["ac7-mask"]
    return Outcome(ops, objective.get("il", math.nan),
                   {**{f"inpaint.psnr_{m}_db": v for m, v in psnr.items()},
                    **_worst(il_range)})


# --- gamma1d: the 1-D discrete-to-continuum study --------------------------

GAMMA_FULL = dict(n_values=(250, 500, 1000), max_outer_iter=60)
GAMMA_SMOKE = dict(n_values=(125,), max_outer_iter=20)
GAMMA_REL_ERROR_MAX = 0.15   # AC6's bound at the largest n


def prepare_gamma1d(seed, smoke=False):
    params = GAMMA_SMOKE if smoke else GAMMA_FULL
    # a tolerance below round-off: every solve runs the same outer-iteration
    # count, so the time does not swing with how fast a sample converges
    cfg = solver.SolverConfig(alpha=0.0, rel_obj_tol=1e-15,
                              max_outer_iter=params["max_outer_iter"])
    return SimpleNamespace(problem=gamma.interval_benchmark(),
                           schedule=gamma.BandwidthSchedule(params["n_values"], dim=1),
                           cfg=cfg, seed=seed)


def run_gamma1d(inputs):
    """convergence_study hides each IL result, so its il_solve is hooked
    here to check every solver result; one hooked call per study row."""
    checked = []   # (failure reason or None, IL objective), one per call
    il_range = []
    hooked = gamma.il_solve

    def checked_il_solve(g, labels, cfg=None):
        try:
            u, diag = hooked(g, labels, cfg)
        except Exception as exc:
            checked.append((f"raised {type(exc).__name__}: {exc}", math.nan))
            raise
        checked.append((check_solution(u, labels, maximum_principle=False),
                        solver.nonlocal_inf_metric(u, g)))
        il_range.append(il_range_figures(u, labels, g))
        return u, diag

    gamma.il_solve = checked_il_solve
    try:
        rows = gamma.convergence_study(inputs.problem, inputs.schedule, trials=1,
                                       seed=inputs.seed, solver_cfg=inputs.cfg)
    finally:
        gamma.il_solve = hooked
    n_max = max(inputs.schedule.n_values)
    ops = []
    for row, (why, _) in zip(rows, checked, strict=True):
        if row.flagged:
            why = _first_failure(why, "row flagged")
        if row.n == n_max and not row.rel_error < GAMMA_REL_ERROR_MAX:
            why = _first_failure(
                why, f"rel_error {row.rel_error:.4g} >= {GAMMA_REL_ERROR_MAX}")
        ops.append((f"n={row.n}", why))
    largest = [(row.rel_error, obj) for row, (_, obj) in zip(rows, checked)
               if row.n == n_max]
    rel_error, objective = np.mean(largest, axis=0)
    return Outcome(ops, float(objective),
                   {"gamma.rel_error": float(rel_error), **_worst(il_range)})


WORKLOADS = {
    "toy2d": (prepare_toy2d, run_toy2d),
    "desk": (prepare_desk, run_desk),
    "gamma1d": (prepare_gamma1d, run_gamma1d),
}
