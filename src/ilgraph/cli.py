"""Command-line front door.

Subcommands: solve (graph + labels CSV), toy2d (the grid benchmark),
inpaint (PGM images), gamma (convergence study). Every run writes
config.json next to the outputs: every parsed argument, then what the
command resolved from them and the solver configuration. Exit codes: 0
success (--help too), 1 input error (a malformed, missing or
conflicting argument too), 2 solver non-convergence (partial results
still written). Every check that needs only the arguments runs before the
output directory is created: files are read, and configs and toy2d's problem
built, first. One that needs the data ends the run during the work, exit 1: a
patch larger than the image, k not below the pixel count, duplicate points, a
disconnected graph.
solve, toy2d and inpaint write the fields of solver.Diagnostics, over
every solve of the run, into report.json, and return 2 when it says the
iteration did not converge or a linear solve missed its own tolerance
(lin_tol; an il_solve step's is looser, see solver.STEP_TOL_MAX). inpaint
takes PSNR against --ground-truth, else against the --oracle-weights
image. gamma returns 2 when any row of study.csv is flagged, did not
converge or had a solve miss its tolerance, as its converged,
linear_unconverged and flagged columns show.
"""

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import gamma as gamma_mod
from . import inpaint as inpaint_mod
from . import toy2d as toy_mod
from .graph import InvalidParameterError, WeightGraph, check_count
from .solver import (ConvergenceError, LabelAssignment, SolverConfig,
                     nonlocal_inf_metric, solve)


def read_labels_csv(path) -> LabelAssignment:
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except (ValueError, OSError) as exc:  # undecodable bytes, or no file
        raise InvalidParameterError(f"{path}: {exc}") from exc
    indices, values = [], []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        try:
            if len(parts) != 2:
                raise ValueError("expected two fields")
            index = float(parts[0])
            if not index.is_integer():
                raise InvalidParameterError(
                    f"node index {parts[0].strip()} is not an integer")
            indices.append(int(index))
            values.append(float(parts[1]))
        except ValueError as exc:
            raise InvalidParameterError(
                f"{path}:{lineno}: malformed row ({exc})") from exc
    try:
        return LabelAssignment(np.array(indices), np.array(values))
    except InvalidParameterError as exc:
        raise InvalidParameterError(f"{path}: {exc}") from exc


def write_solution_csv(path, u):
    np.savetxt(path, np.column_stack([np.arange(len(u)), u]),
               delimiter=",", fmt=["%d", "%.17g"])


def _jsonable(x):
    """x as plain JSON data: numpy values and dataclasses converted, and
    NaN, +inf and -inf written as the strings "nan", "inf" and "-inf"."""
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        x = dataclasses.asdict(x)
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.generic):
        x = x.item()
    return str(x) if isinstance(x, float) and not math.isfinite(x) else x


def write_report(path, report):
    with open(path, "w") as fh:
        json.dump(_jsonable(report), fh, indent=2, allow_nan=False)
        fh.write("\n")


def _exit_code(report) -> int:
    """One rule for every solving command: 2 when its report says the
    iteration did not converge or a linear solve missed its own
    tolerance, else 0."""
    return 2 if not report["converged"] or report["linear_unconverged"] else 0


def _start(args, cfg, **resolved):
    """Open a run once its inputs are read and checked: create the output
    directory and write config.json, every parsed argument (out resolved),
    then the command's own resolutions, then the fields of cfg. Returns
    the directory, that config and the start time."""
    out = Path(args.out or os.environ.get("ILGRAPH_OUT", "."))
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InvalidParameterError(f"{out}: {exc}") from exc
    config = {**{k: v for k, v in vars(args).items() if k != "func"},
              "out": str(out), **resolved, **dataclasses.asdict(cfg)}
    write_report(out / "config.json", config)
    return out, config, time.perf_counter()


def _finish(out, config, t0, diag, **keys) -> int:
    """Close a run: write report.json, the config, the command's keys,
    the seconds since t0 and every field of the solver.Diagnostics diag
    but first_update. Returns the run's exit code."""
    report = {"config": config, **keys, "seconds": time.perf_counter() - t0,
              **{k: v for k, v in vars(diag).items() if k != "first_update"}}
    write_report(out / "report.json", report)
    return _exit_code(report)


def cmd_solve(args) -> int:
    graph = WeightGraph.from_csv(args.graph)
    labels = read_labels_csv(args.labels)
    cfg = SolverConfig(alpha=args.alpha)
    out, config, t0 = _start(args, cfg)
    u, diag = solve(args.method, graph, labels, cfg)
    write_solution_csv(out / "solution.csv", u)
    return _finish(out, config, t0, diag, method=args.method,
                   metric=nonlocal_inf_metric(u, graph))


def cmd_toy2d(args) -> int:
    methods = ("gl", "wnll", "il") if args.method == "all" else (args.method,)
    cfg = SolverConfig(alpha=args.alpha)
    problem = toy_mod.build_toy2d(args.grid, args.sigma, args.k)
    out, config, t0 = _start(args, cfg, methods=list(methods))
    metrics, solutions, diag = toy_mod.run_toy2d(problem, methods, cfg)
    (out / "metrics.csv").write_text("method,nonlocal_inf_metric\n" + "".join(
        f"{name},{val:.10g}\n" for name, val in metrics.items()))
    for name, u in solutions.items():
        write_solution_csv(out / f"solution_{name}.csv", u)
    return _finish(out, config, t0, diag, metrics=metrics)


def cmd_inpaint(args) -> int:
    img = inpaint_mod.read_pgm(args.image)
    mask = (inpaint_mod.SampleMask.from_csv(args.mask_file, img.shape)
            if args.mask_file is not None else inpaint_mod.SampleMask.random(
                img.shape, args.mask_density, seed=args.seed))
    # read before the solve, so that a bad file does not waste the run
    paths = (args.oracle_weights, args.ground_truth)
    oracle, truth = (inpaint_mod.read_pgm(p) if p else None for p in paths)
    for path, other in zip(paths, (oracle, truth)):
        if other is not None and other.shape != img.shape:
            raise InvalidParameterError(f"{path}: image dimensions must match")
    cfg = inpaint_mod.InpaintConfig(
        method=args.method, patch_size=(args.patch, args.patch), k=args.k,
        k_sigma=args.k_sigma, outer_iters=args.outer_iters, seed=args.seed,
        solver=SolverConfig(alpha=args.alpha))
    out, config, t0 = _start(args, cfg.solver)
    result, diag = (inpaint_mod.inpaint(img, mask, cfg) if oracle is None
                    else inpaint_mod.oracle_weight_inpaint(oracle, mask, cfg))
    inpaint_mod.write_pgm(result, out / "out.pgm")
    mask.to_csv(out / "mask.csv")
    reference = truth if truth is not None else oracle
    keys = {} if reference is None else {
        "psnr_db": inpaint_mod.psnr(result, reference)}
    return _finish(out, config, t0, diag, **keys)


def cmd_gamma(args) -> int:
    try:
        n_values = [int(v) for v in args.n_values.split(",")]
    except ValueError as exc:
        raise InvalidParameterError(f"--n-values: {exc}") from exc
    problem = {"1d": gamma_mod.interval_benchmark,
               "circle": gamma_mod.circle_benchmark}[args.problem]()
    schedule = gamma_mod.BandwidthSchedule(n_values, r_adjust=args.r_adjust,
                                           dim=problem.intrinsic_dim)
    check_count("trials", args.trials)
    check_count("seed", args.seed, 0)
    cfg = SolverConfig(alpha=0.0)
    out, _, _ = _start(args, cfg, n_values=n_values)
    rows = gamma_mod.convergence_study(problem, schedule, args.trials,
                                       seed=args.seed, solver_cfg=cfg)
    gamma_mod.rows_to_csv(rows, out / "study.csv")
    # a flagged row never converged: the rule of the other commands, per row
    return max(_exit_code(dataclasses.asdict(row)) for row in rows)


def build_parser():
    parser = argparse.ArgumentParser(prog="ilgraph")
    parser.add_argument("--out", default=None,
                        help="output directory (env ILGRAPH_OUT overrides the default)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a graph/labels problem from CSV")
    p.add_argument("graph")
    p.add_argument("labels")
    p.add_argument("--method", choices=["gl", "wnll", "il"], default="il")
    p.add_argument("--alpha", type=float, default=0.0)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("toy2d", help="run the 2-D grid benchmark")
    p.add_argument("--grid", type=int, default=101)
    p.add_argument("--sigma", type=float, default=0.02)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--method", choices=["gl", "wnll", "il", "all"], default="all")
    p.add_argument("--alpha", type=float, default=0.0)
    p.set_defaults(func=cmd_toy2d)

    p = sub.add_parser("inpaint", help="inpaint a PGM image")
    p.add_argument("image")
    mask = p.add_mutually_exclusive_group(required=True)
    mask.add_argument("--mask-density", type=float, default=None)
    mask.add_argument("--mask-file", default=None)
    p.add_argument("--method", choices=["gl", "wnll", "il"], default="il")
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--patch", type=int, default=11)
    p.add_argument("--k", type=int, default=50)
    p.add_argument("--k-sigma", type=int, default=20)
    p.add_argument("--outer-iters", type=int, default=8)
    p.add_argument("--oracle-weights", default=None,
                   help="clear image supplying the patch weights (single solve)")
    p.add_argument("--ground-truth", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_inpaint)

    p = sub.add_parser("gamma", help="run the convergence study")
    p.add_argument("--problem", choices=["1d", "circle"], default="1d")
    p.add_argument("--n-values", default="125,250,500,1000,2000")
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--r-adjust", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gamma)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, else 2
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except (InvalidParameterError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, InvalidParameterError) else 2


if __name__ == "__main__":
    sys.exit(main())
