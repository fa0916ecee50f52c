"""Benchmark of ilgraph: time to result on the toy2d, desk and gamma1d workloads.

    python3 bench/run.py --workload toy2d --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``. The workload is repeated until ``--seconds`` have passed, and the
medians over repetitions are reported. With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` untraced and traced repetitions alternate and it holds the
per-layer metrics. Full records (and, traced, every span) are written
under ``.bench_out/``. ``--smoke`` shrinks every workload to a few seconds.
"""

import os

# fix the BLAS/OpenMP pool before numpy loads; set-up probes inherit it
THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 9
WORKLOAD_NAMES = ("toy2d", "desk", "gamma1d")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for the benchmark's own tests")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)  # child process timed for setup_s
    return ap.parse_args(argv)


def import_library():
    """Import ilgraph from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "ilgraph", "__init__.py")):
        sys.exit(f"error: no ilgraph sources under {SRC}")
    sys.path.insert(0, SRC)
    import ilgraph
    if not os.path.abspath(ilgraph.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: ilgraph loaded from {ilgraph.__file__}, not {SRC}")


def setup_seconds(args):
    """Wall time from starting a fresh interpreter until its inputs are
    ready (imports included), as the median over several processes."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0"] + (["--smoke"] if args.smoke else [])
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or code != 0:
            sys.exit(f"error: set-up probe failed (exit {code})")
        times.append(elapsed)
    return statistics.median(times), times


def environment():
    import numpy
    import scipy
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"git_sha": sha, "numpy": numpy.__version__, "scipy": scipy.__version__,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "blas_threads": THREADS}


def timed_rep(run_id, run, inputs):
    """One repetition: the time to result and the checked outcome."""
    t0 = time.perf_counter()
    outcome = run(inputs)
    return {"run": run_id, "total_s": time.perf_counter() - t0, "outcome": outcome}


def main(argv=None):
    args = parse_args(argv)
    import_library()
    import workloads
    prepare, run = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        prepare(args.seed, args.smoke)
        print("ready", flush=True)
        return 0

    setup = setup_seconds(args) if not args.trace else None
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install("setup")
    try:
        inputs = prepare(args.seed, args.smoke)
    finally:
        if tracer:
            tracer.uninstall()

    reps = []
    if tracer:  # absorbs first-run costs, so the overhead compares warm runs
        reps.append(timed_rep("warm-up", run, inputs))
    start = time.perf_counter()
    while len(reps) < 2 or time.perf_counter() - start < args.seconds:
        reps.append(timed_rep("untraced", run, inputs))
        if tracer:
            run_id = f"{args.workload}-{args.seed}-{len(reps)}"
            tracer.install(run_id)
            try:
                reps.append(timed_rep(run_id, run, inputs))
            finally:
                tracer.uninstall()

    attempted = sum(len(r["outcome"].ops) for r in reps)
    failures = [f for r in reps for f in r["outcome"].failed]
    if not args.trace:
        values = {
            "setup_s": setup[0],
            "total_s": statistics.median(r["total_s"] for r in reps),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "il_objective": statistics.median(r["outcome"].il_objective for r in reps),
        }
    else:
        values = layer_values(tracer, reps)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        units = {m["name"]: m["unit"]
                 for m in json.load(fh)["per_layer" if args.trace else "end_to_end"]}
    # a value that cannot be computed (its operation failed) is reported as null
    metrics = {name: {"value": values.get(name, 0)
                      if math.isfinite(values.get(name, 0)) else None, "unit": unit}
               for name, unit in units.items()}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "smoke": args.smoke, "seconds": args.seconds,
              "environment": environment(),
              "setup_probes_s": setup[1] if setup else None,
              "reps": [{"run": r["run"], "total_s": r["total_s"],
                        "il_objective": r["outcome"].il_objective,
                        "info": r["outcome"].info, "failed": r["outcome"].failed}
                       for r in reps],
              "uncalled": tracer.uncalled() if tracer else None,
              "missing": tracer.missing if tracer else None,
              "metrics": metrics}
    write_record(args, record, tracer)
    print_summary(args, record, attempted, failures)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def layer_values(tracer, reps):
    """Median over traced repetitions of each per-layer metric, plus the
    one-off set-up spans and the tracing overhead."""
    untraced = [r["total_s"] for r in reps if r["run"] == "untraced"]
    traced = [r for r in reps if r["run"] not in ("untraced", "warm-up")]
    per_rep = [{**tracer.layer_metrics(r["run"]), **r["outcome"].info}
               for r in traced]
    names = {k for m in per_rep for k in m}
    values = {k: statistics.median(m.get(k, 0) for m in per_rep) for k in names}
    for k, v in tracer.layer_metrics("setup").items():
        values[k] = values.get(k, 0) + v
    values["trace.overhead_s"] = (statistics.median(r["total_s"] for r in traced)
                                  - statistics.median(untraced))
    values["trace.uncalled"] = len(tracer.uncalled())
    values["trace.missing"] = len(tracer.missing)
    return values


def write_record(args, record, tracer):
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"BENCH_{args.workload}{'_trace' if args.trace else ''}"
    with open(os.path.join(OUT_DIR, stem + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if tracer:
        with open(os.path.join(OUT_DIR, stem + "_spans.jsonl"), "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")


def print_summary(args, record, attempted, failures):
    env = record["environment"]
    seed_note = " (inputs fixed, seed unused)" if args.workload == "toy2d" else ""
    print(f"workload {args.workload}{' smoke' if args.smoke else ''} "
          f"seed {args.seed}{seed_note}; {len(record['reps'])} repetitions; "
          f"sha {env['git_sha']}; numpy {env['numpy']} scipy {env['scipy']}; "
          f"nproc {env['nproc']}; BLAS threads {env['blas_threads']}")
    for name, m in record["metrics"].items():
        print(f"  {name:40s} {m['value']} {m['unit']}")
    if not args.trace:
        for name in record["reps"][0]["info"]:
            value = statistics.median(r["info"][name] for r in record["reps"]
                                      if name in r["info"])
            print(f"  {name:40s} {value:.6g} (informational)")
    if record["uncalled"]:
        print(f"  layers never called: {', '.join(record['uncalled'])}")
    if record["missing"]:
        print(f"  wrapped names that no longer exist: {', '.join(record['missing'])}")
    print(f"  operations: {attempted} attempted, {len(failures)} failed")
    for name, why in failures[:10]:
        print(f"  FAILED {name}: {why}")


if __name__ == "__main__":
    sys.exit(main())
