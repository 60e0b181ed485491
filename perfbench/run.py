"""sedlab benchmark: run one workload (or all of them) and report its metrics.

    python3 perfbench/run.py --workload kinetic-64 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root; sedlab is imported from ``src/`` next to this
directory and nowhere else.  With ``--trace 0`` the run times the workload
untraced and prints the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it runs the workload once untraced and twice with span
wrappers installed, and prints the per-layer metrics.  Either way the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Load comes from this one process;
``--workload all`` runs each workload in a child process of its own, one
after another, so that peak memory is measured per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
THREADS = 1  # BLAS threads; one keeps timings steady on a shared 2-core box
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
IMPORT_PROBE = "import time; t = time.perf_counter(); import sedlab.harness; print(time.perf_counter() - t)"


def _parse(argv):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=names + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv), spec


def _import_sedlab():
    """Import sedlab from this checkout's src/ and from nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import sedlab

    if Path(sedlab.__file__).resolve().parent != ROOT / "src" / "sedlab":
        raise SystemExit(f"sedlab imported from {sedlab.__file__}, not from {ROOT / 'src'}")


def _import_times():
    """Seconds to import sedlab in fresh interpreters, one per set-up repeat."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return [
        float(subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT, check=True,
                             capture_output=True, text=True, timeout=120).stdout)
        for _ in range(SETUP_REPEATS)
    ]


def _git_sha():
    """HEAD of the checkout; None outside a git repository or without git."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))  # look no higher than ROOT
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _environment(args):
    import numpy as np
    import scipy
    from scipy import fft

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "fft_workers": fft.get_workers(),
        "git_sha": _git_sha(),
    }


def _timed_op(wl, state, label):
    """Run one operation; returns ((wall s, cpu s), outcome or None, problems)."""
    started, cpu = time.perf_counter(), time.process_time()
    try:
        outcome = wl.op(state, WORK)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        outcome = None
    seconds = (time.perf_counter() - started, time.process_time() - cpu)
    return seconds, outcome, [f"{label}: raised"] if outcome is None else list(outcome.problems)


def _fresh_setup(wl, seed):
    from sedlab import kernels

    kernels._OPERATOR_CACHE.clear()  # every set-up pays for its Stokes tables
    started = time.perf_counter()
    state = wl.setup(seed)
    return time.perf_counter() - started, state


def _hash_problems(earlier, outcome, label):
    """Two runs on one seed must agree bit for bit."""
    first = next((o for o in earlier if o is not None), None)
    if first is None or outcome is None or outcome.digest == first.digest:
        return []
    return [f"{label}: final-state hash differs from the first run on this seed"]


def run_untraced(wl, args, spec):
    import_times = _import_times()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        seconds, state = _fresh_setup(wl, args.seed)
        setup_times.append(seconds)
    op_times, cpu_times, outcomes, failed = [], [], [], 0
    started = time.perf_counter()
    while not op_times or time.perf_counter() - started < args.seconds:
        label = f"operation {len(op_times) + 1}"
        seconds, outcome, problems = _timed_op(wl, state, label)
        problems += _hash_problems(outcomes, outcome, label)
        for p in problems:
            print(f"FAILED: {p}")
        failed += bool(problems)
        op_times.append(seconds[0])
        cpu_times.append(seconds[1])
        outcomes.append(outcome)
    # accuracy figures are deterministic for a seed; equal hashes make every op agree
    figures = next((o.figures for o in outcomes if o is not None), {})
    values = {
        "wall_s": statistics.median(op_times),
        "setup_s": statistics.median(import_times) + statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "accuracy_figure": figures.get(wl.figure, float("nan")),
    }
    print(f"operations = {len(op_times)}, times_s = {[round(t, 4) for t in op_times]}, "
          f"cpu_s = {[round(t, 4) for t in cpu_times]}")
    print(f"import_s = {[round(t, 4) for t in import_times]}, "
          f"setup_s = {[round(t, 4) for t in setup_times]}")
    print(f"failed_frac = {failed / len(op_times):.4g} 1")
    for name, value in figures.items():
        print(f"{name} = {value:.6g} 1")
    return len(op_times), failed, values, spec["end_to_end"]


def run_traced(wl, args, spec):
    import layers
    import spans

    names = [m["name"] for m in spec["per_layer"]]
    tracer = spans.Tracer()
    walls, outcomes, reps, failed = [], [], [], 0

    def rep(label):
        started = time.perf_counter()
        _, state = _fresh_setup(wl, args.seed)
        _, outcome, problems = _timed_op(wl, state, label)
        return started, time.perf_counter(), outcome, problems

    start, end, outcome, problems = rep("untraced run")
    untraced_wall = end - start
    outcomes.append(outcome)
    failed += bool(problems)
    layers.install(tracer)
    try:
        for k in (1, 2):
            tracer.reset()
            start, end, outcome, problems = rep(f"traced run {k}")
            walls.append(end - start)
            problems += _hash_problems(outcomes, outcome, f"traced run {k}")
            outcomes.append(outcome)
            measured = layers.layer_metrics(tracer.spans, tracer.counts, names)
            measured["trace.covered_frac"] = spans.covered_fraction(tracer.spans, start, end)
            reps.append(measured)
            _write_spans(args, k, tracer.spans)
            if k == 2:
                problems += [f"traced count {c} changed: {reps[0][c]} then {reps[1][c]}"
                             for c in layers.REPEATABLE if reps[0][c] != reps[1][c]]
            for p in problems:
                print(f"FAILED: {p}")
            failed += bool(problems)
    finally:
        tracer.remove()
    left = layers.leftover_wrappers()
    if left:
        print(f"FAILED: wrappers left installed after the traced run: {left}")
        failed += 1
    # counts repeat exactly and stay whole numbers; times take the median
    values = {n: statistics.median(r[n] for r in reps) if reps[0][n] != reps[1][n] else reps[0][n]
              for n in names if n in reps[0]}
    values["trace.overhead_s"] = statistics.median(walls) - untraced_wall
    print(f"untraced_wall_s = {untraced_wall:.4f}, traced_wall_s = {[round(w, 4) for w in walls]}")
    return len(outcomes), failed, values, spec["per_layer"]


def _write_spans(args, k, span_list):
    path = WORK / f"spans_{args.workload}_seed{args.seed}_rep{k}.json"
    rows = [[s.name, s.start, s.end, s.parent] for s in span_list]
    path.write_text(json.dumps({"fields": ["name", "start", "end", "parent"], "spans": rows}))


def run_one(args, spec):
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)  # read once, when numpy loads BLAS
    _import_sedlab()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    WORK.mkdir(exist_ok=True)
    print("environment = " + json.dumps(_environment(args), sort_keys=True))
    wl = WORKLOADS[args.workload]
    if args.trace:
        attempted, failed, values, declared = run_traced(wl, args, spec)
    else:
        attempted, failed, values, declared = run_untraced(wl, args, spec)
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))


def run_all(args, spec):
    """Each workload in its own child process, one at a time."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {w['name']}: {w['why']}", flush=True)
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        sys.stdout.write(child.stdout)
        if child.returncode != 0:
            raise SystemExit(f"workload {w['name']} exited with {child.returncode}")
        result = json.loads(child.stdout.strip().splitlines()[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            total["metrics"][f"{w['name']}/{name}"] = m
    print(json.dumps(total))


def main(argv=None):
    args, spec = _parse(argv)
    if args.workload == "all":
        run_all(args, spec)
    else:
        run_one(args, spec)


if __name__ == "__main__":
    main()
