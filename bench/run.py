"""nckahler benchmark.

One run of one workload, in the form BENCHMARK.json describes:

    python3 bench/run.py --workload n22-sweep --seed 1 --seconds 28 --trace 0

prints, as its last line, {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.

Every workload, untraced and then traced, with a table of every metric, the
tracing overhead and the layer-to-metric map:

    python3 bench/run.py --all --seed 1 --seconds 28

Each run is one fresh worker interpreter (bench/worker.py) with one BLAS
thread (see BLAS_THREADS); set-up is measured in that worker and in
SETUP_PROBES more set-up-only workers, and reported as the median.

Times of the interpreter-bound workloads are reported at a fixed machine
speed.  A shared machine's speed drifts by tens of percent within minutes,
which would drown a regression bound, so the worker samples a fixed
calibration kernel every half second (untimed), and each item's time is
scaled by CAL_REF_S / the mean calibration time around that item; per-layer
times use the run's mean.  See CALIBRATED for the workloads this applies to.
Set-up time, mostly imports, barely follows the kernel and is reported raw.
Results files, with the raw times and provenance, go to .bench_out/results/.

Seed 20261017 is held out: use it only to re-check a claim made on others.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("n22-sweep", "real-structure", "leaf-linalg")
# Seconds one pass took on the 2-core machine that defined the benchmark, with
# one BLAS thread.  A run makes round(seconds / nominal) passes, so the parent
# commit and a change run the same items under the same --seconds.
NOMINAL_PASS_S = {"n22-sweep": 14.0, "real-structure": 13.0, "leaf-linalg": 10.5}
HELD_OUT_SEED = 20261017
SETUP_PROBES = 4
# Mean time of worker.calibrate() on the machine that defined the benchmark.
CAL_REF_S = 0.05
# Workloads whose times are scaled to CAL_REF_S.  The kernel follows
# interpreter-bound work; leaf-linalg spends its time in multi-threaded LAPACK
# calls, which the kernel does not follow and during which the timer cannot
# fire.  Over ten seeds scaling cut the spread of wall_s from 8% to 3% on
# n22-sweep and from 30% to 3% on real-structure, and raised it from 3% to 18%
# on leaf-linalg, whose times are therefore reported raw.
CALIBRATED = ("n22-sweep", "real-structure")
WORKER_TIMEOUT_S = 160
# BLAS/LAPACK threads of the worker.  One thread keeps the dense leaves off the
# scheduler of a small shared machine.  It also avoids a known defect: with two
# OpenBLAS threads, holomorphic.h0_solve raises LinAlgError("SVD did not
# converge") in scipy's null_space (gesdd) on some inputs, for instance
# `holo h0 --radius 2` on the m=1 leaf-linalg connection of seeds 1320943654,
# 404285457 and 300026767; with one thread the same inputs solve.
BLAS_THREADS = 1
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "item_p50_s": "s", "item_tail_s": "s",
             "peak_rss_mb": "MB", "fail_ratio": "ratio"}

# Which end-to-end metric, on which workload, each layer should move.
MOVES = {
    "torus": "wall_s and item_p50_s on real-structure; less on n22-sweep; "
             "hardly on leaf-linalg",
    "ncdiff": "compose/adjoint/matmul: wall_s on n22-sweep, not leaf-linalg; "
              "apply: wall_s on real-structure only",
    "kahler": "verify_n22, verify_pm, package counts: wall_s on n22-sweep; "
              "real_structure: wall_s on real-structure",
    "clifford": "setup_s on every workload; n22-sweep rebuilds once per CLI call",
    "forms": "wall_s on leaf-linalg only",
    "holo": "wall_s and peak_rss_mb on leaf-linalg only",
    "report/cli": "wall_s on n22-sweep, a little",
}


class BenchError(RuntimeError):
    pass


def usable_cpus():
    return len(os.sched_getaffinity(0))


def run_worker(workload, seed, passes, trace, setup_only=False):
    """Run bench/worker.py in a fresh interpreter and return its result."""
    if not (ROOT / "src" / "nckahler").is_dir():
        raise BenchError(f"no nckahler sources under {ROOT / 'src'}")
    OUT.mkdir(exist_ok=True)
    threads = str(BLAS_THREADS)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        result_file = workdir / "result.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--passes", str(passes), "--trace", str(trace),
               "--workdir", str(workdir), "--result", str(result_file)]
        if setup_only:
            cmd.append("--setup-only")
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0 or not result_file.exists():
            raise BenchError(f"worker for {workload} exited {proc.returncode}:\n"
                             f"{proc.stderr.strip()[-2000:]}")
        return json.loads(result_file.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def tail(item_s, per_pass):
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples beyond it.  Below 21 samples that percentile would not
    lie above the median, so the value is then the median over passes of the
    pass's slowest item."""
    s = sorted(item_s)
    if len(s) < 21:
        return statistics.median(max(item_s[i:i + per_pass])
                                 for i in range(0, len(item_s), per_pass)), 100.0, 0
    i = len(s) - 11
    return s[i], 100.0 * (i + 1) / len(s), len(s) - 1 - i


def wall(res, item_s):
    """Median time of a whole pass over the workload's items."""
    n = len(res["item_keys"])
    return statistics.median(sum(item_s[i:i + n]) for i in range(0, len(item_s), n))


def end_to_end(res, item_s, setup_s):
    return {
        "setup_s": setup_s,
        "wall_s": wall(res, item_s),
        "item_p50_s": statistics.median(item_s),
        "item_tail_s": tail(item_s, len(res["item_keys"]))[0],
        "peak_rss_mb": res["peak_rss_mb"],
        "fail_ratio": res["failed"] / res["attempted"],
    }


def measure(workload, seed, seconds, trace):
    """One run: the contract line's fields plus everything the results file keeps."""
    passes = max(1, round(seconds / NOMINAL_PASS_S[workload]))
    res = run_worker(workload, seed, passes, trace)
    item_s, speed = res["item_s"], 1.0
    if workload in CALIBRATED:
        # items at the machine speed around each item; layers at the run's mean
        item_s = [t * CAL_REF_S / c for t, c in zip(res["item_s"], res["item_cal_s"])]
        speed = CAL_REF_S / statistics.fmean(res["cal_s"])
    out = {"workload": workload, "seed": seed, "traced": bool(trace), "passes": passes,
           "attempted": res["attempted"], "failed": res["failed"],
           "errors": res["errors"], "item_keys": res["item_keys"],
           "raw_item_s": res["item_s"], "item_calibration_s": res["item_cal_s"],
           "calibration_s": res["cal_s"], "speed_factor": speed}
    if trace:
        out["layers"] = {k: v * speed if k.endswith(".s") else v
                         for k, v in res["layers"].items()}
        out["layers"]["traced.wall_s"] = wall(res, item_s)
        return out
    setups = [res["setup_s"]] + [run_worker(workload, seed, 0, 0, setup_only=True)["setup_s"]
                                 for _ in range(SETUP_PROBES)]
    _, pct, beyond = tail(item_s, len(res["item_keys"]))
    out["raw_setup_s"] = setups
    out["item_tail"] = {"percentile": pct, "samples": len(item_s), "samples_beyond": beyond}
    out["end_to_end"] = end_to_end(res, item_s, statistics.median(setups))
    out["raw_end_to_end"] = end_to_end(res, res["item_s"], statistics.median(setups))
    return out


# -- provenance and results files -------------------------------------------


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(seeds):
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "usable_cpus": usable_cpus(),
            "cpu_model": _cpu_model(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "openblas_threads": BLAS_THREADS, "git_commit": _git_commit(),
            "seeds": seeds, "held_out_seed": HELD_OUT_SEED}


def _untraced_wall(workload, seed):
    path = OUT / "results" / f"{workload}-seed{seed}-trace0.json"
    try:
        return json.loads(path.read_text())["end_to_end"]["wall_s"]
    except (OSError, KeyError, ValueError):
        return None


def write_results(name, obj):
    path = OUT / "results" / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")
    return path


def contract_line(run, metrics):
    return json.dumps({"correct": run["failed"] == 0, "attempted": run["attempted"],
                       "failed": run["failed"], "metrics": metrics})


def main_one(args):
    run = measure(args.workload, args.seed, args.seconds, args.trace)
    if args.trace:
        untraced = _untraced_wall(args.workload, args.seed)
        run["tracing_overhead_s"] = (None if untraced is None
                                     else run["layers"]["traced.wall_s"] - untraced)
        units = layer_units()
        metrics = {k: {"value": v, "unit": units[k]} for k, v in run["layers"].items()}
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]}
                   for k, v in run["end_to_end"].items() if k != "fail_ratio"}
    run["provenance"] = provenance({args.workload: args.seed})
    write_results(f"{args.workload}-seed{args.seed}-trace{args.trace}.json", run)
    for err in run["errors"]:
        print(err, file=sys.stderr)
    print(contract_line(run, metrics))


def layer_units():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer"]}


def main_all(args):
    runs = {}
    for workload in WORKLOADS:
        plain = measure(workload, args.seed, args.seconds, 0)
        traced = measure(workload, args.seed, args.seconds, 1)
        plain["layers"] = traced["layers"]
        plain["tracing_overhead_s"] = traced["layers"]["traced.wall_s"] - plain["end_to_end"]["wall_s"]
        runs[workload] = plain
    obj = {"provenance": provenance({w: args.seed for w in WORKLOADS}),
           "seconds": args.seconds, "layer_moves": MOVES, "runs": runs}
    path = write_results(f"all-seed{args.seed}.json", obj)
    units = layer_units()
    for workload, run in runs.items():
        t = run["item_tail"]
        print(f"== {workload}: {run['attempted']} items in {run['passes']} passes, "
              f"item_tail_s is p{t['percentile']:.1f} of {t['samples']}")
        for k, v in run["end_to_end"].items():
            print(f"  {k:<34} {v:>14.6g} {E2E_UNITS[k]}")
        print(f"  {'tracing_overhead_s':<34} {run['tracing_overhead_s']:>14.6g} s")
        for k, v in run["layers"].items():
            print(f"  {k:<34} {v:>14.6g} {units[k]}")
        for err in run["errors"]:
            print(f"  FAILED {err}")
    print(f"results: {path}")
    return 0 if all(r["failed"] == 0 for r in runs.values()) else 1


def main(argv=None):
    p = argparse.ArgumentParser(description="nckahler benchmark")
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=28)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.all == bool(args.workload):
        p.error("give exactly one of --workload and --all")
    try:
        if args.all:
            return main_all(args)
        main_one(args)
        return 0
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
