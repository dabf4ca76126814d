"""One benchmark run of one workload in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --passes P --trace 0|1
        --workdir DIR --result FILE [--setup-only] [--record FILE]

Times set-up (importing nckahler, building the Clifford representations and
writing the seeded inputs), then runs P passes over the workload's items,
checking each result against bench/reference.json, and writes a JSON result
file.  While the items run, a timer signal runs the fixed `calibrate` kernel
every CAL_PERIOD_S seconds; its time is taken out of item and span times, and
each item reports the mean calibration time around it, so that run.py can
take out the machine's changing speed.  `--record` also writes the first
pass's results in the reference format; that is how reference.json was made.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Wall-clock seconds between calibration samples.
CAL_PERIOD_S = 0.5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--passes", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--record")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    t0 = time.perf_counter()
    import nckahler
    if not Path(nckahler.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"nckahler imported from {nckahler.__file__}, not from {ROOT / 'src'}")
    meter = Speedometer()
    tracer = None
    if args.trace:
        import layers
        tracer = layers.Tracer(meter.clock)
        tracer.install()
    import workloads
    if args.workload not in workloads.DIMS:
        sys.exit(f"unknown workload {args.workload!r}")
    reps = workloads.build_reps(args.workload)
    inputs = workloads.make_inputs(args.workload, args.seed, args.workdir)
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s}
    if not args.setup_only:
        result.update(run_passes(args, workloads, reps, inputs, meter))
        if tracer is not None:
            result["layers"] = tracer.metrics()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(args.result).write_text(json.dumps(result, indent=1, sort_keys=True))


def calibrate():
    """Seconds for a fixed mix of the work nckahler does, independent of
    nckahler: dict/tuple/complex arithmetic, many small numpy calls and one
    dense complex SVD."""
    import numpy as np
    small = np.arange(36.0).reshape(6, 6) / 7
    dense = ((np.arange(160 * 160).reshape(160, 160) % 17) - 8) * (1 + 1j) / 8
    t0 = time.perf_counter()
    acc = {}
    for i in range(20000):
        key = (i % 97, i & 7)
        acc[key] = acc.get(key, 0j) + complex(i, 1) * 1.5
    for _ in range(1000):
        np.allclose(small, small, atol=1e-12)
    np.linalg.svd(dense)
    return time.perf_counter() - t0


class Speedometer:
    """Samples `calibrate` from a SIGALRM handler, which runs between
    bytecodes of the main thread, and keeps the time spent doing so."""

    def __init__(self):
        self.samples = []
        self.paused_s = 0.0

    def clock(self):
        """time.perf_counter() less the time spent calibrating."""
        return time.perf_counter() - self.paused_s

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(calibrate())
        self.paused_s += time.perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_passes(args, workloads, reps, inputs, meter):
    reference = {} if args.record else workloads.load_reference()
    todo = workloads.items(args.workload, inputs, reps, args.workdir)
    item_s, windows, errors, recorded = [], [], [], {}
    attempted = failed = 0
    with meter:
        meter.samples.append(calibrate())
        for p in range(args.passes):
            for key, call in todo:
                first, t_item = len(meter.samples), meter.clock()
                try:
                    got = call()
                    bad = [] if args.record else workloads.check(key, got, reference)
                except Exception as exc:  # a crashing item is a failed item
                    got, bad = None, [f"{key}: {type(exc).__name__}: {exc}"]
                item_s.append(meter.clock() - t_item)
                windows.append((first, len(meter.samples)))
                attempted += 1
                failed += bool(bad)
                errors += bad
                if p == 0:
                    recorded[key] = got
        meter.samples.append(calibrate())
    # an item's calibration: the samples during it and the one on either side
    item_cal_s = [statistics.fmean(meter.samples[a - 1:b + 1]) for a, b in windows]
    if args.record:
        Path(args.record).write_text("{\n" + ",\n".join(
            f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(recorded.items())) + "\n}\n")
    return {"item_keys": [key for key, _ in todo], "item_s": item_s,
            "item_cal_s": item_cal_s, "cal_s": meter.samples,
            "attempted": attempted, "failed": failed, "errors": errors[:20]}


if __name__ == "__main__":
    main()
