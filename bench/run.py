#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as the last line of stdout.

    python3 bench/run.py --workload tradeoff-A --seed 1 --seconds 20 --trace 0

With --trace 0 the workload's public entry point is timed from outside and the
end-to-end metrics of BENCHMARK.json are printed; with --trace 1 the same work
runs as separate calls into each module, a span around each, and the per-layer
metrics are printed. Either way every output is checked against independent
computations (checks.py) before the result line is printed. The program is
imported from the checkout's src/ directory; without it the script exits 1.
See bench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 9  # setup_s is the median of this many set-ups


def load_program() -> None:
    src = ROOT / "src"
    if not (src / "distclust" / "__init__.py").is_file():
        sys.exit(f"error: no program source under {src}")
    sys.path.insert(0, str(src))


def median_totals(tracers) -> dict[str, float]:
    totals = [tr.totals() for tr in tracers]
    names = {name for t in totals for name in t}
    return {name: statistics.median(t.get(name, 0) for t in totals) for name in names}


def run(workload, seed: int, seconds: float, traced: bool, workdir: Path) -> dict:
    from workloads import Tracer

    setup_seconds, setup_tracers = [], []

    def set_up(times: int):
        inputs = None
        for _ in range(times):
            inputs = None  # every set-up starts from the same, collected heap
            gc.collect()
            tr = Tracer() if traced else None
            start = perf_counter()
            inputs = workload.setup(seed, workdir, tr)
            setup_seconds.append(perf_counter() - start)
            setup_tracers.append(tr)
        return inputs

    # Set-ups are timed at both ends of the run: the machine's speed drifts
    # over tens of seconds, and a median over both ends depends less on the
    # moment the run began.
    inputs = set_up(SETUP_REPEATS - SETUP_REPEATS // 2)

    # Whole rounds only, so every run attempts the same operations; the next
    # round starts only if it should still end within the time given.
    round_seconds, round_tracers, attempted, failed = [], [], 0, 0
    began = perf_counter()
    while True:
        tr = Tracer() if traced else None
        start = perf_counter()
        done = workload.traced(inputs, tr) if traced else workload.timed(inputs)
        round_seconds.append(perf_counter() - start)
        round_tracers.append(tr)
        attempted += done.attempted
        failed += done.failed
        if perf_counter() - began + round_seconds[-1] > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    try:
        cells, problems = workload.verify(inputs, done.payload, traced)
    except Exception:  # an output too broken to read is a failed check, not a crash
        traceback.print_exc()
        cells, problems = [], ["the outputs could not be checked"]
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    end_to_end = {
        "wall_s": statistics.median(round_seconds),
        "peak_rss_mb": peak_rss_mb,
        "matching_quality": statistics.fmean(c.quality for c in cells) if cells else 0.0,
        "adjusted_rand": statistics.fmean(c.ari for c in cells) if cells else 0.0,
        "bytes_transmitted": sum(c.bytes or 0 for c in cells),
    }
    del inputs, done, cells
    set_up(SETUP_REPEATS // 2)

    if traced:
        values = median_totals(setup_tracers)
        for name, value in median_totals(round_tracers).items():
            values[name] = values.get(name, 0) + value
    else:
        values = {"setup_s": statistics.median(setup_seconds), **end_to_end}
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": values, "rounds": len(round_seconds)}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=None,
                        help="partition seed (default: the workload's dataset seed)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    load_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    seed = workload.data_seed if args.seed is None else args.seed
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    out_root = BENCH / "out"
    out_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=out_root))
    try:
        result = run(workload, seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir)
        try:
            out_root.rmdir()
        except OSError:  # another run still uses it
            pass
    values = result.pop("metrics")
    unknown = values.keys() - {m["name"] for m in declared}
    if unknown:
        sys.exit(f"error: metrics not declared in BENCHMARK.json: {sorted(unknown)}")
    print(f"{args.workload} seed {seed}: {result.pop('rounds')} round(s)", file=sys.stderr)
    # A layer this workload never calls reads 0.
    result["metrics"] = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                         for m in declared}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
