"""qpecf benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload campaign_few --seed 1 --seconds 20 --trace 0

Run from the root of a qpecf checkout; the package is imported from its
``src``. Each step runs in a fresh interpreter:

1. the correctness gates (gates.py), outside every timed region;
2. with ``--trace 0``: the measured run, which repeats passes of the
   workload for ``--seconds`` (at least two passes) and reports the
   end-to-end metrics, bracketed by set-ups timed for ``setup_s``; the
   throughput is in reference seconds (refclock.py), with the wall-clock
   figure printed beside it;
3. with ``--trace 1``: one untraced and one traced pass, reporting the
   per-layer metrics, plus a ``workers=2`` pass for the campaigns.

The metric names and units come from BENCHMARK.json. Human-readable lines
and a metadata line come first; the last stdout line is the JSON result.
The exit code is 1 when a gate or an output check fails, 2 when the
checkout has no qpecf sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 9
# Every child must end inside this budget, leaving the 180 s limit a margin.
BUDGET_S = 170.0
OUT_DIR = ".perfbench-out"
WORKLOADS = ("campaign_few", "campaign_mega", "readout_wide")


class ChildFailed(RuntimeError):
    pass


class Runner:
    def __init__(self, root: str):
        self.deadline = time.monotonic() + BUDGET_S
        src = os.path.join(root, "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))

    def child(self, *args) -> tuple[float, dict | None]:
        """Run worker.py with args; return its wall time and parsed last line."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise ChildFailed("time budget exhausted")
        started = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, WORKER, *map(str, args)],
                stdout=subprocess.PIPE,
                env=self.env,
                timeout=remaining,
                text=True,
            )
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"worker {args[0]} timed out") from exc
        elapsed = time.perf_counter() - started
        if proc.returncode != 0:
            raise ChildFailed(f"worker {args[0]} exited with {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        return elapsed, json.loads(lines[-1]) if lines else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qpecf", "__init__.py")):
        print("perfbench: no src/qpecf in the current directory; run from a qpecf checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    runner = Runner(root)
    try:
        _, gates = runner.child("gates")
        if args.trace:
            _, work = runner.child("trace", args.workload, args.seed, os.path.join(root, OUT_DIR))
            computed = work["metrics"]
            wanted = spec["per_layer"]
            samples = work["samples"]
        else:
            # Set-up samples bracket the measured run, so a slow spell of the
            # machine at one end does not set the median.
            setup = [runner.child("setup", args.workload, args.seed)[0]
                     for _ in range(SETUP_SAMPLES // 2)]
            _, work = runner.child("measure", args.workload, args.seed, args.seconds)
            setup += [runner.child("setup", args.workload, args.seed)[0]
                      for _ in range(SETUP_SAMPLES - len(setup))]
            computed = {
                "trials_per_s": work["trials_per_s"],
                "setup_s": statistics.median(setup),
                "peak_rss_mb": work["peak_rss_mb"],
            }
            wanted = spec["end_to_end"]
            samples = dict(work["samples"], setup_s=SETUP_SAMPLES)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = work["fits"] + gates["checks"]
    failed = work["failed"] + len(gates["failed"])
    correct = failed == 0
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in wanted}

    for name, metric in metrics.items():
        print(f"{name:52s} {metric['value']:.6g} {metric['unit']}")
    print(f"{'failed_frac':52s} {failed / attempted:.6g} frac ({failed}/{attempted})")
    if "crlb_ratio_gmean" in work:
        print(f"{'crlb_ratio_gmean':52s} {work['crlb_ratio_gmean']:.6g} ratio")
    if "trials_per_wall_s" in work:
        print(f"{'trials_per_wall_s':52s} {work['trials_per_wall_s']:.6g} 1/s (wall clock)")
    for problem in gates["failed"] + work["problems"]:
        print(f"FAILED {problem}")
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "samples": samples,
        "failed_frac": failed / attempted,
        "gates": {"checks": gates["checks"], "failed": len(gates["failed"])},
    }
    for key in ("crlb_ratio_gmean", "trials_per_wall_s", "passes", "measured_s",
                "absent_sites", "absent_layers", "not_applicable", "spans_file", "untraced_s",
                "traced_s", "unit_times_s", "unit_times_ref_s", "kernel_s", "qpecf_file"):
        if key in work:
            meta[key] = work[key]
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
