#!/usr/bin/env python3
"""Run the full benchmark campaign: 4 phases x n in 2..8 x 7 shot counts x 100 trials.

Writes the per-cell CSV and the scaling-exponent summary. With --threads 1
the grid took 116 s on a 2-vCPU machine; --threads defaults to one worker
per CPU.
"""

import argparse
import json
import os
import time
from pathlib import Path

from qpecf.bench import BenchGrid, fit_scaling_exponents, records_to_csv, run_grid, scaling_to_json

REPO = Path(__file__).resolve().parents[1]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=str(REPO / "configs" / "full_grid.json"))
    ap.add_argument("--out-csv", default=str(REPO / "results" / "full_grid.csv"))
    ap.add_argument("--out-scaling", default=str(REPO / "results" / "full_scaling.json"))
    ap.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    args = ap.parse_args()

    with open(args.config) as fh:
        grid = BenchGrid.from_json_dict(json.load(fh))
    cells = len(grid.phases) * len(grid.n_values) * len(grid.shot_values)
    print(f"{cells} cells x {grid.trials} trials on {args.threads} workers")

    t0 = time.perf_counter()
    records = run_grid(grid, workers=args.threads)
    elapsed = time.perf_counter() - t0
    invalid = sum(1 for r in records if not r.valid)
    print(f"done in {elapsed:.1f} s, {invalid} invalid cells")

    Path(args.out_csv).parent.mkdir(parents=True, exist_ok=True)
    with open(args.out_csv, "w") as fh:
        fh.write(records_to_csv(records))
    print(f"wrote {args.out_csv}")

    summary = fit_scaling_exponents(records)
    Path(args.out_scaling).parent.mkdir(parents=True, exist_ok=True)
    with open(args.out_scaling, "w") as fh:
        fh.write(scaling_to_json(summary))
    print(
        f"slope_vs_k = {summary.slope_vs_k:.4f}, slope_vs_M = {summary.slope_vs_M:.4f} "
        f"({summary.cells_used} cells)"
    )


if __name__ == "__main__":
    main()
