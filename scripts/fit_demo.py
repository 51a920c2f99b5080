#!/usr/bin/env python3
"""One end-to-end run: simulate a phase, fit it, compare against the CRLB.

The fitted estimate lands orders of magnitude inside the half-bin
resolution of the plain argmax readout.
"""

import argparse
import math

import numpy as np

from qpecf.bench import circular_error
from qpecf.fitting import fit_single
from qpecf.model import PhaseModel, RegisterSpec
from qpecf.pmf import crlb_mse
from qpecf.simulate import SimUnitary, histogram_to_probs, sample_shots, simulate_distribution


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--theta", type=float, default=1.0 / 3.0)
    ap.add_argument("--n", type=int, default=3)
    ap.add_argument("--shots", type=int, default=1_000_000)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()

    reg = RegisterSpec(args.n)
    dist = simulate_distribution(reg, SimUnitary.from_model(PhaseModel.single(args.theta)))
    hist = sample_shots(dist, args.shots, args.seed)
    observed = histogram_to_probs(hist)

    traditional = int(np.argmax(observed.probs)) / reg.M
    result = fit_single(observed)
    crlb_rmse = math.sqrt(crlb_mse(reg, args.shots))

    print(f"true phase          {args.theta:.12f}")
    print(f"traditional (y*/M)  {traditional:.12f}   error {circular_error(traditional, args.theta):.3e}")
    print(f"fitted              {result.phases[0]:.12f}   error {circular_error(result.phases[0], args.theta):.3e}")
    print(f"CRLB RMSE at k={args.shots}: {crlb_rmse:.3e}")
    print(f"start used: {result.start_used}, iterations: {result.iterations}, converged: {result.converged}")


if __name__ == "__main__":
    main()
