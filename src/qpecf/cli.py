"""Command-line front end: pmf dumps, simulation, fitting, Fisher tables, benchmarks.

Exit codes: 0 success, 1 usage error (bad flags, malformed inputs,
precondition violations), 2 computation, fit or allocation failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import numpy as np

from .bench import BenchGrid, fit_scaling_exponents, records_to_csv, run_grid
from .errors import ConfigError, DomainError, FitError
from .fitting import fit_multi, fit_single
from .formatting import render_csv, sig12
from .model import MAX_PHASES, PhaseModel, RegisterSpec, _check_int
from .pmf import fisher_information, pmf_vector
from .simulate import ShotHistogram, SimUnitary, histogram_to_probs, sample_shots, simulate_distribution

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage failures exit 1 instead of 2."""

    def error(self, message: str):
        raise _UsageError(f"{self.prog}: {message}")


def _parse_number(text: str) -> float:
    """Parse a decimal or exact rational 'p/q' flag value; PhaseComponent checks its range.

    '1/3' parses to the nearest representable real of one third.
    """
    try:
        return float(Fraction(text.strip()))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ConfigError(f"cannot parse {text!r} as a number") from exc


def _parse_component(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ConfigError(f"component must look like 'theta:weight', got {text!r}")
    return _parse_number(parts[0]), _parse_number(parts[1])


def _model_from_args(args) -> PhaseModel:
    if args.theta is not None and args.component:
        raise ConfigError("give either --theta or --component, not both")
    if args.theta is not None:
        return PhaseModel.single(_parse_number(args.theta))
    if args.component:
        return PhaseModel.from_pairs(_parse_component(c) for c in args.component)
    raise ConfigError("one of --theta or --component is required")


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except ValueError as exc:  # JSONDecodeError, non-UTF-8 bytes, an over-long integer
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _write_json(path: str, obj) -> None:
    _write_text(path, json.dumps(obj.to_json_dict()) + "\n")


def _add_model_flags(sub) -> None:
    sub.add_argument("--theta", help="single eigenphase, decimal or 'p/q'")
    sub.add_argument(
        "--component",
        action="append",
        metavar="THETA:WEIGHT",
        help="mixture component, repeatable; weights must sum to 1",
    )


def _cmd_pmf(args) -> int:
    reg = RegisterSpec(args.n)
    probs = pmf_vector(reg, _model_from_args(args))
    _write_text(args.out, render_csv({"y": str, "probability": sig12}, enumerate(probs)))
    return 0


def _cmd_simulate(args) -> int:
    reg = RegisterSpec(args.n)
    dist = simulate_distribution(reg, SimUnitary.from_model(_model_from_args(args)))
    hist = sample_shots(dist, args.shots, args.seed)
    _write_json(args.out, hist)
    return 0


def _cmd_fit(args) -> int:
    _check_int(args.phases, "--phases", 1, MAX_PHASES)
    dist = histogram_to_probs(ShotHistogram.from_json_dict(_read_json(args.counts)))
    if args.phases == 1:
        result = fit_single(dist)
    else:
        result = fit_multi(dist, args.phases)
    _write_json(args.out, result)
    return 0


def _cmd_fisher(args) -> int:
    if args.n_min > args.n_max:
        raise ConfigError(f"--n-min {args.n_min} exceeds --n-max {args.n_max}")
    columns = {"n": str, "M": str, "fisher_information": sig12, "crlb_rmse": sig12}
    rows = []
    for n in range(args.n_min, args.n_max + 1):
        reg = RegisterSpec(n)
        fi = fisher_information(reg)
        rows.append((n, reg.M, fi, 1.0 / np.sqrt(fi)))
    _write_text(args.out, render_csv(columns, rows))
    return 0


def _cmd_bench(args) -> int:
    records = run_grid(BenchGrid.from_json_dict(_read_json(args.config)), workers=args.threads)
    _write_text(args.out_csv, records_to_csv(records))
    if args.out_scaling is not None:
        try:
            summary = fit_scaling_exponents(records)
        except DomainError as exc:
            # Well-formed inputs that cannot support the regression are a
            # computation-level failure, not a usage error.
            raise FitError(f"scaling fit failed: {exc}") from exc
        _write_json(args.out_scaling, summary)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="qpecf", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("pmf", help="dump the analytic outcome distribution as CSV")
    sub.add_argument("--n", type=int, required=True, help="recording qubits")
    _add_model_flags(sub)
    sub.add_argument("--out", default="-", help="output path, '-' for stdout")
    sub.set_defaults(handler=_cmd_pmf)

    sub = subs.add_parser("simulate", help="simulate the circuit and sample shot counts")
    sub.add_argument("--n", type=int, required=True, help="recording qubits")
    _add_model_flags(sub)
    sub.add_argument("--shots", type=int, required=True, help="number of circuit executions")
    sub.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    sub.add_argument("--out", default="-", help="output path, '-' for stdout")
    sub.set_defaults(handler=_cmd_simulate)

    sub = subs.add_parser("fit", help="fit phases to a saved shot histogram")
    sub.add_argument("--counts", required=True, help="histogram JSON path")
    sub.add_argument("--phases", type=int, default=1, help="number of phases to fit")
    sub.add_argument("--out", default="-", help="output path, '-' for stdout")
    sub.set_defaults(handler=_cmd_fit)

    sub = subs.add_parser("fisher", help="tabulate Fisher information and CRLB per register size")
    sub.add_argument("--n-min", type=int, default=1, help="smallest recording-qubit count")
    sub.add_argument("--n-max", type=int, default=8, help="largest recording-qubit count")
    sub.add_argument("--out", default="-", help="output path, '-' for stdout")
    sub.set_defaults(handler=_cmd_fisher)

    sub = subs.add_parser("bench", help="run a Monte Carlo campaign from a grid config")
    sub.add_argument("--config", required=True, help="grid config JSON path")
    sub.add_argument("--out-csv", required=True, help="per-cell CSV output path")
    sub.add_argument("--out-scaling", help="scaling-exponent JSON output path")
    sub.add_argument(
        "--threads", type=int, default=1,
        help="worker process count (default 1); each worker takes about 0.4 s to start, "
        "so more than one pays off only on grids that run for several seconds",
    )
    sub.set_defaults(handler=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (ConfigError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FitError, np.linalg.LinAlgError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
