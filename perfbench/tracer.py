"""Outside-in tracer for qpecf.

The tracer never edits the package. It replaces names in qpecf's modules at
the sites where callers look them up (``qpecf.bench.sample_shots`` is the
name ``run_cell`` calls, ``qpecf.fitting.least_squares_box`` the name the
fitting layer calls) with wrappers that record a span per call, and it
wraps the residual and Jacobian callables handed to the solver. A site that
no longer exists is recorded as absent, so a refactor that removes or
renames a function still runs the same benchmark.

Spans are kept in memory as (layer, start, end, parent, self seconds) and
written out by ``dump`` when the run ends. A span's self time is its
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
import tracemalloc
from collections import defaultdict

import numpy as np
from qpecf.errors import FitError

# (module, attribute, layer, hook). The workloads call through the module
# attributes listed here, so every call into a layer passes one wrapper.
# Helpers inside a layer, such as fitting.bounded_nls, stay unwrapped: their
# time counts as the layer's self time, which a refactor that inlines or
# removes them leaves comparable.
SITES = (
    ("qpecf.bench", "run_grid", "bench.run_grid", None),
    ("qpecf.bench", "run_cell", "bench.run_cell", None),
    ("qpecf.bench", "cell_estimates", "bench.cell_estimates", None),
    ("qpecf.bench", "analytic_distribution", "pmf.analytic_distribution", None),
    ("qpecf.bench", "crlb_mse", "pmf.crlb_mse", None),
    ("qpecf.bench", "sample_shots", "simulate.sample_shots", "shots"),
    ("qpecf.bench", "histogram_to_probs", "simulate.histogram_to_probs", None),
    ("qpecf.bench", "fit_single", "fitting.fit_single", "fit_single"),
    ("qpecf.simulate", "simulate_distribution", "simulate.simulate_distribution", "alloc"),
    ("qpecf.simulate", "sample_shots", "simulate.sample_shots", "shots"),
    ("qpecf.simulate", "histogram_to_probs", "simulate.histogram_to_probs", None),
    ("qpecf.pmf", "analytic_distribution", "pmf.analytic_distribution", None),
    ("qpecf.pmf", "crlb_mse", "pmf.crlb_mse", None),
    ("qpecf.fitting", "fit_single", "fitting.fit_single", "fit_single"),
    ("qpecf.fitting", "fit_multi", "fitting.fit_multi", "fit_multi"),
    ("qpecf.fitting", "least_squares_box", "solver.least_squares_box", "solver"),
    ("qpecf.solver", "least_squares_box", "solver.least_squares_box", "solver"),
)

KERNEL = "pmf.kernel"


def _pass_args(args, kwargs):
    return args, kwargs, None


def _ignore(*_):
    return None


def _arg(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


class Tracer:
    """Records spans and per-layer counts for calls through patched sites."""

    def __init__(self, sites=SITES):
        self.sites = sites
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.installed: set[str] = set()
        self._stack: list[list] = []  # [span index, start, child seconds]
        self._restore: list[tuple] = []

    # -- span bookkeeping -------------------------------------------------
    def _enter(self) -> list:
        frame = [len(self.spans), time.perf_counter(), 0.0]
        self.spans.append(None)  # filled on exit; parents precede children
        self._stack.append(frame)
        return frame

    def _exit(self, layer: str, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame[1]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        self.spans[frame[0]] = (
            layer,
            frame[1],
            end,
            parent[0] if parent is not None else -1,
            duration - frame[2],
        )

    def wrap(self, layer: str, fn, hook=None):
        """Return fn wrapped in a span named layer, with an optional count hook."""
        before = getattr(self, f"_before_{hook}", _pass_args)
        after = getattr(self, f"_after_{hook}", _ignore)
        failed = getattr(self, f"_failed_{hook}", _ignore)

        def traced(*args, **kwargs):
            args, kwargs, token = before(args, kwargs)
            frame = self._enter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                failed(exc, token)
                raise
            finally:
                self._exit(layer, frame)
            after(result, token)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- count hooks ------------------------------------------------------
    def _before_shots(self, args, kwargs):
        k = _arg(args, kwargs, 1, "k")
        if k is not None:
            self.counts["simulate.sample_shots.shots"] += int(k)
        return args, kwargs, None

    def _after_fit_single(self, result, _token):
        self.counts["fitting.fit_single.succeeded"] += 1
        if getattr(result, "start_used", None) == "right":
            self.counts["fitting.fit_single.start_right"] += 1

    def _failed_fit_single(self, exc, _token):
        if isinstance(exc, FitError):
            self.counts["fitting.fit_single.excluded"] += 1

    def _after_fit_multi(self, result, _token):
        self.counts["fitting.fit_multi.succeeded"] += 1

    def _before_alloc(self, args, kwargs):
        started_here = not tracemalloc.is_tracing()
        if started_here:
            tracemalloc.start()
        tracemalloc.reset_peak()
        return args, kwargs, started_here

    def _failed_alloc(self, _exc, started_here):
        self._after_alloc(None, started_here)

    def _after_alloc(self, _result, started_here):
        _, peak = tracemalloc.get_traced_memory()
        self.counts["simulate.simulate_distribution.dft_bytes_computed"] += peak
        if started_here:
            tracemalloc.stop()

    def _kernel(self, fn):
        def kernel(*args, **kwargs):
            frame = self._enter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(KERNEL, frame)
            self.counts["pmf.kernel.evals"] += 1
            self.counts["pmf.kernel.elements"] += np.size(out)
            return out

        return kernel

    def _before_solver(self, args, kwargs):
        args = list(args)
        for index, name in ((0, "residual"), (1, "jacobian")):
            if name in kwargs:
                kwargs[name] = self._kernel(kwargs[name])
            elif len(args) > index:
                args[index] = self._kernel(args[index])
        return tuple(args), kwargs, None

    def _after_solver(self, result, _token):
        # A batched solver may report one entry per problem.
        iterations = np.atleast_1d(np.asarray(getattr(result, "iterations", []), dtype=float))
        statuses = np.atleast_1d(np.asarray(getattr(result, "status", []), dtype=object))
        converged = np.atleast_1d(np.asarray(getattr(result, "converged", []), dtype=bool))
        c = self.counts
        c["solver.solves"] += iterations.size
        c["solver.iters_sum"] += float(iterations.sum())
        if iterations.size:
            c["solver.least_squares_box.iters_max"] = max(
                c["solver.least_squares_box.iters_max"], float(iterations.max())
            )
        for status in ("gtol", "xtol", "maxiter"):
            c[f"solver.least_squares_box.status_{status}"] += int(np.sum(statuses == status))
        c["solver.least_squares_box.nonconverged"] += int(np.sum(~converged))

    # -- installation -----------------------------------------------------
    def install(self) -> "Tracer":
        for module_name, attr, layer, hook in self.sites:
            site = f"{module_name}.{attr}"
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(site)
                continue
            setattr(module, attr, self.wrap(layer, original, hook))
            self._restore.append((module, attr, original))
            self.installed.add(layer)
        return self

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ----------------------------------------------------------
    def self_seconds(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span[0]] += span[4]
        return out

    def span_counts(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for span in self.spans:
            out[span[0]] += 1
        return out

    def dump(self, path) -> None:
        """Write every span, gzip-compressed JSON, to path."""
        layers = sorted({s[0] for s in self.spans})
        index = {name: i for i, name in enumerate(layers)}
        rows = [
            [index[s[0]], round(s[1], 9), round(s[2], 9), s[3], round(s[4], 9)]
            for s in self.spans
        ]
        payload = {
            "columns": ["layer", "start", "end", "parent", "self_s"],
            "layers": layers,
            "absent": self.absent,
            "spans": rows,
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh)
