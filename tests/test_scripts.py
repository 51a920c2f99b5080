"""Smoke runs of the scripts under scripts/, so a change to the API they use fails here.

Also checks that the newest committed performance point has every field.
"""

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import src_env

REPO = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=src_env(),
    )


def test_fit_demo_prints_a_fitted_phase():
    proc = run_script("fit_demo.py", "--shots", "2000")
    assert proc.returncode == 0, proc.stderr
    fitted = [line for line in proc.stdout.splitlines() if line.startswith("fitted")]
    assert len(fitted) == 1
    assert 0.0 <= float(fitted[0].split()[1]) < 1.0


def test_same_results_prints_one_digest_per_family():
    proc = run_script("same_results.py")
    assert proc.returncode == 0, proc.stderr
    lines = [line.split() for line in proc.stdout.splitlines()]
    assert [name for name, _ in lines] == [
        "smoke_csv",
        "smoke_scaling",
        "full_csv",
        "full_scaling",
        "full_estimates",
        "fit_single",
        "fit_multi",
        "pmf_kernel",
        "draws",
    ]
    assert all(re.fullmatch("[0-9a-f]{64}", sha) for _, sha in lines)


def test_committed_bench_point_names_every_layer():
    newest = max(REPO.glob("BENCH_*.json"), key=lambda path: int(path.stem.split("_")[1]))
    point = json.loads(newest.read_text())
    assert set(point["machine"]) == {"cpu_count", "python", "numpy"}
    assert {entry["layer"] for entry in point["layers"]} == {
        "pmf_vector",
        "sample_shots",
        "fit_single",
        "fit_multi",
        "simulate_distribution",
        "fisher_information",
        "run_cell",
    }
    assert all(entry["median_s"] > 0 and entry["median_ref_s"] > 0 for entry in point["layers"])
    assert [entry["grid"] for entry in point["end_to_end"]] == [
        "configs/smoke_grid.json",
        "configs/full_grid.json",
    ]
    assert all(entry["wall_s"] > 0 and entry["median_ref_s"] > 0 for entry in point["end_to_end"])
    assert set(point["perfbench"]) == {"campaign_few", "campaign_mega", "readout_wide"}
    assert all(run["trials_per_s"] > 0 for run in point["perfbench"].values())


def load_bench_perf():
    spec = importlib.util.spec_from_file_location("bench_perf", REPO / "scripts" / "bench_perf.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "returncode, stdout, failure",
    [
        (1, "", "exited 1"),
        (0, "", "exited 0"),
        (0, json.dumps({"correct": False, "metrics": {}}) + "\n", "reported correct: false"),
    ],
    ids=["nonzero-exit", "no-result-line", "incorrect"],
)
def test_bench_perf_stops_on_a_failed_workload(monkeypatch, returncode, stdout, failure):
    bench_perf = load_bench_perf()
    run = lambda args, **kw: subprocess.CompletedProcess(args, returncode, stdout, "warmup\nboom\n")
    monkeypatch.setattr(bench_perf.subprocess, "run", run)
    with pytest.raises(SystemExit) as exc:
        bench_perf.perfbench("campaign_few")
    assert str(exc.value) == f"perfbench workload campaign_few {failure}\nwarmup\nboom"


def test_bench_perf_keeps_a_correct_workload(monkeypatch):
    bench_perf = load_bench_perf()
    line = json.dumps({"correct": True, "metrics": {"trials_per_s": {"value": 12.5}}})
    run = lambda args, **kw: subprocess.CompletedProcess(args, 0, "log\n" + line + "\n", "")
    monkeypatch.setattr(bench_perf.subprocess, "run", run)
    assert bench_perf.perfbench("readout_wide") == {"trials_per_s": 12.5, "correct": True}
