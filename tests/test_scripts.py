"""Smoke runs of the scripts under scripts/, so a change to the API they use fails here.

Also checks that the newest committed performance point has every field.
"""

import json
import subprocess
import sys
from pathlib import Path

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
