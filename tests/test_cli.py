"""Command-line interface: output formats, exit codes, determinism."""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from conftest import family_z, on_bin_error_bound, src_env
from test_pmf import FISHER_REFERENCE

import qpecf.cli
from qpecf.bench import CSV_HEADER
from qpecf.formatting import sig12
from qpecf.model import PhaseModel, RegisterSpec
from qpecf.pmf import fisher_information, pmf_single, pmf_vector


def cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "qpecf", *args],
        capture_output=True,
        text=True,
        env=src_env(),
    )


def assert_exits_one(proc, context=None):
    """Bad input: exit 1 with an 'error:' line, never a traceback."""
    assert proc.returncode == 1, context
    assert proc.stderr.startswith("error:"), (context, proc.stderr)
    assert "Traceback" not in proc.stderr, context


class TestPmfCommand:
    def test_indicator_distribution(self):
        proc = cli("pmf", "--n", "3", "--theta", "0.375")
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[0] == "y,probability"
        assert lines[4] == "3,1.0"
        assert len(lines) == 9

    def test_fraction_and_decimal_phases_agree_exactly(self):
        frac = cli("pmf", "--n", "4", "--theta", "1/3")
        dec = cli("pmf", "--n", "4", "--theta", repr(1 / 3))
        assert frac.returncode == dec.returncode == 0
        assert frac.stdout == dec.stdout

    def test_rows_match_the_analytic_distribution(self):
        reg = RegisterSpec(3)
        proc = cli("pmf", "--n", "3", "--theta", "1/3")
        rows = proc.stdout.splitlines()[1:]
        for y, row in enumerate(rows):
            label, value = row.split(",")
            assert int(label) == y
            assert value == sig12(pmf_single(reg, 1 / 3, y))

    def test_component_rows_match_the_mixture(self):
        reg = RegisterSpec(3)
        model = PhaseModel.from_pairs([(1 / 3, 0.5), (0.5, 0.5)])
        proc = cli(
            "pmf", "--n", "3", "--component", "1/3:0.5", "--component", "1/2:0.5"
        )
        assert proc.returncode == 0
        probs = pmf_vector(reg, model)
        for y, row in enumerate(proc.stdout.splitlines()[1:]):
            assert row.split(",")[1] == sig12(probs[y])

    def test_mixture_text_is_frozen(self):
        proc = cli("pmf", "--n", "2", "--component", "1/3:0.5", "--component", "1/2:0.5")
        assert proc.returncode == 0
        assert proc.stdout == (
            "y,probability\n0,0.03125\n1,0.34987976321\n2,0.59375\n3,0.0251202367904\n"
        )

    def test_out_file_matches_stdout(self, tmp_path):
        path = tmp_path / "pmf.csv"
        to_file = cli("pmf", "--n", "3", "--theta", "1/3", "--out", str(path))
        to_stdout = cli("pmf", "--n", "3", "--theta", "1/3")
        assert to_file.returncode == 0
        assert path.read_text() == to_stdout.stdout

    def test_usage_errors_exit_one(self):
        for argv in (
            ["pmf", "--n", "3"],  # no model given
            ["pmf", "--n", "3", "--theta", "1.5"],
            ["pmf", "--n", "3", "--theta", "abc"],
            ["pmf", "--n", "3", "--theta", "1/0"],
            ["pmf", "--n", "0", "--theta", "0.25"],
            ["pmf", "--n", "3", "--theta", "0.25", "--component", "1/3:1"],
            ["pmf", "--n", "3", "--component", "1/3:0.6", "--component", "1/2:0.6"],
            ["pmf", "--n", "3", "--theta", "1e400"],
            ["pmf", "--n", "3", "--component", "1/3:1e400"],
        ):
            assert_exits_one(cli(*argv), argv)


class TestSimulateCommand:
    def test_histogram_schema_and_total(self):
        proc = cli("simulate", "--n", "3", "--theta", "1/3", "--shots", "500")
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert set(data) == {"n", "shots", "counts"}
        assert data["n"] == 3 and data["shots"] == 500
        assert len(data["counts"]) == 8
        assert sum(data["counts"]) == 500

    def test_seed_makes_output_reproducible(self):
        a = cli("simulate", "--n", "3", "--theta", "1/3", "--shots", "200", "--seed", "7")
        b = cli("simulate", "--n", "3", "--theta", "1/3", "--shots", "200", "--seed", "7")
        c = cli("simulate", "--n", "3", "--theta", "1/3", "--shots", "200", "--seed", "8")
        assert a.stdout == b.stdout
        assert a.stdout != c.stdout

    def test_default_seed_is_zero(self):
        default = cli("simulate", "--n", "3", "--theta", "1/3", "--shots", "100")
        explicit = cli(
            "simulate", "--n", "3", "--theta", "1/3", "--shots", "100", "--seed", "0"
        )
        assert default.stdout == explicit.stdout

    def test_representable_phase_is_a_point_mass(self):
        proc = cli("simulate", "--n", "3", "--theta", "3/8", "--shots", "300")
        counts = json.loads(proc.stdout)["counts"]
        assert counts[3] == 300

    def test_zero_shots_exits_one(self):
        # multinomial draws at most 2**63 - 1 shots
        for shots in ("0", "100000000000000000000000"):
            assert_exits_one(cli("simulate", "--n", "3", "--theta", "1/3", "--shots", shots), shots)

    def test_negative_seed_exits_one(self):
        proc = cli("simulate", "--n", "3", "--theta", "1/3", "--shots", "10", "--seed", "-1")
        assert_exits_one(proc)
        assert "seed" in proc.stderr

    def test_register_past_the_cap_exits_one(self):
        proc = cli("simulate", "--n", "21", "--theta", "1/3", "--shots", "1000")
        assert_exits_one(proc)
        assert "20" in proc.stderr

    def test_largest_register_simulates(self, tmp_path):
        hist = tmp_path / "hist.json"
        proc = cli(
            "simulate", "--n", "20", "--theta", "1/3", "--shots", "1000", "--out", str(hist)
        )
        assert proc.returncode == 0, proc.stderr
        data = json.loads(hist.read_text())
        assert data["n"] == 20 and data["shots"] == 1000
        assert len(data["counts"]) == 1 << 20
        assert sum(data["counts"]) == 1000


class TestFitCommand:
    def test_single_phase_roundtrip(self, tmp_path):
        hist = tmp_path / "hist.json"
        sim = cli(
            "simulate", "--n", "3", "--theta", "1/3", "--shots", "100000",
            "--seed", "1", "--out", str(hist),
        )
        assert sim.returncode == 0
        proc = cli("fit", "--counts", str(hist))
        assert proc.returncode == 0
        result = json.loads(proc.stdout)
        assert set(result) == {
            "phases", "weights", "residual_variance", "converged", "iterations", "bounds",
        }
        assert result["converged"] is True
        assert abs(result["phases"][0] - 1 / 3) < 1e-3

    def test_representable_phase_recovered_exactly(self, tmp_path):
        hist = tmp_path / "hist.json"
        cli("simulate", "--n", "3", "--theta", "3/8", "--shots", "1000", "--out", str(hist))
        proc = cli("fit", "--counts", str(hist))
        result = json.loads(proc.stdout)
        assert abs(result["phases"][0] - 0.375) < 1e-9

    def test_two_phase_fit_recovers_both_components(self, tmp_path):
        # 1/2 sits exactly on a bin at n = 3, where the outcome distribution
        # moves only with the squared phase error, so a million shots pin it
        # to about 2e-3, not 1e-3 (about 35% of seeds miss 1e-3). It is held
        # to the one-trial on-bin bound instead; 1/3 is off-bin and keeps 1e-3.
        hist = tmp_path / "hist.json"
        sim = cli(
            "simulate", "--n", "3", "--component", "1/3:0.5", "--component", "1/2:0.5",
            "--shots", "1000000", "--seed", "6", "--out", str(hist),
        )
        assert sim.returncode == 0
        proc = cli("fit", "--counts", str(hist), "--phases", "2")
        assert proc.returncode == 0
        result = json.loads(proc.stdout)
        phases = sorted(result["phases"])
        assert abs(phases[0] - 1 / 3) < 1e-3
        model = PhaseModel.from_pairs([(1 / 3, 0.5), (0.5, 0.5)])
        bound = on_bin_error_bound(RegisterSpec(3), model, 1, 10**6, family_z(1))
        assert abs(phases[1] - 1 / 2) <= bound
        assert abs(sum(result["weights"]) - 1.0) < 1e-12

    def test_one_hot_counts_keep_the_output_format(self, tmp_path):
        # a one-hot histogram is fit in closed form, with no solver iteration
        hist = tmp_path / "hist.json"
        hist.write_text(json.dumps({"n": 3, "shots": 50, "counts": [0, 0, 50, 0, 0, 0, 0, 0]}))
        proc = cli("fit", "--counts", str(hist))
        assert proc.returncode == 0
        result = json.loads(proc.stdout)
        assert set(result) == {
            "phases", "weights", "residual_variance", "converged", "iterations", "bounds",
        }
        assert result["phases"] == [0.25] and result["weights"] == [1.0]
        assert result["iterations"] == 0 and result["residual_variance"] == 0.0
        assert result["converged"] is True
        assert result["bounds"] == [0.1875, 0.3125]

    def test_fit_output_is_deterministic(self, tmp_path):
        hist = tmp_path / "hist.json"
        cli("simulate", "--n", "3", "--theta", "1/3", "--shots", "5000", "--out", str(hist))
        out = tmp_path / "fit.json"
        first = cli("fit", "--counts", str(hist), "--out", str(out))
        second = cli("fit", "--counts", str(hist))
        assert first.returncode == 0
        assert out.read_text() == second.stdout

    def test_error_paths_exit_one(self, tmp_path):
        assert_exits_one(cli("fit", "--counts", str(tmp_path / "absent.json")))

        garbled = tmp_path / "garbled.json"
        garbled.write_text("{not json")
        assert_exits_one(cli("fit", "--counts", str(garbled)))

        # counts are int64, so a count must stay <= 2**63 - 1
        for big in (2**63, 2**64):
            huge = tmp_path / f"huge{big}.json"
            huge.write_text(json.dumps({"n": 2, "shots": big, "counts": [big, 0, 0, 0]}))
            assert_exits_one(cli("fit", "--counts", str(huge)), big)

        # the exact count sum is checked, not its int64 sum, which wraps to 1
        wrapped = tmp_path / "wrapped.json"
        wrapped.write_text(json.dumps({"n": 2, "shots": 1, "counts": [2**63 - 1, 2**63 - 1, 3, 0]}))
        proc = cli("fit", "--counts", str(wrapped))
        assert_exits_one(proc)
        assert f"counts sum to {2**64 + 1}" in proc.stderr

        point_mass = tmp_path / "point.json"
        cli("simulate", "--n", "3", "--theta", "3/8", "--shots", "100", "--out", str(point_mass))
        assert_exits_one(cli("fit", "--counts", str(point_mass), "--phases", "2"))

        for phases in ("0", "-1"):
            proc = cli("fit", "--counts", str(point_mass), "--phases", phases)
            assert_exits_one(proc, phases)
            assert f"--phases must be >= 1, got {phases}" in proc.stderr

    def test_phase_count_past_the_cap_exits_one(self, tmp_path):
        # 2**24 corner solves would never end; the cap rejects them before
        # any is set up. A point mass also fails the nonzero-bin rule, so
        # the message must name the cap, and the flag that set it.
        hist = tmp_path / "point.json"
        cli("simulate", "--n", "6", "--theta", "0.5", "--shots", "100", "--out", str(hist))
        for phases in ("9", "24"):
            proc = cli("fit", "--counts", str(hist), "--phases", phases)
            assert_exits_one(proc)
            assert f"--phases must be <= 8, got {phases}" in proc.stderr


class TestFisherCommand:
    def test_first_rows_are_frozen(self):
        proc = cli("fisher", "--n-min", "1", "--n-max", "2")
        assert proc.stdout.splitlines() == [
            "n,M,fisher_information,crlb_rmse",
            "1,2,39.4784176044,0.159154943092",
            "2,4,197.392088022,0.0711762543417",
        ]

    def test_default_range_covers_eight_registers(self):
        proc = cli("fisher")
        lines = proc.stdout.splitlines()
        assert len(lines) == 9
        assert lines[1].startswith("1,2,") and lines[8].startswith("8,256,")

    def test_values_match_references(self):
        proc = cli("fisher")
        for line in proc.stdout.splitlines()[2:]:
            n, M, fisher, crlb = line.split(",")
            want = FISHER_REFERENCE[int(M)]
            assert abs(float(fisher) - want) / want < 1e-8
            assert abs(float(crlb) - 1 / np.sqrt(want)) / (1 / np.sqrt(want)) < 1e-6

    def test_crlb_column_is_single_shot_bound(self):
        proc = cli("fisher", "--n-min", "3", "--n-max", "3")
        lines = proc.stdout.splitlines()
        assert len(lines) == 2
        _, _, fisher, crlb = lines[1].split(",")
        reg = RegisterSpec(3)
        assert abs(float(fisher) - fisher_information(reg)) < 1e-6
        assert abs(float(crlb) - 1 / np.sqrt(fisher_information(reg))) < 1e-10

    def test_largest_registers_are_closed_form(self):
        started = time.perf_counter()
        proc = cli("fisher", "--n-min", "28", "--n-max", "30")
        elapsed = time.perf_counter() - started
        assert proc.returncode == 0
        assert elapsed < 1.0
        for line, n in zip(proc.stdout.splitlines()[1:], range(28, 31), strict=True):
            M = 2**n
            fi = 4.0 * math.pi**2 * (M * M - 1) / 3.0
            assert line == f"{n},{M},{sig12(fi)},{sig12(1.0 / math.sqrt(fi))}"

    def test_inverted_range_exits_one(self):
        assert_exits_one(cli("fisher", "--n-min", "5", "--n-max", "3"))
        assert_exits_one(cli("fisher", "--n-min", "0"))


def write_grid(path, *, shot_values, n_values=(2, 3, 4), trials=4, base_seed=9):
    path.write_text(
        json.dumps(
            {
                "phases": [1 / 3],
                "n_values": list(n_values),
                "shot_values": list(shot_values),
                "trials": trials,
                "base_seed": base_seed,
            }
        )
    )


class TestBenchCommand:
    def test_campaign_writes_csv_and_scaling(self, tmp_path):
        config = tmp_path / "grid.json"
        write_grid(config, shot_values=(50, 100, 200))
        csv_path = tmp_path / "cells.csv"
        scaling_path = tmp_path / "scaling.json"
        proc = cli(
            "bench", "--config", str(config), "--out-csv", str(csv_path),
            "--out-scaling", str(scaling_path),
        )
        assert proc.returncode == 0, proc.stderr
        lines = csv_path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 9
        # re-recorded when single-phase fits became a root search of f': its
        # estimates on this grid lie within 8.9e-16 bins of the solver's
        assert scaling_path.read_text() == (
            '{"slope_vs_k": -0.25178458220320254, "slope_vs_M": -0.7145111679120939, '
            '"cells_used": 9}\n'
        )

    def test_thread_count_never_changes_the_csv(self, tmp_path):
        config = tmp_path / "grid.json"
        write_grid(config, shot_values=(50, 100), n_values=(2, 3), trials=3)
        outputs = []
        for flag in ("1", "2"):
            csv_path = tmp_path / f"cells{flag}.csv"
            proc = cli("bench", "--config", str(config), "--out-csv", str(csv_path),
                       "--threads", flag)
            assert proc.returncode == 0, proc.stderr
            outputs.append(csv_path.read_text())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("flag", ["0", "-3"])
    def test_thread_count_below_one_exits_one(self, tmp_path, flag):
        config = tmp_path / "grid.json"
        write_grid(config, shot_values=(50,), n_values=(2,), trials=2)
        csv_path = tmp_path / "c.csv"
        proc = cli("bench", "--config", str(config), "--out-csv", str(csv_path),
                   "--threads", flag)
        assert_exits_one(proc)
        assert "workers" in proc.stderr
        assert not csv_path.exists()

    def test_malformed_config_names_the_field(self, tmp_path):
        config = tmp_path / "grid.json"
        config.write_text(json.dumps({
            "phases": [0.2], "n_values": [3], "shot_values": [100], "base_seed": 1,
        }))
        proc = cli("bench", "--config", str(config), "--out-csv", str(tmp_path / "x.csv"))
        assert_exits_one(proc)
        assert "'trials'" in proc.stderr

    @pytest.mark.parametrize("phase", ["0.5", False])
    def test_phase_that_is_not_a_number_exits_one(self, tmp_path, phase):
        config = tmp_path / "grid.json"
        config.write_text(json.dumps({
            "phases": [phase], "n_values": [3], "shot_values": [100], "trials": 2, "base_seed": 1,
        }))
        csv_path = tmp_path / "c.csv"
        proc = cli("bench", "--config", str(config), "--out-csv", str(csv_path))
        assert_exits_one(proc)
        assert proc.stderr.startswith("error: invalid grid config: ")
        assert not csv_path.exists()

    def test_unparseable_config_exits_one(self, tmp_path):
        config = tmp_path / "grid.json"
        config.write_text("{oops")
        assert_exits_one(
            cli("bench", "--config", str(config), "--out-csv", str(tmp_path / "x.csv"))
        )

    @pytest.mark.parametrize(
        "grid", [{"shot_values": (50,), "base_seed": -1}, {"shot_values": (2**63,)}],
        ids=["negative-seed", "shots-past-int64"],
    )
    def test_out_of_range_values_exit_one_before_the_campaign(self, tmp_path, grid):
        config = tmp_path / "grid.json"
        write_grid(config, n_values=(2, 3), trials=2, **grid)
        csv_path = tmp_path / "c.csv"
        assert_exits_one(cli("bench", "--config", str(config), "--out-csv", str(csv_path)))
        assert not csv_path.exists()

    def test_trial_count_past_one_stream_word_exits_one(self, tmp_path):
        # checked before any array is built: the count alone would ask for TiBs
        config = tmp_path / "grid.json"
        write_grid(config, shot_values=(50,), n_values=(2,), trials=10**12)
        csv_path = tmp_path / "c.csv"
        proc = cli("bench", "--config", str(config), "--out-csv", str(csv_path))
        assert_exits_one(proc)
        assert "trials must be <= 4294967295" in proc.stderr
        assert not csv_path.exists()

    def test_allocation_failure_exits_two(self, tmp_path, monkeypatch, capsys):
        # in process, with run_grid stubbed: a real allocation this large
        # may get the process killed rather than raise
        def run_grid(grid, workers):
            raise MemoryError("Unable to allocate 8.00 GiB for an array")

        monkeypatch.setattr(qpecf.cli, "run_grid", run_grid)
        config = tmp_path / "grid.json"
        write_grid(config, shot_values=(50,), n_values=(2,), trials=2)
        assert qpecf.cli.main(["bench", "--config", str(config), "--out-csv", "-"]) == 2
        err = capsys.readouterr().err
        assert err == "error: Unable to allocate 8.00 GiB for an array\n"

    def test_insufficient_scaling_span_exits_two_with_csv_written(self, tmp_path):
        config = tmp_path / "grid.json"
        write_grid(config, shot_values=(50, 100), n_values=(2, 3), trials=3)
        csv_path = tmp_path / "cells.csv"
        proc = cli(
            "bench", "--config", str(config), "--out-csv", str(csv_path),
            "--out-scaling", str(tmp_path / "scaling.json"),
        )
        assert proc.returncode == 2
        assert proc.stderr.strip()
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 1 + 4  # the campaign itself completed

    def test_single_qubit_register_exits_one(self, tmp_path):
        config = tmp_path / "grid.json"
        write_grid(config, shot_values=(50,), n_values=(1, 2), trials=2)
        csv_path = tmp_path / "c.csv"
        proc = cli("bench", "--config", str(config), "--out-csv", str(csv_path))
        assert_exits_one(proc)
        assert "n = 1" in proc.stderr
        assert not csv_path.exists()

    def test_scaling_is_optional(self, tmp_path):
        config = tmp_path / "grid.json"
        write_grid(config, shot_values=(50, 100), n_values=(2,), trials=2)
        proc = cli("bench", "--config", str(config), "--out-csv", str(tmp_path / "c.csv"))
        assert proc.returncode == 0, proc.stderr


class TestTopLevelUsage:
    # argparse's own failures carry the program name, not an 'error:' prefix
    def test_bare_invocation_exits_one(self):
        proc = cli()
        assert proc.returncode == 1 and proc.stderr.strip()
        assert "Traceback" not in proc.stderr

    def test_unknown_subcommand_exits_one(self):
        proc = cli("frobnicate")
        assert proc.returncode == 1 and proc.stderr.strip()
        assert "Traceback" not in proc.stderr

    def test_unknown_flag_exits_one(self):
        proc = cli("pmf", "--n", "3", "--theta", "1/3", "--bogus")
        assert proc.returncode == 1 and proc.stderr.strip()
        assert "Traceback" not in proc.stderr
