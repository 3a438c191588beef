import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import textwrap
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import goodwin_delay
import goodwin_delay.simulate as simulate_module
from goodwin_delay import cli, errors, normal_form
from goodwin_delay.cli import _grid, main
from goodwin_delay.model import (PARAM_FIELDS, equilibrium, subsystem_coefficients,
                                 validate_parameters)
from goodwin_delay.normal_form import hopf_analysis
from goodwin_delay.spectral import (analyze_spectrum, check_delay, check_depth,
                                    critical_delays, stability_verdict)

from helpers import CASE_A, CASE_B, CASE_H6, PSI_EDGE_OUTSIDE

TEXT_COLUMNS = {"h_case", "verdict", "direction", "orbit_stability", "error"}


@pytest.fixture
def config_a(tmp_path):
    path = tmp_path / "case_a.json"
    path.write_text(json.dumps(CASE_A))
    return str(path)


@pytest.fixture
def config_b(tmp_path):
    path = tmp_path / "case_b.json"
    path.write_text(json.dumps(CASE_B))
    return str(path)


@pytest.fixture
def split_rows(monkeypatch):
    """split(n) makes a parameter sweep of 10 rows or more split its rows
    across n processes, as on n CPUs, and returns a list that each fork of
    the calling process appends to."""
    fork = os.fork

    def split(n):
        forks = []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        monkeypatch.setattr(os, "fork", lambda: forks.append(n) or fork())
        monkeypatch.setattr(cli, "ROWS_PER_WORKER", 10)
        return forks
    return split


def assert_no_children_left(out):
    """Every child is reaped and OUT holds no file but sweep.csv."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert os.listdir(out) == ["sweep.csv"]


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture
def config_psi(tmp_path):
    """Case B with a wage share the capacity equations contradict."""
    raw = dict(CASE_B)
    raw["mu1"] = 0.05
    path = tmp_path / "psi.json"
    path.write_text(json.dumps(raw))
    return str(path)


class TestAnalyze:
    def test_case_a_report(self, config_a, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["analyze", "--config", config_a, "--variant", "A",
                   "--tau", "0.05", "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "tau0: 0.0348488" in text
        assert "subcritical" in text
        assert "verdict at tau=0.05: unstable" in text
        doc = json.loads((out / "analysis.json").read_text())
        assert doc["spectral"]["h_case"] == "H4"
        assert doc["spectral"]["tau0"] == pytest.approx(0.0348488, abs=1e-6)
        assert doc["spectral"]["omega0"] == pytest.approx(0.708056, abs=1e-5)
        assert doc["hopf"]["direction"] == "subcritical"
        assert doc["hopf"]["orbit_stability"] == "unstable"
        assert doc["instability_interval"][0] == pytest.approx(0.0348488, abs=1e-6)

    def test_case_b_report(self, config_b, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["analyze", "--config", config_b, "--variant", "B",
                   "--out", str(out)])
        assert rc == 0
        assert "tau0: 0.0196382936" in capsys.readouterr().out
        doc = json.loads((out / "analysis.json").read_text())
        assert doc["spectral"]["tau0"] == pytest.approx(0.0196383, abs=1e-6)
        assert "extrapolated" not in doc["hopf"]

    def test_missing_field_exits_1(self, tmp_path, capsys):
        raw = dict(CASE_A)
        del raw["delta"]
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(raw))
        rc = main(["analyze", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 1
        assert "config error" in capsys.readouterr().err

    def test_malformed_json_exits_1(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path)]) == 1

    def test_missing_file_exits_1(self, tmp_path):
        assert main(["analyze", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 1

    def test_inconsistent_psi_exits_2(self, config_psi, tmp_path, capsys):
        rc = main(["analyze", "--config", config_psi, "--variant", "B",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "analysis error" in capsys.readouterr().err

    @pytest.mark.parametrize("mu1", PSI_EDGE_OUTSIDE)
    def test_psi_gap_just_outside_the_tolerance_exits_2(self, mu1, tmp_path, capsys):
        cfg = tmp_path / "psi.json"
        cfg.write_text(json.dumps(dict(CASE_B, mu1=mu1)))
        assert main(["analyze", "--config", str(cfg), "--variant", "B",
                     "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("analysis error: lambda_e* = ")

    @pytest.mark.parametrize("variant, overrides, message", [
        ("A", {"a2": 5e-324, "gamma2": 0.0}, "rho1*nu2 + g*delta*(rho1 + gamma2) = 0"),
        ("B", {"a2": 5e-324}, "rho1 * delta0 = 0"),
        ("B", {"nu2": 5e-324}, "nu2 * (1 - mu2) = 0"),
        ("B", {"nu2": 1e-320, "mu2": 1 - 2**-53}, "nu2 * (1 - mu2) = 0"),
    ], ids=["A", "B", "B-nu2", "B-mu2"])
    def test_undefined_equilibrium_exits_2(self, variant, overrides, message, tmp_path,
                                           capsys):
        # a2 = 5e-324 rounds rho1 to 0, so neither closed form has a denominator;
        # B's lambda_e* divides by nu2 * (1 - mu2), a product that can underflow to 0
        cfg = tmp_path / "rho1.json"
        cfg.write_text(json.dumps({**(CASE_A if variant == "A" else CASE_B), **overrides}))
        rc = main(["analyze", "--config", str(cfg), "--variant", variant,
                   "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == f"analysis error: {message}\n"

    @pytest.mark.parametrize("tau", ["nan", "inf"])
    def test_non_finite_tau_exits_1(self, config_a, tmp_path, capsys, tau):
        out = tmp_path / "out"
        rc = main(["analyze", "--config", config_a, "--tau", tau, "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: tau") and err.count("\n") == 1
        assert not (out / "analysis.json").exists()

    def test_negative_jmax_exits_1(self, config_a, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["analyze", "--config", config_a, "--jmax", "-1", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: jmax") and err.count("\n") == 1
        assert not (out / "analysis.json").exists()

    @pytest.mark.parametrize("command", [
        ["analyze"], ["sweep", "--start", "0", "--stop", "0.1", "--count", "3"]])
    def test_jmax_above_the_cap_exits_1(self, command, config_a, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main([*command, "--config", config_a, "--jmax", "1001", "--out", str(out)])
        assert rc == 1
        # a sweep prints no ladder, so it takes no depth at all
        error = ("unrecognized arguments: --jmax 1001" if command[0] == "sweep"
                 else "jmax must be in 0..1000, got 1001")
        assert capsys.readouterr().err == f"config error: {error}\n"
        assert not out.exists()

    @pytest.mark.parametrize("jmax", ["0", "1", "3", "10"])
    def test_jmax_sets_only_the_printed_ladder(self, jmax, analysis_json):
        # the depth prints rungs 0..jmax of each frequency and changes nothing else
        doc = analysis_json(CASE_H6, "--tau", "10", "--jmax", jmax)
        ref = analysis_json(CASE_H6, "--tau", "10")
        ladders = doc["spectral"].pop("tau_ladder")
        assert [len(ladder) for ladder in ladders] == [int(jmax) + 1] * 2
        k = min(int(jmax), 3) + 1  # the default depth prints 4 rungs
        assert [ladder[:k] for ladder in ladders] == [
            ladder[:k] for ladder in ref["spectral"].pop("tau_ladder")]
        assert doc == ref
        assert doc["spectral"]["verdict"] == "stable"
        assert doc["instability_interval"] == [3.6024392653131563, 7.278808609276174]

    def test_singular_system_exits_2(self, config_a, tmp_path, capsys, monkeypatch):
        # no valid configuration makes Delta(2i omega0) singular (2i omega0
        # would have to be a root too), so hand the guarded solve a zero matrix
        real_solve = normal_form._check_solve

        def singular_solve(m00, m01, m10, m11, r0, r1, what):
            return real_solve(0.0, 0.0, 0.0, 0.0, r0, r1, what)

        monkeypatch.setattr(normal_form, "_check_solve", singular_solve)
        rc = main(["analyze", "--config", config_a, "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("analysis error: h20: determinant ")

    def test_determinism(self, config_a, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            assert main(["analyze", "--config", config_a, "--tau", "0.05",
                         "--out", str(out)]) == 0
        assert ((out1 / "analysis.json").read_bytes()
                == (out2 / "analysis.json").read_bytes())


class TestSimulate:
    def test_growing_run(self, config_a, tmp_path, capsys):
        out = tmp_path / "sim"
        rc = main(["simulate", "--config", config_a, "--tau", "0.05",
                   "--t-end", "500", "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "classification: growing" in text
        assert "measured_period:" in text
        rows = read_csv(out / "trajectory.csv")
        assert set(rows[0]) == {"t", "beta", "lambda"}
        assert float(rows[0]["t"]) == 0.0
        sidecar = json.loads((out / "run.json").read_text())
        assert sidecar["tau"] == 0.05
        assert sidecar["overflow"] is False
        assert not (out / "phase.csv").exists()  # trajectory.csv holds its columns

    def test_decaying_run(self, config_a, tmp_path, capsys):
        rc = main(["simulate", "--config", config_a, "--tau", "0",
                   "--t-end", "500", "--out", str(tmp_path / "s")])
        assert rc == 0
        assert "classification: decaying" in capsys.readouterr().out

    def test_explicit_init(self, config_a, tmp_path):
        out = tmp_path / "s"
        rc = main(["simulate", "--config", config_a, "--tau", "0.03",
                   "--t-end", "50", "--init", "0.8,0.6", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out / "trajectory.csv")
        assert float(rows[0]["beta"]) == 0.8
        assert float(rows[0]["lambda"]) == 0.6

    def test_non_finite_state_exits_3(self, tmp_path, capsys):
        # case B with nu2 = 1e100 turns NaN in one step: the run ends as an
        # overflow at its first row, too short to classify
        config = tmp_path / "nan.json"
        config.write_text(json.dumps({**CASE_B, "nu2": 1e100}))
        out = tmp_path / "sim"
        rc = main(["simulate", "--config", str(config), "--variant", "B",
                   "--tau", "0.03", "--t-end", "5", "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().err.endswith(
            "simulation error: the state overflowed or turned non-finite: the run ends"
            " at t=0.0, too early to classify\n")
        assert json.loads((out / "run.json").read_text())["overflow"] is True
        rows = read_csv(out / "trajectory.csv")
        assert rows and all(math.isfinite(float(cell))
                            for row in rows for cell in row.values())

    @pytest.mark.parametrize("t_end, steps", [("1e-12", 0), ("0.1", 10)])
    def test_run_too_short_to_classify_names_the_run(self, t_end, steps, config_a,
                                                     tmp_path, capsys):
        # the default window is a tenth of the run, so the message names the
        # run; the files are written before the classification fails
        out = tmp_path / "sim"
        rc = main(["simulate", "--config", config_a, "--tau", "0.05",
                   "--t-end", t_end, "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().err == (
            f"simulation error: a run of {steps} steps is too short to classify: its"
            " default window, a tenth of the run, spans < 5 steps\n")
        assert (out / "trajectory.csv").exists() and (out / "run.json").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--t-end", "inf"), ("--tau", "inf"), ("--init", "nan,nan"),
        ("--t-end", "nan"), ("--step", "nan"),
        # were "too many values to unpack" and "not enough values to unpack"
        ("--init", "1,2,3"), ("--init", "0.9"),
    ])
    def test_non_finite_input_exits_1(self, flag, value, config_a, tmp_path,
                                      capsys):
        # a repeated option takes its last value
        out = tmp_path / "never"
        rc = main(["simulate", "--config", config_a, "--tau", "0.05",
                   "--t-end", "50", "--out", str(out), flag, value])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        if flag == "--init" and value != "nan,nan":  # the wrong number of values
            assert err[0] == f"config error: --init must be 'beta,lambda', got {value!r}"
        assert not out.exists()

    @pytest.mark.parametrize("step", ["--step=0", "--step=-0.01"])
    def test_non_positive_step_exits_1(self, step, config_a, tmp_path, capsys):
        out = tmp_path / "never"
        rc = main(["simulate", "--config", config_a, "--tau", "0.05",
                   "--t-end", "50", "--out", str(out), step])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("config error: step hint must be finite and positive")
        assert not out.exists()

    def test_grid_too_large_exits_3(self, config_a, tmp_path, capsys,
                                    monkeypatch):
        monkeypatch.setattr("goodwin_delay.simulate.MAX_STEPS", 1000)
        out = tmp_path / "never"
        rc = main(["simulate", "--config", config_a, "--tau", "0.05",
                   "--t-end", "50", "--out", str(out)])
        assert rc == 3
        assert "simulation error" in capsys.readouterr().err
        assert not out.exists()

    def test_determinism(self, config_a, tmp_path):
        outs = []
        for name in ("d1", "d2"):
            out = tmp_path / name
            assert main(["simulate", "--config", config_a, "--tau", "0.05",
                         "--t-end", "100", "--out", str(out)]) == 0
            outs.append((out / "trajectory.csv").read_bytes())
        assert outs[0] == outs[1]


BLOCK = simulate_module.BLOCK


def _library_csv(coeffs, tau, init, t_end, step):
    """The library run and its trajectory.csv bytes, each row "%r,%r,%r\\n"."""
    traj = simulate_module.simulate(coeffs, tau, simulate_module.HistorySpec(*init), t_end,
                                    step_hint=step)
    rows = zip(traj.times, traj.beta, traj.lambda_)
    return traj, ("t,beta,lambda\n" + "".join("%r,%r,%r\n" % r for r in rows)).encode()


def _command_csv(raw, tau, init, t_end, step, out):
    config = out / "config.json"
    config.write_text(json.dumps(raw))
    assert main(["simulate", "--config", str(config), "--tau", repr(tau), "--t-end",
                 repr(t_end), "--step", repr(step), "--init", "%r,%r" % init,
                 "--out", str(out)]) == 0
    return (out / "trajectory.csv").read_bytes()


@pytest.mark.parametrize("rows", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
@pytest.mark.parametrize("tau, step", [(0.0, 0.125), (0.03, 0.0075)])  # m = 0, and m = 4
def test_trajectory_csv_is_the_library_run_across_blocks(rows, tau, step, tmp_path, capsys):
    # the command writes each block of rows as the integrator stores it
    coeffs = subsystem_coefficients(validate_parameters(dict(CASE_A)), "A")
    init = (0.9, 0.7)
    traj, want = _library_csv(coeffs, tau, init, (rows - 1) * step, step)
    assert len(traj.beta) == rows and not traj.overflow
    assert _command_csv(CASE_A, tau, init, (rows - 1) * step, step, tmp_path) == want


@pytest.mark.parametrize("changes, step, rows, finite", [
    # the row past 1e6 is kept: the last row of the first block, and the first of the second
    ({}, 0.000289127, BLOCK, True),
    ({}, 0.000289056, BLOCK + 1, True),
    # rho1 near 1e303 turns lambda NaN (0 * inf) once beta passes about 1.8e5, and
    # that row is dropped: the second block is empty, then holds one row
    ({"a2": 1e303}, 0.000288959, BLOCK, False),
    ({"a2": 1e303}, 0.000288889, BLOCK + 1, False),
], ids=["last-row", "first-row", "non-finite-empty-block", "non-finite-first-row"])
def test_trajectory_csv_of_an_overflow_at_a_block_edge(changes, step, rows, finite,
                                                       tmp_path, capsys):
    # beta from 50 with lambda = 0 blows up near t = 1.18; each step was found
    # by a scan so that the run ends at the row named, for BLOCK = 4096
    raw = {**CASE_A, **changes}
    coeffs = subsystem_coefficients(validate_parameters(raw), "A")
    init = (50.0, 0.0)
    traj, want = _library_csv(coeffs, 0.0, init, 10.0, step)
    assert traj.overflow and len(traj.beta) == rows
    assert (abs(traj.beta[-1]) > 1e6) == finite  # a finite overflow row is kept
    assert _command_csv(raw, 0.0, init, 10.0, step, tmp_path) == want


def test_simulate_command_memory_per_row(config_a, tmp_path, capsys):
    # the command keeps beta, 8 B a row, and lambda a block at a time: a
    # command that kept both columns would grow 16 B a row
    def peak(t_end):
        tracemalloc.start()
        try:
            assert main(["simulate", "--config", config_a, "--tau", "0.05", "--t-end",
                         t_end, "--out", str(tmp_path)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # an untraced run first makes the allocations done once, which the
    # small run's peak would count and the large one's not
    assert main(["simulate", "--config", config_a, "--tau", "0.05", "--t-end", "50",
                 "--out", str(tmp_path)]) == 0
    small = peak("50")
    # measured 8.1 B a row; 24 B with lambda held whole (one block spanning the run)
    assert peak("500") - small <= 9 * (50_001 - 5_001)


class TestSweep:
    def test_tau_sweep_verdict_flip(self, config_a, tmp_path):
        out = tmp_path / "sw"
        rc = main(["sweep", "--config", config_a, "--param", "tau",
                   "--start", "0", "--stop", "0.06", "--count", "61",
                   "--out", str(out)])
        assert rc == 0
        rows = read_csv(out / "sweep.csv")
        assert len(rows) == 61
        by_tau = {round(float(r["tau"]), 4): r for r in rows}
        assert by_tau[0.034]["verdict"] == "stable"
        assert by_tau[0.035]["verdict"] == "unstable"
        # tau0 is a property of the parameters, not the probe delay
        tau0s = {r["tau0"] for r in rows}
        assert len(tau0s) == 1

    @pytest.mark.parametrize("changes, axis, outside", [
        ({}, ["--param", "gamma1", "--start", "0", "--stop", "0.6", "--count", "300",
              "--tau", "0.03"], 242),
        # large-coefficient rows, valid as the guards scale with the coefficients
        ({}, ["--param", "a1", "--start", "1e4", "--stop", "1e7", "--count", "40",
              "--tau", "0.03", "--with-hopf"], 40),
        # the rows of a tau sweep share one equilibrium
        ({"gamma1": 0.5}, ["--param", "tau", "--start", "0", "--stop", "0.06",
                           "--count", "7"], 7),
    ], ids=["gamma1", "a1_error_rows", "tau"])
    def test_outside_rows_summarized_in_one_line(self, changes, axis, outside, tmp_path,
                                                 capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({**CASE_A, **changes}))
        rc = main(["sweep", "--config", str(cfg), *axis, "--out", str(tmp_path / "sw")])
        assert rc == 0
        assert capsys.readouterr().err == (
            f"{outside} rows have an equilibrium outside (0,1)^2\n")

    def test_sweep_leaves_the_warning_printer_alone(self, tmp_path):
        # called directly, not through main, on a config whose rows lie outside
        cfg = tmp_path / "outside.json"
        cfg.write_text(json.dumps({**CASE_A, "gamma1": 0.5}))
        args = cli.build_parser().parse_args([
            "sweep", "--config", str(cfg), "--param", "tau", "--start", "0",
            "--stop", "0.06", "--count", "2", "--out", str(tmp_path / "sw")])
        with warnings.catch_warnings():  # restores the printer whatever the sweep does
            before = warnings.showwarning
            assert cli.cmd_sweep(args) == 0
            assert warnings.showwarning is before

    def test_delta_sweep_consistent_with_analyze(self, config_a, tmp_path, capsys):
        out = tmp_path / "sw"
        rc = main(["sweep", "--config", config_a, "--param", "delta",
                   "--start", "3.8", "--stop", "4.6", "--count", "9",
                   "--tau", "0.0", "--with-hopf", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out / "sweep.csv")
        mid = [r for r in rows if abs(float(r["delta"]) - 4.2) < 1e-9][0]
        assert float(mid["tau0"]) == pytest.approx(0.0348488, abs=1e-6)
        assert mid["direction"] == "subcritical"
        # tau0 varies continuously over the window
        taus = [float(r["tau0"]) for r in rows if r["tau0"]]
        assert len(taus) == 9
        assert max(abs(a - b) for a, b in zip(taus[:-1], taus[1:])) < 0.02

    def test_error_rows_are_captured(self, config_a, tmp_path):
        # a2 -> 0 kills the delayed coupling entirely (q0 = 0)
        out = tmp_path / "sw"
        rc = main(["sweep", "--config", config_a, "--param", "a2",
                   "--start", "0", "--stop", "1", "--count", "3",
                   "--out", str(out)])
        assert rc == 0
        rows = read_csv(out / "sweep.csv")
        assert len(rows) == 3
        assert all("error" in r for r in rows)

    def test_bad_axis_exits_1(self, config_a, tmp_path):
        assert main(["sweep", "--config", config_a, "--param", "bogus",
                     "--start", "0", "--stop", "1", "--count", "3",
                     "--out", str(tmp_path)]) == 1

    def test_count_cap_exits_1(self, config_a, tmp_path):
        assert main(["sweep", "--config", config_a, "--param", "tau",
                     "--start", "0", "--stop", "1", "--count", "2000000",
                     "--out", str(tmp_path)]) == 1

    def test_determinism(self, config_a, tmp_path):
        blobs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            assert main(["sweep", "--config", config_a, "--param", "tau",
                         "--start", "0", "--stop", "0.06", "--count", "13",
                         "--out", str(out)]) == 0
            blobs.append((out / "sweep.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_hopf_cells_parse_as_floats(self, config_a, tmp_path):
        out = tmp_path / "sw"
        assert main(["sweep", "--config", config_a, "--param", "delta",
                     "--start", "3.8", "--stop", "4.6", "--count", "9",
                     "--tau", "0.03", "--with-hopf", "--out", str(out)]) == 0
        rows = read_csv(out / "sweep.csv")
        assert all(r["c1_re"] for r in rows)
        for r in rows:
            assert r["direction"] in ("supercritical", "subcritical", "inconclusive"), r
            for name, cell in r.items():
                if name not in TEXT_COLUMNS and cell:
                    float(cell)

    @pytest.mark.parametrize("variant", ["A", "B"])
    def test_tau_sweep_rows_match_direct_calls(self, config_a, config_b,
                                               tmp_path, variant):
        config, raw = (config_a, CASE_A) if variant == "A" else (config_b, CASE_B)
        out = tmp_path / "sw"
        assert main(["sweep", "--config", config, "--variant", variant,
                     "--param", "tau", "--start", "0", "--stop", "0.06",
                     "--count", "61", "--with-hopf", "--out", str(out)]) == 0
        rows = read_csv(out / "sweep.csv")
        assert len(rows) == 61
        p = validate_parameters(dict(raw))
        coeffs = subsystem_coefficients(p, variant)
        eq = equilibrium(coeffs, p)
        for r in rows:
            verdict = stability_verdict(p, variant, float(r["tau"]))
            rep = verdict.report
            hopf = hopf_analysis(eq, coeffs, rep)
            want = [eq.beta_e, eq.lambda_e, rep.coefficients.p0,
                    rep.coefficients.r0, rep.coefficients.q0, rep.h_case.tag,
                    rep.tau0, verdict.kind, hopf.c1_0.real, hopf.c1_0.imag,
                    hopf.mu2_bar, hopf.beta2, hopf.direction,
                    hopf.orbit_stability, ""]
            got = list(r.values())[1:]
            assert got == [repr(v) if isinstance(v, float) else v for v in want]
        assert {r["verdict"] for r in rows} == {"stable", "unstable"}
        # only tau and the verdict vary, and the verdict turns once, at tau0
        assert len({tuple(v for k, v in r.items() if k not in ("tau", "verdict"))
                    for r in rows}) == 1
        tau0 = float(rows[0]["tau0"])
        for r in rows:
            assert r["verdict"] == ("stable" if float(r["tau"]) < tau0 else "unstable"), r

    def test_tau_sweep_inconsistent_psi_fills_every_row(self, config_psi, tmp_path):
        out = tmp_path / "sw"
        assert main(["sweep", "--config", config_psi, "--variant", "B",
                     "--param", "tau", "--start", "0", "--stop", "0.04",
                     "--count", "5", "--with-hopf", "--out", str(out)]) == 0
        rows = read_csv(out / "sweep.csv")
        assert len(rows) == 5
        for r in rows:
            assert r.pop("error") == "InconsistentPsi"
            r.pop("tau")
            assert set(r.values()) == {""}

    def test_negative_tau_exits_1_before_rows(self, config_psi, tmp_path, capsys):
        # a rising grid that starts below zero, and a falling one that ends there
        for start, stop, count, bad in (("-0.01", "0.04", "5", "-0.01"),
                                        ("0.04", "-0.01", "6", "-0.01")):
            out = tmp_path / f"sw{start}"
            assert main(["sweep", "--config", config_psi, "--variant", "B",
                         "--param", "tau", "--start", start, "--stop", stop,
                         "--count", count, "--out", str(out)]) == 1
            assert capsys.readouterr().err == (
                f"config error: tau must be finite and nonnegative, got {bad}\n")
            assert not (out / "sweep.csv").exists()

    def test_falling_tau_grid_ends_at_zero(self, config_a, tmp_path):
        # start + i * step overshot to -3.5e-18 on the last row and exited 1
        out = tmp_path / "sw"
        assert main(["sweep", "--config", config_a, "--param", "tau", "--start", "0.03",
                     "--stop", "0", "--count", "8", "--out", str(out)]) == 0
        rows = read_csv(out / "sweep.csv")
        assert [r["tau"] for r in rows][::7] == ["0.03", "0.0"]
        assert [r["verdict"] for r in rows] == ["stable"] * 8

    @settings(max_examples=300, deadline=None)
    @given(start=st.floats(-1e300, 1e300), stop=st.floats(-1e300, 1e300),
           count=st.integers(1, 2000))
    def test_grid_runs_from_start_to_stop(self, start, stop, count):
        args = cli.build_parser().parse_args([
            "sweep", "--config", "c.json", f"--start={start!r}", f"--stop={stop!r}",
            "--count", str(count)])
        grid = list(_grid(args))
        assert len(grid) == count and grid[0] == start
        assert grid[-1] == (stop if count > 1 else start)
        lo, hi = min(start, stop), max(start, stop)
        assert all(lo <= v <= hi for v in grid)

    @pytest.mark.parametrize("start, stop, count", [
        ("-1e308", "1e308", "3"), ("1e308", "-1e308", "3"), ("-1e308", "1e308", "1"),
        ("inf", "0", "2"), ("0", "nan", "2")])
    def test_range_wider_than_the_floats_exits_1(self, start, stop, count, config_a,
                                                 tmp_path, capsys):
        # stop - start overflowed: the grid step was inf and the rows read
        # nan, inf and 1e+308, values never asked for
        out = tmp_path / "sw"
        rc = main(["sweep", "--config", config_a, "--param", "delta", f"--start={start}",
                   f"--stop={stop}", "--count", count, "--tau", "0.03", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: parameter range=") and err.count("\n") == 1
        assert err.endswith(" violates finite range\n")
        assert not (out / "sweep.csv").exists()

    def test_non_finite_fixed_tau_exits_1(self, config_a, tmp_path, capsys):
        out = tmp_path / "sw"
        rc = main(["sweep", "--config", config_a, "--param", "delta",
                   "--start", "3.8", "--stop", "4.6", "--count", "3",
                   "--tau", "nan", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("config error: tau")
        assert not (out / "sweep.csv").exists()


# sha256 of sweep.csv: a change to any byte is an output format change and
# must be documented
PINNED_SWEEPS = {
    "tau_B": (["--variant", "B", "--param", "tau", "--start", "0",
               "--stop", "0.1", "--count", "101", "--with-hopf"],
              "cb6bec24d5b17f4a191e25335352413e8557aab09a42220f537f09b676b96baa"),
    "delta_A": (["--param", "delta", "--start", "3.5", "--stop", "5",
                 "--count", "101", "--tau", "0.03", "--with-hopf"],
                "b5de9b8df7d132a9362326760f98ee3a490f1178c4fa1e39e555439902d4f074"),
    # both re-derive g/rho0/rho1 per row and cross constraint edges
    # its last row reads 1.2, not 1.1999999999999997, since the grid ends at stop
    "s_pi_A": (["--param", "s_pi", "--start", "0.01", "--stop", "1.2",
                "--count", "301", "--tau", "0.03", "--with-hopf"],
               "09b7085bc294842083c99a58475e5ade3b10de91b9d4d1eae5483ecff7c68a23"),
    "a3_A": (["--param", "a3", "--start", "0.5", "--stop", "1.2", "--count", "301"],
             "63280265fb83de30c0206be809a7d60dc840f7efb7aeb58e7bca0eddbe596b1c"),
}


@pytest.mark.parametrize("name, workers", [
    *(pytest.param(name, 1, id=name) for name in sorted(PINNED_SWEEPS)),
    *(pytest.param(name, 3, id=f"{name}-3_workers") for name in sorted(PINNED_SWEEPS)),
])
def test_sweep_bytes_are_pinned(name, workers, split_rows, config_a, config_b, tmp_path):
    args, digest = PINNED_SWEEPS[name]
    config = config_b if name.endswith("B") else config_a
    forks = split_rows(workers)
    assert main(["sweep", "--config", config, *args, "--out", str(tmp_path / "sw")]) == 0
    data = (tmp_path / "sw" / "sweep.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest
    # a tau axis formats its rows from one analysis, in one process
    assert len(forks) == (0 if name.startswith("tau") else workers - 1)
    assert_no_children_left(tmp_path / "sw")


@pytest.mark.parametrize("axis", [
    # most rows lie outside (0,1)^2: each process counts its own
    ["--param", "gamma1", "--start", "0", "--stop", "0.6", "--count", "300"],
    # crosses constraint edges: error rows in more than one chunk
    ["--param", "s_pi", "--start", "0.01", "--stop", "1.2", "--count", "301", "--with-hopf"],
], ids=["gamma1", "s_pi"])
def test_sweep_output_does_not_depend_on_the_workers(axis, split_rows, config_a, tmp_path,
                                                     capsys):
    out = tmp_path / "sw"
    runs = []
    for workers in (1, 2, 3):
        forks = split_rows(workers)
        assert main(["sweep", "--config", config_a, *axis, "--tau", "0.03",
                     "--out", str(out)]) == 0
        assert len(forks) == workers - 1
        assert_no_children_left(out)
        runs.append(((out / "sweep.csv").read_bytes(), *capsys.readouterr()))
    assert runs[0][2].endswith(" rows have an equilibrium outside (0,1)^2\n")
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_underflowing_equilibrium_row_is_an_error_row(split_rows, config_b, tmp_path):
    # the last row, nu2 = 5e-324, is written by the third process; B's lambda_e*
    # divides by nu2 * (1 - mu2), which underflows to 0 there
    out = tmp_path / "sw"
    runs = []
    for workers in (1, 3):
        forks = split_rows(workers)
        assert main(["sweep", "--config", config_b, "--variant", "B", "--param", "nu2",
                     "--start", "0.03", "--stop", "5e-324", "--count", "30",
                     "--out", str(out)]) == 0
        assert len(forks) == workers - 1
        assert_no_children_left(out)
        runs.append((out / "sweep.csv").read_bytes())
    assert runs[1] == runs[0]
    last = read_csv(out / "sweep.csv")[-1]
    assert (last["nu2"], last["error"]) == ("5e-324", "EquilibriumUndefined")


@pytest.mark.parametrize("row, exc", [
    (15, OSError), (5, OSError), (15, KeyboardInterrupt), (5, KeyboardInterrupt),
    (15, ZeroDivisionError), (5, ZeroDivisionError)],
    ids=["child_error", "parent_error", "child_interrupt", "parent_interrupt",
         "child_fault", "parent_fault"])
def test_sweep_failure_reaps_every_child(row, exc, split_rows, config_a, tmp_path, capsys,
                                         monkeypatch):
    # 30 rows in 3 processes: rows 0..9 in this one, 10..19 and 20..29 in
    # children. A failing child sends no count, and this process writes its
    # chunk again, so every failure is raised here, as in one process
    value = 3.5 + row * ((5.0 - 3.5) / 29)  # the grid's value of ROW
    replace_field = cli.replace_field

    def fail_at_row(p, name, v):
        if v == value:
            raise exc(f"row {row} cannot be written")
        return replace_field(p, name, v)

    monkeypatch.setattr(cli, "replace_field", fail_at_row)
    forks = split_rows(3)
    out = tmp_path / "sw"
    argv = ["sweep", "--config", config_a, "--param", "delta", "--start", "3.5", "--stop", "5",
            "--count", "30", "--tau", "0.03", "--out", str(out)]
    if exc is OSError:  # main reports it as a config error
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"config error: row {row} cannot be written\n")
    else:
        with pytest.raises(exc, match=f"row {row} cannot be written"):
            main(argv)
        assert capsys.readouterr() == ("", "")
    assert len(forks) == 2
    assert_no_children_left(out)


@pytest.mark.parametrize("rows", [(15,), (25,), (15, 25)],
                         ids=["chunk_1", "chunk_2", "chunks_1_and_2"])
def test_sweep_child_without_a_count_is_written_again(rows, split_rows, config_a, tmp_path,
                                                      capsys, monkeypatch):
    # 30 rows in 3 processes, as above; a child that reaches a row of ROWS ends
    # at once, with no count, as if killed. Most rows lie outside (0,1)^2, so
    # stderr shows that a chunk written again is counted once
    argv = ["sweep", "--config", config_a, "--param", "gamma1", "--start", "0",
            "--stop", "0.6", "--count", "30", "--tau", "0.03", "--with-hopf"]
    out = tmp_path / "sw"
    split_rows(1)
    assert main([*argv, "--out", str(tmp_path / "one")]) == 0
    one = ((tmp_path / "one" / "sweep.csv").read_bytes(), *capsys.readouterr())
    assert one[2].endswith(" rows have an equilibrium outside (0,1)^2\n")

    parent = os.getpid()
    values = {row * (0.6 / 29) for row in rows}  # the grid's values of ROWS
    replace_field = cli.replace_field

    def end_child_at_rows(p, name, v):
        if v in values and os.getpid() != parent:
            os._exit(9)
        return replace_field(p, name, v)

    monkeypatch.setattr(cli, "replace_field", end_child_at_rows)
    forks = split_rows(3)
    assert main([*argv, "--out", str(out)]) == 0
    assert len(forks) == 2
    assert_no_children_left(out)
    one = (one[0], one[1].replace(str(tmp_path / "one"), str(out)), one[2])
    assert ((out / "sweep.csv").read_bytes(), *capsys.readouterr()) == one


# sha256 of simulate's trajectory.csv, run.json and stdout on case A
PINNED_SIMULATIONS = {
    "A_tau0.05": (["--tau", "0.05", "--t-end", "500", "--init", "0.95,0.74"], (
        "ff1eaa2b113aed4706a641bcaec9ab0d80b067c43bc075fdbd0b25c240871292",
        "1b576b1a83b51ecf6546fb2c543963f8220b7866e033fa3f15b33a5541f11580",
        "54595638e579a160b20d9face2508e16700a86bc5328085007e6138e08559bd4")),
    # overflows and is truncated, but long enough to classify
    "A_overflow": (["--tau", "0.05", "--t-end", "500", "--init", "50,0"], (
        "8814caa134fb8fd67b156e362cee920c28ccb10669153ec9433f2d948fe32c3a",
        "d47feb191e4edcee0256eed3421d2744b2a0ab6dd05c69a5f38c90481fefe2a4",
        "33ba7f7980594265c833afa4da44fb3adb7ccb0c228e2d4cd4a0fb1e76fba94f")),
    # tau = 0: m = 0, so no midpoint is ever read back
    "A_tau0": (["--tau", "0", "--t-end", "500", "--init", "0.95,0.74"], (
        "c3d480bc1728528931590b11ead70fd3d92ef05e60a9d651984b89d9d8630d4e",
        "72897529ca9448e535bc9a0567a7bc96822af3c8e2dda754ed5d5e01f718fcdf",
        "944f5aa6e07a4c3afdc0846b960cdd30b2cdeb3b47cc4623ddfc03fb24f114d4")),
    "B_tau0.05": (["--variant", "B", "--tau", "0.05", "--t-end", "500"], (
        "ba153e7effa65b85b1c9941f83acb8d4d6c7c74241fa928eb9b8a3885516ca22",
        "7b690c0fee0fe40b4e12c62cfd1432dd600bae3a41daab4ad091d6e6e21192a9",
        "4b788508bd38e6853aa3a8ba06d98dba239baa43f19e693813c8c41b05483e19")),
    # a step hint: m = 17 and h = 0.05/17, not the default m = 5
    "A_step": (["--tau", "0.05", "--step", "0.003", "--t-end", "200"], (
        "b93ac61734c8a20c73f10d118756459f3054e5f63b7c02791b763efa4400e9aa",
        "b41517f981dcfeeac1e36ac589cb6ee0032c91fe05712341a55c9f97ec47b58b",
        "41ba2ec0e2f51d90d21f9bf0ba18ef42105e7fa2e322514f94b888a7a0f6c13f")),
}


@pytest.mark.parametrize("name", sorted(PINNED_SIMULATIONS))
def test_simulate_bytes_are_pinned(name, config_a, config_b, tmp_path, capsys):
    args, digests = PINNED_SIMULATIONS[name]
    config = config_b if name.startswith("B") else config_a
    assert main(["simulate", "--config", config, *args, "--out", str(tmp_path)]) == 0
    data = [(tmp_path / "trajectory.csv").read_bytes(), (tmp_path / "run.json").read_bytes(),
            capsys.readouterr().out.encode()]
    assert tuple(hashlib.sha256(d).hexdigest() for d in data) == digests


# sha256 of analyze's analysis.json, stdout and stderr
PINNED_ANALYSES = {
    "A_tau0.05": (CASE_A, ["--tau", "0.05"], (
        "e5feaf8c2709088750743998293d188994477c912952b4fe17ad47886dc6051e",
        "9731a629596700f2dd95a2d4275219670481a6f59af34cfe5a803f3d8947eb57",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")),
    "B": (CASE_B, ["--variant", "B"], (
        "ebfd5bdf8f0efd9babca5d4c6a9b16aef0c0432f40c3ed27b1c7adb36d8bdd95",
        "d1ebf4a68c7ac3d2d339d251adec153a4e6d7d86ed0c4bb19e59776b468b8756",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")),
    # the equilibrium lies outside (0,1)^2: one warning line on stderr
    "A_outside": ({**CASE_A, "gamma1": 0.5}, [], (
        "003fba76d3abf71ea45b4e49951d29c0bedee2138da4171e7dfc11f80a1a957d",
        "e45b047c3901ae121bb978aca3922210dece7233a6c1ebc5fea3cce49b4e5e74",
        "db6c439c8c54aaa3490cb2e35a572fadc85a1470b4c7fe1f35840adb44d0f4ff")),
    # H1, stable or unstable at every delay: no crossing and "hopf": null
    "A_H1": ({**CASE_A, "gamma2": 3.0}, [], (
        "d880d52a3f27b1fd06a7a3f34f910634c0aac62e0bf0c9442ffa857c06aa77b2",
        "05be9d012721a352ca318550e9ca7888d321faa9c96111d9e2a0345ae68d5ab5",
        "2c2595522e0ca3ad2cbe8e4e51695541452e4424c753f8eaf3479943297f904c")),
}


@pytest.mark.parametrize("name", sorted(PINNED_ANALYSES))
def test_analyze_bytes_are_pinned(name, tmp_path, capsys):
    raw, args, digests = PINNED_ANALYSES[name]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    assert main(["analyze", "--config", str(config), *args, "--out", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    data = [(tmp_path / "analysis.json").read_bytes(), captured.out.encode(),
            captured.err.encode()]
    assert tuple(hashlib.sha256(d).hexdigest() for d in data) == digests


@pytest.mark.parametrize("args, small, large", [
    (["--param", "tau", "--start", "0", "--stop", "0.1", "--with-hopf"], 2_000, 20_000),
    (["--param", "delta", "--start", "3.5", "--stop", "5", "--tau", "0.03",
      "--with-hopf"], 200, 2_000),
    # most rows lie outside (0,1)^2, and each is counted
    (["--param", "gamma1", "--start", "0", "--stop", "0.6", "--tau", "0.03"], 200, 2_000),
], ids=["tau", "delta", "gamma1"])
def test_sweep_memory_does_not_grow_with_rows(args, small, large, split_rows, config_a,
                                              tmp_path, capsys):
    # rows are written as they are formatted and the value grid is generated,
    # not held: nothing grows with the count (measured within +-6 B a row,
    # which is allocator noise; a list of the values would take 32 B a row).
    # One process writes every row, so tracemalloc sees them all
    forks = split_rows(1)

    def sweep(count):
        assert main(["sweep", "--config", config_a, *args, "--count", str(count),
                     "--out", str(tmp_path)]) == 0

    def peak(count):
        tracemalloc.start()
        try:
            sweep(count)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # the first run of a size leaves memory behind that later runs reuse (the
    # interpreter's allocator and free lists): an untraced run leaves it first
    sweep(large)
    assert peak(large) - peak(small) <= 16 * (large - small)
    assert forks == []


def test_analyze_and_sweep_do_not_import_numpy(config_a, config_b, tmp_path):
    script = textwrap.dedent("""
        import sys
        from goodwin_delay import cli
        a, b, out = sys.argv[1:]
        assert cli.main(["analyze", "--config", b, "--variant", "B",
                         "--out", out]) == 0
        assert cli.main(["sweep", "--config", a, "--param", "tau",
                         "--start", "0", "--stop", "0.06", "--count", "61",
                         "--with-hopf", "--out", out]) == 0
        # a parameter sweep split across three processes
        import os
        forks, fork = [], os.fork
        os.fork = lambda: forks.append(1) or fork()
        os.sched_getaffinity = lambda pid: {0, 1, 2}
        cli.ROWS_PER_WORKER = 10
        assert cli.main(["sweep", "--config", a, "--param", "delta", "--start", "3.5",
                         "--stop", "5", "--count", "61", "--tau", "0.03",
                         "--with-hopf", "--out", out]) == 0
        assert len(forks) == 2
        # only simulate loads the integrator
        assert "goodwin_delay.simulate" not in sys.modules, "the integrator imported"
        assert cli.main(["simulate", "--config", a, "--tau", "0.05",
                         "--t-end", "20", "--out", out]) == 0
        for name in ("numpy", "multiprocessing", "concurrent.futures"):
            assert name not in sys.modules, name + " imported"
    """)
    src = str(Path(goodwin_delay.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script, config_a, config_b,
                           str(tmp_path)], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "trajectory.csv").exists()


@pytest.mark.parametrize("text", ["5", "[]", json.dumps({**CASE_A, "delta": 10**400})])
def test_config_that_is_not_an_object_of_floats_exits_1(text, tmp_path, capsys):
    # a config holding 5 was a TypeError traceback, an integer too large for
    # a float an OverflowError one
    cfg = tmp_path / "bad.json"
    cfg.write_text(text)
    assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [["analyze"],
                                     ["simulate", "--tau", "0.03", "--t-end", "50"]])
def test_outside_equilibrium_is_one_plain_stderr_line(command, tmp_path, capsys):
    cfg = tmp_path / "outside.json"
    cfg.write_text(json.dumps({**CASE_A, "gamma1": 0.5}))
    assert main([*command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == (
        "warning: equilibrium (1.3674398299629584, 0.09347899241150195) outside (0,1)^2\n")


def test_outside_equilibrium_line_precedes_the_analysis_error(tmp_path, capsys):
    # the equilibrium is reported before the spectrum finds h(z) past the float range
    cfg = tmp_path / "outside.json"
    cfg.write_text(json.dumps({**CASE_A, "a1": 1e150}))
    assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    warning, error = capsys.readouterr().err.splitlines(keepends=True)
    assert warning == (
        "warning: equilibrium (9.885643472430133e+149, 1.4902980109191152e+148) "
        "outside (0,1)^2\n")
    assert error.startswith("analysis error: h(z) of p0=") and error.endswith(
        " is not finite\n")


@pytest.mark.parametrize("site", [
    "check_delay", "j_max", "jmax", "t_end", "step_hint", "history"])
def test_input_errors_are_typed(site, case_a):
    _, coeffs, eq = case_a
    rep = analyze_spectrum(eq, coeffs)
    hist = simulate_module.HistorySpec(beta=0.9, lambda_=0.7)
    calls = {
        "check_delay": lambda: check_delay(-1.0),
        "j_max": lambda: critical_delays(rep.coefficients, rep.omega0, -1),
        "jmax": lambda: check_depth(1001),
        "t_end": lambda: simulate_module.simulate(coeffs, 0.05, hist, math.inf),
        "step_hint": lambda: simulate_module.simulate(coeffs, 0.05, hist, 10.0,
                                                      step_hint=0.0),
        "history": lambda: simulate_module.simulate(
            coeffs, 0.05, simulate_module.HistorySpec(beta=math.nan, lambda_=0.7),
            10.0),
    }
    with pytest.raises(errors.InvalidInput):
        calls[site]()


@pytest.mark.parametrize("argv", [
    [], ["analyze"], ["sweep", "--start", "0", "--stop", "1", "--count", "abc"],
    ["simulate", "--tau", "0", "--t-end", "1", "--jmax", "3"],
    ["sweep", "--start", "0", "--stop", "1", "--count", "3", "--jmax", "3"],
    ["analyze", "--no-such-option"]])
def test_usage_error_exits_1(argv, config_a, tmp_path, capsys):
    if argv and argv != ["analyze"]:
        argv = [*argv, "--config", config_a, "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_help_exits_0_and_lists_jmax_where_read(capsys):
    for command, reads_jmax in (("analyze", True), ("sweep", False), ("simulate", False)):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert ("--jmax" in capsys.readouterr().out) == reads_jmax


# the exit code each package error class gets from main; every class not
# named here exits 2
CONFIG_EXITS = {"ConfigError", "MissingField", "UnknownField", "ConstraintViolation",
                "VariantConstraint", "InvalidInput"}
SIMULATION_EXITS = {"SimulationError", "GridTooLarge", "WindowTooShort", "NoOscillation"}
PACKAGE_ERRORS = [cls for cls in vars(errors).values()
                  if isinstance(cls, type) and issubclass(cls, errors.GoodwinDelayError)]


@pytest.mark.parametrize("cls", PACKAGE_ERRORS, ids=lambda cls: cls.__name__)
def test_error_class_carries_its_exit_code(cls, config_a, tmp_path, capsys, monkeypatch):
    name = cls.__name__
    want = 1 if name in CONFIG_EXITS else 3 if name in SIMULATION_EXITS else 2
    assert cls.exit_code == want
    assert cls.kind == {1: "config", 2: "analysis", 3: "simulation"}[want]

    def fail(args):
        raise cls.__new__(cls, "boom")  # skips the subclasses' own __init__

    monkeypatch.setattr(cli, "cmd_analyze", fail)
    assert main(["analyze", "--config", config_a, "--out", str(tmp_path)]) == want
    assert capsys.readouterr().err == f"{cls.kind} error: boom\n"


def test_exit_code_table_names_real_classes():
    assert CONFIG_EXITS | SIMULATION_EXITS <= {cls.__name__ for cls in PACKAGE_ERRORS}


def _config_error(raw: dict, variant: str) -> bool:
    """Whether the parameters, or VARIANT for them, are rejected as configuration."""
    try:
        subsystem_coefficients(validate_parameters(raw), variant)
    except errors.ConfigError:
        return True
    return False


@given(variant=st.sampled_from("AB"), name=st.sampled_from(PARAM_FIELDS),
       value=st.floats(min_value=1e-300, max_value=1.7e308))
@settings(max_examples=150, deadline=None)
@example(variant="B", name="a2", value=5e-324)  # rho1 rounds to 0: no equilibrium
def test_extreme_inputs_exit_cleanly(variant, name, value):
    # every field of both reference sets, at any finite magnitude: main
    # returns a documented exit code, exits 1 only for a rejected config, and
    # never writes a number that is not finite
    base = CASE_A if variant == "A" else CASE_B
    raw = {**base, name: value}
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp, "config.json")
        config.write_text(json.dumps(raw))
        out = Path(tmp, "out")
        rc = main(["analyze", "--config", str(config), "--variant", variant,
                   "--out", str(out)])
        assert rc in (0, 1, 2, 3)
        assert (rc == 1) == _config_error(raw, variant)

        config.write_text(json.dumps(base))
        rc = main(["sweep", "--config", str(config), "--variant", variant,
                   "--param", name, "--start", repr(base[name]), "--stop", repr(value),
                   "--count", "3", "--tau", "0.03", "--with-hopf", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out / "sweep.csv")
        assert len(rows) == 3
        for row in rows:
            for column, cell in row.items():
                if column not in TEXT_COLUMNS and cell:
                    assert math.isfinite(float(cell)), (column, row)
