import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import goodwin_delay
import goodwin_delay.simulate as simulate_module
from goodwin_delay import cli, errors, normal_form
from goodwin_delay.cli import _check_probe, main
from goodwin_delay.model import (PARAM_FIELDS, equilibrium, subsystem_coefficients,
                                 validate_parameters)
from goodwin_delay.normal_form import hopf_analysis
from goodwin_delay.spectral import analyze_spectrum, check_delay, stability_verdict

from helpers import CASE_A, CASE_B

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
        assert capsys.readouterr().err == "config error: jmax must be in 0..1000, got 1001\n"
        assert not out.exists()

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

    def test_step_too_large_exits_3(self, config_a, tmp_path, capsys):
        rc = main(["simulate", "--config", config_a, "--tau", "0.05",
                   "--t-end", "10", "--step", "0.05", "--out", str(tmp_path)])
        assert rc == 3
        assert "simulation error" in capsys.readouterr().err

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

    @pytest.mark.parametrize("flag, value", [
        ("--t-end", "inf"), ("--tau", "inf"), ("--init", "nan,nan"),
        ("--t-end", "nan"), ("--step", "nan"),
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

    def test_outside_rows_summarized_in_one_line(self, config_a, tmp_path, capsys):
        out = tmp_path / "sw"
        rc = main(["sweep", "--config", config_a, "--param", "gamma1",
                   "--start", "0", "--stop", "0.6", "--count", "300",
                   "--tau", "0.03", "--out", str(out)])
        assert rc == 0
        err = capsys.readouterr().err.splitlines()
        assert err == ["242 rows have an equilibrium outside (0,1)^2"]

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

    def test_negative_tau_exits_1_before_rows(self, config_psi, tmp_path):
        out = tmp_path / "sw"
        assert main(["sweep", "--config", config_psi, "--variant", "B",
                     "--param", "tau", "--start", "-0.01", "--stop", "0.04",
                     "--count", "5", "--out", str(out)]) == 1
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
              "7c8bbfc02ecc11212b2536fb1df737df4faa4d76536278c2ce0f8488abf78a21"),
    "delta_A": (["--param", "delta", "--start", "3.5", "--stop", "5",
                 "--count", "101", "--tau", "0.03", "--with-hopf"],
                "cbe788cb6fbea1c24a46f0ff4994c4cdd3d88179302436f54ae64b9339fb0235"),
    # both re-derive g/rho0/rho1 per row and cross constraint edges
    "s_pi_A": (["--param", "s_pi", "--start", "0.01", "--stop", "1.2",
                "--count", "301", "--tau", "0.03", "--with-hopf"],
               "e69bfcc49db9a498ed6318a9dc5ab907bc7f748f14d4305c2da221942663976f"),
    "a3_A": (["--param", "a3", "--start", "0.5", "--stop", "1.2", "--count", "301"],
             "b9a806a515a9e240172dc055db208917fefd26c6867d7d69d15eb33fc62d61e1"),
}


@pytest.mark.parametrize("name", sorted(PINNED_SWEEPS))
def test_sweep_bytes_are_pinned(name, config_a, config_b, tmp_path):
    args, digest = PINNED_SWEEPS[name]
    config = config_b if name.endswith("B") else config_a
    assert main(["sweep", "--config", config, *args, "--out", str(tmp_path)]) == 0
    data = (tmp_path / "sweep.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


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
        assert cli.main(["simulate", "--config", a, "--tau", "0.05",
                         "--t-end", "20", "--out", out]) == 0
        assert "numpy" not in sys.modules, "numpy imported"
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
    # without the source path and line the warnings module prints, which
    # change with every edit to cli.py and with the install path
    cfg = tmp_path / "outside.json"
    cfg.write_text(json.dumps({**CASE_A, "gamma1": 0.5}))
    assert main([*command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == (
        "warning: equilibrium (1.3674398299629584, 0.09347899241150195) outside (0,1)^2\n")


@pytest.mark.parametrize("site", ["check_delay", "j_max", "jmax", "t_end",
                                  "step_hint", "history"])
def test_input_errors_are_typed(site, case_a):
    _, coeffs, eq = case_a
    hist = simulate_module.HistorySpec(beta=0.9, lambda_=0.7)
    calls = {
        "check_delay": lambda: check_delay(-1.0),
        "j_max": lambda: analyze_spectrum(eq, coeffs, j_max=-1),
        "jmax": lambda: _check_probe(-1, []),
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
    ["analyze", "--no-such-option"]])
def test_usage_error_exits_1(argv, config_a, tmp_path, capsys):
    if argv and argv != ["analyze"]:
        argv = [*argv, "--config", config_a, "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_help_exits_0_and_lists_jmax_where_read(capsys):
    for command, reads_jmax in (("analyze", True), ("sweep", True), ("simulate", False)):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert ("--jmax" in capsys.readouterr().out) == reads_jmax


# the exit code each package error class gets from main; every class not
# named here exits 2
CONFIG_EXITS = {"ConfigError", "MissingField", "UnknownField", "ConstraintViolation",
                "VariantConstraint", "InvalidInput"}
SIMULATION_EXITS = {"SimulationError", "StepTooLarge", "GridTooLarge", "WindowTooShort",
                    "NoOscillation"}
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
