"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a one-line PASS
summary so the run log doubles as a checklist.
"""

import math
import time

import numpy as np
import pytest

from goodwin_delay.model import equilibrium, subsystem_coefficients, validate_parameters
from goodwin_delay.normal_form import hopf_analysis
from goodwin_delay.simulate import HistorySpec, classify_dynamics, oscillation_period, simulate
from goodwin_delay.spectral import (analyze_spectrum, char_residual, critical_delays,
                                    verdict_at)

from helpers import (CASE_H6, brute_force_onset, drift_oracle, eigen_pair, fd_quadratic_g,
                     hassard_c1, quadratic_g, sample_crossing_set)


def _ok(num, msg):
    print(f"PASS criterion {num}: {msg}")


def test_criterion_1_equilibrium(case_a, case_b):
    _, _, eq = case_a
    assert eq.beta_e == pytest.approx(0.90, abs=5e-3)
    assert eq.lambda_e == pytest.approx(0.70, abs=5e-3)
    # the integrator's inlined field vanishes there: a run started on it stays
    for _, c, e in (case_a, case_b):
        traj = simulate(c, 0.03, HistorySpec(beta=e.beta_e, lambda_=e.lambda_e), 50.0)
        assert np.max(np.abs(np.asarray(traj.beta) - e.beta_e)) < 1e-12
        assert np.max(np.abs(np.asarray(traj.lambda_) - e.lambda_e)) < 1e-12
    _ok(1, f"beta_e={eq.beta_e:.6f} lambda_e={eq.lambda_e:.6f} drift<1e-12 (A, B)")


def test_criterion_2_spectrum(case_a):
    _, coeffs, eq = case_a
    rep = analyze_spectrum(eq, coeffs)
    assert rep.z0 == pytest.approx(0.501343, abs=1e-5)
    assert rep.omega0 == pytest.approx(0.708056, abs=1e-5)
    assert rep.h_prime_z0 == pytest.approx(0.991515, abs=1e-5)
    assert rep.tau0 == pytest.approx(0.0348488, abs=1e-6)
    assert rep.h_case.tag == "H4"
    _ok(2, f"z0={rep.z0:.6f} omega0={rep.omega0:.6f} tau0={rep.tau0:.7f} H4")


def test_criterion_3_normal_form(case_a):
    _, coeffs, eq = case_a
    rep = analyze_spectrum(eq, coeffs)
    hopf = hopf_analysis(eq, coeffs, rep)
    # c1(0) against both independent oracles
    ref = hassard_c1(eq, coeffs, rep.omega0, rep.tau0)
    assert abs(hopf.c1_0 - ref) <= 1e-12 * abs(ref)
    measured = drift_oracle(coeffs, eq, rep)
    assert measured.real / hopf.c1_0.real == pytest.approx(1.0, abs=0.01)
    assert measured.imag / hopf.c1_0.imag == pytest.approx(1.0, abs=0.01)
    # the paper's qualitative claim: subcritical, with an unstable orbit
    assert hopf.mu2_bar < 0
    assert hopf.direction == "subcritical"
    assert hopf.beta2 > 0
    assert hopf.orbit_stability == "unstable"
    _ok(3, f"c1(0)={hopf.c1_0:.7g} matches both oracles; subcritical, orbit unstable")


def test_criterion_3_suspected_erratum(case_a):
    """The paper prints c1(0) = 0.00132164 - 0.0136561i.  The Hassard
    reduction gives it, to the printed digits, only with entry (0,1) of its
    E1 and E2 matrices written as delta0*lambda_e; the linearization gives
    delta0*beta_e.  The printed value looks like an erratum for that entry."""
    _, coeffs, eq = case_a
    rep = analyze_spectrum(eq, coeffs)
    printed = hassard_c1(eq, coeffs, rep.omega0, rep.tau0, paper_entry=True)
    assert printed.real == pytest.approx(0.00132164, abs=5e-9)
    assert printed.imag == pytest.approx(-0.0136561, abs=5e-8)
    corrected = hopf_analysis(eq, coeffs, rep).c1_0
    assert abs(corrected - printed) > 1e-3 * abs(printed)
    _ok(3, f"suspected erratum: the swapped entry gives the printed {printed:.6g}")


def test_criterion_4_system_b(case_b):
    _, coeffs, eq = case_b
    assert eq.beta_e == pytest.approx(0.937, abs=1e-3)
    assert eq.lambda_e == pytest.approx(0.741, abs=1e-3)
    assert eq.lambda_star == pytest.approx(0.741, abs=1e-3)
    rep = analyze_spectrum(eq, coeffs)
    assert rep.tau0 == pytest.approx(0.0196383, abs=5e-5)
    _ok(4, f"beta_e={eq.beta_e:.6f} lambda_e={eq.lambda_e:.6f} tau0={rep.tau0:.7f}")


def test_criterion_5_crossing_residuals():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for i in range(1000):
        variant = "A" if i % 2 == 0 else "B"
        _, coeffs, eq, c, h = sample_crossing_set(rng, variant)
        for omega in [math.sqrt(z) for z in h.roots]:
            for tau in critical_delays(c, omega, j_max=2):
                worst = max(worst, char_residual(c, omega, tau))
    elapsed = time.perf_counter() - start
    assert worst < 1e-9
    assert elapsed < 10.0
    _ok(5, f"1000 sets, worst |P(i omega; tau)| = {worst:.3e} in {elapsed:.1f}s")


def test_criterion_6_brute_force_onsets():
    rng = np.random.default_rng(99)
    start = time.perf_counter()
    checked = 0
    worst = 0.0
    while checked < 50:
        variant = "A" if checked % 2 == 0 else "B"
        _, coeffs, eq, c, h = sample_crossing_set(
            rng, variant, require_stable_at_zero=True)
        rep = analyze_spectrum(eq, coeffs)
        if rep.tau0 is None or rep.tau0 > 3.0:
            continue
        onset = brute_force_onset(c.p0, c.r0, c.q0, rep.tau0 * 1.5 + 0.05)
        assert onset is not None
        err = abs(onset - rep.tau0)
        assert err < 1e-3
        worst = max(worst, err)
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _ok(6, f"50 onsets, worst |onset - tau0| = {worst:.2e} in {elapsed:.1f}s")


def test_criterion_7_figure_concordance(case_a):
    _, coeffs, eq = case_a
    rep = analyze_spectrum(eq, coeffs)
    hist = HistorySpec(beta=eq.beta_e * 1.05, lambda_=eq.lambda_e * 1.05)
    labels = {}
    for tau in (0.0, rep.tau0, 0.05):
        traj = simulate(coeffs, tau, hist, t_end=500.0)
        labels[tau] = classify_dynamics(traj)
        if tau == rep.tau0:
            period = oscillation_period(traj)
    assert labels[0.0] == "decaying"
    assert labels[rep.tau0] == "sustained"
    assert labels[0.05] == "growing"
    predicted = 2 * math.pi / rep.omega0
    assert abs(period - predicted) / predicted < 0.05
    # H6: past tau0 = 3.6024 the rung 7.2788 of the smaller frequency makes
    # the equilibrium stable again, until the rung 19.838 of the larger
    p = validate_parameters(dict(CASE_H6))
    coeffs_h6 = subsystem_coefficients(p, "A")
    eq_h6 = equilibrium(coeffs_h6, p)
    rep_h6 = analyze_spectrum(eq_h6, coeffs_h6)
    hist_h6 = HistorySpec(beta=eq_h6.beta_e - 0.05, lambda_=eq_h6.lambda_e - 0.05)
    for tau, want in ((10.0, "decaying"), (25.0, "growing")):
        assert verdict_at(rep_h6, tau) == {"decaying": "stable", "growing": "unstable"}[want]
        assert classify_dynamics(simulate(coeffs_h6, tau, hist_h6, t_end=3000.0)) == want
    _ok(7, f"decaying/sustained/growing; period {period:.4f} vs 2pi/omega0 "
           f"{predicted:.4f}; H6 stable again at tau = 10, unstable at 25")


def test_criterion_8_integrator_order(case_a):
    _, coeffs, eq = case_a
    hist = HistorySpec(beta=eq.beta_e * 1.05, lambda_=eq.lambda_e * 1.05)
    tau, t_end = 0.05, 300.0
    ref = simulate(coeffs, tau, hist, t_end, step_hint=tau / 16)
    coarse = simulate(coeffs, tau, hist, t_end, step_hint=tau / 4)
    fine = simulate(coeffs, tau, hist, t_end, step_hint=tau / 8)
    ratio = (abs(coarse.beta[-1] - ref.beta[-1])
             / abs(fine.beta[-1] - ref.beta[-1]))
    assert 12.0 <= ratio <= 20.0
    _ok(8, f"step-halving error ratio = {ratio:.2f}")


def test_criterion_9_normal_form_oracle(case_a):
    _, coeffs, eq = case_a

    def check(coeffs_, eq_):
        rep_ = analyze_spectrum(eq_, coeffs_)
        ep_ = eigen_pair(eq_, coeffs_, rep_.omega0, rep_.tau0)
        exact = quadratic_g(ep_, coeffs_)
        approx = fd_quadratic_g(ep_, coeffs_)
        scale = max(abs(v) for v in exact)
        for e, a in zip(exact, approx):
            assert abs(e - a) < 1e-4 * scale
        # the library's solve asserts its back-substitution residual at 1e-12
        c1 = hopf_analysis(eq_, coeffs_, rep_).c1_0
        ref = hassard_c1(eq_, coeffs_, rep_.omega0, rep_.tau0)
        assert abs(c1 - ref) <= 1e-11 * abs(ref)

    check(coeffs, eq)
    rng = np.random.default_rng(17)
    for _ in range(20):
        _, coeffs_r, eq_r, _, _ = sample_crossing_set(rng, "A")
        check(coeffs_r, eq_r)
    _ok(9, "oracle g20/g11/g02 match finite differences; c1(0) matches the "
           "Hassard oracle; h20 residual < 1e-12")


def test_criterion_10_determinism(tmp_path):
    import json

    from goodwin_delay.cli import main
    from helpers import CASE_A

    cfg = tmp_path / "case_a.json"
    cfg.write_text(json.dumps(CASE_A))
    blobs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        assert main(["analyze", "--config", str(cfg), "--tau", "0.05",
                     "--out", str(out)]) == 0
        assert main(["sweep", "--config", str(cfg), "--param", "tau",
                     "--start", "0", "--stop", "0.06", "--count", "31",
                     "--with-hopf", "--out", str(out)]) == 0
        blobs.append(((out / "analysis.json").read_bytes(),
                      (out / "sweep.csv").read_bytes()))
    assert blobs[0] == blobs[1]
    _ok(10, "analyze + sweep outputs byte-identical across runs")
