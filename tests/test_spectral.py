import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from goodwin_delay import spectral
from goodwin_delay.cli import main
from goodwin_delay.errors import (AcosDomain, DegenerateCrossing, InvalidInput,
                                  NonFiniteCoefficient, ResidualCheckFailed)
from goodwin_delay.model import (PARAM_FIELDS, Equilibrium, SubsystemCoefficients,
                                 equilibrium, subsystem_coefficients, validate_parameters)
from goodwin_delay.normal_form import hopf_analysis
from goodwin_delay.spectral import (
    CharCoefficients,
    analyze_spectrum,
    char_coefficients,
    char_residual,
    classify_h,
    critical_delays,
    stability_verdict,
    stable_at_zero_delay,
    verdict_at,
)

from helpers import (CASE_A, CASE_B, CASE_H6, CASE_UNSTABLE_AT_ZERO, brute_force_onset,
                     build_set, h_value, mp_discriminant, mp_first_rungs, mp_h_prime,
                     rhp_root_count, sample_crossing_set, sample_edge_set)

# tests/audit.py's draw A-19836 (seed 0): H6 with q0/r0 = 0.018, where the textbook
# discriminant a^2 - 4(r0^2 - q0^2) cancels to 3.8e-13 relative
A_19836 = dict(mu1=0.0, mu2=0.7494194082453309, nu1=0.0023494067395315086,
               nu2=0.5466912007098008, n=0.0005435444985574672, gamma1=0.004372828857747136,
               gamma2=0.36747810031814404, a1=0.021786786444928274, a2=0.019551027914870962,
               a3=0.5702548748285109, b1=0.03829822038336844, b2=0.0, b3=0.816542270346465,
               c=0.810887174865301, s_pi=0.5467768227648584, s_w=0.2604732603723806,
               delta=105.62562797871493)


def mp_char_coefficients(eq, coeffs):
    """Extended-precision recomputation of (p0, r0, q0)."""
    with mpmath.workdps(50):
        be, le = mpmath.mpf(eq.beta_e), mpmath.mpf(eq.lambda_e)
        gc = mpmath.mpf(coeffs.growth_coupling)
        wd = mpmath.mpf(coeffs.wage_damping)
        d0 = mpmath.mpf(coeffs.delta0)
        r1 = mpmath.mpf(coeffs.rho1)
        return (float(wd * le - gc * be),
                float((d0 - wd) * gc * be * le),
                float(d0 * r1 * be * le))


def spectrum_of(p0, r0, q0):
    """The spectral report of (p0, r0, q0), from subsystem coefficients at
    beta_e = lambda_e = 1: p0 = wd - gc, r0 = (delta0 - wd) gc, q0 = delta0 rho1."""
    gc, wd = 1.0, p0 + 1.0
    coeffs = SubsystemCoefficients(variant="A", beta0=0.0, lambda0=0.0, delta0=r0 + wd,
                                   growth_coupling=gc, wage_damping=wd, rho1=q0 / (r0 + wd))
    return analyze_spectrum(Equilibrium(beta_e=1.0, lambda_e=1.0, interior=False), coeffs)


class TestCoefficients:
    def test_case_a_values(self, case_a):
        _, coeffs, eq = case_a
        c = char_coefficients(eq, coeffs)
        p0, r0, q0 = mp_char_coefficients(eq, coeffs)
        assert c.p0 == pytest.approx(p0, abs=1e-15)
        assert c.r0 == pytest.approx(r0, abs=1e-15)
        assert c.q0 == pytest.approx(q0, abs=1e-15)
        assert c.p0 == pytest.approx(0.0172749, abs=1e-6)
        assert c.q0 == pytest.approx(0.4957593, abs=1e-6)

    def test_case_b_values(self, case_b):
        _, coeffs, eq = case_b
        c = char_coefficients(eq, coeffs)
        assert c.r0 == 0.0
        assert c.p0 == pytest.approx(0.0111145, abs=1e-6)
        assert c.q0 == pytest.approx(0.5659790, abs=1e-6)

    def test_stable_at_zero(self, case_a, case_b):
        for _, coeffs, eq in (case_a, case_b):
            assert stable_at_zero_delay(char_coefficients(eq, coeffs))

    def test_unstable_at_zero_detected(self):
        assert not stable_at_zero_delay(CharCoefficients(-0.1, 0.0, 0.5))
        assert not stable_at_zero_delay(CharCoefficients(0.1, 0.2, -0.3))


class TestClassifyH:
    def test_case_a_is_h4(self, case_a):
        _, coeffs, eq = case_a
        h = classify_h(char_coefficients(eq, coeffs))
        assert h.tag == "H4"
        assert len(h.roots) == 1
        assert h.roots[0] == pytest.approx(0.501343, abs=1e-5)

    def test_case_b_is_h4(self, case_b):
        _, coeffs, eq = case_b
        c = char_coefficients(eq, coeffs)
        h = classify_h(c)
        assert h.tag == "H4"
        # r0 = 0 makes h(z) = z^2 + p0^2 z - q0^2
        z = h.roots[0]
        assert z * z + c.p0 ** 2 * z - c.q0 ** 2 == pytest.approx(0.0, abs=1e-14)

    def test_h1_no_real_roots(self):
        # h(z) = z^2 + 0.09 z + 0.0025: disc < 0
        c = CharCoefficients(p0=0.7, r0=0.2, q0=0.1937)
        h = classify_h(c)
        assert h.tag == "H1"
        assert h.roots == ()

    def test_h5_negative_real_roots(self):
        # a > 0 and const > 0: both roots negative
        c = CharCoefficients(p0=1.0, r0=0.1, q0=0.05)
        h = classify_h(c)
        assert h.tag == "H5"
        assert h.roots == ()

    def test_h6_two_positive_roots(self):
        # a < 0, const > 0, disc > 0: two positive roots with
        # h' positive at the larger and negative at the smaller
        c = CharCoefficients(p0=0.1, r0=0.5, q0=0.45)
        h = classify_h(c)
        assert h.tag == "H6"
        assert len(h.roots) == 2
        z1, z2 = h.roots
        assert z1 > z2 > 0
        a = c.p0 * c.p0 - 2 * c.r0
        assert 2 * z1 + a > 0 > 2 * z2 + a  # h'(z) = 2z + a
        for z in h.roots:
            assert h_value(c, z) == pytest.approx(0.0, abs=1e-12)

    def test_h6_boundary_const_zero(self, analysis_json):
        # r0 = q0 puts one root at exactly zero: excluded from crossings
        c = CharCoefficients(p0=0.1, r0=0.5, q0=0.5)
        h = classify_h(c)
        assert h.tag == "H6"
        assert len(h.roots) == 1
        assert h.note
        # case A's gamma2 at which r0 == q0 to the bit: analysis.json carries the note
        doc = analysis_json({**CASE_A, "gamma2": 1.0373498058227124})
        spectral = doc["spectral"]
        assert spectral["r0"] == spectral["q0"]
        assert spectral["h_case"] == "H6" and spectral["h_case_note"] == h.note
        assert not doc["equilibrium"]["interior"]
        assert spectral["verdict"] == "unstable_at_zero"
        assert doc["instability_interval"] is None

    def test_h3_double_root(self):
        # disc = 0 with -a/2 > 0: tangency root
        r0 = 0.5
        p0 = 0.2
        a = p0 ** 2 - 2 * r0
        q0 = math.sqrt(r0 ** 2 - a * a / 4.0)
        h = classify_h(CharCoefficients(p0=p0, r0=r0, q0=q0))
        assert h.tag == "H3"
        assert h.roots == (-a / 2.0,)

    @pytest.mark.parametrize("p0, r0, q0", [
        (1e200, 0.0, 0.1),        # p0 ** 2 overflows
        (0.1, 1e200, 0.1),        # r0 ** 2 overflows
        (1e154, 0.0, 0.1),        # a is finite, a * a is not
        (math.inf, 0.0, 0.1),
        (0.1, 0.1, math.nan),
    ])
    def test_non_finite_h_is_typed(self, p0, r0, q0):
        with pytest.raises(NonFiniteCoefficient):
            classify_h(CharCoefficients(p0=p0, r0=r0, q0=q0))

    def test_h2_double_root_negative(self):
        # disc = 0 with -a/2 < 0: tangency on the negative axis
        r0, p0 = 0.5, 1.2
        a = p0 ** 2 - 2 * r0  # 0.44 > 0, so the double root -a/2 < 0
        q0 = math.sqrt(r0 ** 2 - a * a / 4.0)
        h = classify_h(CharCoefficients(p0=p0, r0=r0, q0=q0))
        assert h.tag == "H2"
        assert h.roots == ()

    @given(p0=st.floats(-2, 2, allow_nan=False),
           r0=st.floats(-2, 2, allow_nan=False),
           q0=st.floats(-2, 2, allow_nan=False))
    @settings(max_examples=2000, deadline=None)
    def test_exhaustive_and_roots_valid(self, p0, r0, q0):
        c = CharCoefficients(p0=p0, r0=r0, q0=q0)
        h = classify_h(c)
        assert h.tag in ("H1", "H2", "H3", "H4", "H5", "H6")
        for z in h.roots:
            assert z > 0
            assert h_value(c, z) == pytest.approx(0.0, abs=1e-9 * max(1.0, z * z))


class TestCriticalDelays:
    def test_case_a_ladder(self, case_a):
        _, coeffs, eq = case_a
        c = char_coefficients(eq, coeffs)
        h = classify_h(c)
        omega = math.sqrt(h.roots[0])
        assert omega == pytest.approx(0.708056, abs=1e-5)
        ladder = critical_delays(c, omega, j_max=3)
        assert ladder[0] == pytest.approx(0.0348488, abs=1e-6)
        assert ladder[1] == pytest.approx(8.9085, abs=1e-3)
        spacing = 2.0 * math.pi / omega
        for a, b in zip(ladder[:-1], ladder[1:]):
            assert b - a == pytest.approx(spacing, rel=1e-12)

    def test_case_b_ladder(self, case_b):
        _, coeffs, eq = case_b
        c = char_coefficients(eq, coeffs)
        omega = math.sqrt(classify_h(c).roots[0])
        assert omega == pytest.approx(0.752276, abs=1e-5)
        ladder = critical_delays(c, omega, j_max=1)
        assert ladder[0] == pytest.approx(0.0196383, abs=1e-6)

    def test_residual_invariant_on_samples(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            _, coeffs, eq, c, h = sample_crossing_set(rng, "A")
            for omega in [math.sqrt(z) for z in h.roots]:
                for tau in critical_delays(c, omega, j_max=2):
                    assert char_residual(c, omega, tau) < 1e-9

    def test_residual_guard_names_its_bound(self, case_b, monkeypatch):
        # case B, as case A's rung 0 has a residual of exactly 0
        _, coeffs, eq = case_b
        monkeypatch.setattr(spectral, "LADDER_RESIDUAL_TOL", 1e-300)
        with pytest.raises(ResidualCheckFailed,
                           match=r" exceeds 1e-300\*\(w\^2\+\|p0\|w\+\|r0\|\+\|q0\|\) = "):
            analyze_spectrum(eq, coeffs)

    def test_reflected_branch(self):
        # p0 < 0 forces sin(omega*tau) < 0: the phase lies in (pi, 2*pi)
        c = CharCoefficients(p0=-0.05, r0=0.0, q0=0.5)
        h = classify_h(c)
        omega = math.sqrt(h.roots[0])
        ladder = critical_delays(c, omega)
        assert char_residual(c, omega, ladder[0]) < 1e-9
        assert math.pi < omega * ladder[0] < 2.0 * math.pi

    def test_acos_domain_guard(self):
        c = CharCoefficients(p0=0.0, r0=5.0, q0=0.1)
        # omega = 3 solves no h(omega^2) = 0: no delay puts a root at 3i
        with pytest.raises(ResidualCheckFailed):
            critical_delays(c, 3.0)
        with pytest.raises(AcosDomain):
            critical_delays(c, -1.0)
        with pytest.raises(AcosDomain):
            critical_delays(CharCoefficients(0.1, 0.0, 0.0), 1.0)

    @settings(max_examples=200, deadline=None)
    @given(variant=st.sampled_from("AB"), seed=st.integers(0, 2 ** 32 - 1))
    @example(variant="H6", seed=0)  # both rungs of case H6
    def test_first_rungs_match_a_200_bit_phase(self, variant, seed):
        if variant == "H6":
            p = validate_parameters(dict(CASE_H6))
            coeffs = subsystem_coefficients(p, "A")
            eq = equilibrium(coeffs, p)
        else:
            _, coeffs, eq, _, _ = sample_crossing_set(np.random.default_rng(seed), variant)
        rep = analyze_spectrum(eq, coeffs)
        assert rep.first_rungs == pytest.approx(mp_first_rungs(rep.coefficients),
                                                rel=2e-15, abs=0.0)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    @example(seed=13723)  # the textbook root formula's worst draw: tau0 5.2e-2 off
    @example(seed=7791)  # its omega here fails the ladder residual check
    @example(seed=61)  # from p2 (p2 - 4 r0) + 4 q0^2 alone, h'(z0) is 6.0e-13 off here
    def test_first_rungs_at_the_r0_q0_edge_match_a_200_bit_phase(self, seed):
        # r0^2 - q0^2 and -a + sqrt(disc) both cancel as r0/q0 -> 1 with a > 0, and so
        # does the discriminant's form p2 (p2 - 4 r0) + 4 q0^2 as a -> 0
        _, coeffs, eq, _, _ = sample_edge_set(np.random.default_rng(seed))
        rep = analyze_spectrum(eq, coeffs)
        assert rep.first_rungs == pytest.approx(mp_first_rungs(rep.coefficients),
                                                rel=1e-12, abs=0.0)
        assert rep.h_prime_z0 == pytest.approx(mp_h_prime(rep.coefficients, rep.z0),
                                               rel=1e-13, abs=0.0)


class TestTransversality:
    def test_case_a_slope(self, case_a):
        _, coeffs, eq = case_a
        rep = analyze_spectrum(eq, coeffs)
        assert rep.h_prime_z0 == pytest.approx(0.991515, abs=1e-5)
        assert rep.re_lambda_prime > 0

    def test_case_b_always_positive(self, case_b):
        # with r0 = 0 the auxiliary quadratic has a single positive root
        # where h' = sqrt(p0^4 + 4 q0^2) > 0
        _, coeffs, eq = case_b
        c = char_coefficients(eq, coeffs)
        rep = analyze_spectrum(eq, coeffs)
        hp = rep.h_prime_z0
        assert hp == pytest.approx(math.sqrt(c.p0 ** 4 + 4 * c.q0 ** 2), rel=1e-12)
        assert hp > 0

    def test_degenerate_crossing_guard(self):
        # an H3 set: h' vanishes at the double root z0 = -a/2 > 0
        p0, r0 = 0.25, 0.5
        a = p0 * p0 - 2 * r0
        q0 = math.sqrt(r0 * r0 - a * a / 4.0)
        assert classify_h(CharCoefficients(p0=p0, r0=r0, q0=q0)).tag == "H3"
        with pytest.raises(DegenerateCrossing,
                           match=r"is a double root of h \(case H3\): h'\(z0\) = 0$"):
            spectrum_of(p0, r0, q0)

    @pytest.mark.parametrize("raw", [A_19836, CASE_H6], ids=["A-19836", "H6"])
    def test_h6_discriminant_and_slope_match_200_bits(self, raw):
        # h'(z0) = +-sqrt(disc) exactly, so the slope is as good as the discriminant
        _, coeffs, eq = build_set(raw, "A")
        rep = analyze_spectrum(eq, coeffs)
        assert rep.h_case.tag == "H6"
        c = rep.coefficients
        assert rep.h_case.discriminant == pytest.approx(mp_discriminant(c), rel=1e-15, abs=0.0)
        assert rep.h_prime_z0 == pytest.approx(mp_h_prime(c, rep.z0), rel=1e-15, abs=0.0)

    def test_case_a_tau0_is_correctly_rounded(self, case_a):
        _, coeffs, eq = case_a
        rep = analyze_spectrum(eq, coeffs)
        assert rep.tau0 == mp_first_rungs(rep.coefficients)[0] == 0.0348488443874983

    def test_matches_finite_difference_of_root(self, case_a):
        # track the characteristic root crossing the axis and compare the
        # delay-derivative of its real part with the closed form
        _, coeffs, eq = case_a
        rep = analyze_spectrum(eq, coeffs)
        c = rep.coefficients
        dtau = 1e-6

        def root_near(tau, x0):
            x = x0
            for _ in range(60):
                f = x * x + c.p0 * x + c.r0 + c.q0 * np.exp(-x * tau)
                fp = 2 * x + c.p0 - c.q0 * tau * np.exp(-x * tau)
                x = x - f / fp
            return x

        x0 = 1j * rep.omega0
        lo = root_near(rep.tau0 - dtau, x0)
        hi = root_near(rep.tau0 + dtau, x0)
        fd = (hi.real - lo.real) / (2 * dtau)
        assert fd == pytest.approx(rep.re_lambda_prime, rel=1e-4)


class TestVerdicts:
    def test_case_a_regimes(self, case_a_raw, analysis_json):
        p = validate_parameters(case_a_raw)
        v_stable = stability_verdict(p, "A", 0.02)
        assert v_stable.kind == "stable"
        v_crit = stability_verdict(p, "A", v_stable.report.tau0)
        assert v_crit.kind == "hopf_critical"
        v_unstable = stability_verdict(p, "A", 0.05)
        assert v_unstable.kind == "unstable"
        lo, hi = analysis_json(case_a_raw, "--tau", "0.05")["instability_interval"]
        assert lo == pytest.approx(0.0348488, abs=1e-6)
        assert hi == pytest.approx(8.9085, abs=1e-3)

    @pytest.mark.parametrize("p0, r0, q0, tag, kind", [
        (0.7, 0.2, 0.1937, "H1", "stable_all_delays"),
        (1.0, 0.25, 0.0, "H2", "stable_all_delays"),
        (1.0, 0.1, 0.05, "H5", "stable_all_delays"),
        (-1.0, 0.1, 0.05, "H5", "unstable_at_zero"),
    ])
    def test_no_positive_root_is_delay_independent(self, p0, r0, q0, tag, kind):
        rep = spectrum_of(p0, r0, q0)
        assert rep.h_case.tag == tag
        assert rep.omegas == () and rep.first_rungs == ()
        assert rep.tau0 is rep.h_prime_z0 is rep.D is rep.re_lambda_prime is None
        assert {verdict_at(rep, tau) for tau in (0.0, 0.5, 50.0)} == {kind}

    @settings(max_examples=200, deadline=None)
    @given(r0=st.floats(0.1, 4.0), q_frac=st.floats(0.1, 0.95),
           q_sign=st.sampled_from([1, -1]), p_frac=st.floats(0.05, 0.95),
           p_sign=st.sampled_from([1, -1]),
           taus=st.lists(st.floats(0.0, 50.0), min_size=10, max_size=10))
    # unstable at zero, stable on (0.21703, 1.74309) and (5.48985, 5.66742)
    @example(r0=2.0, q_frac=0.3, q_sign=-1, p_frac=0.3, p_sign=-1,
             taus=[0.1, 0.98, 1.0, 3.0, 5.58, 5.6, 7.0, 10.0, 12.0, 20.0])
    def test_verdict_counts_crossings_both_ways(self, r0, q_frac, q_sign, p_frac, p_sign,
                                                taus):
        # H6: 0 < p0^2 < 2 r0 - 2 sqrt(r0^2 - q0^2) and |q0| < r0; stable at zero when
        # p0 > 0, and one root pair in the right half-plane there when p0 < 0 < r0 + q0
        q0 = q_sign * q_frac * r0
        p0 = p_sign * p_frac * math.sqrt(2 * r0 - 2 * math.sqrt(r0 * r0 - q0 * q0))
        rep = spectrum_of(p0, r0, q0)
        assert rep.h_case.tag == "H6" and rep.stable_at_zero == (p0 > 0)
        c = rep.coefficients
        rungs = [t for w in rep.omegas for t in critical_delays(c, w, 30)]
        unstable = "unstable" if rep.stable_at_zero else "unstable_at_zero"
        for tau in taus:
            if min(abs(tau - t) for t in rungs) < 1e-3 * max(1.0, tau):
                continue  # too close to a crossing for the contour count
            want = unstable if rhp_root_count(c.p0, c.r0, c.q0, tau) else "stable"
            assert verdict_at(rep, tau) == want, (tau, rep)

    @pytest.mark.parametrize("p0, r0, q0, tag", [
        (0.0, 1.0, 0.5, "H6"), (0.0, 1.0, -0.5, "H6"),  # a root pair on the axis
        (0.5, 0.5, -1.0, "H4"), (-0.5, 0.5, -1.0, "H4"),  # a real root > 0
        (0.5, 1.0, -1.0, "H6"),  # a root at 0
    ])
    def test_marginal_edges_are_unstable_at_zero(self, p0, r0, q0, tag):
        # p0 = 0 or r0 + q0 <= 0 starts no count: the verdict is unstable_at_zero at every
        # tau, though at p0 = 0 the pair leaves the axis to the left when q0 < 0
        rep = spectrum_of(p0, r0, q0)
        assert rep.h_case.tag == tag and not rep.stable_at_zero and rep.tau0 is not None
        c = rep.coefficients
        taus = [0.0, 0.1, 1.0, 50.0] + [t * (1.0 + s * 1e-6) for w in rep.omegas
                                        for t in critical_delays(c, w, 3) for s in (-1, 0, 1)]
        assert {verdict_at(rep, tau) for tau in taus} == {"unstable_at_zero"}
        if p0 == 0:  # d(Re x)/dtau = q0/2 at tau = 0
            assert rhp_root_count(c.p0, c.r0, c.q0, 0.1) == (2 if q0 > 0 else 0)

    @pytest.mark.parametrize("p0, r0, q0, tag", [(1.0, 0.0, 100.0, "H4"),
                                                 (0.1, 100.0, 90.0, "H6")])
    def test_delay_past_the_float_range_is_unstable(self, p0, r0, q0, tag):
        # (tau - tau0) * omega0 overflows to inf: the rung count is past every switch
        rep = spectrum_of(p0, r0, q0)
        assert rep.h_case.tag == tag and rep.stable_at_zero
        assert (1.7e308 - rep.tau0) * rep.omega0 / (2 * math.pi) == math.inf
        assert verdict_at(rep, 1.7e308) == "unstable"

    def test_critical_band_is_relative_to_tau(self, case_a):
        _, coeffs, eq = case_a
        rep = analyze_spectrum(eq, coeffs)
        for tau, kind in [(rep.tau0, "hopf_critical"), (rep.tau0 * (1 - 1e-8), "stable"),
                          (rep.tau0 * (1 + 1e-8), "unstable")]:
            assert verdict_at(rep, tau) == kind
        # the band has no width at tau = 0, where a rung is still at tau
        rep = rep._replace(first_rungs=(0.0,), tau0=0.0)
        assert verdict_at(rep, 0.0) == "hopf_critical"
        assert verdict_at(rep, 1e-300) == "unstable"

    @pytest.mark.parametrize("tau, kind", [(2.0, "stable"), (5.0, "unstable"),
                                           (10.0, "stable"), (15.0, "stable"),
                                           (25.0, "unstable")])
    def test_stability_switch_of_case_h6(self, tau, kind, analysis_json):
        # rungs 3.6024 and 19.838 of the larger frequency bring a root pair in,
        # 7.2788 and 27.682 of the smaller take it back out
        assert analysis_json(CASE_H6, "--tau", str(tau))["spectral"]["verdict"] == kind

    def test_delay_stabilises_a_set_unstable_at_zero(self, analysis_json, tmp_path, capsys):
        # its one unstable pair leaves at the rung 30.2271 of the smaller frequency and
        # returns at the rung 35.4584 of the larger
        for tau, kind in [(10.0, "unstable_at_zero"), (30.227127099970804, "hopf_critical"),
                          (32.84, "stable"), (35.458379151219965, "hopf_critical"),
                          (40.0, "unstable_at_zero")]:
            doc = analysis_json(CASE_UNSTABLE_AT_ZERO, "--tau", str(tau))
            assert doc["spectral"]["verdict"] == kind, tau
            assert doc["instability_interval"] is None
        config = tmp_path / "set.json"
        config.write_text(json.dumps(CASE_UNSTABLE_AT_ZERO))
        for tau, label in [("32.84", "decaying"), ("40", "sustained")]:
            assert main(["simulate", "--config", str(config), "--tau", tau, "--t-end", "4000",
                         "--init", "0.2236,0.8431", "--step", "0.05",
                         "--out", str(tmp_path / "sim")]) == 0
            assert f"classification: {label}\n" in capsys.readouterr().out, tau

    def test_case_b_stable_at_zero(self, case_b_raw):
        p = validate_parameters(case_b_raw)
        v = stability_verdict(p, "B", 0.0)
        assert v.kind == "stable"
        assert v.report.tau0 == pytest.approx(0.0196383, abs=1e-6)

    def test_negative_tau_rejected(self, case_a_raw):
        p = validate_parameters(case_a_raw)
        with pytest.raises(ValueError):
            stability_verdict(p, "A", -0.1)

    def test_non_finite_tau_and_negative_depth_rejected(self, case_a):
        _, coeffs, eq = case_a
        rep = analyze_spectrum(eq, coeffs)
        c, omega = rep.coefficients, rep.omega0
        for j_max in (-1, 1001):  # the depth must lie in 0..MAX_LADDER_DEPTH
            with pytest.raises(ValueError):
                critical_delays(c, omega, j_max)
        assert len(critical_delays(c, omega, 1000)) == 1001
        for tau in (math.nan, math.inf):
            with pytest.raises(ValueError):
                verdict_at(rep, tau)

    @pytest.mark.parametrize("j_max", [2.5, True, "3", None])
    def test_depth_that_is_not_an_int_rejected(self, j_max, case_a):
        # 2.5 used to fail later in range(), and True built a 2-rung ladder
        _, coeffs, eq = case_a
        rep = analyze_spectrum(eq, coeffs)
        with pytest.raises(InvalidInput):
            critical_delays(rep.coefficients, rep.omega0, j_max)

    def test_interval_is_the_next_ladder_delay(self, case_a, case_b, analysis_json):
        # analysis.json's interval ends at the smallest delay above tau0 on any ladder
        rng = np.random.default_rng(23)
        sets = [(*case_a, "A"), (*case_b, "B")] + [
            (*sample_crossing_set(rng, "AB"[i % 2], require_stable_at_zero=True)[:3],
             "AB"[i % 2]) for i in range(200)]
        for p, coeffs, eq, variant in sets:
            rep = analyze_spectrum(eq, coeffs)
            assert rep.first_rungs == tuple(critical_delays(rep.coefficients, w, 0)[0]
                                            for w in rep.omegas)
            later = [t for w in rep.omegas for t in critical_delays(rep.coefficients, w, 3)
                     if t > rep.tau0]
            want = [rep.tau0, min(later)] if later else None
            assert rep.stable_at_zero
            raw = {name: getattr(p, name) for name in PARAM_FIELDS}
            doc = analysis_json(raw, "--variant", variant, "--jmax", "0")
            assert doc["instability_interval"] == want
        # analysis.json reports the interval, not tau_next
        assert "tau_next" not in doc["spectral"]

    def test_report_to_dict_round_trips(self, analysis_json):
        # the spectral block of analysis.json, with the verdict at --tau last
        doc = analysis_json(CASE_A, "--tau", "0.05")["spectral"]
        assert doc["h_case"] == "H4"
        assert list(doc)[-1] == "verdict" and doc["verdict"] == "unstable"
        assert doc["tau0"] == pytest.approx(0.0348488, abs=1e-6)


class TestAgainstArgumentPrinciple:
    """Root counting through the argument principle, fully independent of
    the delay-ladder machinery."""

    def test_case_a_root_counts(self, case_a):
        _, coeffs, eq = case_a
        c = char_coefficients(eq, coeffs)
        assert rhp_root_count(c.p0, c.r0, c.q0, 0.0) == 0
        assert rhp_root_count(c.p0, c.r0, c.q0, 0.02) == 0
        assert rhp_root_count(c.p0, c.r0, c.q0, 0.05) == 2

    def test_random_onsets_match_tau0(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 8:
            _, coeffs, eq, c, h = sample_crossing_set(
                rng, "A", require_stable_at_zero=True)
            rep = analyze_spectrum(eq, coeffs)
            if rep.tau0 is None or rep.tau0 > 5.0:
                continue
            onset = brute_force_onset(c.p0, c.r0, c.q0, rep.tau0 * 1.5 + 0.1)
            assert onset == pytest.approx(rep.tau0, abs=1e-3)
            checked += 1


# fields in units of 1/time: multiplying them by k measures time in units 1/k as long
RATES = ("mu1", "nu1", "nu2", "n", "gamma1", "gamma2", "a1", "a2", "b1", "delta")


def rescaled(raw, variant, k):
    """Equilibrium, spectrum and Hopf report of RAW with every rate multiplied by K."""
    p = validate_parameters({f: v * k if f in RATES else v for f, v in raw.items()})
    coeffs = subsystem_coefficients(p, variant)
    eq = equilibrium(coeffs, p)
    rep = analyze_spectrum(eq, coeffs)
    return eq, rep, hopf_analysis(eq, coeffs, rep)


class TestTimeUnit:
    """A change of time unit is a symmetry of the model: the results scale with it."""

    @settings(max_examples=200, deadline=None)
    @given(log_k=st.floats(-6.0, 6.0), variant=st.sampled_from("AB"), sampled=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_a_change_of_time_unit_changes_no_result(self, log_k, variant, sampled, seed):
        raw = CASE_A if variant == "A" else CASE_B
        if sampled:
            p = sample_crossing_set(np.random.default_rng(seed), variant)[0]
            raw = {f: getattr(p, f) for f in PARAM_FIELDS}
        k = 10.0 ** log_k
        eq, rep, hopf = rescaled(raw, variant, 1.0)
        eq_k, rep_k, hopf_k = rescaled(raw, variant, k)
        assert eq_k.beta_e == pytest.approx(eq.beta_e, rel=1e-12)
        assert eq_k.lambda_e == pytest.approx(eq.lambda_e, rel=1e-12)
        assert rep_k.h_case.tag == rep.h_case.tag
        assert rep_k.omega0 / k == pytest.approx(rep.omega0, rel=1e-12)
        # p0 = wd*lambda_e - gc*beta_e can cancel, so the new unit rounds it apart
        # (by up to 1.4e-12 on sampled sets), and tau0 and c1(0) with it
        c, c_k = rep.coefficients, rep_k.coefficients
        tol = 1e-12 + max(abs(x_k / k ** n - x) / abs(x)
                          for x_k, x, n in zip(c_k, c, (1, 2, 2)) if x)
        assert k * rep_k.tau0 == pytest.approx(rep.tau0, rel=tol, abs=0.0)
        assert abs(hopf_k.c1_0 - hopf.c1_0) <= tol * abs(hopf.c1_0)
        # Re c1(0) can cancel too: mu2_bar moves by the error of c1(0) over tau0 Re lambda'
        assert abs(k * hopf_k.mu2_bar - hopf.mu2_bar) <= tol * abs(
            hopf.c1_0 / (rep.tau0 * rep.re_lambda_prime))
        assert hopf_k.direction == hopf.direction
        # the same verdict at each first rung and 1e-6 to either side of it
        probes = [0.0] + [rung * (1.0 + s * 1e-6)
                          for rung in rep.first_rungs for s in (-1, 0, 1)]
        for tau in probes:
            assert verdict_at(rep_k, tau / k) == verdict_at(rep, tau), tau
