import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goodwin_delay import normal_form
from goodwin_delay.errors import (
    DegenerateNormalization,
    NonFiniteCoefficient,
    ResidualCheckFailed,
    SingularSystem,
    ZeroTransversality,
)
from goodwin_delay.model import (Equilibrium, SubsystemCoefficients, equilibrium,
                                 subsystem_coefficients, validate_parameters)
from goodwin_delay.normal_form import hopf_analysis, lyapunov_quantities
from goodwin_delay.spectral import analyze_spectrum

from helpers import (
    CASE_A,
    CASE_B,
    EigenPair,
    WFunctions,
    bilinear_form,
    bilinear_inner_product,
    drift_oracle,
    e1_system,
    e2_system,
    eigen_pair,
    fd_quadratic_g,
    hassard_c1,
    mp_solve,
    operator_matrices,
    phi_values,
    quadratic_g,
    sample_crossing_set,
    solve_E1,
    solve_E2,
)

# full-precision values of the characteristic-matrix reduction
C1_REF = 1.2801195366567369e-05 - 0.012877429395038812j
C1_REF_B = 1.1177770405873871e-06 - 0.007102836932249089j

# Case A's fields jittered and rounded to 4 digits.  Along a2, Re c1(0)
# changes sign near 0.6533 while the crossing (omega0*tau0 near 0.2036) moves
# continuously: a generalized-Hopf (Bautin) point.  Case A itself has none
# along a2: its only sign change there, near a2 = 0.366, is where tau0
# reaches 0 and the first crossing moves to another branch of the ladder.
BAUTIN_BASE = dict(mu1=0.0, mu2=0.8275, nu1=0.02362, nu2=0.04694, n=0.01193,
                   gamma1=0.01057, gamma2=0.01078, a1=0.7444, a2=0.9238,
                   a3=0.7463, b1=1.644, b2=0.0, b3=0.4616, c=0.3006, s_pi=0.1852,
                   s_w=0.03734, delta=5.275)


@pytest.fixture
def case_a_pair(case_a):
    _, coeffs, eq = case_a
    rep = analyze_spectrum(eq, coeffs)
    ep = eigen_pair(eq, coeffs, rep.omega0, rep.tau0)
    return coeffs, eq, rep, ep


def bautin_row(a2):
    p = validate_parameters({**BAUTIN_BASE, "a2": a2})
    coeffs = subsystem_coefficients(p, "A")
    eq = equilibrium(coeffs, p)
    rep = analyze_spectrum(eq, coeffs)
    return coeffs, eq, rep, hopf_analysis(eq, coeffs, rep)


class TestEigenPair:
    """The Hassard oracle's eigenvectors."""

    def test_right_eigenvector_residual(self, case_a_pair):
        coeffs, eq, rep, ep = case_a_pair
        J0, Jt = operator_matrices(coeffs, eq)
        tk = ep.tau_k
        q0, q1 = np.array(ep.q(0.0)), np.array(ep.q(-1.0))
        lhs = tk * (J0 @ q0 + Jt @ q1)
        rhs = 1j * ep.omega * tk * q0
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_adjoint_eigenvector_residual(self, case_a_pair):
        coeffs, eq, rep, ep = case_a_pair
        J0, Jt = operator_matrices(coeffs, eq)
        tk, w = ep.tau_k, ep.omega
        qs0 = np.array(ep.q_star(0.0))
        qs1 = np.array(ep.q_star(1.0))
        lhs = tk * (J0.T @ qs0 + Jt.T @ qs1)
        rhs = -1j * w * tk * qs0
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_normalization(self, case_a_pair):
        coeffs, eq, rep, ep = case_a_pair
        ip = bilinear_inner_product(ep, coeffs, eq)
        assert ip == pytest.approx(1.0, abs=1e-12)

    def test_alpha_closed_forms(self, case_a_pair):
        coeffs, eq, rep, ep = case_a_pair
        be = eq.beta_e
        d0 = coeffs.delta0
        assert ep.alpha == pytest.approx(
            (coeffs.growth_coupling * be - 1j * rep.omega0) / (d0 * be), abs=1e-14)
        assert ep.alpha_star == pytest.approx(
            (1j * rep.omega0 - coeffs.wage_damping * eq.lambda_e) / (d0 * be),
            abs=1e-14)

    def test_normalization_on_samples(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            _, coeffs, eq, c, h = sample_crossing_set(rng, "A")
            rep = analyze_spectrum(eq, coeffs)
            ep = eigen_pair(eq, coeffs, rep.omega0, rep.tau0)
            assert bilinear_inner_product(ep, coeffs, eq) == pytest.approx(
                1.0, abs=1e-10)

    def test_degenerate_normalization_guard(self, case_a):
        # p Delta'(i w) q = (gc*beta_e - wd*lambda_e - 2i*w)/(delta0*beta_e)
        # + tau*rho1*lambda_e*exp(-i*w*tau); at w*tau = 3*pi/2 these choices
        # cancel it to rounding
        _, _, eq_a = case_a
        coeffs = SubsystemCoefficients(variant="A", beta0=0.1, lambda0=-0.1,
                                       delta0=1.0, growth_coupling=0.1,
                                       wage_damping=0.1, rho1=12.0 * math.pi)
        eq = Equilibrium(beta_e=0.5, lambda_e=0.5, interior=True, lambda_star=None)
        rep = analyze_spectrum(eq_a, coeffs)._replace(omega0=1.5 * math.pi, tau0=1.0)
        with pytest.raises(DegenerateNormalization):
            hopf_analysis(eq, coeffs, rep)


class TestQuadraticG:
    """The Hassard oracle's projection coefficients."""

    def test_case_a_against_finite_differences(self, case_a_pair):
        coeffs, eq, rep, ep = case_a_pair
        g20, g11, g02 = quadratic_g(ep, coeffs)
        f20, f11, f02 = fd_quadratic_g(ep, coeffs)
        # g11 vanishes to machine precision here, so measure each
        # coefficient against the scale of the whole triple
        scale = max(abs(g20), abs(g11), abs(g02))
        assert abs(g20 - f20) < 1e-4 * scale
        assert abs(g11 - f11) < 1e-4 * scale
        assert abs(g02 - f02) < 1e-4 * scale

    def test_random_pairs_against_finite_differences(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            _, coeffs, eq, c, h = sample_crossing_set(rng, "A")
            rep = analyze_spectrum(eq, coeffs)
            ep = eigen_pair(eq, coeffs, rep.omega0, rep.tau0)
            exact = quadratic_g(ep, coeffs)
            approx = fd_quadratic_g(ep, coeffs)
            for e, a in zip(exact, approx):
                assert abs(e - a) <= 1e-4 * max(1.0, abs(e))

    def test_conjugation_property(self):
        # g02 is g20 with alpha -> conj(alpha) and e^{-i w tau} -> e^{+i w tau}
        rng = np.random.default_rng(9)
        for _ in range(100):
            vals = rng.uniform(-1, 1, size=6)
            ep = EigenPair(alpha=complex(vals[0], vals[1]),
                           alpha_star=complex(vals[2], vals[3]),
                           B=complex(vals[4], vals[5]),
                           omega=rng.uniform(0.1, 2.0),
                           tau_k=rng.uniform(0.01, 2.0))

            class FakeCoeffs:
                growth_coupling = rng.uniform(0.0, 0.5)
                wage_damping = rng.uniform(0.01, 0.5)
                delta0 = rng.uniform(0.1, 1.0)
                rho1 = rng.uniform(0.1, 1.5)

            coeffs = FakeCoeffs()
            g20, g11, g02 = quadratic_g(ep, coeffs)
            ca = np.conj(ep.alpha)
            cas = np.conj(ep.alpha_star)
            Bbar = np.conj(ep.B)
            epl = cmath.exp(1j * ep.omega * ep.tau_k)
            gc, wd, d0, r1 = (coeffs.growth_coupling, coeffs.wage_damping,
                              coeffs.delta0, coeffs.rho1)
            expected = 2 * Bbar * ep.tau_k * (
                ca * gc + cas * gc - ca * cas * d0 - ca * ca * wd + epl * ca * r1)
            assert g02 == pytest.approx(expected, rel=1e-12)


class TestCorrectionSolves:
    """The Hassard oracle's hand-written E1/E2 systems against the ones
    built from operator_matrices and the polarized vector field."""

    def test_e1_residual_and_cramer(self, case_a_pair):
        coeffs, eq, rep, ep = case_a_pair
        E1 = solve_E1(ep, eq, coeffs)
        M, rhs = e1_system(ep, eq, coeffs)
        res = np.array([M[0][0] * E1[0] + M[0][1] * E1[1] - rhs[0],
                        M[1][0] * E1[0] + M[1][1] * E1[1] - rhs[1]])
        assert np.max(np.abs(res)) < 1e-12
        assert np.max(np.abs(np.array(E1) - mp_solve(M, rhs))) < 1e-12

    def test_e2_residual_and_cramer(self, case_a_pair):
        coeffs, eq, rep, ep = case_a_pair
        E2 = solve_E2(ep, eq, coeffs)
        assert all(type(x) is float for x in E2)  # solved as a real system
        M, rhs = e2_system(ep, eq, coeffs)
        res = np.array([M[0][0] * E2[0] + M[0][1] * E2[1] - rhs[0],
                        M[1][0] * E2[0] + M[1][1] * E2[1] - rhs[1]])
        assert np.max(np.abs(res)) < 1e-12
        assert np.max(np.abs(np.array(E2) - mp_solve(M, rhs).real)) < 1e-12

    @pytest.mark.parametrize("variant", ["A", "B"])
    def test_solves_match_high_precision_on_samples(self, variant):
        rng = np.random.default_rng(11)
        for _ in range(100):
            _, coeffs, eq, c, h = sample_crossing_set(rng, variant)
            rep = analyze_spectrum(eq, coeffs)
            ep = eigen_pair(eq, coeffs, rep.omega0, rep.tau0)
            # E2 solves B(phi, conj(phi)) = 0: compare it on E1's scale
            M, rhs = e1_system(ep, eq, coeffs)
            scale = np.max(np.abs(mp_solve(M, rhs)))
            for solve, system in ((solve_E1, e1_system), (solve_E2, e2_system)):
                ref = mp_solve(*system(ep, eq, coeffs))
                err = np.max(np.abs(np.array(solve(ep, eq, coeffs)) - ref))
                assert err <= 1e-12 * scale

    def test_e2_determinant_closed_form(self, case_a_pair):
        coeffs, eq, rep, ep = case_a_pair
        gc, wd, d0, r1 = (coeffs.growth_coupling, coeffs.wage_damping,
                          coeffs.delta0, coeffs.rho1)
        be, le = eq.beta_e, eq.lambda_e
        M, _ = e2_system(ep, eq, coeffs)
        det = M[0][0] * M[1][1] - M[0][1] * M[1][0]
        closed = be * le * (d0 * (gc + r1) - gc * wd)
        assert det == pytest.approx(closed, rel=1e-12)
        assert abs(det) > 1e-6  # well away from the singular guard

    @pytest.mark.parametrize("variant", ["A", "B"])
    def test_h11_source_vanishes_on_samples(self, variant):
        # B(phi, conj(phi)) = 0 at every crossing, so the library drops h11
        rng = np.random.default_rng(13)
        for _ in range(100):
            _, coeffs, eq, c, h = sample_crossing_set(rng, variant)
            rep = analyze_spectrum(eq, coeffs)
            ep = eigen_pair(eq, coeffs, rep.omega0, rep.tau0)
            phi, phib = phi_values(ep), phi_values(ep, conj=True)
            b11 = bilinear_form(coeffs, eq, phi, phib)
            b20 = bilinear_form(coeffs, eq, phi, phi)
            assert np.max(np.abs(b11)) <= 1e-12 * np.max(np.abs(b20))


class TestSolveGuards:
    def test_singular_solve_raises(self, case_a_pair, monkeypatch):
        # a singular Delta(2i omega) needs 2i*omega0 to be a root as well, which
        # no sampled crossing gives: zero the matrix the guard receives
        coeffs, eq, rep, ep = case_a_pair
        real_solve = normal_form._check_solve
        monkeypatch.setattr(
            normal_form, "_check_solve",
            lambda m00, m01, m10, m11, r0, r1, what: real_solve(0, 0, 0, 0, r0, r1, what))
        with pytest.raises(SingularSystem, match=r"^h20: determinant "):
            hopf_analysis(eq, coeffs, rep)

    def test_residual_guard(self, case_a_pair, monkeypatch):
        coeffs, eq, rep, ep = case_a_pair
        monkeypatch.setattr(normal_form, "ROUNDING_TOL", -1.0)
        with pytest.raises(ResidualCheckFailed,
                           match=r"^h20: residual .* exceeds -1.0\*\(\|m x\| \+ \|r\|\) = "):
            hopf_analysis(eq, coeffs, rep)


class TestWFunctions:
    """The Hassard oracle's center-manifold corrections."""

    @pytest.fixture
    def w_functions(self, case_a_pair):
        coeffs, eq, rep, ep = case_a_pair
        g20, g11, g02 = quadratic_g(ep, coeffs)
        return ep, WFunctions(ep=ep, g20=g20, g11=g11, g02=g02,
                              E1=solve_E1(ep, eq, coeffs), E2=solve_E2(ep, eq, coeffs))

    def test_w20_satisfies_its_ode(self, w_functions):
        # on the interval the corrections obey
        # W20'(theta) = 2 i omega tau_k W20(theta) + g20 q(theta) + conj(g02) conj(q)(theta)
        ep, W = w_functions
        wt = ep.omega * ep.tau_k
        h = 1e-6
        for theta in (-0.8, -0.5, -0.2):
            deriv = (np.array(W.w20(theta + h)) - np.array(W.w20(theta - h))) / (2 * h)
            q = np.array(ep.q(theta))
            rhs = 2j * wt * np.array(W.w20(theta)) + W.g20 * q + np.conj(W.g02) * np.conj(q)
            assert np.max(np.abs(deriv - rhs)) < 1e-6

    def test_w11_satisfies_its_ode(self, w_functions):
        ep, W = w_functions
        h = 1e-6
        for theta in (-0.7, -0.3):
            deriv = (np.array(W.w11(theta + h)) - np.array(W.w11(theta - h))) / (2 * h)
            q = np.array(ep.q(theta))
            rhs = W.g11 * q + np.conj(W.g11) * np.conj(q)
            assert np.max(np.abs(deriv - rhs)) < 1e-6

    def test_w_functions_are_real_valued_combinations(self, w_functions):
        # W(theta) = z^2/2 W20 + z zbar W11 + ... must produce a real state
        # perturbation; check W11 + conj(W11) is real
        ep, W = w_functions
        w11 = W.w11(-0.4)
        assert np.max(np.abs((w11 + np.conj(w11)).imag)) < 1e-12


class TestLyapunov:
    def test_case_a_c1(self, case_a):
        _, coeffs, eq = case_a
        rep = analyze_spectrum(eq, coeffs)
        hopf = hopf_analysis(eq, coeffs, rep)
        assert hopf.c1_0.real == pytest.approx(C1_REF.real, abs=1e-4)
        assert hopf.c1_0.imag == pytest.approx(C1_REF.imag, abs=1e-4)
        assert hopf.direction == "subcritical"
        assert hopf.orbit_stability == "unstable"
        assert hopf.mu2_bar < 0
        assert hopf.beta2 == 2.0 * hopf.c1_0.real
        assert hopf.period_estimate == pytest.approx(8.874, abs=1e-3)

    @pytest.mark.parametrize("case, ref", [("case_a", C1_REF), ("case_b", C1_REF_B)],
                             ids=["A", "B"])
    def test_c1_pinned(self, case, ref, request):
        _, coeffs, eq = request.getfixturevalue(case)
        c1 = hopf_analysis(eq, coeffs, analyze_spectrum(eq, coeffs)).c1_0
        assert abs(c1 - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("case", ["case_a", "case_b"], ids=["A", "B"])
    def test_c1_matches_hassard_oracle(self, case, request):
        _, coeffs, eq = request.getfixturevalue(case)
        rep = analyze_spectrum(eq, coeffs)
        c1 = hopf_analysis(eq, coeffs, rep).c1_0
        ref = hassard_c1(eq, coeffs, rep.omega0, rep.tau0)
        assert abs(c1 - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("variant", ["A", "B"])
    def test_c1_matches_hassard_oracle_on_samples(self, variant):
        rng = np.random.default_rng(21)
        for _ in range(200):
            _, coeffs, eq, c, h = sample_crossing_set(rng, variant)
            rep = analyze_spectrum(eq, coeffs)
            c1 = hopf_analysis(eq, coeffs, rep).c1_0
            ref = hassard_c1(eq, coeffs, rep.omega0, rep.tau0)
            assert abs(c1 - ref) <= 1e-11 * abs(ref)

    @pytest.mark.parametrize("case", ["case_a", "case_b"], ids=["A", "B"])
    def test_c1_matches_drift_oracle(self, case, request):
        _, coeffs, eq = request.getfixturevalue(case)
        rep = analyze_spectrum(eq, coeffs)
        c1 = hopf_analysis(eq, coeffs, rep).c1_0
        measured = drift_oracle(coeffs, eq, rep)
        assert measured.real / c1.real == pytest.approx(1.0, abs=0.01)
        assert measured.imag / c1.imag == pytest.approx(1.0, abs=0.01)

    def test_c1_vanishes_at_the_undelayed_edge(self):
        # At tau = 0 the subsystem is planar Lotka-Volterra, which has no
        # isolated periodic orbit (Coppel, J. Differential Equations 2, 1966),
        # so the Hopf degenerates as p0 -> 0+ and tau0 -> 0.  Walked along three
        # of case A's fields, c1 in original time, Re c1(0)/tau0, falls in
        # proportion to tau0: Re c1(0)/tau0^2 settles, from above along nu2
        # (measured 6.97e-3, 5.99e-3, 5.93e-3), from below along gamma2
        # (1.387e-2, 1.601e-2, 1.614e-2; p0 = 0 near gamma2 = 0.032838) and
        # from above along c (6.414e-3, 5.950e-3, 5.917e-3; p0 = 0 near
        # c = 0.267369).  c and s_pi reach p0 only through g = c - (s_pi - s_w),
        # so the walk along c covers s_pi too.
        for field, values, trend in (("nu2", (0.02, 0.015, 0.0147), -1),
                                     ("gamma2", (0.024, 0.0322, 0.0327), 1),
                                     ("c", (0.272, 0.2677, 0.26742), -1)):
            taus, c1s = [], []
            for value in values:
                p = validate_parameters({**CASE_A, field: value})
                coeffs = subsystem_coefficients(p, "A")
                eq = equilibrium(coeffs, p)
                rep = analyze_spectrum(eq, coeffs)
                assert 0 < rep.coefficients.p0 and rep.stable_at_zero
                taus.append(rep.tau0)
                c1s.append(hopf_analysis(eq, coeffs, rep).c1_0.real / rep.tau0)
            assert taus[0] > 10 * taus[1] > 40 * taus[2] > 0
            assert c1s[0] > 10 * c1s[1] > 40 * c1s[2] > 0
            q = [c / t for c, t in zip(c1s, taus)]
            assert trend * q[0] < trend * q[1] < trend * q[2] and min(q) > 0
            assert abs(q[1] / q[0] - 1) < 0.2 and abs(q[2] / q[1] - 1) < 0.02

    def test_case_b_extrapolated_flag(self, case_b, analysis_json):
        # variant B is checked against both oracles like A, so its report
        # carries no extrapolation flag
        _, coeffs, eq = case_b
        rep = analyze_spectrum(eq, coeffs)
        hopf = hopf_analysis(eq, coeffs, rep)
        assert "extrapolated" not in hopf._fields
        assert "extrapolated" not in analysis_json(CASE_B, "--variant", "B")["hopf"]
        assert hopf.direction == "subcritical"

    def test_degenerate_c1_inconclusive(self):
        for c1, scale in ((0j, 0.0), (1e-13 - 1.0j, 1.0)):
            rep = lyapunov_quantities(c1, scale, omega=1.0, tau0=1.0, re_lambda_prime=0.5)
            assert rep.direction == "inconclusive"
            assert rep.orbit_stability == "inconclusive"
        # only Re c1(0) sets the direction, however large Im c1(0) is
        rep = lyapunov_quantities(1e-11 - 1.0j, 1.0, omega=1.0, tau0=1.0, re_lambda_prime=0.5)
        assert rep.direction == "subcritical"
        assert rep.orbit_stability == "unstable"

    def test_zero_transversality_guard(self):
        with pytest.raises(ZeroTransversality):
            lyapunov_quantities(0.1 + 0.1j, 1.0, omega=1.0, tau0=1.0, re_lambda_prime=0.0)
        # an H1 spectrum has no crossing to reduce at: (p0, r0, q0) = (0.7, 0.2, 0.1937)
        # from subsystem coefficients at beta_e = lambda_e = 1
        coeffs = SubsystemCoefficients(variant="A", beta0=0.0, lambda0=0.0, delta0=1.9,
                                       growth_coupling=1.0, wage_damping=1.7,
                                       rho1=0.1937 / 1.9)
        eq = Equilibrium(beta_e=1.0, lambda_e=1.0, interior=False)
        report = analyze_spectrum(eq, coeffs)
        assert report.h_case.tag == "H1"
        with pytest.raises(ZeroTransversality, match="^spectral report carries no crossing$"):
            hopf_analysis(eq, coeffs, report)

    @pytest.mark.parametrize("variant, overrides, message", [
        # rho1 is near 8e307, so the h20 matrix's scale squares past the float range
        ("B", {"a2": 8.5e307}, "overflows or divides by zero"),
        # p0 = nu2*lambda_e - gamma2*beta_e rounds to 0, so the crossing phase is 0
        # and tau0 = 0 exactly: c1(0) is reported in time rescaled by tau0
        ("A", {"gamma2": 0.0, "nu2": 5e-324, "nu1": 0.3},
         "overflows or divides by zero"),
        # alpha is infinite: h20 and c1(0) come out NaN without raising
        ("A", {"nu2": 1e-29, "a2": 1e288, "delta": 1e-92}, r"c1\(0\) = \(nan"),
    ], ids=["overflow", "zero_delay", "nan"])
    def test_non_finite_reduction_is_typed(self, variant, overrides, message):
        p = validate_parameters({**(CASE_A if variant == "A" else CASE_B), **overrides})
        coeffs = subsystem_coefficients(p, variant)
        eq = equilibrium(coeffs, p)
        with pytest.raises(NonFiniteCoefficient, match=message):
            hopf_analysis(eq, coeffs, analyze_spectrum(eq, coeffs))

    def test_to_dict(self, analysis_json):
        # the hopf block of analysis.json: c1(0) to the bit, keys in order
        doc = analysis_json(CASE_A)["hopf"]
        assert doc["direction"] == "subcritical"
        assert doc["c1_re"] == pytest.approx(C1_REF.real, abs=1e-4)
        assert doc["c1_re"] == C1_REF.real and doc["c1_im"] == C1_REF.imag
        assert list(doc) == ["c1_re", "c1_im", "mu2_bar", "beta2", "direction",
                             "orbit_stability", "period_estimate"]


class TestBautinPoint:
    @pytest.mark.parametrize("a2, direction", [(0.5, "subcritical"),
                                               (0.8, "supercritical")])
    def test_drift_oracle_confirms_each_side(self, a2, direction):
        coeffs, eq, rep, hopf = bautin_row(a2)
        assert hopf.direction == direction
        measured = drift_oracle(coeffs, eq, rep, a0=0.005)
        assert measured.real / hopf.c1_0.real == pytest.approx(1.0, abs=0.01)

    @settings(max_examples=25, deadline=None)
    @given(lo=st.floats(0.5, 0.64), hi=st.floats(0.66, 0.8))
    def test_sign_change_reads_inconclusive(self, lo, hi):
        assert bautin_row(lo)[3].c1_0.real > 0 > bautin_row(hi)[3].c1_0.real
        while True:
            mid = 0.5 * (lo + hi)
            coeffs, eq, rep, hopf = bautin_row(mid)
            if hopf.direction == "inconclusive" or mid in (lo, hi):
                break
            if hopf.c1_0.real > 0:
                lo = mid
            else:
                hi = mid
        # at the bracket the verdict is inconclusive, or the time domain shows it
        if hopf.direction != "inconclusive":
            measured = drift_oracle(coeffs, eq, rep, a0=0.005)
            assert (measured.real > 0) == (hopf.c1_0.real > 0)
        assert mid == pytest.approx(0.65332677, abs=1e-8)
