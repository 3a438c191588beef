import cmath

import numpy as np
import pytest

from goodwin_delay import normal_form
from goodwin_delay.errors import (
    DegenerateNormalization,
    NonFiniteCoefficient,
    ResidualCheckFailed,
    SingularSystem,
    ZeroTransversality,
)
from goodwin_delay.normal_form import (
    EigenPair,
    GCoefficients,
    WFunctions,
    _quadratic_g,
    eigen_pair,
    g_coefficients,
    hopf_analysis,
    lyapunov_quantities,
    solve_E1,
    solve_E2,
)
from goodwin_delay.model import equilibrium, subsystem_coefficients, validate_parameters
from goodwin_delay.spectral import analyze_spectrum

from helpers import (
    CASE_A,
    CASE_B,
    bilinear_inner_product,
    fd_quadratic_g,
    mp_solve,
    sample_crossing_set,
)

C1_REF = 0.0013216356828792731 - 0.013656094307539212j
C1_REF_B = 0.0006737422835132387 - 0.007499412084727984j


@pytest.fixture
def case_a_pair(case_a):
    _, coeffs, eq = case_a
    rep = analyze_spectrum(eq, coeffs)
    ep = eigen_pair(eq, coeffs, rep.omega0, rep.tau0)
    return coeffs, eq, rep, ep


def operator_matrices(coeffs, eq):
    """Instantaneous and delayed Jacobian blocks of the linearization."""
    be, le = eq.beta_e, eq.lambda_e
    gc, wd, d0, r1 = (coeffs.growth_coupling, coeffs.wage_damping,
                      coeffs.delta0, coeffs.rho1)
    J0 = np.array([[gc * be, -d0 * be], [gc * le, -wd * le]])
    Jt = np.array([[0.0, 0.0], [r1 * le, 0.0]])
    return J0, Jt


def e1_system(ep, eq, coeffs):
    """Matrix and right-hand side of the E1 system, written out afresh."""
    gc, wd, d0, r1 = (coeffs.growth_coupling, coeffs.wage_damping,
                      coeffs.delta0, coeffs.rho1)
    be, le = eq.beta_e, eq.lambda_e
    w, tk = ep.omega, ep.tau_k
    a = ep.alpha
    em = cmath.exp(-1j * w * tk)
    M = [[2j * w - gc * be, d0 * le],
         [-gc * le - r1 * le * cmath.exp(-2j * w * tk), 2j * w + wd * le]]
    rhs = [2 * gc - 2 * a * d0, 2 * gc * a - 2 * a * a * wd + 2 * r1 * a * em]
    return M, rhs


def e2_system(ep, eq, coeffs):
    """Matrix and (real) right-hand side of the E2 system."""
    gc, wd, d0, r1 = (coeffs.growth_coupling, coeffs.wage_damping,
                      coeffs.delta0, coeffs.rho1)
    be, le = eq.beta_e, eq.lambda_e
    a = ep.alpha
    epl = cmath.exp(1j * ep.omega * ep.tau_k)
    M = [[gc * be, -d0 * le], [(gc + r1) * le, -wd * le]]
    rhs = [-(2 * gc - 2 * (a * d0).real),
           -(2 * gc * a.real - 2 * wd * abs(a) ** 2 + 2 * r1 * (a * epl).real)]
    return M, rhs


class TestEigenPair:
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

    def test_degenerate_normalization_guard(self):
        # at omega = tau_k = 0 the denominator reduces to
        # (gc*beta_e - wd*lambda_e)/(delta0*beta_e); make it vanish exactly
        from goodwin_delay.model import Equilibrium, SubsystemCoefficients

        coeffs = SubsystemCoefficients(variant="A", beta0=0.1, lambda0=-0.1,
                                       delta0=1.0, growth_coupling=0.1,
                                       wage_damping=0.1, rho1=1.0)
        eq = Equilibrium(beta_e=0.5, lambda_e=0.5, interior=True,
                         lambda_star=None)
        with pytest.raises(DegenerateNormalization):
            eigen_pair(eq, coeffs, 0.0, 0.0)


class TestQuadraticG:
    def test_case_a_against_finite_differences(self, case_a_pair):
        coeffs, eq, rep, ep = case_a_pair
        g20, g11, g02 = _quadratic_g(ep, coeffs)
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
            exact = _quadratic_g(ep, coeffs)
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
            g20, g11, g02 = _quadratic_g(ep, coeffs)
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
            for solve, system in ((solve_E1, e1_system), (solve_E2, e2_system)):
                ref = mp_solve(*system(ep, eq, coeffs))
                err = np.max(np.abs(np.array(solve(ep, eq, coeffs)) - ref))
                assert err <= 1e-12 * np.max(np.abs(ref))

    def test_e2_determinant_closed_form(self, case_a_pair):
        coeffs, eq, rep, ep = case_a_pair
        gc, wd, d0, r1 = (coeffs.growth_coupling, coeffs.wage_damping,
                          coeffs.delta0, coeffs.rho1)
        be, le = eq.beta_e, eq.lambda_e
        det = gc * be * (-wd * le) - (-d0 * le) * (gc + r1) * le
        closed = le * (d0 * le * (gc + r1) - gc * wd * be)
        assert det == pytest.approx(closed, rel=1e-12)
        assert abs(det) > 1e-6  # well away from the singular guard


class TestSolveGuards:
    def test_singular_e2_raises(self, case_a_pair):
        # gc = rho1 = 0 zeroes the first column of E2's matrix: det is exactly 0
        coeffs, eq, rep, ep = case_a_pair
        singular = coeffs._replace(growth_coupling=0.0, rho1=0.0)
        with pytest.raises(SingularSystem, match=r"^E2: determinant "):
            solve_E2(ep, eq, singular)

    @pytest.mark.parametrize("solve, prefix", [(solve_E1, "E1"), (solve_E2, "E2")],
                             ids=["E1", "E2"])
    def test_residual_guard(self, solve, prefix, case_a_pair, monkeypatch):
        coeffs, eq, rep, ep = case_a_pair
        monkeypatch.setattr(normal_form, "LINEAR_RESIDUAL_TOL", -1.0)
        with pytest.raises(ResidualCheckFailed, match=rf"^{prefix}: residual "):
            solve(ep, eq, coeffs)


class TestWFunctions:
    def test_w20_satisfies_its_ode(self, case_a_pair):
        # on the interval the corrections obey
        # W20'(theta) = 2 i omega tau_k W20(theta) + g20 q(theta) + conj(g02) conj(q)(theta)
        coeffs, eq, rep, ep = case_a_pair
        g20, g11, g02 = _quadratic_g(ep, coeffs)
        W = WFunctions(ep=ep, g20=g20, g11=g11, g02=g02,
                       E1=solve_E1(ep, eq, coeffs), E2=solve_E2(ep, eq, coeffs))
        wt = ep.omega * ep.tau_k
        h = 1e-6
        for theta in (-0.8, -0.5, -0.2):
            deriv = (np.array(W.w20(theta + h)) - np.array(W.w20(theta - h))) / (2 * h)
            q = np.array(ep.q(theta))
            rhs = 2j * wt * np.array(W.w20(theta)) + g20 * q + np.conj(g02) * np.conj(q)
            assert np.max(np.abs(deriv - rhs)) < 1e-6

    def test_w11_satisfies_its_ode(self, case_a_pair):
        coeffs, eq, rep, ep = case_a_pair
        g20, g11, g02 = _quadratic_g(ep, coeffs)
        W = WFunctions(ep=ep, g20=g20, g11=g11, g02=g02,
                       E1=solve_E1(ep, eq, coeffs), E2=solve_E2(ep, eq, coeffs))
        h = 1e-6
        for theta in (-0.7, -0.3):
            deriv = (np.array(W.w11(theta + h)) - np.array(W.w11(theta - h))) / (2 * h)
            q = np.array(ep.q(theta))
            rhs = g11 * q + np.conj(g11) * np.conj(q)
            assert np.max(np.abs(deriv - rhs)) < 1e-6

    def test_w_functions_are_real_valued_combinations(self, case_a_pair):
        # W(theta) = z^2/2 W20 + z zbar W11 + ... must produce a real state
        # perturbation; check W11 + conj(W11) is real and W20 pairs with
        # conj at conjugate arguments
        coeffs, eq, rep, ep = case_a_pair
        g20, g11, g02 = _quadratic_g(ep, coeffs)
        W = WFunctions(ep=ep, g20=g20, g11=g11, g02=g02,
                       E1=solve_E1(ep, eq, coeffs), E2=solve_E2(ep, eq, coeffs))
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
        assert not hopf.extrapolated

    @pytest.mark.parametrize("case, ref", [("case_a", C1_REF), ("case_b", C1_REF_B)],
                             ids=["A", "B"])
    def test_c1_pinned(self, case, ref, request):
        # full-precision values of the LAPACK-solve implementation
        _, coeffs, eq = request.getfixturevalue(case)
        c1 = hopf_analysis(eq, coeffs, analyze_spectrum(eq, coeffs)).c1_0
        assert abs(c1 - ref) <= 1e-13 * abs(ref)

    def test_case_b_extrapolated_flag(self, case_b):
        _, coeffs, eq = case_b
        rep = analyze_spectrum(eq, coeffs)
        hopf = hopf_analysis(eq, coeffs, rep)
        assert hopf.extrapolated
        assert hopf.direction in ("supercritical", "subcritical")

    def test_degenerate_c1_inconclusive(self):
        g = GCoefficients(g20=0.0, g11=0.0, g02=0.0, g21=0.0)
        rep = lyapunov_quantities(g, omega=1.0, tau_k=1.0, re_lambda_prime=0.5)
        assert rep.direction == "inconclusive"
        assert rep.orbit_stability == "inconclusive"

    def test_zero_transversality_guard(self):
        g = GCoefficients(g20=0.1, g11=0.1, g02=0.1, g21=0.1)
        with pytest.raises(ZeroTransversality):
            lyapunov_quantities(g, omega=1.0, tau_k=1.0, re_lambda_prime=0.0)

    @pytest.mark.parametrize("variant, overrides, message", [
        # alpha is near 8e307, so the E1 matrix's scale squares past the float range
        ("B", {"a2": 8.5e307}, "overflows or divides by zero"),
        # tau0 = 0 exactly: w20 divides by omega0 * tau0
        ("A", {"nu1": 0.0, "n": 0.0, "gamma1": 0.0, "delta": 1e-19},
         "overflows or divides by zero"),
        # alpha_star is infinite: g20, g11, g02, E1, E2 and c1(0) come out NaN
        # without raising
        ("A", {"nu2": 1e-29, "a2": 1e288, "delta": 1e-92}, r"c1\(0\) = \(nan"),
    ], ids=["overflow", "zero_delay", "nan"])
    def test_non_finite_reduction_is_typed(self, variant, overrides, message):
        p = validate_parameters({**(CASE_A if variant == "A" else CASE_B), **overrides})
        coeffs = subsystem_coefficients(p, variant)
        eq = equilibrium(coeffs, p)
        with pytest.raises(NonFiniteCoefficient, match=message):
            hopf_analysis(eq, coeffs, analyze_spectrum(eq, coeffs))

    def test_to_dict(self, case_a):
        _, coeffs, eq = case_a
        rep = analyze_spectrum(eq, coeffs)
        doc = hopf_analysis(eq, coeffs, rep).to_dict()
        assert doc["direction"] == "subcritical"
        assert doc["c1_re"] == pytest.approx(C1_REF.real, abs=1e-4)
