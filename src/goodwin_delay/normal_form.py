"""Center-manifold reduction at a delay crossing.

Works in rescaled time (delay normalized to 1, eigenvalue i*omega*tau_k).
Produces the projection coefficients g20, g11, g02, g21, the first
Lyapunov coefficient c1(0), and the direction/stability classification of
the bifurcating periodic orbit.  The machinery is generic over both
subsystem variants; variant-B results are flagged as an extrapolation
since the reduction has only been validated against variant-A references.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .errors import (DegenerateNormalization, NonFiniteCoefficient, ResidualCheckFailed,
                     SingularSystem, ZeroTransversality)
from .model import Equilibrium, SubsystemCoefficients
from .spectral import SpectralReport

LINEAR_RESIDUAL_TOL = 1e-12
DEGENERATE_C1_TOL = 1e-12


class EigenPair(NamedTuple):
    alpha: complex
    alpha_star: complex
    B: complex
    omega: float
    tau_k: float

    def q(self, theta: float) -> tuple[complex, complex]:
        e = cmath.exp(1j * self.omega * self.tau_k * theta)
        return e, self.alpha * e

    def q_star(self, s: float) -> tuple[complex, complex]:
        e = cmath.exp(1j * self.omega * self.tau_k * s)
        return self.B * self.alpha_star * e, self.B * e


class GCoefficients(NamedTuple):
    g20: complex
    g11: complex
    g02: complex
    g21: complex


class WFunctions(NamedTuple):
    """Closed-form second-order center-manifold corrections, as (beta, lambda)
    pairs; q(0) = (1, alpha)."""

    ep: EigenPair
    g20: complex
    g11: complex
    g02: complex
    E1: tuple[complex, complex]
    E2: tuple[float, float]

    def w20(self, theta: float) -> tuple[complex, complex]:
        wt = self.ep.omega * self.ep.tau_k
        a = self.ep.alpha
        cq = 1j * self.g20 / wt
        cqb = 1j * self.g02.conjugate() / (3.0 * wt)
        up, down = cmath.exp(1j * wt * theta), cmath.exp(-1j * wt * theta)
        twice = cmath.exp(2j * wt * theta)
        return (cq * up + cqb * down + self.E1[0] * twice,
                cq * a * up + cqb * a.conjugate() * down + self.E1[1] * twice)

    def w11(self, theta: float) -> tuple[complex, complex]:
        wt = self.ep.omega * self.ep.tau_k
        a = self.ep.alpha
        cq = -1j * self.g11 / wt
        cqb = 1j * self.g11.conjugate() / wt
        up, down = cmath.exp(1j * wt * theta), cmath.exp(-1j * wt * theta)
        return (cq * up + cqb * down + self.E2[0],
                cq * a * up + cqb * a.conjugate() * down + self.E2[1])


class HopfReport(NamedTuple):
    c1_0: complex
    mu2_bar: float
    beta2: float
    direction: str       # supercritical | subcritical | inconclusive
    orbit_stability: str  # stable | unstable | inconclusive
    period_estimate: float  # 2*pi/omega, original time units
    extrapolated: bool = False

    def to_dict(self) -> dict:
        return {
            "c1_re": self.c1_0.real,
            "c1_im": self.c1_0.imag,
            "mu2_bar": self.mu2_bar,
            "beta2": self.beta2,
            "direction": self.direction,
            "orbit_stability": self.orbit_stability,
            "period_estimate": self.period_estimate,
            "extrapolated": self.extrapolated,
        }


def eigen_pair(eq: Equilibrium, coeffs: SubsystemCoefficients,
               omega: float, tau_k: float) -> EigenPair:
    """Critical eigenvectors q, q* with <q*, q> = 1."""
    be, le = eq.beta_e, eq.lambda_e
    gc, wd, d0 = coeffs.growth_coupling, coeffs.wage_damping, coeffs.delta0
    alpha = (gc * be - 1j * omega) / (d0 * be)
    alpha_star = (1j * omega - wd * le) / (d0 * be)
    denom = (alpha_star.conjugate() + alpha
             + tau_k * cmath.exp(-1j * omega * tau_k) * coeffs.rho1 * le)
    if abs(denom) < 1e-12:
        raise DegenerateNormalization(f"normalization denominator {denom!r}")
    # B-bar = 1/denom, so B is the conjugate reciprocal
    return EigenPair(alpha=alpha, alpha_star=alpha_star, B=(1.0 / denom).conjugate(),
                     omega=omega, tau_k=tau_k)


def _quadratic_g(ep: EigenPair, coeffs: SubsystemCoefficients) -> tuple[complex, complex, complex]:
    gc, wd, d0, r1 = (coeffs.growth_coupling, coeffs.wage_damping,
                      coeffs.delta0, coeffs.rho1)
    a = ep.alpha
    ca = a.conjugate()
    cas = ep.alpha_star.conjugate()
    Bbar = ep.B.conjugate()
    tk = ep.tau_k
    em = cmath.exp(-1j * ep.omega * tk)
    epl = cmath.exp(1j * ep.omega * tk)
    g20 = 2 * Bbar * tk * (a * gc + cas * gc - a * cas * d0 - a * a * wd + a * r1 * em)
    g11 = Bbar * tk * (a * gc + ca * gc + 2 * cas * gc - a * cas * d0
                       - ca * cas * d0 - 2 * a * ca * wd + epl * a * r1 + em * ca * r1)
    g02 = 2 * Bbar * tk * (ca * gc + cas * gc - ca * cas * d0 - ca * ca * wd
                           + epl * ca * r1)
    return g20, g11, g02


def _check_solve(m00, m01, m10, m11, r0, r1, what: str) -> tuple:
    """Solve [[m00, m01], [m10, m11]] x = (r0, r1) in closed form, guarded
    by a scaled determinant test and a back-substitution residual test."""
    det = m00 * m11 - m01 * m10
    scale = max(1.0, max(abs(m00), abs(m01), abs(m10), abs(m11)) ** 2)
    if abs(det) < 1e-12 * scale:
        raise SingularSystem(f"{what}: determinant {det!r}")
    x0 = (r0 * m11 - m01 * r1) / det
    x1 = (m00 * r1 - r0 * m10) / det
    res = max(abs(m00 * x0 + m01 * x1 - r0), abs(m10 * x0 + m11 * x1 - r1))
    if res > LINEAR_RESIDUAL_TOL * max(1.0, abs(r0), abs(r1)):
        raise ResidualCheckFailed(f"{what}: residual {res!r}")
    return x0, x1


def solve_E1(ep: EigenPair, eq: Equilibrium,
             coeffs: SubsystemCoefficients) -> tuple[complex, complex]:
    """Constant vector of the e^{2*i*omega*tau_k*theta} correction term."""
    gc, wd, d0, r1 = (coeffs.growth_coupling, coeffs.wage_damping,
                      coeffs.delta0, coeffs.rho1)
    be, le = eq.beta_e, eq.lambda_e
    a = ep.alpha
    w, tk = ep.omega, ep.tau_k
    em = cmath.exp(-1j * w * tk)
    return _check_solve(
        2j * w - gc * be, d0 * le,
        -gc * le - r1 * le * cmath.exp(-2j * w * tk), 2j * w + wd * le,
        2 * gc - 2 * a * d0, 2 * gc * a - 2 * a * a * wd + 2 * r1 * a * em, "E1")


def solve_E2(ep: EigenPair, eq: Equilibrium,
             coeffs: SubsystemCoefficients) -> tuple[float, float]:
    """Constant vector of the zero-frequency correction term (real)."""
    gc, wd, d0, r1 = (coeffs.growth_coupling, coeffs.wage_damping,
                      coeffs.delta0, coeffs.rho1)
    be, le = eq.beta_e, eq.lambda_e
    a = ep.alpha
    epl = cmath.exp(1j * ep.omega * ep.tau_k)
    rhs0 = 2 * gc - a * d0 - a.conjugate() * d0
    rhs1 = 2 * gc * a.real - 2 * wd * abs(a) ** 2 + 2 * r1 * (a * epl).real
    return _check_solve(gc * be, -d0 * le, (gc + r1) * le, -wd * le,
                        -rhs0.real, -rhs1, "E2")


def _g21(ep: EigenPair, coeffs: SubsystemCoefficients, W: WFunctions) -> complex:
    gc, wd, d0, r1 = (coeffs.growth_coupling, coeffs.wage_damping,
                      coeffs.delta0, coeffs.rho1)
    a = ep.alpha
    ca = a.conjugate()
    cas = ep.alpha_star.conjugate()
    Bbar = ep.B.conjugate()
    tk = ep.tau_k
    wt = ep.omega * tk
    em = cmath.exp(-1j * wt)
    epl = cmath.exp(1j * wt)
    # W.w20 and W.w11 at theta = 0 and -1, whose exponentials are 1, em,
    # epl and exp(-2i*wt): the same bits as calling them
    cq, cqb = 1j * W.g20 / wt, 1j * W.g02.conjugate() / (3.0 * wt)
    E1, e2m = W.E1, cmath.exp(-2j * wt)
    W20_0 = (cq + cqb + E1[0], cq * a + cqb * ca + E1[1])
    W20_m1 = (cq * em + cqb * epl + E1[0] * e2m,
              cq * a * em + cqb * ca * epl + E1[1] * e2m)
    cq, cqb = -1j * W.g11 / wt, 1j * W.g11.conjugate() / wt
    E2 = W.E2
    W11_0 = (cq + cqb + E2[0], cq * a + cqb * ca + E2[1])
    W11_m1 = (cq * em + cqb * epl + E2[0], cq * a * em + cqb * ca * epl + E2[1])
    return Bbar * tk * (
        2 * a * gc * W11_0[0] + 4 * cas * gc * W11_0[0]
        + ca * gc * W20_0[0] + 2 * cas * gc * W20_0[0]
        + 2 * gc * W11_0[1] + gc * W20_0[1]
        - 2 * a * cas * d0 * W11_0[0] - ca * cas * d0 * W20_0[0]
        - 2 * cas * d0 * W11_0[1] - cas * d0 * W20_0[1]
        - 4 * a * wd * W11_0[1] - 2 * ca * wd * W20_0[1]
        + 2 * a * r1 * W11_m1[0] + ca * r1 * W20_m1[0]
        + 2 * r1 * em * W11_0[1] + r1 * epl * W20_0[1]
    )


def g_coefficients(ep: EigenPair, eq: Equilibrium,
                   coeffs: SubsystemCoefficients) -> GCoefficients:
    """All four projection coefficients, including the W-dependent g21."""
    g20, g11, g02 = _quadratic_g(ep, coeffs)
    E1 = solve_E1(ep, eq, coeffs)
    E2 = solve_E2(ep, eq, coeffs)
    W = WFunctions(ep=ep, g20=g20, g11=g11, g02=g02, E1=E1, E2=E2)
    return GCoefficients(g20=g20, g11=g11, g02=g02, g21=_g21(ep, coeffs, W))


def lyapunov_quantities(g: GCoefficients, omega: float, tau_k: float,
                        re_lambda_prime: float,
                        extrapolated: bool = False) -> HopfReport:
    """First Lyapunov coefficient and the orbit classification."""
    if re_lambda_prime == 0.0:
        raise ZeroTransversality("Re lambda'(tau_k) = 0")
    wt = omega * tau_k
    c1 = ((1j / (2.0 * wt)) * (g.g11 * g.g20 - 2.0 * abs(g.g11) ** 2
                               - abs(g.g02) ** 2 / 3.0) + g.g21 / 2.0)
    mu2_bar = -c1.real / re_lambda_prime
    beta2 = 2.0 * c1.real
    if not all(map(math.isfinite, (c1.real, c1.imag, mu2_bar, beta2))):
        raise NonFiniteCoefficient(f"c1(0) = {c1!r}, mu2_bar = {mu2_bar!r}")
    if abs(c1) < DEGENERATE_C1_TOL:
        direction = "inconclusive"
        orbit = "inconclusive"
    else:
        direction = "supercritical" if mu2_bar > 0 else "subcritical"
        orbit = "stable" if beta2 < 0 else "unstable"
    return HopfReport(c1_0=c1, mu2_bar=mu2_bar, beta2=beta2, direction=direction,
                      orbit_stability=orbit, period_estimate=2.0 * cmath.pi / omega,
                      extrapolated=extrapolated)


def hopf_analysis(eq: Equilibrium, coeffs: SubsystemCoefficients,
                  report: SpectralReport) -> HopfReport:
    """Run the full reduction at (omega0, tau0) from a spectral report."""
    if report.tau0 is None or report.transversality is None:
        raise ZeroTransversality("spectral report carries no crossing")
    try:
        ep = eigen_pair(eq, coeffs, report.omega0, report.tau0)
        g = g_coefficients(ep, eq, coeffs)
        return lyapunov_quantities(g, report.omega0, report.tau0,
                                   report.transversality.re_lambda_prime,
                                   extrapolated=(coeffs.variant == "B"))
    except (OverflowError, ZeroDivisionError) as exc:
        raise NonFiniteCoefficient(
            f"normal form overflows or divides by zero at tau0 = {report.tau0!r}") from exc
