"""Center-manifold reduction at a delay crossing.

The first Lyapunov coefficient comes from the characteristic matrix of the
linearization at the equilibrium (Kuznetsov, *Elements of Applied
Bifurcation Theory*, 3rd ed., 2004, section 3.5; Bosschaert, Janssens and
Kuznetsov, SIAM J. Appl. Dyn. Syst. 19, 2020):

    Delta(lam) = lam*I - J0 - Jtau*exp(-lam*tau),
    J0 = [[gc*beta_e, -d0*beta_e], [gc*lambda_e, -wd*lambda_e]],
    Jtau = [[0, 0], [rho1*lambda_e, 0]].

q = (1, alpha) spans ker Delta(i*omega), and p solves p Delta(i*omega) = 0
with p Delta'(i*omega) q = 1.  With phi(theta) = exp(i*omega*theta) q and B
the bilinear form of the quadratic terms,

    h20 = Delta(2i*omega)^-1 B(phi, phi),
    c1 = 1/2 p B(conj(phi), exp(2i*omega*theta) h20).

The h11 term drops out: B(phi, conj(phi)) = 0 at every crossing of this
model class (its beta row is 2*gc - 2*d0*Re(alpha) with Re(alpha) = gc/d0,
and its lambda row vanishes by the second row of Delta(i*omega) q = 0).
The vector field is quadratic, so there is no cubic term.  c1(0) is
reported in time rescaled so the delay is 1, that is multiplied by tau0.
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
# Re c1(0) within this fraction of the magnitudes of the terms it is summed from
# is inside the rounding of omega0, tau0, the solve and the dropped h11 term
# (zero only to that accuracy): its sign, and so the direction, is inconclusive.
RE_C1_ROUNDING_TOL = 1e-12
# Stages of the former Hassard reduction, bound to nothing callable: the
# benchmark's tracer (perfbench/tracing.py) still looks them up by name.
eigen_pair = g_coefficients = solve_E1 = solve_E2 = None


class HopfReport(NamedTuple):
    c1_0: complex
    mu2_bar: float
    beta2: float
    direction: str       # supercritical | subcritical | inconclusive
    orbit_stability: str  # stable | unstable | inconclusive
    period_estimate: float  # 2*pi/omega, original time units

    def to_dict(self) -> dict:
        return {
            "c1_re": self.c1_0.real,
            "c1_im": self.c1_0.imag,
            "mu2_bar": self.mu2_bar,
            "beta2": self.beta2,
            "direction": self.direction,
            "orbit_stability": self.orbit_stability,
            "period_estimate": self.period_estimate,
        }


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


def lyapunov_quantities(c1: complex, c1_scale: float, omega: float,
                        re_lambda_prime: float) -> HopfReport:
    """Orbit classification from c1(0), where C1_SCALE is the magnitude of
    the terms Re c1(0) is summed from."""
    if re_lambda_prime == 0.0:
        raise ZeroTransversality("Re lambda'(tau_k) = 0")
    mu2_bar = -c1.real / re_lambda_prime
    beta2 = 2.0 * c1.real
    if not all(map(math.isfinite, (c1.real, c1.imag, mu2_bar, beta2, c1_scale))):
        raise NonFiniteCoefficient(f"c1(0) = {c1!r}, mu2_bar = {mu2_bar!r}")
    if abs(c1.real) <= RE_C1_ROUNDING_TOL * c1_scale:
        direction = "inconclusive"
        orbit = "inconclusive"
    else:
        direction = "supercritical" if mu2_bar > 0 else "subcritical"
        orbit = "stable" if beta2 < 0 else "unstable"
    return HopfReport(c1_0=c1, mu2_bar=mu2_bar, beta2=beta2, direction=direction,
                      orbit_stability=orbit, period_estimate=2.0 * cmath.pi / omega)


def hopf_analysis(eq: Equilibrium, coeffs: SubsystemCoefficients,
                  report: SpectralReport) -> HopfReport:
    """Run the reduction at (omega0, tau0) from a spectral report."""
    if report.tau0 is None or report.transversality is None:
        raise ZeroTransversality("spectral report carries no crossing")
    w, tau = report.omega0, report.tau0
    be, le = eq.beta_e, eq.lambda_e
    gc, wd, d0, r1 = (coeffs.growth_coupling, coeffs.wage_damping,
                      coeffs.delta0, coeffs.rho1)
    try:
        if tau == 0.0:  # time rescaled by tau0 is undefined
            raise ZeroDivisionError("tau0 = 0")
        em = cmath.exp(-1j * w * tau)
        ep, em2 = em.conjugate(), em * em
        a = (gc * be - 1j * w) / (d0 * be)
        ca = a.conjugate()
        # p = (pb, 1) / n solves p Delta(i w) = 0 and p Delta'(i w) q = 1
        pb = -(1j * w + wd * le) / (d0 * be)
        n = pb + a + tau * r1 * le * em
        if abs(n) < 1e-12:
            raise DegenerateNormalization(f"normalization denominator {n!r}")
        h0, h1 = _check_solve(2j * w - gc * be, d0 * be,
                              -(gc + r1 * em2) * le, 2j * w + wd * le,
                              2.0 * (gc - d0 * a), 2.0 * a * (gc - wd * a + r1 * em), "h20")
        # B(conj(phi), exp(2i w theta) h20) from its values at theta = 0, -tau
        t0, t1 = 2.0 * gc * h0, d0 * (h1 + ca * h0)
        t2, t3 = gc * (h1 + ca * h0), 2.0 * wd * ca * h1
        t4, t5 = r1 * ep * h1, r1 * ca * em2 * h0
        k = 0.5 * tau / n
        c1 = k * (pb * (t0 - t1) + t2 - t3 + t4 + t5)
        c1_scale = abs(k) * (abs(pb) * (abs(t0) + abs(t1))
                             + abs(t2) + abs(t3) + abs(t4) + abs(t5))
        return lyapunov_quantities(c1, c1_scale, w,
                                   report.transversality.re_lambda_prime)
    except (OverflowError, ZeroDivisionError) as exc:
        raise NonFiniteCoefficient(
            f"normal form overflows or divides by zero at tau0 = {tau!r}") from exc
