"""Characteristic quasi-polynomial analysis.

The linearization at the positive equilibrium has characteristic function

    P(x) = x^2 + p0*x + r0 + q0*exp(-x*tau)

Purely imaginary roots i*omega exist where the auxiliary quadratic
h(z) = z^2 + (p0^2 - 2 r0) z + r0^2 - q0^2 has a positive root z = omega^2,
and the corresponding delays form the ladder tau_k^j.  The smallest such
delay tau0 is the Hopf candidate; the sign of h'(z0) gives the crossing
direction.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .errors import (AcosDomain, DegenerateCrossing, InvalidInput, NonFiniteCoefficient,
                     ResidualCheckFailed)
from .model import (Equilibrium, ModelParameters, SubsystemCoefficients, equilibrium,
                    subsystem_coefficients)

ROUNDING_TOL = 1e-12  # of every zero-to-rounding test: see within_rounding
LADDER_RESIDUAL_TOL = 1e-9  # looser, as omega*tau rounds too: 1.01e-12 at rung 1000
HOPF_CRITICAL_TOL = 1e-9  # a rung within this fraction of tau is at tau
MAX_LADDER_DEPTH = 1000  # deepest rung critical_delays builds; analyze's --jmax cap


class CharCoefficients(NamedTuple):
    p0: float
    r0: float
    q0: float


class HCase(NamedTuple):
    """Positive-root classification of the auxiliary quadratic."""

    tag: str  # H1..H6
    discriminant: float
    roots: tuple[float, ...]  # positive roots, descending
    note: str = ""


class SpectralReport(NamedTuple):
    coefficients: CharCoefficients
    h_case: HCase
    stable_at_zero: bool
    omegas: tuple[float, ...] = ()  # crossing frequencies, descending; none: no crossing
    first_rungs: tuple[float, ...] = ()  # tau_k^0 of each omega_k
    tau0: float | None = None
    omega0: float | None = None
    z0: float | None = None
    h_prime_z0: float | None = None  # these three: the slope at (omega0, tau0)
    D: float | None = None
    re_lambda_prime: float | None = None


class Verdict(NamedTuple):
    kind: str  # stable_all_delays | stable | hopf_critical | unstable | unstable_at_zero
    report: SpectralReport


def char_coefficients(eq: Equilibrium, coeffs: SubsystemCoefficients) -> CharCoefficients:
    be, le = eq.beta_e, eq.lambda_e
    gc, wd = coeffs.growth_coupling, coeffs.wage_damping
    # delta0 - wage_damping recovers g*delta for both variants
    return CharCoefficients(
        p0=wd * le - gc * be,
        r0=(coeffs.delta0 - wd) * gc * be * le,
        q0=coeffs.delta0 * coeffs.rho1 * be * le,
    )


def within_rounding(x: complex, scale: float, tol: float) -> bool:
    """Whether |x| <= TOL * SCALE, the sum of the magnitudes of the terms x is computed
    from (Higham 2002, sec. 3.1): no change of unit moves it. A non-finite SCALE bounds
    nothing, so an overflow is never zero."""
    return abs(x) <= tol * scale < math.inf


def stable_at_zero_delay(c: CharCoefficients) -> bool:
    """Routh-Hurwitz for the tau = 0 quadratic."""
    return c.p0 > 0 and c.r0 + c.q0 > 0


def char_residual(c: CharCoefficients, omega: float, tau: float) -> float:
    """|P(i*omega; tau)|."""
    x = 1j * omega
    return abs(x * x + c.p0 * x + c.r0 + c.q0 * cmath.exp(-x * tau))


def classify_h(c: CharCoefficients) -> HCase:
    """Assign the exhaustive H1..H6 tag and the positive roots of h."""
    p2 = c.p0 * c.p0
    a = p2 - 2 * c.r0  # linear coefficient; h'(z) = 2z + a
    const = (c.r0 - c.q0) * (c.r0 + c.q0)  # r0^2 - q0^2, exact to rounding near |r0| = q0
    # disc = a^2 - 4 const = p2 (p2 - 4 r0) + 4 q0^2: the first cancels as q0/r0 -> 0 (H6),
    # the second as a -> 0 at the edge |r0| = q0; take the smaller first-order rounding bound
    f, q4 = p2 * (p2 - 4 * c.r0), 4 * c.q0 * c.q0
    bound_t, bound_f = 3 * (a * a + 4 * abs(const)), 2 * abs(f) + q4
    disc, scale = (a * a - 4 * const, bound_t) if bound_t < bound_f else (f + q4, bound_f)
    if not (math.isfinite(a) and math.isfinite(const) and math.isfinite(disc)):
        raise NonFiniteCoefficient(f"h(z) of p0={c.p0!r}, r0={c.r0!r}, q0={c.q0!r} is not finite")
    if within_rounding(disc, scale, ROUNDING_TOL):
        tag, roots = ("H3" if a < 0 else "H2"), (-a / 2.0,)  # a double root
    elif disc < 0:
        tag, roots = "H1", ()
    else:
        # H4 (const < 0, so disc > a^2 >= 0 and neither test above holds) has roots
        # of both signs, H6 and H5 two of the sign of -a.  q sums two terms of one
        # sign, and const/q is the other root (Higham 2002, sec. 1.8): no
        # cancellation, and |q| >= |const/q| keeps them descending
        tag = "H4" if const < 0 else "H6" if a < 0 else "H5"
        q = -(a + math.copysign(math.sqrt(disc), a)) / 2.0
        roots = (q, const / q)
    note = ("r0^2 - q0^2 = 0 exactly; z = 0 treated as non-crossing"
            if tag == "H6" and const == 0.0 else "")
    roots = tuple(z for z in roots if z > 0.0)
    return HCase(tag=tag, discriminant=disc, roots=roots, note=note)


def critical_delays(c: CharCoefficients, omega: float, j_max: int = 3) -> tuple[float, ...]:
    """Delay ladder tau^j, j = 0..j_max, at one crossing frequency.

    The phase omega*tau^0 in [0, 2*pi) is the angle of
    (cos, sin) = ((omega^2 - r0)/q0, p0*omega/q0), which P(i*omega; tau) = 0 fixes.
    """
    check_depth(j_max)
    if omega <= 0:
        raise AcosDomain("omega must be positive")
    if c.q0 == 0:
        raise AcosDomain("q0 = 0: no delayed term in the characteristic function")
    base = math.atan2(c.p0 * omega / c.q0, (omega * omega - c.r0) / c.q0) % (2.0 * math.pi)
    ladder = tuple((base + 2.0 * math.pi * j) / omega for j in range(j_max + 1))
    scale = omega * omega + abs(c.p0) * omega + abs(c.r0) + abs(c.q0)
    for tau in ladder:
        res = char_residual(c, omega, tau)
        if not within_rounding(res, scale, LADDER_RESIDUAL_TOL):
            raise ResidualCheckFailed(f"|P(i*{omega}; {tau})| = {res!r} exceeds "
                                      f"{LADDER_RESIDUAL_TOL}*(w^2+|p0|w+|r0|+|q0|) = {scale!r}")
    return ladder


def transversality(c: CharCoefficients, hp: float, omega0: float,
                   tau0: float) -> tuple[float, float]:
    """(D, d(Re x)/dtau) at the crossing (omega0, tau0), where h'(z0) = HP."""
    cos, sin = math.cos(omega0 * tau0), math.sin(omega0 * tau0)
    re = c.p0 * cos - 2 * omega0 * sin - c.q0 * tau0
    im = c.p0 * sin + 2 * omega0 * cos
    D = re * re + im * im
    return D, omega0 * omega0 * hp / D


def analyze_spectrum(eq: Equilibrium, coeffs: SubsystemCoefficients) -> SpectralReport:
    """Full spectral report: coefficients, H-case, first rungs, tau0, slope."""
    c = char_coefficients(eq, coeffs)
    h = classify_h(c)
    stable0 = stable_at_zero_delay(c)
    if not h.roots:  # no crossing at any delay
        return SpectralReport(coefficients=c, h_case=h, stable_at_zero=stable0)
    omegas = tuple(math.sqrt(z) for z in h.roots)  # descending, like the roots
    rungs = tuple(critical_delays(c, w, 0)[0] for w in omegas)  # a rung and omega fix each
    k0 = rungs.index(min(rungs))
    tau0, omega0, z0 = rungs[k0], omegas[k0], h.roots[k0]
    if h.tag == "H3":
        raise DegenerateCrossing(f"z0 = {z0!r} is a double root of h (case H3): h'(z0) = 0")
    # at a root of h, h'(z) = 2z + a = +-sqrt(disc): + at the larger, - at the smaller (H6)
    hp = -math.sqrt(h.discriminant) if k0 else math.sqrt(h.discriminant)
    return SpectralReport(c, h, stable0, omegas, rungs, tau0, omega0, z0, hp,
                          *transversality(c, hp, omega0, tau0))


def check_delay(tau: float) -> None:
    """Raise InvalidInput unless tau is a finite, nonnegative delay."""
    if not (math.isfinite(tau) and tau >= 0):
        raise InvalidInput(f"tau must be finite and nonnegative, got {tau!r}")


def check_depth(j_max: int) -> None:
    """Raise InvalidInput unless j_max is an int (a bool is not) in 0..MAX_LADDER_DEPTH."""
    if type(j_max) is not int or not 0 <= j_max <= MAX_LADDER_DEPTH:
        raise InvalidInput(f"jmax must be in 0..{MAX_LADDER_DEPTH}, got {j_max!r}")


def verdict_at(report: SpectralReport, tau: float) -> str:
    """Stability classification at delay tau, given the tau-independent spectrum."""
    check_delay(tau)  # the library's guard; the CLI also checks before writing
    # no switch, a pair on the axis at tau = 0 (p0 = 0) or a real root >= 0 (r0 + q0 <= 0)
    if report.tau0 is None or (c := report.coefficients).p0 == 0 or c.r0 + c.q0 <= 0:
        return "stable_all_delays" if report.stable_at_zero else "unstable_at_zero"
    unstable = "unstable" if report.stable_at_zero else "unstable_at_zero"
    # pairs in the right half-plane at tau*(1 -+ HOPF_CRITICAL_TOL), 1 at tau = 0 if p0 < 0:
    # each rung at or below brings one in at the larger frequency, out at the smaller (H6)
    below = above = 0 if report.stable_at_zero else 1
    for sign, omega, rung in zip((1, -1), report.omegas, report.first_rungs):
        turns = (tau * (1.0 + HOPF_CRITICAL_TOL) - rung) * omega / (2.0 * math.pi)
        if turns == math.inf:  # beyond the float range, tau is past every switch
            return unstable
        if turns >= 0:  # rungs 0..floor(turns) lie at or below
            above += sign * (math.floor(turns) + 1)
            turns = (tau * (1.0 - HOPF_CRITICAL_TOL) - rung) * omega / (2.0 * math.pi)
            if turns > 0:  # rungs 0..ceil(turns)-1 lie below; a rung at tau = 0 is at tau
                below += sign * math.ceil(turns)
    return ("hopf_critical" if (below > 0) != (above > 0)
            else unstable if below > 0 else "stable")


def stability_verdict(p: ModelParameters, variant: str, tau: float) -> Verdict:
    """Stability classification of the equilibrium at a given delay, with its spectrum."""
    coeffs = subsystem_coefficients(p, variant)
    report = analyze_spectrum(equilibrium(coeffs, p), coeffs)
    return Verdict(verdict_at(report, tau), report)
