"""Independent numerical oracles used by the test suite.

Everything here deliberately avoids the code paths under test: root
counting goes through the argument principle, the crossing phase through a
200-bit arccos, projection coefficients through finite differences, linear
solves through high-precision mpmath LU, the quadratic terms through
polarizing the vector field, the first Lyapunov coefficient through the
Hassard W-function reduction and through the amplitude drift of a
simulated run.
"""

import cmath
import functools
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np
from mpmath import mp

from goodwin_delay.errors import GoodwinDelayError
from goodwin_delay.model import equilibrium, subsystem_coefficients, validate_parameters
from goodwin_delay.simulate import HistorySpec, simulate
from goodwin_delay.spectral import char_coefficients, classify_h

CASE_A = dict(mu1=0.0, mu2=1.0, nu1=0.02, nu2=0.04, n=0.01, gamma1=0.01,
              gamma2=0.012, a1=0.9, a2=1.0, a3=0.99, b1=1.9, b2=0.0, b3=0.6,
              c=0.38, s_pi=0.24, s_w=0.04, delta=4.2)

CASE_B = dict(mu1=0.0186145, mu2=0.5, nu1=0.015, nu2=0.03, n=0.01, gamma1=0.0,
              gamma2=0.0, a1=0.9, a2=1.0, a3=1.0, b1=1.9, b2=0.0, b3=0.6,
              c=0.4, s_pi=0.24, s_w=0.04, delta=4.0)

# case A's form with two crossing frequencies (H6), stable at zero, interior
# equilibrium: a rung of the smaller frequency takes a root pair back out of
# the right half-plane, so the equilibrium is stable again on [7.2788, 19.838]
CASE_H6 = dict(mu1=0.0, mu2=1.0, nu1=0.103436, nu2=0.235665, n=0.00225221,
               gamma1=0.0353766, gamma2=0.0361319, a1=2.54629, a2=1.23437,
               a3=0.285496, b1=0.334909, b2=0.0, b3=0.99, c=0.495811,
               s_pi=0.101171, s_w=0.0188542, delta=11.1944)


# ---------------------------------------------------------------- roots

def winding_number(f, pts, max_refine=40):
    """Winding of f along the polyline pts, with adaptive refinement."""
    pts = np.asarray(pts, dtype=complex)
    for _ in range(max_refine):
        vals = f(pts)
        d = np.angle(vals[1:] / vals[:-1])
        bad = np.abs(d) > 0.8
        if not bad.any():
            return round(float(d.sum() / (2.0 * math.pi)))
        where = np.nonzero(bad)[0]
        mids = 0.5 * (pts[where] + pts[where + 1])
        pts = np.insert(pts, where + 1, mids)
    raise RuntimeError("winding number did not converge")


def h_value(c, z):
    """h(z) at z = omega^2, from its definition: a root on the imaginary axis,
    P(i omega) = 0, needs |r0 - omega^2 + i p0 omega| = |q0|, that is h = 0."""
    return abs(complex(c.r0 - z, c.p0 * math.sqrt(z))) ** 2 - c.q0 ** 2


def _mp_h(c):
    """(p0, r0, q0, a, disc) of h at the working precision from the float p0, r0 and q0,
    with a = p0^2 - 2 r0 and disc = a^2 - 4(r0^2 - q0^2) from their definitions."""
    p0, r0, q0 = map(mp.mpf, c)
    a = p0 ** 2 - 2 * r0
    return p0, r0, q0, a, a * a - 4 * (r0 ** 2 - q0 ** 2)


def mp_discriminant(c):
    """h's discriminant at 200 bits from the float p0, r0 and q0."""
    with mp.workprec(200):
        return float(_mp_h(c)[4])


def mp_h_prime(c, z):
    """h'(z) = 2z + a at the 200-bit root of h nearest Z: +-sqrt(disc), + at the larger
    root."""
    with mp.workprec(200):
        _, _, _, a, disc = _mp_h(c)
        root = mp.sqrt(disc)
        return float(min((root, -root), key=lambda hp: abs((hp - a) / 2 - z)))


def mp_first_rungs(c):
    """tau^0 of each crossing frequency, descending, at 200 bits from the float p0, r0
    and q0: omega^2 is re-solved as a root of h, so ((omega^2 - r0)/q0, p0 omega/q0)
    lies on the unit circle, and the phase is its arccos, reflected where the sine
    is negative."""
    with mp.workprec(200):
        p0, r0, q0, a, disc = _mp_h(c)
        root = mp.sqrt(disc)
        rungs = []
        for z in ((-a + root) / 2, (-a - root) / 2):
            if z > 0:
                omega = mp.sqrt(z)
                phase = mp.acos((z - r0) / q0)
                if p0 * omega / q0 < 0:
                    phase = 2 * mp.pi - phase
                rungs.append(float(phase / omega))
        return tuple(rungs)


def rhp_root_count(p0, r0, q0, tau):
    """Number of roots of x^2 + p0 x + r0 + q0 e^(-x tau) with Re x > 0.  The axis
    of the contour of radius R takes 2 R tau points or more: a large tau costs memory."""
    def P(x):
        return x * x + p0 * x + r0 + q0 * np.exp(-x * tau)

    # roots in the closed right half plane satisfy |x^2| <= |p0||x| + |r0| + |q0|
    R = 2.0 * (abs(p0) + math.sqrt(abs(r0) + abs(q0))) + 2.0
    # e^(-x tau) turns by tau per unit of the axis: at most a radian a step, or a
    # turn can alias to a small step that the refinement never splits
    axis = 1j * np.linspace(R, -R, max(801, math.ceil(2.0 * R * tau) + 1))
    arc = R * np.exp(1j * np.linspace(-math.pi / 2, math.pi / 2, 801))
    contour = np.concatenate([axis, arc[1:], axis[:1]])
    return winding_number(P, contour)


def brute_force_onset(p0, r0, q0, tau_max, tol=1e-4):
    """First delay at which a root enters the right half plane.

    Coarse grid scan followed by bisection; fully independent of the
    closed-form delay ladder.  Returns None if no onset below tau_max.
    """
    grid = np.linspace(0.0, tau_max, 61)
    lo = None
    for prev, cur in zip(grid[:-1], grid[1:]):
        if rhp_root_count(p0, r0, q0, cur) > 0:
            lo, hi = prev, cur
            break
    else:
        return None
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if rhp_root_count(p0, r0, q0, mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------- normal-form oracles

def operator_matrices(coeffs, eq):
    """Instantaneous and delayed Jacobian blocks of the linearization."""
    be, le = eq.beta_e, eq.lambda_e
    gc, wd, d0, r1 = (coeffs.growth_coupling, coeffs.wage_damping,
                      coeffs.delta0, coeffs.rho1)
    J0 = np.array([[gc * be, -d0 * be], [gc * le, -wd * le]])
    Jt = np.array([[0.0, 0.0], [r1 * le, 0.0]])
    return J0, Jt


def vector_field(coeffs, beta, lambda_, beta_tau):
    """The subsystem's right-hand side, as the model module states it."""
    return np.array([
        (coeffs.beta0 + coeffs.growth_coupling * beta - coeffs.delta0 * lambda_) * beta,
        (coeffs.lambda0 - coeffs.wage_damping * lambda_ + coeffs.growth_coupling * beta
         + coeffs.rho1 * beta_tau) * lambda_])


def bilinear_form(coeffs, eq, u, v):
    """B(u, v) of the quadratic terms about the equilibrium, by polarizing
    the vector field itself; u and v are (beta(0), lambda(0), beta(-tau))."""
    e = np.array([eq.beta_e, eq.lambda_e, eq.beta_e], dtype=complex)

    def f(w):
        return vector_field(coeffs, *(e + np.asarray(w, dtype=complex)))

    return f(np.add(u, v)) - f(u) - f(v) + f((0, 0, 0))


def phi_values(ep, conj=False):
    """(beta(0), lambda(0), beta(-tau)) of phi = exp(i omega theta) q."""
    q0, q1 = ep.q(0.0), ep.q(-1.0)
    vals = (q0[0], q0[1], q1[0])
    return tuple(np.conj(vals)) if conj else vals


def e1_system(ep, eq, coeffs):
    """2i omega I - J0 - Jtau exp(-2i omega tau) and B(phi, phi), built from
    operator_matrices and bilinear_form."""
    J0, Jt = operator_matrices(coeffs, eq)
    w, tk = ep.omega, ep.tau_k
    M = 2j * w * np.eye(2) - J0 - Jt * cmath.exp(-2j * w * tk)
    phi = phi_values(ep)
    return M.tolist(), bilinear_form(coeffs, eq, phi, phi).tolist()


def e2_system(ep, eq, coeffs):
    """-(J0 + Jtau) and B(phi, conj(phi)), which is real."""
    J0, Jt = operator_matrices(coeffs, eq)
    rhs = bilinear_form(coeffs, eq, phi_values(ep), phi_values(ep, conj=True))
    return (-(J0 + Jt)).tolist(), rhs.real.tolist()


def fd_quadratic_g(ep, coeffs, step=1e-5):
    """g20, g11, g02 by finite-difference Taylor coefficients of the
    projected nonlinearity (W terms enter only at third order)."""
    gc, wd, d0, r1 = (coeffs.growth_coupling, coeffs.wage_damping,
                      coeffs.delta0, coeffs.rho1)
    wt = ep.omega * ep.tau_k
    ca = np.conj(ep.alpha)
    cas = np.conj(ep.alpha_star)
    Bbar = np.conj(ep.B)

    def G(z, zb):
        u10 = z + zb
        u20 = z * ep.alpha + zb * ca
        u1m = z * cmath.exp(-1j * wt) + zb * cmath.exp(1j * wt)
        f1 = gc * u10 ** 2 - d0 * u10 * u20
        f2 = gc * u10 * u20 - wd * u20 ** 2 + r1 * u1m * u20
        return Bbar * ep.tau_k * (cas * f1 + f2)

    h = step
    g20 = (G(h, 0) - 2 * G(0, 0) + G(-h, 0)) / h ** 2
    g02 = (G(0, h) - 2 * G(0, 0) + G(0, -h)) / h ** 2
    g11 = (G(h, h) - G(h, -h) - G(-h, h) + G(-h, -h)) / (4 * h ** 2)
    return g20, g11, g02


def mp_solve(M, rhs):
    """2x2 solve by mpmath LU at 40 significant digits (independent of the
    library's closed-form double-precision solve)."""
    with mp.workdps(40):
        x = mp.lu_solve(mp.matrix(M), mp.matrix(rhs))
        return np.array([complex(x[0]), complex(x[1])])


def bilinear_inner_product(ep, coeffs, eq):
    """<q*, q> recomputed from the bilinear form: point term plus the
    single delayed-matrix correction."""
    tk, w = ep.tau_k, ep.omega
    qs0 = np.conj(ep.q_star(0.0))
    q0 = ep.q(0.0)
    point = qs0 @ q0
    j_tau = np.array([[0.0, 0.0], [coeffs.rho1 * eq.lambda_e, 0.0]])
    corr = tk * cmath.exp(-1j * w * tk) * (qs0 @ (j_tau @ q0))
    return point + corr


# The Hassard, Kazarinoff & Wan (CUP 1981) reduction in rescaled time
# (delay 1): projection coefficients g20, g11, g02, the closed-form
# center-manifold corrections W20 and W11 with their constant vectors E1
# and E2, then g21 and c1(0).  A different derivation from the library's
# characteristic-matrix formula, so the two check each other.

class EigenPair(NamedTuple):
    alpha: complex
    alpha_star: complex
    B: complex
    omega: float
    tau_k: float

    def q(self, theta):
        e = cmath.exp(1j * self.omega * self.tau_k * theta)
        return e, self.alpha * e

    def q_star(self, s):
        e = cmath.exp(1j * self.omega * self.tau_k * s)
        return self.B * self.alpha_star * e, self.B * e


def eigen_pair(eq, coeffs, omega, tau_k):
    """Critical eigenvectors q, q* with <q*, q> = 1."""
    be, le = eq.beta_e, eq.lambda_e
    gc, wd, d0 = coeffs.growth_coupling, coeffs.wage_damping, coeffs.delta0
    alpha = (gc * be - 1j * omega) / (d0 * be)
    alpha_star = (1j * omega - wd * le) / (d0 * be)
    denom = (alpha_star.conjugate() + alpha
             + tau_k * cmath.exp(-1j * omega * tau_k) * coeffs.rho1 * le)
    # B-bar = 1/denom, so B is the conjugate reciprocal
    return EigenPair(alpha=alpha, alpha_star=alpha_star, B=(1.0 / denom).conjugate(),
                     omega=omega, tau_k=tau_k)


def quadratic_g(ep, coeffs):
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


def _cramer(m00, m01, m10, m11, r0, r1):
    det = m00 * m11 - m01 * m10
    return (r0 * m11 - m01 * r1) / det, (m00 * r1 - r0 * m10) / det


def solve_E1(ep, eq, coeffs, paper_entry=False):
    """Constant vector of the exp(2i omega tau_k theta) correction term.

    PAPER_ENTRY writes entry (0,1) as d0*lambda_e, the suspected erratum
    that reproduces the published c1(0); the linearization gives d0*beta_e.
    """
    gc, wd, d0, r1 = (coeffs.growth_coupling, coeffs.wage_damping,
                      coeffs.delta0, coeffs.rho1)
    be, le = eq.beta_e, eq.lambda_e
    a = ep.alpha
    w, tk = ep.omega, ep.tau_k
    em = cmath.exp(-1j * w * tk)
    return _cramer(
        2j * w - gc * be, d0 * (le if paper_entry else be),
        -gc * le - r1 * le * cmath.exp(-2j * w * tk), 2j * w + wd * le,
        2 * gc - 2 * a * d0, 2 * gc * a - 2 * a * a * wd + 2 * r1 * a * em)


def solve_E2(ep, eq, coeffs, paper_entry=False):
    """Constant vector of the zero-frequency correction term (real)."""
    gc, wd, d0, r1 = (coeffs.growth_coupling, coeffs.wage_damping,
                      coeffs.delta0, coeffs.rho1)
    be, le = eq.beta_e, eq.lambda_e
    a = ep.alpha
    epl = cmath.exp(1j * ep.omega * ep.tau_k)
    rhs0 = 2 * gc - a * d0 - a.conjugate() * d0
    rhs1 = 2 * gc * a.real - 2 * wd * abs(a) ** 2 + 2 * r1 * (a * epl).real
    return _cramer(gc * be, -d0 * (le if paper_entry else be), (gc + r1) * le, -wd * le,
                   -rhs0.real, -rhs1)


class WFunctions(NamedTuple):
    """Closed-form second-order center-manifold corrections, as (beta, lambda)
    pairs; q(0) = (1, alpha)."""

    ep: EigenPair
    g20: complex
    g11: complex
    g02: complex
    E1: tuple
    E2: tuple

    def w20(self, theta):
        wt = self.ep.omega * self.ep.tau_k
        a = self.ep.alpha
        cq = 1j * self.g20 / wt
        cqb = 1j * self.g02.conjugate() / (3.0 * wt)
        up, down = cmath.exp(1j * wt * theta), cmath.exp(-1j * wt * theta)
        twice = cmath.exp(2j * wt * theta)
        return (cq * up + cqb * down + self.E1[0] * twice,
                cq * a * up + cqb * a.conjugate() * down + self.E1[1] * twice)

    def w11(self, theta):
        wt = self.ep.omega * self.ep.tau_k
        a = self.ep.alpha
        cq = -1j * self.g11 / wt
        cqb = 1j * self.g11.conjugate() / wt
        up, down = cmath.exp(1j * wt * theta), cmath.exp(-1j * wt * theta)
        return (cq * up + cqb * down + self.E2[0],
                cq * a * up + cqb * a.conjugate() * down + self.E2[1])


def g21(ep, coeffs, W):
    gc, wd, d0, r1 = (coeffs.growth_coupling, coeffs.wage_damping,
                      coeffs.delta0, coeffs.rho1)
    a = ep.alpha
    ca = a.conjugate()
    cas = ep.alpha_star.conjugate()
    wt = ep.omega * ep.tau_k
    em, epl = cmath.exp(-1j * wt), cmath.exp(1j * wt)
    W20_0, W20_m1, W11_0, W11_m1 = W.w20(0.0), W.w20(-1.0), W.w11(0.0), W.w11(-1.0)
    return ep.B.conjugate() * ep.tau_k * (
        2 * a * gc * W11_0[0] + 4 * cas * gc * W11_0[0]
        + ca * gc * W20_0[0] + 2 * cas * gc * W20_0[0]
        + 2 * gc * W11_0[1] + gc * W20_0[1]
        - 2 * a * cas * d0 * W11_0[0] - ca * cas * d0 * W20_0[0]
        - 2 * cas * d0 * W11_0[1] - cas * d0 * W20_0[1]
        - 4 * a * wd * W11_0[1] - 2 * ca * wd * W20_0[1]
        + 2 * a * r1 * W11_m1[0] + ca * r1 * W20_m1[0]
        + 2 * r1 * em * W11_0[1] + r1 * epl * W20_0[1]
    )


def hassard_c1(eq, coeffs, omega, tau_k, paper_entry=False):
    """c1(0) in rescaled time by the Hassard reduction."""
    ep = eigen_pair(eq, coeffs, omega, tau_k)
    g20, g11, g02 = quadratic_g(ep, coeffs)
    W = WFunctions(ep, g20, g11, g02, solve_E1(ep, eq, coeffs, paper_entry),
                   solve_E2(ep, eq, coeffs, paper_entry))
    wt = omega * tau_k
    return ((1j / (2.0 * wt)) * (g11 * g20 - 2.0 * abs(g11) ** 2 - abs(g02) ** 2 / 3.0)
            + g21(ep, coeffs, W) / 2.0)


@functools.lru_cache(maxsize=8)
def drift_oracle(coeffs, eq, report, a0=0.05, t_end=1500.0, t_fit=300.0):
    """Re c1(0) and Im c1(0) measured in the time domain at the crossing.

    Simulates at tau0 from the constant history (beta_e - a0, lambda_e) and
    takes the beta peak-to-peak envelope a over windows of 2 pi / omega0.
    On the center manifold z' = i omega0 z + (c1/tau0) z |z|^2 and a = 4|z|,
    so over t > t_fit 1/a^2 falls at the rate Re c1 / (8 tau0) and the
    frequency is omega0 + Im c1 a^2 / (16 tau0).  Returns the c1(0) that the
    fitted slope and the measured frequency imply.
    """
    tau0, omega0 = report.tau0, report.omega0
    traj = simulate(coeffs, tau0, HistorySpec(beta=eq.beta_e - a0, lambda_=eq.lambda_e),
                    t_end)
    t, amp, _ = np_amplitude_envelope(traj, 2.0 * math.pi / omega0)
    a = amp[t > t_fit]
    slope = np.polyfit(t[t > t_fit], 1.0 / a ** 2, 1)[0]
    period = np_oscillation_period(traj, tail_fraction=1.0 - t_fit / t_end)
    shift = 2.0 * math.pi / period - omega0
    return complex(-8.0 * tau0 * slope, 16.0 * tau0 * shift / float(np.mean(a ** 2)))


# ------------------------------------------------------ zero-delay ODE

def rk4_ode_reference(coeffs, beta, lambda_, h, n):
    """n classic RK4 steps of the undelayed subsystem in Kolmogorov form
    x' = x * (r + A x), with rho1 acting on beta(t) itself."""
    r = np.array([coeffs.beta0, coeffs.lambda0])
    A = np.array([[coeffs.growth_coupling, -coeffs.delta0],
                  [coeffs.growth_coupling + coeffs.rho1, -coeffs.wage_damping]])

    def f(x):
        return x * (r + A @ x)

    x = np.array([beta, lambda_])
    out = [x]
    for _ in range(n):
        k1 = f(x)
        k2 = f(x + 0.5 * h * k1)
        k3 = f(x + 0.5 * h * k2)
        k4 = f(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(x)
    return np.array(out)


# ------------------------------------------- trajectory diagnostics

# The envelope, classification and period diagnostics with exact means: each
# sum is taken in rational arithmetic and rounded once, then divided by the
# item count; peak-to-peak values and crossings are computed in numpy.  The
# library's standard-library classification and period must give the same
# labels and the same period bits; the envelope, which the library does not
# compute, serves the drift oracle.

def exact_mean(x) -> float:
    """The exact sum of the floats X, rounded once, divided by len(X).

    Each float is n / 2**k, so the sum is an integer over the largest 2**k;
    the same value as float(sum(map(Fraction, x))), several times faster."""
    pairs = [v.as_integer_ratio() for v in x]
    shift = max(d for _, d in pairs).bit_length() - 1
    total = sum(n << (shift - d.bit_length() + 1) for n, d in pairs)
    return float(Fraction(total, 1 << shift)) / len(pairs)


def np_amplitude_envelope(traj, window):
    """(window centers, beta peak-to-peak, lambda peak-to-peak) per whole window."""
    steps = int(round(window / traj.step))
    nwin = len(traj.times) // steps
    if steps < 5 or nwin == 0:
        raise ValueError(f"window {window} spans {steps} steps, {nwin} windows")
    cut = nwin * steps
    times, beta, lambda_ = (np.asarray(c)[:cut].reshape(nwin, steps)
                            for c in (traj.times, traj.beta, traj.lambda_))
    centers = np.array([exact_mean(row.tolist()) for row in times])
    return centers, np.ptp(beta, axis=1), np.ptp(lambda_, axis=1)


def np_classify_dynamics(traj):
    """'decaying', 'sustained' or 'growing' from the geometric-mean window drift:
    windows of a tenth of the run, the first fifth skipped, against 2%."""
    _, amp, _ = np_amplitude_envelope(traj, float(traj.times[-1] - traj.times[0]) / 10.0)
    amp = amp[len(amp) // 5:]
    if len(amp) < 2:
        raise ValueError("too few windows after the transient skip")
    mean = exact_mean(np.log((amp[1:] + 1e-300) / (amp[:-1] + 1e-300)).tolist())
    if mean > math.log1p(0.02):
        return "growing"
    if mean < math.log1p(-0.02):
        return "decaying"
    return "sustained"


def np_oscillation_period(traj, tail_fraction=0.5):
    """Mean spacing of alternate mean-crossings of beta in the tail."""
    start = int(len(traj.beta) * (1.0 - tail_fraction))
    t = np.asarray(traj.times)[start:]
    beta = np.asarray(traj.beta)[start:]
    x = beta - exact_mean(beta.tolist())
    idx = np.nonzero(x[:-1] * x[1:] < 0)[0]
    if len(idx) < 3:
        raise ValueError(f"{len(idx)} mean-crossings in the tail")
    crossings = t[idx] + x[idx] / (x[idx] - x[idx + 1]) * (t[idx + 1] - t[idx])
    return exact_mean((crossings[2:] - crossings[:-2]).tolist())


# ---------------------------------------------------------- sampling

def _jitter(rng, base, keys, lo=0.5, hi=1.5):
    raw = dict(base)
    for k in keys:
        raw[k] = base[k] * rng.uniform(lo, hi)
    return raw


def consistent_mu1(raw):
    """mu1 that makes the variant-B wage-share consistency exact."""
    g = raw["c"] - (raw["s_pi"] - raw["s_w"])
    K = (g - raw["s_w"]) * raw["delta"] - raw["mu2"] * raw["nu1"] - raw["n"]
    d0 = g * raw["delta"] + raw["mu2"] * raw["nu2"]
    return (1 - raw["mu2"]) * (raw["nu2"] * K + d0 * raw["nu1"]) / (
        d0 + raw["nu2"] * (1 - raw["mu2"]))


def build_set(raw, variant):
    """(p, coeffs, eq) of the raw fields RAW in VARIANT, or None where they fail
    validation."""
    try:
        p = validate_parameters(raw)
        coeffs = subsystem_coefficients(p, variant)
        return p, coeffs, equilibrium(coeffs, p)
    except GoodwinDelayError:
        return None


def _crossing_set(draw, variant, keep=lambda eq, c: True):
    """Redraw the raw fields DRAW() until they are valid in VARIANT, KEEP(eq, c)
    holds and h has a positive root: (p, coeffs, eq, c, h)."""
    while True:
        built = build_set(draw(), variant)
        if built is None:
            continue
        p, coeffs, eq = built
        c = char_coefficients(eq, coeffs)
        if keep(eq, c):
            h = classify_h(c)
            if h.roots:
                return p, coeffs, eq, c, h


def sample_crossing_set(rng, variant="A", require_stable_at_zero=False):
    """Random valid parameter set whose subsystem has a delay crossing."""
    base = CASE_A if variant == "A" else CASE_B
    jitter_keys = ("nu1", "nu2", "gamma1", "gamma2", "delta", "c", "n",
                   "a1", "a2", "b1", "b3")
    if variant == "B":
        jitter_keys = ("nu1", "nu2", "delta", "c", "n", "a1", "a2", "b1", "b3")

    def draw():
        raw = _jitter(rng, base, jitter_keys, 0.7, 1.3)
        if variant == "B":
            raw["mu2"] = rng.uniform(0.2, 0.9)
            raw["mu1"] = consistent_mu1(raw)  # validation rejects mu1 < 0
        return raw

    def keep(eq, c):
        return (eq.beta_e > 0 and eq.lambda_e > 0
                and (not require_stable_at_zero or (c.p0 > 0 and c.r0 + c.q0 > 0)))

    return _crossing_set(draw, variant, keep)


def sample_edge_set(rng):
    """Random valid case-A set with a crossing and r0/q0 = 1 - eps, just inside the
    H4 edge |r0| = q0 where h's constant r0^2 - q0^2 cancels.  Eight fields are
    scaled by e^U(-3,3), a3 is U(0,1) and eps is 10^U(-10,-3); in variant A,
    r0/q0 = g delta gamma2 / ((nu2 + g delta) rho1) whatever beta_e and lambda_e
    are, so gamma2 fixes it."""
    def draw():
        raw = dict(CASE_A)
        for k in ("nu1", "nu2", "n", "gamma1", "a1", "a2", "b1", "delta"):
            raw[k] = CASE_A[k] * math.exp(rng.uniform(-3.0, 3.0))
        raw["a3"] = rng.uniform(0.0, 1.0)
        gd = (raw["c"] - (raw["s_pi"] - raw["s_w"])) * raw["delta"]
        rho1 = raw["a2"] * (1.0 - raw["b3"]) / (1.0 - raw["a3"] * raw["b3"])
        raw["gamma2"] = rho1 * (raw["nu2"] + gd) / gd * (1.0 - 10.0 ** rng.uniform(-10.0, -3.0))
        return raw

    return _crossing_set(draw, "A")
