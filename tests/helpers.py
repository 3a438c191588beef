"""Independent numerical oracles used by the test suite.

Everything here deliberately avoids the code paths under test: root
counting goes through the argument principle, projection coefficients
through finite differences, and linear solves through high-precision
mpmath LU.
"""

import cmath
import math

import numpy as np
from mpmath import mp

from goodwin_delay.model import equilibrium, subsystem_coefficients, validate_parameters
from goodwin_delay.spectral import char_coefficients, classify_h

CASE_A = dict(mu1=0.0, mu2=1.0, nu1=0.02, nu2=0.04, n=0.01, gamma1=0.01,
              gamma2=0.012, a1=0.9, a2=1.0, a3=0.99, b1=1.9, b2=0.0, b3=0.6,
              c=0.38, s_pi=0.24, s_w=0.04, delta=4.2)

CASE_B = dict(mu1=0.0186145, mu2=0.5, nu1=0.015, nu2=0.03, n=0.01, gamma1=0.0,
              gamma2=0.0, a1=0.9, a2=1.0, a3=1.0, b1=1.9, b2=0.0, b3=0.6,
              c=0.4, s_pi=0.24, s_w=0.04, delta=4.0)


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


def rhp_root_count(p0, r0, q0, tau):
    """Number of roots of x^2 + p0 x + r0 + q0 e^(-x tau) with Re x > 0."""
    def P(x):
        return x * x + p0 * x + r0 + q0 * np.exp(-x * tau)

    # roots in the closed right half plane satisfy |x^2| <= |p0||x| + |r0| + |q0|
    R = 2.0 * (abs(p0) + math.sqrt(abs(r0) + abs(q0))) + 2.0
    axis = 1j * np.linspace(R, -R, 801)
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

# The envelope, classification and period diagnostics as numpy computes
# them: the library's standard-library versions must give the same labels,
# the same period bits and the same envelopes.

def np_amplitude_envelope(traj, window):
    """(window centers, beta peak-to-peak, lambda peak-to-peak) per whole window."""
    steps = int(round(window / traj.step))
    nwin = len(traj.times) // steps
    if steps < 5 or nwin == 0:
        raise ValueError(f"window {window} spans {steps} steps, {nwin} windows")
    cut = nwin * steps
    times, beta, lambda_ = (np.asarray(c)[:cut].reshape(nwin, steps)
                            for c in (traj.times, traj.beta, traj.lambda_))
    return times.mean(axis=1), np.ptp(beta, axis=1), np.ptp(lambda_, axis=1)


def np_classify_dynamics(traj, drift_tol=0.02, skip_fraction=0.2):
    """'decaying', 'sustained' or 'growing' from the geometric-mean window drift."""
    _, amp, _ = np_amplitude_envelope(traj, float(traj.times[-1] - traj.times[0]) / 10.0)
    amp = amp[int(len(amp) * skip_fraction):]
    if len(amp) < 2:
        raise ValueError("too few windows after the transient skip")
    mean = float(np.mean(np.log((amp[1:] + 1e-300) / (amp[:-1] + 1e-300))))
    if mean > math.log1p(drift_tol):
        return "growing"
    if mean < math.log1p(-drift_tol):
        return "decaying"
    return "sustained"


def np_oscillation_period(traj, tail_fraction=0.5):
    """Mean spacing of alternate mean-crossings of beta in the tail."""
    start = int(len(traj.times) * (1.0 - tail_fraction))
    t = np.asarray(traj.times)[start:]
    beta = np.asarray(traj.beta)[start:]
    x = beta - float(np.mean(beta))
    idx = np.nonzero(x[:-1] * x[1:] < 0)[0]
    if len(idx) < 3:
        raise ValueError(f"{len(idx)} mean-crossings in the tail")
    crossings = t[idx] + x[idx] / (x[idx] - x[idx + 1]) * (t[idx + 1] - t[idx])
    return float(np.mean(crossings[2:] - crossings[:-2]))


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


def sample_crossing_set(rng, variant="A", require_stable_at_zero=False):
    """Random valid parameter set whose subsystem has a delay crossing."""
    base = CASE_A if variant == "A" else CASE_B
    jitter_keys = ("nu1", "nu2", "gamma1", "gamma2", "delta", "c", "n",
                   "a1", "a2", "b1", "b3")
    if variant == "B":
        jitter_keys = ("nu1", "nu2", "delta", "c", "n", "a1", "a2", "b1", "b3")
    while True:
        raw = _jitter(rng, base, jitter_keys, 0.7, 1.3)
        if variant == "B":
            raw["mu2"] = rng.uniform(0.2, 0.9)
            raw["mu1"] = consistent_mu1(raw)
            if raw["mu1"] < 0:
                continue
        try:
            p = validate_parameters(raw)
            coeffs = subsystem_coefficients(p, variant)
            eq = equilibrium(coeffs, p)
        except Exception:
            continue
        if not (eq.beta_e > 0 and eq.lambda_e > 0):
            continue
        c = char_coefficients(eq, coeffs)
        if require_stable_at_zero and not (c.p0 > 0 and c.r0 + c.q0 > 0):
            continue
        h = classify_h(c)
        if not h.roots:
            continue
        return p, coeffs, eq, c, h
