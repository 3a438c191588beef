"""Constant-delay time integration by the method of steps.

One RK4 kernel serves every delay tau >= 0.  The step is tied to the
delay (h = tau/m), so the delayed beta at a step's ends is a grid node,
and at its midpoint the cubic Hermite interpolant of the stored (state,
derivative) history, which keeps the scheme fourth order (Bellen &
Zennaro, Numerical Methods for Delay Differential Equations, OUP 2003).
At tau = 0, m = 0 and rho1 joins the instantaneous coupling.

X holds beta at t = (k - m) h for k = 0..m+n, the first m+1 entries being
the constant history on [-tau, 0]; M[k] is the Hermite midpoint of
[X[k], X[k+1]], stored with X[k+1].  Step i reads X[i], M[i], X[i+1].
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .errors import (GridTooLarge, InvalidInput, NoOscillation, StepTooLarge,
                     WindowTooShort)
from .model import SubsystemCoefficients
from .spectral import check_delay

if TYPE_CHECKING:
    import numpy as np

OVERFLOW_LIMIT = 1e6
# Cap on the grid slots m + n of one run: at about 128 bytes per slot at
# the peak (three lists of floats, then the arrays), near 640 MB.
MAX_STEPS = 5_000_000


class HistorySpec(NamedTuple):
    """Constant pre-history on [-tau, 0]."""

    beta: float
    lambda_: float


class Trajectory(NamedTuple):
    times: np.ndarray
    beta: np.ndarray
    lambda_: np.ndarray
    tau: float
    step: float
    overflow: bool = False


def _resolve_step(tau: float, step_hint: float | None) -> tuple[int, float]:
    if tau == 0.0:
        return 0, step_hint or 0.01
    if step_hint is None:
        m = max(8, math.ceil(tau / 0.01 - 1e-12))
    else:
        m = math.ceil(tau / step_hint - 1e-12)
        if m < 4:
            raise StepTooLarge(
                f"step {step_hint} resolves the delay {tau} with m={m} < 4 nodes")
    return m, tau / m


def simulate(coeffs: SubsystemCoefficients, tau: float, history: HistorySpec,
             t_end: float, step_hint: float | None = None) -> Trajectory:
    """Integrate the delayed subsystem from a constant history.

    Returns a uniform-grid trajectory starting at t = 0.  If the state
    magnitude exceeds 1e6 or turns non-finite, the run is truncated and
    flagged, and it ends at its last finite row.
    """
    # numpy loads with the first run, so an analysis never imports it; the
    # import comes before the grid lists are allocated, where it measured faster
    import numpy as np

    check_delay(tau)
    if not (math.isfinite(t_end) and t_end > 0):
        raise InvalidInput(f"t_end must be finite and positive, got {t_end!r}")
    if step_hint is not None and not (math.isfinite(step_hint) and step_hint > 0):
        raise InvalidInput(f"step hint must be finite and positive, got {step_hint!r}")
    for name, value in (("history beta", history.beta),
                        ("history lambda", history.lambda_)):
        if not math.isfinite(value):
            raise InvalidInput(f"{name} must be finite, got {value!r}")
    m, h = _resolve_step(tau, step_hint)
    span = t_end / h - 1e-9 if h > 0 else math.inf
    if m + span > MAX_STEPS:
        raise GridTooLarge(f"tau={tau} and t_end={t_end} with step {h} need"
                           f" {m} + {span:.3g} grid slots > MAX_STEPS={MAX_STEPS}")
    n = math.ceil(span)

    b0, lam0, d0 = coeffs.beta0, coeffs.lambda0, coeffs.delta0
    gc, wd = coeffs.growth_coupling, coeffs.wage_damping
    # lambda-equation coupling to beta(t) and to beta(t - tau)
    gl, r1 = (gc, coeffs.rho1) if m else (gc + coeffs.rho1, 0.0)
    b, lam = history.beta, history.lambda_
    X = [b] * (m + n + 1)
    M = [b] * (m + n)
    L = [lam] * (n + 1)
    db = (b0 + gc * b - d0 * lam) * b  # beta derivative, for Hermite midpoints

    overflow = False
    limit = OVERFLOW_LIMIT
    h2, h6, h8 = 0.5 * h, h / 6.0, h / 8.0
    last = n
    # db is also each step's k1 for beta; r1 * X[i + 1] is the next step's
    # delayed term at its left end
    rd1 = r1 * X[0]
    for i in range(n):
        rd0, rdm, rd1 = rd1, r1 * M[i], r1 * X[i + 1]
        k1l = (lam0 - wd * lam + gl * b + rd0) * lam
        b2, l2 = b + h2 * db, lam + h2 * k1l
        k2b = (b0 + gc * b2 - d0 * l2) * b2
        k2l = (lam0 - wd * l2 + gl * b2 + rdm) * l2
        b3, l3 = b + h2 * k2b, lam + h2 * k2l
        k3b = (b0 + gc * b3 - d0 * l3) * b3
        k3l = (lam0 - wd * l3 + gl * b3 + rdm) * l3
        b4, l4 = b + h * k3b, lam + h * k3l
        k4b = (b0 + gc * b4 - d0 * l4) * b4
        k4l = (lam0 - wd * l4 + gl * b4 + rd1) * l4
        b_new = b + h6 * (db + 2.0 * (k2b + k3b) + k4b)
        lam = lam + h6 * (k1l + 2.0 * (k2l + k3l) + k4l)
        db_new = (b0 + gc * b_new - d0 * lam) * b_new
        M[m + i] = 0.5 * (b + b_new) + h8 * (db - db_new)
        b, db = b_new, db_new
        X[m + i + 1], L[i + 1] = b, lam
        # written so that a NaN state fails it too
        if not (abs(b) <= limit and abs(lam) <= limit):
            overflow = True
            last = i + 1 if math.isfinite(b) and math.isfinite(lam) else i
            break

    return Trajectory(
        times=np.arange(last + 1) * h,
        beta=np.array(X[m:m + last + 1]),
        lambda_=np.array(L[:last + 1]),
        tau=tau, step=h, overflow=overflow,
    )


def amplitude_envelope(traj: Trajectory, window: float):
    """Per-window peak-to-peak amplitude of both components.

    Returns (window_centers, beta_amplitude, lambda_amplitude).
    """
    import numpy as np
    steps = int(round(window / traj.step))
    if steps < 5:
        raise WindowTooShort(f"window {window} spans {steps} < 5 steps")
    nwin = len(traj.times) // steps
    if nwin == 0:
        raise WindowTooShort("trajectory shorter than one window")
    cut = nwin * steps
    centers = traj.times[:cut].reshape(nwin, steps).mean(axis=1)
    bw = traj.beta[:cut].reshape(nwin, steps)
    lw = traj.lambda_[:cut].reshape(nwin, steps)
    return centers, np.ptp(bw, axis=1), np.ptp(lw, axis=1)


def classify_dynamics(traj: Trajectory, window: float | None = None,
                      drift_tol: float = 0.02, skip_fraction: float = 0.2) -> str:
    """Classify the envelope trend: 'decaying', 'sustained' or 'growing'.

    Compares the geometric-mean per-window drift of the beta envelope
    (after a transient skip) against the drift tolerance.
    """
    import numpy as np
    span = float(traj.times[-1] - traj.times[0])
    if window is None:
        window = span / 10.0
    _, amp, _ = amplitude_envelope(traj, window)
    start = int(len(amp) * skip_fraction)
    amp = amp[start:]
    if len(amp) < 2:
        raise WindowTooShort("too few windows after transient skip")
    tiny = 1e-300
    ratios = np.log((amp[1:] + tiny) / (amp[:-1] + tiny))
    mean = float(np.mean(ratios))
    if mean > math.log1p(drift_tol):
        return "growing"
    if mean < math.log1p(-drift_tol):
        return "decaying"
    return "sustained"


def oscillation_period(traj: Trajectory, tail_fraction: float = 0.5) -> float:
    """Mean spacing of alternate mean-crossings of beta in the tail."""
    import numpy as np
    n = len(traj.times)
    start = int(n * (1.0 - tail_fraction))
    t = traj.times[start:]
    x = traj.beta[start:] - float(np.mean(traj.beta[start:]))
    sign_change = x[:-1] * x[1:] < 0
    idx = np.nonzero(sign_change)[0]
    if len(idx) < 3:
        raise NoOscillation(f"{len(idx)} mean-crossings in the tail, need >= 3")
    # linear interpolation of each crossing time
    frac = x[idx] / (x[idx] - x[idx + 1])
    crossings = t[idx] + frac * (t[idx + 1] - t[idx])
    return float(np.mean(crossings[2:] - crossings[:-2]))
