"""Constant-delay time integration by the method of steps.

The step is tied to the delay (h = tau/m) so delayed node lookups are
exact grid hits; mid-step stage lookups use cubic Hermite interpolation
of the stored (state, derivative) history, which preserves fourth-order
accuracy of the underlying Runge-Kutta scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NoOscillation, StepTooLarge, WindowTooShort
from .model import SubsystemCoefficients

OVERFLOW_LIMIT = 1e6


@dataclass(frozen=True)
class HistorySpec:
    """Constant pre-history on [-tau, 0]."""

    beta: float
    lambda_: float
    kind: str = "constant"


@dataclass
class Trajectory:
    times: np.ndarray
    beta: np.ndarray
    lambda_: np.ndarray
    tau: float
    step: float
    overflow: bool = False
    metadata: dict = field(default_factory=dict)


def _resolve_step(tau: float, step_hint: float | None) -> tuple[int, float]:
    if step_hint is None:
        m = max(8, math.ceil(tau / 0.01 - 1e-12))
    else:
        if step_hint <= 0:
            raise StepTooLarge("step hint must be positive")
        m = math.ceil(tau / step_hint - 1e-12)
        if m < 4:
            raise StepTooLarge(
                f"step {step_hint} resolves the delay {tau} with m={m} < 4 nodes")
    return m, tau / m


def simulate(coeffs: SubsystemCoefficients, tau: float, history: HistorySpec,
             t_end: float, step_hint: float | None = None) -> Trajectory:
    """Integrate the delayed subsystem from a constant history.

    Returns a uniform-grid trajectory starting at t = 0.  If the state
    magnitude exceeds 1e6 the run is truncated and flagged.
    """
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    b0, lam0, d0 = coeffs.beta0, coeffs.lambda0, coeffs.delta0
    gc, wd, r1 = coeffs.growth_coupling, coeffs.wage_damping, coeffs.rho1
    hb, hl = history.beta, history.lambda_

    if tau == 0.0:
        m = 0
        h = step_hint if step_hint is not None else 0.01
        if h <= 0:
            raise StepTooLarge("step hint must be positive")
    else:
        m, h = _resolve_step(tau, step_hint)
    n = math.ceil(t_end / h - 1e-9)

    B = [0.0] * (n + 1)
    L = [0.0] * (n + 1)
    DB = [0.0] * (n + 1)  # beta derivatives, for Hermite interpolation
    B[0], L[0] = hb, hl
    DB[0] = (b0 + gc * hb - d0 * hl) * hb

    overflow = False
    b, lam = hb, hl
    h2, h6, h8 = 0.5 * h, h / 6.0, h / 8.0
    last = n
    for i in range(n):
        if tau == 0.0:
            # plain one-step RK4; the delayed argument is the stage value
            k1b = (b0 + gc * b - d0 * lam) * b
            k1l = (lam0 - wd * lam + gc * b + r1 * b) * lam
            b2, l2 = b + h2 * k1b, lam + h2 * k1l
            k2b = (b0 + gc * b2 - d0 * l2) * b2
            k2l = (lam0 - wd * l2 + gc * b2 + r1 * b2) * l2
            b3, l3 = b + h2 * k2b, lam + h2 * k2l
            k3b = (b0 + gc * b3 - d0 * l3) * b3
            k3l = (lam0 - wd * l3 + gc * b3 + r1 * b3) * l3
            b4, l4 = b + h * k3b, lam + h * k3l
            k4b = (b0 + gc * b4 - d0 * l4) * b4
            k4l = (lam0 - wd * l4 + gc * b4 + r1 * b4) * l4
        else:
            j = i - m
            bd0 = B[j] if j >= 0 else hb
            bd1 = B[j + 1] if j + 1 >= 0 else hb
            if j >= 0:
                # Hermite midpoint of the stored interval [j, j+1]
                bdm = 0.5 * (B[j] + B[j + 1]) + h8 * (DB[j] - DB[j + 1])
            else:
                bdm = hb
            k1b = (b0 + gc * b - d0 * lam) * b
            k1l = (lam0 - wd * lam + gc * b + r1 * bd0) * lam
            b2, l2 = b + h2 * k1b, lam + h2 * k1l
            k2b = (b0 + gc * b2 - d0 * l2) * b2
            k2l = (lam0 - wd * l2 + gc * b2 + r1 * bdm) * l2
            b3, l3 = b + h2 * k2b, lam + h2 * k2l
            k3b = (b0 + gc * b3 - d0 * l3) * b3
            k3l = (lam0 - wd * l3 + gc * b3 + r1 * bdm) * l3
            b4, l4 = b + h * k3b, lam + h * k3l
            k4b = (b0 + gc * b4 - d0 * l4) * b4
            k4l = (lam0 - wd * l4 + gc * b4 + r1 * bd1) * l4
        b = b + h6 * (k1b + 2.0 * (k2b + k3b) + k4b)
        lam = lam + h6 * (k1l + 2.0 * (k2l + k3l) + k4l)
        B[i + 1], L[i + 1] = b, lam
        DB[i + 1] = (b0 + gc * b - d0 * lam) * b
        if abs(b) > OVERFLOW_LIMIT or abs(lam) > OVERFLOW_LIMIT:
            overflow = True
            last = i + 1
            break

    times = np.arange(last + 1) * h
    return Trajectory(
        times=times,
        beta=np.array(B[:last + 1]),
        lambda_=np.array(L[:last + 1]),
        tau=tau, step=h, overflow=overflow,
        metadata={"m": m, "t_end": t_end,
                  "history": {"kind": history.kind,
                              "beta": history.beta, "lambda": history.lambda_}},
    )


def amplitude_envelope(traj: Trajectory, window: float):
    """Per-window peak-to-peak amplitude of both components.

    Returns (window_centers, beta_amplitude, lambda_amplitude).
    """
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
