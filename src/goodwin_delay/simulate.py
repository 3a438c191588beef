"""Constant-delay time integration by the method of steps.

One RK4 kernel serves every delay tau >= 0.  The step is the largest
h = tau/m, m = ceil(tau/h_max), within the bound h_max (0.01, or the
step hint), so the delayed beta at a step's ends is a grid node, and at
its midpoint the cubic Hermite interpolant of the stored (state,
derivative) history, which keeps the scheme fourth order in h for any
m >= 1 (Bellen & Zennaro, Numerical Methods for Delay Differential
Equations, OUP 2003).  At tau = 0, m = 0, h = h_max and rho1 joins the
instantaneous coupling.

X holds beta at t = (k - m) h for k = 0..m+n, the first m+1 entries being
the constant history on [-tau, 0]; M[k] is the Hermite midpoint of
[X[k], X[k+1]].  Step i reads X[i], M[i], X[i+1] and stores M[m+i], read
m steps later, so M is a ring of m slots.  X, the ring and L (lambda) are
``array('d')`` buffers.  The kernel fills L a block of rows at a time: simulate()
takes the run as one block and trims X and L in place into the two columns;
simulate_rows() hands each block of BLOCK rows to its caller as it is stored,
so that only beta is kept whole.

The module needs only the standard library.  The classification and
period diagnostics read the beta column in place through memoryviews they
release before they return or raise, and every mean is the correctly
rounded sum math.fsum (Shewchuk, Discrete Comput. Geom. 18, 1997) divided
by the item count.
"""

from __future__ import annotations

import math
from array import array
from itertools import chain, repeat
from typing import NamedTuple

from .errors import GridTooLarge, InvalidInput, NoOscillation, WindowTooShort
from .model import SubsystemCoefficients
from .spectral import check_delay

OVERFLOW_LIMIT = 1e6
# Cap on the grid slots m + n of one run: at 16 bytes per slot at the
# peak (X and L, and the m-slot ring, of 8-byte doubles), near 80 MB for
# simulate(); simulate_rows() holds X and the ring, 8 bytes a step's slot and
# 16 a history slot, so near 40 MB unless the delay takes most of the slots.
MAX_STEPS = 5_000_000
BLOCK = 4096  # rows of lambda that simulate_rows() holds and hands over at a time
# classify_dynamics' bound on the mean relative drift of the envelope per window
DRIFT_TOL = 0.02


class HistorySpec(NamedTuple):
    """Constant pre-history on [-tau, 0]."""

    beta: float
    lambda_: float


class Trajectory(NamedTuple):
    """Uniform-grid run from t = k * step, k = 0, 1, ...; the columns are array('d')."""

    beta: array
    lambda_: array
    step: float
    overflow: bool = False

    @property
    def times(self) -> array:
        """The times k * step as a new array on each access; the library never reads it."""
        return array("d", map(self.step.__rmul__, range(len(self.beta))))


def _grid(tau: float, history: HistorySpec, t_end: float,
          step_hint: float | None) -> tuple[int, float, array]:
    """Check a run's inputs; return its history slots m, its step h and X, the
    m + n + 1 slots of beta for its n steps, each holding the history beta."""
    check_delay(tau)
    if not (math.isfinite(t_end) and t_end > 0):
        raise InvalidInput(f"t_end must be finite and positive, got {t_end!r}")
    if step_hint is not None and not (math.isfinite(step_hint) and step_hint > 0):
        raise InvalidInput(f"step hint must be finite and positive, got {step_hint!r}")
    for name, value in (("history beta", history.beta),
                        ("history lambda", history.lambda_)):
        if not math.isfinite(value):
            raise InvalidInput(f"{name} must be finite, got {value!r}")
    h_max = step_hint or 0.01
    nodes = tau / h_max - 1e-12
    if nodes > MAX_STEPS:  # checked before the ceiling, which an infinite quotient has not
        raise GridTooLarge(f"tau={tau} with steps of at most {h_max} needs {nodes:.3g}"
                           f" history slots > MAX_STEPS={MAX_STEPS}")
    m = max(1, math.ceil(nodes)) if tau else 0  # the fewest steps a delay of h = tau/m <= h_max
    h = tau / m if m else h_max
    span = t_end / h - 1e-9 if h > 0 else math.inf
    if m + span > MAX_STEPS:
        raise GridTooLarge(f"tau={tau} and t_end={t_end} with step {h} need"
                           f" {m} + {span:.3g} grid slots > MAX_STEPS={MAX_STEPS}")
    return m, h, array("d", (history.beta,)) * (m + math.ceil(span) + 1)


def _integrate(coeffs: SubsystemCoefficients, m: int, h: float, X: array, L: array):
    """The RK4 kernel: steps the run whose history fills X[:m + 1] and L[0].

    Row r of the run stores beta at X[m + r], over all m + n + 1 slots of X,
    and lambda in L, a block of len(L) rows that each block overwrites.
    After the rows s..s+k-1 of a block, their lambda at L[:k], it yields
    (s, k, overflow).  The block in which the state overflows is the last,
    and holds k = 0 rows when the row it drops, non-finite, was its first.
    """
    _, b0, lam0, d0, gc, wd, rho1 = coeffs  # in SubsystemCoefficients' field order
    # lambda-equation coupling to beta(t) and to beta(t - tau)
    gl, r1 = (gc, rho1) if m else (gc + rho1, 0.0)
    b, lam = X[0], L[0]
    n, block = len(X) - m - 1, len(L)
    ring = array("d", (b,)) * (size := m or 1)  # M[m + i] in slot i % m
    db = (b0 + gc * b - d0 * lam) * b  # beta derivative: each step's k1, and its midpoint

    overflow, last, limit = False, n, OVERFLOW_LIMIT
    h2, h6, h8 = 0.5 * h, h / 6.0, h / 8.0
    # delayed terms come through iterators (array indexing is not specialised); at
    # m = 0 each M[i] is read before it is stored, so every read is the history
    nodes, mids = iter(X), chain.from_iterable(repeat(ring)) if m else repeat(b)
    rd1 = r1 * next(nodes)
    # a loop over the steps of each block, so that no step counts the block's rows
    for s in range(0, n + 1, block):
        off = s - 1  # step i stores row i + 1, its lambda at L[i - off]
        for i in range(max(off, 0), min(s + block, n + 1) - 1):
            rd0, rdm, rd1 = rd1, r1 * next(mids), r1 * next(nodes)
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
            ring[i % size] = 0.5 * (b + b_new) + h8 * (db - db_new)
            b, db = b_new, db_new
            X[m + i + 1], L[i - off] = b, lam
            # written so that a NaN state fails it too
            if not (abs(b) <= limit and abs(lam) <= limit):
                overflow = True
                last = i + 1 if math.isfinite(b) and math.isfinite(lam) else i
                break
        yield s, min(last + 1, s + block) - s, overflow
        if overflow:
            return


def simulate(coeffs: SubsystemCoefficients, tau: float, history: HistorySpec,
             t_end: float, step_hint: float | None = None) -> Trajectory:
    """Integrate the delayed subsystem from a constant history.

    Returns a uniform-grid trajectory starting at t = 0.  If the state
    magnitude exceeds 1e6 or turns non-finite, the run is truncated and
    flagged, and it ends at its last finite row.
    """
    m, h, X = _grid(tau, history, t_end, step_hint)
    L = array("d", (history.lambda_,)) * (len(X) - m)  # n + 1 rows
    [(_, rows, overflow)] = _integrate(coeffs, m, h, X, L)  # the run is one block
    del X[m + rows:], X[:m], L[rows:]  # X and L become the columns in place
    return Trajectory(beta=X, lambda_=L, step=h, overflow=overflow)


def simulate_rows(coeffs: SubsystemCoefficients, tau: float, history: HistorySpec,
                  t_end: float, step_hint: float | None = None):
    """simulate(), for a caller that takes the rows as they come.

    Checks the inputs and lays out beta now, as simulate() does, and returns
    run(emit), called once.  That integrates the run holding lambda BLOCK rows
    at a time, passes emit the (t, beta, lambda) rows of each block, t = k * step,
    and returns the Trajectory of the beta column, with an empty lambda_.
    """
    m, h, X = _grid(tau, history, t_end, step_hint)

    def run(emit) -> Trajectory:
        L = array("d", (history.lambda_,)) * min(BLOCK, len(X) - m)
        for s, rows, overflow in _integrate(coeffs, m, h, X, L):
            # zip stops at the times, so a last block that is not full reads only its rows
            emit(zip(map(h.__rmul__, range(s, s + rows)), X[m + s:m + s + rows], L))
        del X[m + s + rows:], X[:m]
        return Trajectory(beta=X, lambda_=array("d"), step=h, overflow=overflow)
    return run


def _mean(x) -> float:
    """math.fsum(X) / len(X), with an overflow of the sum typed."""
    try:
        return math.fsum(x) / len(x)
    except OverflowError:
        raise InvalidInput("the mean of a diagnostic overflows") from None


def classify_dynamics(traj: Trajectory) -> str:
    """Classify the envelope trend: 'decaying', 'sustained' or 'growing'.

    Takes the beta peak-to-peak amplitude over windows of a tenth of the
    run, skips the first fifth of the windows as transient, and compares the
    geometric-mean drift between neighbouring windows against 2%.
    """
    end = (len(traj.beta) - 1) * traj.step
    steps = int(round(end / 10.0 / traj.step))
    if steps < 5:
        if len(traj.beta) == 0:
            raise WindowTooShort("the trajectory has no rows to classify")
        if traj.overflow:
            raise WindowTooShort("the state overflowed or turned non-finite: the run ends"
                                 f" at t={end!r}, too early to classify")
        raise WindowTooShort(f"a run of {len(traj.beta) - 1} steps is too short to classify"
                             ": its default window, a tenth of the run, spans < 5 steps")
    # at least 9 windows of 5 steps, so at least 8 amplitudes after the skip
    nwin, amp = len(traj.beta) // steps, []
    with memoryview(traj.beta) as column:  # a view left unreleased would keep beta from resizing
        for k in range(nwin // 5 * steps, nwin * steps, steps):
            with column[k:k + steps] as w:
                amp.append(max(w) - min(w))
    tiny = 1e-300
    mean = _mean([math.log((a1 + tiny) / (a0 + tiny)) for a0, a1 in zip(amp, amp[1:])])
    if mean > math.log1p(DRIFT_TOL):
        return "growing"
    if mean < math.log1p(-DRIFT_TOL):
        return "decaying"
    return "sustained"


def oscillation_period(traj: Trajectory) -> float:
    """Mean spacing of alternate mean-crossings of beta in the second half of the run."""
    if len(traj.beta) == 0:
        raise NoOscillation("the trajectory has no rows, so no mean-crossings")
    start = len(traj.beta) // 2
    h, crossings = traj.step, []
    with memoryview(traj.beta) as column, column[start:] as tail:
        mean = _mean(tail)  # the tail holds at least the last row
        # a loop over the deviations of the tail, read in place: memory for the crossings only
        x = map(mean.__rsub__, tail)
        x0 = next(x)
        for i, x1 in enumerate(x, start):
            if x0 * x1 < 0:  # linear interpolation of the crossing time
                crossings.append(i * h + x0 / (x0 - x1) * ((i + 1) * h - i * h))
            x0 = x1
    if len(crossings) < 3:
        raise NoOscillation(f"{len(crossings)} mean-crossings in the tail, need >= 3")
    gaps = [c2 - c0 for c0, c2 in zip(crossings, crossings[2:])]
    return _mean(gaps)
