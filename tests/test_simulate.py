import hashlib
import json
import math
import struct
import tracemalloc
from array import array
from fractions import Fraction

import numpy as np
import pytest

import goodwin_delay.simulate as simulate_module
from goodwin_delay.cli import main
from goodwin_delay.errors import (GoodwinDelayError, GridTooLarge, InvalidInput,
                                  NoOscillation, WindowTooShort)
from goodwin_delay.model import equilibrium, subsystem_coefficients, validate_parameters
from goodwin_delay.simulate import (
    HistorySpec,
    Trajectory,
    classify_dynamics,
    oscillation_period,
    simulate,
)
from goodwin_delay.spectral import analyze_spectrum

from helpers import (CASE_A, exact_mean, np_amplitude_envelope, np_classify_dynamics,
                     np_oscillation_period, rk4_ode_reference)

TAU0_A = 0.03484884438749684
OMEGA0_A = 0.7080560034974415


def perturbed_history(eq, scale=0.05):
    return HistorySpec(beta=eq.beta_e * (1 + scale), lambda_=eq.lambda_e * (1 + scale))


class TestIntegrator:
    def test_equilibrium_is_a_fixed_point(self, case_a):
        _, coeffs, eq = case_a
        hist = HistorySpec(beta=eq.beta_e, lambda_=eq.lambda_e)
        traj = simulate(coeffs, tau=0.03, history=hist, t_end=100.0)
        drift = max(np.max(np.abs(np.asarray(traj.beta) - eq.beta_e)),
                    np.max(np.abs(np.asarray(traj.lambda_) - eq.lambda_e)))
        assert drift < 1e-10

    def test_zero_delay_decays_toward_equilibrium(self, case_a):
        # the tau = 0 spiral decays at rate p0/2 ~ 0.0086, so by t = 500
        # the distance has shrunk by roughly exp(-4.3)
        _, coeffs, eq = case_a
        traj = simulate(coeffs, tau=0.0, history=perturbed_history(eq),
                        t_end=500.0)
        d_start = math.hypot(traj.beta[0] - eq.beta_e,
                             traj.lambda_[0] - eq.lambda_e)
        d_end = math.hypot(traj.beta[-1] - eq.beta_e,
                           traj.lambda_[-1] - eq.lambda_e)
        assert d_end < 2e-3
        assert d_end < 0.05 * d_start

    def test_supercritical_delay_grows(self, case_a):
        _, coeffs, eq = case_a
        traj = simulate(coeffs, tau=0.05, history=perturbed_history(eq),
                        t_end=500.0)
        _, amp, _ = np_amplitude_envelope(traj, window=50.0)
        assert amp[-1] > amp[0]
        assert classify_dynamics(traj) == "growing"

    def test_convergence_order(self, case_a):
        # global error ratio under step halving should sit near 16
        _, coeffs, eq = case_a
        hist = perturbed_history(eq)
        tau, t_end = 0.05, 300.0
        ref = simulate(coeffs, tau, hist, t_end, step_hint=tau / 16)
        coarse = simulate(coeffs, tau, hist, t_end, step_hint=tau / 4)
        fine = simulate(coeffs, tau, hist, t_end, step_hint=tau / 8)
        e_coarse = abs(coarse.beta[-1] - ref.beta[-1])
        e_fine = abs(fine.beta[-1] - ref.beta[-1])
        ratio = e_coarse / e_fine
        assert 12.0 <= ratio <= 20.0

    def test_small_delay_continuity(self, case_a):
        # tau -> 0 limit approaches the undelayed trajectory
        _, coeffs, eq = case_a
        hist = perturbed_history(eq)
        tau = 1e-5
        undelayed = simulate(coeffs, 0.0, hist, t_end=2.0, step_hint=tau / 4)
        delayed = simulate(coeffs, tau, hist, t_end=2.0, step_hint=tau / 4)
        n = min(len(undelayed.beta), len(delayed.beta))
        diff = np.max(np.abs(np.asarray(undelayed.beta[:n]) - np.asarray(delayed.beta[:n])))
        assert diff < 1e-5

    def test_axes_are_invariant(self, case_a):
        _, coeffs, _ = case_a
        traj_b = simulate(coeffs, 0.05, HistorySpec(beta=0.0, lambda_=0.4),
                          t_end=20.0)
        assert np.all(np.asarray(traj_b.beta) == 0.0)
        traj_l = simulate(coeffs, 0.05, HistorySpec(beta=0.4, lambda_=0.0),
                          t_end=20.0)
        assert np.all(np.asarray(traj_l.lambda_) == 0.0)

    def test_step_hint_above_the_delay_is_one_node(self, case_a):
        # a hint bounds the step: at or above tau the grid has m = 1 node a delay
        _, coeffs, eq = case_a
        for step_hint in (0.05, 0.08, 1e3):
            traj = simulate(coeffs, 0.05, perturbed_history(eq), t_end=1.0,
                            step_hint=step_hint)
            assert traj.step == 0.05 and len(traj.beta) == 21
        with pytest.raises(ValueError):
            simulate(coeffs, 0.05, perturbed_history(eq), t_end=1.0,
                     step_hint=-0.01)

    def test_overflow_flag(self, case_a):
        # beta alone obeys logistic-type growth; a large positive start
        # with beta0 > 0 and no employment braking blows up
        _, coeffs, _ = case_a
        traj = simulate(coeffs, 0.05, HistorySpec(beta=50.0, lambda_=0.0),
                        t_end=200.0)
        assert traj.overflow
        assert traj.times[-1] < 200.0

    def test_non_finite_state_is_an_overflow(self, case_b_raw):
        # nu2 = 1e100 turns the first step's state into NaN (inf - inf)
        p = validate_parameters({**case_b_raw, "nu2": 1e100})
        coeffs = subsystem_coefficients(p, "B")
        eq = equilibrium(coeffs, p)
        traj = simulate(coeffs, 0.03, HistorySpec(beta=eq.beta_e - 0.05,
                                                  lambda_=eq.lambda_e - 0.05),
                        t_end=5.0)
        assert traj.overflow
        assert len(traj.times) == len(traj.beta) == len(traj.lambda_) == 1
        assert np.isfinite(traj.beta).all() and np.isfinite(traj.lambda_).all()

    def test_invalid_arguments(self, case_a):
        _, coeffs, eq = case_a
        with pytest.raises(ValueError):
            simulate(coeffs, 0.05, perturbed_history(eq), t_end=0.0)
        with pytest.raises(ValueError):
            simulate(coeffs, -0.1, perturbed_history(eq), t_end=1.0)

    @pytest.mark.parametrize("flags", [
        dict(tau=math.inf), dict(tau=math.nan), dict(t_end=math.inf),
        dict(t_end=math.nan), dict(step_hint=math.nan),
        dict(step_hint=math.inf), dict(history=HistorySpec(math.nan, 0.5)),
        dict(history=HistorySpec(0.5, math.inf)),
    ])
    def test_non_finite_inputs_rejected(self, flags, case_a):
        _, coeffs, eq = case_a
        kwargs = dict(tau=0.05, history=perturbed_history(eq), t_end=10.0,
                      step_hint=None)
        kwargs.update(flags)
        with pytest.raises(ValueError):
            simulate(coeffs, **kwargs)

    @pytest.mark.parametrize("tau, slots", [(0.0, 50_000), (0.05, 5 + 50_000)])
    def test_grid_cap(self, tau, slots, case_a, monkeypatch):
        # the default grid to t_end = 500 has m + n slots, checked before
        # any buffer exists
        _, coeffs, eq = case_a
        monkeypatch.setattr(simulate_module, "MAX_STEPS", slots - 1)
        with pytest.raises(GridTooLarge):
            simulate(coeffs, tau, perturbed_history(eq), t_end=500.0)
        monkeypatch.setattr(simulate_module, "MAX_STEPS", slots)
        traj = simulate(coeffs, tau, perturbed_history(eq), t_end=500.0)
        assert len(traj.times) == slots - round(tau / traj.step) + 1

    def test_step_underflow_is_an_unbounded_grid(self, case_a):
        # the step is tau itself (m = 1), and t_end / 5e-324 is inf, so no
        # finite grid reaches t_end
        _, coeffs, eq = case_a
        with pytest.raises(GridTooLarge):
            simulate(coeffs, 5e-324, perturbed_history(eq), t_end=1.0)

    @pytest.mark.parametrize("tau, step_hint", [(1e307, None), (1e300, 1e-10)])
    def test_delay_overflow_is_an_unbounded_grid(self, tau, step_hint, case_a):
        # tau / h_max overflows to inf, which has no integer ceiling
        _, coeffs, eq = case_a
        with pytest.raises(GridTooLarge, match="history slots > MAX_STEPS"):
            simulate(coeffs, tau, perturbed_history(eq), t_end=1.0, step_hint=step_hint)

    @pytest.mark.parametrize("coeff_case", ["case_a", "case_b"])
    def test_zero_delay_matches_ode_rk4(self, coeff_case, request):
        # at tau = 0 the delayed kernel must reduce to plain RK4 on the ODE
        _, coeffs, eq = request.getfixturevalue(coeff_case)
        hist = perturbed_history(eq)
        traj = simulate(coeffs, 0.0, hist, t_end=50.0)
        ref = rk4_ode_reference(coeffs, hist.beta, hist.lambda_, 0.01,
                                len(traj.times) - 1)
        assert np.max(np.abs(traj.beta - ref[:, 0])) < 1e-12
        assert np.max(np.abs(traj.lambda_ - ref[:, 1])) < 1e-12

    def test_delayed_lookup_matches_dense_history(self, case_a):
        # the same run at two step refinements agrees closely, which
        # exercises both exact-node and Hermite mid-step lookups
        _, coeffs, eq = case_a
        hist = perturbed_history(eq)
        a = simulate(coeffs, TAU0_A, hist, t_end=30.0, step_hint=TAU0_A / 8)
        b = simulate(coeffs, TAU0_A, hist, t_end=30.0, step_hint=TAU0_A / 16)
        assert abs(a.beta[-1] - b.beta[-1]) < 1e-9

    @pytest.mark.parametrize("tau", [0.02, 0.035, 0.06])
    def test_default_step_error_is_set_by_h(self, tau, case_a):
        # the default grid has m = 2, 4 and 6 nodes a delay, all at h <= 0.01:
        # at t = floor(T/tau) tau it agrees with an m = 64 run to O(h^4), not
        # to the error of a coarse m (measured: at most 5.2e-9)
        _, coeffs, eq = case_a
        hist, t_end = perturbed_history(eq), 450.0
        run = simulate(coeffs, tau, hist, t_end)
        ref = simulate(coeffs, tau, hist, t_end, step_hint=tau / 64)
        m, k = round(tau / run.step), math.floor(t_end / tau)
        assert run.step <= 0.01 and ref.step == tau / 64
        for got, want in ((run.beta, ref.beta), (run.lambda_, ref.lambda_)):
            assert abs(got[k * m] - want[k * 64]) < 1e-7


# sha256 of the times, beta and lambda_ bytes: a change to any of them is an
# output format change and must be documented
PINNED_DIGESTS = {
    "A_tau0.05": "75396090bb2b200a4a081b51b88908e9205b13e141e577a8ff435ec368bdb43b",
    "B_tau0.05": "ed05875b3bb256aa7ed5e49d56c90e585de507f13c5d7f4e6a190eb0948b18e3",
    "A_tau0_step16": "3b6e8775e0d17404dabfae98b9c1a005e56146604cc1bf1e8a2c4794c3e4e315",
    "A_overflow": "dd04c83719cc778395e204eabd60becd7fa5697e0738e15b534eaf2a3222be22",
    "A_axis_beta0": "994e1fc1f033b27e07ea227207e7f8b37be49bf6fbd352aba037fabdf8401c0f",
    "B_tau0": "4330fb36567078a063568ce78e74c4da6b83d0c6d053a2ea106dde11f41b277d",
}


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_trajectory_bytes_are_pinned(name, case_a, case_b):
    _, coeffs, eq = case_a if name.startswith("A") else case_b
    runs = {
        "A_tau0.05": (0.05, perturbed_history(eq), 500.0, None),
        "B_tau0.05": (0.05, perturbed_history(eq), 500.0, None),
        "A_tau0_step16": (TAU0_A, perturbed_history(eq), 500.0, TAU0_A / 16),
        "A_overflow": (0.05, HistorySpec(beta=50.0, lambda_=0.0), 200.0, None),
        "A_axis_beta0": (0.05, HistorySpec(beta=0.0, lambda_=0.4), 20.0, None),
        "B_tau0": (0.0, perturbed_history(eq), 500.0, None),
    }
    tau, hist, t_end, step_hint = runs[name]
    traj = simulate(coeffs, tau, hist, t_end, step_hint=step_hint)
    digest = hashlib.sha256()
    for values in (traj.times, traj.beta, traj.lambda_):
        digest.update(values.tobytes())
    assert digest.hexdigest() == PINNED_DIGESTS[name]


class TestRegimes:
    def test_three_regimes(self, case_a):
        _, coeffs, eq = case_a
        hist = perturbed_history(eq)
        decaying = simulate(coeffs, 0.0, hist, t_end=500.0)
        assert classify_dynamics(decaying) == "decaying"
        critical = simulate(coeffs, TAU0_A, hist, t_end=500.0)
        assert classify_dynamics(critical) == "sustained"
        growing = simulate(coeffs, 0.05, hist, t_end=500.0)
        assert classify_dynamics(growing) == "growing"

    def test_critical_period_matches_prediction(self, case_a):
        _, coeffs, eq = case_a
        rep = analyze_spectrum(eq, coeffs)
        traj = simulate(coeffs, rep.tau0, perturbed_history(eq), t_end=500.0)
        predicted = 2 * math.pi / rep.omega0
        measured = oscillation_period(traj)
        assert abs(measured - predicted) / predicted < 0.05


class TestDiagnostics:
    def test_envelope_zero_for_constant(self, case_a):
        _, coeffs, eq = case_a
        hist = HistorySpec(beta=eq.beta_e, lambda_=eq.lambda_e)
        traj = simulate(coeffs, 0.03, hist, t_end=100.0)
        _, amp_b, amp_l = np_amplitude_envelope(traj, window=10.0)
        assert np.max(amp_b) < 1e-10
        assert np.max(amp_l) < 1e-10

    def test_envelope_monotone_decay_below_tau0(self, case_a):
        _, coeffs, eq = case_a
        traj = simulate(coeffs, 0.02, perturbed_history(eq), t_end=500.0)
        _, amp, _ = np_amplitude_envelope(traj, window=25.0)
        amp = amp[2:]  # skip the transient
        increases = np.sum(np.diff(amp) > 0)
        assert increases <= max(1, int(0.01 * len(amp)))

    def test_window_too_short(self, case_a):
        # a run that overflows after one step is too short for the default
        # window, and the error says why the run is short
        _, coeffs, _ = case_a
        traj = simulate(coeffs, 0.05, HistorySpec(beta=1e5, lambda_=0.0), t_end=100.0)
        with pytest.raises(WindowTooShort, match="^the state overflowed or turned"
                           r" non-finite: the run ends at t=0\.01, too early to classify$"):
            classify_dynamics(traj)

    def test_synthetic_period(self):
        t = np.arange(4001) * 0.025  # 0 to 100
        traj = Trajectory(beta=np.sin(2 * np.pi * t / 10.0) + 0.5,
                          lambda_=np.zeros_like(t), step=0.025)
        assert oscillation_period(traj) == pytest.approx(10.0, abs=0.1)

    def test_no_oscillation(self):
        t = np.arange(1001) * 0.1  # 0 to 100
        traj = Trajectory(beta=np.exp(-0.1 * t), lambda_=np.zeros_like(t), step=0.1)
        with pytest.raises(NoOscillation):
            oscillation_period(traj)

    def test_mean_overflow_is_typed(self):
        # ten states of 1e308: the fsum of the tail of beta overflows, which
        # was a bare OverflowError
        big = array("d", [1e308]) * 10
        traj = Trajectory(beta=big, lambda_=big, step=3e307)
        with pytest.raises(InvalidInput, match="overflows"):
            oscillation_period(traj)


def _least_float(pred, lo: float, hi: float) -> float:
    """The least float in (LO, HI] for which PRED holds; PRED is monotone and
    holds at HI.  Bisects the bit patterns, which order non-negative floats."""
    bits = lambda v: struct.unpack("<q", struct.pack("<d", v))[0]
    lo_b, hi_b = bits(lo), bits(hi)
    while hi_b - lo_b > 1:
        mid = (lo_b + hi_b) // 2
        if pred(struct.unpack("<d", struct.pack("<q", mid))[0]):
            hi_b = mid
        else:
            lo_b = mid
    return struct.unpack("<d", struct.pack("<q", hi_b))[0]


# each mean of a diagnostic is the exact sum, rounded once, divided by n
EXACT_MEAN_SIZES = [*range(5, 10), *range(127, 131), 8191, 8192, 8193, 100_003]
# the grid step of the exact-mean runs: the left-to-right sum of its times
# k * 0.3 over n slots is not their exact mean at 5 of the 13 sizes above
EXACT_MEAN_STEP = 0.3


def _decades(n, seed=None):
    """N floats with magnitudes over 16 decades (drawn with SEED, by default
    N), so that a sum that is not exact changes the bits."""
    rng = np.random.default_rng(n if seed is None else seed)
    return (rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)).tolist()


@pytest.mark.parametrize("n", EXACT_MEAN_SIZES)
def test_envelope_centre_is_exact_mean(n):
    # the reference mean is the rational sum rounded once; and the numpy
    # envelope that the drift oracle fits over centres one window over all of
    # the times k * h at their mean
    values, h = _decades(n), EXACT_MEAN_STEP
    assert exact_mean(values) == float(sum(map(Fraction, values))) / n
    times, zeros = [k * h for k in range(n)], array("d", bytes(8 * n))
    traj = Trajectory(beta=zeros, lambda_=zeros, step=h)
    want = float(sum(map(Fraction, times))) / n
    assert np_amplitude_envelope(traj, n * h)[0].tolist() == [want]


@pytest.mark.parametrize("n", EXACT_MEAN_SIZES)
def test_period_is_exact_mean(n):
    # the values as beta at the times k * h of the second half of a run of 2n
    # rows: the tail mean sets the crossings, and the period is the mean of
    # the gaps between alternate ones
    values, h = _decades(n), EXACT_MEAN_STEP
    v, t = array("d", [0.0] * n + values), [(n + k) * h for k in range(n)]
    traj = Trajectory(beta=v, lambda_=v, step=h)
    mean = exact_mean(values)
    x = [b - mean for b in values]
    crossings = [t[i] + x[i] / (x[i] - x[i + 1]) * (t[i + 1] - t[i])
                 for i in range(n - 1) if x[i] * x[i + 1] < 0]
    gaps = [c2 - c0 for c0, c2 in zip(crossings, crossings[2:])]
    if gaps:
        assert repr(oscillation_period(traj)) == repr(exact_mean(gaps))
    else:
        with pytest.raises(NoOscillation):
            oscillation_period(traj)


@pytest.mark.parametrize("n", EXACT_MEAN_SIZES)
def test_classification_turns_at_exact_mean(n):
    # a run of 50 unit steps has 10 default windows of 5 steps, and the first
    # 2 are skipped; windows 2..9 peak at 7 amplitudes over 16 decades (drawn
    # with seed N) and a last one, x.  The drift mean rises with x, and each
    # label must turn at the x where the exact mean of the log drifts meets
    # log1p(+-0.02)
    amp = [abs(a) for a in _decades(7, seed=n)]

    def run(x):
        peaks = [0.0, 0.0, *amp, x]
        beta = array("d", [c for a in peaks for c in (0.0, a, 0.0, 0.0, 0.0)] + [0.0])
        return classify_dynamics(Trajectory(beta=beta, lambda_=beta, step=1.0))

    def mean(x):
        peaks = [*amp, x]
        return exact_mean([math.log((a1 + 1e-300) / (a0 + 1e-300))
                           for a0, a1 in zip(peaks, peaks[1:])])

    # the least x that reads 'growing', and the least that no longer reads 'decaying'
    x = _least_float(lambda x: run(x) == "growing", 0.0, 1e300)
    below = math.nextafter(x, 0.0)
    assert (run(below), run(x)) == ("sustained", "growing")
    assert mean(below) <= math.log1p(0.02) < mean(x)
    x = _least_float(lambda x: run(x) != "decaying", 0.0, 1e300)
    below = math.nextafter(x, 0.0)
    assert (run(below), run(x)) == ("decaying", "sustained")
    assert mean(below) < math.log1p(-0.02) <= mean(x)


def _peak_bytes(fn, *args):
    """(FN(*ARGS), the tracemalloc peak in bytes while it ran)."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("tau, t_end, overflow", [
    (0.02, 50.0, False), (0.0, 50.0, False), (0.05, 50.0, True),
    (50.0, 50.0, False)])  # m = n = 5000: the ring is as long as the run
def test_simulate_peak_memory_per_grid_slot(tau, t_end, overflow, case_a):
    # X over the m + n slots, L over the n and the ring over the m, each
    # array('d') of 8 bytes a slot, and nothing per step besides
    _, coeffs, eq = case_a
    hist = HistorySpec(beta=50.0, lambda_=0.0) if overflow else perturbed_history(eq)
    traj, peak = _peak_bytes(simulate, coeffs, tau, hist, t_end)
    assert traj.overflow == overflow
    slots = round((tau + t_end) / traj.step)  # the history's m and the run's n
    assert slots >= 5_000
    assert peak <= 17 * slots


@pytest.fixture(scope="module")
def runs_of_two_lengths():
    """Case A at tau = 0.05 to t = 500 in steps of 0.01 and of 0.001: 50,001
    and 500,001 rows of one oscillation, so the same windows and crossings."""
    p = validate_parameters(dict(CASE_A))
    coeffs = subsystem_coefficients(p, "A")
    hist = perturbed_history(equilibrium(coeffs, p))
    return [simulate(coeffs, 0.05, hist, 500.0, step_hint) for step_hint in (0.01, 0.001)]


# the tracemalloc peak a diagnostic may reach on either run above: its views and
# its lists of per-window or per-crossing values, and not one byte per row
DIAGNOSTIC_PEAK_BYTES = 8192


def test_oscillation_period_peak_memory_per_row(runs_of_two_lengths):
    # the tail is read in place, which a copy of it (8 bytes a row) would fail
    periods = []
    for traj in runs_of_two_lengths:
        period, peak = _peak_bytes(oscillation_period, traj)
        assert peak <= DIAGNOSTIC_PEAK_BYTES
        periods.append(period)
    assert [len(traj.beta) for traj in runs_of_two_lengths] == [50_001, 500_001]
    assert periods[1] == pytest.approx(periods[0], rel=1e-3)


@pytest.mark.parametrize("diagnostic", [classify_dynamics], ids=["classify_dynamics"])
def test_window_diagnostics_peak_memory_per_row(diagnostic, runs_of_two_lengths):
    # each window is read in place, which a copy of it (a tenth of the run) would fail
    for traj in runs_of_two_lengths:
        result, peak = _peak_bytes(diagnostic, traj)
        assert peak <= DIAGNOSTIC_PEAK_BYTES
        assert result == "growing"


def _columns(values):
    """A trajectory in steps of 0.1 over new array('d') columns of VALUES."""
    return Trajectory(beta=array("d", values), lambda_=array("d", values), step=0.1)


SINE = [math.sin(0.1 * k) for k in range(1001)]  # a period of 2 pi over 100 time units
DECAY = [math.exp(-0.01 * k) for k in range(1001)]


@pytest.mark.parametrize("diagnostic, values, error", [
    (classify_dynamics, SINE, None),
    # 40 rows: the default window spans 4 steps
    (classify_dynamics, SINE[:40], WindowTooShort),
    (oscillation_period, SINE, None),
    (oscillation_period, DECAY, NoOscillation),
    (oscillation_period, [1e308] * 10, InvalidInput),  # the tail's mean overflows
], ids=["classify", "classify-WindowTooShort",
        "period", "period-NoOscillation", "period-InvalidInput"])
def test_diagnostics_leave_the_columns_resizable(diagnostic, values, error):
    # a view of a column that outlives the call makes array('d') refuse to
    # resize (BufferError); the error and its traceback are still alive here
    traj = _columns(values)
    if error is None:
        diagnostic(traj)
    else:
        with pytest.raises(error) as raised:
            diagnostic(traj)
    traj.beta.append(0.0)
    traj.lambda_.append(0.0)
    assert len(traj.beta) == len(traj.lambda_) == len(values) + 1


def test_library_and_cli_never_read_the_times(case_a, tmp_path, monkeypatch, capsys):
    # Trajectory.times builds a whole column on each access: the times are k * step
    def no_times(traj):
        raise AssertionError("Trajectory.times was read")

    _, coeffs, eq = case_a
    traj = simulate(coeffs, 0.05, perturbed_history(eq), 100.0)
    monkeypatch.setattr(Trajectory, "times", property(no_times))
    with pytest.raises(AssertionError):
        traj.times
    config = tmp_path / "case_a.json"
    config.write_text(json.dumps(CASE_A))
    # the second overflows; the third overflows after one step, too early to classify
    for init, code in (("0.95,0.74", 0), ("50,0", 0), ("1e5,0", 3)):
        assert main(["simulate", "--config", str(config), "--tau", "0.05", "--t-end", "100",
                     "--init", init, "--out", str(tmp_path)]) == code
    out, err = capsys.readouterr()
    assert "classification: growing" in out and "ends at t=0.01," in err
    assert classify_dynamics(traj) == "growing"
    assert oscillation_period(traj) > 0


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, GoodwinDelayError):
        return "raises"


@pytest.mark.parametrize("run", ["tau_zero", "below_tau0", "above_tau0", "overflow"])
@pytest.mark.parametrize("coeff_case", ["case_a", "case_b"])
def test_diagnostics_match_numpy_reference(coeff_case, run, request):
    _, coeffs, eq = request.getfixturevalue(coeff_case)
    tau0 = analyze_spectrum(eq, coeffs).tau0
    tau, hist = {
        "tau_zero": (0.0, perturbed_history(eq)),
        "below_tau0": (tau0 - 0.005, perturbed_history(eq)),
        "above_tau0": (tau0 + 0.005, perturbed_history(eq)),
        "overflow": (0.05, HistorySpec(beta=50.0, lambda_=0.0)),
    }[run]
    traj = simulate(coeffs, tau, hist, t_end=500.0)
    assert traj.overflow == (run == "overflow")
    assert _outcome(classify_dynamics, traj) == _outcome(np_classify_dynamics, traj)
    assert (_outcome(lambda: repr(oscillation_period(traj)))
            == _outcome(lambda: repr(np_oscillation_period(traj))))
