import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goodwin_delay.errors import (
    ConstraintViolation,
    EquilibriumUndefined,
    GoodwinDelayError,
    InconsistentPsi,
    MissingField,
    UnknownField,
    VariantConstraint,
)
from goodwin_delay.model import (
    PARAM_FIELDS,
    equilibrium,
    replace_field,
    subsystem_coefficients,
    validate_parameters,
)
from goodwin_delay.simulate import HistorySpec, simulate

from helpers import CASE_A, CASE_B, PSI_EDGE_INSIDE, PSI_EDGE_OUTSIDE


def drift(coeffs, beta, lambda_, tau, t_end=50.0):
    """Largest departure of each component of simulate()'s trajectory, which
    inlines the vector field, from its constant history (beta, lambda_)."""
    traj = simulate(coeffs, tau, HistorySpec(beta=beta, lambda_=lambda_), t_end)
    return (np.max(np.abs(np.asarray(traj.beta) - beta)),
            np.max(np.abs(np.asarray(traj.lambda_) - lambda_)))


def mp_derived(raw):
    """Extended-precision oracle for the derived constants."""
    with mpmath.workdps(50):
        g = mpmath.mpf(raw["c"]) - (mpmath.mpf(raw["s_pi"]) - mpmath.mpf(raw["s_w"]))
        den = 1 - mpmath.mpf(raw["a3"]) * mpmath.mpf(raw["b3"])
        rho0 = (mpmath.mpf(raw["a1"]) * (1 - mpmath.mpf(raw["b3"]))
                - mpmath.mpf(raw["b1"]) * (1 - mpmath.mpf(raw["a3"]))) / den
        rho1 = mpmath.mpf(raw["a2"]) * (1 - mpmath.mpf(raw["b3"])) / den
        return float(g), float(rho0), float(rho1)


class TestValidation:
    def test_case_a_valid(self, case_a_raw):
        p = validate_parameters(case_a_raw)
        assert p.delta == 4.2

    def test_case_b_valid(self, case_b_raw):
        p = validate_parameters(case_b_raw)
        assert p.derived.g == pytest.approx(0.2, abs=1e-15)

    def test_nu2_zero_rejected(self, case_a_raw):
        case_a_raw["nu2"] = 0.0
        with pytest.raises(ConstraintViolation) as err:
            validate_parameters(case_a_raw)
        assert err.value.name == "nu2"

    def test_missing_field(self, case_a_raw):
        del case_a_raw["delta"]
        with pytest.raises(MissingField):
            validate_parameters(case_a_raw)

    def test_unknown_field(self, case_a_raw):
        case_a_raw["sigma"] = 1.0
        with pytest.raises(UnknownField):
            validate_parameters(case_a_raw)

    def test_nonfinite_rejected(self, case_a_raw):
        case_a_raw["a1"] = float("nan")
        with pytest.raises(ConstraintViolation):
            validate_parameters(case_a_raw)

    @pytest.mark.parametrize("value", [10**400, -10**400, 10**5000],
                             ids=["1e400", "-1e400", "1e5000"])
    def test_integer_too_large_for_a_float(self, value, case_a_raw):
        # float() raises OverflowError, and an int of more than 4300 digits
        # has no repr for the message; both read as an infinite float would
        want = ("delta", math.inf if value > 0 else -math.inf, "must be finite")
        with pytest.raises(ConstraintViolation) as err:
            validate_parameters({**case_a_raw, "delta": value})
        assert (err.value.name, err.value.value, err.value.constraint) == want
        with pytest.raises(ConstraintViolation) as err:
            replace_field(validate_parameters(case_a_raw), "delta", value)
        assert (err.value.name, err.value.value, err.value.constraint) == want

    def test_g_positive_enforced(self, case_a_raw):
        case_a_raw["c"] = 0.19  # g = c - 0.2 < 0
        with pytest.raises(ConstraintViolation):
            validate_parameters(case_a_raw)

    def test_a3b3_product(self, case_a_raw):
        case_a_raw["a3"] = 1.0
        case_a_raw["b3"] = 0.999
        p = validate_parameters(case_a_raw)  # 0.999 < 1: fine
        assert p.a3 * p.b3 < 1


def _edges(raw):
    """Values at which some constraint on a replaced field flips."""
    return [0.0, 1.0, raw["s_pi"], raw["s_w"], raw["s_pi"] - raw["s_w"],
            raw["c"] + raw["s_w"], 1.0 / raw["b3"], 1.0 / raw["a3"]]


NEAR_EDGES = st.sampled_from(sorted(set(_edges(CASE_A) + _edges(CASE_B)))).flatmap(
    lambda e: st.sampled_from([e, math.nextafter(e, -math.inf),
                               math.nextafter(e, math.inf), -e]))
FIELD_VALUES = st.one_of(
    NEAR_EDGES,
    st.floats(-2.0, 2.0),
    st.integers(-3, 3),
    st.sampled_from([math.nan, math.inf, -math.inf, True, False, "0.5", None]),
)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except GoodwinDelayError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("case", ["A", "B"])
@pytest.mark.parametrize("name", PARAM_FIELDS)
@given(value=FIELD_VALUES)
@settings(max_examples=60, deadline=None)
def test_replace_field_matches_full_validation(case, name, value):
    raw = dict(CASE_A if case == "A" else CASE_B)
    p = validate_parameters(raw)
    assert (_outcome(replace_field, p, name, value)
            == _outcome(validate_parameters, {**raw, name: value}))


def test_replace_field_rejects_an_unknown_name():
    p = validate_parameters(dict(CASE_A))
    for name in ("sigma", "derived"):
        with pytest.raises(UnknownField):
            replace_field(p, name, 1.0)


class TestDerivedConstants:
    def test_case_a_against_extended_precision(self, case_a_raw):
        p = validate_parameters(case_a_raw)
        g, rho0, rho1 = mp_derived(case_a_raw)
        assert p.derived.g == pytest.approx(g, abs=1e-15)
        assert p.derived.rho0 == pytest.approx(rho0, abs=1e-15)
        assert p.derived.rho1 == pytest.approx(rho1, abs=1e-15)
        assert p.derived.rho1 == pytest.approx(0.4 / 0.406, rel=1e-14)

    def test_case_b_exact_values(self, case_b_raw):
        p = validate_parameters(case_b_raw)
        assert p.derived.rho1 == pytest.approx(1.0, abs=1e-15)
        assert p.derived.rho0 == pytest.approx(0.9, abs=1e-15)

    def test_rho0_vanishing_numerator(self, case_a_raw):
        # a1 (1-b3) == b1 (1-a3)
        case_a_raw.update(a1=0.5, b3=0.5, b1=1.0, a3=0.75)
        p = validate_parameters(case_a_raw)
        assert p.derived.rho0 == pytest.approx(0.0, abs=1e-15)

    @given(kappa=st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=50, deadline=None)
    def test_scale_consistency(self, kappa):
        raw = dict(CASE_A)
        p0 = validate_parameters(raw)
        raw["a1"] *= kappa
        raw["a2"] *= kappa
        raw["b1"] *= kappa
        p1 = validate_parameters(raw)
        assert p1.derived.rho0 == pytest.approx(kappa * p0.derived.rho0, rel=1e-12, abs=1e-12)
        assert p1.derived.rho1 == pytest.approx(kappa * p0.derived.rho1, rel=1e-12)


class TestCoefficients:
    def test_case_a_delta0(self, case_a):
        _, coeffs, _ = case_a
        assert coeffs.delta0 == pytest.approx(0.796, abs=1e-15)

    def test_case_b_values(self, case_b):
        _, coeffs, _ = case_b
        assert coeffs.delta0 == pytest.approx(0.815, abs=1e-12)
        assert coeffs.beta0 == pytest.approx(0.6038855, abs=1e-12)
        assert coeffs.lambda0 == pytest.approx(-0.9261145, abs=1e-12)

    def test_variant_b_requires_mu2_below_one(self, case_a_raw):
        p = validate_parameters(case_a_raw)  # mu2 = 1
        with pytest.raises(VariantConstraint):
            subsystem_coefficients(p, "B")
        # and a variant that is neither A nor B is refused for any parameters
        with pytest.raises(VariantConstraint, match="unknown variant 'C'"):
            subsystem_coefficients(p, "C")

    def test_b_reduces_to_a_without_work_intensity(self, case_b_raw):
        # mu1 = 0, mu2 = 1 in the A-bundle matches B's structure when
        # gamma1 = gamma2 = 0
        raw = dict(case_b_raw)
        raw["mu1"] = 0.0
        raw["mu2"] = 1.0
        p = validate_parameters(raw)
        ca = subsystem_coefficients(p, "A")
        assert ca.growth_coupling == 0.0
        assert ca.beta0 == pytest.approx((p.derived.g - p.s_w) * p.delta - p.nu1 - p.n)
        assert ca.delta0 == pytest.approx(p.nu2 + p.derived.g * p.delta)


class TestEquilibrium:
    def test_case_a_matches_reference(self, case_a):
        _, _, eq = case_a
        assert eq.beta_e == pytest.approx(0.90, abs=5e-3)
        assert eq.lambda_e == pytest.approx(0.70, abs=5e-3)
        assert eq.interior

    def test_case_a_residual(self, case_a):
        _, coeffs, eq = case_a
        for tau in (0.0, 0.03):
            assert max(drift(coeffs, eq.beta_e, eq.lambda_e, tau)) < 1e-12

    def test_case_b_matches_reference(self, case_b):
        _, _, eq = case_b
        assert eq.beta_e == pytest.approx(0.937, abs=1e-3)
        assert eq.lambda_e == pytest.approx(0.741, abs=1e-3)
        assert eq.lambda_star == pytest.approx(eq.lambda_e, abs=1e-5)

    def test_case_b_residual(self, case_b):
        _, coeffs, eq = case_b
        for tau in (0.0, 0.03):
            assert max(drift(coeffs, eq.beta_e, eq.lambda_e, tau)) < 1e-12

    def test_case_b_inconsistent_mu1(self, case_b_raw):
        case_b_raw["mu1"] = 0.02
        p = validate_parameters(case_b_raw)
        coeffs = subsystem_coefficients(p, "B")
        with pytest.raises(InconsistentPsi):
            equilibrium(coeffs, p)

    @pytest.mark.parametrize("mu1, gap", PSI_EDGE_INSIDE.items())
    def test_psi_gap_just_inside_the_tolerance_passes(self, mu1, gap):
        p = validate_parameters(dict(CASE_B, mu1=mu1))
        eq = equilibrium(subsystem_coefficients(p, "B"), p)
        assert eq.lambda_star - eq.lambda_e == pytest.approx(gap, rel=1e-6)

    @pytest.mark.parametrize("mu1, gap", PSI_EDGE_OUTSIDE.items())
    def test_psi_gap_just_outside_the_tolerance_raises(self, mu1, gap):
        p = validate_parameters(dict(CASE_B, mu1=mu1))
        with pytest.raises(InconsistentPsi) as raised:
            equilibrium(subsystem_coefficients(p, "B"), p)
        # "lambda_e* = X differs from lambda_e = Y"
        star, e = map(float, re.findall(r"= (\S+)", str(raised.value)))
        assert star - e == pytest.approx(gap, rel=1e-6)

    @pytest.mark.parametrize("name", ["nu2", "gamma2"])
    def test_non_finite_equilibrium_is_undefined(self, name, case_a_raw):
        # a finite, valid parameter whose equilibrium overflows
        case_a_raw[name] = 1.7e308
        p = validate_parameters(case_a_raw)
        with pytest.raises(EquilibriumUndefined, match="not finite"):
            equilibrium(subsystem_coefficients(p, "A"), p)

    def test_not_interior_is_flagged_without_a_warning(self, case_a_raw):
        # a tiny delta drives the equilibrium employment rate negative; the
        # record's flag is the one report of it
        case_a_raw["delta"] = 0.2
        p = validate_parameters(case_a_raw)
        coeffs = subsystem_coefficients(p, "A")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            eq = equilibrium(coeffs, p)
        assert caught == []
        assert not eq.interior


class TestVectorField:
    """The field as simulate() inlines it, in bracket*state form."""

    def test_hand_composed_value(self, case_a):
        # one RK4 step from the constant history (0.5, 0.5): every stage's
        # delayed beta lies on the history
        _, c, _ = case_a
        tau = 0.05
        h = tau / 5

        def field(b, l):
            return ((c.beta0 + c.growth_coupling * b - c.delta0 * l) * b,
                    (c.lambda0 - c.wage_damping * l + c.growth_coupling * b
                     + c.rho1 * 0.5) * l)

        k1 = field(0.5, 0.5)
        k2 = field(0.5 + h / 2 * k1[0], 0.5 + h / 2 * k1[1])
        k3 = field(0.5 + h / 2 * k2[0], 0.5 + h / 2 * k2[1])
        k4 = field(0.5 + h * k3[0], 0.5 + h * k3[1])
        traj = simulate(c, tau, HistorySpec(beta=0.5, lambda_=0.5), t_end=h)
        assert len(traj.times) == 2
        for i, got in enumerate((traj.beta[1], traj.lambda_[1])):
            want = 0.5 + h / 6 * (k1[i] + 2 * k2[i] + 2 * k3[i] + k4[i])
            assert got == pytest.approx(want, rel=1e-14)

    @given(b=st.floats(-2, 2, allow_nan=False), l=st.floats(-2, 2, allow_nan=False),
           tau=st.sampled_from([0.0, 0.03, 0.05]))
    @settings(max_examples=20, deadline=None)
    def test_axis_invariance(self, b, l, tau):
        coeffs = subsystem_coefficients(validate_parameters(dict(CASE_A)), "A")
        assert drift(coeffs, 0.0, l, tau)[0] == 0.0
        assert drift(coeffs, b, 0.0, tau)[1] == 0.0
