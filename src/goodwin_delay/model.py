"""Model parameters, reduced subsystem coefficients and equilibria.

The two delayed employment/wage-share subsystems share the same algebraic
shape

    beta'(t)   = [beta0 + gc*beta(t) - delta0*lambda(t)] * beta(t)
    lambda'(t) = [lambda0 - wd*lambda(t) + gc*beta(t)
                  + rho1*beta(t - tau)] * lambda(t)

with variant A using (gc, wd) = (gamma2, nu2) and variant B using
(gc, wd) = (0, mu2*nu2).  All coefficients derive from the raw economic
constants validated here.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import (ConstraintViolation, EquilibriumUndefined, InconsistentPsi,
                     MissingField, UnknownField, VariantConstraint)

PARAM_FIELDS = (
    "mu1", "mu2", "nu1", "nu2", "n", "gamma1", "gamma2",
    "a1", "a2", "a3", "b1", "b2", "b3", "c", "s_pi", "s_w", "delta",
)

# The variant-B wage share fixed by the subsystem and the one forced by
# the capacity equations are closed forms in the same inputs, but the
# reference parameter sets typically quote mu1 to ~7 digits, leaving a
# ~3e-6 gap between the two.  1e-5 accepts such sets and still rejects
# genuinely inconsistent parameters.
PSI_CONSISTENCY_TOL = 1e-5


class DerivedConstants(NamedTuple):
    g: float
    rho0: float
    rho1: float


ModelParameters = NamedTuple(
    "ModelParameters", [*((name, float) for name in PARAM_FIELDS), ("derived", DerivedConstants)])


class SubsystemCoefficients(NamedTuple):
    """Reduced ODE coefficients for one subsystem variant."""

    variant: str  # "A" or "B"
    beta0: float
    lambda0: float
    delta0: float
    growth_coupling: float  # gamma2 for A, 0 for B
    wage_damping: float     # nu2 for A, mu2*nu2 for B
    rho1: float


class Equilibrium(NamedTuple):
    beta_e: float
    lambda_e: float
    interior: bool
    lambda_star: float | None = None  # variant B consistency value


def derive_constants(raw: dict) -> DerivedConstants:
    g = raw["c"] - (raw["s_pi"] - raw["s_w"])
    den = 1.0 - raw["a3"] * raw["b3"]
    rho0 = (raw["a1"] * (1.0 - raw["b3"]) - raw["b1"] * (1.0 - raw["a3"])) / den
    rho1 = raw["a2"] * (1.0 - raw["b3"]) / den
    return DerivedConstants(g=g, rho0=rho0, rho1=rho1)


# (field a violation names, fields the check reads, check, constraint text),
# checked in this order
_CONSTRAINTS = (
    ("mu1", ("mu1",), lambda v, r: v >= 0, "mu1 >= 0"),
    ("mu2", ("mu2",), lambda v, r: 0 < v <= 1, "0 < mu2 <= 1"),
    ("nu1", ("nu1",), lambda v, r: v >= 0, "nu1 >= 0"),
    ("nu2", ("nu2",), lambda v, r: v > 0, "nu2 > 0"),
    ("n", ("n",), lambda v, r: v >= 0, "n >= 0"),
    ("gamma1", ("gamma1",), lambda v, r: v >= 0, "gamma1 >= 0"),
    ("gamma2", ("gamma2",), lambda v, r: v >= 0, "gamma2 >= 0"),
    ("a1", ("a1",), lambda v, r: v > 0, "a1 > 0"),
    ("a2", ("a2",), lambda v, r: v > 0, "a2 > 0"),
    ("a3", ("a3",), lambda v, r: 0 <= v <= 1, "0 <= a3 <= 1"),
    ("b1", ("b1",), lambda v, r: v >= 0, "b1 >= 0"),
    ("b2", ("b2",), lambda v, r: v >= 0, "b2 >= 0"),
    ("b3", ("b3",), lambda v, r: 0 <= v < 1, "0 <= b3 < 1"),
    ("c", ("c",), lambda v, r: 0 < v < 1, "0 < c < 1"),
    ("s_pi", ("s_pi",), lambda v, r: 0 < v < 1, "0 < s_pi < 1"),
    ("s_w", ("s_w", "s_pi"), lambda v, r: 0 < v < r["s_pi"], "0 < s_w < s_pi"),
    ("delta", ("delta",), lambda v, r: v > 0, "delta > 0"),
    ("a3", ("a3", "b3"), lambda v, r: r["a3"] * r["b3"] < 1, "a3*b3 < 1"),
    ("c", ("c", "s_pi", "s_w"), lambda v, r: v - (r["s_pi"] - r["s_w"]) > 0,
     "g = c - (s_pi - s_w) > 0"),
)
_CONSTRAINTS_READING = {
    field: tuple(entry for entry in _CONSTRAINTS if field in entry[1])
    for field in PARAM_FIELDS
}
_DERIVATION_INPUTS = frozenset(("c", "s_pi", "s_w", "a1", "a2", "a3", "b1", "b3"))


def _real(name: str, v) -> float:
    """V as a finite float, or the ConstraintViolation that rejects it."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConstraintViolation(name, v, "must be a real number")
    try:
        v = float(v)
    except OverflowError:  # an int too large for a float, rejected as 1e400 is
        v = math.inf if v > 0 else -math.inf
    if not math.isfinite(v):
        raise ConstraintViolation(name, v, "must be finite")
    return v


def _check(constraints, values: dict) -> None:
    for name, _, check, text in constraints:
        if not check(values[name], values):
            raise ConstraintViolation(name, values[name], text)


def validate_parameters(raw: dict) -> ModelParameters:
    """Validate a raw parameter mapping against the admissible ranges.

    Raises MissingField / UnknownField / ConstraintViolation.
    """
    for name in PARAM_FIELDS:
        if name not in raw:
            raise MissingField(name)
    for name in raw:
        if name not in PARAM_FIELDS:
            raise UnknownField(name)
    values = {name: _real(name, raw[name]) for name in PARAM_FIELDS}
    _check(_CONSTRAINTS, values)
    return ModelParameters(derived=derive_constants(values), **values)


def replace_field(p: ModelParameters, name: str, value) -> ModelParameters:
    """P with field NAME set to VALUE, or the error validate_parameters would
    raise for the whole mapping: as P has passed, only the checks that read
    NAME run again, and the derived constants change only if NAME feeds them."""
    constraints = _CONSTRAINTS_READING.get(name)
    if constraints is None:
        raise UnknownField(name)
    values = {**p._asdict(), name: _real(name, value)}
    _check(constraints, values)
    if name in _DERIVATION_INPUTS:
        values["derived"] = derive_constants(values)
    return ModelParameters(**values)


def subsystem_coefficients(p: ModelParameters, variant: str) -> SubsystemCoefficients:
    """Reduce validated parameters to the coefficient bundle of one variant."""
    g, rho0, rho1 = p.derived.g, p.derived.rho0, p.derived.rho1
    if variant == "A":
        return SubsystemCoefficients(
            variant="A",
            beta0=(g - p.s_w) * p.delta - p.gamma1 - p.nu1 - p.n,
            lambda0=-p.gamma1 - rho0 - p.nu1,
            delta0=p.nu2 + g * p.delta,
            growth_coupling=p.gamma2,
            wage_damping=p.nu2,
            rho1=rho1,
        )
    if variant == "B":
        if not p.mu2 < 1:
            raise VariantConstraint("variant B requires mu2 < 1 strictly")
        return SubsystemCoefficients(
            variant="B",
            beta0=(g - p.s_w) * p.delta - p.mu1 - p.mu2 * p.nu1 - p.n,
            lambda0=-rho0 - p.mu1 - p.mu2 * p.nu1,
            delta0=g * p.delta + p.mu2 * p.nu2,
            growth_coupling=0.0,
            wage_damping=p.mu2 * p.nu2,
            rho1=rho1,
        )
    raise VariantConstraint(f"unknown variant {variant!r} (expected 'A' or 'B')")


def equilibrium(coeffs: SubsystemCoefficients, p: ModelParameters) -> Equilibrium:
    """Positive fixed point of the subsystem, via the closed forms."""
    g, rho0, rho1 = p.derived.g, p.derived.rho0, p.derived.rho1
    gd = g * p.delta
    if coeffs.variant == "A":
        den = rho1 * p.nu2 + gd * (rho1 + p.gamma2)
        if den == 0.0:
            raise EquilibriumUndefined("rho1*nu2 + g*delta*(rho1 + gamma2) = 0")
        beta_e = (gd * (p.gamma1 + p.nu1 + p.nu2 + rho0)
                  - p.nu2 * (p.n + p.s_w * p.delta - rho0)) / den
        lambda_e = (p.gamma2 * (gd + rho0 - p.n - p.s_w * p.delta)
                    - rho1 * (p.n + p.gamma1 + p.s_w * p.delta + p.nu1 - gd)) / den
        lambda_star = None
    else:
        if rho1 * coeffs.delta0 == 0.0:
            raise EquilibriumUndefined("rho1 * delta0 = 0")
        if (den := p.nu2 * (1.0 - p.mu2)) == 0.0:  # both positive, the product can underflow
            raise EquilibriumUndefined("nu2 * (1 - mu2) = 0")
        lambda_e = coeffs.beta0 / coeffs.delta0
        beta_e = (coeffs.wage_damping * coeffs.beta0
                  - coeffs.lambda0 * coeffs.delta0) / (rho1 * coeffs.delta0)
        lambda_star = (p.mu1 - p.nu1 * (1.0 - p.mu2)) / den
    if not (math.isfinite(beta_e) and math.isfinite(lambda_e)):
        raise EquilibriumUndefined(f"equilibrium ({beta_e}, {lambda_e}) is not finite")
    if lambda_star is not None and abs(lambda_star - lambda_e) > PSI_CONSISTENCY_TOL:
        raise InconsistentPsi(
            f"lambda_e* = {lambda_star!r} differs from lambda_e = {lambda_e!r}")
    interior = 0.0 < beta_e < 1.0 and 0.0 < lambda_e < 1.0
    return Equilibrium(beta_e=beta_e, lambda_e=lambda_e, interior=interior,
                       lambda_star=lambda_star)

