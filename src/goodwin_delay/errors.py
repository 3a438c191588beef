"""Exception and warning types shared across the package."""


class GoodwinDelayError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(GoodwinDelayError, ValueError):
    """A delay, horizon, step, history or ladder depth that is out of range."""


class MissingField(GoodwinDelayError):
    def __init__(self, name: str):
        super().__init__(f"missing parameter field: {name!r}")
        self.name = name


class UnknownField(GoodwinDelayError):
    def __init__(self, name: str):
        super().__init__(f"unknown parameter field: {name!r}")
        self.name = name


class ConstraintViolation(GoodwinDelayError):
    def __init__(self, name: str, value, constraint: str):
        super().__init__(f"parameter {name}={value!r} violates {constraint}")
        self.name = name
        self.value = value
        self.constraint = constraint


class VariantConstraint(GoodwinDelayError):
    """Requested subsystem variant is incompatible with the parameters."""


class EquilibriumUndefined(GoodwinDelayError):
    """Denominator of the closed-form equilibrium vanishes."""


class InconsistentPsi(GoodwinDelayError):
    """Variant-B capital-coefficient consistency condition fails.

    The wage share fixed by the beta/lambda subsystem must coincide with
    the value forced by the capacity-utilization equations; if it does
    not, the reduced 2D analysis is not meaningful.
    """


class NoCrossing(GoodwinDelayError):
    """No positive root of the auxiliary quadratic: no imaginary-axis
    crossing exists for any delay (delay-independent stability)."""


class AcosDomain(GoodwinDelayError):
    """Arccos argument outside [-1, 1] beyond tolerance."""


class ResidualCheckFailed(GoodwinDelayError):
    """A computed quantity failed its back-substitution residual check."""


class DegenerateCrossing(GoodwinDelayError):
    """h'(z0) vanishes; the transversality argument does not apply."""


class SingularSystem(GoodwinDelayError):
    """Linear system for a center-manifold correction term is singular."""


class DegenerateNormalization(GoodwinDelayError):
    """Eigenvector normalization denominator vanishes."""


class ZeroTransversality(GoodwinDelayError):
    """Re lambda'(tau_k) is zero; bifurcation direction is undefined."""


class StepTooLarge(GoodwinDelayError):
    """Requested step resolves the delay interval with fewer than 4 nodes."""


class GridTooLarge(GoodwinDelayError):
    """The delay, horizon and step need more grid slots than MAX_STEPS."""


class WindowTooShort(GoodwinDelayError):
    """Envelope window spans fewer than 5 grid steps."""


class NoOscillation(GoodwinDelayError):
    """Too few zero crossings to estimate an oscillation period."""


class NotInteriorWarning(UserWarning):
    """Equilibrium lies outside the open unit square (0,1)^2."""
