"""Exception types shared across the package.

An error's class sets the CLI's exit code and the label of its message.
"""


class GoodwinDelayError(Exception):
    """Base class for all errors raised by this package."""
    exit_code = 2
    kind = "analysis"


class ConfigError(GoodwinDelayError):
    """A parameter or command-line value that is out of range."""
    exit_code = 1
    kind = "config"


class SimulationError(GoodwinDelayError):
    """A time integration or trajectory diagnostic that cannot run."""
    exit_code = 3
    kind = "simulation"


class InvalidInput(ConfigError, ValueError):
    """A delay, horizon, step, history or ladder depth that is out of range."""


class MissingField(ConfigError):
    def __init__(self, name: str):
        super().__init__(f"missing parameter field: {name!r}")
        self.name = name


class UnknownField(ConfigError):
    def __init__(self, name: str):
        super().__init__(f"unknown parameter field: {name!r}")
        self.name = name


class ConstraintViolation(ConfigError):
    def __init__(self, name: str, value, constraint: str):
        super().__init__(f"parameter {name}={value!r} violates {constraint}")
        self.name = name
        self.value = value
        self.constraint = constraint


class VariantConstraint(ConfigError):
    """Requested subsystem variant is incompatible with the parameters."""


class EquilibriumUndefined(GoodwinDelayError):
    """Denominator of the closed-form equilibrium vanishes."""


class InconsistentPsi(GoodwinDelayError):
    """Variant-B capital-coefficient consistency condition fails.

    The wage share fixed by the beta/lambda subsystem must coincide with
    the value forced by the capacity-utilization equations; if it does
    not, the reduced 2D analysis is not meaningful.
    """


class AcosDomain(GoodwinDelayError):
    """No crossing phase: omega <= 0 or q0 = 0."""


class NonFiniteCoefficient(GoodwinDelayError):
    """A spectral or normal-form coefficient overflows or is not finite."""


class ResidualCheckFailed(GoodwinDelayError):
    """A computed quantity failed its back-substitution residual check."""


class DegenerateCrossing(GoodwinDelayError):
    """h has a double root z0 (case H3), where h'(z0) = 0: the transversality argument
    does not apply."""


class SingularSystem(GoodwinDelayError):
    """Linear system for a center-manifold correction term is singular."""


class DegenerateNormalization(GoodwinDelayError):
    """Eigenvector normalization denominator vanishes."""


class ZeroTransversality(GoodwinDelayError):
    """Re lambda'(tau_k) is zero; bifurcation direction is undefined."""


class GridTooLarge(SimulationError):
    """The delay, horizon and step need more grid slots than MAX_STEPS."""


class WindowTooShort(SimulationError):
    """Envelope window spans fewer than 5 grid steps."""


class NoOscillation(SimulationError):
    """Too few zero crossings to estimate an oscillation period."""


class NotInteriorWarning(UserWarning):
    """Never raised (Equilibrium.interior flags it); the benchmark still imports it."""
