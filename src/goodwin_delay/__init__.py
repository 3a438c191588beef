"""Delay-induced Hopf bifurcation analysis of generalized Goodwin
growth-cycle subsystems: equilibria, critical delays, normal-form
direction/stability, and method-of-steps simulation."""

__version__ = "0.1.0"

from .errors import GoodwinDelayError
from .model import (
    DerivedConstants,
    Equilibrium,
    ModelParameters,
    SubsystemCoefficients,
    equilibrium,
    replace_field,
    subsystem_coefficients,
    validate_parameters,
)
from .normal_form import HopfReport, eigen_pair, g_coefficients, hopf_analysis
from .simulate import HistorySpec, Trajectory, simulate
from .spectral import SpectralReport, Verdict, analyze_spectrum, stability_verdict

__all__ = [
    "GoodwinDelayError",
    "DerivedConstants",
    "Equilibrium",
    "ModelParameters",
    "SubsystemCoefficients",
    "equilibrium",
    "replace_field",
    "subsystem_coefficients",
    "validate_parameters",
    "HopfReport",
    "eigen_pair",
    "g_coefficients",
    "hopf_analysis",
    "HistorySpec",
    "Trajectory",
    "simulate",
    "SpectralReport",
    "Verdict",
    "analyze_spectrum",
    "stability_verdict",
    "__version__",
]
