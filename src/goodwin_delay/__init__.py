"""Delay-induced Hopf bifurcation analysis of generalized Goodwin
growth-cycle subsystems: equilibria, critical delays, normal-form
direction/stability, and method-of-steps simulation."""

__version__ = "0.1.0"
