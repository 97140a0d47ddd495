"""zline: the Riemann-Siegel Z function through a smoothing-kernel line
integral and its companion Dirichlet-type series.

The package provides three independent routes to Z(t) (classical oracle,
exact integral representation, series approximation), the staged
approximations connecting them, and zero-scanning / phase-statistics tools
built on top.
"""
from __future__ import annotations

__version__ = "0.1.0"

from .errors import *
from .special import *
from .phase import *
from .quad import *
from .series import *
from .scan import *
from .cli import *

__all__ = [
    "__version__",
    "ConvergenceError",
    "PhaseTrackError",
    "ln_gamma",
    "oracle_terms",
    "rs_theta",
    "upper_incomplete_gamma",
    "z_oracle",
    "zeta",
    "ALPHA_SERIES",
    "L1_TERMS",
    "LOG_RHO_SERIES",
    "AsymptoticSeries",
    "PhasePolar",
    "alpha_asymptotic",
    "h_exact",
    "h_polar",
    "l1",
    "log_rho_asymptotic",
    "rho0",
    "theta",
    "theta_mod_2pi",
    "z_denominator",
    "StripProblem",
    "f_integral",
    "f_integral_grid",
    "f_on_line",
    "f_staged",
    "kernel",
    "omega_kernel",
    "strip_solve",
    "z_from_integral",
    "EulerianB",
    "eulerian_b",
    "fourier_cosh_moment",
    "g_series",
    "h_r_series_info",
    "h_series_grid",
    "z_approx",
    "z_g",
    "PhaseTrack",
    "XrayGrid",
    "ZeroScanReport",
    "c_statistic_profile",
    "continuous_arg",
    "count_zeros",
    "perturbation_phase_check",
    "phase_count_check",
    "xray_grid",
    "OutputRecord",
    "main",
]
