"""zline: the Riemann-Siegel Z function through a smoothing-kernel line
integral and its companion Dirichlet-type series.

The package provides three independent routes to Z(t) (classical oracle,
exact integral representation, series approximation), the staged
approximations connecting them, and zero-scanning / phase-statistics tools
built on top.  It exports __version__ and exactly the names its modules
list in their own __all__, in the order of the imports below.
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
from . import cli, errors, phase, quad, scan, series, special

__all__ = ["__version__", *errors.__all__, *special.__all__, *phase.__all__,
           *quad.__all__, *series.__all__, *scan.__all__, *cli.__all__]
