"""ckn-lab: extremals, symmetry thresholds, and Liouville diagnostics for
the weighted elliptic equation

    -div(|x|^{-2a} grad u) = |x|^{-b p} u^{p-1}   in R^N \\ {0},

with the critical exponent p = 2N / (N - 2 + 2(b - a)).  The package
works in the Emden-Fowler variable t = ln r, w = r^{lam} u, where the
radial equation is autonomous and the extremal is an explicit sech
power.  Modules:

    params    parameter algebra, admissibility, region taxonomy, duality
    profiles  closed-form extremals and log-grid profile containers
    radial    reduced ODE integration, shooting, Liouville certificates
    spectrum  linearized mode operators and the symmetry threshold
    energy    weighted energy integrals and decay diagnostics
    cli       deterministic command-line driver
"""

from . import energy, errors, params, profiles, radial, spectrum
from .errors import *
from .params import *
from .profiles import *
from .radial import *
from .spectrum import *
from .energy import *

__version__ = "0.1.0"

__all__ = (errors.__all__ + params.__all__ + profiles.__all__ + radial.__all__
           + spectrum.__all__ + energy.__all__ + ["__version__"])
