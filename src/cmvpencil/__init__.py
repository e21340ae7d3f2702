"""Reflection-coefficient pencils on the half line.

A linear pencil of two involutive block matrices built from reflection
coefficients, the tridiagonal recurrences it generates, the transform
calculus connecting them (Christoffel-type shifts, even/odd splits,
rescalings), closed-form weights with singularity-aware quadrature, the
Weyl functions of the constant-coefficient case, and an exact
reflection-differential operator whose eigenfunctions the two-interval
family provides.
"""

# each module's __all__ is its public API; the package re-exports all of them
from . import cmv, dunkl, errors, maps, measures, recurrences, verify
from .cmv import *  # noqa: F403
from .dunkl import *  # noqa: F403
from .errors import *  # noqa: F403
from .maps import *  # noqa: F403
from .measures import *  # noqa: F403
from .recurrences import *  # noqa: F403
from .verify import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *recurrences.__all__,
    *cmv.__all__,
    *maps.__all__,
    *measures.__all__,
    *dunkl.__all__,
    *verify.__all__,
    *(name for name in vars(errors) if not name.startswith("_")),
]
