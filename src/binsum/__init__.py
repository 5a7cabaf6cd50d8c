"""Sums of binomial coefficients: decompositions, surveys, energy diagnostics.

Each module's ``__all__`` is the one list of its public names; the package
re-exports them all. The name ``binsum.binom`` is the function, which
shadows the submodule of that name (still ``sys.modules["binsum.binom"]``).
"""
from . import _version, binom as _binom, cache, energy, errors, experiments, records, represent
from ._version import *
from .binom import *
from .cache import *
from .energy import *
from .errors import *
from .experiments import *
from .records import *
from .represent import *

__all__ = [name for module in (_version, _binom, cache, energy, errors, experiments, records,
                               represent) for name in module.__all__]
del _binom
