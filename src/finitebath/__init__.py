"""Open quantum systems coupled to finite, evolving baths.

Subpackages:

* ``bath``: window layouts, spectra, random coupling matrices
* ``rates``: correlation functions and the three dissipation-rate routes
* ``emme``: the conditioned-state master equation and its solvers
* ``exact``: full Hilbert-space benchmark from the microcanonical initial state
* ``bms``: fixed-reference-bath comparison equation
* ``thermo``: nonequilibrium thermodynamic ledger
* ``cli``: reproducible scenario runner
"""

__version__ = "0.1.0"

from .errors import (
    ConfigurationError,
    DimensionCapExceeded,
    FiniteBathError,
    NumericalFailure,
)

__all__ = [
    "ConfigurationError",
    "DimensionCapExceeded",
    "FiniteBathError",
    "NumericalFailure",
    "__version__",
]
