"""Numerical laboratory for 2D compressible-MHD current-vortex sheets.

The package covers the constructive side of the sheet problem on the
straightened half-plane: coefficient matrices and jump conditions, the
front-lifting geometry, the secondary Friedrichs symmetrizer with its
explicit multiplier fields and stability condition, anisotropic weighted
norms with a lifting operator, a characteristic linearized solver
with an energy ledger, compatibility jets with approximate solutions, and
a toy-scale Nash-Moser iteration.  The ``cvsheet`` CLI drives batch
experiments with machine-readable artifacts.
"""

__version__ = "0.1.0"

from .grid import Grid, GridFunction
from .mhd import IdealGasEos, PhysState
from .profiles import SigmaWeight
from .stability import build_lambda, check_stability, wang_yu_compare

__all__ = [
    "Grid", "GridFunction", "IdealGasEos", "PhysState",
    "SigmaWeight",
    "build_lambda", "check_stability", "wang_yu_compare",
    "__version__",
]
