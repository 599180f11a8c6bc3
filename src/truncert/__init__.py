"""Certified truncation thresholds for bosonic and gauge-field simulation.

The package computes rigorous leakage, truncation, eigenstate-tail, and
product-formula bounds from a model's walk profile, and cross-checks every
bound against sparse exact evolution at desk scale.
"""

from __future__ import annotations

from . import bounds, fock_algebra, models, propagate, trotter, verify, walk_profiles
from .bounds import *  # noqa: F401,F403
from .fock_algebra import *  # noqa: F401,F403
from .models import *  # noqa: F401,F403
from .propagate import *  # noqa: F401,F403
from .trotter import *  # noqa: F401,F403
from .verify import *  # noqa: F401,F403
from .walk_profiles import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *bounds.__all__,
    *fock_algebra.__all__,
    *models.__all__,
    *propagate.__all__,
    *trotter.__all__,
    *verify.__all__,
    *walk_profiles.__all__,
]
