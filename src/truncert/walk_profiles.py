"""Walk profiles (chi, r) for Hamiltonians with a local quantum number.

A walk profile summarizes the part of a Hamiltonian that moves a local
quantum number lambda (boson occupation, electric field value, ...) by
one unit: writing H = H_W + H_R with H_R preserving lambda and H_W
changing it by exactly +-1, the profile asserts

    || H_W Pi_[-L, L] || <= chi * (L + 1)**r        for every window cap L.

Everything downstream (leakage bounds, truncation thresholds, tail
bounds) consumes only (chi, r), so each model family reduces to the two
numbers produced here.  r = 1/2 for bosonic couplings, r = 0 for gauge
links.
"""

from __future__ import annotations

import math
from typing import NamedTuple

__all__ = [
    "WalkProfile",
    "profile_single_mode",
    "profile_hubbard_holstein",
    "profile_u1",
    "profile_dicke",
    "speed_limit",
]


class _WalkProfile(NamedTuple):
    chi: float
    r: float
    label: str = ""


class WalkProfile(_WalkProfile):
    """Growth envelope of the quantum-number walk: chi * (L+1)**r."""

    __slots__ = ()

    def __new__(cls, chi: float, r: float, label: str = ""):
        if not math.isfinite(chi) or chi < 0:
            raise ValueError(f"chi must be finite and >= 0, got {chi}")
        if not 0 <= r < 1:
            raise ValueError(f"r must lie in [0, 1), got {r}")
        return super().__new__(cls, chi, r, label)


def profile_single_mode(g: float) -> WalkProfile:
    """Profile for a linear drive g*(b + b^dag): chi = 2|g|, r = 1/2."""
    return WalkProfile(chi=2.0 * abs(g), r=0.5, label="single_mode")


def profile_hubbard_holstein(g: float) -> WalkProfile:
    """Profile for a Holstein-type coupling g*(b + b^dag)*(local density).

    The density factor has operator norm at most one, and
    ||(b + b^dag) Pi_[0,L]|| <= 2*sqrt(L+1), hence chi = 2g, r = 1/2.
    """
    if g < 0:
        raise ValueError("coupling g must be >= 0")
    return WalkProfile(chi=2.0 * g, r=0.5, label="hubbard-holstein")


def profile_u1(g_B: float, g_GM: float) -> WalkProfile:
    """Profile for a U(1) gauge link: chi = 4|g_B| + 2|g_GM|, r = 0.

    Each link enters at most four plaquette terms and two gauge-matter
    hopping terms, and every link operator has unit norm.
    """
    return WalkProfile(chi=4.0 * abs(g_B) + 2.0 * abs(g_GM), r=0.0, label="u1-lgt")


def profile_dicke(g: float, n_spins: int) -> WalkProfile:
    """Profile for the Dicke coupling (g/sqrt(N))*(b + b^dag)*sum sigma_x."""
    if n_spins < 1:
        raise ValueError("n_spins must be >= 1")
    if g < 0:
        raise ValueError("coupling g must be >= 0")
    return WalkProfile(chi=2.0 * g * math.sqrt(n_spins), r=0.5, label="dicke")


def speed_limit(profile: WalkProfile, lambda0: int) -> float:
    """Largest |t| for which the one-step leakage bound holds.

    Equals 1 / (2*chi*(lambda0+1)**r); infinite when chi == 0 (the walk
    part vanishes and the window never grows).
    """
    if lambda0 < 0:
        raise ValueError("lambda0 must be >= 0")
    if profile.chi == 0.0:
        return math.inf
    return 1.0 / (2.0 * profile.chi * (lambda0 + 1.0) ** profile.r)
