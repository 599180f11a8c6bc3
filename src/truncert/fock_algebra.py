"""Composite mixed-radix bases and sparse operator assembly.

Modes are truncated bosons, spinless fermions, spin-1/2 sites, or integer
rotors (gauge links in the electric basis |k>, k in [-K, K]).  A
CompositeBasis fixes an ordered mode list, mode 0 the most significant
mixed-radix digit.  Every single-mode operator the package defines sends a
basis state to at most one state, so it is described once, as a target
map: `mode_action` gives, for every full-space basis state, the state it
goes to (or -1) and the amplitude, by index arithmetic on the basis,
with Jordan-Wigner sign strings over the fermionic subsequence for
fermionic ladder operators.

Projector windows act on the per-mode quantum number: occupation for
bosons and fermions, excitation index for spins, |k| for rotors (so the
window [0, L] on a rotor keeps the symmetric electric window [-L, L]).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .bounds import ResourceLimitError

__all__ = [
    "ALL",
    "DIM_CAP",
    "SPARSE_TOL",
    "ModeSpec",
    "CompositeBasis",
    "ProjectorSpec",
    "boson",
    "fermion",
    "spin_half",
    "rotor",
    "build_basis",
    "mode_action",
    "window_mask",
    "projector",
    "hermiticity_defect",
]

#: Sentinel for "every truncatable mode" in a ProjectorSpec.
ALL = "all"

#: Hard cap on composite dimensions (resource guard).
DIM_CAP = 1 << 26

#: Entries below this magnitude are dropped from assembled operators.
SPARSE_TOL = 1e-15

_KINDS = ("boson", "fermion", "spin_half", "rotor")


@dataclass(frozen=True)
class ModeSpec:
    """One local mode: kind and cutoff (boson n_max or rotor K)."""

    kind: str
    cutoff: int | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown mode kind {self.kind!r}")
        if self.kind in ("boson", "rotor"):
            if self.cutoff is None or self.cutoff < 0 or int(self.cutoff) != self.cutoff:
                raise ValueError(f"{self.kind} mode needs an integer cutoff >= 0")
        elif self.cutoff is not None:
            raise ValueError(f"{self.kind} mode takes no cutoff")

    @property
    def dim(self) -> int:
        if self.kind == "boson":
            return int(self.cutoff) + 1
        if self.kind == "rotor":
            return 2 * int(self.cutoff) + 1
        return 2

    @property
    def truncatable(self) -> bool:
        return self.kind in ("boson", "rotor")

    def local_qn(self) -> np.ndarray:
        """Quantum number per local state (occupation, or |k| for rotors)."""
        if self.kind == "rotor":
            k = int(self.cutoff)
            return np.abs(np.arange(-k, k + 1))
        return np.arange(self.dim)


def boson(n_max: int) -> ModeSpec:
    return ModeSpec("boson", n_max)


def fermion() -> ModeSpec:
    return ModeSpec("fermion")


def spin_half() -> ModeSpec:
    return ModeSpec("spin_half")


def rotor(field_cap: int) -> ModeSpec:
    return ModeSpec("rotor", field_cap)


class CompositeBasis:
    """Ordered modes with a mixed-radix index over the product space.

    Mode 0 is the most significant mixed-radix digit: a mode's stride is
    the product of the dimensions of the modes after it, so a state's
    index is numpy's row-major `ravel_multi_index` of its local indices.
    """

    def __init__(self, modes: Sequence[ModeSpec]):
        self.modes: tuple[ModeSpec, ...] = tuple(modes)
        dims = [m.dim for m in self.modes]
        dimension = math.prod(dims)
        if dimension > DIM_CAP:
            raise ResourceLimitError(
                f"composite dimension {dimension} exceeds cap {DIM_CAP}"
            )
        self.dims = tuple(dims)
        self.dimension = dimension
        strides = []
        acc = 1
        for d in reversed(dims):
            strides.append(acc)
            acc *= d
        self.strides = tuple(reversed(strides))

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    @property
    def truncatable_modes(self) -> tuple[int, ...]:
        return tuple(j for j, m in enumerate(self.modes) if m.truncatable)

    def local_indices(self, mode_index: int) -> np.ndarray:
        """Local index of the given mode for every full-space basis state."""
        stride = self.strides[mode_index]
        d = self.dims[mode_index]
        return (np.arange(self.dimension) // stride) % d

    def mode_qn(self, mode_index: int) -> np.ndarray:
        """Quantum number of the given mode for every full-space basis state."""
        return self.modes[mode_index].local_qn()[self.local_indices(mode_index)]

    def __repr__(self):
        kinds = ",".join(m.kind for m in self.modes)
        return f"CompositeBasis([{kinds}], dim={self.dimension})"


def build_basis(specs: Sequence[ModeSpec]) -> CompositeBasis:
    return CompositeBasis(specs)


# ---------------------------------------------------------------------------
# local maps and mixed-radix embedding
# ---------------------------------------------------------------------------

def _local_action(mode: ModeSpec, kind: str):
    """(target, amp) per local state: the local state the single-mode
    operator sends it to (-1 where it annihilates it) and the amplitude."""
    idx = np.arange(mode.dim)
    if mode.kind == "boson":
        if kind == "annihilate":
            return idx - 1, np.sqrt(idx)  # <n-1| b |n> = sqrt(n)
        if kind == "number":
            return idx, idx.astype(float)
    elif mode.kind == "fermion":
        if kind == "annihilate":
            return idx - 1, idx.astype(float)
        if kind == "create":
            return np.array([1, -1]), np.array([1.0, 0.0])
        if kind == "number":
            return idx, idx.astype(float)
    elif mode.kind == "spin_half":
        if kind == "pauli_x":
            return 1 - idx, np.ones(2)
        if kind == "pauli_z":
            return idx, 1.0 - 2.0 * idx
    elif kind == "efield":  # the one kind left is rotor
        return idx, (idx - int(mode.cutoff)).astype(float)
    elif kind == "lower_link":
        # <k-1| U |k> = 1; the k = -K edge state is annihilated.
        return idx - 1, (idx > 0).astype(float)
    raise TypeError(f"kind {kind!r} undefined for {mode.kind} modes")


def mode_action(
    basis: CompositeBasis, mode_index: int, kind: str
) -> tuple[np.ndarray, np.ndarray]:
    """(target, amp) of a single-mode operator on every full-space basis state.

    Each kind sends basis state j to at most one state, target[j] (-1 where
    it annihilates j), with amplitude amp[j]; a diagonal kind has
    target[j] = j.  As I_left (x) L (x) I_right on the mixed-radix basis,
    state l*d*R + a*R + r goes to l*d*R + a'*R + r for every left block l
    and right offset r, a' the local target of a (d the mode's dimension,
    R its stride).  Fermionic ladder operators pick up the Jordan-Wigner
    sign (-1)^(occupation of the preceding fermion modes), read from each
    left block's digits.  Conventions: <m-1| b |m> = sqrt(m); efield has
    eigenvalue k; lower_link maps |k> to |k-1>.  An amplitude below
    SPARSE_TOL reads as target -1 and amp 0.  Targets are int64, amps float64.
    """
    if not 0 <= mode_index < basis.n_modes:
        raise ValueError(f"mode_index {mode_index} out of range")
    mode = basis.modes[mode_index]
    local_target, local_amp = _local_action(mode, kind)

    stride = basis.strides[mode_index]
    block = mode.dim * stride
    left = np.arange(basis.dimension // block)
    amp = local_amp[None, :]
    if mode.kind == "fermion" and kind in ("annihilate", "create"):
        occupied = np.zeros_like(left)
        for j in range(mode_index):
            if basis.modes[j].kind == "fermion":
                occupied += left * block // basis.strides[j] % 2
        amp = amp * ((-1) ** occupied)[:, None]
    live = (np.abs(local_amp) >= SPARSE_TOL)[None, :, None]
    base = (left * block)[:, None, None] + np.arange(stride)[None, None, :]
    target = np.where(live, base + (local_target * stride)[None, :, None], -1)
    amp = np.where(live, amp[..., None], 0.0)
    return target.ravel(), np.broadcast_to(amp, target.shape).ravel()


# ---------------------------------------------------------------------------
# projectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProjectorSpec:
    """Quantum-number window [lo, hi] on one mode, or on ALL truncatable modes."""

    mode_index: int | str
    lo: int
    hi: int

    def __post_init__(self):
        if self.hi < self.lo:
            raise ValueError("window is empty")
        if self.mode_index != ALL and (
            not isinstance(self.mode_index, int) or self.mode_index < 0
        ):
            raise ValueError("mode_index must be a mode position or ALL")


def window_mask(basis: CompositeBasis, spec: ProjectorSpec) -> np.ndarray:
    """Boolean membership vector of the window over the full basis."""
    if spec.mode_index == ALL:
        mask = np.ones(basis.dimension, dtype=bool)
        for j in basis.truncatable_modes:
            qn = basis.mode_qn(j)
            mask &= (qn >= spec.lo) & (qn <= spec.hi)
        return mask
    qn = basis.mode_qn(int(spec.mode_index))
    return (qn >= spec.lo) & (qn <= spec.hi)


def projector(basis: CompositeBasis, spec: ProjectorSpec) -> sp.csr_matrix:
    """Diagonal float64 0/1 projector onto the window (windows clip to mode range)."""
    mask = window_mask(basis, spec)
    return sp.csr_matrix(sp.diags(mask.astype(float)))


# ---------------------------------------------------------------------------
# sparse arithmetic helpers
# ---------------------------------------------------------------------------

def hermiticity_defect(op: sp.spmatrix) -> float:
    """Largest entry magnitude of op - op^dagger.

    One sparse difference, without a COO copy; the caller's matrix is
    not reordered.
    """
    a = sp.csr_matrix(op)
    diff = (a - a.T.tocsr().conj()).data
    return float(np.abs(diff).max()) if len(diff) else 0.0
