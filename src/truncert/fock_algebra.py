"""Composite mixed-radix bases and sparse operator assembly.

Modes are truncated bosons, spinless fermions, spin-1/2 sites, or integer
rotors (gauge links in the electric basis |k>, k in [-K, K]).  A
CompositeBasis fixes an ordered mode list; operators on the full space are
assembled as sparse Kronecker chains, with Jordan-Wigner sign strings over
the fermionic subsequence for fermionic ladder operators.

Projector windows act on the per-mode quantum number: occupation for
bosons and fermions, excitation index for spins, |k| for rotors (so the
window [0, L] on a rotor keeps the symmetric electric window [-L, L]).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np
import scipy.sparse as sp

__all__ = [
    "ALL",
    "DIM_CAP",
    "SPARSE_TOL",
    "ModeSpec",
    "CompositeBasis",
    "ProjectorSpec",
    "ResourceLimitError",
    "boson",
    "fermion",
    "spin_half",
    "rotor",
    "build_basis",
    "mode_operator",
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


class ResourceLimitError(RuntimeError):
    """Requested object exceeds a configured resource cap."""


@dataclass(frozen=True)
class ModeSpec:
    """One local mode: kind, cutoff (boson n_max or rotor K), label."""

    kind: str
    cutoff: int | None = None
    label: str = ""

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


def boson(n_max: int, label: str = "") -> ModeSpec:
    return ModeSpec("boson", n_max, label)


def fermion(label: str = "") -> ModeSpec:
    return ModeSpec("fermion", None, label)


def spin_half(label: str = "") -> ModeSpec:
    return ModeSpec("spin_half", None, label)


def rotor(field_cap: int, label: str = "") -> ModeSpec:
    return ModeSpec("rotor", field_cap, label)


class CompositeBasis:
    """Ordered modes with a mixed-radix codec over the product space.

    Mode 0 is the most significant digit, matching the Kronecker chain
    ordering used by mode_operator.
    """

    def __init__(self, modes: Sequence[ModeSpec], dim_cap: int = DIM_CAP):
        self.modes: tuple[ModeSpec, ...] = tuple(modes)
        dims = [m.dim for m in self.modes]
        dimension = math.prod(dims)
        if dimension > dim_cap:
            raise ResourceLimitError(
                f"composite dimension {dimension} exceeds cap {dim_cap}"
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

    def encode(self, state: Sequence[int]) -> int:
        if len(state) != self.n_modes:
            raise ValueError("state tuple length mismatch")
        idx = 0
        for s, d, stride in zip(state, self.dims, self.strides):
            if not 0 <= s < d:
                raise ValueError(f"local index {s} out of range [0, {d})")
            idx += s * stride
        return idx

    def decode(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.dimension:
            raise ValueError("index out of range")
        return tuple((index // stride) % d for d, stride in zip(self.dims, self.strides))

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


def build_basis(specs: Sequence[ModeSpec], dim_cap: int = DIM_CAP) -> CompositeBasis:
    return CompositeBasis(specs, dim_cap=dim_cap)


# ---------------------------------------------------------------------------
# local matrices and Kronecker embedding
# ---------------------------------------------------------------------------

def _boson_local(kind: str, n_max: int) -> sp.csr_matrix:
    d = n_max + 1
    amp = np.sqrt(np.arange(1, d))
    a = sp.diags(amp, 1)
    if kind == "annihilate":
        out = a
    elif kind == "create":
        out = a.T
    elif kind == "number":
        out = sp.diags(np.arange(d, dtype=float))
    elif kind == "position":
        out = (a + a.T) / math.sqrt(2.0)
    elif kind == "momentum":
        out = 1j * (a.T - a) / math.sqrt(2.0)
    else:
        raise TypeError(f"kind {kind!r} undefined for boson modes")
    return sp.csr_matrix(out, dtype=complex)


def _fermion_local(kind: str) -> sp.csr_matrix:
    if kind == "annihilate":
        m = np.array([[0, 1], [0, 0]], dtype=complex)
    elif kind == "create":
        m = np.array([[0, 0], [1, 0]], dtype=complex)
    elif kind == "number":
        m = np.diag([0.0, 1.0]).astype(complex)
    else:
        raise TypeError(f"kind {kind!r} undefined for fermion modes")
    return sp.csr_matrix(m)


def _spin_local(kind: str) -> sp.csr_matrix:
    if kind == "pauli_x":
        m = np.array([[0, 1], [1, 0]], dtype=complex)
    elif kind == "pauli_z":
        m = np.diag([1.0, -1.0]).astype(complex)
    else:
        raise TypeError(f"kind {kind!r} undefined for spin_half modes")
    return sp.csr_matrix(m)


def _rotor_local(kind: str, field_cap: int) -> sp.csr_matrix:
    d = 2 * field_cap + 1
    if kind == "efield":
        return sp.csr_matrix(
            sp.diags(np.arange(-field_cap, field_cap + 1, dtype=float)), dtype=complex
        )
    if kind == "lower_link":
        # <k-1| U |k> = 1; the k = -K edge column is annihilated.
        return sp.csr_matrix(sp.eye(d, k=1), dtype=complex)
    raise TypeError(f"kind {kind!r} undefined for rotor modes")


def _clean(op: sp.spmatrix) -> sp.csr_matrix:
    out = sp.csr_matrix(op)
    if out.nnz:
        out.data[np.abs(out.data) < SPARSE_TOL] = 0.0
        out.eliminate_zeros()
    out.sort_indices()
    return out


def _kron_chain(factors: Sequence[sp.spmatrix]) -> sp.csr_matrix:
    if not factors:
        return sp.identity(1, format="csr", dtype=complex)
    return reduce(lambda a, b: sp.kron(a, b, format="csr"), factors)


def mode_operator(basis: CompositeBasis, mode_index: int, kind: str) -> sp.csr_matrix:
    """Embed a single-mode operator into the full space.

    Fermionic ladder operators pick up a Jordan-Wigner sign string over
    the preceding fermion modes (other mode kinds are transparent to the
    string).  Matrix conventions: <m-1| b |m> = sqrt(m); position is
    (b + b^dag)/sqrt(2); momentum is i (b^dag - b)/sqrt(2); efield is
    diagonal with eigenvalue k; lower_link maps |k> to |k-1>.
    """
    if not 0 <= mode_index < basis.n_modes:
        raise ValueError(f"mode_index {mode_index} out of range")
    mode = basis.modes[mode_index]
    if mode.kind == "boson":
        local = _boson_local(kind, int(mode.cutoff))
    elif mode.kind == "fermion":
        local = _fermion_local(kind)
    elif mode.kind == "spin_half":
        local = _spin_local(kind)
    else:
        local = _rotor_local(kind, int(mode.cutoff))

    jw = mode.kind == "fermion" and kind in ("annihilate", "create")
    z_string = sp.csr_matrix(np.diag([1.0, -1.0]).astype(complex))
    factors: list[sp.spmatrix] = []
    for j, m in enumerate(basis.modes):
        if j == mode_index:
            factors.append(local)
        elif jw and j < mode_index and m.kind == "fermion":
            factors.append(z_string)
        else:
            factors.append(sp.identity(m.dim, format="csr", dtype=complex))
    return _clean(_kron_chain(factors))


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
    """Diagonal 0/1 projector onto the window (windows clip to mode range)."""
    mask = window_mask(basis, spec)
    return sp.csr_matrix(sp.diags(mask.astype(complex)))


# ---------------------------------------------------------------------------
# sparse arithmetic helpers
# ---------------------------------------------------------------------------

def hermiticity_defect(op: sp.spmatrix) -> float:
    """Largest entry magnitude of op - op^dagger."""
    diff = sp.coo_matrix(op - sp.csr_matrix(op).getH())
    if diff.nnz == 0:
        return 0.0
    return float(np.abs(diff.data).max())
