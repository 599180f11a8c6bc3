"""Concrete model Hamiltonians with named parts and walk profiles.

Each builder returns a ModelInstance carrying its named parts, the
sparse Hamiltonian the instance assembles as their sum, the walk profile
governing quantum-number growth, and the per-mode walk parts H_W used by
the empirical soundness experiments.

The builders assemble every term from the mode operators' target maps
(`fock_algebra.mode_action`, each sending a basis state to at most one
state): a product of such operators is one index gather per factor,
diagonal terms add into one vector in term order, and each part is
built as CSR once.  A sparse product remains only where two factors
both move states (the Hubbard-Holstein and Dicke couplings), for the
stored order of its rows.  Every stored array (values to the bit, stored
zeros, column order) is the one the sparse algebra of the same terms
gives, which the tests check against such an assembly.

The instances are finite proxies of unbounded Hamiltonians: build them
with cutoffs strictly above every window you intend to probe, and check
insensitivity by doubling the cutoff (padding discipline).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .fock_algebra import (
    ALL,
    CompositeBasis,
    ProjectorSpec,
    boson,
    build_basis,
    fermion,
    hermiticity_defect,
    mode_action,
    projector,
    rotor,
    spin_half,
)
from .walk_profiles import (
    WalkProfile,
    profile_dicke,
    profile_hubbard_holstein,
    profile_single_mode,
    profile_u1,
)

__all__ = [
    "ModelInstance",
    "single_mode",
    "hubbard_holstein_1d",
    "dicke",
    "u1_lgt_1d",
    "comm_norm_exact",
]

_HERM_TOL = 1e-12


@dataclass
class ModelInstance:
    """An assembled model: basis, Hamiltonian, parts, walk profile.

    hamiltonian is not passed in: building the instance sums parts in
    their order into it, so the parts add up to it by construction.

    walk_parts maps each truncatable mode index to the walk Hamiltonian
    H_W for that mode (the coupling terms that move its quantum number);
    the rest of the Hamiltonian commutes with the mode's number operator.

    sector_keys, when given, holds one integer per basis state: the value
    of a conserved charge that is diagonal in the Fock basis.  Building
    the instance checks that neither the Hamiltonian nor any part has a
    nonzero entry between states of different keys, so each is
    block-diagonal in the sectors (the states sharing a key).  The window
    projectors are diagonal too, so every window-column quantity the
    empirical checks measure is block-diagonal, and its top singular value
    is exactly the largest over sectors.  Each check's one window sweep
    (`propagate.window_sweep`) evolves the window columns of sectors
    with equal window counts together, as one stack,
    by a propagator prepared on the principal submatrix of the union of
    those sectors: it is block-diagonal over them, and its Gershgorin
    interval is the hull of theirs, so the engine's error bound holds
    sector by sector with the same tolerance.  None means one sector: the
    whole space.

    Every builder's parts, walk parts and Hamiltonian are float64: each
    mode entry and coupling is real.
    """

    label: str
    basis: CompositeBasis
    parts: dict[str, sp.csr_matrix]
    profile: WalkProfile
    walk_parts: dict[int, sp.csr_matrix] = field(default_factory=dict)
    sector_keys: np.ndarray | None = None
    hamiltonian: sp.csr_matrix = field(init=False)

    def __post_init__(self):
        total = None
        for part in self.parts.values():
            total = part if total is None else total + part
        if total is None:
            raise ValueError("a model needs at least one part")
        self.hamiltonian = total.tocsr()
        defect = hermiticity_defect(self.hamiltonian)
        if defect > _HERM_TOL:
            raise ValueError(f"hamiltonian not Hermitian (defect {defect:.3e})")
        if self.sector_keys is not None:
            self._check_sector_keys()
        self._comm_cache: dict[int, float] = {}

    def _check_sector_keys(self):
        keys = np.asarray(self.sector_keys)
        if keys.shape != (self.dimension,) or keys.dtype.kind not in "iu":
            raise ValueError("sector_keys needs one integer per basis state")
        for name, op in [("hamiltonian", self.hamiltonian), *self.parts.items()]:
            op = sp.csr_matrix(op)
            row_keys = np.repeat(keys, np.diff(op.indptr))
            cross = (row_keys != keys[op.indices]) & (op.data != 0)
            if cross.any():
                raise ValueError(f"{name} couples states of different sector keys")

    @property
    def dimension(self) -> int:
        return self.basis.dimension

    @property
    def cutoff(self) -> int:
        """Smallest cutoff among truncatable modes (the padding level)."""
        t = self.basis.truncatable_modes
        if not t:
            return 0
        return min(int(self.basis.modes[j].cutoff) for j in t)

    def truncated(self, lambda_tilde: int) -> sp.csr_matrix:
        """Pi H Pi, Pi the all-mode window [0, lambda_tilde], as the product Pi @ H @ Pi.

        The one padding check of Hamiltonian truncation: ValueError unless
        0 <= lambda_tilde and lambda_tilde + 2 <= cutoff.
        """
        lam = int(lambda_tilde)
        if lam < 0:
            raise ValueError("lambda_tilde must be >= 0")
        if self.cutoff < lam + 2:
            raise ValueError(f"padding insufficient: cutoff {self.cutoff} < lambda_tilde + 2")
        pi = projector(self.basis, ProjectorSpec(ALL, 0, lam))
        return (pi @ self.hamiltonian @ pi).tocsr()

    def comm_norm(self, lambda_tilde: int) -> float:
        """Cached ||[H, Pi H Pi]|| at a window, estimated from below (`comm_norm_exact`)."""
        key = int(lambda_tilde)
        if key not in self._comm_cache:
            self._comm_cache[key] = comm_norm_exact(self, key)
        return self._comm_cache[key]


def _zero(dim: int) -> sp.csr_matrix:
    return sp.csr_matrix((dim, dim))


def _diagonal(basis: CompositeBasis, mode_index: int, kind: str) -> np.ndarray:
    return mode_action(basis, mode_index, kind)[1]


def _product(*factors: tuple[np.ndarray, np.ndarray]):
    """(rows, cols, values) of the matrix product of `mode_action` factors.

    The rightmost factor acts first; each column is one index gather per
    factor, and the amplitudes multiply left factor times right.
    """
    target, amp = factors[-1]
    for t, a in reversed(factors[:-1]):
        live = target >= 0
        src = np.where(live, target, 0)
        amp = np.where(live, a[src] * amp, 0.0)
        target = np.where(live, t[src], -1)
    cols = np.flatnonzero(target >= 0)
    return target[cols], cols, amp[cols]


def _summed(terms: list, diag: np.ndarray) -> sp.csr_matrix:
    """Canonical CSR of a sum: (rows, cols, values) terms plus a diagonal vector.

    The terms' entries lie off the diagonal at distinct positions, and the
    diagonal holds the diagonal terms already added in order, so every
    entry is the value a chain of sparse additions would store; like that
    chain, this stores only the nonzero entries.
    """
    idx = np.arange(len(diag))
    rows, cols, vals = (np.concatenate(x) for x in zip((idx, idx, diag), *terms))
    stored = vals != 0
    return sp.csr_matrix(
        (vals[stored], (rows[stored], cols[stored])),
        shape=(len(diag), len(diag)),
    )


def _displacement(basis: CompositeBasis, mode_index: int) -> sp.csr_matrix:
    """b + b^dag of one boson mode."""
    rows, cols, vals = _product(mode_action(basis, mode_index, "annihilate"))
    return _summed([(rows, cols, vals), (cols, rows, vals)], np.zeros(basis.dimension))


def _sector_keys(*charges: np.ndarray) -> np.ndarray:
    """One integer per basis state, equal exactly where every charge is.

    Each charge, offset by its minimum (Gauss charges can be negative),
    is one digit of a mixed-radix code with the first charge most
    significant, so the code orders charge tuples lexicographically and
    the keys number the distinct tuples in that order.  The code is below
    the product of the charge ranges, far inside int64 for every model here.
    """
    code = np.zeros(len(charges[0]), dtype=np.int64)
    for q in charges:
        lo = int(q.min())
        code = code * (int(q.max()) - lo + 1) + (q - lo)
    _, keys = np.unique(code, return_inverse=True)
    return keys


# ---------------------------------------------------------------------------
# single driven oscillator
# ---------------------------------------------------------------------------

def single_mode(g_lin: float, omega0: float, n_max: int) -> ModelInstance:
    """H = g_lin (b + b^dag) + omega0 b^dag b on one boson mode.

    The drive walks the occupation by one quantum per application, so the
    walk profile is (chi = 2 |g_lin|, r = 1/2).  With omega0 = 0 and
    g_lin = 1 this generates a coherent state from vacuum: after time T
    the occupation is Poisson distributed with mean T^2.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    basis = build_basis([boson(n_max)])
    drive = g_lin * _displacement(basis, 0)
    osc = omega0 * _summed([], _diagonal(basis, 0, "number"))
    return ModelInstance(
        label="single_mode",
        basis=basis,
        parts={"drive": drive, "oscillator": osc},
        profile=profile_single_mode(g_lin),
        walk_parts={0: drive},
    )


# ---------------------------------------------------------------------------
# 1D Hubbard-Holstein chain
# ---------------------------------------------------------------------------

def hubbard_holstein_1d(
    n_sites: int,
    hop: float = 1.0,
    u: float = 0.0,
    mu: float = 0.0,
    g: float = 0.5,
    omega0: float = 1.0,
    n_max: int = 8,
    open_boundary: bool = True,
) -> ModelInstance:
    """Electron-phonon chain: per site [fermion up, fermion down, boson].

    fermion part: -hop sum over bonds and spins of c^dag c + h.c.,
    plus u (n_up - 1/2)(n_dn - 1/2) and -mu (n_up + n_dn) per site;
    coupling part: g sum_x (b_x + b_x^dag)(n_up + n_dn - 1);
    boson part: omega0 sum_x b^dag b.
    """
    if n_sites < 1:
        raise ValueError("n_sites must be >= 1")
    specs = []
    for x in range(n_sites):
        specs += [fermion(), fermion(), boson(n_max)]
    basis = build_basis(specs)
    dim = basis.dimension
    up = lambda x: 3 * x
    dn = lambda x: 3 * x + 1
    bmode = lambda x: 3 * x + 2
    occupied = [
        (_diagonal(basis, up(x), "number"), _diagonal(basis, dn(x), "number"))
        for x in range(n_sites)
    ]

    hops = []
    bonds = [(x, x + 1) for x in range(n_sites - 1)]
    if not open_boundary and n_sites > 2:
        bonds.append((n_sites - 1, 0))
    for x, y in bonds:
        for site_of in (up, dn):
            for a, b in ((x, y), (y, x)):
                rows, cols, vals = _product(
                    mode_action(basis, site_of(a), "create"),
                    mode_action(basis, site_of(b), "annihilate"),
                )
                hops.append((rows, cols, -hop * vals))
    onsite = np.zeros(dim)
    for nup, ndn in occupied:
        onsite += u * ((nup - 0.5) * (ndn - 0.5))
        onsite += (-mu) * (nup + ndn)

    # the sparse product stores each row of a coupling term with descending
    # columns and the sparse sums interleave them, the stored order that
    # comm_norm_exact's products of H read
    walk_parts: dict[int, sp.csr_matrix] = {}
    for x, (nup, ndn) in enumerate(occupied):
        walk_parts[bmode(x)] = (g * _displacement(basis, bmode(x))) @ _summed(
            [], nup + ndn - 1.0
        )

    phonons = np.zeros(dim)
    for x in range(n_sites):
        phonons += omega0 * _diagonal(basis, bmode(x), "number")

    parts = {
        "fermion": _summed(hops, onsite),
        "coupling": sum(walk_parts.values(), _zero(dim)),
        "boson": _summed([], phonons),
    }
    # hopping, Hubbard and phonon terms all conserve N_up and N_dn
    n_up = sum(basis.local_indices(up(x)) for x in range(n_sites))
    n_dn = sum(basis.local_indices(dn(x)) for x in range(n_sites))
    return ModelInstance(
        label="hubbard_holstein_1d",
        basis=basis,
        parts=parts,
        profile=profile_hubbard_holstein(abs(g)),
        walk_parts=walk_parts,
        sector_keys=_sector_keys(n_up, n_dn),
    )


# ---------------------------------------------------------------------------
# Dicke model
# ---------------------------------------------------------------------------

def dicke(
    n_spins: int, omega_c: float, omega_z: float, g: float, n_max: int
) -> ModelInstance:
    """Cavity mode coupled to n_spins two-level systems.

    H = omega_c b^dag b + omega_z sum sigma_z
        + (g / sqrt(n_spins)) (b + b^dag) sum sigma_x
    """
    if n_spins < 1:
        raise ValueError("n_spins must be >= 1")
    specs = [boson(n_max)] + [spin_half() for _ in range(n_spins)]
    basis = build_basis(specs)
    dim = basis.dimension

    sum_z = np.zeros(dim)
    for i in range(n_spins):
        sum_z += _diagonal(basis, 1 + i, "pauli_z")
    flips = [_product(mode_action(basis, 1 + i, "pauli_x")) for i in range(n_spins)]

    cavity = omega_c * _summed([], _diagonal(basis, 0, "number"))
    spins = omega_z * _summed([], sum_z)
    # a sparse product, for its stored order (see hubbard_holstein_1d)
    coupling = ((g / math.sqrt(n_spins)) * _displacement(basis, 0)) @ _summed(
        flips, np.zeros(dim)
    )
    # (b + b^dag) sigma_x moves the photon number and one spin index by one
    # each, so the parity of their sum is conserved
    excitations = sum(basis.local_indices(j) for j in range(1 + n_spins))
    return ModelInstance(
        label="dicke",
        basis=basis,
        parts={"cavity": cavity, "spins": spins, "coupling": coupling},
        profile=profile_dicke(abs(g), n_spins),
        walk_parts={0: coupling},
        sector_keys=_sector_keys(excitations % 2),
    )


# ---------------------------------------------------------------------------
# 1+1D U(1) lattice gauge theory, staggered fermions, open chain
# ---------------------------------------------------------------------------

def u1_lgt_1d(
    n_sites: int, g_m: float, g_gm: float, g_e: float, field_cap: int
) -> ModelInstance:
    """Staggered fermions on sites, integer rotors on links.

    mass part: g_m sum_x (-1)^x phi_x^dag phi_x;
    hopping part: g_gm sum_x (phi_x^dag U_x phi_{x+1} + h.c.) with U_x the
    link lowering operator; electric part: g_e sum_links E^2.  There is no
    magnetic term in one spatial dimension, so the walk profile carries
    the gauge-matter weight only.
    """
    if n_sites < 2:
        raise ValueError("n_sites must be >= 2")
    specs: list = []
    for x in range(n_sites):
        specs.append(fermion())
        if x < n_sites - 1:
            specs.append(rotor(field_cap))
    basis = build_basis(specs)
    dim = basis.dimension
    site = lambda x: 2 * x
    link = lambda x: 2 * x + 1

    mass = np.zeros(dim)
    for x in range(n_sites):
        mass += g_m * (-1) ** x * _diagonal(basis, site(x), "number")

    walk_parts: dict[int, sp.csr_matrix] = {}
    for x in range(n_sites - 1):
        rows, cols, vals = _product(
            mode_action(basis, site(x), "create"),
            mode_action(basis, link(x), "lower_link"),
            mode_action(basis, site(x + 1), "annihilate"),
        )
        walk_parts[link(x)] = g_gm * _summed(
            [(rows, cols, vals), (cols, rows, vals)], np.zeros(dim)
        )

    electric = np.zeros(dim)
    for x in range(n_sites - 1):
        e_x = _diagonal(basis, link(x), "efield")
        electric += g_e * (e_x * e_x)

    parts = {
        "mass": _summed([], mass),
        "hopping": sum(walk_parts.values(), _zero(dim)),
        "electric": _summed([], electric),
    }
    # Gauss-law charges G_x = E_x - E_{x-1} + n_x with the signed field
    # E = k (not the window quantum number |k|) and no field past the ends:
    # phi_x^dag U_x phi_{x+1} moves a fermion from x + 1 to x and lowers E_x
    links = [basis.local_indices(link(x)) - field_cap for x in range(n_sites - 1)]
    edge = np.zeros(dim, dtype=int)
    field = [edge, *links, edge]
    gauss = [
        field[x + 1] - field[x] + basis.local_indices(site(x)) for x in range(n_sites)
    ]
    return ModelInstance(
        label="u1_lgt_1d",
        basis=basis,
        parts=parts,
        profile=profile_u1(0.0, abs(g_gm)),
        walk_parts=walk_parts,
        sector_keys=_sector_keys(*gauss),
    )


# ---------------------------------------------------------------------------
# commutator norms for the Hamiltonian-truncation bound
# ---------------------------------------------------------------------------

def comm_norm_exact(model: ModelInstance, lambda_tilde: int) -> float:
    """Spectral norm of [H, Pi H Pi] with Pi H Pi = `model.truncated(lambda_tilde)`.

    The commutator is supported within two quantum numbers of the window
    edge, so the padding `ModelInstance.truncated` checks captures it
    exactly; the products sum each row of H and Pi H Pi in stored order.
    The norm is a power-iteration estimate (`propagate.op_norm`), which
    converges from below: 4.9e-6 relative under the dense norm on
    `dicke(3, 1.0, 0.7, 2.0, 12)` at lambda_tilde 10, so it is not yet
    the upper bound `bounds.hamiltonian_truncation_bounds` asks for.
    """
    h, ht = model.hamiltonian, model.truncated(lambda_tilde)
    c = h @ ht - ht @ h

    from .propagate import op_norm

    return op_norm(c)
