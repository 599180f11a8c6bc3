"""Model builders: spectra, part decompositions, walk-profile soundness."""

import dataclasses
import functools
import math
import operator

import numpy as np
import pytest
import scipy.sparse as sp
from test_fock import kron_mode_operator, mode_operator

from truncert import fock_algebra, models
from truncert.fock_algebra import ALL, ProjectorSpec, projector
from truncert.models import (
    comm_norm_exact,
    dicke,
    hubbard_holstein_1d,
    single_mode,
    u1_lgt_1d,
)
from truncert.propagate import WindowSweep, op_norm
from truncert.walk_profiles import (
    profile_dicke,
    profile_hubbard_holstein,
    profile_single_mode,
    profile_u1,
)


def _dense(op):
    return np.asarray(op.todense())


ALL_MODELS = [
    single_mode(1.0, 1.0, 8),
    hubbard_holstein_1d(2, hop=1.0, u=2.0, mu=0.3, g=0.5, omega0=1.0, n_max=3),
    dicke(2, 1.0, 0.7, 0.4, 3),
    u1_lgt_1d(3, g_m=1.0, g_gm=0.8, g_e=0.9, field_cap=2),
]


# ---------------------------------------------------------------------------
# construction invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.label)
def test_parts_sum_to_hamiltonian(model):
    total = sum(model.parts.values())
    assert abs(model.hamiltonian - total).max() == 0.0


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.label)
def test_walk_parts_move_quantum_number_by_one(model):
    """Every walk entry connects states whose mode qn differs by exactly 1."""
    for mode, hw in model.walk_parts.items():
        qn = model.basis.mode_qn(mode)
        coo = sp.coo_matrix(hw)
        jumps = np.abs(qn[coo.row] - qn[coo.col])
        assert np.all(jumps == 1)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.label)
def test_remainder_preserves_quantum_numbers(model):
    hr = model.hamiltonian - sum(model.walk_parts.values())
    coo = sp.coo_matrix(hr)
    for mode in model.basis.truncatable_modes:
        qn = model.basis.mode_qn(mode)
        assert np.all(qn[coo.row] == qn[coo.col])


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.label)
def test_walk_profile_is_sound(model):
    """||H_W Pi_[0,L]|| <= chi (L+1)^r for each truncatable mode and L."""
    chi, r = model.profile.chi, model.profile.r
    for mode, hw in model.walk_parts.items():
        top = model.basis.modes[mode].cutoff
        for lam in range(0, top):
            pi = projector(model.basis, ProjectorSpec(mode, 0, lam))
            norm = op_norm(hw @ pi, tol=1e-10)
            assert norm <= chi * (lam + 1.0) ** r + 1e-7


def test_cutoff_property():
    model = hubbard_holstein_1d(2, n_max=5)
    assert model.cutoff == 5
    mixed = u1_lgt_1d(2, 1.0, 1.0, 1.0, field_cap=3)
    assert mixed.cutoff == 3


# ---------------------------------------------------------------------------
# single mode
# ---------------------------------------------------------------------------

def test_single_mode_drive_element():
    model = single_mode(0.7, 1.3, 6)
    h = _dense(model.hamiltonian)
    assert h[0, 1] == pytest.approx(0.7)
    assert h[3, 3] == pytest.approx(3 * 1.3)


def test_single_mode_profile():
    model = single_mode(-1.5, 0.0, 4)
    assert model.profile.chi == pytest.approx(3.0)
    assert model.profile.r == 0.5


# ---------------------------------------------------------------------------
# Hubbard-Holstein
# ---------------------------------------------------------------------------

def test_hh_single_site_fermion_spectrum():
    """One site, g=0: spectrum is the atomic limit plus free phonons."""
    u, mu, w = 2.0, 0.3, 1.1
    model = hubbard_holstein_1d(1, hop=0.0, u=u, mu=mu, g=0.0,
                                omega0=w, n_max=1)
    atomic = [u / 4, -u / 4 - mu, -u / 4 - mu, u / 4 - 2 * mu]
    expect = sorted(e + w * n for e in atomic for n in (0, 1))
    got = np.linalg.eigvalsh(_dense(model.hamiltonian))
    assert np.allclose(got, expect, atol=1e-12)


def test_hh_hopping_sign():
    """Two sites, single up electron: kinetic eigenvalues are -hop and +hop."""
    model = hubbard_holstein_1d(2, hop=0.7, u=0.0, mu=0.0, g=0.0,
                                omega0=1.0, n_max=0)
    h = _dense(model.parts["fermion"])
    up0 = np.ravel_multi_index([1, 0, 0, 0, 0, 0], model.basis.dims)
    up1 = np.ravel_multi_index([0, 0, 0, 1, 0, 0], model.basis.dims)
    block = h[np.ix_([up0, up1], [up0, up1])]
    assert np.allclose(np.linalg.eigvalsh(block), [-0.7, 0.7])


def test_hh_coupling_counts_charge_deviation():
    model = hubbard_holstein_1d(1, hop=0.0, u=0.0, mu=0.0, g=0.9,
                                omega0=1.0, n_max=2)
    c = _dense(model.parts["coupling"])
    empty = np.ravel_multi_index([0, 0, 0], model.basis.dims)
    empty1 = np.ravel_multi_index([0, 0, 1], model.basis.dims)
    # (n_up + n_dn - 1) = -1 on the empty site
    assert c[empty1, empty] == pytest.approx(-0.9)
    both0 = np.ravel_multi_index([1, 1, 0], model.basis.dims)
    both1 = np.ravel_multi_index([1, 1, 1], model.basis.dims)
    # ... and +1 on the doubly occupied site
    assert c[both1, both0] == pytest.approx(0.9)


def test_hh_periodic_adds_wrap_bond():
    open_m = hubbard_holstein_1d(3, hop=1.0, g=0.0, n_max=0, open_boundary=True)
    per_m = hubbard_holstein_1d(3, hop=1.0, g=0.0, n_max=0, open_boundary=False)
    assert per_m.parts["fermion"].nnz > open_m.parts["fermion"].nnz


def test_hh_profile():
    model = hubbard_holstein_1d(2, g=-0.25, n_max=2)
    assert model.profile.chi == pytest.approx(0.5)
    assert model.profile.r == 0.5


# ---------------------------------------------------------------------------
# Dicke
# ---------------------------------------------------------------------------

def test_dicke_hand_matrix():
    wc, wz, g = 1.2, 0.8, 0.3
    model = dicke(1, wc, wz, g, n_max=1)
    h = _dense(model.hamiltonian)
    assert np.allclose(np.diag(h), [wz, -wz, wc + wz, wc - wz])
    for i, j in [(0, 3), (1, 2), (2, 1), (3, 0)]:
        assert h[i, j] == pytest.approx(g)


def test_dicke_decoupled_spectrum():
    wc, wz = 1.0, 0.7
    model = dicke(2, wc, wz, 0.0, n_max=2)
    expect = sorted(
        wc * n + wz * m for n in range(3) for m in (-2, 0, 0, 2)
    )
    got = np.linalg.eigvalsh(_dense(model.hamiltonian))
    assert np.allclose(got, expect, atol=1e-12)


def test_dicke_profile_collective_scaling():
    model = dicke(9, 1.0, 1.0, 0.5, n_max=1)
    assert model.profile.chi == pytest.approx(2 * 0.5 * 3.0)


# ---------------------------------------------------------------------------
# U(1) lattice gauge theory
# ---------------------------------------------------------------------------

def test_u1_dimension():
    model = u1_lgt_1d(2, 1.0, 1.0, 1.0, field_cap=1)
    assert model.dimension == 2 * 3 * 2


def test_u1_diagonal_without_hopping():
    model = u1_lgt_1d(2, g_m=1.5, g_gm=0.0, g_e=0.7, field_cap=1)
    h = sp.coo_matrix(model.hamiltonian)
    assert np.all(h.row == h.col)


def test_u1_staggered_mass_alternates():
    model = u1_lgt_1d(2, g_m=2.0, g_gm=0.0, g_e=0.0, field_cap=1)
    h = _dense(model.hamiltonian)
    occ_even = np.ravel_multi_index([1, 1, 0], model.basis.dims)
    occ_odd = np.ravel_multi_index([0, 1, 1], model.basis.dims)
    assert h[occ_even, occ_even] == pytest.approx(2.0)
    assert h[occ_odd, occ_odd] == pytest.approx(-2.0)


def test_u1_electric_energy_quadratic():
    model = u1_lgt_1d(2, g_m=0.0, g_gm=0.0, g_e=0.5, field_cap=2)
    h = _dense(model.hamiltonian)
    for k in range(-2, 3):
        idx = np.ravel_multi_index([0, k + 2, 0], model.basis.dims)
        assert h[idx, idx] == pytest.approx(0.5 * k * k)


def test_u1_gauss_law_commutes():
    """E_y - E_{y-1} + n_y generates the local symmetry the builder encodes."""
    model = u1_lgt_1d(3, g_m=1.0, g_gm=0.8, g_e=0.9, field_cap=2)
    basis = model.basis
    dim = basis.dimension
    zero = sp.csr_matrix((dim, dim))
    for y in range(3):
        g_op = mode_operator(basis, 2 * y, "number")
        if y < 2:
            g_op = g_op + mode_operator(basis, 2 * y + 1, "efield")
        if y > 0:
            g_op = g_op - mode_operator(basis, 2 * y - 1, "efield")
        comm = g_op @ model.hamiltonian - model.hamiltonian @ g_op
        assert abs(comm - zero).max() < 1e-12


def test_u1_profile_is_gauge_type():
    model = u1_lgt_1d(2, g_m=3.0, g_gm=0.6, g_e=1.0, field_cap=1)
    assert model.profile.r == 0.0
    assert model.profile.chi == pytest.approx(2 * 0.6)


# ---------------------------------------------------------------------------
# assembly: the index-arithmetic builders against sparse-algebra builders
# ---------------------------------------------------------------------------
#
# The oracle builders below assemble every model by sparse algebra (sums,
# products, adjoints and scalar multiples of embedded mode operators), the
# way the package built them before it assembled them by index arithmetic.
# They take the mode-operator embedding as an argument; the test runs them
# on the Kronecker-chain embedding of test_fock, so no package assembly
# code enters the reference.


def _algebraic_single_mode(op, g_lin, omega0, n_max):
    basis = fock_algebra.build_basis([fock_algebra.boson(n_max)])
    b = op(basis, 0, "annihilate")
    num = op(basis, 0, "number")
    drive = g_lin * (b + b.getH())
    osc = omega0 * num
    return models.ModelInstance(
        label="single_mode",
        basis=basis,
        parts={"drive": drive.tocsr(), "oscillator": osc.tocsr()},
        profile=profile_single_mode(g_lin),
        walk_parts={0: drive.tocsr()},
    )


def _algebraic_hubbard_holstein_1d(
    op, n_sites, hop=1.0, u=0.0, mu=0.0, g=0.5, omega0=1.0, n_max=8, open_boundary=True
):
    specs = []
    for x in range(n_sites):
        specs += [
            fock_algebra.fermion(),
            fock_algebra.fermion(),
            fock_algebra.boson(n_max),
        ]
    basis = fock_algebra.build_basis(specs)
    dim = basis.dimension
    up = lambda x: 3 * x
    dn = lambda x: 3 * x + 1
    bmode = lambda x: 3 * x + 2

    ident = sp.identity(dim, format="csr")
    h_f = models._zero(dim)
    bonds = [(x, x + 1) for x in range(n_sites - 1)]
    if not open_boundary and n_sites > 2:
        bonds.append((n_sites - 1, 0))
    for x, y in bonds:
        for site_of in (up, dn):
            cx = op(basis, site_of(x), "annihilate")
            cy = op(basis, site_of(y), "annihilate")
            h_f = h_f + (-hop) * (cx.getH() @ cy + cy.getH() @ cx)
    for x in range(n_sites):
        nup = op(basis, up(x), "number")
        ndn = op(basis, dn(x), "number")
        h_f = h_f + u * ((nup - 0.5 * ident) @ (ndn - 0.5 * ident))
        h_f = h_f + (-mu) * (nup + ndn)

    h_fb = models._zero(dim)
    walk_parts = {}
    for x in range(n_sites):
        bx = op(basis, bmode(x), "annihilate")
        nup = op(basis, up(x), "number")
        ndn = op(basis, dn(x), "number")
        term = (g * (bx + bx.getH()) @ (nup + ndn - ident)).tocsr()
        walk_parts[bmode(x)] = term
        h_fb = h_fb + term

    h_b = models._zero(dim)
    for x in range(n_sites):
        h_b = h_b + omega0 * op(basis, bmode(x), "number")

    parts = {"fermion": h_f.tocsr(), "coupling": h_fb.tocsr(), "boson": h_b.tocsr()}
    n_up = sum(basis.local_indices(up(x)) for x in range(n_sites))
    n_dn = sum(basis.local_indices(dn(x)) for x in range(n_sites))
    return models.ModelInstance(
        label="hubbard_holstein_1d",
        basis=basis,
        parts=parts,
        profile=profile_hubbard_holstein(abs(g)),
        walk_parts=walk_parts,
        sector_keys=models._sector_keys(n_up, n_dn),
    )


def _algebraic_dicke(op, n_spins, omega_c, omega_z, g, n_max):
    specs = [fock_algebra.boson(n_max)]
    specs += [fock_algebra.spin_half() for _ in range(n_spins)]
    basis = fock_algebra.build_basis(specs)
    dim = basis.dimension

    num = op(basis, 0, "number")
    b = op(basis, 0, "annihilate")
    sum_z = models._zero(dim)
    sum_x = models._zero(dim)
    for i in range(n_spins):
        sum_z = sum_z + op(basis, 1 + i, "pauli_z")
        sum_x = sum_x + op(basis, 1 + i, "pauli_x")

    cavity = (omega_c * num).tocsr()
    spins = (omega_z * sum_z).tocsr()
    coupling = ((g / math.sqrt(n_spins)) * (b + b.getH()) @ sum_x).tocsr()
    excitations = sum(basis.local_indices(j) for j in range(1 + n_spins))
    return models.ModelInstance(
        label="dicke",
        basis=basis,
        parts={"cavity": cavity, "spins": spins, "coupling": coupling},
        profile=profile_dicke(abs(g), n_spins),
        walk_parts={0: coupling},
        sector_keys=models._sector_keys(excitations % 2),
    )


def _algebraic_u1_lgt_1d(op, n_sites, g_m, g_gm, g_e, field_cap):
    specs = []
    for x in range(n_sites):
        specs.append(fock_algebra.fermion())
        if x < n_sites - 1:
            specs.append(fock_algebra.rotor(field_cap))
    basis = fock_algebra.build_basis(specs)
    dim = basis.dimension
    site = lambda x: 2 * x
    link = lambda x: 2 * x + 1

    h_m = models._zero(dim)
    for x in range(n_sites):
        h_m = h_m + g_m * (-1) ** x * op(basis, site(x), "number")

    h_gm = models._zero(dim)
    walk_parts = {}
    for x in range(n_sites - 1):
        phi_x = op(basis, site(x), "annihilate")
        phi_y = op(basis, site(x + 1), "annihilate")
        u_x = op(basis, link(x), "lower_link")
        term = phi_x.getH() @ u_x @ phi_y
        term = (g_gm * (term + term.getH())).tocsr()
        walk_parts[link(x)] = term
        h_gm = h_gm + term

    h_e = models._zero(dim)
    for x in range(n_sites - 1):
        e_x = op(basis, link(x), "efield")
        h_e = h_e + g_e * (e_x @ e_x)

    parts = {"mass": h_m.tocsr(), "hopping": h_gm.tocsr(), "electric": h_e.tocsr()}
    return models.ModelInstance(
        label="u1_lgt_1d",
        basis=basis,
        parts=parts,
        profile=profile_u1(0.0, abs(g_gm)),
        walk_parts=walk_parts,
    )


ORACLES = {
    single_mode: _algebraic_single_mode,
    hubbard_holstein_1d: _algebraic_hubbard_holstein_1d,
    dicke: _algebraic_dicke,
    u1_lgt_1d: _algebraic_u1_lgt_1d,
}

#: name -> (builder, call); call(f) builds the case with f, the package
#: builder or its oracle.  Zero, negative and mixed-sign couplings reach
#: the stored-zero and signed-zero cases of the sparse algebra.
BUILDS = {
    "single_mode": (single_mode, lambda f: f(0.8, 1.3, 9)),
    "single_mode_undriven": (single_mode, lambda f: f(0.0, -1.3, 9)),
    "hh2_open": (hubbard_holstein_1d, lambda f: f(2, hop=1.0, u=2.0, mu=0.3, g=0.5, n_max=4)),
    "hh2_periodic": (
        hubbard_holstein_1d,
        lambda f: f(2, hop=0.7, u=0.5, g=0.4, n_max=3, open_boundary=False),
    ),
    "hh2_nmax13": (
        hubbard_holstein_1d, lambda f: f(2, hop=1.0, u=0.5, g=0.5, omega0=1.0, n_max=13)
    ),
    "hh2_negative_g": (
        hubbard_holstein_1d, lambda f: f(2, hop=0.9, u=0.5, g=-0.45, omega0=1.1, n_max=6)
    ),
    "hh2_mu": (
        hubbard_holstein_1d, lambda f: f(2, hop=-1.1, u=-0.3, mu=0.7, g=0.35, n_max=5)
    ),
    "hh2_zero_couplings": (
        hubbard_holstein_1d, lambda f: f(2, hop=0.0, u=0.0, mu=0.0, g=0.0, omega0=0.0, n_max=3)
    ),
    "hh1": (hubbard_holstein_1d, lambda f: f(1, u=1.5, mu=-0.2, g=0.6, n_max=5)),
    "hh3_open": (hubbard_holstein_1d, lambda f: f(3, u=0.7, g=0.4, n_max=2)),
    "hh3_periodic": (
        hubbard_holstein_1d,
        lambda f: f(3, hop=1.2, u=0.7, mu=0.1, g=0.4, n_max=2, open_boundary=False),
    ),
    "dicke": (dicke, lambda f: f(2, 1.0, 0.7, 0.4, 5)),
    "dicke1": (dicke, lambda f: f(1, 1.0, 0.7, 0.4, 6)),
    "dicke3": (dicke, lambda f: f(3, 1.0, 0.7, 0.4, 20)),
    "dicke3_signs": (dicke, lambda f: f(3, 0.0, -0.6, -0.3, 4)),
    "u1": (u1_lgt_1d, lambda f: f(3, g_m=1.0, g_gm=0.8, g_e=0.9, field_cap=2)),
    "u1_signs": (u1_lgt_1d, lambda f: f(4, g_m=-0.7, g_gm=-0.8, g_e=0.0, field_cap=1)),
    "u1_zero_hopping": (u1_lgt_1d, lambda f: f(2, g_m=0.5, g_gm=0.0, g_e=1.3, field_cap=3)),
}


def _same_csr(a, b):
    return (
        a.shape == b.shape
        and a.dtype == b.dtype
        and a.indptr.dtype == b.indptr.dtype
        and a.indices.dtype == b.indices.dtype
        and np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
        and a.data.tobytes() == b.data.tobytes()
    )


@pytest.mark.parametrize("name", BUILDS)
def test_models_bit_identical_to_kronecker_assembly(name):
    """Every builder stores exactly the arrays of its sparse-algebra oracle
    on the Kronecker embedding: values to the bit (signed zeros included),
    stored zeros, and the column order of every row."""
    builder, call = BUILDS[name]
    built = call(builder)
    ref = call(functools.partial(ORACLES[builder], kron_mode_operator))
    # H as the sparse sum of the oracle's parts, in their order
    assert _same_csr(built.hamiltonian, functools.reduce(operator.add, ref.parts.values()))
    assert list(built.parts) == list(ref.parts)
    for key in ref.parts:
        assert _same_csr(built.parts[key], ref.parts[key]), key
    assert list(built.walk_parts) == list(ref.walk_parts)
    for key in ref.walk_parts:
        assert _same_csr(built.walk_parts[key], ref.walk_parts[key]), key


# ---------------------------------------------------------------------------
# sector keys
# ---------------------------------------------------------------------------

SECTORED = [
    (hubbard_holstein_1d(2, hop=1.0, u=2.0, mu=0.3, g=0.5, n_max=3), 9),
    (hubbard_holstein_1d(3, u=0.7, g=0.4, n_max=2, open_boundary=False), 16),
    (dicke(2, 1.0, 0.7, 0.4, 3), 2),
    (u1_lgt_1d(3, g_m=1.0, g_gm=0.8, g_e=0.9, field_cap=3), 224),
]


@pytest.mark.parametrize(
    "model, n_sectors", SECTORED, ids=["hh_open", "hh_periodic", "dicke", "u1"]
)
def test_sector_keys_block_diagonalize_every_part(model, n_sectors):
    keys = model.sector_keys
    assert keys.shape == (model.dimension,)
    assert len(np.unique(keys)) == n_sectors
    for op in [model.hamiltonian, *model.parts.values()]:
        coo = sp.coo_matrix(op)
        nonzero = coo.data != 0
        assert nonzero.any()
        assert np.array_equal(keys[coo.row[nonzero]], keys[coo.col[nonzero]])


def _row_sort_labels(*charges):
    """Reference labels: the distinct charge rows, sorted, numbered in order."""
    return np.unique(np.stack(charges, axis=1), axis=0, return_inverse=True)[1].ravel()


def _charges(model):
    """The conserved charges, sized by the mode list the builder arguments fixed."""
    digit, modes = model.basis.local_indices, model.basis.modes
    if model.label == "hubbard_holstein_1d":  # n_sites x [up, dn, boson]
        n = len(modes) // 3
        return [sum(digit(3 * x + s) for x in range(n)) for s in (0, 1)]
    if model.label == "dicke":  # [cavity] + n_spins spins
        return [sum(digit(j) for j in range(len(modes))) % 2]
    # n_sites fermions and n_sites - 1 rotor links of cutoff field_cap, interleaved
    n, k = (len(modes) + 1) // 2, modes[1].cutoff
    field = [0, *(digit(2 * x + 1) - k for x in range(n - 1)), 0]
    return [field[x + 1] - field[x] + digit(2 * x) for x in range(n)]


@pytest.mark.parametrize(
    "model", [m for m, _ in SECTORED], ids=["hh_open", "hh_periodic", "dicke", "u1"]
)
def test_sector_keys_match_row_sort_labels(model):
    """The mixed-radix code numbers the sectors exactly as a row sort of the charges."""
    want = _row_sort_labels(*_charges(model))
    assert model.sector_keys.dtype == want.dtype
    assert np.array_equal(model.sector_keys, want)


def test_wrong_sector_keys_are_rejected():
    hh = hubbard_holstein_1d(2, g=0.5, n_max=3)
    phonons = hh.basis.local_indices(2)  # the coupling part changes it
    with pytest.raises(ValueError, match="hamiltonian couples states"):
        dataclasses.replace(hh, sector_keys=phonons)
    # a diagonal H whose parts are not: every part is checked, not only H
    drive = single_mode(1.0, 0.0, 4)
    x, number = drive.hamiltonian, single_mode(0.0, 1.0, 4).hamiltonian
    with pytest.raises(ValueError, match="push couples states"):
        dataclasses.replace(
            drive,
            parts={"push": x, "rest": (number - x).tocsr()},
            sector_keys=np.arange(drive.dimension),
        )
    with pytest.raises(ValueError, match="one integer per basis state"):
        dataclasses.replace(hh, sector_keys=hh.sector_keys[:-1])
    with pytest.raises(ValueError, match="one integer per basis state"):
        dataclasses.replace(hh, sector_keys=hh.sector_keys.astype(float))
    # Gauss law with the opposite sign of the signed field: hopping breaks it
    u1 = u1_lgt_1d(3, g_m=1.0, g_gm=0.8, g_e=0.9, field_cap=2)
    digit, k = u1.basis.local_indices, 2
    flipped = [
        digit(0) - (digit(1) - k),
        digit(2) - (digit(3) - k) + (digit(1) - k),
        digit(4) + (digit(3) - k),
    ]
    keys = np.unique(np.stack(flipped, axis=1), axis=0, return_inverse=True)[1].ravel()
    with pytest.raises(ValueError, match="hamiltonian couples states"):
        dataclasses.replace(u1, sector_keys=keys)


def test_single_mode_is_one_sector():
    model = single_mode(1.0, 1.0, 8)
    assert model.sector_keys is None
    (stack,) = WindowSweep(model.basis, ProjectorSpec(0, 0, 3), [], model.sector_keys).stacks
    assert np.array_equal(stack.rows, np.arange(model.dimension))
    assert np.array_equal(stack.window, [np.arange(4)])
    assert np.array_equal(stack.starts, [0, model.dimension])


# ---------------------------------------------------------------------------
# commutator norms
# ---------------------------------------------------------------------------

def test_comm_norm_exact_matches_dense_oracle():
    model = single_mode(1.0, 1.0, 16)
    lam = 8
    got = comm_norm_exact(model, lam)
    pi = _dense(projector(model.basis, ProjectorSpec(ALL, 0, lam)))
    h = _dense(model.hamiltonian)
    ht = pi @ h @ pi
    dense = np.linalg.norm(h @ ht - ht @ h, ord=2)
    assert got == pytest.approx(dense, rel=1e-6)


def test_comm_norm_diagonal_model_vanishes():
    model = single_mode(0.0, 1.0, 12)
    assert comm_norm_exact(model, 6) <= 1e-10


def test_comm_norm_padding_guard():
    model = single_mode(1.0, 1.0, 8)
    with pytest.raises(ValueError):
        comm_norm_exact(model, 8)


def test_comm_norm_cached_on_model():
    model = single_mode(1.0, 1.0, 12)
    first = model.comm_norm(6)
    second = model.comm_norm(6)
    assert first == second


# ---------------------------------------------------------------------------
# input validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "factory",
    [
        lambda: single_mode(1.0, 1.0, 0),
        lambda: hubbard_holstein_1d(0),
        lambda: dicke(0, 1.0, 1.0, 1.0, 2),
        lambda: u1_lgt_1d(1, 1.0, 1.0, 1.0, 1),
    ],
)
def test_builders_reject_degenerate_sizes(factory):
    with pytest.raises(ValueError):
        factory()
