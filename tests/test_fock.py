"""Operator algebra layer: local matrices, JW strings, windows, codecs."""

import math
from functools import reduce
from typing import Sequence

import numpy as np
import pytest
import scipy.sparse as sp

from truncert.fock_algebra import (
    ALL,
    SPARSE_TOL,
    CompositeBasis,
    ModeSpec,
    ProjectorSpec,
    ResourceLimitError,
    boson,
    build_basis,
    fermion,
    hermiticity_defect,
    mode_action,
    projector,
    rotor,
    spin_half,
    window_mask,
)


def _dense(op):
    return np.asarray(op.todense())


# ---------------------------------------------------------------------------
# mode specs and basis bookkeeping
# ---------------------------------------------------------------------------

def test_mode_dims():
    assert boson(3).dim == 4
    assert rotor(3).dim == 7
    assert fermion().dim == 2
    assert spin_half().dim == 2


def test_rotor_quantum_numbers_fold_sign():
    spec = rotor(2)
    assert list(spec.local_qn()) == [2, 1, 0, 1, 2]


def test_boson_quantum_numbers_are_occupations():
    assert list(boson(3).local_qn()) == [0, 1, 2, 3]


def test_truncatable_flags():
    basis = build_basis([fermion(), boson(2), spin_half(), rotor(1)])
    assert basis.truncatable_modes == (1, 3)


def test_dimension_and_strides():
    basis = build_basis([boson(2), fermion(), boson(1)])
    assert basis.dimension == 3 * 2 * 2


def test_encode_decode_roundtrip():
    """The strides are numpy's row-major mixed-radix codec over the mode dims:
    each state's local indices encode back to its index."""
    basis = build_basis([boson(3), fermion(), rotor(2), spin_half()])
    assert basis.strides == (20, 10, 2, 1)
    local = [basis.local_indices(m) for m in range(basis.n_modes)]
    assert np.array_equal(np.ravel_multi_index(local, basis.dims), np.arange(basis.dimension))


def test_mode_zero_is_most_significant():
    """Mode 0 is the most significant mixed-radix digit."""
    basis = build_basis([boson(1), boson(2)])
    # state |n0=1, n1=0> sits at offset dim(mode1) * 1
    assert basis.strides == (3, 1)
    assert (basis.local_indices(0)[3], basis.local_indices(1)[3]) == (1, 0)


def test_local_indices_match_decode():
    basis = build_basis([boson(2), rotor(1), fermion()])
    decoded = np.unravel_index(np.arange(basis.dimension), basis.dims)
    for m in range(3):
        assert np.array_equal(basis.local_indices(m), decoded[m])


def test_dimension_cap_guard():
    with pytest.raises(ResourceLimitError):
        build_basis([boson(1023)] * 8)


def test_bad_cutoff_rejected():
    with pytest.raises(ValueError):
        boson(-1)
    with pytest.raises(ValueError):
        rotor(-1)
    with pytest.raises(ValueError):
        ModeSpec("fermion", cutoff=2)


# ---------------------------------------------------------------------------
# local operators
# ---------------------------------------------------------------------------

def test_annihilate_amplitudes():
    basis = build_basis([boson(4)])
    a = _dense(mode_operator(basis, 0, "annihilate"))
    for n in range(1, 5):
        assert a[n - 1, n] == pytest.approx(math.sqrt(n))
    assert np.count_nonzero(a) == 4


def test_commutator_b_bdag_has_corner_defect():
    """[b, b+] = 1 everywhere except the top Fock level, where it is -n_max."""
    n_max = 5
    basis = build_basis([boson(n_max)])
    a = mode_operator(basis, 0, "annihilate")
    comm = _dense(a @ a.conj().T - a.conj().T @ a)
    expect = np.eye(n_max + 1)
    expect[n_max, n_max] = -n_max
    assert np.allclose(comm, expect, atol=1e-12)


def test_position_momentum_commutator_inside_window():
    n_max = 12
    basis = build_basis([boson(n_max)])
    x = mode_operator(basis, 0, "position")
    p = mode_operator(basis, 0, "momentum")
    comm = _dense(x @ p - p @ x)
    inner = comm[: n_max - 1, : n_max - 1]
    assert np.max(np.abs(inner - 1j * np.eye(n_max - 1))) < 1e-12


def test_position_norm_bound():
    """||x Pi_[0,L]|| <= sqrt(2(L+1)) is what the walk profiles rely on."""
    basis = build_basis([boson(24)])
    x = mode_operator(basis, 0, "position")
    for lam in (0, 3, 10):
        pi = projector(basis, ProjectorSpec(0, 0, lam))
        norm = np.linalg.norm(_dense(x @ pi), ord=2)
        assert norm <= math.sqrt(2.0 * (lam + 1.0)) + 1e-12


def test_efield_is_signed_diagonal():
    basis = build_basis([rotor(2)])
    e = _dense(mode_operator(basis, 0, "efield"))
    assert np.allclose(e, np.diag([-2, -1, 0, 1, 2]))


def test_lower_link_shifts_field_down():
    basis = build_basis([rotor(2)])
    u = _dense(mode_operator(basis, 0, "lower_link"))
    e = np.arange(-2, 3)
    for col in range(1, 5):
        assert u[col - 1, col] == 1.0
        assert e[col - 1] == e[col] - 1
    # the bottom edge is annihilated, not wrapped
    assert np.all(u[:, 0] == 0.0)


def test_link_is_partial_isometry():
    basis = build_basis([rotor(3)])
    u = mode_operator(basis, 0, "lower_link")
    prod = _dense(u @ u.conj().T)
    assert np.allclose(np.diag(prod)[:-1], 1.0)


def test_unknown_kind_raises():
    basis = build_basis([boson(2), fermion()])
    with pytest.raises(TypeError):
        mode_operator(basis, 0, "pauli_x")
    with pytest.raises(TypeError):
        mode_operator(basis, 1, "position")
    # no model reads them, so the package defines no boson create, position, momentum
    for kind in _COMPOSED:
        with pytest.raises(TypeError):
            mode_action(basis, 0, kind)


# ---------------------------------------------------------------------------
# Jordan-Wigner strings
# ---------------------------------------------------------------------------

def test_jw_anticommutation_pure_fermion_chain():
    basis = build_basis([fermion() for _ in range(4)])
    cs = [mode_operator(basis, i, "annihilate") for i in range(4)]
    eye = sp.identity(basis.dimension, format="csr")
    for i in range(4):
        for j in range(4):
            anti = cs[i] @ cs[j] + cs[j] @ cs[i]
            assert abs(anti).max() < 1e-12
            mixed = cs[i] @ cs[j].conj().T + cs[j].conj().T @ cs[i]
            target = eye if i == j else eye * 0
            assert abs(mixed - target).max() < 1e-12


def test_jw_skips_nonfermion_modes():
    """Strings count only fermion modes, so bosons in between stay untouched."""
    basis = build_basis([fermion(), boson(2), fermion()])
    c0 = mode_operator(basis, 0, "annihilate")
    c2 = mode_operator(basis, 2, "annihilate")
    anti = c0 @ c2 + c2 @ c0
    assert abs(anti).max() < 1e-12
    b = mode_operator(basis, 1, "annihilate")
    comm = c0 @ b - b @ c0
    assert abs(comm).max() < 1e-12


def test_create_map_inverts_annihilate_map():
    """On a mixed basis a fermion's create map sends back every state its
    annihilate map reaches, with the same Jordan-Wigner-signed amplitude."""
    basis = build_basis([fermion(), boson(1), fermion(), rotor(1), fermion()])
    for j in (0, 2, 4):
        down, amp_down = mode_action(basis, j, "annihilate")
        up, amp_up = mode_action(basis, j, "create")
        src = np.flatnonzero(down >= 0)
        assert len(src) == basis.dimension // 2
        assert np.array_equal(up[down[src]], src)
        assert np.array_equal(amp_up[down[src]], amp_down[src])


def test_jw_number_operator_has_no_string():
    basis = build_basis([fermion(), fermion()])
    n1 = mode_operator(basis, 1, "number")
    c1 = mode_operator(basis, 1, "annihilate")
    assert abs(n1 - c1.conj().T @ c1).max() < 1e-12


def test_mixed_basis_six_fermions_anticommute():
    modes = [fermion(), spin_half(), fermion(), boson(1), fermion(),
             fermion(), rotor(1), fermion(), fermion()]
    basis = build_basis(modes)
    fidx = [0, 2, 4, 5, 7, 8]
    ops = {i: mode_operator(basis, i, "annihilate") for i in fidx}
    for i in fidx:
        for j in fidx:
            if i >= j:
                continue
            anti = ops[i] @ ops[j] + ops[j] @ ops[i]
            assert abs(anti).max() < 1e-12


# ---------------------------------------------------------------------------
# the CSR the algebra checks and model oracles use, and the Kronecker
# chain reference it is checked against
# ---------------------------------------------------------------------------

#: Boson operators no model reads: `mode_operator` composes them from the
#: annihilator's target map for the algebra checks.
_COMPOSED = ("create", "position", "momentum")


def _entries(basis: CompositeBasis, mode_index: int, kind: str):
    """(rows, cols, values) of `mode_action`'s map: one entry per state it keeps."""
    target, amp = mode_action(basis, mode_index, kind)
    cols = np.flatnonzero(target >= 0)
    return target[cols], cols, amp[cols]


def mode_operator(basis: CompositeBasis, mode_index: int, kind: str) -> sp.csr_matrix:
    """The CSR matrix of `mode_action`'s map (column indices sorted in each row).

    A boson's create, position (b + b^dag)/sqrt(2) and momentum
    i (b^dag - b)/sqrt(2) are built from the map of b; momentum is
    complex, every other kind float64.
    """
    if kind in _COMPOSED and basis.modes[mode_index].kind == "boson":
        rows, cols, amp = _entries(basis, mode_index, "annihilate")
        if kind == "create":
            rows, cols, vals = cols, rows, amp
        else:
            rows, cols = np.concatenate([rows, cols]), np.concatenate([cols, rows])
            if kind == "position":
                vals = np.concatenate([amp, amp]) * (1 / math.sqrt(2.0))
            else:
                vals = np.concatenate([-amp, amp]) * 1j * (1 / math.sqrt(2.0))
    else:
        rows, cols, vals = _entries(basis, mode_index, kind)
    return sp.csr_matrix((vals, (rows, cols)), shape=(basis.dimension, basis.dimension))


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
        return sp.csr_matrix(1j * (a.T - a) / math.sqrt(2.0), dtype=complex)
    else:
        raise TypeError(f"kind {kind!r} undefined for boson modes")
    return sp.csr_matrix(out, dtype=float)


def _fermion_local(kind: str) -> sp.csr_matrix:
    if kind == "annihilate":
        m = np.array([[0, 1], [0, 0]], dtype=float)
    elif kind == "create":
        m = np.array([[0, 0], [1, 0]], dtype=float)
    elif kind == "number":
        m = np.diag([0.0, 1.0])
    else:
        raise TypeError(f"kind {kind!r} undefined for fermion modes")
    return sp.csr_matrix(m)


def _spin_local(kind: str) -> sp.csr_matrix:
    if kind == "pauli_x":
        m = np.array([[0, 1], [1, 0]], dtype=float)
    elif kind == "pauli_z":
        m = np.diag([1.0, -1.0])
    else:
        raise TypeError(f"kind {kind!r} undefined for spin_half modes")
    return sp.csr_matrix(m)


def _rotor_local(kind: str, field_cap: int) -> sp.csr_matrix:
    d = 2 * field_cap + 1
    if kind == "efield":
        return sp.csr_matrix(sp.diags(np.arange(-field_cap, field_cap + 1, dtype=float)))
    if kind == "lower_link":
        # <k-1| U |k> = 1; the k = -K edge column is annihilated.
        return sp.csr_matrix(sp.eye(d, k=1), dtype=float)
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
        return sp.identity(1, format="csr")
    return reduce(lambda a, b: sp.kron(a, b, format="csr"), factors)


def kron_mode_operator(basis: CompositeBasis, mode_index: int, kind: str) -> sp.csr_matrix:
    """Single-mode operator embedded as a Kronecker chain with identities."""
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
    z_string = sp.csr_matrix(np.diag([1.0, -1.0]))
    factors: list[sp.spmatrix] = []
    for j, m in enumerate(basis.modes):
        if j == mode_index:
            factors.append(local)
        elif jw and j < mode_index and m.kind == "fermion":
            factors.append(z_string)
        else:
            factors.append(sp.identity(m.dim, format="csr"))
    # in the local matrix's dtype: scipy's kron of an empty factor is float64
    return _clean(_kron_chain(factors).astype(local.dtype))


#: The kinds `mode_action` defines, per mode kind.
_KINDS_OF = {
    "boson": ("annihilate", "number"),
    "fermion": ("annihilate", "create", "number"),
    "spin_half": ("pauli_x", "pauli_z"),
    "rotor": ("efield", "lower_link"),
}

_ORACLE_BASES = {
    # Jordan-Wigner strings cross bosons, rotors and spins
    "interleaved": [fermion(), boson(2), fermion(), rotor(1), spin_half(), fermion()],
    "fermions_first": [fermion(), fermion(), spin_half(), boson(3), fermion()],
    "empty_modes": [boson(0), fermion(), rotor(0), fermion(), boson(1)],
    "bosons_rotors": [rotor(2), boson(4), spin_half(), rotor(1)],
    "single_boson": [boson(5)],
    "single_fermion": [fermion()],
    "single_spin": [spin_half()],
    "single_rotor": [rotor(2)],
    "single_boson_cutoff_0": [boson(0)],
    "single_rotor_cap_0": [rotor(0)],
}

_ORACLE_CASES = [
    pytest.param(name, j, kind, id=f"{name}-{j}-{kind}")
    for name, modes in _ORACLE_BASES.items()
    for j, mode in enumerate(modes)
    for kind in _KINDS_OF[mode.kind] + (_COMPOSED if mode.kind == "boson" else ())
]


@pytest.mark.parametrize("name, mode_index, kind", _ORACLE_CASES)
def test_mode_operator_matches_kronecker_chain(name, mode_index, kind):
    basis = build_basis(_ORACLE_BASES[name])
    got = mode_operator(basis, mode_index, kind)
    ref = kron_mode_operator(basis, mode_index, kind)
    assert isinstance(got, sp.csr_matrix)
    assert got.shape == ref.shape == (basis.dimension, basis.dimension)
    assert got.dtype == ref.dtype == (np.complex128 if kind == "momentum" else np.float64)
    assert got.has_sorted_indices
    assert np.all(got.data != 0)
    for attr in ("indptr", "indices"):
        assert getattr(got, attr).dtype == getattr(ref, attr).dtype
        assert np.array_equal(getattr(got, attr), getattr(ref, attr))
    # bit for bit, signed zeros included
    assert got.data.tobytes() == ref.data.tobytes()


# ---------------------------------------------------------------------------
# windows, projectors, assembly helpers
# ---------------------------------------------------------------------------

def test_window_mask_single_mode():
    basis = build_basis([boson(3), boson(3)])
    mask = window_mask(basis, ProjectorSpec(0, 1, 2))
    qn = basis.mode_qn(0)
    assert np.array_equal(mask, (qn >= 1) & (qn <= 2))


def test_window_mask_rotor_keeps_symmetric_band():
    basis = build_basis([rotor(3)])
    mask = window_mask(basis, ProjectorSpec(0, 0, 1))
    # |k| <= 1 keeps k in {-1, 0, 1}
    assert list(np.nonzero(mask)[0]) == [2, 3, 4]


def test_window_mask_all_is_conjunction():
    basis = build_basis([boson(3), fermion(), boson(3)])
    mask = window_mask(basis, ProjectorSpec(ALL, 0, 1))
    per_mode = [window_mask(basis, ProjectorSpec(m, 0, 1)) for m in (0, 2)]
    assert np.array_equal(mask, per_mode[0] & per_mode[1])


def test_projector_idempotent_hermitian():
    basis = build_basis([boson(4), boson(4)])
    pi = projector(basis, ProjectorSpec(ALL, 0, 2))
    assert abs(pi @ pi - pi).max() < 1e-15
    assert hermiticity_defect(pi) == 0.0


def test_projector_empty_window_rejected():
    basis = build_basis([boson(4)])
    with pytest.raises(ValueError):
        ProjectorSpec(0, 3, 2)


def test_hermiticity_defect_detects_asymmetry():
    basis = build_basis([boson(2)])
    a = mode_operator(basis, 0, "annihilate")
    assert hermiticity_defect(a) > 0.9
    x = mode_operator(basis, 0, "position")
    assert hermiticity_defect(x) < 1e-15


def _hermiticity_defect_by_coo(op):
    """The sparse-difference form of hermiticity_defect, verbatim."""
    diff = sp.coo_matrix(op - sp.csr_matrix(op).getH())
    if diff.nnz == 0:
        return 0.0
    return float(np.abs(diff.data).max())


def _unsorted_with_duplicates(symmetric: bool) -> sp.csr_matrix:
    """4x4 CSR with descending columns, a duplicate entry and explicit zeros.

    Dense value: [[1, 2-i, 0, 0], [2+i, 0, 0, 0.5], [0, 0, 3, 0], [0, a, 0, 0]]
    with a = 0.5 (Hermitian) or 0.75 (not); entry (1, 0) is stored as two
    duplicates that sum to it, and (2, 1) is a stored zero.
    """
    a = 0.5 if symmetric else 0.75
    return sp.csr_matrix(
        (
            np.array([2 - 1j, 1.0, 0.5, 1.5 + 1j, 0.5, 3.0, 0.0, a]),
            np.array([1, 0, 3, 0, 0, 2, 1, 1], dtype=np.int32),
            np.array([0, 2, 5, 7, 8], dtype=np.int32),
        ),
        shape=(4, 4),
    )


@pytest.mark.parametrize("symmetric", [True, False])
def test_hermiticity_defect_never_reorders_its_argument(symmetric):
    """On a non-canonical, duplicate-carrying input the defect is the
    sparse difference's, and the argument's arrays are left as they were."""
    op = _unsorted_with_duplicates(symmetric)
    assert not op.has_canonical_format
    arrays = op.indptr.copy(), op.indices.copy(), op.data.copy()
    got = hermiticity_defect(op)
    assert got == _hermiticity_defect_by_coo(op)
    assert got == (0.0 if symmetric else 0.25)
    for before, after in zip(arrays, (op.indptr, op.indices, op.data)):
        assert before.tobytes() == after.tobytes()
    # a canonical input, and one whose sparsity pattern is asymmetric
    canon = op.copy()
    canon.sum_duplicates()
    assert hermiticity_defect(canon) == _hermiticity_defect_by_coo(canon) == got
    upper = sp.csr_matrix(np.triu(op.toarray()))
    assert hermiticity_defect(upper) == _hermiticity_defect_by_coo(upper) == math.hypot(2, 1)


def test_one_to_one_kinds_send_each_state_to_at_most_one_state():
    """Every kind of mode_action is a map over all basis states: an int64
    target in range, -1 exactly where the float64 amplitude is 0, and one
    CSR entry per kept state."""
    for specs in _ORACLE_BASES.values():
        basis = build_basis(specs)
        for j, mode in enumerate(basis.modes):
            for kind in _KINDS_OF[mode.kind]:
                target, amp = mode_action(basis, j, kind)
                assert target.shape == amp.shape == (basis.dimension,)
                assert target.dtype == np.int64 and amp.dtype == np.float64
                assert np.array_equal(target == -1, amp == 0)
                assert np.all((target >= -1) & (target < basis.dimension))
                assert mode_operator(basis, j, kind).nnz == np.count_nonzero(target >= 0)
