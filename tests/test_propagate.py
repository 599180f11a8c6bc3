"""Evolution engine: block Chebyshev propagator vs dense oracles, eigensolvers, norms."""

import dataclasses
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply
from scipy.special import jv
from test_models import _same_csr

from truncert import propagate
from truncert.bounds import ConvergenceError
from truncert.fock_algebra import (
    ALL,
    ProjectorSpec,
    ResourceLimitError,
    boson,
    build_basis,
    projector,
    window_mask,
)
from truncert.models import dicke, hubbard_holstein_1d, single_mode, u1_lgt_1d
from truncert.propagate import (
    TOL,
    ChebyshevPropagator,
    DensePropagator,
    evolve,
    ground_state,
    leakage_norm,
    lowest_eigenpairs,
    masked_top_singular,
    op_norm,
    window_sweep,
)
from truncert.trotter import empirical_trotter_error
from truncert.verify import (
    engine_slack,
    verify_hamiltonian_truncation,
    verify_state_truncation,
    verify_tail,
)


def _random_hermitian(dim, seed, density=0.2):
    rng = np.random.default_rng(seed)
    mask = rng.random((dim, dim)) < density
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    a = np.where(mask, a, 0.0)
    h = (a + a.conj().T) / 2.0
    return sp.csr_matrix(h)


def _svd_top(cols, keep_mask):
    """Top singular value of the rows of cols outside keep_mask, by LAPACK's
    SVD: the reference for the Gram reducer `masked_top_singular`."""
    sub = cols[~keep_mask, :]
    if sub.size == 0:
        return 0.0
    return float(np.linalg.svd(sub, compute_uv=False)[0])


def _random_state(dim, seed):
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return psi / np.linalg.norm(psi)


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------

def test_evolve_diagonal_phases():
    d = np.array([0.0, 1.0, 2.5, -3.0])
    h = sp.diags(d).tocsr()
    psi0 = np.ones(4, dtype=complex) / 2.0
    out = evolve(h, psi0, 0.7)
    assert np.allclose(out, np.exp(-1j * 0.7 * d) / 2.0, atol=1e-14)


def test_evolve_zero_time_is_identity():
    h = _random_hermitian(32, 5)
    psi = _random_state(32, 6)
    assert np.array_equal(evolve(h, psi, 0.0), psi)


@pytest.mark.parametrize("dim,seed", [(64, 0), (256, 1)])
def test_evolve_matches_dense_oracle(dim, seed):
    h = _random_hermitian(dim, seed)
    psi = _random_state(dim, seed + 100)
    exact = DensePropagator(h).apply(psi, 1.3)
    got = evolve(h, psi, 1.3)
    assert np.linalg.norm(got - exact) < 1e-9


def test_evolve_long_time_budget_holds():
    h = _random_hermitian(128, 3)
    psi = _random_state(128, 4)
    exact = DensePropagator(h).apply(psi, 25.0)
    got = evolve(h, psi, 25.0)
    assert np.linalg.norm(got - exact) < 1e-9


def test_evolve_backward_time_inverts():
    h = _random_hermitian(96, 7)
    psi = _random_state(96, 8)
    back = evolve(h, evolve(h, psi, 2.1), -2.1)
    assert np.linalg.norm(back - psi) < 1e-9


def test_evolve_composes():
    h = _random_hermitian(80, 9)
    psi = _random_state(80, 10)
    one = evolve(h, evolve(h, psi, 0.9), 1.4)
    two = evolve(h, psi, 2.3)
    assert np.linalg.norm(one - two) < 1e-9


def test_evolve_preserves_norm():
    h = _random_hermitian(120, 11)
    psi = _random_state(120, 12)
    out = evolve(h, psi, 5.0)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-10


def test_evolve_conserves_energy():
    h = _random_hermitian(100, 13)
    psi = _random_state(100, 14)
    e0 = np.vdot(psi, h @ psi).real
    out = evolve(h, psi, 3.0)
    e1 = np.vdot(out, h @ out).real
    assert abs(e1 - e0) < 1e-8


def test_evolve_rejects_non_hermitian():
    h = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    with pytest.raises(ValueError):
        evolve(h, np.array([1.0, 0.0], dtype=complex), 1.0)


def test_evolve_invariant_subspace_breakdown():
    """Block-diagonal H with the state in one block: the other block stays empty."""
    block = np.array([[1.0, 0.5], [0.5, -1.0]])
    h = sp.block_diag([block, 7.0 * np.eye(3)]).tocsr()
    psi = np.zeros(5, dtype=complex)
    psi[0] = 1.0
    exact = DensePropagator(h).apply(psi, 2.0)
    got = evolve(h, psi, 2.0)
    assert np.linalg.norm(got - exact) < 1e-10


def test_evolve_coarse_tolerance_still_bounded():
    h = _random_hermitian(64, 15)
    psi = _random_state(64, 16)
    exact = DensePropagator(h).apply(psi, 2.0)
    got = evolve(h, psi, 2.0, 1e-6)
    assert np.linalg.norm(got - exact) < 1e-5


def test_evolve_config_validation():
    """tol must be > 0 in the slack, the one-shot evolve and a check that
    propagates nothing (every tail report still applies the slack)."""
    with pytest.raises(ValueError):
        engine_slack(0.0)
    with pytest.raises(ValueError):
        evolve(_random_hermitian(8, 0), _random_state(8, 1), 1.0, tol=0.0)
    with pytest.raises(ValueError):
        verify_tail(single_mode(0.5, 1.0, 12), [1e-2], tol=0.0)


# ---------------------------------------------------------------------------
# evolve on blocks
# ---------------------------------------------------------------------------

def _random_block(dim, k, seed):
    rng = np.random.default_rng(seed)
    block = rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))
    return block / np.linalg.norm(block, axis=0)


def _dense_columns(h, block, t):
    prop = DensePropagator(h)
    return np.stack([prop.apply(block[:, j], t) for j in range(block.shape[1])], axis=1)


@pytest.mark.parametrize("dim,seed,t", [(64, 0, 1.3), (200, 1, -2.4), (150, 2, 25.0)])
def test_propagate_block_matches_dense_oracle(dim, seed, t):
    h = _random_hermitian(dim, seed)
    block = _random_block(dim, 7, seed + 100)
    got = evolve(h, block, t, 1e-10)
    assert np.linalg.norm(got - _dense_columns(h, block, t), 2) < 1e-9


def test_propagate_block_vector_matches_dense_oracle():
    h = _random_hermitian(90, 3)
    psi = _random_state(90, 4)
    got = evolve(h, psi, 0.8, 1e-10)
    assert got.shape == (90,)
    assert np.linalg.norm(got - DensePropagator(h).apply(psi, 0.8)) < 1e-9


def test_propagate_block_diagonal_phases():
    d = np.array([0.0, 1.0, 2.5, -3.0])
    block = _random_block(4, 3, 5)
    got = evolve(sp.diags(d).tocsr(), block, -0.7, 1e-10)
    assert np.allclose(got, np.exp(0.7j * d)[:, None] * block, atol=1e-14)


def test_propagate_block_empty_and_zero_time():
    h = _random_hermitian(32, 6)
    empty = evolve(h, np.zeros((32, 0), dtype=complex), 1.0, 1e-10)
    assert empty.shape == (32, 0)
    block = _random_block(32, 2, 7)
    assert np.array_equal(evolve(h, block, 0.0, 1e-10), block)


def test_propagate_block_rejects_bad_input():
    h = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    with pytest.raises(ValueError):
        evolve(h, np.eye(2, dtype=complex), 1.0, 1e-10)
    with pytest.raises(ValueError):
        evolve(_random_hermitian(4, 8), np.ones(5, dtype=complex), 1.0, 1e-10)
    with pytest.raises(ValueError):
        evolve(_random_hermitian(4, 8), np.ones(4, dtype=complex), 1.0, 0.0)


def test_propagate_block_matches_evolve_above_dense_size():
    """Each column of a block evolve matches the single-vector ``evolve`` and an
    independent reference, scipy's scaling-and-squaring Taylor action
    (``expm_multiply``)."""
    model = hubbard_holstein_1d(2, g=0.5, n_max=8)
    dim = model.dimension
    assert dim > 1200
    block = np.zeros((dim, 4), dtype=complex)
    for j, i in enumerate((0, 17, 400, dim - 1)):
        block[i, j] = 1.0
    got = evolve(model.hamiltonian, block, 0.6, 1e-10)
    ref = expm_multiply(-0.6j * model.hamiltonian.tocsc(), block)
    for j in range(4):
        assert np.linalg.norm(got[:, j] - ref[:, j]) < 1e-9
        assert np.linalg.norm(got[:, j] - evolve(model.hamiltonian, block[:, j], 0.6)) < 1e-9


def test_prepared_propagator_matches_one_shot():
    """One propagator over many blocks and times: the one-shot arithmetic exactly."""
    for h in (_random_hermitian(80, 9), sp.diags(np.linspace(-2.0, 3.0, 80)).tocsr()):
        prop = ChebyshevPropagator(h)
        for seed, t in ((10, 0.7), (11, -3.2), (12, 15.0), (13, 0.0)):
            block = _random_block(80, 5, seed)
            for tol in (1e-6, 1e-12):
                assert np.array_equal(prop.apply(block, t, tol), evolve(h, block, t, tol))
            psi = block[:, 0]
            assert np.array_equal(prop.apply(psi, t, 1e-10), evolve(h, psi, t))


def test_propagator_checks_its_input():
    raising = sp.csr_matrix(np.diag(np.ones(3), k=1).astype(complex))
    with pytest.raises(ValueError, match="not Hermitian"):
        ChebyshevPropagator(raising)
    with pytest.raises(ValueError, match="dimension mismatch"):
        ChebyshevPropagator(sp.csr_matrix(np.ones((3, 4))))
    h = _random_hermitian(4, 8)
    prop = ChebyshevPropagator(h)
    with pytest.raises(ValueError, match="dimension mismatch"):
        prop.apply(np.ones(5, dtype=complex), 1.0, 1e-10)
    with pytest.raises(ValueError, match="dimension mismatch"):
        prop.apply(np.ones((5, 2), dtype=complex), 1.0, 1e-10)
    with pytest.raises(ValueError, match="tol"):
        prop.apply(np.ones(4, dtype=complex), 1.0, 0.0)
    basis = build_basis([boson(4)])  # dimension 5
    window = ProjectorSpec(0, 0, 1)
    with pytest.raises(ValueError, match="basis dimension"):
        leakage_norm(basis, h, window, window, 0.5)


def test_propagator_zero_width_interval():
    """Stored zeros off the diagonal: not diagonal, Gershgorin width 0, exp = 1."""
    h = sp.csr_matrix((np.zeros(2), ([0, 1], [1, 0])), shape=(3, 3))
    assert h.nnz == 2
    block = _random_block(3, 2, 14)
    got = ChebyshevPropagator(h).apply(block, 1.5, 1e-10)
    assert np.array_equal(got, block)


@pytest.mark.parametrize("x", [0.05, 1.0, -7.5, 40.0, 300.0])
@pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-14])
def test_chebyshev_terms_meet_exact_bessel_tail(x, tol):
    n_terms = len(propagate._chebyshev_bessel(x, tol)) - 1
    k = np.arange(n_terms + 1, n_terms + 400)
    assert 2.0 * np.abs(jv(k, x)).sum() <= tol
    assert n_terms <= 1.5 * abs(x) + 40


@pytest.mark.parametrize("x", [10.0, 100.0, 300.0])
@pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-14])
def test_chebyshev_terms_within_one_of_exact_tail(x, tol):
    k = np.arange(1, int(x) + 400)
    # tails[K] = sum_{k>K} 2|J_k(x)|, summed from the small end
    tails = np.cumsum(2.0 * np.abs(jv(k, x))[::-1])[::-1]
    smallest = int(np.argmax(tails <= tol))
    assert smallest <= len(propagate._chebyshev_bessel(x, tol)) - 1 <= smallest + 1


def test_chebyshev_terms_zero_argument():
    assert len(propagate._chebyshev_bessel(0.0, 1e-10)) - 1 == 0


def _stacks(model, window0):
    """The stacks a `window_sweep` of the model's window0 sweeps."""
    return propagate._window_stacks(window_mask(model.basis, window0), model.sector_keys)


def _prepared(basis, window0, ops, sector_keys=None):
    """(stack, propagators) of every stack a `window_sweep` prepares, as fn sees them."""
    seen = {}  # id of each stack's propagator list -> that list, in sweep order

    def capture(ops_s, e, xs):
        seen.setdefault(id(ops_s), ops_s)
        return np.zeros((len(xs),) + e.shape)

    keep_none = np.zeros(basis.dimension, dtype=bool)
    window_sweep(basis, window0, ops, sector_keys, capture, [0.0], [[keep_none]])
    stacks = propagate._window_stacks(window_mask(basis, window0), sector_keys)
    assert len(stacks) == len(seen)
    return list(zip(stacks, seen.values()))


def _unreachable(ops, e, xs):
    raise AssertionError("a stack was swept")


def _members(stack):
    """(rows, window positions within rows) of each member sector of a stack."""
    return [
        (stack.rows[start:stop], stack.window[i] - start)
        for i, (start, stop) in enumerate(zip(stack.starts[:-1], stack.starts[1:]))
    ]


def _sector_entries(stacks):
    """dim_s * n0_s of every member sector of the stacks."""
    return [len(rows) * len(window) for stack in stacks for rows, window in _members(stack)]


def _window_columns(basis, h, window0, t, sector_keys=None):
    """The window columns of exp(-i t h) as a `window_sweep` evolves them.

    Returns (cols, states): cols[:, i] is the full-space column of window
    state states[i] (ascending), its stack member's part of the block
    column the sweep evolved it in, scattered onto the member's rows.
    """
    stacks = propagate._window_stacks(window_mask(basis, window0), sector_keys)
    order = {}  # id of each stack's propagator list -> stack index, in sweep order
    columns = {}

    def scatter(ops, e, ts):
        out = ops[0].apply_times(e, ts, 1e-10)
        stack = stacks[order.setdefault(id(ops), len(order))]
        for i, j in zip(*np.nonzero(e)):
            m = np.searchsorted(stack.starts, i, side="right") - 1
            start, stop = stack.starts[m], stack.starts[m + 1]
            col = np.zeros(basis.dimension, dtype=complex)
            col[stack.rows[start:stop]] = out[0, start:stop, j]
            assert stack.rows[i] not in columns  # each window state swept once
            columns[stack.rows[i]] = col
        return out

    window_sweep(basis, window0, [h], sector_keys, scatter, [t],
                 [[np.zeros(basis.dimension, dtype=bool)]])
    states = np.array(sorted(columns))
    return np.stack([columns[state] for state in states], axis=1), states


@pytest.mark.parametrize("entries", [1, 3 * 784, 1 << 15, 1 << 30])
def test_leakage_columns_independent_of_block_split(entries, monkeypatch):
    """The evolved window columns a `window_sweep` hands to its reduction do
    not depend on how many columns each block call takes."""
    model = hubbard_holstein_1d(2, g=0.5, n_max=6)  # dim 784, 144 window columns
    window0 = ProjectorSpec(ALL, 0, 2)
    ref, states = _window_columns(model.basis, model.hamiltonian, window0, 0.7)
    monkeypatch.setattr(propagate, "_BLOCK_ENTRIES", entries)
    calls = []
    real_apply = ChebyshevPropagator.apply_times

    def counting_apply(prop, block, times, tol):
        calls.append(block.shape[1])
        return real_apply(prop, block, times, tol)

    monkeypatch.setattr(ChebyshevPropagator, "apply_times", counting_apply)
    got, states2 = _window_columns(model.basis, model.hamiltonian, window0, 0.7)
    assert np.array_equal(states, states2) and len(states) == 144
    step = max(1, entries // 784)
    assert calls == [min(step, 144 - lo) for lo in range(0, 144, step)]
    # same polynomial on every column; only SIMD remainder loops may differ
    assert np.allclose(got, ref, rtol=0.0, atol=1e-14)


def test_wide_window_top_singular_within_engine_slack():
    """144 window columns: the leakage norm stays within engine_slack of the
    dense oracle's masked SVD."""
    model = hubbard_holstein_1d(2, g=0.5, n_max=5)
    basis, h = model.basis, model.hamiltonian
    window0 = ProjectorSpec(ALL, 0, 2)
    idx = np.flatnonzero(window_mask(basis, window0))
    assert len(idx) >= 100
    eye = np.zeros((basis.dimension, len(idx)), dtype=complex)
    eye[idx, np.arange(len(idx))] = 1.0
    exact = _dense_columns(h, eye, 0.9)
    slack = engine_slack(TOL)
    for lam in (2, 3, 4):
        window1 = ProjectorSpec(ALL, 0, lam)
        got = leakage_norm(basis, h, window0, window1, 0.9)
        assert got > 1e-3
        keep = window_mask(basis, window1)
        assert abs(got - _svd_top(exact, keep)) <= slack


# ---------------------------------------------------------------------------
# eigenpairs
# ---------------------------------------------------------------------------

def test_lowest_eigenpairs_dense_path():
    h = _random_hermitian(60, 20)
    vals, vecs = lowest_eigenpairs(h, k=3)
    exact = np.linalg.eigvalsh(h.toarray())[:3]
    assert np.allclose(vals, exact, atol=1e-10)
    for i in range(3):
        res = np.linalg.norm(h @ vecs[:, i] - vals[i] * vecs[:, i])
        assert res < 1e-8


def test_lowest_eigenpairs_sparse_path():
    d = np.arange(600, dtype=float)
    h = sp.diags(d).tocsr()
    vals, vecs = lowest_eigenpairs(h, k=2)
    assert np.allclose(vals, [0.0, 1.0], atol=1e-8)
    assert abs(abs(vecs[0, 0]) - 1.0) < 1e-6


def test_lowest_eigenpairs_see_a_doubled_level():
    """h + h (dim 1152) doubles every level; a single Krylov space sees one
    copy of each, and the locked rerun finds the second."""
    h = hubbard_holstein_1d(2, g=0.5, n_max=5).hamiltonian
    doubled = sp.block_diag((h, h), format="csr")
    assert doubled.shape[0] > 400  # the Lanczos path
    vals, vecs = lowest_eigenpairs(doubled, k=2)
    e0 = np.linalg.eigvalsh(h.toarray())[0]
    assert abs(vals[1] - vals[0]) <= 1e-12
    assert np.allclose(vals, e0, rtol=1e-12, atol=0.0)
    assert abs(np.vdot(vecs[:, 0], vecs[:, 1])) <= 1e-9
    for i in range(2):
        assert np.linalg.norm(doubled @ vecs[:, i] - vals[i] * vecs[:, i]) <= 1e-9


@pytest.mark.parametrize(
    "build",
    [
        lambda: hubbard_holstein_1d(2, g=0.5, n_max=12),
        lambda: single_mode(1.5, 1.0, 1000),
        lambda: SimpleNamespace(hamiltonian=_random_hermitian(450, 3, 0.02), sector_keys=None),
    ],
    ids=["hh", "single", "complex"],
)
def test_lanczos_values_match_dense_eigvalsh(build):
    """Above dimension 400 the Lanczos values agree with dense eigvalsh
    (per conserved sector) to 1e-12 relative, for real and complex h."""
    model = build()
    h, keys = model.hamiltonian, model.sector_keys
    assert h.shape[0] > 400
    vals, _ = lowest_eigenpairs(h, k=2)
    dense = h.toarray()
    blocks = [dense] if keys is None else [
        dense[np.ix_(keys == key, keys == key)] for key in np.unique(keys)
    ]
    exact = np.sort(np.concatenate([np.linalg.eigvalsh(b)[:2] for b in blocks]))[:2]
    assert np.allclose(vals, exact, rtol=1e-12, atol=0.0)


def test_lanczos_past_its_product_budget_raises():
    h = hubbard_holstein_1d(2, g=0.5, n_max=12).hamiltonian
    none = np.empty((0, h.shape[0]))
    rng = np.random.default_rng(1123)
    with pytest.raises(ConvergenceError, match="30 products"):
        propagate._thick_restart_lanczos(propagate._owned_csr(h), 2, none, rng, 20, 30)


def test_ground_state_vacuum():
    model = single_mode(0.0, 1.0, 10)
    energy, vec = ground_state(model.hamiltonian)
    assert energy == pytest.approx(0.0, abs=1e-10)
    assert abs(vec[0]) == pytest.approx(1.0, abs=1e-8)


def test_ground_state_shifted_oscillator():
    """g(b+b') + w n has exact ground energy -g^2/w for large cutoffs."""
    model = single_mode(0.4, 1.0, 40)
    energy, _ = ground_state(model.hamiltonian)
    assert energy == pytest.approx(-0.16, abs=1e-8)


# ---------------------------------------------------------------------------
# operator norms
# ---------------------------------------------------------------------------

def test_op_norm_diagonal():
    h = sp.diags([3.0, -7.0, 2.0]).tocsr()
    assert op_norm(h) == pytest.approx(7.0, rel=1e-9)


def test_op_norm_zero():
    assert op_norm(sp.csr_matrix((5, 5), dtype=complex)) == 0.0


def test_op_norm_matches_dense_svd():
    a = _random_hermitian(50, 30)
    exact = np.linalg.norm(a.toarray(), ord=2)
    assert op_norm(a) == pytest.approx(exact, rel=1e-8)


def test_op_norm_nonsquare_rectangularish():
    rng = np.random.default_rng(31)
    a = sp.csr_matrix(rng.standard_normal((40, 25)))
    exact = np.linalg.svd(a.toarray(), compute_uv=False)[0]
    assert op_norm(a) == pytest.approx(exact, rel=1e-8)


# ---------------------------------------------------------------------------
# leakage norms
# ---------------------------------------------------------------------------

def test_leakage_columns_window_indices():
    basis = build_basis([boson(6)])
    h = single_mode(1.0, 1.0, 6).hamiltonian
    cols, states = _window_columns(basis, h, ProjectorSpec(0, 0, 2), 0.5)
    assert list(states) == [0, 1, 2]
    assert cols.shape == (7, 3)
    assert np.allclose(np.linalg.norm(cols, axis=0), 1.0, atol=1e-10)


def test_masked_top_singular_full_keep_is_zero():
    cols = np.ones((1, 4, 2), dtype=complex)
    assert masked_top_singular(cols, np.array([0, 2, 4]), [[np.ones(4, dtype=bool)]]) == [[0.0]]


def _gram_blocks():
    """(name, block, keep mask) cases for the Gram reducer."""
    rng = np.random.default_rng(29)

    def normal(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    some = rng.random(40) < 0.3
    u, _ = np.linalg.qr(normal(40, 6))
    v, _ = np.linalg.qr(normal(6, 6))
    ill = (u * np.logspace(0, -12, 6)) @ v  # singular values 1 .. 1e-12
    return [
        ("random", normal(40, 6), some),
        ("rank_one", np.outer(normal(40), normal(6)), some),
        ("zero", np.zeros((40, 6), dtype=complex), some),
        ("single_row", normal(40, 6), np.arange(40) != 17),
        ("single_column", normal(40, 1), some),
        ("all_rows_kept", normal(40, 6), np.ones(40, dtype=bool)),
        ("ill_conditioned", ill, some),
        ("real", rng.standard_normal((40, 6)), some),
    ]


@pytest.mark.parametrize("name, block, keep", _gram_blocks(), ids=[c[0] for c in _gram_blocks()])
def test_gram_reducer_bounds_the_svd_from_above(name, block, keep):
    """The reported value is at least LAPACK's top singular value of the
    unkept rows and above it by at most the derived term: sqrt(ref^2 + 2 E),
    E = 3 (m + n + 2) u ||M||_F^2 (the reported square is lambda^ + E, and
    |lambda^ - ref^2| <= E); a zero block reads exactly 0."""
    ref = _svd_top(block, keep)
    ((got,),) = masked_top_singular(block[None], np.array([0, len(block)]), [[keep]])
    sub = block[~keep]
    e = 3.0 * (len(sub) + block.shape[1] + 2) * 2.0**-53 * np.linalg.norm(sub) ** 2
    assert ref <= got <= math.sqrt(ref**2 + 2.0 * e) * (1.0 + 2.0**-50)
    if name in ("zero", "all_rows_kept"):
        assert got == 0.0 and math.copysign(1.0, got) == 1.0
    else:
        assert got > 0.0


def test_gram_reducer_batches_and_chunks(monkeypatch):
    """Every (output, mask, member) is one Gram matrix; batches of them go
    through one eigvalsh call each, at most _BLOCK_ENTRIES entries and at
    least one matrix per call; rows are summed in chunks of at most
    max(_BLOCK_ENTRIES, n0^2 / 8) entries; values match the SVD per member."""
    rng = np.random.default_rng(3)
    starts = np.array([0, 30, 45, 80])
    cols = rng.standard_normal((2, 80, 4)) + 1j * rng.standard_normal((2, 80, 4))
    kept = [[rng.random(80) < 0.4 for _ in range(3)], [rng.random(80) < 0.4]]
    calls = []
    real_eigvalsh = np.linalg.eigvalsh

    def spy_eigvalsh(a):
        calls.append(a.shape)
        return real_eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy_eigvalsh)
    for entries, per in ((1 << 15, 12), (40, 2), (1, 1)):
        monkeypatch.setattr(propagate, "_BLOCK_ENTRIES", entries)
        calls.clear()
        got = masked_top_singular(cols, starts, kept)
        assert [c[0] for c in calls] == [per] * (12 // per)
        assert all(c[1:] == (4, 4) for c in calls)
        for o, masks in enumerate(kept):
            for k, keep in enumerate(masks):
                want = max(_svd_top(cols[o, a:b], keep[a:b]) for a, b in zip(starts, starts[1:]))
                assert want <= got[o][k] <= want * (1.0 + 1e-13)
    gathered = []

    class Recording(np.ndarray):
        def __getitem__(self, key):
            out = super().__getitem__(key)
            gathered.append(out.size)
            return out

    monkeypatch.setattr(propagate, "_BLOCK_ENTRIES", 8)  # 2 rows of 4 columns per chunk
    block, keep = cols[0, :30], kept[0][0][:30]
    out = np.empty((4, 4), dtype=complex)
    e = propagate._gram(block.view(Recording), keep, out)
    assert gathered == [8] * (np.count_nonzero(~keep) // 2) + [4] * (np.count_nonzero(~keep) % 2)
    exact = block[~keep].conj().T @ block[~keep]
    assert np.abs(out - exact).max() <= e


def test_one_block_stack_holds_one_copy_of_its_columns():
    """A stack that fits one sweep block takes fn's output as its column
    array, and the float64 recurrence accumulates into the outputs
    themselves: the sweep's traced peak stays well below two copies of the
    (times, dim, n0) columns."""
    model = single_mode(0.5, 1.0, propagate._BLOCK_ENTRIES // 128 - 1)
    window0 = ProjectorSpec(ALL, 0, 127)  # 128 columns of dim * 128 entries: one block
    (stack,) = _stacks(model, window0)
    assert stack.entries == propagate._BLOCK_ENTRIES
    times = [0.05 * k for k in range(1, 17)]
    keeps = [[window_mask(model.basis, ProjectorSpec(ALL, 0, 130))]] * len(times)
    column_bytes = len(times) * stack.entries * 16
    tracemalloc.start()
    try:
        tops = window_sweep(model.basis, window0, [model.hamiltonian], None,
                            lambda ops, e, ts: ops[0].apply_times(e, ts, TOL), times, keeps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(top > 0.0 for (top,) in tops)
    assert peak < 1.5 * column_bytes


def test_keyless_sweep_prepares_the_operator_itself(monkeypatch):
    """A stack that is the whole space in order (no sector keys) is
    prepared on the operator itself, not on a copy sliced as
    h[rows][:, rows]; its outputs are byte for byte the sliced copy's.
    Stacks of sectors still go through `_principal_submatrix`."""
    sliced = []
    real_sub = propagate._principal_submatrix

    def spy(h, rows):
        sliced.append(len(rows))
        return real_sub(h, rows)

    monkeypatch.setattr(propagate, "_principal_submatrix", spy)
    model = single_mode(0.5, 1.0, 40)
    h = model.hamiltonian
    ((_, props),) = _prepared(model.basis, ProjectorSpec(ALL, 0, 5), [h, 2.0 * h])
    assert sliced == []
    block = np.eye(model.dimension, 6)
    rows = np.arange(model.dimension)
    for prop, op in zip(props, (h, 2.0 * h)):
        copy = ChebyshevPropagator(real_sub(op, rows))
        assert prop.apply_times(block, [0.3, 1.1], TOL).tobytes() == (
            copy.apply_times(block, [0.3, 1.1], TOL).tobytes()
        )
    hh = hubbard_holstein_1d(2, g=0.5, n_max=3)
    _prepared(hh.basis, ProjectorSpec(ALL, 0, 1), [hh.hamiltonian], hh.sector_keys)
    assert sliced and all(n < hh.dimension for n in sliced)


def test_leakage_norm_diagonal_model_is_zero():
    model = single_mode(0.0, 1.0, 12)
    leak = leakage_norm(
        model.basis,
        model.hamiltonian,
        ProjectorSpec(0, 0, 3),
        ProjectorSpec(0, 0, 6),
        2.0,
    )
    assert leak < 1e-12


def test_leakage_norm_within_short_time_bound():
    """The measured leakage sits under the certified one-step factor."""
    model = single_mode(1.0, 1.0, 32)
    t_edge = 0.25  # speed limit for chi=2, lambda0=0
    for delta in (1, 2, 3):
        leak = leakage_norm(
            model.basis,
            model.hamiltonian,
            ProjectorSpec(0, 0, 0),
            ProjectorSpec(0, 0, delta - 1),
            t_edge,
        )
        cert = 2.0 ** (1 - delta) / math.sqrt(math.factorial(delta))
        assert leak <= cert + 1e-9


def test_leakage_norm_rejects_non_hermitian():
    basis = build_basis([boson(3)])
    h = sp.csr_matrix(np.diag(np.ones(3), k=1).astype(complex))  # raising only
    window = ProjectorSpec(0, 0, 1)
    with pytest.raises(ValueError, match="not Hermitian"):
        leakage_norm(basis, h, window, window, 0.5)


# ---------------------------------------------------------------------------
# setup once per operator
# ---------------------------------------------------------------------------

@pytest.fixture
def hermiticity_checks(monkeypatch):
    """Shapes of the operators propagate checks for Hermiticity, one per check."""
    checks = []
    real = propagate.hermiticity_defect

    def counting(op):
        checks.append(op.shape)
        return real(op)

    monkeypatch.setattr(propagate, "hermiticity_defect", counting)
    return checks


def test_trotter_check_prepares_each_part_once(hermiticity_checks, monkeypatch):
    """H and every part are prepared once per stack, on the stack's rows,
    however many blocks and step sizes."""
    model = hubbard_holstein_1d(2, g=0.5, n_max=3)  # dim 256, 64 window columns
    monkeypatch.setattr(propagate, "_BLOCK_ENTRIES", 8 * model.dimension)  # 8 blocks
    stacks = _stacks(model, ProjectorSpec(ALL, 0, 1))
    empirical_trotter_error(model, 2, [0.2, 0.1, 0.05, 0.025], 1)
    n_ops = len(model.parts) + 1
    assert hermiticity_checks == [(len(st.rows),) * 2 for st in stacks for _ in range(n_ops)]


def test_hamiltonian_truncation_prepares_each_operator_once(hermiticity_checks, monkeypatch):
    """H and Pi H Pi are checked once per stack of each cutoff, however many
    blocks."""
    monkeypatch.setattr(propagate, "_BLOCK_ENTRIES", 4 * 576)  # 4 columns of dim 576
    factory = lambda nm: hubbard_holstein_1d(2, g=0.5, n_max=nm)
    stacks = [st for nm in (5, 10) for st in _stacks(factory(nm), ProjectorSpec(ALL, 0, 1))]
    verify_hamiltonian_truncation(factory, 5, 1, 3, 0.4, check_padding=True)
    assert hermiticity_checks == [(len(st.rows),) * 2 for st in stacks for _ in range(2)]


def test_state_truncation_prepares_once(hermiticity_checks):
    model = single_mode(1.0, 1.0, 24)
    verify_state_truncation(model, 0, [0.2, 0.5, 1.0], deltas=(2, 3))
    assert len(hermiticity_checks) == 1


# ---------------------------------------------------------------------------
# symmetry sectors
# ---------------------------------------------------------------------------

SECTOR_CASES = [
    (hubbard_holstein_1d(2, u=0.5, g=0.5, n_max=5), ProjectorSpec(ALL, 0, 2), 0.7),
    (dicke(2, 1.0, 0.7, 0.6, 10), ProjectorSpec(ALL, 0, 3), 0.6),
    (u1_lgt_1d(4, g_m=1.0, g_gm=0.8, g_e=0.9, field_cap=2), ProjectorSpec(ALL, 0, 0), 0.8),
]


@pytest.mark.parametrize("model, window0, t", SECTOR_CASES, ids=["hh", "dicke", "u1"])
def test_sectored_columns_match_unsectored(model, window0, t):
    basis, h, keys = model.basis, model.hamiltonian, model.sector_keys
    assert len(_sector_entries(_stacks(model, window0))) > 1
    full, idx = _window_columns(basis, h, window0, t)
    # each sector's columns, swept in their stacks, scattered into the full block
    split, idx2 = _window_columns(basis, h, window0, t, keys)
    assert np.array_equal(idx, idx2)
    slack = engine_slack(TOL)
    assert np.linalg.norm(split - full, 2) <= slack
    # the whole-space evolution keeps each column inside its window state's sector
    assert np.abs(full[keys[:, None] != keys[idx][None, :]]).max() <= slack
    for lam in (window0.hi + 1, window0.hi + 2):
        window1 = ProjectorSpec(ALL, 0, lam)
        one = leakage_norm(basis, h, window0, window1, t)
        many = leakage_norm(basis, h, window0, window1, t, sector_keys=keys)
        assert one > 1e-4 or lam > window0.hi + 1
        assert abs(many - one) <= slack
        keep = window_mask(basis, window1)
        assert many == pytest.approx(_svd_top(full, keep), abs=slack)


@pytest.mark.parametrize("p", [1, 2])
def test_sectored_trotter_error_matches_one_sector(p):
    model = hubbard_holstein_1d(2, u=0.5, g=0.5, n_max=5)
    one = dataclasses.replace(model, sector_keys=np.zeros(model.dimension, dtype=int))
    taus = [0.2, 0.1]
    many = empirical_trotter_error(model, p, taus, 1)
    single = empirical_trotter_error(one, p, taus, 1)
    for a, b in zip(many, single):
        assert a.error > 1e-9
        assert abs(a.error - b.error) <= engine_slack(TOL)


def test_window_sweep_without_masks_propagates_nothing():
    """No escape window below the cutoff: the state check sweeps no sector."""
    model = hubbard_holstein_1d(2, g=0.5, n_max=3)
    window0 = ProjectorSpec(ALL, 0, 1)
    assert len(_sector_entries(_stacks(model, window0))) == 9
    args = (model.basis, window0, [model.hamiltonian], model.sector_keys, _unreachable)
    assert window_sweep(*args, [], []) == []
    assert window_sweep(*args, [0.5, 1.0], [[], []]) == [[], []]


def _one_time_recurrence(prop, block, t, tol):
    """exp(-i t h) block by the complex Chebyshev recurrence, term for term
    the arithmetic of a single-time complex128 propagator."""
    block = np.asarray(block, dtype=complex)
    if t == 0:
        return block.copy()
    if prop._diag is not None:
        phase = np.exp(-1j * t * prop._diag)
        return (phase if block.ndim == 1 else phase[:, None]) * block
    bessel = propagate._chebyshev_bessel(prop._half * t, tol)
    k = np.arange(len(bessel))
    coeffs = 2.0 * np.array([1, -1j, -1, 1j])[k % 4] * bessel
    coeffs[0] /= 2.0
    out = coeffs[0] * block
    if len(coeffs) > 1:
        two_hs = sp.csr_matrix(prop._two_hs, dtype=complex)
        prev, cur = block, 0.5 * (two_hs @ block)
        out += coeffs[1] * cur
        for c in coeffs[2:]:
            nxt = two_hs @ cur
            nxt -= prev
            out += c * nxt
            prev, cur = cur, nxt
    out *= np.exp(-1j * t * prop._centre)
    return out


MULTI_TIME_MODELS = [
    hubbard_holstein_1d(2, u=0.5, g=0.5, n_max=4),
    dicke(2, 1.0, 0.7, 0.6, 10),
]


@pytest.mark.parametrize("model", MULTI_TIME_MODELS, ids=["hh", "dicke"])
def test_multi_time_recurrence_equals_single_time_calls(model):
    """One recurrence for many times: every time's block is exactly the one a
    single-time call gives, and byte for byte the complex recurrence run for
    that time alone, with t = 0, a repeated and a negative time, on the
    Hamiltonian and on every part (one of them diagonal; all real, so in
    float64): for a real block (the float64 recurrence), a complex block of
    8 columns (its float64 view of width 16), and a complex block of 1
    column and a strided vector (their float64 views of width 2)."""
    times = [0.3, 0.0, -1.2, 2.5, 0.3]
    block = _random_block(model.dimension, 8, 21)
    ops = [model.hamiltonian, *model.parts.values()]
    props = [ChebyshevPropagator(h) for h in ops]
    assert any(p._diag is not None for p in props)
    assert any(p._diag is None for p in props)
    for prop in props:
        assert prop.dtype == np.float64
        for b in (block, block[:, 1], block.real.copy(), block[:, :1]):
            many = prop.apply_times(b, times, 1e-10)
            assert many.shape == (len(times),) + b.shape
            for got, t in zip(many, times):
                assert np.array_equal(got, prop.apply(b, t, 1e-10))
                assert got.tobytes() == _one_time_recurrence(prop, b, t, 1e-10).tobytes()
    assert props[0].apply_times(block, [], 1e-10).shape == (0,) + block.shape


# ---------------------------------------------------------------------------
# real arithmetic: float64 recurrence and eigensolve, caller's matrices untouched
# ---------------------------------------------------------------------------

def test_real_hamiltonian_runs_in_float64():
    """A real H is scaled and solved in float64; the scaled operator is
    built when the propagator is prepared, by a sweep's propagators too
    (none at r = 0, where every evolution is one term)."""
    model = hubbard_holstein_1d(2, u=0.5, g=0.5, n_max=4)
    prop = ChebyshevPropagator(model.hamiltonian)
    assert prop.dtype == np.float64 and prop._two_hs.dtype == np.float64
    assert prop._two_hs.data.flags.c_contiguous
    props = [ops[0] for _, ops in _prepared(model.basis, ProjectorSpec(ALL, 0, 1),
                                             [model.hamiltonian], model.sector_keys)]
    assert any(p._two_hs is not None for p in props)
    for p in props:
        assert p.dtype == np.float64
        assert (p._two_hs is None) == (p._half == 0.0)
        assert p._two_hs is None or p._two_hs.dtype == np.float64
    _, vecs = lowest_eigenpairs(model.hamiltonian, k=2)
    assert vecs.dtype == np.float64
    complex_h = ChebyshevPropagator(_random_hermitian(30, 5))
    assert complex_h.dtype == complex and complex_h._two_hs.dtype == complex


def test_prepared_propagator_keeps_one_operator():
    """A prepared non-diagonal propagator holds 2 (h - c) / r and nothing
    else of h: after an apply it retains about one CSR operator, not two."""
    h = hubbard_holstein_1d(2, u=0.5, g=0.5, n_max=12).hamiltonian
    block = np.eye(h.shape[0], 4)
    ChebyshevPropagator(h).apply(block, 0.3, TOL)  # warm every lazy import
    tracemalloc.start()
    try:
        prop = ChebyshevPropagator(h)
        prop.apply(block, 0.3, TOL)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    two_hs = prop._two_hs
    op_bytes = two_hs.data.nbytes + two_hs.indices.nbytes + two_hs.indptr.nbytes
    assert op_bytes > 100_000
    assert op_bytes <= held < 1.25 * op_bytes


def test_restricted_stack_takes_its_rows_gershgorin_ends():
    """A multi-member stack of 2-site HH gets, bit for bit, the (centre,
    half) of the full operator's Gershgorin ends of its rows, and its
    float64 recurrence equals the complex one byte for byte."""
    model = hubbard_holstein_1d(2, u=0.5, g=0.5, n_max=5)
    prepared = _prepared(model.basis, ProjectorSpec(ALL, 0, 2), [model.hamiltonian],
                         model.sector_keys)
    stack, (sub,) = max(prepared, key=lambda pair: len(pair[0].starts))
    assert len(stack.starts) > 2
    h = propagate._owned_csr(model.hamiltonian)
    d = h.diagonal()
    radius = np.asarray(abs(h).sum(axis=1)).ravel() - np.abs(d)
    lo = float(np.min((d - radius)[stack.rows]))
    hi = float(np.max((d + radius)[stack.rows]))
    assert (sub._centre, sub._half) == ((hi + lo) / 2.0, (hi - lo) / 2.0)
    assert sub._half > 0.0
    e = np.zeros((len(stack.rows), stack.window.shape[1]))
    e[stack.window, np.arange(stack.window.shape[1])] = 1.0
    times = [0.3, 0.0, -1.2, 2.5]
    for block in (e, _random_block(len(stack.rows), 8, 29)):
        for got, t in zip(sub.apply_times(block, times, 1e-10), times):
            assert got.tobytes() == _one_time_recurrence(sub, block, t, 1e-10).tobytes()


def test_lowest_eigenpairs_twice_on_one_hamiltonian():
    """The real symmetric solve leaves H intact: a second solve of the same
    H passes the residual check with the same eigenvalues."""
    h = hubbard_holstein_1d(2, u=0.0, n_max=16).hamiltonian
    assert h.shape[0] > 400  # the Lanczos path
    for _ in range(2):
        vals, _ = lowest_eigenpairs(h, k=2)
        assert abs(vals[0] + 2.093462541041) <= 1e-9
        assert abs(vals[1] + 1.384285307211) <= 1e-9


def _csr_bytes(op):
    return tuple(a.tobytes() for a in (op.indptr, op.indices, op.data))


@pytest.mark.parametrize(
    "build",
    [lambda: hubbard_holstein_1d(2, u=0.5, g=0.5, n_max=12), lambda: dicke(2, 1.0, 0.7, 0.6, 10)],
    ids=["hh", "dicke"],
)
def test_engine_calls_leave_the_callers_matrices_alone(build):
    """Preparing a propagator, a window sweep, an evolve and an eigensolve
    never reorder the entries of H or of any part (the HH and Dicke
    Hamiltonians and the HH coupling hold unsorted indices)."""
    model = build()
    ops = [model.hamiltonian, *model.parts.values()]
    before = [_csr_bytes(op) for op in ops]
    for op in ops:
        ChebyshevPropagator(op).apply(np.ones(model.dimension), 0.3, 1e-10)
    window_sweep(model.basis, ProjectorSpec(ALL, 0, 1), ops, model.sector_keys,
                 lambda o, e, ts: o[0].apply_times(e, ts, TOL), [0.3],
                 [[window_mask(model.basis, ProjectorSpec(ALL, 0, 2))]])
    evolve(model.hamiltonian, _random_state(model.dimension, 3), 0.3)
    lowest_eigenpairs(model.hamiltonian, k=2)
    assert [_csr_bytes(op) for op in ops] == before


@pytest.mark.parametrize("model, window0, t", SECTOR_CASES, ids=["hh", "dicke", "u1"])
def test_stacked_sweep_matches_per_sector_sweep(model, window0, t):
    """The stacked sweep's values, for several times and escape windows per
    time, equal an evolution of each sector on its own within the engine
    slack."""
    basis, h, keys = model.basis, model.hamiltonian, model.sector_keys
    stacks = _stacks(model, window0)
    assert any(len(stack.starts) > 2 for stack in stacks)
    times = [t, 0.0, 2.0 * t]
    lams = [window0.hi + 1, window0.hi + 2]
    keeps = [[window_mask(basis, ProjectorSpec(ALL, 0, lam)) for lam in lams]] * len(times)
    got = window_sweep(basis, window0, [h], keys,
                       lambda ops, e, ts: ops[0].apply_times(e, ts, TOL), times, keeps)
    sectors = [member for stack in stacks for member in _members(stack)]
    props = [ChebyshevPropagator(propagate._principal_submatrix(h, rows)) for rows, _ in sectors]
    slack = engine_slack(TOL)
    for ti, masks, row in zip(times, keeps, got):
        for keep, value in zip(masks, row):
            want = 0.0
            for (rows, window), prop_s in zip(sectors, props):
                e = np.zeros((len(rows), len(window)))
                e[window, np.arange(len(window))] = 1.0
                cols = prop_s.apply(e, ti, TOL)
                want = max(want, _svd_top(cols, keep[rows]))
            assert abs(value - want) <= slack
    assert any(v > 1e-4 for v in got[0])
    assert got[1] == [0.0, 0.0]


@pytest.mark.parametrize("model, window0, t", SECTOR_CASES, ids=["hh", "dicke", "u1"])
def test_stacks_hold_equal_window_counts_within_one_block(model, window0, t):
    """The stacks' members are exactly the sectors that meet the window
    (the states of one key, ascending, and their window positions), each
    in exactly one stack; a stack of several members fits one block."""
    keys = model.sector_keys
    mask = window_mask(model.basis, window0)
    sectors = []
    for key in np.unique(keys):
        rows = np.flatnonzero(keys == key)
        if mask[rows].any():
            sectors.append((rows, np.flatnonzero(mask[rows])))
    stacks = _stacks(model, window0)
    members = [m for stack in stacks for m in _members(stack)]
    assert len(members) == len(sectors)
    members.sort(key=lambda m: keys[m[0][0]])
    for (rows, window), (want_rows, want_window) in zip(members, sectors):
        assert np.array_equal(rows, want_rows) and np.array_equal(window, want_window)
    for stack in stacks:
        assert stack.window.shape == (len(stack.starts) - 1, stack.window.shape[1])
        assert len(stack.starts) == 2 or stack.entries <= propagate._BLOCK_ENTRIES
        assert np.array_equal(stack.rows, np.concatenate([r for r, _ in _members(stack)]))


def test_large_sectors_are_stacks_of_their_own(monkeypatch):
    """A block too small for two sectors leaves every sector alone; an
    unbounded block stacks every sector of one window count together; and
    in between a sector joins the open stack of its count while the stack
    fits, in key order, and opens a new one otherwise."""
    model = hubbard_holstein_1d(2, u=0.5, g=0.5, n_max=5)
    window0 = ProjectorSpec(ALL, 0, 2)
    n_sectors = len(_sector_entries(_stacks(model, window0)))
    # (N_up, N_dn) keys 0..8; sectors of 36 rows hold 9 window states, of
    # 72 rows 18 and of 144 rows 36: a block of 648 entries fits two of the
    # smallest and no other sector
    monkeypatch.setattr(propagate, "_BLOCK_ENTRIES", 2 * 36 * 9)
    keys = model.sector_keys
    members = [[keys[rows[0]] for rows, _ in _members(st)] for st in _stacks(model, window0)]
    assert members == [[0, 2], [1], [3], [4], [5], [6, 8], [7]]
    monkeypatch.setattr(propagate, "_BLOCK_ENTRIES", 1)
    alone = _stacks(model, window0)
    assert [len(st.starts) - 1 for st in alone] == [1] * n_sectors
    monkeypatch.setattr(propagate, "_BLOCK_ENTRIES", 1 << 40)
    widths = {st.window.shape[1] for st in alone}
    assert len(widths) > 1
    assert sorted(st.window.shape[1] for st in _stacks(model, window0)) == sorted(widths)


def test_window_sweep_batches_outputs_under_the_cap(monkeypatch):
    """Outputs held at once times stack entries stay within COLUMN_CAP: a
    cap below two outputs of the largest stack takes one time at a time
    there, with the same values."""
    model = hubbard_holstein_1d(2, u=0.5, g=0.5, n_max=5)
    window0 = ProjectorSpec(ALL, 0, 2)
    args = (model.basis, window0, [model.hamiltonian], model.sector_keys)
    times = [0.2, 0.5, 0.9]
    keeps = [[window_mask(model.basis, ProjectorSpec(ALL, 0, 3))]] * len(times)
    batches = []

    def evolve_times(ops, e, ts):
        batches.append((e.shape[0] * e.shape[1], len(ts)))
        return ops[0].apply_times(e, ts, TOL)

    whole = window_sweep(*args, evolve_times, times, keeps)
    assert max(n for _, n in batches) == len(times)
    largest = max(stack.entries for stack in _stacks(model, window0))
    monkeypatch.setattr(propagate, "COLUMN_CAP", 2 * largest - 1)
    batches.clear()
    split = window_sweep(*args, evolve_times, times, keeps)
    assert split == whole
    assert min(n for _, n in batches) == 1
    assert all(entries * n <= 2 * largest - 1 for entries, n in batches)


def test_restrict_rejects_rows_coupled_to_the_rest():
    """A sector's principal submatrix is its own; rows an operator couples
    to the rest are refused, by the submatrix and by a window sweep whose
    keys the operator does not conserve, before any stack is swept; keys
    of the wrong shape too."""
    model = hubbard_holstein_1d(2, g=0.5, n_max=3)
    h, keys = model.hamiltonian, model.sector_keys
    rows = np.flatnonzero(keys == keys[0])
    assert propagate._principal_submatrix(h, rows).shape == (len(rows), len(rows))
    phonons = model.basis.local_indices(2)
    phonon_vacuum = np.flatnonzero(phonons == 0)
    with pytest.raises(ValueError, match="coupled to states outside"):
        propagate._principal_submatrix(h, phonon_vacuum)
    window0 = ProjectorSpec(ALL, 0, 1)
    sweep = ([0.5], [[np.zeros(model.dimension, dtype=bool)]])
    with pytest.raises(ValueError, match="coupled to states outside"):
        window_sweep(model.basis, window0, [h], phonons, _unreachable, *sweep)
    with pytest.raises(ValueError, match="one entry per basis state"):
        window_sweep(model.basis, window0, [h], keys[:-1], _unreachable, *sweep)


def test_window_sweep_refuses_a_non_hermitian_stack():
    """Hermiticity is checked on each stack's own operator: an entry without
    its mirror inside a stack is refused."""
    model = hubbard_holstein_1d(2, g=0.5, n_max=3)
    h, keys = model.hamiltonian, model.sector_keys
    window0 = ProjectorSpec(ALL, 0, 1)
    rows = _stacks(model, window0)[0].rows
    inside = sp.csr_matrix(([0.5], ([rows[0]], [rows[1]])), shape=h.shape)
    assert keys[rows[0]] == keys[rows[1]]
    with pytest.raises(ValueError, match="not Hermitian"):
        window_sweep(model.basis, window0, [h + inside], keys, _unreachable, [0.5],
                     [[np.zeros(model.dimension, dtype=bool)]])


def test_window_sweep_refuses_before_sweeping_any_stack():
    """Every stack is prepared before the first is swept: an operator that
    is not Hermitian on the last stack only is refused before fn is ever
    called, though every earlier stack's operators pass."""
    model = hubbard_holstein_1d(2, g=0.5, n_max=3)
    h, keys = model.hamiltonian, model.sector_keys
    window0 = ProjectorSpec(ALL, 0, 1)
    stacks = _stacks(model, window0)
    assert len(stacks) > 1
    rows = stacks[-1].rows
    inside = sp.csr_matrix(([0.5], ([rows[0]], [rows[1]])), shape=h.shape)
    calls = []

    def recording(ops, e, xs):
        calls.append(len(xs))
        return ops[0].apply_times(e, xs, TOL)

    keep = window_mask(model.basis, ProjectorSpec(ALL, 0, 2))
    with pytest.raises(ValueError, match="not Hermitian"):
        window_sweep(model.basis, window0, [h, h + inside], keys, recording, [0.5], [[keep]])
    assert calls == []
    window_sweep(model.basis, window0, [h, h], keys, recording, [0.5], [[keep]])
    assert len(calls) >= len(stacks)


@pytest.mark.parametrize("build, whole", [
    (lambda: hubbard_holstein_1d(2, u=0.5, g=0.5, n_max=4), False),
    (lambda: dicke(2, 1.0, 0.7, 0.6, 6), True),  # both parity sectors in one stack
    (lambda: single_mode(0.5, 1.0, 12), True),  # no keys: one sector
], ids=["hh", "dicke", "single"])
def test_window_sweep_builds_one_propagator_per_operator_and_stack(
    build, whole, hermiticity_checks
):
    """len(ops) x len(stacks) propagators, each of its stack's dimension,
    so none of the full dimension unless one stack is the whole space."""
    model = build()
    ops = [model.hamiltonian, *model.parts.values()]
    prepared = _prepared(model.basis, ProjectorSpec(ALL, 0, 1), ops, model.sector_keys)
    assert [[p.shape for p in props] for _, props in prepared] == [
        [(len(st.rows),) * 2] * len(ops) for st, _ in prepared
    ]
    assert hermiticity_checks == [(len(st.rows),) * 2 for st, _ in prepared for _ in ops]
    assert [len(st.rows) == model.dimension for st, _ in prepared] == (
        [True] if whole else [False] * len(prepared)
    )


STACK_MODELS = [
    hubbard_holstein_1d(2, hop=1.0, u=0.5, g=0.5, n_max=13),
    hubbard_holstein_1d(3, u=0.7, g=-0.4, n_max=2, open_boundary=False),
    dicke(3, 1.0, -0.7, 0.4, 6),
    u1_lgt_1d(3, g_m=1.0, g_gm=0.8, g_e=0.9, field_cap=2),
]
STACK_IDS = ["hh2", "hh3_periodic", "dicke3", "u1"]


@pytest.mark.parametrize("model", STACK_MODELS, ids=STACK_IDS)
def test_stack_propagation_equals_full_space_evolve(model):
    """Each stack's propagator evolves a block on the stack's rows as the
    full-space evolve does, within both error bounds: the full columns stay
    on the stack's rows, and agree there to within 4 tol ||block||."""
    h = model.hamiltonian
    prepared = _prepared(model.basis, ProjectorSpec(ALL, 0, 1), [h], model.sector_keys)
    assert any(len(st.starts) > 2 for st, _ in prepared)
    for i, (stack, (prop,)) in enumerate(prepared):
        block = _random_block(len(stack.rows), 3, 40 + i)
        block /= np.linalg.norm(block, 2)
        full = np.zeros((model.dimension, 3), dtype=complex)
        full[stack.rows] = block
        want = evolve(h, full, 0.7)
        got = prop.apply(block, 0.7, TOL)
        assert np.linalg.norm(want[stack.rows] - got, 2) <= 4 * TOL
        rest = np.ones(model.dimension, dtype=bool)
        rest[stack.rows] = False
        assert np.linalg.norm(want[rest], 2) <= 2 * TOL


def _stack_rows(model, lam=1):
    """The rows of every stack of the model's [0, lam] window, largest first."""
    stacks = _stacks(model, ProjectorSpec(ALL, 0, lam))
    return sorted((st.rows for st in stacks), key=len, reverse=True)


@pytest.mark.parametrize("model", STACK_MODELS, ids=STACK_IDS)
def test_restrict_is_scipy_fancy_indexing_byte_for_byte(model):
    """The submatrix has exactly the arrays of h[rows][:, rows], on the
    caller's mixed-order H (HH and Dicke store some rows with descending
    columns), on multi-member stacks and on rows in any order; and each
    stack's propagator is exactly the one prepared from the canonical full
    copy's h[rows][:, rows]."""
    stacks = _stack_rows(model)
    assert any(len(np.unique(model.sector_keys[rows])) > 1 for rows in stacks)
    rng = np.random.default_rng(7)
    ops = [model.hamiltonian, *model.parts.values()]
    prepared = _prepared(model.basis, ProjectorSpec(ALL, 0, 1), ops, model.sector_keys)
    for j, op in enumerate(ops):
        canonical = propagate._owned_csr(op)
        for stack, props in prepared:
            want = ChebyshevPropagator(canonical[stack.rows][:, stack.rows])
            assert (props[j]._centre, props[j]._half) == (want._centre, want._half)
            assert np.array_equal(props[j]._diag, want._diag)
            assert (props[j]._two_hs is None) == (want._two_hs is None)
            assert want._two_hs is None or _same_csr(props[j]._two_hs, want._two_hs)
        for rows in [*stacks, rng.permutation(stacks[0])]:
            assert _same_csr(propagate._principal_submatrix(op, rows), op[rows][:, rows])
    mixed = model.hamiltonian
    if model.label in ("hubbard_holstein_1d", "dicke"):
        rows_of = np.repeat(np.arange(mixed.shape[0]), np.diff(mixed.indptr))
        descending = (np.diff(mixed.indices) < 0) & (np.diff(rows_of) == 0)
        assert descending.any()


def test_restrict_drops_stored_zeros_that_point_outside():
    """Stored zeros may couple rows to the rest: they are dropped, as
    fancy indexing drops them, and stored zeros inside are kept."""
    # rows [2, 0, 3]: the stored zeros (0, 1) and (2, 1) point outside,
    # (3, 0) points inside; row 2 stores its columns descending
    h = sp.csr_matrix(
        (
            np.array([1.0, 0.0, 2.0, 3.0, 4.0, 0.0, 2.0, 5.0, 0.0]),
            np.array([0, 1, 2, 1, 2, 1, 0, 3, 0], dtype=np.int32),
            np.array([0, 3, 4, 7, 9], dtype=np.int32),
        ),
        shape=(4, 4),
    )
    rows = np.array([2, 0, 3])
    sub = propagate._principal_submatrix(h, rows)
    assert _same_csr(sub, h[rows][:, rows])
    assert sub.nnz == 6
    np.testing.assert_array_equal(sub.toarray(), h.toarray()[np.ix_(rows, rows)])
    bad = h.copy()
    bad.data[5] = 1e-300
    with pytest.raises(ValueError, match="coupled to states outside"):
        propagate._principal_submatrix(bad, rows)


def _chebyshev_search_without_cap_check(x, tol):
    """The term search of `_chebyshev_bessel` before its closed-form cap
    test, verbatim (M only)."""
    y = abs(x) / 2.0
    log_y = math.log(y)
    log_rest = math.log(tol * propagate._REMAINDER_SHARE / 2.0)
    log_a = log_y
    m = 0 if 2.0 * y <= propagate._TERM_CAP else propagate._TERM_CAP + 1
    while m <= propagate._TERM_CAP:
        q = y / (m + 2)
        if q < 0.5 and log_a - math.log1p(-q) <= log_rest:
            return m, log_a, q
        m += 1
        log_a += log_y - math.log(m + 1)
    return None


def test_chebyshev_cap_test_keeps_every_accepted_expansion():
    """The closed-form test at the cap rejects only reaches the search
    would reject: every expansion the search accepts is kept, term count
    and coefficients to the bit."""
    for x in (1e-3, 0.5, 3.0, 40.0, 1e3, 2.5e4):
        for tol in (1e-6, 1e-10, 1e-14):
            m, log_a, q = _chebyshev_search_without_cap_check(x, tol)
            bessel = propagate._bessel_j(x, m)
            terms = 2.0 * np.abs(bessel[:0:-1])
            tails = np.append(np.cumsum(terms)[::-1], 0.0) + 2.0 * math.exp(log_a) / (1.0 - q)
            want = bessel[: np.count_nonzero(tails > tol) + 1]
            assert propagate._chebyshev_bessel(x, tol).tobytes() == want.tobytes()


def test_chebyshev_cap_test_rejects_past_the_cap_at_once(monkeypatch):
    """Just past the largest reach 2^20 terms can expand (about 7.7e5 at
    tol 1e-10) the cap test rejects without the search: the search's
    per-term log is never called."""
    calls = []
    real_log = math.log

    class CountingMath:
        def __getattr__(self, name):
            return getattr(math, name)

        @staticmethod
        def log(v):
            calls.append(v)
            return real_log(v)

    monkeypatch.setattr(propagate, "math", CountingMath())
    for x in (7.72e5, 1.9e6, 1e13):
        with pytest.raises(ResourceLimitError, match="Chebyshev terms"):
            propagate._chebyshev_bessel(x, 1e-10)
    assert len(calls) <= 6


# ---------------------------------------------------------------------------
# Bessel coefficients by Miller's recurrence, against mpmath
# ---------------------------------------------------------------------------

def _mp_bessel(x, m):
    """J_0(x) .. J_m(x) as 40-digit mpf values: the backward recurrence run
    from far past m and |x| in 40-digit arithmetic, then normalised."""
    import mpmath

    with mpmath.workdps(40):
        ax = mpmath.mpf(abs(x))
        p_next, p, evens = mpmath.mpf(0), mpmath.mpf(1), mpmath.mpf(0)
        vals = [None] * (m + 1)
        for k in range(m + int(abs(x)) // 2 + 80, 0, -1):
            if k <= m:
                vals[k] = p
            if k % 2 == 0:
                evens += p
            p_next, p = p, 2 * k / ax * p - p_next
        vals[0] = p
        norm = p + 2 * evens
        return [(-1) ** (k * (x < 0)) * v / norm for k, v in enumerate(vals)]


@pytest.mark.parametrize(
    "x", [1e-8, -3e-4, 0.37, -1.0, 2.9, 8.5, -26.0, 97.3, -310.0, 1234.5, 1e4]
)
def test_bessel_values_meet_their_stated_error(x):
    """`_bessel_j` against mpmath: each value within 2^-48 and the errors of
    all orders within _BESSEL_ERR (1 + |x|), for the orders the term search
    asks at tol 1e-14 (its widest).  The 40-digit reference is pinned to
    mpmath.besselj at 30 digits on sampled orders."""
    import mpmath

    m, _, _ = _chebyshev_search_without_cap_check(x, 1e-14)
    ref = _mp_bessel(x, m)
    with mpmath.workdps(30):
        for k in sorted({0, 1, min(int(abs(x)), m), m}):
            want = mpmath.besselj(k, x, maxprec=20000)
            assert abs(ref[k] - want) <= mpmath.mpf(10) ** -28 * max(1, abs(want))
    err = np.abs(propagate._bessel_j(x, m) - np.array([float(v) for v in ref]))
    assert err.max() <= 2.0**-48
    assert err.sum() <= propagate._BESSEL_ERR * (1.0 + abs(x))
    assert propagate._coefficient_error(x) == 2.0 * propagate._BESSEL_ERR * (1.0 + abs(x))


def test_evolution_past_the_coefficients_accuracy_is_a_resource_error():
    """The coefficients add up to 2^-49 (1 + r|t|) to the error, which must
    stay within tol: at tol 1e-12, r|t| = 500 evolves (to within 2 tol)
    and r|t| = 600 is refused."""
    prop = ChebyshevPropagator(sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]])))
    assert (prop._centre, prop._half) == (0.0, 1.0)
    psi = np.array([1.0, 0.0])
    got = prop.apply(psi, 500.0, 1e-12)
    np.testing.assert_allclose(got, [math.cos(500.0), -1j * math.sin(500.0)], rtol=0, atol=2e-12)
    with pytest.raises(ResourceLimitError, match="accuracy of its Bessel coefficients"):
        prop.apply(psi, 600.0, 1e-12)


def test_evolution_past_the_coefficients_accuracy_is_refused_before_computing_them(
    monkeypatch,
):
    """Under the term cap but past the coefficients' accuracy (r|t| = 3e5 at
    `TOL`), the refusal comes before the term search and any Bessel value."""

    def no_bessel(x, m):
        raise AssertionError("Bessel values computed for a refused evolution")

    monkeypatch.setattr(propagate, "_bessel_j", no_bessel)
    prop = ChebyshevPropagator(sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]])))
    with pytest.raises(ResourceLimitError, match="accuracy"):
        prop.apply(np.array([1.0, 0.0]), 3e5, TOL)


# ---------------------------------------------------------------------------
# the scaled operator is scipy's expression
# ---------------------------------------------------------------------------

def _scaled_oracle(h, c, s):
    """scipy's (h - c I) * s, written apart from the engine's."""
    return (h - sp.identity(h.shape[0], format="csr") * c) * s


SCALED_MODELS = {
    "single": single_mode(0.5, 1.0, 12),
    "hh": hubbard_holstein_1d(2, u=0.5, g=0.5, n_max=4),
    "hh_periodic": hubbard_holstein_1d(3, u=0.5, g=0.5, n_max=2, open_boundary=False),
    "dicke": dicke(2, 1.0, 0.7, 0.6, 8),
    "u1": u1_lgt_1d(3, 1.0, 0.5, 0.5, 2),
}


@pytest.mark.parametrize("name", SCALED_MODELS)
def test_scaled_operator_is_scipys_expression_byte_for_byte(name):
    """2 (h - c) / r equals scipy's expression on the same private copy in
    data, indices, indptr and their dtypes: for H and every part, the full
    operator and each stack it is restricted to."""
    model = SCALED_MODELS[name]
    rows = np.arange(model.dimension)
    checked = 0
    for h in [model.hamiltonian, *model.parts.values()]:
        cases = [(ChebyshevPropagator(h), h)]
        for stack, (p,) in _prepared(model.basis, ProjectorSpec(ALL, 0, 1), [h],
                                      model.sector_keys):
            whole = np.array_equal(stack.rows, rows)
            cases.append((p, h if whole else propagate._principal_submatrix(h, stack.rows)))
        for p, op in cases:
            if p._diag is not None or p._half == 0.0:
                assert p._two_hs is None
                continue
            copy = propagate._owned_csr(op)
            assert _same_csr(p._two_hs, _scaled_oracle(copy, p._centre, 2.0 / p._half))
            checked += 1
    assert checked >= 3


# ---------------------------------------------------------------------------
# the per-sector column guard
# ---------------------------------------------------------------------------

def test_sector_guard_bounds_the_largest_sector(monkeypatch):
    """A cap below the largest sector's window columns is a resource error
    for every exact sweep: leakage norms, state truncation, Trotter and
    Hamiltonian truncation."""
    model = hubbard_holstein_1d(2, g=0.5, n_max=3)
    window0 = ProjectorSpec(ALL, 0, 1)
    largest = max(_sector_entries(_stacks(model, window0)))
    monkeypatch.setattr(propagate, "COLUMN_CAP", largest)
    assert len(_sector_entries(_stacks(model, window0))) == 9
    monkeypatch.setattr(propagate, "COLUMN_CAP", largest - 1)
    args = (model.basis, model.hamiltonian, window0, ProjectorSpec(ALL, 0, 2), 0.4)
    with pytest.raises(ResourceLimitError, match="over the cap"):
        leakage_norm(*args, sector_keys=model.sector_keys)
    with pytest.raises(ResourceLimitError, match="over the cap"):
        verify_state_truncation(model, 1, [0.4], deltas=(2,))
    with pytest.raises(ResourceLimitError, match="over the cap"):
        empirical_trotter_error(model, 2, [0.1], 1)
    factory = lambda nm: hubbard_holstein_1d(2, g=0.5, n_max=nm)
    with pytest.raises(ResourceLimitError, match="over the cap"):
        verify_hamiltonian_truncation(factory, 5, 1, 3, 0.4)


def test_chebyshev_matches_expm_multiply_past_dense_size():
    """An independent engine as the oracle where no dense eigh is cheap:
    scipy's scaling-and-squaring Taylor action (``expm_multiply``, no
    shared code) agrees with the Chebyshev recurrence to within tol (plus
    1e-12 for expm_multiply's own error) in the 2-norm, on the largest
    sector (dim 4,608) of 3-site HH at n_max 7 and on the stack of its
    [0, 1] window that holds the four sectors with 8 window states (dim
    512 each, 4 x 4,096 entries: one stack for any _BLOCK_ENTRIES of at
    least 2^14), for a real and a complex 8-column block at three times.
    The stack's members have different Gershgorin intervals, so the
    stack's hull is wider than some member's own."""
    model = hubbard_holstein_1d(3, u=0.5, g=0.5, n_max=7)
    h, keys = model.hamiltonian, model.sector_keys
    largest = np.flatnonzero(keys == np.bincount(keys).argmax())
    ((stack, (stacked,)),) = [(s, ops) for s, ops in _prepared(
        model.basis, ProjectorSpec(ALL, 0, 1), [h], keys) if s.window.shape[1] == 8]
    assert (len(largest), len(stack.starts) - 1, len(stack.rows)) == (4608, 4, 2048)
    members = [ChebyshevPropagator(propagate._principal_submatrix(h, rows))
               for rows, _ in _members(stack)]
    assert len({(m._centre, m._half) for m in members}) > 1
    alone = ChebyshevPropagator(propagate._principal_submatrix(h, largest))
    for sub, rows in ((alone, largest), (stacked, stack.rows)):
        h_sub = propagate._principal_submatrix(h, rows).tocsc()
        complex_block = _random_block(sub.shape[0], 8, 31)
        for block in (complex_block.real.copy(), complex_block):
            scale = np.linalg.norm(block, 2)
            for t in (0.25, 1.0, 4.0):
                ref = expm_multiply(-1j * t * h_sub, block.astype(complex))
                err = np.linalg.norm(sub.apply(block, t, TOL) - ref, 2)
                assert err <= (TOL + 1e-12) * scale
