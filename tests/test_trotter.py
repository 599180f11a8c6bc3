"""Product-formula budgets: slot formulas, step counts, empirical scaling."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from scipy.linalg import expm

from truncert.fock_algebra import ALL, ProjectorSpec, window_mask
from truncert.models import hubbard_holstein_1d, single_mode
from truncert import trotter
from truncert.propagate import ChebyshevPropagator, DensePropagator
from truncert.trotter import (
    CoefficientSummaries,
    CommutatorBudget,
    ab_quantities,
    apply_product_formula,
    beta_comm,
    empirical_trotter_error,
    error_scaling_slope,
    per_step_error_bound,
    safe_window,
    summaries_hubbard_holstein,
    summaries_single_mode,
    trotter_steps,
)

SUMMARIES = CoefficientSummaries(
    hop_row_max=1.1,
    hop_total=5.0,
    den_row_max=0.7,
    den_total=2.1,
    g_col_max=0.9,
    g_mode_max=0.4,
    g_total=3.3,
    omega_max=1.3,
    omega_total=4.2,
)


# ---------------------------------------------------------------------------
# slot formulas, transcribed independently of the implementation
# ---------------------------------------------------------------------------

def test_ab_quantities_dual_transcription():
    lam1, p = 5, 2
    budget = ab_quantities(SUMMARIES, lam1, p, lambda_tilde=30)
    w = math.sqrt(2.0 * (lam1 + 1.0))
    s = SUMMARIES
    for qi, q in enumerate(range(1, p + 1)):
        row = budget.a_values[qi]
        assert row[0] == pytest.approx(2 * q * s.hop_row_max)
        assert row[1] == pytest.approx(4 * q * s.den_row_max)
        assert row[2] == pytest.approx(2 * q * s.g_col_max * w + q * s.g_mode_max / w)
        assert row[3] == pytest.approx(q * s.omega_max)
        assert row[4] == pytest.approx(q * s.omega_max)
        assert len(row) == 5
    b = budget.b_values
    assert b[0] == pytest.approx(s.hop_total)
    assert b[1] == pytest.approx(s.den_total)
    assert b[2] == pytest.approx(s.g_total * w)
    assert b[3] == pytest.approx(s.omega_total * (lam1 + 1.0))
    assert b[4] == b[3]
    assert len(b) == 5


def test_beta_comm_closed_form():
    budget = ab_quantities(SUMMARIES, 4, 2, lambda_tilde=30)
    expect = sum(budget.b_values)
    for row in budget.a_values:
        expect *= sum(row)
    assert beta_comm(budget) == pytest.approx(expect)


def test_window_guard_raises():
    with pytest.raises(ValueError):
        ab_quantities(SUMMARIES, 5, 2, lambda_tilde=10)
    # exactly at the edge is allowed
    ab_quantities(SUMMARIES, 5, 2, lambda_tilde=11)


def test_safe_window():
    assert safe_window(2, 1) == 6
    assert safe_window(1, 2) == 7


def test_negative_summaries_rejected():
    with pytest.raises(ValueError):
        CoefficientSummaries(hop_row_max=-0.1)


def test_budget_shape_validation():
    with pytest.raises(ValueError):
        CommutatorBudget(p=2, a_values=((1.0,) * 5,), b_values=(1.0,) * 5,
                         lambda1_prime=0, lambda_tilde=30)


# ---------------------------------------------------------------------------
# model summaries
# ---------------------------------------------------------------------------

def test_summaries_single_mode_mapping():
    s = summaries_single_mode(0.7, 1.3)
    gw = math.sqrt(2.0) * 0.7
    assert s.g_col_max == pytest.approx(gw)
    assert s.g_mode_max == pytest.approx(gw)
    assert s.g_total == pytest.approx(gw)
    assert s.omega_max == 1.3
    assert s.hop_row_max == 0.0


def test_summaries_hubbard_holstein_two_sites():
    s = summaries_hubbard_holstein(2, hop=1.0, u=2.0, mu=0.5, g=0.5, omega0=1.0)
    onsite = abs(0.5 + 1.0)
    assert s.hop_row_max == pytest.approx(1.0 + onsite)
    assert s.hop_total == pytest.approx(2 * (2 * 1.0 + 2 * onsite))
    assert s.den_row_max == 2.0
    assert s.den_total == 4.0
    gw = math.sqrt(2.0) * 0.5
    assert s.g_col_max == pytest.approx(3 * gw)
    assert s.g_total == pytest.approx(6 * gw)
    assert s.omega_total == 2.0


def test_summaries_hubbard_holstein_interior_coordination():
    s2 = summaries_hubbard_holstein(2, hop=1.0, u=0.0, mu=0.0, g=0.0)
    s5 = summaries_hubbard_holstein(5, hop=1.0, u=0.0, mu=0.0, g=0.0)
    assert s2.hop_row_max == 1.0
    assert s5.hop_row_max == 2.0


# ---------------------------------------------------------------------------
# step counts
# ---------------------------------------------------------------------------

def test_trotter_steps_hand_values():
    assert trotter_steps(2.0, 1.0, 1, 1.0).r_steps == 4
    assert trotter_steps(1.0, 1.0, 1, 1.0).r_steps == 1
    assert trotter_steps(1.0, 0.01, 2, 8.0).r_steps == math.ceil(800.0 ** 0.5)


def test_trotter_steps_time_doubling_exponent():
    p = 2
    r1 = trotter_steps(40.0, 1e-3, p, 5.0).r_steps
    r2 = trotter_steps(80.0, 1e-3, p, 5.0).r_steps
    assert r2 / r1 == pytest.approx(2.0 ** (1 + 1 / p), rel=0.01)


def test_trotter_steps_tau_property():
    plan = trotter_steps(3.0, 0.1, 1, 2.0)
    assert plan.tau == pytest.approx(3.0 / plan.r_steps)


def test_trotter_steps_validation():
    with pytest.raises(ValueError):
        trotter_steps(0.0, 0.1, 1, 1.0)
    with pytest.raises(ValueError):
        trotter_steps(1.0, 2.0, 1, 1.0)


def test_per_step_error_constants():
    assert per_step_error_bound(1, 3.0, 0.5) == pytest.approx(0.5 * 3.0 * 0.25)
    assert per_step_error_bound(2, 3.0, 0.5) == pytest.approx(0.125 * 3.0 * 0.125)
    with pytest.raises(ValueError):
        per_step_error_bound(3, 1.0, 0.1)


# ---------------------------------------------------------------------------
# product formulas
# ---------------------------------------------------------------------------

def _split_parts(dim, seed, n_parts=2):
    rng = np.random.default_rng(seed)
    parts = []
    for _ in range(n_parts):
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        parts.append(sp.csr_matrix((a + a.conj().T) / 2.0))
    return parts


@pytest.mark.parametrize("p", [1, 2])
def test_product_formula_exact_for_commuting_parts(p):
    d1 = sp.diags([0.0, 1.0, 2.0]).tocsr()
    d2 = sp.diags([0.5, -0.5, 1.5]).tocsr()
    psi = np.array([0.6, 0.8, 0.0], dtype=complex)
    got = apply_product_formula([ChebyshevPropagator(d) for d in (d1, d2)], psi, 1.7, p)
    expect = np.exp(-1j * 1.7 * (d1 + d2).diagonal()) * psi
    assert np.linalg.norm(got - expect) < 1e-10


@pytest.mark.parametrize("p,order", [(1, 2), (2, 3)])
def test_product_formula_error_order(p, order):
    """Halving tau must shrink the one-step error by about 2**(p+1)."""
    parts = _split_parts(12, seed=42)
    h = parts[0] + parts[1]
    prop = DensePropagator(h)
    props = [ChebyshevPropagator(part) for part in parts]
    rng = np.random.default_rng(7)
    psi = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    psi /= np.linalg.norm(psi)

    def err(tau):
        exact = prop.apply(psi, tau)
        return np.linalg.norm(apply_product_formula(props, psi, tau, p) - exact)

    ratio = err(0.1) / err(0.05)
    assert ratio == pytest.approx(2.0 ** order, rel=0.25)


@pytest.mark.parametrize("p", [1, 2])
def test_product_formula_block_matches_columns(p):
    parts = [ChebyshevPropagator(part) for part in _split_parts(20, seed=3, n_parts=3)]
    rng = np.random.default_rng(4)
    block = rng.standard_normal((20, 5)) + 1j * rng.standard_normal((20, 5))
    got = apply_product_formula(parts, block, 0.3, p)
    for j in range(5):
        col = apply_product_formula(parts, block[:, j], 0.3, p)
        assert np.linalg.norm(got[:, j] - col) < 1e-12


def test_product_formula_rejects_odd_orders():
    parts = [ChebyshevPropagator(part) for part in _split_parts(4, seed=1)]
    for p in (3, 4):  # only the orders with certified constants run
        with pytest.raises(ValueError):
            apply_product_formula(parts, np.ones(4, dtype=complex), 0.1, p)


# ---------------------------------------------------------------------------
# empirical error against the budget
# ---------------------------------------------------------------------------

def test_empirical_trotter_error_sound_and_scaling():
    model = single_mode(1.0, 1.0, 16)
    lam0 = 2
    p = 1
    budget = ab_quantities(
        summaries_single_mode(1.0, 1.0), safe_window(lam0, p), p, model.cutoff
    )
    points = empirical_trotter_error(
        model, p, [0.2, 0.1, 0.05, 0.025], lam0, budget=budget
    )
    for pt in points:
        assert pt.error <= pt.bound
    slope = error_scaling_slope(points)
    assert slope == pytest.approx(2.0, abs=0.2)


def test_empirical_trotter_error_matches_dense_reference():
    """Strang splitting of the three HH parts against dense matrix exponentials."""
    model = hubbard_holstein_1d(2, g=0.5, n_max=3)
    fermion, coupling, boson = (part.toarray() for part in model.parts.values())
    idx = np.nonzero(window_mask(model.basis, ProjectorSpec(ALL, 0, 1)))[0]
    taus = [0.2, 0.05]
    points = empirical_trotter_error(model, 2, taus, 1)
    for tau, pt in zip(taus, points):
        half_f, half_c = expm(-0.5j * tau * fermion), expm(-0.5j * tau * coupling)
        split = half_f @ half_c @ expm(-1j * tau * boson) @ half_c @ half_f
        diff = (split - expm(-1j * tau * model.hamiltonian.toarray()))[:, idx]
        exact = np.linalg.svd(diff, compute_uv=False)[0]
        assert exact > 1e-5
        assert abs(pt.error - exact) <= 1e-9


def test_uncovered_order_with_budget_fails_before_propagating(monkeypatch):
    model = single_mode(1.0, 1.0, 24)
    p = 4
    budget = ab_quantities(
        summaries_single_mode(1.0, 1.0), safe_window(0, p), p, model.cutoff
    )
    calls = []
    real = ChebyshevPropagator.apply

    def counting(self, *args, **kwargs):
        calls.append(self.shape)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(ChebyshevPropagator, "apply", counting)
    with pytest.raises(ValueError, match=r"cover p in \{1, 2\}"):
        empirical_trotter_error(model, p, [0.2, 0.1], 0, budget=budget)
    assert calls == []
    # without a budget p = 4 is refused the same way: no formula is run
    with pytest.raises(ValueError, match=r"cover p in \{1, 2\}"):
        empirical_trotter_error(model, p, [0.2], 0)
    assert calls == []


def _refuses_before_preparing(monkeypatch, match, *args, **kwargs):
    """empirical_trotter_error raises ValueError before any WindowSweep exists."""

    def no_sweep(*_args, **_kwargs):
        raise AssertionError("a window sweep was prepared")

    monkeypatch.setattr(trotter, "WindowSweep", no_sweep)
    with pytest.raises(ValueError, match=match):
        empirical_trotter_error(*args, **kwargs)


def test_budget_of_another_order_is_refused(monkeypatch):
    """The p = 1 budget would certify bounds 0.250 and 0.0313 for a p = 2 check."""
    model = single_mode(1.0, 1.0, 16)
    budget = ab_quantities(
        summaries_single_mode(1.0, 1.0), safe_window(2, 1), 1, model.cutoff
    )
    _refuses_before_preparing(
        monkeypatch, r"budget is for p = 1, not p = 2", model, 2, [0.2, 0.1], 0, budget=budget
    )


def test_budget_of_another_window_is_refused(monkeypatch):
    model = single_mode(1.0, 1.0, 16)
    budget = ab_quantities(
        summaries_single_mode(1.0, 1.0), safe_window(2, 1), 1, model.cutoff
    )
    _refuses_before_preparing(
        monkeypatch, r"safe window 6 is not safe_window\(0, 1\) = 4",
        model, 1, [0.2, 0.1], 0, budget=budget,
    )


def test_budget_past_the_model_cutoff_is_refused(monkeypatch):
    model = single_mode(1.0, 1.0, 16)
    budget = ab_quantities(summaries_single_mode(1.0, 1.0), safe_window(2, 1), 1, 64)
    _refuses_before_preparing(
        monkeypatch, r"cutoff 64 exceeds the model cutoff 16",
        model, 1, [0.2, 0.1], 2, budget=budget,
    )


def test_empirical_trotter_error_without_budget_has_nan_bound():
    model = single_mode(0.5, 1.0, 8)
    points = empirical_trotter_error(model, 2, [0.1], 1)
    assert math.isnan(points[0].bound)
    assert points[0].error > 0


def test_error_scaling_slope_needs_points():
    pts = empirical_trotter_error(single_mode(0.0, 1.0, 8), 1, [0.1, 0.05], 1)
    # a diagonal model splits exactly, so every error sits below the floor
    with pytest.raises(ValueError):
        error_scaling_slope(pts)
