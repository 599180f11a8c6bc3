"""Acceptance gate: one test per headline guarantee, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines;
tolerances are pinned inline next to each assertion.
"""

import math

import numpy as np
import pytest
from scipy.stats import poisson

from truncert.bounds import (
    compare_thresholds,
    energy_threshold_single_mode,
    long_time_bound,
    short_time_bound,
    tail_threshold,
    TailQuery,
)
from truncert.fock_algebra import ProjectorSpec
from truncert.models import hubbard_holstein_1d, single_mode
from truncert.propagate import (
    DensePropagator,
    evolve,
    ground_state,
    leakage_norm,
)
from truncert.trotter import (
    ab_quantities,
    empirical_trotter_error,
    error_scaling_slope,
    safe_window,
    summaries_hubbard_holstein,
    summaries_single_mode,
)
from truncert.verify import (
    coherent_oracle_check,
    tail_decay_slope,
    tail_profile,
    verify_hamiltonian_truncation,
    verify_state_truncation,
    verify_tail,
)
from truncert.walk_profiles import WalkProfile, speed_limit


def _verdict(n: int, ok: bool) -> bool:
    print(f"CRITERION {n}: {'PASS' if ok else 'FAIL'}")
    return ok


def test_criterion_01_formula_exactness():
    gauge = WalkProfile(chi=1.0, r=0.0, label="gauge")
    rep = long_time_bound(gauge, 0, 2, 1.0)
    short = short_time_bound(gauge, 0, 3, 0.1)
    ok = rep.lambda_ == 2 and rep.bound == 0.5 and short == 1.0 / 24.0
    assert _verdict(1, ok)


def test_criterion_02_coherent_state_oracle():
    grid = (0.5, 1.0, 2.0, 3.0)
    worst_pmf = 0.0
    worst_mean = 0.0
    for t in grid:
        n_max = math.ceil(4.0 * t * t + 40.0)
        model = single_mode(1.0, 0.0, n_max)
        psi = np.zeros(model.dimension, dtype=complex)
        psi[0] = 1.0
        out = evolve(model.hamiltonian, psi, t, tol=1e-12)
        pmf = np.abs(out) ** 2
        n = np.arange(model.dimension)
        worst_mean = max(worst_mean, abs(float(pmf @ n) - t * t))
        worst_pmf = max(worst_pmf, float(np.max(np.abs(pmf - poisson.pmf(n, t * t)))))
    rep = coherent_oracle_check(grid)
    ok = worst_mean <= 1e-6 and worst_pmf <= 1e-8 and rep.sound
    assert _verdict(2, ok)


def test_criterion_03_short_time_soundness():
    model = single_mode(1.0, 1.0, 64)
    checks = 0
    ok = True
    for lam0 in (0, 2, 4):
        t_edge = speed_limit(model.profile, lam0)  # = 1/(4 sqrt(lam0+1))
        for delta in range(1, 7):
            leak = leakage_norm(
                model.basis,
                model.hamiltonian,
                ProjectorSpec(0, 0, lam0),
                ProjectorSpec(0, 0, lam0 + delta - 1),
                t_edge,
            )
            cert = 2.0 ** (1 - delta) / math.sqrt(math.factorial(delta))
            ok = ok and leak <= cert + 1e-9
            checks += 1
    ok = ok and checks == 18
    assert _verdict(3, ok)


def test_criterion_04_long_time_soundness():
    model = hubbard_holstein_1d(2, hop=1.0, u=0.0, mu=0.0, g=0.5,
                                omega0=1.0, n_max=12)
    reports = verify_state_truncation(
        model, 0, [0.5, 1.0, 2.0], deltas=(2, 3, 4, 5)
    )
    ok = len(reports) > 0 and all(rep.sound for rep in reports)
    assert _verdict(4, ok)


def test_criterion_05_hamiltonian_truncation_soundness():
    factory = lambda nm: single_mode(1.0, 1.0, nm)
    ok = True
    for lam_tilde in (6, 10, 14):
        rep = verify_hamiltonian_truncation(
            factory, n_max=48, lambda0=0, lambda_tilde=lam_tilde, t=1.0
        )
        doubled = verify_hamiltonian_truncation(
            factory, n_max=96, lambda0=0, lambda_tilde=lam_tilde, t=1.0
        )
        ok = ok and rep.sound
        ok = ok and rep.empirical <= rep.analytic
        ok = ok and abs(rep.empirical - doubled.empirical) < 1e-10
    assert _verdict(5, ok)


def test_criterion_06_threshold_comparison_figure():
    # (a) our threshold stays under the energy competitor out to T = 10
    table_a = compare_thresholds(
        n_modes=100, epsilon=1e-2, lambda0=4,
        times=[0.5, 1.0, 2.0, 4.0, 7.0, 10.0],
    )
    ok_a = all(row.lambda_ours < row.lambda_energy for row in table_a.rows)

    # (b) sqrt(window) is affine in T with R^2 > 0.99 on T in [5, 50]
    ts = np.linspace(5.0, 50.0, 16)
    table_b = compare_thresholds(n_modes=100, epsilon=1e-2, lambda0=4, times=ts)
    sq = np.sqrt([row.lambda_ours for row in table_b.rows])
    coef = np.polyfit(ts, sq, 1)
    resid = sq - np.polyval(coef, ts)
    r2 = 1.0 - float(np.sum(resid**2)) / float(np.sum((sq - sq.mean()) ** 2))
    ok_b = r2 > 0.99 and coef[0] > 0

    # (c) the small noisy system shows a crossover within (0, 50]
    table_c = compare_thresholds(
        n_modes=5, epsilon=0.1, lambda0=4, times=list(np.linspace(0.0, 50.0, 26))
    )
    ok_c = table_c.crossover_t is not None and 0.0 < table_c.crossover_t <= 50.0

    assert _verdict(6, ok_a and ok_b and ok_c)


def test_criterion_07_tail_soundness():
    model = hubbard_holstein_1d(2, hop=1.0, u=0.0, mu=0.0, g=0.5,
                                omega0=1.0, n_max=16)
    reports = verify_tail(model, [1e-2, 1e-4, 1e-6])
    ok = all(rep.sound for rep in reports)
    ok = ok and all(rep.empirical <= rep.analytic for rep in reports)
    prof = tail_profile(model, range(0, 13))
    ok = ok and tail_decay_slope(prof) < 0.0
    assert _verdict(7, ok)


def test_criterion_08_trotter_order_scaling():
    taus = [0.2, 0.1, 0.05, 0.025]

    model1 = single_mode(1.0, 1.0, 16)
    budget1 = ab_quantities(
        summaries_single_mode(1.0, 1.0), safe_window(2, 1), 1, model1.cutoff
    )
    pts1 = empirical_trotter_error(model1, 1, taus, 2, budget=budget1)
    slope1 = error_scaling_slope(pts1)
    ok = abs(slope1 - 2.0) <= 0.2
    ok = ok and all(pt.error <= pt.bound for pt in pts1)

    model2 = hubbard_holstein_1d(2, hop=1.0, u=0.0, mu=0.0, g=0.5,
                                 omega0=1.0, n_max=13)
    budget2 = ab_quantities(
        summaries_hubbard_holstein(2, hop=1.0, u=0.0, mu=0.0, g=0.5, omega0=1.0),
        safe_window(1, 2), 2, model2.cutoff,
    )
    pts2 = empirical_trotter_error(model2, 2, taus, 1, budget=budget2)
    slope2 = error_scaling_slope(pts2)
    ok = ok and abs(slope2 - 3.0) <= 0.2
    ok = ok and all(pt.error <= pt.bound for pt in pts2)
    assert _verdict(8, ok)


def test_criterion_09_engine_oracles():
    rng = np.random.default_rng(20260819)
    ok = True
    for _ in range(20):
        dim = int(rng.integers(8, 513))
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        mask = rng.random((dim, dim)) < 0.2
        h_dense = np.where(mask, a, 0.0)
        h_dense = (h_dense + h_dense.conj().T) / 2.0
        import scipy.sparse as sp

        h = sp.csr_matrix(h_dense)
        psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        psi /= np.linalg.norm(psi)
        exact = DensePropagator(h).apply(psi, 1.0)
        ok = ok and np.linalg.norm(evolve(h, psi, 1.0) - exact) <= 1e-9
        w = np.linalg.eigvalsh(h_dense)
        e0, v0 = ground_state(h)
        ok = ok and abs(e0 - w[0]) <= 1e-9
        ok = ok and np.linalg.norm(h @ v0 - e0 * v0) <= 1e-8
    assert _verdict(9, ok)


def test_criterion_10_energy_threshold_exactness():
    ok = energy_threshold_single_mode(1.0, 4, 0.1) == 1694
    assert _verdict(10, ok)
