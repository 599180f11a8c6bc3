"""Verification layer: report plumbing and the bound-vs-empirical suites."""

import dataclasses
import re

import numpy as np
import pytest
from test_propagate import _sector_entries, _stacks

from truncert import propagate
from truncert.bounds import compare_thresholds
from truncert.fock_algebra import ALL, ProjectorSpec, window_mask
from truncert.models import dicke, hubbard_holstein_1d, single_mode
from truncert.propagate import TOL, ChebyshevPropagator
from truncert.verify import (
    coherent_oracle_check,
    engine_slack,
    tail_decay_slope,
    tail_profile,
    verify_hamiltonian_truncation,
    verify_hamiltonian_truncations,
    verify_state_truncation,
    verify_tail,
)


def test_engine_slack_scales_with_tolerance():
    assert engine_slack(1e-10) == pytest.approx(1e-9)
    assert engine_slack(1e-6) == pytest.approx(1e-5)


# ---------------------------------------------------------------------------
# state truncation
# ---------------------------------------------------------------------------

def test_state_truncation_reports_sound_and_shaped():
    model = single_mode(1.0, 1.0, 24)
    reports = verify_state_truncation(model, 0, [0.2], deltas=(2, 3))
    assert len(reports) >= 2
    for rep in reports:
        assert rep.sound
        assert rep.empirical <= rep.analytic + 1e-9
        assert rep.experiment.startswith("state_")
        assert rep.inputs["lambda0"] == 0


def test_state_truncation_free_model_has_zero_leakage():
    model = single_mode(0.0, 1.0, 16)
    reports = verify_state_truncation(model, 2, [1.0], deltas=(2,))
    for rep in reports:
        assert rep.sound
        assert rep.empirical <= 1e-10


def test_state_truncation_past_cutoff_notes_trivial_window():
    model = single_mode(1.0, 1.0, 6)
    reports = verify_state_truncation(model, 0, [2.0], deltas=(5,))
    beyond = [r for r in reports if "cutoff" in r.notes]
    assert beyond
    for rep in beyond:
        assert rep.empirical == 0.0
        assert rep.sound


def test_state_truncation_all_mode_uses_union_bound():
    model = hubbard_holstein_1d(2, g=0.5, n_max=6)
    per_mode = verify_state_truncation(model, 0, [0.3], mode="per_mode", deltas=(3,))
    joint = verify_state_truncation(model, 0, [0.3], mode="all", deltas=(3,))
    assert all(r.sound for r in per_mode + joint)
    lam_per = {r.inputs["window"] for r in per_mode}
    lam_all = {r.inputs["window"] for r in joint}
    assert lam_per == lam_all
    bare = min(r.analytic for r in per_mode)
    joined = min(r.analytic for r in joint)
    assert joined == pytest.approx(min(1.0, np.sqrt(2.0) * bare))


def test_state_truncation_measures_each_window_once(monkeypatch):
    """One call evolves each stack once, for every time at once; each
    distinct (time, escape window) pair (short- and long-time windows often
    coincide) is reduced to one Gram matrix on each member sector, and a
    pair no report reads (a window past the cutoff) is never measured, so a
    time with no window below the cutoff is not evolved at all."""
    applied, measured = [], []  # (propagator, times) per block call; Gram reductions
    real_gram = propagate._gram
    real_apply = ChebyshevPropagator.apply_times

    def spying_apply(prop, block, times, tol):
        applied.append((prop, sorted(times)))
        return real_apply(prop, block, times, tol)

    def counting_gram(block, kept, out):
        measured.append(block.shape)
        return real_gram(block, kept, out)

    monkeypatch.setattr(ChebyshevPropagator, "apply_times", spying_apply)
    monkeypatch.setattr(propagate, "_gram", counting_gram)
    model = hubbard_holstein_1d(2, g=0.5, n_max=8)
    times = [0.2, 0.25, 2.0, 3.0]
    reports = verify_state_truncation(model, 0, times, deltas=(2, 3))
    stacks = _stacks(model, ProjectorSpec(ALL, 0, 0))
    n_sectors = len(_sector_entries(stacks))
    assert len(stacks) < n_sectors
    windows = {(r.inputs["t"], r.inputs["window"], r.inputs["mode"]) for r in reports}
    below = {w for w in windows if w[1] < model.cutoff}
    assert below < windows
    assert len(reports) > len(windows)
    measured_times = sorted({t for t, _, _ in below})
    assert measured_times == [0.2, 0.25, 2.0]
    # one propagator per stack, in stack order, each block call taking every
    # measured time at once
    props = list(dict.fromkeys(prop for prop, _ in applied))
    assert [prop.shape[0] for prop in props] == [len(stack.rows) for stack in stacks]
    assert all(ts == measured_times for _, ts in applied)
    assert len(measured) == len(below) * n_sectors


def test_state_truncation_refuses_deltas_below_one(monkeypatch):
    """Deltas below 1 raise ValueError naming them, before any sweep."""

    def no_sweep(*args):
        raise AssertionError("a sweep was built")

    monkeypatch.setattr("truncert.verify.window_sweep", no_sweep)
    model = single_mode(1.0, 1.0, 8)
    for deltas, named in (((0, 2), "0"), ((-3,), "-3"), ((2, -1, 0), "-1, 0")):
        with pytest.raises(ValueError, match=f"^deltas must be >= 1, got {named}$"):
            verify_state_truncation(model, 0, [0.2], deltas=deltas)


def test_state_truncation_refuses_a_negative_time_before_any_sweep(monkeypatch):
    """The analytic rows come first: a time the bounds refuse raises
    ValueError before the sweep prepares anything."""

    def no_sweep(*args):
        raise AssertionError("a sweep was built")

    monkeypatch.setattr("truncert.verify.window_sweep", no_sweep)
    model = hubbard_holstein_1d(2, g=0.5, n_max=3)
    with pytest.raises(ValueError, match="t must be finite and >= 0"):
        verify_state_truncation(model, 1, [0.2, -1.0], deltas=(2,))


def test_state_truncation_refuses_a_start_window_at_the_cutoff(monkeypatch):
    """A start window [0, lambda0] at or past the proxy cutoff holds every
    state, so every row would read 0 and measure nothing: ValueError
    before any sweep.  One level below the cutoff is still checked."""

    def no_sweep(*args):
        raise AssertionError("a sweep was built")

    model = single_mode(1.0, 1.0, 8)
    with monkeypatch.context() as m:
        m.setattr("truncert.verify.window_sweep", no_sweep)
        for lambda0 in (8, 9):
            with pytest.raises(
                ValueError, match=f"^lambda0 = {lambda0} must be < the proxy cutoff 8$"
            ):
                verify_state_truncation(model, lambda0, [0.2])
    (report,) = verify_state_truncation(model, 7, [0.05], deltas=(1,))
    assert (report.inputs["window"], report.notes) == (7, "exact column sweep")
    assert report.empirical > 0.0 and report.sound


def test_state_truncation_reports_share_the_call_runtime():
    """One sweep serves every time, so every report of one call carries the
    call's elapsed time."""
    model = hubbard_holstein_1d(2, g=0.5, n_max=6)
    reports = verify_state_truncation(model, 1, [0.2, 0.5, 1.0], deltas=(2, 3))
    assert len({r.inputs["t"] for r in reports}) == 3
    (runtime,) = {r.runtime_s for r in reports}
    assert runtime > 0.0


def test_sectors_keep_the_exact_path_past_the_unsectored_cap(monkeypatch):
    """2-site HH, n_max 3, window [0, 1]: 256 x 64 = 16384 entries on the
    full space but 2304 over its 9 sectors, so a cap between the largest
    sector and that total still takes the exact column path."""
    model = hubbard_holstein_1d(2, g=0.5, n_max=3)
    mask0 = window_mask(model.basis, ProjectorSpec(ALL, 0, 1))
    entries = _sector_entries(_stacks(model, ProjectorSpec(ALL, 0, 1)))
    assert model.dimension * mask0.sum() == 16384
    assert len(entries) == 9 and sum(entries) == 2304
    largest = max(entries)
    assert largest < 2304
    default = verify_state_truncation(model, 1, [0.4], deltas=(2, 3))
    monkeypatch.setattr(propagate, "COLUMN_CAP", (largest + 2304) // 2)
    guarded = verify_state_truncation(model, 1, [0.4], deltas=(2, 3))
    assert any(rep.empirical > 1e-6 for rep in guarded)
    for rep, ref in zip(guarded, default, strict=True):
        assert rep.notes.startswith("exact column sweep")
        assert rep.empirical == pytest.approx(ref.empirical, rel=0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# hamiltonian truncation
# ---------------------------------------------------------------------------

def test_hamiltonian_truncation_sound_with_padding_note():
    factory = lambda nm: single_mode(1.0, 1.0, nm)
    rep = verify_hamiltonian_truncation(
        factory, n_max=24, lambda0=0, lambda_tilde=8, t=0.5, check_padding=True
    )
    assert rep.sound
    assert rep.empirical <= rep.analytic
    assert "padding" in rep.notes


def test_hamiltonian_truncation_padding_insensitive():
    factory = lambda nm: single_mode(1.0, 1.0, nm)
    r24 = verify_hamiltonian_truncation(factory, 24, 0, 8, 0.5)
    r48 = verify_hamiltonian_truncation(factory, 48, 0, 8, 0.5)
    assert abs(r24.empirical - r48.empirical) < 1e-10


@pytest.mark.parametrize("check_padding, builds", [(False, 1), (True, 2)])
def test_hamiltonian_truncation_builds_each_cutoff_once(check_padding, builds):
    cutoffs = []

    def factory(nm):
        cutoffs.append(nm)
        return single_mode(1.0, 1.0, nm)

    rep = verify_hamiltonian_truncation(
        factory, 24, 0, 8, 0.5, check_padding=check_padding
    )
    assert cutoffs == [24, 48][:builds]
    assert rep.sound


def test_sectored_hamiltonian_truncation_matches_one_sector():
    """2-site HH (nine (N_up, N_dn) sectors): the per-sector difference sweep
    equals the one-sector sweep and the value of the whole-space column
    difference."""
    factory = lambda nm: hubbard_holstein_1d(2, u=0.5, g=0.5, n_max=nm)

    def one_sector(nm):
        model = factory(nm)
        return dataclasses.replace(model, sector_keys=np.zeros(model.dimension, dtype=int))

    many = verify_hamiltonian_truncation(factory, 6, 1, 4, 0.5)
    single = verify_hamiltonian_truncation(one_sector, 6, 1, 4, 0.5)
    assert abs(many.empirical - single.empirical) <= engine_slack(TOL)
    assert many.empirical == pytest.approx(0.0023517361454766083, rel=0.0, abs=1e-12)


HAM_CASES = {
    # single mode, padding-checked at twice the cutoff
    "single": (lambda nm: single_mode(0.5, 1.0, nm), 48, 0, [6, 10, 14], 1.0, True),
    # 2-site HH, nine (N_up, N_dn) sectors
    "hh": (lambda nm: hubbard_holstein_1d(2, u=0.5, g=0.5, n_max=nm), 6, 1, [4, 3], 0.5, False),
}


@pytest.mark.parametrize("case", sorted(HAM_CASES))
def test_multi_lambda_tilde_call_equals_one_element_calls(case):
    """One sweep per cutoff for every lambda-tilde gives each report the
    separate one-element call's values exactly, in the order asked."""
    factory, n_max, lambda0, lambda_tildes, t, padding = HAM_CASES[case]
    together = verify_hamiltonian_truncations(
        factory, n_max, lambda0, lambda_tildes, t, check_padding=padding
    )
    apart = [
        verify_hamiltonian_truncation(factory, n_max, lambda0, lam, t, check_padding=padding)
        for lam in lambda_tildes
    ]
    assert [r.inputs["lambda_tilde"] for r in together] == lambda_tildes
    assert len({r.empirical for r in together}) == len(lambda_tildes)
    for rep, ref in zip(together, apart, strict=True):
        assert rep.empirical == ref.empirical
        assert rep.analytic == ref.analytic
        assert rep.notes == ref.notes
        assert rep.inputs == ref.inputs
        assert rep.sound and ref.sound
    assert ("padding doubling" in together[0].notes) == padding
    (runtime,) = {r.runtime_s for r in together}
    assert runtime > 0.0


@pytest.mark.parametrize("check_padding, cutoffs", [(False, [6]), (True, [6, 12])])
def test_hamiltonian_truncations_prepare_each_operator_once_per_cutoff(
    check_padding, cutoffs, monkeypatch
):
    """The factory runs once per cutoff, and H and every Pi H Pi are checked
    for Hermiticity once per stack of each cutoff, each on the stack's
    rows: (1 + L) x stacks checks, none of the full dimension."""
    built, checks = [], []
    real = propagate.hermiticity_defect

    def counting(op):
        checks.append(op.shape)
        return real(op)

    def factory(nm):
        built.append(nm)
        return hubbard_holstein_1d(2, g=0.5, n_max=nm)

    window0 = ProjectorSpec(ALL, 0, 1)
    stacks = [st for nm in cutoffs for st in _stacks(factory(nm), window0)]
    built.clear()
    monkeypatch.setattr(propagate, "hermiticity_defect", counting)
    lambda_tildes = [3, 4, 3]
    reports = verify_hamiltonian_truncations(
        factory, 6, 1, lambda_tildes, 0.4, check_padding=check_padding
    )
    assert len(reports) == len(lambda_tildes)
    assert built == cutoffs
    assert len(stacks) > len(cutoffs)
    want = [(len(st.rows),) * 2 for st in stacks for _ in range(1 + len(lambda_tildes))]
    assert checks == want


def test_hamiltonian_truncations_without_lambda_tildes_build_nothing():
    built = []
    assert verify_hamiltonian_truncations(built.append, 6, 1, [], 0.4, check_padding=True) == []
    assert built == []


@pytest.mark.parametrize(
    "lambda0, lambda_tildes, message",
    [
        (5, [20, 6], "lambda_tilde = 6 must be >= lambda0 + 2 = 7"),
        (1, [10, 29], "padding insufficient: cutoff 30 < lambda_tilde + 2"),
    ],
)
def test_hamiltonian_truncations_check_every_window_before_propagating(
    lambda0, lambda_tildes, message, monkeypatch
):
    """A lambda-tilde that breaks the lambda0 + 2 rule or the padding rule
    raises before anything is propagated, wherever it sits in the list."""
    calls, built = [], []
    real = ChebyshevPropagator.apply_times

    def counting(self, *args, **kwargs):
        calls.append(self.shape)
        return real(self, *args, **kwargs)

    def factory(nm):
        built.append(nm)
        return single_mode(0.5, 1.0, nm)

    monkeypatch.setattr(ChebyshevPropagator, "apply_times", counting)
    with pytest.raises(ValueError, match=re.escape(message)):
        verify_hamiltonian_truncations(factory, 30, lambda0, lambda_tildes, 1.0, check_padding=True)
    assert calls == []
    assert built == ([] if "lambda0" in message else [30])


# ---------------------------------------------------------------------------
# tails
# ---------------------------------------------------------------------------

def test_tail_reports_sound():
    model = hubbard_holstein_1d(2, g=0.5, omega0=1.0, n_max=8)
    reports = verify_tail(model, [1e-2])
    assert len(reports) == 1
    rep = reports[0]
    assert rep.sound
    assert rep.analytic == 1e-2
    assert "lambda_bar" in rep.notes


def test_tail_reports_carry_the_ground_state_solve(monkeypatch):
    """Every tail report's runtime_s covers the whole call, the eigensolve too."""
    import time

    from truncert import verify

    real = verify.lowest_eigenpairs

    def slow(*args, **kwargs):
        time.sleep(0.05)
        return real(*args, **kwargs)

    monkeypatch.setattr(verify, "lowest_eigenpairs", slow)
    model = hubbard_holstein_1d(2, g=0.5, omega0=1.0, n_max=6)
    reports = verify_tail(model, [1e-2, 1e-4])
    assert len(reports) == 2
    assert all(rep.runtime_s >= 0.05 for rep in reports)


def test_tail_profile_decreases():
    model = single_mode(0.6, 1.0, 20)
    prof = tail_profile(model, range(0, 10))
    tails = [t for _, t in prof]
    assert all(b <= a + 1e-14 for a, b in zip(tails, tails[1:]))
    assert tails[0] > tails[-1]


def test_tail_decay_slope_negative():
    model = single_mode(0.6, 1.0, 24)
    prof = tail_profile(model, range(0, 12))
    assert tail_decay_slope(prof) < 0


def test_tail_requires_gap():
    # two decoupled spins at omega_z = 0 make the ground space degenerate
    model = dicke(2, 1.0, 0.0, 0.0, n_max=2)
    with pytest.raises(ValueError):
        verify_tail(model, [1e-2])


# ---------------------------------------------------------------------------
# coherent oracle
# ---------------------------------------------------------------------------

def test_coherent_oracle_small_times():
    rep = coherent_oracle_check((0.5, 1.0))
    assert rep.sound
    assert rep.empirical < rep.analytic
    assert tuple(rep.inputs["t_grid"]) == (0.5, 1.0)


def test_coherent_oracle_zero_time_trivial():
    rep = coherent_oracle_check((0.0,))
    assert rep.sound
    assert rep.empirical < 1e-12


# ---------------------------------------------------------------------------
# threshold comparison
# ---------------------------------------------------------------------------

def test_compare_thresholds_zero_time_row():
    table = compare_thresholds(n_modes=5, epsilon=0.1, lambda0=4, times=[0.0])
    row = table.rows[0]
    assert row.lambda_ours == 4
    assert row.lambda_energy >= 1


def test_compare_thresholds_ours_grows_slower():
    table = compare_thresholds(
        n_modes=100, epsilon=1e-2, lambda0=4, times=[1.0, 5.0, 10.0]
    )
    for row in table.rows:
        assert row.lambda_ours < row.lambda_energy
    lams = [row.lambda_ours for row in table.rows]
    assert lams == sorted(lams)


def test_compare_thresholds_crossover_small_system():
    table = compare_thresholds(
        n_modes=5, epsilon=0.1, lambda0=4, times=list(np.linspace(0.0, 50.0, 26))
    )
    assert table.crossover_t is not None
    assert 0.0 < table.crossover_t <= 50.0
