"""Closed-form bound layer: frozen hand oracles and structural properties."""

import math

import pytest

from truncert import bounds
from truncert.bounds import (
    DELTA_MAX,
    CapExceededError,
    HamTruncationQuery,
    TailQuery,
    TruncationQuery,
    ValidityError,
    adaptive_schedule,
    energy_threshold_hubbard_holstein,
    energy_threshold_single_mode,
    hamiltonian_truncation_bound,
    hamiltonian_truncation_bounds,
    leakage_bound_at,
    leakage_bounds_at,
    long_time_bound,
    minimal_hamiltonian_threshold,
    minimal_state_threshold,
    short_time_bound,
    step_bound,
    tail_threshold,
    within_speed_limit,
)
from truncert.models import single_mode
from truncert.walk_profiles import WalkProfile, speed_limit

GAUGE = WalkProfile(chi=1.0, r=0.0, label="gauge")
BOSON = WalkProfile(chi=2.0, r=0.5, label="boson")


# ---------------------------------------------------------------------------
# per-step factor and short-time bound
# ---------------------------------------------------------------------------

def test_step_bound_hand_values():
    # 2^{1-d} / (d!)^{1-r}
    assert step_bound(3, 0.0) == pytest.approx(1.0 / 24.0)
    assert step_bound(2, 0.5) == pytest.approx(0.5 / math.sqrt(2.0))
    assert step_bound(1, 0.0) == pytest.approx(1.0)


def test_step_bound_monotone_in_delta():
    prev = math.inf
    for d in range(1, 40):
        cur = step_bound(d, 0.5)
        assert cur < prev
        prev = cur


def test_step_bound_large_delta_no_overflow():
    assert step_bound(400, 0.0) >= 0.0
    assert step_bound(400, 0.0) < 1e-300


def test_short_time_bound_matches_step_factor():
    t_edge = speed_limit(BOSON, 0)
    assert short_time_bound(BOSON, 0, 3, t_edge) == pytest.approx(step_bound(3, 0.5))


def test_short_time_bound_outside_window_raises():
    t_edge = speed_limit(BOSON, 2)
    with pytest.raises(ValidityError) as err:
        short_time_bound(BOSON, 2, 3, 2.0 * t_edge)
    assert err.value.max_time == pytest.approx(t_edge)


def test_short_time_bound_accepts_limit_up_to_rounding():
    """Dicke N = 2, g = 1/2, lambda0 = 1: 1/(2*sqrt(2)*sqrt(2)) rounds below 0.25."""
    dicke = WalkProfile(chi=2.0 * 0.5 * math.sqrt(2.0), r=0.5, label="dicke")
    assert speed_limit(dicke, 1) < 0.25
    assert within_speed_limit(dicke, 1, 0.25)
    assert within_speed_limit(dicke, 1, -0.25)
    assert short_time_bound(dicke, 1, 2, 0.25) == step_bound(2, 0.5)
    assert not within_speed_limit(dicke, 1, 0.2500001)
    with pytest.raises(ValidityError):
        short_time_bound(dicke, 1, 2, 0.2500001)


def test_short_time_bound_time_reversal():
    t = 0.8 * speed_limit(BOSON, 1)
    assert short_time_bound(BOSON, 1, 2, -t) == short_time_bound(BOSON, 1, 2, t)


# ---------------------------------------------------------------------------
# long-time bound
# ---------------------------------------------------------------------------

def test_long_time_bound_hand_case():
    """chi=1, r=0, lambda0=0, delta=2, t=1 gives window 2 and bound 1/2."""
    rep = long_time_bound(GAUGE, 0, 2, 1.0)
    assert rep.lambda_ == 2
    assert rep.bound == 0.5


def test_long_time_bound_zero_time():
    rep = long_time_bound(GAUGE, 3, 2, 0.0)
    assert rep.bound == 0.0
    assert rep.lambda_ == 3


def test_long_time_gauge_step_count_is_ceil_2_chi_t():
    # for r=0 the step count is ceil(2 chi t), independent of delta
    for t in (0.3, 1.0, 2.7):
        for delta in (2, 3, 5):
            rep = long_time_bound(GAUGE, 0, delta, t)
            j = math.ceil(2.0 * GAUGE.chi * t)
            assert rep.lambda_ == j * (delta - 1)


def test_long_time_bound_never_exceeds_one():
    rep = long_time_bound(BOSON, 0, 2, 50.0)
    assert rep.bound <= 1.0


def test_long_time_bound_decreases_with_delta_eventually():
    t = 2.0
    b4 = long_time_bound(BOSON, 0, 4, t).bound
    b8 = long_time_bound(BOSON, 0, 8, t).bound
    assert b8 < b4


# ---------------------------------------------------------------------------
# leakage at a fixed window
# ---------------------------------------------------------------------------

def test_leakage_bound_at_zero_time():
    assert leakage_bound_at(BOSON, 2, 7, 0.0) == 0.0


def test_leakage_bound_at_rejects_window_below_start():
    with pytest.raises(ValueError):
        leakage_bound_at(BOSON, 5, 4, 1.0)


def test_leakage_bound_at_monotone_in_window():
    prev = math.inf
    for lam in range(2, 40, 2):
        cur = leakage_bound_at(BOSON, 0, lam, 1.0)
        assert cur <= prev + 1e-18
        prev = cur


def test_leakage_bound_at_monotone_in_time():
    for lam in (10, 20):
        b1 = leakage_bound_at(BOSON, 0, lam, 0.5)
        b2 = leakage_bound_at(BOSON, 0, lam, 1.5)
        assert b1 <= b2


def test_leakage_bound_at_beats_any_single_delta():
    lam, t = 24, 1.0
    best = leakage_bound_at(BOSON, 0, lam, t)
    for delta in range(2, 10):
        rep = long_time_bound(BOSON, 0, delta, t)
        if rep.lambda_ <= lam:
            assert best <= rep.bound + 1e-18


def _per_delta_leakage_min(profile, lambda0, lam, t, delta_max):
    """The per-delta loop that the delta table replaced, kept verbatim."""
    best = 1.0
    best_delta = 0
    for delta in range(2, delta_max + 1):
        rep = long_time_bound(profile, lambda0, delta, t)
        if rep.lambda_ <= lam and rep.bound < best:
            best = rep.bound
            best_delta = delta
            if best == 0.0:
                break
    return best, best_delta


def test_delta_table_scan_matches_per_delta_loop():
    profiles = [GAUGE, BOSON, WalkProfile(chi=1.5, r=0.9), WalkProfile(chi=0.0, r=0.5)]
    seen = set()
    for profile in profiles:
        for lambda0 in range(6):
            for delta_max in (2, 3, 512):
                for t in (0.0, 0.7, 3.0, 1e6):
                    table = bounds._delta_table(profile, lambda0, t, delta_max)
                    assert len(table) == delta_max - 1
                    for lam in (lambda0, lambda0 + 7, 300, 10**9):
                        want = _per_delta_leakage_min(profile, lambda0, lam, t, delta_max)
                        assert bounds._scan_table(table, lam) == want
                        if lam == 300 and t > 0:
                            got = leakage_bound_at(profile, lambda0, lam, t, delta_max)
                            assert got == want[0]
                        if want == (1.0, 0):
                            seen.add("none qualifies")
                        elif want[0] == 0.0 and t > 0 and profile.chi > 0:
                            # step_bound underflowed: the scan stopped at 0
                            assert want[1] > 100
                            seen.add("stop at 0")
    assert seen == {"none qualifies", "stop at 0"}


def _count_long_time_bound(monkeypatch):
    calls = []
    inner = bounds.long_time_bound

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(bounds, "long_time_bound", counted)
    return calls


@pytest.mark.parametrize("delta_max", [DELTA_MAX, 64])
def test_threshold_searches_build_one_delta_table(delta_max, monkeypatch):
    calls = _count_long_time_bound(monkeypatch)
    tail_threshold(BOSON, TailQuery(0.3, 0.5, 1e-4), delta_max=delta_max)
    assert len(calls) == delta_max - 1
    calls.clear()
    minimal_hamiltonian_threshold(
        GAUGE, TruncationQuery(0, 1.0, 1e-6), n_modes=4,
        comm_norm=lambda lam: float(lam) ** 2, delta_max=delta_max,
    )
    assert len(calls) == delta_max - 1


# ---------------------------------------------------------------------------
# adaptive schedule
# ---------------------------------------------------------------------------

def test_adaptive_schedule_hand_case():
    sched = adaptive_schedule(GAUGE, 0, 2, 1.0)
    assert sched.steps == ((0.5, 1), (1.0, 2))


def test_adaptive_schedule_empty_horizon():
    assert adaptive_schedule(BOSON, 0, 2, 0.0).steps == ()


def test_adaptive_schedule_free_model():
    sched = adaptive_schedule(WalkProfile(0.0, 0.5, "free"), 3, 2, 10.0)
    assert len(sched.steps) == 1
    assert sched.steps[0][0] == math.inf
    assert sched.steps[0][1] == 4


def test_adaptive_schedule_windows_grow_by_delta_minus_one():
    sched = adaptive_schedule(BOSON, 1, 3, 2.0)
    lams = [lam for _, lam in sched.steps]
    assert lams[0] == 1 + 2
    assert all(b - a == 2 for a, b in zip(lams, lams[1:]))
    assert sched.steps[-1][0] >= 2.0


def test_adaptive_schedule_times_strictly_increase():
    sched = adaptive_schedule(BOSON, 0, 2, 3.0)
    ts = [t for t, _ in sched.steps]
    assert all(b > a for a, b in zip(ts, ts[1:]))


# ---------------------------------------------------------------------------
# minimal state threshold
# ---------------------------------------------------------------------------

def test_minimal_state_threshold_meets_target():
    q = TruncationQuery(lambda0=0, time=1.0, epsilon=1e-3)
    rep = minimal_state_threshold(BOSON, q)
    assert rep.bound <= 1e-3
    assert leakage_bound_at(BOSON, 0, rep.lambda_, 1.0) <= 1e-3


def test_minimal_state_threshold_zero_time():
    q = TruncationQuery(lambda0=5, time=0.0, epsilon=1e-6)
    rep = minimal_state_threshold(BOSON, q)
    assert rep.lambda_ == 5
    assert rep.bound == 0.0


def test_minimal_state_threshold_optimized_never_larger():
    q = TruncationQuery(lambda0=0, time=2.0, epsilon=1e-4)
    first = minimal_state_threshold(BOSON, q)
    best = minimal_state_threshold(BOSON, q, optimize_lambda=True)
    assert best.lambda_ <= first.lambda_
    assert best.bound <= 1e-4


def test_minimal_state_threshold_shrinks_with_epsilon():
    lam_loose = minimal_state_threshold(
        BOSON, TruncationQuery(0, 1.0, 1e-2)
    ).lambda_
    lam_tight = minimal_state_threshold(
        BOSON, TruncationQuery(0, 1.0, 1e-8)
    ).lambda_
    assert lam_loose <= lam_tight


def test_minimal_state_threshold_cap_error_names_cap():
    q = TruncationQuery(lambda0=0, time=100.0, epsilon=1e-300)
    with pytest.raises(CapExceededError) as err:
        minimal_state_threshold(BOSON, q, delta_max=3)
    assert "3" in str(err.value)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(lambda0=-1, time=1.0, epsilon=0.1),
        dict(lambda0=0.5, time=1.0, epsilon=0.1),
        dict(lambda0=0, time=-1.0, epsilon=0.1),
        dict(lambda0=0, time=1.0, epsilon=0.0),
        dict(lambda0=0, time=1.0, epsilon=1.5),
    ],
)
def test_truncation_query_validation(kwargs):
    with pytest.raises(ValueError):
        TruncationQuery(**kwargs)


# ---------------------------------------------------------------------------
# hamiltonian truncation
# ---------------------------------------------------------------------------

def test_hamiltonian_truncation_bound_zero_time():
    hq = HamTruncationQuery(lambda_tilde=8, n_modes=2, comm_norm=lambda lam: 4.0,
                            query=TruncationQuery(0, 0.0, 0.5))
    assert hamiltonian_truncation_bound(BOSON, hq) == 0.0


def test_hamiltonian_truncation_bound_needs_padding():
    with pytest.raises(ValueError):
        hamiltonian_truncation_bound(
            BOSON,
            HamTruncationQuery(lambda_tilde=5, n_modes=1, comm_norm=lambda lam: 1.0,
                               query=TruncationQuery(4, 1.0, 0.5)),
        )


def test_hamiltonian_truncation_bound_composition():
    comm = lambda lam: float(lam) ** 2
    hq = HamTruncationQuery(lambda_tilde=12, n_modes=4, comm_norm=comm,
                            query=TruncationQuery(0, 1.5, 0.5))
    expected = (1.5 ** 2 / 2.0) * 144.0 * 2.0 * leakage_bound_at(BOSON, 0, 10, 1.5)
    assert hamiltonian_truncation_bound(BOSON, hq) == pytest.approx(expected)


def test_shared_table_bounds_equal_one_query_bounds():
    """Several lambda-tildes read one delta table and give, to the bit,
    what one-query calls give and what the per-delta loop gives."""
    comm = lambda lam: 0.5 * float(lam) ** 1.5 + 1.0
    for profile in (GAUGE, BOSON, WalkProfile(chi=1.5, r=0.9)):
        for lambda0 in (0, 3):
            for t in (0.0, 0.7, 3.0):
                q = TruncationQuery(lambda0, t, 0.5)
                lams = [lambda0 + 30, lambda0 + 2, lambda0 + 9, lambda0 + 2]
                hqs = [HamTruncationQuery(lam, 3, comm, q) for lam in lams]
                got = hamiltonian_truncation_bounds(profile, hqs)
                assert got == [hamiltonian_truncation_bound(profile, hq) for hq in hqs]
                leaks = [
                    _per_delta_leakage_min(profile, lambda0, lam - 2, t, DELTA_MAX)[0]
                    for lam in lams
                ]
                want = [
                    0.0 if t == 0 else 0.5 * t**2 * comm(lam) * math.sqrt(3) * leak
                    for lam, leak in zip(lams, leaks)
                ]
                assert got == want
                windows = [lam - 2 for lam in lams]
                assert leakage_bounds_at(profile, lambda0, windows, t) == [
                    leakage_bound_at(profile, lambda0, lam, t) for lam in windows
                ]


def test_shared_table_bounds_build_one_table(monkeypatch):
    calls = _count_long_time_bound(monkeypatch)
    q = TruncationQuery(0, 1.0, 0.5)
    hqs = [HamTruncationQuery(lam, 1, lambda lam: 1.0, q) for lam in (20, 40, 80)]
    assert len(hamiltonian_truncation_bounds(BOSON, hqs)) == 3
    assert len(calls) == DELTA_MAX - 1
    calls.clear()
    assert len(leakage_bounds_at(BOSON, 0, [10, 20, 30], 1.0)) == 3
    assert len(calls) == DELTA_MAX - 1
    assert hamiltonian_truncation_bounds(BOSON, []) == []


def test_shared_table_bounds_check_every_window_first():
    """A window below lambda0 + 2 anywhere in the list raises before any
    commutator norm is evaluated; queries must share one TruncationQuery."""
    norms = []
    comm = lambda lam: norms.append(lam) or 1.0
    q = TruncationQuery(4, 1.0, 0.5)
    hqs = [HamTruncationQuery(lam, 1, comm, q) for lam in (12, 5)]
    with pytest.raises(ValueError, match="lambda_tilde = 5 must be >= lambda0 [+] 2 = 6"):
        hamiltonian_truncation_bounds(BOSON, hqs)
    assert norms == []
    other = HamTruncationQuery(12, 1, comm, TruncationQuery(4, 2.0, 0.5))
    with pytest.raises(ValueError, match="share one TruncationQuery"):
        hamiltonian_truncation_bounds(BOSON, [hqs[0], other])
    with pytest.raises(ValueError, match="lam must be >= lambda0"):
        leakage_bounds_at(BOSON, 4, [6, 3], 1.0)


def test_minimal_hamiltonian_threshold_frozen_oracle():
    """chi=1, r=0, quadratic commutator norm, eps=1e-6 lands on 20."""
    q = TruncationQuery(lambda0=0, time=1.0, epsilon=1e-6)
    rep = minimal_hamiltonian_threshold(
        GAUGE, q, n_modes=4, comm_norm=lambda lam: float(lam) ** 2
    )
    assert rep.lambda_ == 20
    assert rep.bound <= 1e-6


def test_minimal_hamiltonian_threshold_matches_exhaustive_scan():
    q = TruncationQuery(lambda0=0, time=1.0, epsilon=1e-6)
    comm = lambda lam: float(lam) ** 2
    rep = minimal_hamiltonian_threshold(GAUGE, q, n_modes=4, comm_norm=comm)

    def bound_at(lam):
        hq = HamTruncationQuery(lambda_tilde=lam, n_modes=4, comm_norm=comm,
                                query=q)
        return hamiltonian_truncation_bound(GAUGE, hq)

    qualifying = [lam for lam in range(2, 40) if bound_at(lam) <= 1e-6]
    assert rep.lambda_ == min(qualifying)


def test_minimal_hamiltonian_threshold_searches_with_its_delta_max():
    """The search, the bound and delta_used all come from delta <= delta_max."""
    profile = WalkProfile(chi=2.0, r=0.5)
    comm = lambda lam: 2.0 * (lam + 1)
    q = TruncationQuery(0, 1.0, 1e-3)
    rep = minimal_hamiltonian_threshold(profile, q, n_modes=1, comm_norm=comm)
    assert (rep.lambda_, rep.delta_used) == (486, 12)
    assert rep.bound == pytest.approx(4.7806e-4, rel=1e-4)
    # no delta <= 3 leaks little enough at any window for this growing
    # commutator norm (0.816 at window 40 against 0.306 with delta <= 512)
    assert leakage_bound_at(profile, 0, 40, 1.0, delta_max=3) > 0.8
    for delta_max in (3, 6):
        with pytest.raises(CapExceededError):
            minimal_hamiltonian_threshold(
                profile, q, n_modes=1, comm_norm=comm, delta_max=delta_max
            )
    q = TruncationQuery(0, 0.3, 1e-2)
    rep = minimal_hamiltonian_threshold(
        profile, q, n_modes=1, comm_norm=lambda lam: 1.0, delta_max=3
    )
    leak = leakage_bound_at(profile, 0, rep.lambda_ - 2, 0.3, delta_max=3)
    assert rep.bound == 0.5 * 0.3**2 * 1.0 * math.sqrt(1) * leak
    assert 2 <= rep.delta_used <= 3
    used = long_time_bound(profile, 0, rep.delta_used, 0.3)
    assert used.bound == leak
    assert used.lambda_ <= rep.lambda_ - 2


def test_minimal_hamiltonian_threshold_frozen_single_mode_row():
    """`threshold ham --model single --n-max 200 --lambda0 0 --t 1 --eps 1e-3`."""
    model = single_mode(0.5, 1.0, 200)
    rep = minimal_hamiltonian_threshold(
        model.profile, TruncationQuery(0, 1.0, 1e-3),
        n_modes=len(model.basis.truncatable_modes),
        comm_norm=model.comm_norm,
        lambda_cap=model.cutoff - 2,
    )
    assert (rep.lambda_, rep.bound, rep.delta_used) == (102, 0.0004005092488581089, 11)


def test_smallest_qualifying_never_probes_beyond_cap():
    from truncert.bounds import _smallest_qualifying

    probed = []

    def record(lam, answer):
        probed.append(lam)
        return lam >= answer

    with pytest.raises(CapExceededError):
        _smallest_qualifying(lambda lam: record(lam, 0), 5, 4, "start")
    assert probed == []
    with pytest.raises(CapExceededError):
        _smallest_qualifying(lambda lam: record(lam, 100), 3, 10, "doubling")
    assert max(probed) == 10
    probed.clear()
    assert _smallest_qualifying(lambda lam: record(lam, 9), 3, 10, "in range") == 9
    assert max(probed) == 10


def test_minimal_hamiltonian_threshold_start_above_cap():
    q = TruncationQuery(lambda0=1, time=1.0, epsilon=0.1)

    def comm(lam):
        raise AssertionError(f"commutator norm evaluated at {lam} beyond the cap")

    with pytest.raises(CapExceededError):
        minimal_hamiltonian_threshold(GAUGE, q, n_modes=1, comm_norm=comm, lambda_cap=2)


def test_minimal_hamiltonian_threshold_cap_exceeded():
    q = TruncationQuery(lambda0=0, time=1.0, epsilon=1e-12)
    with pytest.raises(CapExceededError):
        minimal_hamiltonian_threshold(
            GAUGE, q, n_modes=1, comm_norm=lambda lam: 1.0, lambda_cap=4
        )


# ---------------------------------------------------------------------------
# energy-conservation competitor
# ---------------------------------------------------------------------------

def test_energy_threshold_single_mode_frozen_oracles():
    assert energy_threshold_single_mode(1.0, 4, 0.1) == 1694
    assert energy_threshold_single_mode(1.0, 0, 0.5) == 31


def test_energy_threshold_single_mode_epsilon_scaling():
    lam1 = energy_threshold_single_mode(1.0, 4, 0.1)
    lam2 = energy_threshold_single_mode(1.0, 4, 0.01)
    # 1/eps^2 scaling up to the integer ceilings
    assert lam2 / lam1 == pytest.approx(100.0, rel=0.01)


def test_energy_threshold_hubbard_holstein_frozen_oracle():
    lam = energy_threshold_hubbard_holstein(
        omega0=1.0, g=0.5, n_sites=2, lambda0=0,
        e_f_ground=0.0, e_total=None, epsilon=0.1,
    )
    assert lam == 1174


def test_energy_threshold_hubbard_holstein_default_budget_drops_ef():
    """With the default budget the fermionic offset cancels out."""
    a = energy_threshold_hubbard_holstein(1.0, 0.5, 2, 0, 0.0, None, 0.1)
    b = energy_threshold_hubbard_holstein(1.0, 0.5, 2, 0, -7.3, None, 0.1)
    assert a == b


def test_energy_threshold_hubbard_holstein_tiny_budget_is_zero():
    lam = energy_threshold_hubbard_holstein(
        omega0=1.0, g=0.0, n_sites=2, lambda0=0,
        e_f_ground=0.0, e_total=-10.0, epsilon=0.1,
    )
    assert lam == 0


# ---------------------------------------------------------------------------
# eigenstate tails
# ---------------------------------------------------------------------------

def test_tail_threshold_meets_epsilon():
    rep = tail_threshold(BOSON, TailQuery(lambda_bar=0.5, gap=0.7, epsilon=1e-2))
    assert rep.bound <= 1e-2
    assert rep.lambda_ >= 1


def test_tail_threshold_polylog_growth():
    """Tightening epsilon by 1e4 should grow the window far less than 1e4."""
    lam2 = tail_threshold(BOSON, TailQuery(0.5, 0.7, 1e-2)).lambda_
    lam6 = tail_threshold(BOSON, TailQuery(0.5, 0.7, 1e-6)).lambda_
    assert lam6 > lam2
    assert lam6 < 100 * lam2


def test_tail_threshold_report_fields():
    rep = tail_threshold(GAUGE, TailQuery(1.0, 0.5, 1e-3))
    assert rep.sigma > 0
    assert rep.t_window > 0
    assert rep.overlap_floor == pytest.approx(1.0 / (2.0 * math.sqrt(2.0)))
    assert rep.delta_used >= 2


@pytest.mark.parametrize(
    "eps, lambda_, delta, bound",
    [
        (1e-2, 104468, 12, 0.0072659511004065135),
        (1e-4, 447553, 15, 7.149270442201166e-05),
        (1e-8, 2584267, 20, 7.137098151481712e-09),
    ],
)
def test_tail_threshold_frozen_hubbard_holstein_rows(eps, lambda_, delta, bound):
    """`threshold tail --model hh --sites 2 --lambda-bar 0.3 --gap 0.5`."""
    rep = tail_threshold(WalkProfile(chi=1.0, r=0.5), TailQuery(0.3, 0.5, eps))
    assert (rep.lambda_, rep.delta_used, rep.bound) == (lambda_, delta, bound)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(lambda_bar=-0.1, gap=0.5, epsilon=0.1),
        dict(lambda_bar=1.0, gap=0.0, epsilon=0.1),
        dict(lambda_bar=1.0, gap=0.5, epsilon=0.0),
    ],
)
def test_tail_query_validation(kwargs):
    with pytest.raises(ValueError):
        TailQuery(**kwargs)
