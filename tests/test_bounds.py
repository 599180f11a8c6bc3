"""Closed-form bound layer: frozen hand oracles and structural properties."""

import math

import pytest

from truncert import bounds
from truncert.bounds import (
    DELTA_MAX,
    BoundReport,
    CapExceededError,
    Leakage,
    TailQuery,
    TruncationQuery,
    ValidityError,
    adaptive_schedule,
    energy_threshold_hubbard_holstein,
    energy_threshold_single_mode,
    hamiltonian_truncation_bounds,
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
    assert Leakage(BOSON, 2, 0.0).at(7)[0] == 0.0


def test_leakage_bound_at_rejects_window_below_start():
    with pytest.raises(ValueError):
        Leakage(BOSON, 5, 1.0).at(4)


def test_leakage_bound_at_monotone_in_window():
    prev = math.inf
    leak = Leakage(BOSON, 0, 1.0)
    for lam in range(2, 40, 2):
        cur, _ = leak.at(lam)
        assert cur <= prev + 1e-18
        prev = cur


def test_leakage_bound_at_monotone_in_time():
    for lam in (10, 20):
        b1, _ = Leakage(BOSON, 0, 0.5).at(lam)
        b2, _ = Leakage(BOSON, 0, 1.5).at(lam)
        assert b1 <= b2


def test_leakage_bound_at_beats_any_single_delta():
    lam, t = 24, 1.0
    best, _ = Leakage(BOSON, 0, t).at(lam)
    for delta in range(2, 10):
        rep = long_time_bound(BOSON, 0, delta, t)
        if rep.lambda_ <= lam:
            assert best <= rep.bound + 1e-18


def _per_delta_leakage_min(profile, lambda0, lam, t, delta_max):
    """The per-delta loop that the Leakage table replaced, kept verbatim."""
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


def _minimal_state_threshold_loop(profile, query, optimize_lambda, delta_max):
    """The delta loop that minimal_state_threshold replaced, kept verbatim
    with both recipes (details dropped): the smallest qualifying delta, or
    with optimize_lambda the qualifying delta with the smallest window."""
    first = None
    best = None
    for delta in range(2, delta_max + 1):
        rep = long_time_bound(profile, query.lambda0, delta, query.time)
        if rep.bound <= query.epsilon:
            if first is None:
                first = rep
                if not optimize_lambda:
                    return rep
            if best is None or rep.lambda_ < best.lambda_:
                best = rep
    if first is None:
        raise CapExceededError(
            f"no delta <= {delta_max} reaches epsilon = {query.epsilon} "
            f"at t = {query.time}"
        )
    return best


PROFILES = [GAUGE, BOSON, WalkProfile(chi=1.5, r=0.9), WalkProfile(chi=0.0, r=0.5)]


def test_delta_table_scan_matches_per_delta_loop():
    seen = set()
    for profile in PROFILES:
        for lambda0 in range(6):
            for delta_max in (2, 3, 512):
                for t in (0.0, 0.7, 3.0, 1e6):
                    leak = Leakage(profile, lambda0, t, delta_max)
                    rows = list(leak.rows())
                    assert [delta for _, _, delta in rows] == list(range(2, delta_max + 1))
                    for lam in (lambda0, lambda0 + 7, 300, 10**9):
                        want = _per_delta_leakage_min(profile, lambda0, lam, t, delta_max)
                        assert leak.at(lam) == want
                        if want == (1.0, 0):
                            seen.add("none qualifies")
                        elif want[0] == 0.0 and t > 0 and profile.chi > 0:
                            # step_bound underflowed: the scan stopped at 0
                            assert want[1] > 100
                            seen.add("stop at 0")
    assert seen == {"none qualifies", "stop at 0"}


def test_rounding_can_make_a_window_decrease():
    """At chi = 1 + 2^-52, t = 1/2 and lambda0 = 3, J rounds up to 2 at
    delta = 5 and to 1 at delta = 6, so the window drops from 11 to 8.
    The scan still gives the per-delta loop's answer at every window."""
    profile = WalkProfile(chi=1.0 + 2.0**-52, r=0.0)
    leak = Leakage(profile, 3, 0.5)
    assert [lam for lam, _, _ in list(leak.rows())[:5]] == [4, 5, 9, 11, 8]
    for lam in range(3, 40):
        assert leak.at(lam) == _per_delta_leakage_min(profile, 3, lam, 0.5, DELTA_MAX)
    assert leak.at(8)[1] == 6


def _count_long_time_bound(monkeypatch):
    calls = []
    inner = bounds.long_time_bound

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(bounds, "long_time_bound", counted)
    return calls


def test_state_threshold_matches_both_recipes_of_the_delta_loop():
    """The first qualifying row is the old smallest-delta answer and also
    the old window-minimizing answer, on the grid of the scan test."""
    seen = set()
    for profile in PROFILES:
        for lambda0 in range(6):
            for delta_max in (2, 3, 512):
                for t in (0.0, 0.7, 3.0, 1e6):
                    for eps in (0.5, 1e-3, 1e-30):
                        q = TruncationQuery(lambda0, t, eps)
                        try:
                            first = _minimal_state_threshold_loop(profile, q, False, delta_max)
                        except CapExceededError:
                            with pytest.raises(CapExceededError):
                                _minimal_state_threshold_loop(profile, q, True, delta_max)
                            with pytest.raises(CapExceededError):
                                minimal_state_threshold(profile, q, delta_max)
                            seen.add("cap")
                            continue
                        best = _minimal_state_threshold_loop(profile, q, True, delta_max)
                        assert best == first
                        got = minimal_state_threshold(profile, q, delta_max)
                        if t == 0:
                            # the one t = 0 rule: no growth, delta 0
                            assert got == BoundReport(lambda0, 0.0, 0)
                            assert (first.lambda_, first.bound) == (lambda0, 0.0)
                            seen.add("t = 0")
                        else:
                            assert got == first
                            seen.add("qualifies")
    assert seen == {"cap", "t = 0", "qualifies"}


@pytest.mark.parametrize("r", [0.0, 0.25, 0.5, 0.75, 0.9, 0.99])
def test_window_strictly_increases_with_delta(r):
    """lambda0 + J (delta - 1) with J the rounded-up secant slope of a
    convex function from delta = 1: on this grid the windows increase, so
    the first row that meets eps also has the smallest window.  In exact
    arithmetic that holds everywhere; J is a rounded float quotient, so it
    can fail (`test_state_threshold_is_the_first_row_not_the_smallest_window`)."""
    for chi in (0.05, 1.0, 2.0 * math.sqrt(2.0)):
        for lambda0 in (0, 3, 1000):
            for t in (0.01, 0.37, 1.0, 10.0, 100.0):
                windows = []
                try:
                    for lam, _, _ in Leakage(WalkProfile(chi=chi, r=r), lambda0, t).rows():
                        windows.append(lam)
                except CapExceededError:  # r near 1: the grown window overflows a float
                    assert r == 0.99
                assert len(windows) >= 2
                assert all(a < b for a, b in zip(windows, windows[1:]))


def test_state_threshold_is_the_first_row_not_the_smallest_window():
    """Where rounding makes a window decrease, minimal_state_threshold
    still returns the first row that meets eps (the per-delta loop's
    answer), although a later row certifies a smaller window."""
    profile = WalkProfile(chi=1.0 + 2.0**-52, r=0.0)
    q = TruncationQuery(3, 0.5, 1.0417e-3)
    rep = minimal_state_threshold(profile, q)
    assert rep == _minimal_state_threshold_loop(profile, q, False, DELTA_MAX)
    assert (rep.lambda_, rep.delta_used) == (11, 5)
    bound, delta = Leakage(profile, 3, 0.5).at(8)
    assert delta == 6 and bound <= 4.35e-5 < q.epsilon


def test_state_threshold_reads_only_the_rows_it_needs(monkeypatch):
    calls = _count_long_time_bound(monkeypatch)
    rep = minimal_state_threshold(BOSON, TruncationQuery(0, 1.0, 1e-2))
    assert rep.delta_used == 7
    assert len(calls) == 6
    calls.clear()
    assert minimal_state_threshold(BOSON, TruncationQuery(3, 0.0, 1e-2)) == BoundReport(3, 0.0, 0)
    assert calls == []


def test_threshold_searches_build_one_delta_table(monkeypatch):
    calls = _count_long_time_bound(monkeypatch)
    tail_threshold(BOSON, TailQuery(0.3, 0.5, 1e-4))
    assert len(calls) == DELTA_MAX - 1
    calls.clear()
    minimal_hamiltonian_threshold(
        GAUGE, TruncationQuery(0, 1.0, 1e-6), n_modes=4,
        comm_norm=lambda lam: float(lam) ** 2,
    )
    assert len(calls) == DELTA_MAX - 1


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
    assert Leakage(BOSON, 0, 1.0).at(rep.lambda_)[0] <= 1e-3


def test_minimal_state_threshold_zero_time():
    q = TruncationQuery(lambda0=5, time=0.0, epsilon=1e-6)
    rep = minimal_state_threshold(BOSON, q)
    assert rep.lambda_ == 5
    assert rep.bound == 0.0


def test_minimal_state_threshold_optimized_never_larger():
    """No qualifying row has a smaller window than the one returned."""
    q = TruncationQuery(lambda0=0, time=2.0, epsilon=1e-4)
    first = minimal_state_threshold(BOSON, q)
    best = min(
        (lam, bound)
        for lam, bound, _ in Leakage(BOSON, q.lambda0, q.time).rows()
        if bound <= q.epsilon
    )
    assert best[0] <= first.lambda_
    assert best == (first.lambda_, first.bound)
    assert best[1] <= 1e-4


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
    got = hamiltonian_truncation_bounds(Leakage(BOSON, 0, 0.0), [8], 2, lambda lam: 4.0)
    assert got == [0.0]


def test_hamiltonian_truncation_bound_needs_padding():
    with pytest.raises(ValueError):
        hamiltonian_truncation_bounds(Leakage(BOSON, 4, 1.0), [5], 1, lambda lam: 1.0)


def test_hamiltonian_truncation_bound_composition():
    comm = lambda lam: float(lam) ** 2
    expected = (1.5 ** 2 / 2.0) * 144.0 * 2.0 * Leakage(BOSON, 0, 1.5).at(10)[0]
    (got,) = hamiltonian_truncation_bounds(Leakage(BOSON, 0, 1.5), [12], 4, comm)
    assert got == pytest.approx(expected)


def test_shared_table_bounds_equal_one_query_bounds():
    """Several lambda-tildes read one Leakage table and give, to the bit,
    what one-lambda-tilde calls give and what the per-delta loop gives."""
    comm = lambda lam: 0.5 * float(lam) ** 1.5 + 1.0
    for profile in (GAUGE, BOSON, WalkProfile(chi=1.5, r=0.9)):
        for lambda0 in (0, 3):
            for t in (0.0, 0.7, 3.0):
                lams = [lambda0 + 30, lambda0 + 2, lambda0 + 9, lambda0 + 2]
                got = hamiltonian_truncation_bounds(Leakage(profile, lambda0, t), lams, 3, comm)
                assert got == [
                    hamiltonian_truncation_bounds(Leakage(profile, lambda0, t), [lam], 3, comm)[0]
                    for lam in lams
                ]
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
                leak = Leakage(profile, lambda0, t)
                assert [leak.at(lam) for lam in windows] == [
                    Leakage(profile, lambda0, t).at(lam) for lam in windows
                ]


def test_shared_table_bounds_build_one_table(monkeypatch):
    calls = _count_long_time_bound(monkeypatch)
    leak = Leakage(BOSON, 0, 1.0)
    assert len(hamiltonian_truncation_bounds(leak, [20, 40, 80], 1, lambda lam: 1.0)) == 3
    assert len(calls) == DELTA_MAX - 1
    calls.clear()
    leak = Leakage(BOSON, 0, 1.0)
    assert len([leak.at(lam) for lam in (10, 20, 30)]) == 3
    assert len(calls) == DELTA_MAX - 1
    assert hamiltonian_truncation_bounds(leak, [], 1, lambda lam: 1.0) == []


def test_shared_table_bounds_check_every_window_first():
    """A window below lambda0 + 2 anywhere in the list raises before any
    commutator norm is evaluated."""
    norms = []
    comm = lambda lam: norms.append(lam) or 1.0
    with pytest.raises(ValueError, match="lambda_tilde = 5 must be >= lambda0 [+] 2 = 6"):
        hamiltonian_truncation_bounds(Leakage(BOSON, 4, 1.0), [12, 5], 1, comm)
    assert norms == []
    with pytest.raises(ValueError, match="lam must be >= lambda0"):
        Leakage(BOSON, 4, 1.0).at(3)


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
        return hamiltonian_truncation_bounds(Leakage(GAUGE, 0, 1.0), [lam], 4, comm)[0]

    qualifying = [lam for lam in range(2, 40) if bound_at(lam) <= 1e-6]
    assert rep.lambda_ == min(qualifying)


def test_minimal_hamiltonian_threshold_searches_with_its_delta_max():
    """The search, the bound and delta_used all come from one DELTA_MAX table."""
    profile = WalkProfile(chi=2.0, r=0.5)
    comm = lambda lam: 2.0 * (lam + 1)
    q = TruncationQuery(0, 1.0, 1e-3)
    rep = minimal_hamiltonian_threshold(profile, q, n_modes=1, comm_norm=comm)
    assert (rep.lambda_, rep.delta_used) == (486, 12)
    assert rep.bound == pytest.approx(4.7806e-4, rel=1e-4)
    q = TruncationQuery(0, 0.3, 1e-2)
    rep = minimal_hamiltonian_threshold(profile, q, n_modes=1, comm_norm=lambda lam: 1.0)
    leak, _ = Leakage(profile, 0, 0.3).at(rep.lambda_ - 2)
    assert rep.bound == 0.5 * 0.3**2 * 1.0 * math.sqrt(1) * leak
    assert 2 <= rep.delta_used <= DELTA_MAX
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


def _tail_by_search(profile, tquery):
    """(window, bound, delta) by the doubling and bisection search over
    `Leakage.at`, or the CapExceededError message."""
    eps3 = tquery.epsilon / 3.0
    c1 = 4.0 * math.sqrt(2.0)
    sigma = tquery.gap / math.sqrt(2.0 * math.log(c1 / eps3))
    t_window = math.sqrt(2.0 * math.log(c1 * math.sqrt(2.0 / math.pi) / eps3)) / sigma
    lambda0 = math.ceil(2.0 * tquery.lambda_bar)
    leak = Leakage(profile, lambda0, t_window)
    try:
        lam = bounds._smallest_qualifying(
            lambda lam: leak.at(lam)[0] / bounds.OVERLAP_FLOOR <= eps3,
            lambda0, bounds.LAMBDA_CAP, "tail threshold",
        )
    except CapExceededError as exc:
        return str(exc)
    bound, delta = leak.at(lam)
    return lam, 2.0 * eps3 + bound / bounds.OVERLAP_FLOOR, delta


@pytest.mark.parametrize(
    "profile",
    [BOSON, GAUGE, WalkProfile(chi=0.05, r=0.5), WalkProfile(chi=0.0, r=0.5)],
    ids=["boson", "gauge", "weak", "free"],
)
def test_tail_threshold_reads_the_window_the_search_finds(profile):
    """The smallest qualifying row window is the smallest window the
    search over `Leakage.at` finds, with the same bound and delta, and
    the same guard error when no window up to LAMBDA_CAP qualifies."""
    for lambda_bar in (0.0, 0.3, 7.5, 1e7):
        for gap in (0.01, 0.5, 3.0):
            for eps in (1.0, 1e-2, 1e-8):
                query = TailQuery(lambda_bar, gap, eps)
                try:
                    rep = tail_threshold(profile, query)
                    got = rep.lambda_, rep.bound, rep.delta_used
                except CapExceededError as exc:
                    got = str(exc)
                assert got == _tail_by_search(profile, query), query


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
