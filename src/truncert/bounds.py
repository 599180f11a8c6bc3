"""Closed-form leakage bounds and truncation thresholds.

Every number produced here is a certified upper bound built from a walk
profile (chi, r).  The chain is:

* a one-step bound: evolving for |t| <= 1/(2 chi (L0+1)**r) leaks at
  most 2**(1-D) * (D!)**(-(1-r)) outside a window grown by D,
* an adaptive schedule chaining such steps with the window growing by
  (D-1) per step, giving a long-time bound J * 2**(1-D) * (D!)**(-(1-r))
  after J steps,
* threshold searches inverting those bounds (smallest window achieving a
  target error), plus the commutator-based Hamiltonian-truncation bound,
  the energy-conservation competitor thresholds, the eigenstate tail
  threshold, and the walk-versus-energy threshold comparison.

The guard errors the CLI maps to exit code 2 live here too
(`CapExceededError`, `ResourceLimitError`, `ConvergenceError`), so that
catching them imports nothing beyond this module.

Every consumer of the long-time bound reads one `Leakage` table: the
(lambda_, bound, delta) of the long-time bound for each delta =
2..delta_max, which does not depend on the window it is compared
against.  `Leakage.rows` yields the rows in ascending delta, each
computed once, on first demand: `minimal_state_threshold` pays only for
the rows up to the first that meets its target, and
`verify.verify_state_truncation` only for those up to its largest
delta.  `minimal_state_threshold` returns the first row that meets
eps; in exact arithmetic also the smallest window, since the row
windows then strictly increase with delta.  The step count J is a
rounded float quotient, so a later row can have a smaller window.
`Leakage.at` answers a window lam from the whole table by one
ascending scan: a row qualifies when its lambda_ <= lam, replaces the
running best (starting at 1.0) only when strictly smaller, so ties go
to the smallest delta, and the scan stops at the first qualifying bound
of 0.0.  The scan does not rely on the window order.  The threshold
searches and `hamiltonian_truncation_bounds` read every window they
probe from one table.  No table outlives the object that built it.

An input that is not finite raises ValueError naming it; a finite one
whose window overflows a float raises CapExceededError.  All functions are
pure arithmetic: same inputs, bit-identical outputs.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, NamedTuple, Sequence

from .walk_profiles import WalkProfile, profile_hubbard_holstein, speed_limit

__all__ = [
    "TruncationQuery",
    "Schedule",
    "BoundReport",
    "TailQuery",
    "TailReport",
    "ValidityError",
    "CapExceededError",
    "ResourceLimitError",
    "ConvergenceError",
    "DELTA_MAX",
    "step_bound",
    "within_speed_limit",
    "short_time_bound",
    "adaptive_schedule",
    "long_time_bound",
    "Leakage",
    "minimal_state_threshold",
    "check_truncation_window",
    "hamiltonian_truncation_bounds",
    "minimal_hamiltonian_threshold",
    "energy_threshold_single_mode",
    "energy_threshold_hubbard_holstein",
    "tail_threshold",
    "CompareRow",
    "ThresholdComparison",
    "compare_thresholds",
]

#: Default cap on the per-step window growth D scanned by searches.  The
#: per-step factor is evaluated in log space, so D far beyond the float
#: factorial limit (~170) stays usable.
DELTA_MAX = 512

#: Cap on threshold searches over the window size.
LAMBDA_CAP = 1 << 24

#: Absolute slack of the speed-limit test, so that a time equal to the
#: limit up to rounding (0.25 against 0.24999999999999994) is inside it.
_SPEED_LIMIT_SLACK = 1e-12


class ValidityError(ValueError):
    """Raised when a bound is queried outside its validity window."""

    def __init__(self, message: str, max_time: float):
        super().__init__(message)
        self.max_time = max_time


class CapExceededError(RuntimeError):
    """A threshold search hit its configured cap without qualifying."""


class ResourceLimitError(RuntimeError):
    """Requested object exceeds a configured resource cap."""


class ConvergenceError(RuntimeError):
    """An iterative engine failed to meet its accuracy target."""


# ---------------------------------------------------------------------------
# queries and reports
# ---------------------------------------------------------------------------

class _TruncationQuery(NamedTuple):
    lambda0: int
    time: float
    epsilon: float


class TruncationQuery(_TruncationQuery):
    """Initial window cap lambda0, evolution time, and target error."""

    __slots__ = ()

    def __new__(cls, lambda0: int, time: float, epsilon: float):
        if lambda0 < 0 or int(lambda0) != lambda0:
            raise ValueError("lambda0 must be a nonnegative integer")
        if not 0 <= time < math.inf:
            raise ValueError(f"time must be finite and >= 0, not {time}")
        if not 0 < epsilon <= 1:
            raise ValueError("epsilon must lie in (0, 1]")
        return super().__new__(cls, lambda0, time, epsilon)


class Schedule(NamedTuple):
    """Adaptive evolution schedule: step times t_j and window caps lambda_j."""

    delta: int
    steps: tuple[tuple[float, int], ...]


class BoundReport(NamedTuple):
    """A certified (window, bound) pair with the step growth that produced it."""

    lambda_: int
    bound: float
    delta_used: int


class _TailQuery(NamedTuple):
    lambda_bar: float
    gap: float
    epsilon: float


class TailQuery(_TailQuery):
    """Inputs of the eigenstate tail threshold."""

    __slots__ = ()

    def __new__(cls, lambda_bar: float, gap: float, epsilon: float):
        if not math.isfinite(lambda_bar) or lambda_bar < 0:
            raise ValueError("lambda_bar must be finite and >= 0")
        if not 0 < gap < math.inf:
            raise ValueError(f"gap must be finite and > 0, not {gap}")
        if not 0 < epsilon <= 1:
            raise ValueError("epsilon must lie in (0, 1]")
        return super().__new__(cls, lambda_bar, gap, epsilon)


class TailReport(NamedTuple):
    """Tail threshold with the internal filter parameters that produced it."""

    lambda_: int
    bound: float
    delta_used: int
    sigma: float
    t_window: float


# ---------------------------------------------------------------------------
# per-step and long-time leakage bounds
# ---------------------------------------------------------------------------

def _log_step_bound(delta: int, r: float) -> float:
    """log of 2**(1-delta) * (delta!)**(-(1-r)), safe for large delta."""
    return (1.0 - delta) * math.log(2.0) - (1.0 - r) * math.lgamma(delta + 1.0)


def step_bound(delta: int, r: float) -> float:
    """The one-step leakage factor 2**(1-delta) * (delta!)**(-(1-r))."""
    if delta < 1 or int(delta) != delta:
        raise ValueError("delta must be an integer >= 1")
    if not 0 <= r < 1:
        raise ValueError("r must lie in [0, 1)")
    delta = int(delta)
    # linear arithmetic keeps small cases bit-exact; factorial(151) still
    # fits in a float, beyond that fall back to the log form
    if delta <= 150:
        return 2.0 ** (1 - delta) / float(math.factorial(delta)) ** (1.0 - r)
    return math.exp(_log_step_bound(delta, r))


def within_speed_limit(profile: WalkProfile, lambda0: int, t: float) -> bool:
    """Whether |t| lies in the one-step validity window, up to rounding.

    The one test of short-time validity: short_time_bound raises exactly
    when this is false, and the experiments emit short-time reports
    exactly when it is true.
    """
    return abs(t) <= speed_limit(profile, lambda0) + _SPEED_LIMIT_SLACK


def short_time_bound(profile: WalkProfile, lambda0: int, delta: int, t: float) -> float:
    """Leakage bound outside the open window (-lambda0-delta, lambda0+delta).

    Valid only for |t| <= 1/(2 chi (lambda0+1)**r); outside that window a
    ValidityError carrying the maximal admissible time is raised.
    """
    if lambda0 < 0 or int(lambda0) != lambda0:
        raise ValueError("lambda0 must be a nonnegative integer")
    if delta < 1 or int(delta) != delta:
        raise ValueError("delta must be an integer >= 1")
    if not within_speed_limit(profile, lambda0, t):
        t_max = speed_limit(profile, lambda0)
        raise ValidityError(
            f"|t| = {abs(t)} exceeds the validity window {t_max}", max_time=t_max
        )
    return step_bound(int(delta), profile.r)


def adaptive_schedule(
    profile: WalkProfile, lambda0: int, delta: int, horizon: float
) -> Schedule:
    """Chain one-step windows until the accumulated time reaches horizon.

    Each step advances time by the current speed limit and the window cap
    by (delta - 1).  The iteration stops at the first step time >= horizon,
    so the final step may overshoot.  A zero horizon yields no steps; a
    vanishing chi cannot grow the window and returns a single step of
    infinite time.
    """
    if lambda0 < 0 or int(lambda0) != lambda0:
        raise ValueError("lambda0 must be a nonnegative integer")
    if delta <= 1 or int(delta) != delta:
        raise ValueError("delta must be an integer > 1")
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    if horizon == 0:
        return Schedule(delta=int(delta), steps=())
    if profile.chi == 0.0:
        lam1 = int(lambda0) + (int(delta) - 1)
        return Schedule(delta=int(delta), steps=((math.inf, lam1),))
    steps: list[tuple[float, int]] = []
    t = 0.0
    lam = int(lambda0)
    j = 0
    while t < horizon:
        t += 1.0 / (2.0 * profile.chi * (lam + 1.0) ** profile.r)
        j += 1
        lam = int(lambda0) + j * (int(delta) - 1)
        steps.append((t, lam))
    return Schedule(delta=int(delta), steps=tuple(steps))


def long_time_bound(
    profile: WalkProfile, lambda0: int, delta: int, t: float
) -> BoundReport:
    """Certified leakage bound for arbitrary times.

    The window grows to lambda = lambda0 + J*(delta-1), J the least step
    count >= 1 with lambda**(1-r) >= lambda0**(1-r) + 2 chi (1-r) (delta-1) t
    (continuous growth).  J can fall below the number of `adaptive_schedule`
    steps that cover t (profile (1, 1/2), lambda0 0, delta 3, t 0.8: J = 2,
    but two steps end at t = 0.789).  The bound is J times the one-step
    factor, clipped to at most 1.  A grown window that overflows a float
    raises CapExceededError.
    """
    if lambda0 < 0 or int(lambda0) != lambda0:
        raise ValueError("lambda0 must be a nonnegative integer")
    if delta <= 1 or int(delta) != delta:
        raise ValueError("delta must be an integer > 1")
    if not 0 <= t < math.inf:
        raise ValueError(f"t must be finite and >= 0, not {t}")
    delta = int(delta)
    lambda0 = int(lambda0)
    if t == 0.0 or profile.chi == 0.0:
        return BoundReport(lambda_=lambda0, bound=0.0, delta_used=delta)
    one_minus_r = 1.0 - profile.r
    # any positive time needs at least one step; the max(1, .) also guards
    # against the lambda0 power round-trip landing slightly below lambda0
    try:
        inner = lambda0**one_minus_r + 2.0 * profile.chi * t * one_minus_r * (delta - 1)
        j_count = max(1, math.ceil((inner ** (1.0 / one_minus_r) - lambda0) / (delta - 1)))
    except OverflowError:
        raise CapExceededError(f"the window grown by t = {t} overflows a float") from None
    lam = lambda0 + j_count * (delta - 1)
    bound = min(1.0, j_count * step_bound(delta, profile.r))
    return BoundReport(lambda_=lam, bound=bound, delta_used=delta)


class Leakage:
    """Certified leakage after time t of a state starting inside [0, lambda0].

    One row (lambda_, bound, delta) per step growth delta = 2..delta_max:
    leakage at most bound outside the window lambda_ (`long_time_bound`,
    which checks t when the first row is computed).  `rows` computes the
    rows on demand; `at` answers a window from the whole table.
    """

    def __init__(
        self, profile: WalkProfile, lambda0: int, t: float, delta_max: int = DELTA_MAX
    ):
        if lambda0 < 0 or int(lambda0) != lambda0:
            raise ValueError("lambda0 must be a nonnegative integer")
        self.profile = profile
        self.lambda0 = int(lambda0)
        self.t = t
        self.delta_max = int(delta_max)
        self._rows: list[tuple[int, float, int]] = []

    def rows(self) -> Iterator[tuple[int, float, int]]:
        """(lambda_, bound, delta) for delta = 2..delta_max, each computed once, on demand."""
        rows = self._rows
        for delta in range(2, self.delta_max + 1):
            if len(rows) == delta - 2:
                rep = long_time_bound(self.profile, self.lambda0, delta, self.t)
                rows.append((rep.lambda_, rep.bound, delta))
            yield rows[delta - 2]

    def at(self, lam: int) -> tuple[float, int]:
        """(bound, delta): the least leakage outside [0, lam] over the rows that fit lam.

        The first call builds the whole table.  The scan ascends in
        delta, strict < against a running best that starts at 1.0 (ties
        go to the smallest delta), stopping at the first qualifying
        bound of 0.0; (1.0, 0) when no row fits lam (a window too tight
        for the elapsed time).
        """
        if lam < self.lambda0:
            raise ValueError("lam must be >= lambda0")
        if len(self._rows) < self.delta_max - 1:
            for _ in self.rows():
                pass
        best = 1.0
        best_delta = 0
        for lam_d, bound, delta in self._rows:
            if lam_d <= lam and bound < best:
                best = bound
                best_delta = delta
                if best == 0.0:
                    break
        return best, best_delta


# ---------------------------------------------------------------------------
# threshold searches
# ---------------------------------------------------------------------------

def minimal_state_threshold(
    profile: WalkProfile,
    query: TruncationQuery,
    delta_max: int = DELTA_MAX,
) -> BoundReport:
    """Certified window for evolving a state for query.time.

    The first row that meets eps: the `Leakage` row of smallest delta
    whose bound is at most query.epsilon.  In exact arithmetic also the
    smallest window: the window is lambda0 + J (delta - 1), where J
    rounds up the secant slope from delta = 1 of a convex function of
    delta, so J never decreases and the window strictly increases with
    delta.  J is a rounded float quotient, so a later qualifying row can
    have a smaller window (`Leakage.at` reads every row).  Time 0 needs
    no growth: (lambda0, 0.0, delta 0).
    """
    if query.time == 0:
        return BoundReport(lambda_=query.lambda0, bound=0.0, delta_used=0)
    for lam, bound, delta in Leakage(profile, query.lambda0, query.time, delta_max).rows():
        if bound <= query.epsilon:
            return BoundReport(lambda_=lam, bound=bound, delta_used=delta)
    raise CapExceededError(
        f"no delta <= {delta_max} reaches epsilon = {query.epsilon} "
        f"at t = {query.time}"
    )


def check_truncation_window(lambda0: int, lambda_tilde: int) -> None:
    """Raise ValueError unless lambda_tilde >= lambda0 + 2.

    The Hamiltonian-truncation bound needs the truncated and full
    Hamiltonians to agree on the initial window, two levels inside the
    truncation window.
    """
    if int(lambda_tilde) < lambda0 + 2:
        raise ValueError(
            f"lambda_tilde = {int(lambda_tilde)} must be >= lambda0 + 2 = {lambda0 + 2}"
        )


def hamiltonian_truncation_bounds(
    leak: Leakage,
    lambda_tildes: Sequence[int],
    n_modes: int,
    comm_norm: Callable[[int], float],
) -> list[float]:
    """Evolution error bounds for truncating the Hamiltonian, one per lambda_tilde.

    Each bounds ||(exp(-itH~) - exp(-itH)) Pi_all|| for the start window
    and time of leak by the crude time integral (t^2/2) of the
    commutator norm times the leakage two levels inside the truncation
    window, leak.at(lambda_tilde - 2), with the sqrt(n_modes)
    union-bound factor.  comm_norm maps a window cap L to an upper bound
    on the spectral norm of [H, Pi H Pi] at that cap (nonnegative,
    nondecreasing); n_modes counts the truncated modes/links.  Every
    window is checked (`check_truncation_window`) before any bound is
    evaluated; time 0 reads no table and no norm.
    """
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    for lam_t in lambda_tildes:
        if int(lam_t) != lam_t:
            raise ValueError("lambda_tilde must be an integer")
        check_truncation_window(leak.lambda0, lam_t)
    if leak.t == 0:
        return [0.0] * len(lambda_tildes)
    out = []
    for lam_t in lambda_tildes:
        leak_at, _ = leak.at(int(lam_t) - 2)
        comm = comm_norm(int(lam_t))
        if comm < 0:
            raise ValueError("comm_norm must be nonnegative")
        try:
            out.append(0.5 * leak.t**2 * comm * math.sqrt(n_modes) * leak_at)
        except OverflowError:
            raise CapExceededError(f"t**2 overflows a float at t = {leak.t}") from None
    return out


def _smallest_qualifying(
    predicate: Callable[[int], bool], lo: int, cap: int, what: str
) -> int:
    """Smallest integer >= lo satisfying predicate, by doubling + bisection.

    Assumes the failure region below the answer is contiguous (holds for
    the monotone-in-window bounds searched here); a final backward walk
    guards against plateau edges.  The predicate is never evaluated
    above cap.
    """
    if lo > cap:
        raise CapExceededError(f"{what}: search starts at {lo} > cap {cap}")
    if predicate(lo):
        return lo
    hi = min(max(lo + 1, 2 * lo), cap)
    while not predicate(hi):
        if hi >= cap:
            raise CapExceededError(f"{what}: no window <= {cap} qualifies")
        hi = min(2 * hi, cap)
    lo_fail = lo
    while hi - lo_fail > 1:
        mid = (hi + lo_fail) // 2
        if predicate(mid):
            hi = mid
        else:
            lo_fail = mid
    while hi - 1 > lo and predicate(hi - 1):
        hi -= 1
    return hi


def minimal_hamiltonian_threshold(
    profile: WalkProfile,
    query: TruncationQuery,
    n_modes: int,
    comm_norm: Callable[[int], float],
    lambda_cap: int = LAMBDA_CAP,
) -> BoundReport:
    """Smallest truncation window certifying the evolution to query.epsilon.

    One `Leakage` table answers every window the search probes and the
    reported (bound, delta_used), so both come from the same scan.
    """
    leak = Leakage(profile, query.lambda0, query.time)

    def bound_at(lam_t: int) -> float:
        return hamiltonian_truncation_bounds(leak, [lam_t], n_modes, comm_norm)[0]

    lam_t = _smallest_qualifying(
        lambda lam_t: bound_at(lam_t) <= query.epsilon,
        query.lambda0 + 2,
        lambda_cap,
        "hamiltonian threshold",
    )
    _, delta = leak.at(lam_t - 2)
    return BoundReport(lambda_=lam_t, bound=bound_at(lam_t), delta_used=delta)


# ---------------------------------------------------------------------------
# energy-conservation competitor thresholds
# ---------------------------------------------------------------------------

def _check_omega0(omega0: float) -> None:
    if not 0 < omega0 < math.inf:
        raise ValueError(f"omega0 must be finite and > 0, not {omega0}")


def energy_threshold_single_mode(omega0: float, lambda0: int, epsilon: float) -> int:
    """Energy-based window for a single driven oscillator.

    Uses energy conservation plus a Chebyshev-type argument: the smallest
    L with L + 1 >= ((2/omega0 + sqrt(lambda0+1))**2 - 1) / epsilon**2.
    A window that overflows a float raises CapExceededError.
    """
    _check_omega0(omega0)
    if lambda0 < 0 or int(lambda0) != lambda0:
        raise ValueError("lambda0 must be a nonnegative integer")
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must lie in (0, 1]")
    try:
        need = ((2.0 / omega0 + math.sqrt(lambda0 + 1.0)) ** 2 - 1.0) / epsilon**2
        return max(0, math.ceil(need - 1.0))
    except (OverflowError, ZeroDivisionError):
        raise CapExceededError("the energy window overflows a float") from None


def energy_threshold_hubbard_holstein(
    omega0: float,
    g: float,
    n_sites: int,
    lambda0: int,
    e_f_ground: float,
    e_total: float | None,
    epsilon: float,
) -> int:
    """Energy-based per-site window for the Hubbard-Holstein chain.

    Solves  omega0*n - 2|g|*sqrt(n+1) = e_total - e_f_ground
            + (n_sites-1)*(g^2/omega0 + omega0)
    for the per-site mean occupation n (quadratic in sqrt(n+1), larger
    root), then applies Markov's inequality per site at error
    epsilon/sqrt(n_sites): smallest L with L+1 >= n*n_sites/epsilon**2.

    When e_total is None it is replaced by the analytic initial-state
    estimate e_f_ground + n_sites*(omega0*lambda0 + 2|g|*sqrt(lambda0+1))
    (fermionic ground state tensored with at most lambda0 quanta per
    mode).  A negative right-hand side returns 0: the energy budget
    already pins the occupation below one quantum.  A window that
    overflows a float raises CapExceededError.
    """
    _check_omega0(omega0)
    for name, value in (("g", g), ("e_f_ground", e_f_ground), ("e_total", e_total)):
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, not {value}")
    if n_sites < 1:
        raise ValueError("n_sites must be >= 1")
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must lie in (0, 1]")
    try:
        if e_total is None:
            e_total = e_f_ground + n_sites * (
                omega0 * lambda0 + 2.0 * abs(g) * math.sqrt(lambda0 + 1.0)
            )
        rhs = e_total - e_f_ground + (n_sites - 1) * (g**2 / omega0 + omega0)
        if rhs < 0:
            return 0
        disc = g**2 + omega0 * (omega0 + rhs)
        if disc <= 0:
            return 0
        u = (abs(g) + math.sqrt(disc)) / omega0
        n = u**2 - 1.0
        if n <= 0:
            return 0
        need = n * n_sites / epsilon**2
        return max(0, math.ceil(need - 1.0))
    except (OverflowError, ZeroDivisionError):
        raise CapExceededError("the energy window overflows a float") from None


# ---------------------------------------------------------------------------
# eigenstate tail threshold
# ---------------------------------------------------------------------------

#: Proof-level lower bound on the retained-window overlap of the filtered
#: eigenstate; the leakage budget is amplified by its inverse.
OVERLAP_FLOOR = 1.0 / (2.0 * math.sqrt(2.0))


def tail_threshold(profile: WalkProfile, tquery: TailQuery) -> TailReport:
    """Window outside which a gapped ground state's quantum number tail is < epsilon.

    Concrete three-way error split over the Gaussian-filter construction:

    * filter width sigma such that 4*sqrt(2)*exp(-gap^2/(2 sigma^2)) <= eps/3,
    * time cutoff T such that 4*sqrt(2)*sqrt(2/pi)*exp(-sigma^2 T^2/2) <= eps/3,
    * window L as the smallest integer with
      (1/OVERLAP_FLOOR) * Leakage(ceil(2*lambda_bar), T).at(L) <= eps/3.

    The reported bound is the sum of the three achieved terms (<= eps).
    `at` never increases with the window and no row's window is below the
    Markov core, so L is the smallest row window of one `Leakage` table at
    (lambda0, T) whose bound qualifies, up to LAMBDA_CAP.  A T or Markov
    core that overflows a float raises CapExceededError.
    """
    eps3 = tquery.epsilon / 3.0
    c1 = 4.0 * math.sqrt(2.0)
    try:
        sigma = tquery.gap / math.sqrt(2.0 * math.log(c1 / eps3))
        c2 = c1 * math.sqrt(2.0 / math.pi)
        t_window = math.sqrt(2.0 * math.log(c2 / eps3)) / sigma
        lambda0 = math.ceil(2.0 * tquery.lambda_bar)
        if t_window == math.inf:
            raise OverflowError
    except (OverflowError, ZeroDivisionError):
        raise CapExceededError(f"the tail window for {tquery} overflows a float") from None
    if lambda0 > LAMBDA_CAP:
        raise CapExceededError(
            f"tail threshold: search starts at {lambda0} > cap {LAMBDA_CAP}"
        )
    leakage = Leakage(profile, lambda0, t_window)
    fits = [lam for lam, bound, _ in leakage.rows() if bound / OVERLAP_FLOOR <= eps3]
    lam = min(fits, default=LAMBDA_CAP + 1)
    if lam > LAMBDA_CAP:
        raise CapExceededError(f"tail threshold: no window <= {LAMBDA_CAP} qualifies")
    leak, delta = leakage.at(lam)
    achieved = 2.0 * eps3 + leak / OVERLAP_FLOOR
    return TailReport(
        lambda_=lam,
        bound=achieved,
        delta_used=delta,
        sigma=sigma,
        t_window=t_window,
    )


# ---------------------------------------------------------------------------
# threshold comparison curves
# ---------------------------------------------------------------------------

class CompareRow(NamedTuple):
    t: float
    lambda_ours: int
    lambda_energy: int
    delta_used: int


class ThresholdComparison(NamedTuple):
    rows: tuple[CompareRow, ...]
    crossover_t: float | None


def compare_thresholds(
    n_modes: int,
    epsilon: float,
    lambda0: int,
    times: Sequence[float],
    omega0: float = 1.0,
    g: float = 0.5,
) -> ThresholdComparison:
    """Walk-bound thresholds against the energy-conservation recipe.

    Both sides meet the same global target: the walk threshold runs at
    the per-mode budget epsilon / sqrt(n_modes) (union bound over modes),
    and the energy threshold applies its per-site Markov step at the same
    split internally.  The energy side is time-independent; the crossover
    is the first grid time where the walk threshold stops winning.
    """
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    profile = profile_hubbard_holstein(abs(g))
    eps_mode = min(1.0, epsilon / math.sqrt(n_modes))
    lam_energy = energy_threshold_hubbard_holstein(
        omega0=omega0,
        g=g,
        n_sites=n_modes,
        lambda0=int(lambda0),
        e_f_ground=0.0,
        e_total=None,
        epsilon=epsilon,
    )
    rows = []
    crossover = None
    for t in times:
        rep = minimal_state_threshold(
            profile,
            TruncationQuery(lambda0=int(lambda0), time=float(t), epsilon=eps_mode),
        )
        rows.append(
            CompareRow(
                t=float(t),
                lambda_ours=int(rep.lambda_),
                lambda_energy=int(lam_energy),
                delta_used=int(rep.delta_used),
            )
        )
        if crossover is None and rep.lambda_ >= lam_energy:
            crossover = float(t)
    return ThresholdComparison(rows=tuple(rows), crossover_t=crossover)
