"""Bound-versus-empirical experiments on desk-scale finite proxies.

Every experiment emits ExperimentReports whose soundness flag is
computed one way only: empirical <= analytic + engine_slack, with
engine_slack ten times the evolution error budget.  The empirical side
exhausts the initial window exactly: every window basis state is a
column.  Both exact checks here, the state-truncation leakage
||(1 - P_lambda) e^{-iHt} P_lambda0|| and the Hamiltonian-truncation
difference ||(e^{-iHt} - e^{-i Pi H Pi t}) P_lambda0||, are top singular
values of such columns, and both are measured by one
`propagate.WindowSweep` built once per call (once per cutoff for the
latter, on H and the Pi H Pi of every lambda-tilde of the call, so each
block is evolved under H once for all of them): it prepares each
Hamiltonian once and restricts it once to each stack of sectors of the
model's sector keys (a conserved charge diagonal in the Fock basis; Pi
is diagonal too, so Pi H Pi keeps them); a stack is a union of sectors
with equal window counts that fits one sweep block, whose column j
holds window state j of every member.  The projectors are diagonal, so
the measured operator is block-diagonal and its top singular value is
exactly the largest over sectors; each stack's columns are propagated
together, for every time of the call at once (one Chebyshev recurrence
serves them all), block by block, one stack at a time, and each member
sector is cut back out and reduced on its own.  The largest sector's
dim_s * |window in s| is what must fit `propagate.COLUMN_CAP`
(ResourceLimitError otherwise), and the outputs of one stack held at
once stay within it too.  A stack's Gershgorin interval is the hull of
its members' intervals, and inside the full one, and the stack's
operator is block-diagonal, so each member's propagation error is at
most tol * ||block_s|| and the block-diagonal error at most tol *
||block||: the engine slack is unchanged.  Both checks make one sweep
per call (per cutoff) for all their outputs, and the tail check one
ground-state solve for all its epsilons, so every report of one call
carries the call's elapsed time as runtime_s.

A window grown past the proxy cutoff makes the empirical value
identically zero: the report stays sound and says so, since the finite
proxy obeys the same walk profile as the unbounded Hamiltonian.

The analytic side of every check but the short-time rows reads one
`bounds.Leakage` table per start window and time: the long-time rows of
`verify_state_truncation` (delta up to the largest one asked for), the
Hamiltonian-truncation bounds, and the tail windows of `tail_threshold`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .bounds import (
    Leakage,
    TailQuery,
    check_truncation_window,
    hamiltonian_truncation_bounds,
    short_time_bound,
    tail_threshold,
    within_speed_limit,
)
from .fock_algebra import ALL, ProjectorSpec, projector, window_mask
from .models import ModelInstance, single_mode
from .propagate import TOL, WindowSweep, evolve, lowest_eigenpairs

__all__ = [
    "ExperimentReport",
    "engine_slack",
    "is_sound",
    "verify_state_truncation",
    "verify_hamiltonian_truncations",
    "verify_hamiltonian_truncation",
    "verify_tail",
    "tail_profile",
    "tail_decay_slope",
    "coherent_oracle_check",
]


@dataclass(frozen=True)
class ExperimentReport:
    experiment: str
    inputs: dict
    empirical: float
    analytic: float
    sound: bool
    margin: float
    runtime_s: float
    notes: str = ""


def engine_slack(tol: float) -> float:
    """Allowance for propagation error in every soundness comparison at tolerance tol.

    The block engine bounds its truncation error by tol in the 2-norm of
    the whole window block, so by Weyl's inequality the top singular
    value of a masked column block moves by at most tol, whatever the
    number of window columns.  The Trotter check composes at most five
    such errors on the single-mode and Hubbard-Holstein suites (the
    non-diagonal substeps of one Strang step plus the exact step;
    diagonal parts are exact, and higher orders split the tolerance over
    their recursive steps), so ten times the tolerance covers every
    check.  Split into symmetry sectors, the same holds
    sector by sector: sectors are propagated in stacks, whose operator is
    block-diagonal over the member sectors and whose Gershgorin interval
    is the hull of theirs (inside the full one), so each sector's block
    errs by at most the same multiple of tol * ||block_s||, and the
    block-diagonal whole, whose top singular value is the largest over
    sectors, errs by at most the largest of those.  Evolving every time
    of a check in one recurrence changes no coefficient, so no bound.
    Floating-point roundoff of the Chebyshev recurrence is not part of
    that bound.  Raises ValueError unless tol > 0.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    return 10.0 * tol


def is_sound(empirical: float, analytic: float, tol: float) -> bool:
    """The one soundness rule: empirical <= analytic + engine_slack(tol)."""
    return bool(empirical <= analytic + engine_slack(tol))


def _report(experiment, inputs, empirical, analytic, tol, runtime_s, notes=""):
    return ExperimentReport(
        experiment=experiment,
        inputs=dict(inputs),
        empirical=float(empirical),
        analytic=float(analytic),
        sound=is_sound(empirical, analytic, tol),
        margin=float(analytic - empirical),
        runtime_s=runtime_s,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# state-truncation soundness
# ---------------------------------------------------------------------------

def verify_state_truncation(
    model: ModelInstance,
    lambda0: int,
    times: Sequence[float],
    mode: str = "per_mode",
    deltas: Sequence[int] = (2, 3, 4, 5),
    tol: float = TOL,
) -> list[ExperimentReport]:
    """Leakage norms against the short- and long-time bounds.

    For each time and each window growth delta, the evolved initial
    window [0, lambda0] is tested against the matching escape window:
    per truncatable mode for mode='per_mode' (the bare bounds), or the
    all-mode window for mode='all' (bounds carry the union factor
    sqrt(number of truncatable modes)).  The long-time rows of each time
    are those of one `Leakage` table up to the largest delta.  One
    `WindowSweep.top_singular` call evolves each stack of sectors once,
    for every time at once, and folds each member sector's top singular
    value outside every distinct (time, escape window) pair below the
    cutoff into its running maximum before the next stack is evolved; a
    time whose windows all reach the cutoff is not evolved.  The call
    makes one sweep for all its times, so every report it returns
    carries the whole call's elapsed time as runtime_s.
    """
    if mode not in ("per_mode", "all"):
        raise ValueError("mode must be 'per_mode' or 'all'")
    t0 = time.perf_counter()
    basis = model.basis
    trunc = basis.truncatable_modes
    union = math.sqrt(len(trunc)) if trunc else 1.0
    nus = trunc if mode == "per_mode" else [None]
    window0 = ProjectorSpec(ALL, 0, int(lambda0))
    sweep = WindowSweep(basis, window0, [model.hamiltonian], model.sector_keys)
    cutoff = model.cutoff
    times = list(times)
    points = []  # per time: (kind, delta, window, bound); short and long may coincide
    for t in times:
        within_validity = within_speed_limit(model.profile, lambda0, t)
        leak = list(Leakage(model.profile, lambda0, t, max(deltas, default=1)).rows())
        points.append([])
        for delta in deltas:
            if within_validity and delta >= 1:
                bnd = short_time_bound(model.profile, lambda0, delta, t)
                points[-1].append(("state_short", delta, int(lambda0) + int(delta) - 1, bnd))
            if delta >= 2:
                lam, bound, _ = leak[delta - 2]
                points[-1].append(("state_long", delta, lam, bound))

    keeps = [
        {
            (lam, nu): window_mask(basis, ProjectorSpec(ALL if nu is None else nu, 0, lam))
            for _, _, lam, _ in pts
            if lam < cutoff
            for nu in nus
        }
        for pts in points
    ]
    tops = sweep.top_singular(
        lambda ops, e, ts: ops[0].apply_times(e, ts, tol),
        times,
        [list(k.values()) for k in keeps],
    )

    rows = []
    for t, pts, keep, top in zip(times, points, keeps, tops):
        empirical = dict(zip(keep, top))
        for kind, delta, lam, bound in pts:
            for nu in nus:
                notes = "exact column sweep"
                if lam >= cutoff:
                    notes += "; window exceeds proxy cutoff, empirical trivially 0"
                inputs = {
                    "model": model.label,
                    "lambda0": int(lambda0),
                    "t": float(t),
                    "delta": int(delta),
                    "window": int(lam),
                    "mode": "all" if nu is None else int(nu),
                }
                analytic = min(1.0, union * bound) if nu is None else bound
                leak = empirical.get((lam, nu), 0.0)
                rows.append((kind, inputs, leak, analytic, notes))
    runtime = time.perf_counter() - t0
    return [
        _report(kind, inputs, leak, analytic, tol, runtime, notes)
        for kind, inputs, leak, analytic, notes in rows
    ]


# ---------------------------------------------------------------------------
# Hamiltonian-truncation soundness
# ---------------------------------------------------------------------------

def verify_hamiltonian_truncations(
    model_factory: Callable[[int], ModelInstance],
    n_max: int,
    lambda0: int,
    lambda_tildes: Sequence[int],
    t: float,
    tol: float = TOL,
    check_padding: bool = False,
) -> list[ExperimentReport]:
    """Evolution differences under Hamiltonian truncation versus their bounds.

    One report per lambda_tilde, in order.  The factory builds the model
    at a requested cutoff, once per cutoff; each truncated Hamiltonian
    Pi H Pi lives on the same padded space, so the evolutions subtract
    directly.  Per cutoff, one `WindowSweep` on [H, *every Pi H Pi]
    prepares and restricts each operator once, and each block of window
    columns is evolved under H once per output batch and every truncated
    evolution subtracted from it.  With check_padding the empirical
    values are recomputed at double the cutoff and each shift goes in its
    notes.  The analytic side reads one `Leakage` table for every
    lambda_tilde (`hamiltonian_truncation_bounds`).  Every lambda_tilde
    is checked against lambda0 + 2 before any model is built, and
    against each cutoff's padding (cutoff >= lambda_tilde + 2) before
    anything is propagated; either raises ValueError.  The call makes
    one sweep per cutoff for all its lambda-tildes, so every report it
    returns carries the whole call's elapsed time as runtime_s.
    """
    t0 = time.perf_counter()
    lambda_tildes = [int(lam) for lam in lambda_tildes]
    for lam in lambda_tildes:
        check_truncation_window(int(lambda0), lam)
    if not lambda_tildes:
        return []
    window0 = ProjectorSpec(ALL, 0, int(lambda0))

    def empirical_at(model: ModelInstance) -> list[float]:
        if model.cutoff < max(lambda_tildes) + 2:
            raise ValueError(
                f"padding insufficient: cutoff {model.cutoff} < lambda_tilde + 2"
            )
        basis, h = model.basis, model.hamiltonian
        truncated = []
        for lam in lambda_tildes:
            pi = projector(basis, ProjectorSpec(ALL, 0, lam))
            truncated.append((pi @ h @ pi).tocsr())
        # Pi is diagonal, so every Pi H Pi keeps the sector keys
        sweep = WindowSweep(basis, window0, [h, *truncated], model.sector_keys)

        def differences(ops, e, picks):
            full = ops[0].apply(e, t, tol)
            out = np.empty((len(picks),) + e.shape, dtype=complex)
            for o, i in zip(out, picks):
                np.subtract(full, ops[1 + i].apply(e, t, tol), out=o)
            return out

        keep_none = np.zeros(basis.dimension, dtype=bool)
        tops = sweep.top_singular(
            differences, range(len(lambda_tildes)), [[keep_none]] * len(lambda_tildes)
        )
        return [top for (top,) in tops]

    model = model_factory(n_max)
    empirical = empirical_at(model)
    analytic = hamiltonian_truncation_bounds(
        Leakage(model.profile, int(lambda0), float(t)),
        lambda_tildes,
        len(model.basis.truncatable_modes),
        model.comm_norm,
    )
    notes = ["exact column sweep"] * len(lambda_tildes)
    if check_padding:
        shifted = empirical_at(model_factory(2 * n_max))
        notes = [
            f"{note}; padding doubling shifts empirical by {abs(s - e):.3e}"
            for note, s, e in zip(notes, shifted, empirical)
        ]
    runtime = time.perf_counter() - t0
    return [
        _report(
            "hamiltonian_truncation",
            {
                "model": model.label,
                "n_max": int(n_max),
                "lambda0": int(lambda0),
                "lambda_tilde": lam,
                "t": float(t),
            },
            emp,
            bound,
            tol,
            runtime,
            note,
        )
        for lam, emp, bound, note in zip(lambda_tildes, empirical, analytic, notes)
    ]


def verify_hamiltonian_truncation(
    model_factory: Callable[[int], ModelInstance],
    n_max: int,
    lambda0: int,
    lambda_tilde: int,
    t: float,
    tol: float = TOL,
    check_padding: bool = False,
) -> ExperimentReport:
    """Evolution difference under Hamiltonian truncation versus its bound.

    The one-lambda_tilde case of `verify_hamiltonian_truncations`.
    """
    (report,) = verify_hamiltonian_truncations(
        model_factory, n_max, lambda0, [lambda_tilde], t, tol, check_padding
    )
    return report


# ---------------------------------------------------------------------------
# eigenstate tail soundness
# ---------------------------------------------------------------------------

def _ground_state_checked(model: ModelInstance):
    vals, vecs = lowest_eigenpairs(model.hamiltonian, k=2)
    gap = float(vals[1] - vals[0])
    if gap <= 1e-8:
        raise ValueError(
            f"ground space nearly degenerate: E1 - E0 = {gap:.3e} <= 1e-8"
        )
    psi = vecs[:, 0]
    return psi / np.linalg.norm(psi), gap


def verify_tail(
    model: ModelInstance,
    epsilons: Sequence[float],
    tol: float = TOL,
) -> list[ExperimentReport]:
    """Ground-state quantum-number tails at the certified windows.

    Computes the gapped ground state, its mean quantum number lambda_bar
    (the largest per-mode mean), and for each epsilon the tail weight
    outside the tail_threshold window, which must come in below epsilon.
    The ground state serves every epsilon, so every report carries the
    whole call's elapsed time as runtime_s.
    """
    t0 = time.perf_counter()
    psi, gap = _ground_state_checked(model)
    basis = model.basis
    trunc = basis.truncatable_modes
    weights = np.abs(psi) ** 2
    lambda_bar = max(
        (float(basis.mode_qn(nu) @ weights) for nu in trunc), default=0.0
    )
    rows = []
    for eps in epsilons:
        rep = tail_threshold(model.profile, TailQuery(lambda_bar, gap, float(eps)))
        mask = window_mask(basis, ProjectorSpec(ALL, 0, rep.lambda_))
        empirical = float(np.linalg.norm(psi[~mask]))
        notes = (
            f"lambda_bar={lambda_bar:.6g}, gap={gap:.6g}, "
            f"delta_used={rep.delta_used}, certified bound={rep.bound:.3e}"
        )
        if rep.lambda_ >= model.cutoff:
            notes += "; window exceeds proxy cutoff, empirical trivially 0"
        inputs = {
            "model": model.label,
            "epsilon": float(eps),
            "window": int(rep.lambda_),
        }
        rows.append((inputs, empirical, float(eps), notes))
    runtime = time.perf_counter() - t0
    return [
        _report("tail", inputs, empirical, analytic, tol, runtime, notes)
        for inputs, empirical, analytic, notes in rows
    ]


def tail_profile(model: ModelInstance, lambda_grid: Sequence[int]) -> list[tuple[int, float]]:
    """Empirical ground-state tail weight outside [0, lam] per grid window."""
    psi, _ = _ground_state_checked(model)
    basis = model.basis
    out = []
    for lam in lambda_grid:
        mask = window_mask(basis, ProjectorSpec(ALL, 0, int(lam)))
        out.append((int(lam), float(np.linalg.norm(psi[~mask]))))
    return out


#: Tail weights at or below this noise floor are left out of the decay fit.
TAIL_FLOOR = 1e-13


def tail_decay_slope(profile_points: Sequence[tuple[int, float]]) -> float:
    """Regression slope of log tail against sqrt(window) above TAIL_FLOOR."""
    xs = [math.sqrt(lam) for lam, tail in profile_points if tail > TAIL_FLOOR]
    ys = [math.log(tail) for _, tail in profile_points if tail > TAIL_FLOOR]
    if len(xs) < 2:
        raise ValueError("not enough tail points above the noise floor")
    return float(np.polyfit(xs, ys, 1)[0])


# ---------------------------------------------------------------------------
# coherent-state oracle
# ---------------------------------------------------------------------------

def coherent_oracle_check(
    t_grid: Sequence[float] = (0.5, 1.0, 2.0, 3.0),
    tol: float = 1e-12,
) -> ExperimentReport:
    """Occupation statistics of the driven vacuum against the closed form.

    Evolving H = b + b^dag from the vacuum for time T yields occupation
    probabilities Poisson(T^2).  The report's empirical value is the
    worst pointwise pmf deviation over the grid (target 1e-8); the worst
    mean deviation from T^2 (target 1e-6) rides in the notes and both
    must hold for the report to be sound.  Its default tolerance is
    tighter than `TOL`, the one every other check defaults to.
    """
    if not all(math.isfinite(t) for t in t_grid):
        raise ValueError(f"oracle times must be finite: {list(t_grid)}")
    t0 = time.perf_counter()
    worst_pmf = 0.0
    worst_mean = 0.0
    for t in t_grid:
        n_max = int(math.ceil(4.0 * t * t + 40.0))
        model = single_mode(1.0, 0.0, n_max)
        psi0 = np.zeros(model.dimension, dtype=complex)
        psi0[0] = 1.0
        psi = evolve(model.hamiltonian, psi0, float(t), tol)
        probs = np.abs(psi) ** 2
        n = np.arange(model.dimension)
        lam = float(t) * float(t)
        if lam == 0.0:
            pois = np.zeros_like(probs)
            pois[0] = 1.0
        else:
            log_fact = np.vectorize(math.lgamma, otypes=[float])(n + 1.0)
            pois = np.exp(-lam + n * math.log(lam) - log_fact)
        worst_pmf = max(worst_pmf, float(np.abs(probs - pois).max()))
        worst_mean = max(worst_mean, abs(float(n @ probs) - lam))
    inputs = {"t_grid": [float(t) for t in t_grid]}
    notes = f"worst mean deviation {worst_mean:.3e} (target 1e-6)"
    runtime = time.perf_counter() - t0
    rep = _report("coherent_oracle", inputs, worst_pmf, 1e-8, tol, runtime, notes)
    if worst_mean > 1e-6:
        rep = replace(rep, sound=False)
    return rep
