"""Product-formula step budgets from nested-commutator bounds.

The pipeline: coefficient summaries of a model (row maxima and totals of
hopping, density-density, boson-coupling, and frequency weights) produce
per-slot budgets A^(q) and B on a safe window Lambda1'; their product
upper-bounds the sum of nested-commutator norms (beta); beta sets both
the step count R for a target accuracy and a certified per-step error
bound C_p * beta * tau^(p+1).  The empirical runner measures the actual
splitting error on window states and checks it against that bound.

Window bookkeeping: each operator slot moves a mode's quantum number by
at most 2, so states started below Lambda0' stay below
Lambda1' = Lambda0' + 2(p+1) through the p+1 nested commutators, and the
model cutoff must leave the same headroom above Lambda1' again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .fock_algebra import ALL, ProjectorSpec
from .models import ModelInstance
from .propagate import TOL, window_sweep

__all__ = [
    "CoefficientSummaries",
    "CommutatorBudget",
    "TrotterPoint",
    "safe_window",
    "summaries_single_mode",
    "summaries_hubbard_holstein",
    "ab_quantities",
    "beta_comm",
    "trotter_steps",
    "per_step_error_bound",
    "apply_product_formula",
    "empirical_trotter_error",
    "error_scaling_slope",
]

#: Certified per-step constants of the tight product-formula error theory.
STEP_CONSTANTS = {1: 0.5, 2: 0.125}


@dataclass(frozen=True)
class CoefficientSummaries:
    """Nonnegative coefficient summaries feeding the budget formulas.

    hop: single-particle |t_ij| (diagonal chemical-potential entries
    included); den: density-density |V|; g: position-type boson couplings
    (col = max over modes of the summed fermion weight, mode = max
    per-mode weight, total = grand sum); omega: frequencies.
    """

    hop_row_max: float = 0.0
    hop_total: float = 0.0
    den_row_max: float = 0.0
    den_total: float = 0.0
    g_col_max: float = 0.0
    g_mode_max: float = 0.0
    g_total: float = 0.0
    omega_max: float = 0.0
    omega_total: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise ValueError(f"summary {f.name} must be >= 0")


@dataclass(frozen=True)
class CommutatorBudget:
    """Per-slot budgets A^(q) (q = 1..p) and B on the safe window."""

    p: int
    a_values: tuple[tuple[float, ...], ...]
    b_values: tuple[float, ...]
    lambda1_prime: int
    lambda_tilde: int

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("p must be >= 1")
        if len(self.a_values) != self.p or any(len(a) != 5 for a in self.a_values):
            raise ValueError("a_values must hold p rows of 5 entries")
        if len(self.b_values) != 5:
            raise ValueError("b_values must hold 5 entries")
        flat = [x for row in self.a_values for x in row] + list(self.b_values)
        if any(x < 0 for x in flat):
            raise ValueError("budget entries must be >= 0")
        if self.lambda_tilde < self.lambda1_prime + 2 * (self.p + 1):
            raise ValueError(
                f"window guard violated: cutoff {self.lambda_tilde} < "
                f"{self.lambda1_prime} + 2(p+1) = "
                f"{self.lambda1_prime + 2 * (self.p + 1)}"
            )


@dataclass(frozen=True)
class TrotterPoint:
    tau: float
    error: float
    bound: float


def safe_window(lambda0_prime: int, p: int) -> int:
    """Window cap reached by p+1 nested applications from below lambda0'."""
    return int(lambda0_prime) + 2 * (p + 1)


# ---------------------------------------------------------------------------
# model coefficient summaries
# ---------------------------------------------------------------------------

def summaries_single_mode(g_lin: float, omega0: float) -> CoefficientSummaries:
    """Drive g (b + b^dag) = sqrt(2) g X mapped into the position-coupling slot."""
    gw = math.sqrt(2.0) * abs(g_lin)
    return CoefficientSummaries(
        g_col_max=gw,
        g_mode_max=gw,
        g_total=gw,
        omega_max=abs(omega0),
        omega_total=abs(omega0),
    )


def summaries_hubbard_holstein(
    n_sites: int,
    hop: float = 1.0,
    u: float = 0.0,
    mu: float = 0.0,
    g: float = 0.5,
    omega0: float = 1.0,
) -> CoefficientSummaries:
    """Summaries for the 1D open chain.

    The on-site -(mu + u/2) density weight rides in the hopping slots;
    the coupling g (b + b^dag)(n_up + n_dn - 1) contributes per site a
    position weight sqrt(2) g to each of the two density factors plus the
    constant shift, folded in as a third unit-weight factor.
    """
    if n_sites < 1:
        raise ValueError("n_sites must be >= 1")
    neighbors = 2 if n_sites >= 3 else (1 if n_sites == 2 else 0)
    onsite = abs(mu + 0.5 * u)
    gw = math.sqrt(2.0) * abs(g)
    return CoefficientSummaries(
        hop_row_max=neighbors * abs(hop) + onsite,
        hop_total=2.0 * (2.0 * (n_sites - 1) * abs(hop) + n_sites * onsite),
        den_row_max=abs(u),
        den_total=n_sites * abs(u),
        g_col_max=3.0 * gw,
        g_mode_max=3.0 * gw,
        g_total=3.0 * gw * n_sites,
        omega_max=abs(omega0),
        omega_total=n_sites * abs(omega0),
    )


# ---------------------------------------------------------------------------
# budgets and step counts
# ---------------------------------------------------------------------------

def ab_quantities(
    summaries: CoefficientSummaries, lambda1_prime: int, p: int, lambda_tilde: int
) -> CommutatorBudget:
    """Evaluate the five A-slot and five B-slot budgets on the safe window."""
    if lambda1_prime < 0:
        raise ValueError("lambda1_prime must be >= 0")
    w = math.sqrt(2.0 * (lambda1_prime + 1.0))
    s = summaries
    a_values = []
    for q in range(1, p + 1):
        a_values.append(
            (
                2.0 * q * s.hop_row_max,
                4.0 * q * s.den_row_max,
                2.0 * q * s.g_col_max * w + q * s.g_mode_max / w,
                q * s.omega_max,
                q * s.omega_max,
            )
        )
    b_values = (
        s.hop_total,
        s.den_total,
        s.g_total * w,
        s.omega_total * (lambda1_prime + 1.0),
        s.omega_total * (lambda1_prime + 1.0),
    )
    return CommutatorBudget(
        p=p,
        a_values=tuple(a_values),
        b_values=b_values,
        lambda1_prime=int(lambda1_prime),
        lambda_tilde=int(lambda_tilde),
    )


def beta_comm(budget: CommutatorBudget) -> float:
    """Product closure of the per-string bound: prod_q (sum A^(q)) * (sum B)."""
    out = float(sum(budget.b_values))
    for row in budget.a_values:
        out *= sum(row)
    return out


def trotter_steps(total_time: float, epsilon: float, p: int, beta: float) -> int:
    """Step count R = ceil(T^(1+1/p) * beta^(1/p) / epsilon^(1/p)).

    A planning estimate, never a certificate: it leaves out the
    order-dependent constant of the error theory.  The certified error
    of a step is `per_step_error_bound`; the empirical order-scaling
    checks are the accuracy contract.
    """
    if total_time <= 0:
        raise ValueError("total_time must be > 0")
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must lie in (0, 1]")
    if beta < 0:
        raise ValueError("beta must be >= 0")
    raw = total_time ** (1.0 + 1.0 / p) * (beta / epsilon) ** (1.0 / p)
    return max(1, math.ceil(raw))


def _check_covered(p: int):
    if p not in STEP_CONSTANTS:
        raise ValueError("certified per-step constants cover p in {1, 2}")


def per_step_error_bound(p: int, beta: float, tau: float) -> float:
    _check_covered(p)
    return STEP_CONSTANTS[p] * beta * abs(tau) ** (p + 1)


# ---------------------------------------------------------------------------
# product formulas and the empirical check
# ---------------------------------------------------------------------------

def apply_product_formula(parts, psi, tau, p, tol=TOL):
    """One product-formula step of order p applied to psi.

    psi is one vector or a (dim, k) block of columns; the parts are
    prepared `ChebyshevPropagator`s, so repeated steps share their setup,
    and every exponential is one `apply` at tolerance tol.  p = 1 is the Lie
    splitting and p = 2 the symmetric Strang splitting, the orders the
    certified per-step constants cover.
    """
    if p == 1:
        for part in parts:
            psi = part.apply(psi, tau, tol)
        return psi
    if p == 2:
        for part in parts[:-1]:
            psi = part.apply(psi, tau / 2.0, tol)
        psi = parts[-1].apply(psi, tau, tol)
        for part in reversed(parts[:-1]):
            psi = part.apply(psi, tau / 2.0, tol)
        return psi
    raise ValueError("order p must be 1 or 2")


def empirical_trotter_error(
    model: ModelInstance,
    p: int,
    tau_grid,
    lambda0_prime: int,
    budget: CommutatorBudget | None = None,
    tol: float = TOL,
) -> list[TrotterPoint]:
    """Measured splitting error per step size against the budget bound.

    Error is the top singular value of (S(tau) - exp(-i tau H)) restricted
    to the initial window [0, lambda0'] (every window basis state is a
    column; the window must be small enough for that to be exact).  H and
    every part conserve the model's sector keys, so that block is
    block-diagonal and its top singular value is the largest over the
    sectors that meet the window.  One `window_sweep` takes each stack of
    sectors (equal window counts, one sweep block) through both sides for
    every step size in one sweep: the exact side exp(-i tau H) runs one
    Chebyshev recurrence for all step sizes, the product formula runs per
    step size, and each member sector's difference is reduced to its top
    singular value before the next stack is swept.  Each part and H is
    prepared once per stack, on the stack's principal submatrix, for
    every step size and block, and every stack before the first is
    swept.

    Before anything is prepared, ValueError refuses an order p that the
    certified constants do not cover, and a budget built for another
    check: one of another order, whose safe window is not
    `safe_window(lambda0', p)`, or whose cutoff lambda_tilde exceeds the
    model's.
    """
    _check_covered(p)
    taus = list(tau_grid)
    if budget is None:
        bounds = [float("nan")] * len(taus)
    else:
        if budget.p != p:
            raise ValueError(f"the budget is for p = {budget.p}, not p = {p}")
        lambda1 = safe_window(lambda0_prime, p)
        if budget.lambda1_prime != lambda1:
            raise ValueError(
                f"the budget's safe window {budget.lambda1_prime} is not "
                f"safe_window({lambda0_prime}, {p}) = {lambda1}"
            )
        if budget.lambda_tilde > model.cutoff:
            raise ValueError(
                f"the budget's cutoff {budget.lambda_tilde} exceeds "
                f"the model cutoff {model.cutoff}"
            )
        beta = beta_comm(budget)
        bounds = [per_step_error_bound(p, beta, tau) for tau in taus]
    window0 = ProjectorSpec(ALL, 0, int(lambda0_prime))
    ops = [*model.parts.values(), model.hamiltonian]

    def split_errors(ops_s, e, taus_b):
        errors = ops_s[-1].apply_times(e, taus_b, tol)  # one recurrence for every tau
        for err, tau in zip(errors, taus_b):
            split = apply_product_formula(ops_s[:-1], e, tau, p, tol)
            np.subtract(split, err, out=err)
        return errors

    keep_none = np.zeros(model.dimension, dtype=bool)
    tops = window_sweep(
        model.basis, window0, ops, model.sector_keys, split_errors, taus, [[keep_none]] * len(taus)
    )
    return [
        TrotterPoint(tau=float(tau), error=error, bound=bound)
        for tau, (error,), bound in zip(taus, tops, bounds)
    ]


#: Errors at or below this noise floor are left out of the scaling fit.
ERROR_FLOOR = 1e-12


def error_scaling_slope(points) -> float:
    """Slope of log error against log tau over points above ERROR_FLOOR."""
    taus = [pt.tau for pt in points if pt.error > ERROR_FLOOR]
    errs = [pt.error for pt in points if pt.error > ERROR_FLOOR]
    if len(taus) < 2:
        raise ValueError("not enough points above the noise floor")
    slope = np.polyfit(np.log(taus), np.log(errs), 1)[0]
    return float(slope)
