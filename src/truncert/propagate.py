"""Sparse numerical engines: block Chebyshev evolution, eigenpairs, norms.

Every sparse time evolution goes through `ChebyshevPropagator`: a
Chebyshev expansion of exp(-i t h) applied as sparse x dense-block
products, with the term count fixed in advance by a rigorous Bessel-tail
bound, so one 2-norm error bound covers the whole block.  The Bessel
coefficients J_k(r t) come from Miller's normalised backward recurrence
in plain Python (`_bessel_j`), whose errors over all orders sum to at
most 2^-50 (1 + r |t|); that error joins the bound, and no command
imports `scipy.special`.  Building one does the per-operator setup
(Hermiticity check, diagonal test, Gershgorin interval) once, on a
private copy of the matrix it evolves, so the caller's matrix is never
reordered; the scaled operator, scipy's (h - I c) * (2 / r), is built on
the first `apply` that takes two or more terms.  Its `apply` then
serves every block and time, so callers that evolve one operator
repeatedly prepare it once.  Every model's operators are float64 from
assembly on, and a real operator runs in float64: the copy, the scaled
operator and, for a real block (the identity window columns of a sweep),
the whole recurrence; any complex block, a single column included,
multiplies as a real block of twice the width.  The values equal those
of complex arithmetic exactly.
`evolve` is the one-shot form, for a vector or a block.  The vectors
T_k(h_s) block of the recurrence do not depend on t, so `apply_times`
runs one recurrence, to the largest term count, for every time of a
check; `apply` is its one-time case.  Every propagation takes its
tolerance as a plain float, `TOL` by default.
Every exact check (state leakage, the Hamiltonian-truncation
difference, the product-formula error) measures a top singular value of
window columns (every basis state of an initial window), and every one
goes through one reducer, `WindowSweep`.  Given one conserved integer key
per basis state, it splits the window into sectors (the states sharing a
key; `COLUMN_CAP` bounds the largest sector's window columns), groups
sectors with equal window counts into `Stack`s that fit one sweep block,
and prepares one propagator per operator and stack, of the stack's
principal submatrix (scipy's h[rows][:, rows]; a union of conserved
sectors is closed under every operator), or of the operator itself when
the stack is the whole space in order.  No key is one sector, the whole
space.  Column j of a stack's identity block holds window state j of
every member, and the stack's operator is block-diagonal over its
members, so one block call evolves every member's columns.  Its
`top_singular` then sweeps one stack's columns at a time, for every
output of the check at once (a time, a step size or a truncated
operator; in batches that keep the outputs held within `COLUMN_CAP`), a
bounded block at a time (a stack that fits one block holds its columns
once: the block call's output is the column array), and
`masked_top_singular` reduces each member sector's columns outside each
escape mask, M, to its Gram matrix M^H M and reads the largest
eigenvalue of batches of them with `numpy.linalg.eigvalsh`, adding a
derived bound on the rounding of both so that each value bounds the
computed block's top singular value from above; the stack is freed
before the next one, and each value is the largest over the sectors.
`DensePropagator` (one dense eigendecomposition) is the exact oracle the
tests compare it against, and LAPACK's SVD the tests' reference for the
reducer.
The randomized engines (`lowest_eigenpairs`, `op_norm`) draw from fixed
seeds: same inputs, same outputs.  `lowest_eigenpairs` solves a real H
as a real symmetric problem: one dense `numpy.linalg.eigh` up to
dimension 400, a thick-restart Lanczos in numpy above it, with a locked
second run that finds the other copy of a doubled level.  Every dense
eigendecomposition is numpy's, so no command loads scipy's dense or
ARPACK solvers.

Engine accuracy targets sit well below the bound tolerances probed by
the verification experiments (default budget `TOL` = 1e-10 against
bounds read at 1e-6 and coarser).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .bounds import ConvergenceError, ResourceLimitError
from .fock_algebra import (
    CompositeBasis,
    ProjectorSpec,
    hermiticity_defect,
    window_mask,
)

__all__ = [
    "TOL",
    "COLUMN_CAP",
    "evolve",
    "ChebyshevPropagator",
    "Stack",
    "DensePropagator",
    "lowest_eigenpairs",
    "ground_state",
    "op_norm",
    "masked_top_singular",
    "WindowSweep",
    "leakage_norm",
]

#: Largest window-column block of one sector, dim_s * n0_s entries (256 MiB
#: of complex128); a WindowSweep raises ResourceLimitError past it.
COLUMN_CAP = 1 << 24

#: Most Chebyshev terms one evolution may take; a longer expansion (the
#: Gershgorin half-width times |t| past about this many) raises
#: ResourceLimitError.
_TERM_CAP = 1 << 20

#: Largest dim * columns that `WindowSweep.top_singular` hands to one block
#: call; it bounds the block propagator's working set (a few such blocks),
#: and the entries of one batch of Gram matrices (at least one matrix) and
#: of one gathered row chunk (at least n0^2 / 8) in `masked_top_singular`.
_BLOCK_ENTRIES = 1 << 15

_HERM_TOL = 1e-10

#: Default propagation tolerance: the 2-norm bound on one evolution's
#: truncation error relative to the norm of the evolved block (its
#: Bessel coefficients add at most as much again; see `apply_times`).
TOL = 1e-10


# ---------------------------------------------------------------------------
# block Chebyshev evolution
# ---------------------------------------------------------------------------

def _owned_csr(h: sp.spmatrix) -> sp.csr_matrix:
    """A private canonical CSR copy of h, in h's dtype.

    scipy sorts a CSR matrix's entries in place on its first reduction
    (abs, a product), so the engines work on a copy that owns its data,
    indices and indptr and never reorder the caller's matrix.
    """
    h = sp.csr_matrix(h)  # shares h's arrays when h is CSR already
    h = sp.csr_matrix((h.data.copy(), h.indices.copy(), h.indptr.copy()), shape=h.shape)
    h.sum_duplicates()
    return h


#: Share of tol left to the power-series remainder past M in
#: `_chebyshev_bessel`; the exact Bessel terms below M get the rest.
_REMAINDER_SHARE = 1.0 / 1024.0

#: Log margin by which `_chebyshev_bessel`'s closed-form stopping test at
#: _TERM_CAP must fail before it rejects |x| without the term search; it
#: covers the rounding of the search's running log a_{M+1} many times over.
_CAP_MARGIN = 1.0

#: Stated error of `_bessel_j`: its values J_0(x) .. J_m(x) err by at
#: most _BESSEL_ERR (1 + |x|) summed over the orders.
_BESSEL_ERR = 2.0**-50

#: Log of the per-order truncation error `_bessel_j`'s start index allows.
_LOG_MILLER_TRUNCATION = -60.0 * math.log(2.0)

#: `_bessel_j` scales its running values down by this power of two, so
#: exactly, once one grows past it.
_RESCALE = 2.0**600


def _bessel_j(x: float, m: int) -> np.ndarray:
    """J_0(x) .. J_m(x), for x / 2 != 0, by Miller's normalised backward recurrence.

    The recurrence p_{k-1} = (2k / |x|) p_k - p_{k+1} runs down from
    p_{N+1} = 0, p_N = 1 (W. Gautschi, SIAM Rev. 9, 24 (1967);
    Abramowitz & Stegun 9.12), each 2k / |x| one correctly rounded
    quotient, and the p_k are normalised by J_0 + 2 (J_2 + J_4 + ...) = 1.
    A value past _RESCALE scales every running value down by _RESCALE,
    exactly.  J_k(-x) = (-1)^k J_k(x) gives negative x.

    Start index: N >= m is the first with |x| < N + 2 and
    (2N + 8) a_{N+1} <= 2^-60, where a_k = (|x|/2)^k / k! >= |J_k(x)|.
    In exact arithmetic the recurrence gives J_k - rho Y_k up to a common
    factor, rho = J_{N+1} / Y_{N+1}; |Y_k| <= |Y_{N+1}| up to a factor
    1 + rho^2 (J_k^2 + Y_k^2 grows with k, by Nicholson's formula), and
    the normalisation sum stops at N, so each normalised value is within
    2^-59 of J_k(x).  At small |x| that N is a few orders past m.

    Rounding, measured against 40-digit arithmetic for |x| from 1e-8 to
    3e5: each value errs by at most 2^-48, and the errors of all orders
    sum to at most _BESSEL_ERR (1 + |x|) = 2^-50 (1 + |x|).  The largest
    seen were 5.8 and 1.7 (1 + |x|) units of 2^-53.  Each step below |x|
    adds a rounding error that the recurrence carries on neither damped
    nor much amplified, so the summed error grows with |x|; the errors
    add more like a random walk than in phase.
    """
    ax = abs(x)
    log_y = math.log(ax / 2.0)
    n = m
    log_a = (n + 1) * log_y - math.lgamma(n + 2)  # log a_{n+1}
    while ax >= n + 2 or log_a + math.log(2 * n + 8) > _LOG_MILLER_TRUNCATION:
        n += 1
        log_a += log_y - math.log(n + 1)
    big, small = _RESCALE, 1.0 / _RESCALE
    p_next, p = 0.0, 1.0  # p_{k+1}, p_k
    evens = 0.0  # sum of p_j over the even j > k
    kept = []  # p_m, p_{m-1}, ..., p_{k+1}
    cuts = []  # len(kept) at each rescale
    for k in range(n, 0, -1):
        if k <= m:
            kept.append(p)
        if not k & 1:
            evens += p
        p_next, p = p, (k + k) / ax * p - p_next
        if p > big or p < -big:
            p_next, p, evens = p_next * small, p * small, evens * small
            cuts.append(len(kept))
    kept.append(p)
    out = np.array(kept[::-1])
    for cut in cuts:
        out[m + 1 - cut :] *= small
    out /= p + 2.0 * evens
    if x < 0:
        out[1::2] *= -1.0
    return out


def _past_term_cap(x: float, tol: float) -> bool:
    """Whether `_chebyshev_bessel`'s term search at (x, tol) must pass _TERM_CAP.

    Its M >= |x| - 2 (q < 1/2 needs it).  Where q < 1/2 both a_{M+1} and
    1/(1 - q) shrink as M grows, so the stopping test fails at every M once
    it fails at M = _TERM_CAP: here in closed form (lgamma), by a margin of
    _CAP_MARGIN in the log for the rounding of the search's running sum.
    """
    y = abs(x) / 2.0
    if y == 0.0:
        return False
    if 2.0 * y > _TERM_CAP:
        return True
    q = y / (_TERM_CAP + 2)
    log_a_cap = (_TERM_CAP + 1) * math.log(y) - math.lgamma(_TERM_CAP + 2)
    return log_a_cap - math.log1p(-q) > math.log(tol * _REMAINDER_SHARE / 2.0) + _CAP_MARGIN


def _chebyshev_bessel(x: float, tol: float) -> np.ndarray:
    """J_0(x) .. J_K(x) for the smallest K whose bound on sum_{k>K} 2|J_k(x)| is at most tol.

    Each |J_k(x)| is bounded by a_k = (|x|/2)^k / k!.  Past M + 1 the a_k
    shrink at least by q = (|x|/2) / (M + 2) per step, so the tail past M
    is at most 2 a_{M+1} / (1 - q).  M is the first index with q < 1/2
    at which that remainder is below tol * _REMAINDER_SHARE (logs keep
    large |x| finite).  The terms K + 1 .. M are 2|J_k(x)| of the values
    `_bessel_j` computes, so the bound on the tail past K is their sum
    plus the remainder.  An M past _TERM_CAP raises ResourceLimitError
    before any Bessel value is computed, and an |x| that `_past_term_cap`
    marks raises it without the search.

    Coefficient error: the errors of `_bessel_j`'s values J~_k sum to at
    most _BESSEL_ERR (1 + |x|) over orders 0 .. M.  With c_k =
    (2 - [k = 0]) (-i)^k J_k(x), the sum over k <= K of c~_k T_k differs
    from exp(-i x y) on [-1, 1] by at most sum_{k<=K} |c~_k - c_k| plus
    the exact tail sum_{k>K} |c_k|, and both together are at most the
    computed tail bound plus 2 sum_{k<=M} |J~_k - J_k|: at most
    tol + 2 _BESSEL_ERR (1 + |x|) (`_coefficient_error`).
    """
    y = abs(x) / 2.0
    if y == 0.0:
        return np.ones(1)
    if _past_term_cap(x, tol):
        m = _TERM_CAP + 1  # no search
    else:
        m, log_y = 0, math.log(y)
        log_rest = math.log(tol * _REMAINDER_SHARE / 2.0)
        log_a = log_y  # log a_{M+1} at M = 0
    while m <= _TERM_CAP:
        q = y / (m + 2)
        if q < 0.5 and log_a - math.log1p(-q) <= log_rest:
            break
        m += 1
        log_a += log_y - math.log(m + 1)
    else:
        raise ResourceLimitError(
            f"an evolution of half-width times time {abs(x):.3g} at tol {tol:g} "
            f"takes more than {_TERM_CAP} Chebyshev terms"
        )
    bessel = _bessel_j(x, m)
    # tails[K] bounds sum_{k>K} 2|J_k(x)| for K = 0 .. M; nonincreasing in K
    terms = 2.0 * np.abs(bessel[:0:-1])
    tails = np.append(np.cumsum(terms)[::-1], 0.0) + 2.0 * math.exp(log_a) / (1.0 - q)
    return bessel[: np.count_nonzero(tails > tol) + 1]


def _coefficient_error(x: float) -> float:
    """Bound on sum_k |c~_k - c_k| of `_chebyshev_bessel`'s coefficients at x."""
    return 2.0 * _BESSEL_ERR * (1.0 + abs(x))


def _principal_submatrix(h: sp.csr_matrix, rows: np.ndarray) -> sp.csr_matrix:
    """scipy's h[rows][:, rows], for distinct rows closed under h.

    The column step may drop only stored zeros (ValueError otherwise);
    nonzeros are counted on the data, as scipy's count sorts in place.
    """
    picked = h[rows]
    sub = picked[:, rows]
    if np.count_nonzero(sub.data) != np.count_nonzero(picked.data):
        raise ValueError("rows are coupled to states outside them")
    return sub


class ChebyshevPropagator:
    """exp(-i t h) for one Hermitian h, prepared once and applied many times.

    Building it does the per-operator checks on a private copy of h, in
    h's dtype: the Hermiticity check, the diagonal test (diagonal
    operators take the elementwise exponential) and each row's Gershgorin
    interval, whose hull [c - r, c + r] fixes the expansion.  `apply` then
    evolves any block for any time and tolerance.  Build one per operator
    (a `WindowSweep` builds one per operator and stack) for as long as a
    loop evolves it; nothing is cached beyond the object's life.
    """

    def __init__(self, h: sp.spmatrix):
        h = _owned_csr(h)
        if h.shape[1] != h.shape[0]:
            raise ValueError("dimension mismatch")
        if hermiticity_defect(h) > _HERM_TOL:
            raise ValueError("hamiltonian is not Hermitian")
        self._h = h
        self.shape = h.shape
        rows = np.repeat(np.arange(h.shape[0]), np.diff(h.indptr))
        self._diag = h.diagonal().astype(complex) if np.array_equal(rows, h.indices) else None
        self._centre = self._half = 0.0
        self._two_hs = None
        if self._diag is None:
            d = h.diagonal().real
            radius = np.asarray(abs(h).sum(axis=1)).ravel() - np.abs(d)
            lo, hi = float(np.min(d - radius)), float(np.max(d + radius))
            self._centre, self._half = (hi + lo) / 2.0, (hi - lo) / 2.0

    def _scaled(self) -> sp.csr_matrix:
        """two_hs = 2 (h - c) / r of the recurrence T_{k+1} = two_hs T_k - T_{k-1}.

        Built on the first `apply` whose recurrence takes two or more
        terms (so r > 0), in h's dtype, as scipy's (h - I c) * (2 / r),
        which drops the entries that come out 0.
        """
        if self._two_hs is None:
            h = self._h
            shift = sp.identity(h.shape[0], dtype=h.dtype, format="csr") * self._centre
            self._two_hs = (h - shift) * (2.0 / self._half)
        return self._two_hs

    def apply(self, block: np.ndarray, t: float, tol: float) -> np.ndarray:
        """Apply exp(-i t h) to a (dim, k) block of columns or to a 1-D vector.

        The one-time case of `apply_times`, with the same arithmetic.
        """
        return self.apply_times(block, [t], tol)[0]

    def apply_times(self, block: np.ndarray, times, tol: float) -> np.ndarray:
        """exp(-i t h) block for every t in times, stacked along a new first axis.

        Chebyshev expansion on the Gershgorin interval (Tal-Ezer &
        Kosloff 1984):

            exp(-i t h) = exp(-i t c) sum_k (2 - [k = 0]) (-i)^k J_k(r t) T_k((h - c) / r)

        cut after the fewest terms whose Bessel tail bound meets tol.
        Every ||T_k|| <= 1 on that interval, so the truncation errs by at
        most tol * ||block||_2 for the whole block, and the computed
        coefficients add at most e * ||block||_2, e = 2^-49 (1 + r |t|)
        (`_coefficient_error`).  A time with e > tol raises
        ResourceLimitError before any coefficient is computed, so
        ||error||_2 <= 2 tol ||block||_2.  At the default `TOL` that allows
        r |t| up to about 5.6e4; at r |t| = 200, e = 3.6e-13.  The term
        count depends only on (h, t, tol), so any split of the columns into
        blocks gets the same polynomial.  The vectors T_k block do not
        depend on t, so one recurrence, run to the largest term count,
        serves every time: each accumulates its own coefficients in the
        order a single-time call would, so entry i equals apply(block,
        times[i], tol) exactly.  Returns a complex (len(times),) +
        block.shape array.

        A real h and a real block (by dtype) run the recurrence in
        float64: each coefficient is real for even k and imaginary for
        odd k, so term k adds into one real accumulator per time, of the
        real or of the imaginary part.  A real h takes any complex block as
        a real block of twice the width.  Both give the complex
        recurrence's values exactly (`_chebyshev_blocks`).
        """
        block = np.asarray(block)
        if block.ndim not in (1, 2) or block.shape[0] != self.shape[0]:
            raise ValueError("dimension mismatch")
        if tol <= 0:
            raise ValueError("tol must be > 0")
        if not all(math.isfinite(t) for t in times):
            raise ValueError(f"evolution times must be finite: {list(times)}")
        real = not (np.iscomplexobj(self._h.data) or np.iscomplexobj(block))
        block = np.asarray(block, dtype=float if real else complex)
        out = np.empty((len(times),) + block.shape, dtype=complex)
        series = []  # (output, t, coefficients) of the times the recurrence serves
        for o, t in zip(out, times):
            if t == 0 or block.size == 0:
                o[...] = block
            elif self._diag is not None:
                phase = np.exp(-1j * t * self._diag)
                np.multiply(phase if block.ndim == 1 else phase[:, None], block, out=o)
            else:
                x = self._half * t
                # refused before any coefficient is computed: past the term
                # cap's closed form by `_chebyshev_bessel`, else past accuracy here
                if _coefficient_error(x) > tol and not _past_term_cap(x, tol):
                    raise ResourceLimitError(
                        f"an evolution of half-width times time {abs(x):.3g} at tol "
                        f"{tol:g} is past the accuracy of its Bessel coefficients"
                    )
                bessel = _chebyshev_bessel(x, tol)
                k = np.arange(len(bessel))
                coeffs = 2.0 * np.array([1, -1j, -1, 1j])[k % 4] * bessel
                coeffs[0] /= 2.0
                series.append((o, t, coeffs))
        n_terms = max((len(c) for _, _, c in series), default=1)
        blocks = self._chebyshev_blocks(block, n_terms)
        (_real_series if real else _complex_series)(block, series, blocks)
        for o, t, _ in series:
            o *= np.exp(-1j * t * self._centre)
        return out

    def _chebyshev_blocks(self, block: np.ndarray, n_terms: int):
        """T_1(h_s) block .. T_{n_terms - 1}(h_s) block in turn, h_s = (h - c) / r.

        A complex block, a vector or a (dim, k) block, multiplies a real h
        through its contiguous float64 view as a (dim, 2k) block: the same
        values as the complex product.
        """
        if n_terms < 2:
            return
        two_hs = self._scaled()
        if block.dtype == two_hs.dtype:
            mul = two_hs.__matmul__
        else:
            block = np.ascontiguousarray(block)
            dim, shape = block.shape[0], block.shape

            def mul(x):
                y = two_hs @ x.view(np.float64).reshape(dim, -1)
                return y.view(complex).reshape(shape)

        prev, cur = block, 0.5 * mul(block)
        yield cur
        for _ in range(2, n_terms):
            nxt = mul(cur)
            nxt -= prev
            prev, cur = cur, nxt
            yield cur


def _complex_series(block, series, blocks) -> None:
    """Set each (output, t, coefficients) of series to sum_k c_k T_k block.

    blocks yields T_1 block, T_2 block, ... up to the longest series.
    """
    for o, _, coeffs in series:
        np.multiply(coeffs[0], block, out=o)
    for k, cur in enumerate(blocks, 1):
        for o, _, coeffs in series:
            if k < len(coeffs):
                o += coeffs[k] * cur


def _real_series(block, series, blocks) -> None:
    """`_complex_series` for a real h and block, in float64.

    c_0 and every even c_k are real and every odd c_k is imaginary, so
    the real part of each output sums the even terms and the imaginary
    part the odd ones: each adds straight into the output's real or
    imaginary part, a float64 view, so no scratch copy of the outputs is
    held.
    """
    parts = [(o.real, o.imag) for o, _, _ in series]  # views into each output
    for (_, _, coeffs), (re, im) in zip(series, parts):
        np.multiply(coeffs[0].real, block, out=re)
        im[...] = 0.0
    term = np.empty_like(block)
    for k, cur in enumerate(blocks, 1):
        for (_, _, coeffs), acc in zip(series, parts):
            if k < len(coeffs):
                c = coeffs[k].imag if k % 2 else coeffs[k].real
                target = acc[k % 2]
                target += np.multiply(c, cur, out=term)


def evolve(h: sp.spmatrix, psi0: np.ndarray, t: float, tol: float = TOL) -> np.ndarray:
    """Apply exp(-i t h) to a vector or (dim, k) block psi0 to within 2 tol * ||psi0||_2.

    The one-shot form of `ChebyshevPropagator.apply`: h is a Hermitian
    sparse matrix, prepared for this one call.
    """
    return ChebyshevPropagator(h).apply(psi0, t, tol)


@dataclass(frozen=True, eq=False)
class Stack:
    """Sectors with equal window counts, swept as one block.

    A sector is the set of basis states sharing one sector key.  rows
    concatenates the member sectors' states, each member's ascending, so
    member i holds rows[starts[i]:starts[i + 1]]; window[i, j] is the
    position in rows of member i's window state j.  Column j of the
    stack's identity block is 1 at window[:, j]: window state j of every
    member.  Each member is closed under every conserving operator, so
    the stack's operator is block-diagonal over the members and column j
    evolves each member's window state j apart from the others.
    """

    rows: np.ndarray
    window: np.ndarray
    starts: np.ndarray

    @property
    def entries(self) -> int:
        """Size of the stack's window columns: dim * n0."""
        return len(self.rows) * self.window.shape[1]


def _window_stacks(mask0: np.ndarray, sector_keys: np.ndarray | None) -> list[Stack]:
    """The sectors that meet the window mask0, grouped into stacks.

    sector_keys holds one integer per basis state; None puts every state
    in one sector, the whole space.  Sectors are taken in ascending key
    order.  A sector joins the open stack of its window count while the
    stack's columns stay within _BLOCK_ENTRIES, and opens a new one
    otherwise, so a sector larger than one block is a stack of its own;
    stacks come in the order of their first members.  Raises
    ResourceLimitError when one sector's window columns would exceed
    COLUMN_CAP entries.
    """
    dim = len(mask0)
    keys = np.zeros(dim, dtype=int) if sector_keys is None else np.asarray(sector_keys)
    if keys.shape != (dim,):
        raise ValueError("sector_keys needs one entry per basis state")
    order = np.argsort(keys, kind="stable")
    sectors = []  # (rows, window positions within rows), both ascending
    for rows in np.split(order, np.flatnonzero(np.diff(keys[order])) + 1):
        window = np.flatnonzero(mask0[rows])
        if len(window):
            sectors.append((rows, window))
    largest = max((len(rows) * len(window) for rows, window in sectors), default=0)
    if largest > COLUMN_CAP:
        raise ResourceLimitError(
            f"window columns of one sector hold {largest} entries, over the "
            f"cap of {COLUMN_CAP}"
        )
    groups: list[list] = []
    open_: dict[int, tuple[list, int]] = {}  # window count -> (open stack, its rows)
    for rows, window in sectors:
        n0 = len(window)
        members, size = open_.get(n0, (None, 0))
        if members is None or (size + len(rows)) * n0 > _BLOCK_ENTRIES:
            members, size = [], 0
            groups.append(members)
        members.append((rows, window))
        open_[n0] = members, size + len(rows)
    stacks = []
    for members in groups:
        starts = np.cumsum([0] + [len(rows) for rows, _ in members])
        window = np.stack([w + start for (_, w), start in zip(members, starts)])
        rows = members[0][0]  # a lone sector's own array, not a second copy
        if len(members) > 1:
            rows = np.concatenate([rows for rows, _ in members])
        stacks.append(Stack(rows, window, starts))
    return stacks


class DensePropagator:
    """Exact propagator from one dense eigendecomposition; reusable across t.

    The test oracle for `evolve` and `ChebyshevPropagator`.
    """

    def __init__(self, h: sp.spmatrix):
        self.w, self.v = np.linalg.eigh(sp.csr_matrix(h).toarray())

    def apply(self, psi: np.ndarray, t: float) -> np.ndarray:
        coeff = self.v.conj().T @ np.asarray(psi, dtype=complex)
        return self.v @ (np.exp(-1j * t * self.w) * coeff)


# ---------------------------------------------------------------------------
# eigenpairs
# ---------------------------------------------------------------------------

#: Largest residual ||h v - lambda v|| (relative above |lambda| = 1) that
#: `lowest_eigenpairs` accepts.
EIG_RESIDUAL_TOL = 1e-9


def lowest_eigenpairs(h: sp.spmatrix, k: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """The k smallest eigenvalues (ascending) and their eigenvectors, residual-checked.

    Works on a private copy of h, so h's entries are never reordered; a
    real h is solved as a real symmetric problem (float64 eigenvectors).
    Up to dimension 400 it is one dense `numpy.linalg.eigh`.  Above it, a
    thick-restart Lanczos on h itself (`_thick_restart_lanczos`), started
    from a vector drawn from a fixed seed, finds the k lowest pairs.  One
    Krylov space holds a single vector of each eigenspace, so it cannot
    see the second copy of a doubled level: the k pairs are locked, and a
    second run from a fresh seeded vector, kept orthogonal to them, finds
    the lowest pair of the rest.  Each of those k + 1 vectors takes its
    Rayleigh quotient as its value, and the k lowest are returned, so a
    doubled level reads as two equal values.  Raises ConvergenceError
    when the two runs together pass max(2000, 40 dim) products with h, or
    when a returned pair's residual ||h v - lambda v|| exceeds
    EIG_RESIDUAL_TOL max(1, |lambda|).
    """
    h = _owned_csr(h)
    dim = h.shape[0]
    if k < 1 or k > dim:
        raise ValueError("k out of range")
    ncv = max(2 * k + 1, 20)  # ARPACK's default basis size
    if dim <= 400 or k + 1 + ncv > dim:
        w, v = np.linalg.eigh(h.toarray())
        return w[:k], v[:, :k]
    rng = np.random.default_rng(1123)
    budget = max(2000, 40 * dim)
    vecs, used = _thick_restart_lanczos(h, k, np.empty((0, dim), h.dtype), rng, ncv, budget)
    more, _ = _thick_restart_lanczos(h, 1, vecs, rng, ncv, budget - used)
    vecs = np.vstack((vecs, more))
    hvecs = (h @ vecs.T).T
    vals = np.array([np.vdot(v, hv).real for v, hv in zip(vecs, hvecs)])
    order = np.argsort(vals, kind="stable")[:k]
    for i in order:
        res = np.linalg.norm(hvecs[i] - vals[i] * vecs[i])
        tol = EIG_RESIDUAL_TOL * max(1.0, abs(vals[i]))
        if res > tol:
            raise ConvergenceError(f"eigenpair residual {res:.3e} exceeds {tol:.3e}")
    return vals[order], vecs[order].T


def _thick_restart_lanczos(h, want, locked, rng, ncv, budget):
    """Ritz vectors of the want lowest eigenvalues of h off the span of locked's rows.

    Thick-restart Lanczos (K. Wu & H. Simon, SIAM J. Matrix Anal. Appl.
    22, 602 (2000)) on a basis of ncv orthonormal rows, started from a
    vector drawn from rng.  Each step multiplies the newest row by h and
    takes the product through two classical Gram-Schmidt passes against
    locked's rows and the basis, which keeps the basis orthonormal and
    orthogonal to locked; the projected matrix t keeps the Lanczos
    diagonal and couplings.  A coupling below 1e-12 of the largest entry
    seen so far (an invariant subspace) is dropped, and the basis goes on
    from a fresh vector of rng.  At each restart the Ritz vectors of the
    want lowest values and of half of the others are kept, coupled to
    the residual row that follows them.  The run stops once every wanted
    pair's residual estimate |beta s_last| is at most EIG_RESIDUAL_TOL /
    10 max(1, |theta|).  Returns (the want Ritz vectors as rows, the
    number of products with h); raises ConvergenceError past budget.
    """
    dim, p = h.shape[0], len(locked)
    basis = np.empty((p + ncv + 1, dim), dtype=h.dtype)
    basis[:p] = locked
    # the rows themselves when real (no copy), their conjugates when complex
    adj = np.conj if np.iscomplexobj(basis) else np.asarray

    def fresh(row):
        w = rng.standard_normal(dim).astype(basis.dtype)
        for _ in range(2):
            w -= (adj(basis[:row]) @ w) @ basis[:row]
        basis[row] = w / np.linalg.norm(w)

    fresh(p)
    t = np.zeros((ncv, ncv))
    kept = products = 0
    scale = 0.0
    while True:
        for j in range(kept, ncv):
            if products == budget:
                raise ConvergenceError(f"Lanczos not converged after {budget} products with h")
            q = p + j
            w = h @ basis[q]
            products += 1
            alpha = 0.0
            for _ in range(2):
                c = adj(basis[: q + 1]) @ w
                w -= c @ basis[: q + 1]
                alpha += c[q].real
            beta = np.linalg.norm(w)
            t[j, j] = alpha
            scale = max(scale, abs(alpha), beta)
            if beta > 1e-12 * scale:
                np.divide(w, beta, out=basis[q + 1])
            else:
                beta = 0.0
                fresh(q + 1)
            if j + 1 < ncv:
                t[j, j + 1] = t[j + 1, j] = beta
        theta, s = np.linalg.eigh(t)
        est = np.abs(beta * s[-1, :want])
        if np.all(est <= EIG_RESIDUAL_TOL / 10 * np.maximum(1.0, np.abs(theta[:want]))):
            return s[:, :want].T @ basis[p:-1], products
        kept = want + (ncv - want) // 2
        basis[p : p + kept] = s[:, :kept].T @ basis[p:-1]
        basis[p + kept] = basis[-1]
        t[:] = 0.0
        t[range(kept), range(kept)] = theta[:kept]
        t[kept, :kept] = t[:kept, kept] = beta * s[-1, :kept]


def ground_state(h: sp.spmatrix) -> tuple[float, np.ndarray]:
    vals, vecs = lowest_eigenpairs(h, k=1)
    return float(vals[0]), vecs[:, 0]


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def op_norm(a: sp.spmatrix, tol: float = 1e-10, max_iter: int = 500) -> float:
    """Largest singular value by power iteration on a^dagger a.

    Three randomized restarts from a fixed seed; the returned value is
    the best Rayleigh estimate across them.
    """
    a = sp.csr_matrix(a)
    if a.nnz == 0:
        return 0.0
    ah = sp.csr_matrix(a.conj().T)
    rng = np.random.default_rng(7)
    n = a.shape[1]
    best = 0.0
    for _ in range(3):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v /= np.linalg.norm(v)
        sigma = 0.0
        for _ in range(max_iter):
            w = a @ v
            s_new = float(np.linalg.norm(w))
            if s_new == 0.0:
                break
            v = ah @ w
            nv = np.linalg.norm(v)
            if nv == 0.0:
                sigma = s_new
                break
            v /= nv
            if abs(s_new - sigma) <= tol * max(s_new, 1e-300):
                sigma = s_new
                break
            sigma = s_new
        best = max(best, sigma)
    return best


# ---------------------------------------------------------------------------
# window sweeps
# ---------------------------------------------------------------------------

#: Unit roundoff of float64.
_U = 2.0**-53


def _gram(block: np.ndarray, kept: np.ndarray, out: np.ndarray) -> float:
    """Set out to G^ = M^H M, M the rows of block outside kept; return its slack E.

    M is m x n (n = block.shape[1]); G^ is summed over row chunks whose
    gathered copy holds at most max(_BLOCK_ENTRIES, n^2 / 8) entries, the
    first product written into out and each later one added to it.
    E = 3 (m + n + 2) u tr(G^) bounds |lambda^ - ||M||_2^2|, lambda^ the
    largest eigenvalue `numpy.linalg.eigvalsh` returns for out:
    - every entry of G^ is an inner product of length m, summed in some
      order (the chunks' partial sums are one more), so
      |G^ - G| <= gamma_{m+2} |M|^T |M| entrywise (Higham, Accuracy and
      Stability of Numerical Algorithms, 2nd ed., 2002, section 3.1, with
      gamma_{m+2} for complex products, section 3.6), and in the 2-norm
      ||G^ - G|| <= gamma_{m+2} ||M||_F^2 = gamma_{m+2} tr(G), while
      tr(G) <= tr(G^) / (1 - gamma_{m+2});
    - the Hermitian eigensolver, which reads one triangle and the real
      diagonal, is assumed backward stable with p(n) = n: lambda^ is the
      largest eigenvalue of G^ + D with ||D||_2 <= n u ||G^||_2;
    - by Weyl's inequality the two together are at most
      1.04 (m + n + 2) u tr(G^) while (m + n + 2) u <= 0.01 (COLUMN_CAP
      keeps it below 4e-9), and the factor 3 covers the rounding of
      tr(G^), of E, of lambda^ + E and of the square root taken of it.
    An exactly zero M (m = 0 included) gives G^ = 0 and E = 0, barring
    underflow of its squares.
    """
    n = block.shape[1]
    rows = np.flatnonzero(~kept)
    chunk = max(1, max(_BLOCK_ENTRIES, n * n // 8) // n)
    if not len(rows):
        out[...] = 0.0
    for lo in range(0, len(rows), chunk):
        sub = block[rows[lo : lo + chunk]]
        if lo:
            out += sub.conj().T @ sub
        else:
            np.matmul(sub.conj().T, sub, out=out)
    return 3.0 * (len(rows) + n + 2) * _U * float(np.trace(out).real)


def masked_top_singular(
    cols: np.ndarray, starts: np.ndarray, kept: list[list[np.ndarray]]
) -> list[list[float]]:
    """Per output and keep mask, the largest over member sectors of the top singular value outside it.

    cols holds a stack's window columns, (outputs, dim, n0), member i on
    rows starts[i]:starts[i + 1]; kept[o] lists output o's keep masks on
    the stack's rows.  Each member's columns outside each mask, M, are
    reduced to their n0 x n0 Gram matrix (`_gram`), and batches of them,
    each of at most _BLOCK_ENTRIES entries and at least one matrix, go
    through one `numpy.linalg.eigvalsh` call.  Each value reported is
    sqrt(max(lambda^ + E, 0)) with `_gram`'s slack E, so it bounds the
    computed block's ||M||_2 from above, by at most
    sqrt(||M||_2^2 + 2 E) - ||M||_2; an exactly zero M reads exactly 0.
    """
    n0 = cols.shape[-1]
    per = max(1, _BLOCK_ENTRIES // (n0 * n0))  # Gram matrices per eigvalsh call
    grams = [  # (output, mask, member rows) of every Gram matrix
        (o, k, slice(start, stop))
        for o, masks in enumerate(kept)
        for k in range(len(masks))
        for start, stop in zip(starts[:-1], starts[1:])
    ]
    tops = [[0.0] * len(masks) for masks in kept]
    buf = np.empty((min(per, len(grams)), n0, n0), dtype=cols.dtype)  # one batch's matrices
    for lo in range(0, len(grams), per):
        batch = grams[lo : lo + per]
        g = buf[: len(batch)]
        slack = [_gram(cols[o, rows], kept[o][k][rows], out) for (o, k, rows), out in zip(batch, g)]
        top = np.sqrt(np.maximum(np.linalg.eigvalsh(g)[:, -1] + slack, 0.0))
        for (o, k, _), value in zip(batch, top):
            tops[o][k] = max(tops[o][k], float(value))
    return tops


class WindowSweep:
    """Top singular values of window-column blocks, one stack at a time.

    Built once from a basis, an initial window and the Hermitian
    matrices a check propagates (all conserving sector_keys; None is one
    sector, the whole space): it splits the window into sectors and
    groups sectors of equal window count into stacks that fit one sweep
    block (COLUMN_CAP bounds the largest sector's window columns), and
    prepares one `ChebyshevPropagator` per operator and stack, of the
    stack's principal submatrix, scipy's h[rows][:, rows]
    (`_principal_submatrix`, which refuses rows coupled to the rest), or
    of the operator itself when the stack is every state in order (no
    sector keys), which the copy would equal.  A union of conserved
    sectors is closed under every operator, so the stack's operator is
    block-diagonal over its members, and its Gershgorin interval is the
    hull of its members' intervals, so the one polynomial the stack
    applies approximates exp(-i t h_s) on every member's spectrum with
    the member's own error bound: each member's error is at most
    2 tol * ||block_s||, as if it were swept alone.
    `top_singular` then serves every time, step size and escape window of
    the check.
    """

    def __init__(
        self,
        basis: CompositeBasis,
        window0: ProjectorSpec,
        ops: list[sp.spmatrix],
        sector_keys: np.ndarray | None = None,
    ):
        dim = basis.dimension
        if any(h.shape != (dim, dim) for h in ops):
            raise ValueError("operator does not match basis dimension")
        ops = [sp.csr_matrix(h) for h in ops]  # shares each CSR matrix's arrays
        self.stacks = _window_stacks(window_mask(basis, window0), sector_keys)
        self._ops = []
        for s in self.stacks:
            whole = len(s.rows) == dim and np.array_equal(s.rows, np.arange(dim))
            self._ops.append(
                [ChebyshevPropagator(h if whole else _principal_submatrix(h, s.rows)) for h in ops]
            )

    def top_singular(self, fn, xs, keep_masks) -> list[list[float]]:
        """Per output and keep mask, the top singular value of the window columns outside it.

        Output i belongs to the parameter xs[i] (a time, a step size or the
        index of a truncated operator) and keep_masks[i] lists its
        full-space keep masks.
        fn(ops_s, e, xs_b) maps a (dim_s, k) float64 block of identity
        columns in a stack's coordinates (row i stands for basis state
        stack.rows[i]) to a (len(xs_b), dim_s, k) array, one block per
        parameter of the batch xs_b, with ops_s the stack's propagators.
        Each call takes at most _BLOCK_ENTRIES // dim_s columns (at least
        one); when one call covers the stack its output is the stack's
        column array, and no second one is filled.  The window columns of
        fn are block-diagonal over the sectors (the keep masks are
        full-space and diagonal), so each value is the largest over the
        sectors: each stack is swept, each member sector's columns outside
        every mask of every output reduced by `masked_top_singular` (an
        upper bound on the computed block's top singular value, above it
        by a derived rounding term), and the stack is freed before the
        next one is swept.  The outputs held at once never exceed
        COLUMN_CAP entries: a stack takes the outputs in batches that fit,
        down to one at a time.  An output with no keep mask is not
        propagated.
        """
        tops = [[0.0] * len(masks) for masks in keep_masks]
        wanted = [i for i, masks in enumerate(keep_masks) if len(masks)]
        for stack, ops_s in zip(self.stacks, self._ops) if wanted else ():
            dim, n0 = len(stack.rows), stack.window.shape[1]
            step = max(1, _BLOCK_ENTRIES // dim)
            batch = max(1, COLUMN_CAP // stack.entries)

            def evolve_part(part, xs_b):
                e = np.zeros((dim, part.shape[1]))
                e[part, np.arange(part.shape[1])] = 1.0
                return fn(ops_s, e, xs_b)

            for lo in range(0, len(wanted), batch):
                outs = wanted[lo : lo + batch]
                xs_b = [xs[i] for i in outs]
                if step >= n0:  # one block covers the stack: fn's output is the column array
                    cols = evolve_part(stack.window, xs_b)
                else:
                    cols = np.empty((len(outs), dim, n0), dtype=complex)
                    for start in range(0, n0, step):
                        part = stack.window[:, start : start + step]
                        cols[..., start : start + part.shape[1]] = evolve_part(part, xs_b)
                kept = [[keep[stack.rows] for keep in keep_masks[i]] for i in outs]
                found = masked_top_singular(cols, stack.starts, kept)
                del cols  # free this stack's columns before the next fill
                for i, row in zip(outs, found):
                    tops[i] = [max(a, b) for a, b in zip(tops[i], row)]
        return tops


def leakage_norm(
    basis: CompositeBasis,
    h: sp.spmatrix,
    window0: ProjectorSpec,
    window1: ProjectorSpec,
    t: float,
    tol: float = TOL,
    sector_keys: np.ndarray | None = None,
) -> float:
    """Leakage norm: top singular value of (1 - P_window1) exp(-i t h) P_window0.

    Exact: every window0 basis state is a column, evolved inside its
    sector by a `WindowSweep`.  sector_keys (one integer per basis state,
    conserved by h; None is one sector) splits the window into sectors.
    A sector whose columns exceed COLUMN_CAP entries raises
    ResourceLimitError.
    """
    sweep = WindowSweep(basis, window0, [h], sector_keys)
    ((top,),) = sweep.top_singular(
        lambda ops, e, ts: ops[0].apply_times(e, ts, tol),
        [t],
        [[window_mask(basis, window1)]],
    )
    return top
