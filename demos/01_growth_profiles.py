"""
Growth profiles and certified truncation thresholds
====================================================

Every model in this package carries a walk profile (chi, r): the norm of
the occupation-raising part of the Hamiltonian, restricted to states with
at most Lambda quanta, is bounded by chi * (Lambda + 1)**r.  That single
pair of numbers is all the bound machinery needs.  This script builds the
profiles for the four model families, then turns a (time, error) query
into a certified cutoff.
"""

from truncert import (
    Leakage,
    TruncationQuery,
    WalkProfile,
    adaptive_schedule,
    minimal_state_threshold,
    profile_dicke,
    profile_hubbard_holstein,
    profile_u1,
    speed_limit,
    tail_threshold,
    TailQuery,
)

# ---------------------------------------------------------------------
# 1. profiles for the model families
# ---------------------------------------------------------------------
# r = 1/2 for bosonic couplings (matrix elements grow like sqrt(n)),
# r = 0 for gauge links (shift operators are partial isometries).

profiles = {
    "single mode, g=0.5": WalkProfile(chi=1.0, r=0.5, label="single_mode"),
    "hubbard-holstein, g=0.5": profile_hubbard_holstein(0.5),
    "dicke, g=0.5, N=100": profile_dicke(0.5, 100),
    "u1 gauge, g_B=0, g_GM=0.5": profile_u1(0.0, 0.5),
}

print("profile        ", "chi      r    speed limit at lambda0=4")
for name, prof in profiles.items():
    tstar = speed_limit(prof, 4)
    print(f"{name:28s} chi={prof.chi:6.3f} r={prof.r:.1f}  t* = {tstar:.4f}")

# Below the speed limit a single window of width Delta already certifies
# factorially small leakage.  Past it, windows are chained.

prof = profiles["single mode, g=0.5"]
print("\nleakage bound decay with window width (t = 0.2, lambda0 = 4):")
leak = Leakage(prof, 4, 0.2)
for delta in range(1, 6):
    b, _ = leak.at(4 + delta)
    print(f"  Delta = {delta}:  bound = {b:.3e}")

# ---------------------------------------------------------------------
# 2. state-targeted thresholds
# ---------------------------------------------------------------------
# minimal_state_threshold scans window widths and returns the smallest
# cutoff whose certified leakage meets the target.

query = TruncationQuery(lambda0=4, time=2.0, epsilon=1e-6)
rep = minimal_state_threshold(prof, query)
print(f"\nquery: start below {query.lambda0} quanta, t = {query.time}, "
      f"eps = {query.epsilon}")
print(f"certified cutoff lambda = {rep.lambda_} "
      f"(window width {rep.delta_used}, bound {rep.bound:.3e})")

# The grown window strictly increases with the width, so no larger width
# that meets the target gives a smaller cutoff.
print("the first width that meets the target already has the smallest window")

# The threshold grows only polylogarithmically as the error target shrinks.
print("\ncutoff vs error target (t = 2):")
for eps in [1e-2, 1e-4, 1e-6, 1e-8, 1e-10]:
    r = minimal_state_threshold(prof, TruncationQuery(4, 2.0, eps))
    print(f"  eps = {eps:.0e}:  lambda = {r.lambda_}")

# ---------------------------------------------------------------------
# 3. adaptive schedules
# ---------------------------------------------------------------------
# For a long evolution the cutoff can be raised step by step instead of
# fixed up front; the schedule lists when each enlargement happens.

sched = adaptive_schedule(prof, lambda0=4, delta=3, horizon=5.0)
print(f"\nadaptive schedule out to t = 5 (Delta = {sched.delta}, "
      f"{len(sched.steps)} enlargements):")
for t_switch, lam in sched.steps[:5]:
    print(f"  from t = {t_switch:7.4f}: keep lambda = {lam}")
t_last, lam_last = sched.steps[-1]
print(f"  ... final step at t = {t_last:.4f} with lambda = {lam_last}")

# ---------------------------------------------------------------------
# 4. tail thresholds for eigenstate preparation
# ---------------------------------------------------------------------
# Filtering arguments control the high-occupation tail of a gapped ground
# state: the threshold depends on the gap and the energy scale lambda_bar.

tq = TailQuery(lambda_bar=8.0, gap=1.0, epsilon=1e-4)
tail = tail_threshold(prof, tq)
print(f"\ntail query: lambda_bar = {tq.lambda_bar}, gap = {tq.gap}, "
      f"eps = {tq.epsilon}")
print(f"tail cutoff lambda = {tail.lambda_} "
      f"(sigma = {tail.sigma:.4f}, window time {tail.t_window:.4f})")
