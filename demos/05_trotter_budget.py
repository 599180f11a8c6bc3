"""
Product-formula step counts from commutator budgets
====================================================

Splitting the Hamiltonian into its diagonal and coupling slots gives a
product formula whose per-step error is controlled by nested commutator
norms.  On the truncated space those norms have closed-form budgets, so
the number of Trotter steps for a target accuracy is computable before
touching a matrix.  The second half of the script measures the actual
error and checks it sits under the bound with the predicted tau^(p+1)
scaling.
"""

from truncert import (
    ab_quantities,
    beta_comm,
    empirical_trotter_error,
    error_scaling_slope,
    safe_window,
    single_mode,
    summaries_hubbard_holstein,
    summaries_single_mode,
    trotter_steps,
)

# coefficient summaries feed the commutator budget; these are the only
# model-specific inputs

summaries = summaries_hubbard_holstein(4, hop=1.0, u=4.0, mu=0.0, g=0.5, omega0=1.0)
lambda0_prime = 2

for p in (1, 2):
    lambda1 = safe_window(lambda0_prime, p)
    budget = ab_quantities(summaries, lambda1, p, lambda_tilde=64)
    beta = beta_comm(budget)
    r_steps = trotter_steps(total_time=10.0, epsilon=1e-3, p=p, beta=beta)
    print(f"order p = {p}: commutator budget beta = {beta:.4g}, "
          f"steps for (T=10, eps=1e-3): {r_steps}")

# now the empirical side, small enough to simulate exactly: one driven
# mode, first-order splitting

model = single_mode(1.0, 1.0, n_max=16)
summaries1 = summaries_single_mode(1.0, 1.0)
lambda1 = safe_window(2, 1)
budget1 = ab_quantities(summaries1, lambda1, 1, model.cutoff)
points = empirical_trotter_error(model, 1, [0.2, 0.1, 0.05, 0.025], 2, budget=budget1)

print("\nsingle mode, p = 1:")
print("  tau      measured error   certified bound")
for pt in points:
    print(f"  {pt.tau:5.3f}   {pt.error:.6e}     {pt.bound:.6e}")
    assert pt.error <= pt.bound

slope = error_scaling_slope(points)
print(f"fitted error scaling: tau^{slope:.2f} (theory: tau^2)")
