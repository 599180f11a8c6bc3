"""
Measuring leakage against the certified bound
==============================================

The bound machinery promises: start the two-site Hubbard-Holstein chain
with every phonon mode below lambda0, evolve for time t, and the weight
that escapes past lambda0 + Delta is at most the certified value.  Here
we measure that escaped weight exactly, by sparse evolution over a basis
large enough to act as "infinity", and print it next to the bound.
"""

import numpy as np

from truncert import (
    ALL,
    Leakage,
    ProjectorSpec,
    hubbard_holstein_1d,
    leakage_norm,
    tail_profile,
    verify_state_truncation,
)

model = hubbard_holstein_1d(2, hop=1.0, u=0.0, mu=0.0, g=0.5, omega0=1.0, n_max=12)
print(f"model: {model.label}, dimension {model.basis.dimension}")
print(f"walk profile: chi = {model.profile.chi}, r = {model.profile.r}")

# one raw measurement: start below lambda0 = 0, window of width Delta = 3
lambda0, delta, t = 0, 3, 0.5
window0 = ProjectorSpec(mode_index=ALL, lo=0, hi=lambda0)
window1 = ProjectorSpec(mode_index=ALL, lo=0, hi=lambda0 + delta)
leak = leakage_norm(model.basis, model.hamiltonian, window0, window1, t)
bound, _ = Leakage(model.profile, lambda0, t).at(lambda0 + delta)
print(f"\nworst-case escaped amplitude at t = {t}, Delta = {delta}:")
print(f"  measured {leak:.6e}  <=  certified {bound:.6e}")

# the packaged suite runs a grid of times and window widths and wraps each
# point in a report with the sound/unsound verdict and the margin

reports = verify_state_truncation(model, lambda0=0, times=[0.5, 1.0], deltas=(2, 3, 4))
print("\n  experiment    t     Delta  mode  empirical      bound          sound")
for rep in reports:
    print(f"  {rep.experiment:12s}  {rep.inputs['t']:.2f}  {rep.inputs['delta']:3d}  "
          f"{rep.inputs['mode']!s:>5s}  {rep.empirical:.6e}   {rep.analytic:.6e}   {rep.sound}")
assert all(rep.sound for rep in reports)

# ground-state tails: the population above lambda decays exponentially,
# which is what makes eigenstate truncation cheap

pairs = tail_profile(model, lambda_grid=range(0, 11, 2))
print("\nground-state weight above lambda:")
for lam, weight in pairs:
    print(f"  lambda = {lam:2d}:  {weight:.3e}")

logs = [np.log(w) for _, w in pairs if w > 1e-300]
slope = (logs[-1] - logs[0]) / (pairs[-1][0] - pairs[0][0])
print(f"fitted decay rate: about e^({slope:.2f} lambda)")
