"""
An exactly solvable check of the simulation engine
===================================================

A single mode driven from the vacuum by H = b + b^dagger lands in a
coherent state, so after time T the occupation number is Poisson
distributed with mean T^2.  That closed form makes it a good oracle:
the sparse propagator has to reproduce it to near machine precision,
independently of everything else in the package.
"""

import numpy as np
from scipy.stats import poisson

from truncert import coherent_oracle_check, evolve, single_mode

# hand-rolled version first: build the driven mode with a cutoff far above
# where the state lives, evolve the vacuum, and read off the distribution

T = 2.0
n_max = 64
model = single_mode(g_lin=1.0, omega0=0.0, n_max=n_max)

psi0 = np.zeros(model.basis.dimension, dtype=complex)
psi0[0] = 1.0
psi = evolve(model.hamiltonian, psi0, T, 1e-12)

pmf = np.abs(psi) ** 2
mean = float(np.dot(np.arange(n_max + 1), pmf))
print(f"time T = {T}")
print(f"mean occupation: simulated {mean:.12f}, exact {T**2:.1f}")

exact = poisson.pmf(np.arange(n_max + 1), T**2)
print(f"worst pmf deviation: {np.max(np.abs(pmf - exact)):.3e}")

print("\n  n   simulated        Poisson(T^2)")
for n in range(8):
    print(f"  {n}   {pmf[n]:.12f}   {exact[n]:.12f}")

# the packaged check sweeps a grid of times and reports a sound/unsound
# verdict with the worst deviations in the notes field

rep = coherent_oracle_check([0.5, 1.0, 2.0, 3.0])
print(f"\npackaged check: sound = {rep.sound}")
print(f"  empirical deviation {rep.empirical:.3e} vs allowance {rep.analytic:.0e}")
print(f"  notes: {rep.notes}")
