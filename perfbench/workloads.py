"""Seeded generator of the benchmark's truncert command lines.

Each workload is a fixed list of CLI commands whose sizes (model
dimensions, window column counts, grid lengths) never change; the seed
only jitters couplings, times and grid values inside ranges in which
every draw is a valid input that certifies soundly.  The jitter is a
few percent around fixed centres, so the work a pass does, and hence its
wall time, stays nearly the same from seed to seed.

Every command asks for JSON output so the harness can check it.
"""

from __future__ import annotations

import random


def _num(x: float) -> str:
    return f"{x:.4g}"


def _jitter(rng: random.Random, centre: float, rel: float = 0.05) -> float:
    return centre * rng.uniform(1.0 - rel, 1.0 + rel)


def _trotter_hh(rng: random.Random) -> list[list[str]]:
    # Column-by-column Krylov evolve calls; the only workload running trotter.
    # p = 2 (the hh default), 4 step sizes halving from tau0; the window
    # [0, 1] per boson holds 64 basis columns of the dim-3136 space.
    tau0 = _jitter(rng, 0.2)
    return [
        [
            "verify", "trotter", "--model", "hh", "--sites", "2",
            "--n-max", "13", "--lambda0", "1",
            "--g", _num(_jitter(rng, 0.5)),
            "--hop", _num(_jitter(rng, 1.0)),
            "--u", _num(_jitter(rng, 0.5)),
            "--omega0", _num(_jitter(rng, 1.0)),
            "--taus", ",".join(_num(tau0 / 2**k) for k in range(4)),
        ]
    ]


def _dense_small(rng: random.Random) -> list[list[str]]:
    # Dense eigh propagation, shifted eigsh, op_norm and small model builds.
    # dim (2*2*8)**2 = 1024 sits just under leakage_columns' dense_dim=1200.
    times = [_jitter(rng, t) for t in (0.25, 0.5, 1.0)]
    return [
        [
            "verify", "state", "--model", "hh", "--sites", "2",
            "--n-max", "7", "--lambda0", "1",
            "--g", _num(_jitter(rng, 0.5)),
            "--hop", _num(_jitter(rng, 1.0)),
            "--omega0", _num(_jitter(rng, 1.0)),
            "--t", ",".join(_num(t) for t in times),
        ],
        [
            "verify", "ham", "--model", "single", "--n-max", "200",
            "--g", _num(_jitter(rng, 0.5)),
            "--omega0", _num(_jitter(rng, 1.0)),
            "--t-single", _num(_jitter(rng, 1.0)),
            "--lambda-tildes", "20,40,80", "--check-padding",
        ],
        # verify all runs fixed built-in instances and reads no couplings.
        ["verify", "all"],
    ]


_BUILDERS = {
    "trotter_hh": _trotter_hh,
    "dense_small": _dense_small,
}
NAMES = tuple(_BUILDERS)


def commands(workload: str, seed: int) -> list[list[str]]:
    """The argv lists of one pass of the workload for this seed."""
    if workload not in _BUILDERS:
        raise KeyError(f"unknown workload {workload!r}; have {NAMES}")
    rng = random.Random(f"{workload}:{seed}")
    return [argv + ["--format", "json"] for argv in _BUILDERS[workload](rng)]
