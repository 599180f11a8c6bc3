"""Self-test of the seeded workload generator.

    python3 perfbench/selftest.py

Checks, for every workload, that one seed always yields the same
commands (within this process and against the command hashes recorded
in reference_digests.json by earlier processes), that another seed
changes the drawn values, and that it never changes a size: model
dimensions, window caps, grid lengths and the number of commands.
"""

from __future__ import annotations

import json
import sys

from worker import REFERENCE, argv_sha
import workloads

#: Flags whose values are sizes and must not depend on the seed.
SIZE_FLAGS = {"--sites", "--n-max", "--lambda0", "--lambda-tildes"}


def _is_numbers(text: str) -> bool:
    try:
        [float(x) for x in text.split(",")]
    except ValueError:
        return False
    return True


def shape(argv: list[str]) -> list[str]:
    """argv with drawn numbers replaced by their count."""
    return [
        tok if prev in SIZE_FLAGS or not _is_numbers(tok)
        else f"<{len(tok.split(','))} numbers>"
        for prev, tok in zip([None] + argv[:-1], argv)
    ]


def main() -> int:
    problems = []
    recorded = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    for name in workloads.NAMES:
        base = workloads.commands(name, 0)
        if workloads.commands(name, 0) != base:
            problems.append(f"{name}: seed 0 gave two different command lists")
        for seed in (1, 2, 12345):
            other = workloads.commands(name, seed)
            if other == base:
                problems.append(f"{name}: seeds 0 and {seed} gave the same commands")
            if [shape(a) for a in other] != [shape(a) for a in base]:
                problems.append(f"{name}: seed {seed} changed a size:\n{other}\n{base}")
        for seed, rec in recorded.get(name, {}).items():
            if argv_sha(workloads.commands(name, int(seed))) != rec["argv_sha"]:
                problems.append(f"{name}: seed {seed} no longer gives the recorded commands")
    for p in problems:
        print(p, file=sys.stderr)
    print("selftest", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
