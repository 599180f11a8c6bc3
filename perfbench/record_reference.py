"""Record the analytic-column digests that worker.py checks against.

    python3 perfbench/record_reference.py            # seeds 0..19, all workloads
    python3 perfbench/record_reference.py 0 1 2      # selected seeds

Runs one pass of every workload per seed in this process and writes
perfbench/reference_digests.json.  Record only at a commit whose analytic
output is the one later commits must reproduce bit for bit; a change that
moves an analytic column on purpose records afresh and says why.
"""

from __future__ import annotations

import json
import sys

from worker import REFERENCE, argv_sha, run_command
import workloads

DEFAULT_SEEDS = range(20)


def main(argv: list[str]) -> int:
    seeds = [int(s) for s in argv] or list(DEFAULT_SEEDS)
    sys.path.insert(0, str(REFERENCE.parent.parent / "src"))
    from truncert import cli

    refs = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    for name in workloads.NAMES:
        for seed in seeds:
            argvs = workloads.commands(name, seed)
            digests = []
            for argv in argvs:
                _, reason, dig = run_command(cli, argv)
                if reason is not None:
                    print(f"{name} seed {seed}: {' '.join(argv)}: {reason}", file=sys.stderr)
                    return 1
                digests.append(dig)
            refs.setdefault(name, {})[str(seed)] = {
                "argv_sha": argv_sha(argvs),
                "digests": digests,
            }
            print(f"{name} seed {seed}: {digests}", flush=True)
    REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
