"""truncert benchmark: one workload, one seed, one measurement.

    python3 perfbench/run.py --workload trotter_hh --seed 0 --seconds 45 --trace 0

Run from the root of a checkout.  The harness

1. times `setup_s`: a fresh interpreter importing `truncert` and
   `truncert.cli` from `src/`, one discarded sample, then SETUP_SAMPLES
   measured ones split around step 2, one process at a time, reporting
   the median;
2. starts one worker process (worker.py) that runs the workload's
   commands in-process through `truncert.cli.main(argv)` and checks
   every output (see worker.py);
3. prints a readable summary, an `env` line with the environment stamp
   and, as its last line, the JSON result with the keys `correct`,
   `attempted`, `failed` and `metrics`.

With --trace 0 the metrics are the end-to-end ones: setup_s, wall_s
(median warm pass), peak_rss_mb (worker ru_maxrss) and ok_frac (share
of commands that passed every check; failed_frac = 1 - ok_frac is
printed in the summary).  With --trace 1 they are the per-layer split
from tracing.py plus trace.overhead_s; the spans of the last traced
pass go to .perfbench_out/spans-<workload>.csv.

Exits 2 without a result when the checkout holds no truncert sources,
the workload is unknown, or a child process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

#: Import samples per run, half taken before the worker and half after,
#: so that the median spans the run's changes in machine speed.
SETUP_SAMPLES = 8
#: Whole-run limit; the worker gets what the setup samples leave of it.
RUN_TIMEOUT_S = 170.0

_IMPORT_PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import truncert, truncert.cli\n"
    "print(time.perf_counter() - t)\n"
)

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}


class BenchError(RuntimeError):
    pass


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _run(argv: list[str], timeout: float) -> str:
    """Run one child to completion (killed on timeout); return its stdout."""
    try:
        proc = subprocess.run(
            argv, capture_output=True, text=True, timeout=timeout,
            env=_child_env(), cwd=ROOT,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[1]} timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{argv[1]} exited {proc.returncode}:\n{proc.stderr}")
    sys.stderr.write(proc.stderr)
    return proc.stdout


def setup_seconds(count: int, deadline: float) -> list[float]:
    return [
        float(_run([sys.executable, "-c", _IMPORT_PROBE], deadline - time.monotonic()))
        for _ in range(count)
    ]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_TIMEOUT_S
    setup: list[float] = []
    if not trace:
        setup_seconds(1, deadline)  # may compile bytecode; discarded
        setup = setup_seconds(SETUP_SAMPLES // 2, deadline)
    spec = {
        "src": str(SRC),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "spans_path": str(OUT / f"spans-{workload}.csv") if trace else None,
    }
    if trace:
        OUT.mkdir(exist_ok=True)
    out = _run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        deadline - time.monotonic(),
    )
    result = json.loads(out.strip().splitlines()[-1])
    if not trace:
        setup += setup_seconds(SETUP_SAMPLES - len(setup), deadline)
        result["setup_samples"] = setup
        result["metrics"]["setup_s"] = statistics.median(setup)
        result["metrics"]["ok_frac"] = (
            (result["attempted"] - result["failed"]) / result["attempted"]
        )
    return result


def summary_lines(workload: str, seed: int, trace: bool, result: dict) -> list[str]:
    m = result["metrics"]
    lines = [
        f"workload={workload} seed={seed} trace={int(trace)}",
        "  pass walls (s): warm-up %.4g; untraced %s; traced %s" % (
            result["warmup_s"],
            " ".join(f"{w:.4g}" for w in result["walls"]),
            " ".join(f"{w:.4g}" for w in result.get("traced_walls", [])) or "-",
        ),
    ]
    lines += [f"  command: truncert {c}" for c in result["commands"]]
    if trace:
        units = tracing.units()
        lines += [f"  {k:<46} {m[k]:.6g} {units[k]}" for k in sorted(m)]
    else:
        for k, unit in END_TO_END_UNITS.items():
            lines.append(f"  {k:<12} {m[k]:.6g} {unit}")
        lines.append(
            f"  failed_frac  {1.0 - m['ok_frac']:.6g} ratio "
            f"({result['failed']}/{result['attempted']} commands failed)"
        )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "truncert" / "cli.py").is_file():
        print(f"perfbench: no truncert sources under {SRC}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    try:
        result = measure(args.workload, args.seed, args.seconds, trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for line in summary_lines(args.workload, args.seed, trace, result):
        print(line)
    stamp = dict(
        result["env"],
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        passes=len(result["walls"]),
        traced_passes=len(result.get("traced_walls", [])),
        setup_samples=len(result.get("setup_samples", [])),
        reference_checked=result["reference_checked"],
    )
    print("env " + json.dumps(stamp, sort_keys=True))
    units = tracing.units() if trace else END_TO_END_UNITS
    final = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            k: {"value": v, "unit": units[k]} for k, v in sorted(result["metrics"].items())
        },
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
