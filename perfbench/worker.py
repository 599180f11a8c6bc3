"""Benchmark worker: runs one workload's truncert commands in-process.

Started by run.py with one JSON argument: {"src", "workload", "seed",
"seconds", "trace", "spans_path"}.  Imports truncert from the checkout's
`src`, runs an untimed warm-up command, then timed passes of the workload's
command list through `truncert.cli.main(argv)` until `seconds` have
elapsed.  With trace, untraced and traced passes alternate.  Prints one
JSON result as its last line.

Every command is checked: it must return exit code 0 without raising
(SystemExit included), every `sound` cell must read true, and the digest
of its analytic columns must match the reference recorded for the seed
(when one is recorded) and must not change between passes.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

REFERENCE = HERE / "reference_digests.json"

#: Run once before timing: it reaches every layer (Krylov and dense
#: propagation, eigsh, op_norm, bounds, CLI) at small size, so lazy imports
#: and first-call costs are paid before any pass is timed.
WARMUP_ARGV = ["verify", "all", "--format", "json"]


def argv_sha(argvs: list[list[str]]) -> str:
    return hashlib.sha256(json.dumps(argvs).encode()).hexdigest()[:16]


def load_reference(workload: str, seed: int, argvs: list[list[str]]) -> list[str] | None:
    """The digests recorded for this workload and seed, if any."""
    if not REFERENCE.is_file():
        return None
    rec = json.loads(REFERENCE.read_text()).get(workload, {}).get(str(seed))
    if rec is None:
        return None
    if rec["argv_sha"] != argv_sha(argvs):
        raise RuntimeError(
            f"{workload} seed {seed}: the generated commands differ from the ones "
            "the reference was recorded for; re-record it"
        )
    return rec["digests"]


def analytic_columns(columns: list[str]) -> list[int]:
    """Indices of the columns that must stay bit-identical."""
    return [
        i
        for i, c in enumerate(columns)
        if c in ("analytic", "bound", "delta") or c.startswith("lambda_")
    ]


def digest(payload: dict) -> str:
    cols = analytic_columns(payload["columns"])
    picked = [[payload["columns"][i] for i in cols]]
    picked += [[row[i] for i in cols] for row in payload["rows"]]
    return hashlib.sha256(json.dumps(picked).encode()).hexdigest()[:16]


def run_command(cli, argv: list[str]) -> tuple[float, str | None, str | None]:
    """Run one command; returns (seconds, failure reason or None, digest)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        return time.perf_counter() - start, f"raised SystemExit({exc.code})", None
    except Exception:
        return time.perf_counter() - start, "raised\n" + traceback.format_exc(), None
    seconds = time.perf_counter() - start
    if code != 0:
        return seconds, f"exit code {code}: {err.getvalue().strip()}", None
    try:
        payload = json.loads(out.getvalue())
    except ValueError as exc:
        return seconds, f"output is not JSON: {exc}", None
    columns = payload["columns"]
    if "sound" in columns:
        i = columns.index("sound")
        unsound = sum(row[i] != "true" for row in payload["rows"])
        if unsound:
            return seconds, f"{unsound} row(s) with sound != true", None
    return seconds, None, digest(payload)


class Runner:
    """Runs passes of one command list and keeps the correctness tally."""

    def __init__(self, cli, argvs, reference, tracer=None):
        self.cli = cli
        self.argvs = argvs
        self.reference = reference
        self.tracer = tracer
        self.first_digests: list[str | None] = [None] * len(argvs)
        self.attempted = 0
        self.failed = 0

    def one_pass(self) -> float:
        gc.collect()
        total = 0.0
        for i, argv in enumerate(self.argvs):
            if self.tracer is not None:
                self.tracer.command = i
            seconds, reason, dig = run_command(self.cli, argv)
            total += seconds
            self.attempted += 1
            if reason is None:
                reason = self.check_digest(i, dig)
            if reason is not None:
                self.failed += 1
                print(f"perfbench: FAILED {' '.join(argv)}: {reason}", file=sys.stderr)
        return total

    def check_digest(self, i: int, dig: str) -> str | None:
        if self.first_digests[i] is None:
            self.first_digests[i] = dig
        elif dig != self.first_digests[i]:
            return f"analytic digest {dig} changed between passes"
        if self.reference is not None and dig != self.reference[i]:
            return f"analytic digest {dig} != reference {self.reference[i]}"
        return None


def _timed_passes(one_pass, seconds: float) -> list[float]:
    """Wall times of passes run until `seconds` have elapsed (at least one)."""
    walls: list[float] = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        walls.append(one_pass())
    return walls


def _blas_threads() -> dict[str, int]:
    """Thread counts reported by the OpenBLAS builds numpy and scipy load."""
    import ctypes
    import glob

    import numpy
    import scipy

    out = {}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(glob.glob(str(libdir / "*openblas*.so*"))):
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.argtypes = []
                    fn.restype = ctypes.c_int
                    out[f"{pkg.__name__}:{Path(lib).name}"] = int(fn())
                    break
    return out


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = root / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(src: Path) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "git_commit": _git_commit(src.parent),
    }


def main(spec: dict) -> dict:
    src = Path(spec["src"])
    sys.path.insert(0, str(src))
    from truncert import cli

    name, seed = spec["workload"], spec["seed"]
    argvs = workloads.commands(name, seed)
    warmup = Runner(cli, [WARMUP_ARGV], None)
    warmup_s = warmup.one_pass()
    runner = Runner(cli, argvs, load_reference(name, seed, argvs))

    result = {
        "commands": [" ".join(a) for a in argvs],
        "reference_checked": runner.reference is not None,
        "warmup_s": warmup_s,
    }
    if not spec["trace"]:
        walls = _timed_passes(runner.one_pass, spec["seconds"])
        result["walls"] = walls
        result["metrics"] = {
            "wall_s": statistics.median(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        import tracing

        tracer = runner.tracer = tracing.Tracer()
        tracer.install()
        walls: list[float] = []
        per_pass: list[dict] = []
        spans: list = []

        def pair() -> float:
            # Untraced and traced passes alternate so that drift in machine
            # speed does not land on one side of trace.overhead_s.
            tracer.set_active(False)
            walls.append(runner.one_pass())
            tracer.set_active(True)
            wall = runner.one_pass()
            spans[:] = tracer.take()
            per_pass.append(tracing.pass_metrics(spans))
            return wall

        traced_walls = _timed_passes(pair, spec["seconds"])
        metrics = tracing.median_metrics(per_pass)
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        result.update(walls=walls, traced_walls=traced_walls, metrics=metrics)
        tracing.write_spans(spec["spans_path"], spans)
    result["attempted"] = warmup.attempted + runner.attempted
    result["failed"] = warmup.failed + runner.failed
    result["env"] = environment(src)
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
