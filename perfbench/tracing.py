"""Span tracing of truncert's layers from outside the package.

`Tracer.install` wraps every public function of the eight truncert
modules (plus `DensePropagator`'s constructor and `apply`) in a span
recorder and rebinds every module-level name bound to the original,
including the copies made by `from .propagate import evolve` in
`trotter` and `verify` and the package's own re-exports.  Patching only
the defining module would miss those callers.

A span is (name, start, end, parent span, command id, error, extra).
Spans stay in memory until the harness aggregates a pass and writes
the last traced pass out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time

#: The package modules, which are the benchmark's layers.
LAYERS = (
    "walk_profiles",
    "bounds",
    "fock_algebra",
    "models",
    "propagate",
    "trotter",
    "verify",
    "cli",
)

#: Model builders share one span name so every assembly counts together.
_BUILDERS = {"single_mode", "hubbard_holstein_1d", "dicke", "u1_lgt_1d"}

#: Experiment entry points whose return values are reports to count.
_REPORTERS = {
    "verify.verify_state_truncation",
    "verify.verify_hamiltonian_truncation",
    "verify.verify_tail",
    "verify.coherent_oracle_check",
}

_VACUOUS_NOTE = "empirical trivially 0"


def _is_vacuous(rep) -> bool:
    # A typed `vacuous` verdict takes precedence over the free-text note.
    flag = getattr(rep, "vacuous", None)
    if flag is not None:
        return bool(flag)
    return _VACUOUS_NOTE in getattr(rep, "notes", "")


def _report_extra(result) -> dict:
    reps = result if isinstance(result, list) else [result]
    return {"reports": len(reps), "vacuous": sum(_is_vacuous(r) for r in reps)}


def _columns_extra(result) -> dict:
    return {"columns": int(len(result[1]))}


_EXTRAS = {name: _report_extra for name in _REPORTERS}
_EXTRAS["propagate.leakage_columns"] = _columns_extra


class Tracer:
    """Records nested spans around wrapped callables."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._bindings: list[tuple] = []  # (owner, attribute, original, wrapper)
        self.command = 0

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        extra_of = _EXTRAS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            error = extra = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if extra_of is not None:
                    extra = extra_of(result)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.command, error, extra)

        return traced

    def install(self) -> None:
        """Wrap the layers' public functions and rebind every reference.

        Tracing starts active; `set_active(False)` restores the originals.
        """
        pkg = importlib.import_module("truncert")
        mods = [importlib.import_module(f"truncert.{layer}") for layer in LAYERS]
        wrapped: dict[int, tuple] = {}
        for layer, mod in zip(LAYERS, mods):
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = "models.build" if attr in _BUILDERS else f"{layer}.{attr}"
                wrapped[id(obj)] = (obj, self.wrap(name, obj))
        for mod in (pkg, *mods):
            for attr, obj in vars(mod).items():
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._bindings.append((mod, attr, obj, hit[1]))
        dense = mods[LAYERS.index("propagate")].DensePropagator
        for attr, name in (("__init__", "propagate.DensePropagator"),
                           ("apply", "propagate.DensePropagator.apply")):
            original = vars(dense)[attr]
            self._bindings.append((dense, attr, original, self.wrap(name, original)))
        self.set_active(True)

    def set_active(self, active: bool) -> None:
        for owner, attr, original, wrapper in self._bindings:
            setattr(owner, attr, wrapper if active else original)

    def take(self) -> list:
        """Hand over the spans recorded so far and start a fresh list."""
        out = list(self.spans)
        self.spans.clear()
        return out


def aggregate(spans: list) -> dict[str, dict]:
    """Per span name: calls, inclusive and self seconds, errors, extras."""
    child = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, _, _, error, extra) in enumerate(spans):
        row = out.setdefault(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": 0}
        )
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child[i]
        row["errors"] += error is not None
        for key, value in (extra or {}).items():
            row[key] = row.get(key, 0) + value
    return out


#: Span name -> the statistics reported for it as `<span>.<stat>`.
PER_LAYER = {
    "propagate.evolve": ("calls", "self_s", "mean_s", "errors"),
    "propagate.leakage_columns": ("calls", "self_s", "columns"),
    "propagate.DensePropagator": ("calls", "self_s"),
    "propagate.DensePropagator.apply": ("self_s",),
    "propagate.masked_top_singular": ("calls", "self_s"),
    "propagate.lowest_eigenpairs": ("self_s",),
    "propagate.op_norm": ("calls", "self_s"),
    "models.comm_norm_exact": ("self_s",),
    "models.build": ("calls", "self_s"),
    "trotter.apply_product_formula": ("calls", "self_s"),
    "trotter.empirical_trotter_error": ("self_s",),
    "bounds.long_time_bound": ("calls", "self_s"),
    "bounds.tail_threshold": ("self_s",),
    "bounds.hamiltonian_truncation_bound": ("self_s",),
    "cli.main": ("calls", "self_s"),
    "cli.write_output": ("self_s",),
    "fock_algebra.mode_operator": ("calls", "self_s"),
    "fock_algebra.window_mask": ("self_s",),
    "fock_algebra.projector": ("self_s",),
    "verify.verify_state_truncation": ("self_s",),
    "verify.verify_hamiltonian_truncation": ("self_s",),
    "verify.verify_tail": ("self_s",),
    "verify.coherent_oracle_check": ("self_s",),
}


def _stat(row: dict | None, stat: str) -> float:
    if row is None:
        return 0
    if stat == "mean_s":
        return row["total_s"] / row["calls"]
    return row.get(stat, 0)


def pass_metrics(spans: list) -> dict[str, float]:
    """The per-layer metrics of one traced pass."""
    rows = aggregate(spans)
    out = {
        f"{span}.{stat}": _stat(rows.get(span), stat)
        for span, stats in PER_LAYER.items()
        for stat in stats
    }
    reports = sum(rows.get(r, {}).get("reports", 0) for r in _REPORTERS)
    vacuous = sum(rows.get(r, {}).get("vacuous", 0) for r in _REPORTERS)
    out["verify.reports"] = reports
    out["verify.vacuous_frac"] = vacuous / reports if reports else 0.0
    for layer in LAYERS:
        out[f"{layer}.layer_s"] = sum(
            row["self_s"]
            for name, row in rows.items()
            if name.split(".", 1)[0] == layer
        )
    return out


def units() -> dict[str, str]:
    """Unit of every per-layer metric, trace.overhead_s included."""
    out = {
        f"{span}.{stat}": "s" if stat.endswith("_s") else "count"
        for span, stats in PER_LAYER.items()
        for stat in stats
    }
    out["verify.reports"] = "count"
    out["verify.vacuous_frac"] = "ratio"
    out.update({f"{layer}.layer_s": "s" for layer in LAYERS})
    out["trace.overhead_s"] = "s"
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over the traced passes."""
    unit = units()
    out = {}
    for key in per_pass[0]:
        values = [p[key] for p in per_pass]
        # counts repeat exactly from pass to pass; keep them whole numbers
        pick = statistics.median_low if unit[key] == "count" else statistics.median
        out[key] = pick(values)
    return out


def write_spans(path, spans: list) -> None:
    """Write one pass's spans as CSV: id,name,start,end,parent,command,error."""
    t0 = spans[0][1] if spans else 0.0
    with open(path, "w") as fh:
        fh.write("id,name,start_s,end_s,parent,command,error\n")
        for i, (name, start, end, parent, command, error, _) in enumerate(spans):
            fh.write(
                f"{i},{name},{start - t0:.9f},{end - t0:.9f},{parent},"
                f"{command},{error or ''}\n"
            )
