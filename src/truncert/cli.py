"""Command-line frontend: thresholds, verification suites, sweeps.

Layout:

    truncert threshold state|ham|energy|tail [flags]
    truncert compare [flags]
    truncert verify state|ham|tail|trotter|coherent|all [flags]
    truncert sweep --cmd <threshold command> --vary key=v1,v2 [flags]

Every output artifact starts with a header block echoing the parsed
configuration and the tool version.  Each command declares only the
flags some --model reads and refuses a model flag its --model does not
read, so the header names only inputs that reached the result.  Analytic
columns are bit-stable across reruns of the same configuration.  Config
files hold key=value lines naming flags of the command (dashes or
underscores); flags given on the command line win.  Exit codes: 0
success and all reports sound, 1 usage error, 2 resource or guard error,
3 soundness violation.

The threshold commands other than `threshold ham`, `compare` and
`sweep` need only `bounds` and `walk_profiles`, which import nothing but
`math`.  The numpy modules (`models`, `propagate`, `trotter`, `verify`)
are imported inside the functions that build a model or run a verify
suite, so only those commands load numpy and scipy.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import io
import json
import os
import sys
import tempfile
from typing import Callable

from . import __version__
from .bounds import (
    CapExceededError,
    ConvergenceError,
    ResourceLimitError,
    TailQuery,
    TruncationQuery,
    compare_thresholds,
    energy_threshold_hubbard_holstein,
    energy_threshold_single_mode,
    minimal_hamiltonian_threshold,
    minimal_state_threshold,
    tail_threshold,
)
from .walk_profiles import (
    profile_dicke,
    profile_hubbard_holstein,
    profile_single_mode,
    profile_u1,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RESOURCE = 2
EXIT_UNSOUND = 3

OUTDIR_ENV = "TRUNCERT_OUTDIR"


class _Parser(argparse.ArgumentParser):
    """argparse taking flags by their full names only; a usage failure is one line, exit 1.

    With prefix matching, --conf FILE would stand for --config FILE, which
    `_inject_config` does not expand, so the file would go unread.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.exit(EXIT_USAGE, f"truncert: error: {message}\n")


def _floats(text: str) -> list[float]:
    return _comma_list(text, float)


def _ints(text: str) -> list[int]:
    return _comma_list(text, int)


def _comma_list(text: str, kind) -> list:
    """The values of a comma list; a list with none (blank text, bare commas) is refused."""
    values = [kind(x) for x in text.split(",") if x.strip() != ""]
    if not values:
        raise argparse.ArgumentTypeError(f"empty comma list {text!r}")
    return values


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _config_echo(args) -> dict:
    skip = {"func"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _stringify(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return ",".join(_stringify(v) for v in value)
    return str(value)


def _csv_cell(value) -> str:
    text = _stringify(value)
    if any(ch in text for ch in (",", '"', "\n")):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _resolve_out(path: str | None) -> str | None:
    if path is None:
        return None
    outdir = os.environ.get(OUTDIR_ENV)
    if outdir and not os.path.isabs(path):
        return os.path.join(outdir, path)
    return path


def write_output(path, fmt, columns, rows, config, meta=None):
    """Emit the table with its config header, atomically when to a file."""
    config = dict(config)
    if meta:
        config.update(meta)
    if fmt == "json":
        payload = {
            "version": __version__,
            "config": {k: _stringify(v) for k, v in sorted(config.items())},
            "columns": list(columns),
            "rows": [[_stringify(v) for v in row] for row in rows],
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        lines = [f"# truncert {__version__}"]
        for k, v in sorted(config.items()):
            lines.append(f"# {k}={_stringify(v)}")
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(_csv_cell(v) for v in row))
        text = "\n".join(lines) + "\n"
    path = _resolve_out(path)
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".truncert-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# model table
# ---------------------------------------------------------------------------

def _lib(name: str):
    """The package module `name`, imported on first use."""
    return importlib.import_module(f"{__package__}.{name}")


#: Each --model's hooks: profile -> WalkProfile, build -> ModelInstance and,
#: where it has them, trotter -> (CoefficientSummaries, default order p) and
#: energy -> energy-argument cutoff.  A hook's parameter names are the flags
#: it reads, declared once; needs maps a hook to the flags it reads that a
#: command must give, their defaults being sized for other hooks.  The build
#: and trotter hooks look each function up on `models` or `trotter` at call
#: time, importing it on first use, so a rebinding of e.g.
#: `models.single_mode` reaches every command.
_MODELS = {
    "single": dict(
        profile=lambda g: profile_single_mode(g),
        build=lambda g, omega0, n_max: _lib("models").single_mode(g, omega0, n_max),
        trotter=lambda g, omega0: (_lib("trotter").summaries_single_mode(g, omega0), 1),
        energy=lambda omega0, lambda0, eps: energy_threshold_single_mode(omega0, lambda0, eps),
    ),
    "hh": dict(
        profile=lambda g: profile_hubbard_holstein(abs(g)),
        build=lambda sites, hop, u, mu, g, omega0, n_max: _lib("models").hubbard_holstein_1d(
            sites, hop, u, mu, g, omega0, n_max
        ),
        trotter=lambda sites, hop, u, mu, g, omega0: (
            _lib("trotter").summaries_hubbard_holstein(sites, hop, u, mu, g, omega0),
            2,
        ),
        energy=lambda omega0, g, n, lambda0, ef, etotal, eps: energy_threshold_hubbard_holstein(
            omega0, g, n, lambda0, ef, etotal, eps
        ),
    ),
    "dicke": dict(
        profile=lambda g, n: profile_dicke(abs(g), n),
        build=lambda n, omega0, omega_z, g, n_max: _lib("models").dicke(
            n, omega0, omega_z, g, n_max
        ),
        needs=dict(build=("n",)),  # 100 spins, --n's default, cannot be built
    ),
    "u1": dict(
        profile=lambda gb, g: profile_u1(abs(gb), abs(g)),
        build=lambda sites, gm, g, ge, field_cap: _lib("models").u1_lgt_1d(
            sites, gm, g, ge, field_cap
        ),
    ),
}

#: Every model flag: dest -> (type, default, help).  A command registers the
#: ones its hooks read for some --model; `_bind` gives them their defaults.
_MODEL_FLAGS = {
    "g": (float, 0.5, "coupling (g_GM for u1)"),
    "gb": (float, 0.0, "magnetic weight for u1"),
    "n": (int, 100, "spin count for dicke, site count for the hh energy baseline"),
    "gm": (float, 1.0, "staggered mass for u1"),
    "ge": (float, 1.0, "electric weight for u1"),
    "omega0": (float, 1.0, None),
    "omega_z": (float, 1.0, None),
    "hop": (float, 1.0, None),
    "u": (float, 0.0, None),
    "mu": (float, 0.0, None),
    "sites": (int, 2, None),
    "field_cap": (int, 1, None),
    "n_max": (int, 16, None),
    "ef": (float, 0.0, "fermionic ground energy"),
    "etotal": (float, None, "total energy budget"),
}


def _reads(hook: Callable) -> tuple[str, ...]:
    """The flags a hook reads: its parameter names."""
    return hook.__code__.co_varnames[: hook.__code__.co_argcount]


def _bind(args, *hooks: str, unsupported: str = "") -> list[Callable]:
    """--model's `hooks`, each bound to the flags it reads (a call may override one).

    The model flags the hooks read get their defaults, so the header echoes
    them; any other one given, or one a hook needs not given, raises ValueError
    naming it, and a hook --model lacks raises ValueError(unsupported), before
    anything is built or imported.
    """
    model = _MODELS[args.model]
    fns = [model.get(hook) for hook in hooks]
    if None in fns:
        raise ValueError(unsupported)
    read = {flag for fn in fns for flag in _reads(fn)}
    needed = {flag for hook in hooks for flag in model.get("needs", {}).get(hook, ())}
    for flag, (_, default, _) in _MODEL_FLAGS.items():
        name = "--" + flag.replace("_", "-")
        if flag in needed and flag not in vars(args):
            raise ValueError(f"--model {args.model} needs {name} for this command; give {name}")
        if flag in read:
            vars(args).setdefault(flag, default)
        elif flag in vars(args):
            raise ValueError(f"--model {args.model} does not read {name}")
    return [functools.partial(fn, **{f: getattr(args, f) for f in _reads(fn)}) for fn in fns]


def _time_grid(args) -> list[float]:
    if args.t is not None:
        return args.t
    if args.tmax is None:
        raise ValueError("give --t or --tmax")
    n = max(2, args.tpoints)
    return [args.tmax * i / (n - 1) for i in range(n)]


# ---------------------------------------------------------------------------
# threshold commands
# ---------------------------------------------------------------------------

def _cmd_threshold_state(args):
    (profile,) = _bind(args, "profile")
    profile = profile()
    columns = ["t", "lambda_ours", "bound", "delta"]
    rows = []
    for t in _time_grid(args):
        rep = minimal_state_threshold(
            profile,
            TruncationQuery(lambda0=args.lambda0, time=t, epsilon=args.eps),
            delta_max=args.delta_max,
        )
        rows.append([t, rep.lambda_, rep.bound, rep.delta_used])
    return columns, rows, {}, EXIT_OK


def _cmd_threshold_energy(args):
    (energy,) = _bind(args, "energy", unsupported="energy thresholds cover --model single or hh")
    return ["model", "lambda_energy"], [[args.model, energy()]], {}, EXIT_OK


def _cmd_threshold_ham(args):
    given = set(vars(args))
    (build,) = _bind(args, "build")
    # the search runs over lambda0 + 2 .. cutoff - 2, the cutoff being the
    # builder's --n-max (--field-cap for u1); a default cutoff that leaves
    # no window is a usage error, a given one the search's guard error
    (flag,) = {"n_max", "field_cap"}.intersection(build.keywords)
    if flag not in given and build.keywords[flag] - 2 < args.lambda0 + 2:
        name = "--" + flag.replace("_", "-")
        raise ValueError(
            f"the default {name} {build.keywords[flag]} leaves no window to search at "
            f"--lambda0 {args.lambda0}; give {name} {args.lambda0 + 4} or more"
        )
    model = build()
    rep = minimal_hamiltonian_threshold(
        model.profile,
        TruncationQuery(lambda0=args.lambda0, time=args.t_single, epsilon=args.eps),
        n_modes=len(model.basis.truncatable_modes),
        comm_norm=model.comm_norm,
        lambda_cap=model.cutoff - 2,
    )
    columns = ["lambda_tilde", "bound", "delta"]
    return columns, [[rep.lambda_, rep.bound, rep.delta_used]], {}, EXIT_OK


def _cmd_threshold_tail(args):
    (profile,) = _bind(args, "profile")
    profile = profile()
    if args.lambda_bar is None or args.gap is None:
        raise ValueError("tail thresholds need --lambda-bar and --gap")
    columns = ["eps", "lambda_tail", "delta", "sigma", "t_window", "bound"]
    rows = []
    for eps in args.eps_list:
        rep = tail_threshold(profile, TailQuery(args.lambda_bar, args.gap, eps))
        rows.append(
            [eps, rep.lambda_, rep.delta_used, rep.sigma, rep.t_window, rep.bound]
        )
    return columns, rows, {}, EXIT_OK


def _cmd_compare(args):
    table = compare_thresholds(
        n_modes=args.n,
        epsilon=args.eps,
        lambda0=args.lambda0,
        times=_time_grid(args),
        omega0=args.omega0,
        g=args.g,
    )
    columns = ["t", "lambda_ours", "lambda_energy", "delta"]
    rows = [[r.t, r.lambda_ours, r.lambda_energy, r.delta_used] for r in table.rows]
    meta = {"crossover_t": table.crossover_t}
    return columns, rows, meta, EXIT_OK


# ---------------------------------------------------------------------------
# verify commands
# ---------------------------------------------------------------------------

_REPORT_COLUMNS = [
    "experiment",
    "empirical",
    "analytic",
    "sound",
    "margin",
    "runtime_s",
    "inputs",
    "notes",
]


def _report_row(rep):
    inputs = ";".join(f"{k}={_stringify(v)}" for k, v in sorted(rep.inputs.items()))
    return [
        rep.experiment,
        rep.empirical,
        rep.analytic,
        rep.sound,
        rep.margin,
        round(rep.runtime_s, 6),
        inputs,
        rep.notes,
    ]


def _verify_times(args, fallback):
    if args.t is None and args.tmax is None:
        return fallback
    return _time_grid(args)


def _suite_state(args):
    (build,) = _bind(args, "build")
    from .verify import verify_state_truncation

    return verify_state_truncation(
        build(),
        args.lambda0,
        _verify_times(args, [0.25]),
        mode=args.windows,
        deltas=args.deltas if args.deltas is not None else [2, 3, 4, 5],
    )


def _suite_ham(args):
    if args.model != "single":
        raise ValueError("the hamiltonian-truncation suite runs on --model single")
    (build,) = _bind(args, "build")
    from .verify import verify_hamiltonian_truncations

    return verify_hamiltonian_truncations(
        lambda n_max: build(n_max=n_max),
        n_max=args.n_max,
        lambda0=args.lambda0,
        lambda_tildes=args.lambda_tildes,
        t=args.t_single,
        check_padding=args.check_padding,
    )


def _suite_tail(args):
    (build,) = _bind(args, "build")
    from .verify import verify_tail

    return verify_tail(build(), args.eps_list)


def _suite_coherent(args):
    from .propagate import TOL
    from .verify import coherent_oracle_check

    return [coherent_oracle_check(_verify_times(args, [0.5, 1.0, 2.0, 3.0]), tol=TOL)]


def _suite_all(args):
    """`verify all`: four fixed verify commands, parsed and run like any other."""
    reports = []
    for argv in (
        ("state", "--n-max", "48", "--t", "0.25"),
        ("ham", "--n-max", "48"),
        ("tail", "--model", "hh", "--n-max", "12", "--eps-list", "0.01,0.0001"),
        ("coherent", "--t", "0.5,1,2"),
    ):
        fixed = _shared_parser().parse_args(["verify", *argv])
        reports += _SUITES[fixed.suite](fixed)
    return reports


_SUITES = {
    "state": _suite_state,
    "ham": _suite_ham,
    "tail": _suite_tail,
    "coherent": _suite_coherent,
    "all": _suite_all,
}


def _suite_trotter(args):
    build, trotter = _bind(
        args, "build", "trotter", unsupported="the trotter suite runs on --model single or hh"
    )
    from .propagate import TOL
    from .trotter import (
        ab_quantities,
        beta_comm,
        empirical_trotter_error,
        error_scaling_slope,
        safe_window,
    )
    from .verify import is_sound

    model = build()
    summaries, default_p = trotter()
    p = args.p if args.p else default_p
    lambda1 = safe_window(args.lambda0, p)
    budget = ab_quantities(summaries, lambda1, p, model.cutoff)
    points = empirical_trotter_error(model, p, args.taus, args.lambda0, budget=budget)
    columns = ["tau", "error", "bound", "sound"]
    rows = [[pt.tau, pt.error, pt.bound, is_sound(pt.error, pt.bound, TOL)] for pt in points]
    try:
        slope = error_scaling_slope(points)
    except ValueError:  # fewer than two points above the noise floor to fit
        slope = float("nan")
    meta = {"p": p, "beta": beta_comm(budget), "slope": slope}
    code = EXIT_OK if all(r[3] for r in rows) else EXIT_UNSOUND
    return columns, rows, meta, code


def _cmd_verify(args):
    reports = _SUITES[args.suite](args)
    rows = [_report_row(rep) for rep in reports]
    code = EXIT_OK if all(rep.sound for rep in reports) else EXIT_UNSOUND
    return _REPORT_COLUMNS, rows, {"reports": len(rows)}, code


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def _flag_tokens(key: str, value: str) -> list[str]:
    """argv tokens for one key=value setting: true is a bare switch, false none."""
    flag = "--" + key.strip().replace("_", "-")
    if value.lower() == "true":
        return [flag]
    if value.lower() == "false":
        return []
    return [flag, value]


def _parse_point(parser, tokens: list[str]):
    """Parse one sweep point; arguments that do not parse raise ValueError."""
    captured = io.StringIO()
    try:
        with contextlib.redirect_stderr(captured), contextlib.redirect_stdout(captured):
            return parser.parse_args(tokens)
    except SystemExit:
        lines = captured.getvalue().strip().splitlines() or ["bad arguments"]
        reason = lines[-1].split(": error: ", 1)[-1]
        raise ValueError(f"bad sweep point {' '.join(tokens)!r}: {reason}") from None


def _cmd_sweep(args):
    if args.cmd not in ("threshold-state", "threshold-energy", "compare"):
        raise ValueError("sweep covers threshold-state, threshold-energy, compare")
    varied: list[tuple[str, list[str]]] = []
    for spec in args.vary or []:
        key, _, values = spec.partition("=")
        values = [v for v in values.split(",") if v != ""]
        if not values:
            raise ValueError(f"bad --vary {spec!r}; want key=v1,v2")
        varied.append((key.strip(), values))
    size = 1
    for _, vals in varied:
        size *= len(vals)
    if size > args.max_rows:
        raise ResourceLimitError(f"sweep grid of {size} rows exceeds cap {args.max_rows}")

    combos: list[list[tuple[str, str]]] = [[]]
    for key, vals in varied:
        combos = [c + [(key, v)] for c in combos for v in vals]

    base_tokens = args.cmd.split("-") if args.cmd != "compare" else ["compare"]
    for spec in args.set or []:
        if "=" not in spec:
            raise ValueError(f"bad --set {spec!r}; want key=value")
        base_tokens += _flag_tokens(*spec.split("=", 1))

    parser = _shared_parser()
    varied_names = [k for k, _ in varied]
    columns = None
    rows = []
    for combo in combos:
        tokens = list(base_tokens)
        for key, value in combo:
            tokens += _flag_tokens(key, value)
        point_args = _parse_point(parser, tokens)
        cols, point_rows, _, _ = point_args.func(point_args)
        columns = columns or varied_names + list(cols)
        rows += [[v for _, v in combo] + list(row) for row in point_rows]
    return columns, rows, {"grid_rows": size}, EXIT_OK


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

def _add_common(sub):
    sub.add_argument("--out", default=None, help="output file (default stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--config", default=None, help="key=value config file; flags win")


def _add_model_flags(sub, hooks=("profile", "build", "trotter")):
    """--model and every model flag some model's `hooks` read, set only if given.

    The model commands take the profile's flags too, as a builder fixes its
    model's profile: u1's fixes gb at 0, and so refuses --gb by name.
    """
    sub.add_argument("--model", choices=tuple(_MODELS), default="single")
    fns = [model[hook] for model in _MODELS.values() for hook in hooks if hook in model]
    read = {flag for fn in fns for flag in _reads(fn)}
    for flag, (type_, _, help_) in _MODEL_FLAGS.items():
        if flag in read:
            name = "--" + flag.replace("_", "-")
            sub.add_argument(name, dest=flag, type=type_, default=argparse.SUPPRESS, help=help_)


def _add_time_grid(sub, tmax=None, tpoints=21):
    sub.add_argument("--t", type=_floats, default=None, help="comma list of times")
    sub.add_argument("--tmax", type=float, default=tmax)
    sub.add_argument("--tpoints", type=int, default=tpoints)


def build_parser() -> _Parser:
    parser = _Parser(prog="truncert", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"truncert {__version__}")
    top = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    thr = top.add_parser("threshold", help="certified truncation thresholds")
    thr_sub = thr.add_subparsers(dest="kind", required=True, parser_class=_Parser)

    t_state = thr_sub.add_parser("state", help="state-truncation window over a time grid")
    _add_model_flags(t_state, ("profile",))
    t_state.add_argument("--lambda0", type=int, default=0)
    t_state.add_argument("--eps", type=float, default=1e-2)
    _add_time_grid(t_state)
    t_state.add_argument("--delta-max", dest="delta_max", type=int, default=512)
    _add_common(t_state)
    t_state.set_defaults(func=_cmd_threshold_state)

    t_ham = thr_sub.add_parser("ham", help="hamiltonian-truncation window (desk scale)")
    _add_model_flags(t_ham)
    t_ham.add_argument("--lambda0", type=int, default=0)
    t_ham.add_argument("--eps", type=float, default=1e-2)
    t_ham.add_argument("--t-single", dest="t_single", type=float, default=1.0)
    _add_common(t_ham)
    t_ham.set_defaults(func=_cmd_threshold_ham)

    t_energy = thr_sub.add_parser("energy", help="energy-conservation competitor window")
    _add_model_flags(t_energy, ("energy",))
    t_energy.add_argument("--lambda0", type=int, default=0)
    t_energy.add_argument("--eps", type=float, default=1e-2)
    _add_common(t_energy)
    t_energy.set_defaults(func=_cmd_threshold_energy)

    t_tail = thr_sub.add_parser("tail", help="eigenstate tail window from (lambda_bar, gap)")
    _add_model_flags(t_tail, ("profile",))
    t_tail.add_argument("--lambda-bar", dest="lambda_bar", type=float, default=None)
    t_tail.add_argument("--gap", type=float, default=None)
    t_tail.add_argument(
        "--eps-list", dest="eps_list", type=_floats, default=[1e-2, 1e-4, 1e-6]
    )
    _add_common(t_tail)
    t_tail.set_defaults(func=_cmd_threshold_tail)

    # compare always computes the Hubbard-Holstein curve: no --model
    cmp_cmd = top.add_parser("compare", help="walk threshold vs energy threshold curve")
    cmp_cmd.add_argument("--g", type=float, default=0.5)
    cmp_cmd.add_argument("--omega0", type=float, default=1.0)
    cmp_cmd.add_argument("--n", type=int, default=100, help="site count")
    cmp_cmd.add_argument("--lambda0", type=int, default=4)
    cmp_cmd.add_argument("--eps", type=float, default=1e-2)
    _add_time_grid(cmp_cmd, tmax=10.0)
    _add_common(cmp_cmd)
    cmp_cmd.set_defaults(func=_cmd_compare)

    ver = top.add_parser("verify", help="bound-vs-empirical experiment suites")
    ver_sub = ver.add_subparsers(dest="suite", required=True, parser_class=_Parser)
    v = {}
    for suite in ("state", "ham", "tail", "trotter", "coherent", "all"):
        help_ = "four fixed suite runs; output flags only" if suite == "all" else None
        v[suite] = ver_sub.add_parser(suite, help=help_)
        _add_common(v[suite])
        v[suite].set_defaults(func=_cmd_verify, suite=suite)
    for suite in ("state", "ham", "tail", "trotter"):
        _add_model_flags(v[suite])
    for suite in ("state", "ham", "trotter"):
        v[suite].add_argument("--lambda0", type=int, default=0)
    for suite in ("state", "coherent"):
        _add_time_grid(v[suite], tpoints=9)
    v["state"].add_argument("--deltas", type=_ints, default=None)
    v["state"].add_argument("--windows", choices=("per_mode", "all"), default="per_mode")
    v["ham"].add_argument("--t-single", dest="t_single", type=float, default=1.0)
    v["ham"].add_argument("--lambda-tildes", dest="lambda_tildes", type=_ints, default=[10])
    v["ham"].add_argument("--check-padding", dest="check_padding", action="store_true")
    v["tail"].add_argument(
        "--eps-list", dest="eps_list", type=_floats, default=[1e-2, 1e-4, 1e-6]
    )
    v["trotter"].add_argument("--p", type=int, default=0, help="product-formula order")
    v["trotter"].add_argument("--taus", type=_floats, default=[0.2, 0.1, 0.05, 0.025])
    v["trotter"].set_defaults(func=_suite_trotter)

    sweep = top.add_parser("sweep", help="cartesian parameter sweep of a threshold command")
    sweep.add_argument("--cmd", required=True, help="threshold-state, threshold-energy, compare")
    sweep.add_argument("--vary", action="append", default=[], help="key=v1,v2,...")
    sweep.add_argument("--set", action="append", default=[], help="key=value base override")
    sweep.add_argument("--max-rows", dest="max_rows", type=int, default=100_000)
    _add_common(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    return parser


@functools.cache
def _shared_parser() -> _Parser:
    """The parser `main` and `sweep` use, built on first use, once per process.

    Parsing keeps no state in the parser, and no command mutates the
    list defaults it hands out (`--eps-list`, `--lambda-tildes`,
    `--taus`; the append actions `--vary` and `--set` copy theirs), so
    one parser serves every call.
    """
    return build_parser()


# ---------------------------------------------------------------------------
# config files and entry point
# ---------------------------------------------------------------------------

def load_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line {raw.strip()!r}; want key=value")
            key, value = line.split("=", 1)
            if not value.strip():
                raise ValueError(f"config line {raw.strip()!r} has no value")
            values[key.strip()] = value.strip()
    return values


def _inject_config(argv: list[str]) -> list[str]:
    """Expand --config FILE or --config=FILE into flags placed before the user's own."""
    for i, tok in enumerate(argv):
        if tok.startswith("--config="):
            path = tok.partition("=")[2]
            break
        if tok == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
            break
    else:
        return argv
    extra: list[str] = []
    for key, value in load_config(path).items():
        extra += _flag_tokens(key, value)
    # after the command words, which end at the first flag (--config at the latest)
    first = next(j for j, tok in enumerate(argv) if tok.startswith("-"))
    return argv[:first] + extra + argv[first:]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        argv = _inject_config(argv)
    except (OSError, ValueError) as exc:
        print(f"truncert: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        columns, rows, meta, code = args.func(args)
    except (ResourceLimitError, CapExceededError, ConvergenceError, MemoryError) as exc:
        print(f"truncert: resource/guard error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"truncert: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    write_output(args.out, args.format, columns, rows, _config_echo(args), meta)
    return code


if __name__ == "__main__":
    sys.exit(main())
