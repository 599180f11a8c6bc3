"""CLI surface: output contract, config precedence, sweeps, exit codes."""

import argparse
import json
import os
import time

import pytest

from truncert import cli, propagate


def _run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def _data_lines(out):
    return [ln for ln in out.splitlines() if ln and not ln.startswith("#")]


# ---------------------------------------------------------------------------
# threshold commands
# ---------------------------------------------------------------------------

def test_energy_threshold_worked_example(capsys):
    code, out = _run(
        ["threshold", "energy", "--model", "single",
         "--omega0", "1", "--lambda0", "4", "--eps", "0.1"],
        capsys,
    )
    assert code == 0
    rows = _data_lines(out)
    assert rows[0] == "model,lambda_energy"
    assert rows[1] == "single,1694"


def test_state_threshold_zero_time_row(capsys):
    code, out = _run(
        ["threshold", "state", "--model", "single", "--g", "1",
         "--lambda0", "3", "--t", "0"],
        capsys,
    )
    assert code == 0
    rows = _data_lines(out)
    assert rows[1].startswith("0.0,3,0.0")


def test_state_threshold_monotone_grid(capsys):
    code, out = _run(
        ["threshold", "state", "--model", "hh", "--g", "0.5",
         "--t", "0.5,1,2", "--eps", "1e-3"],
        capsys,
    )
    assert code == 0
    lams = [int(ln.split(",")[1]) for ln in _data_lines(out)[1:]]
    assert lams == sorted(lams)


def test_header_echoes_config(capsys):
    code, out = _run(
        ["threshold", "energy", "--model", "single", "--eps", "0.25"],
        capsys,
    )
    assert code == 0
    header = [ln for ln in out.splitlines() if ln.startswith("#")]
    assert header[0].startswith("# truncert ")
    assert "# eps=0.25" in header
    assert "# model=single" in header


def test_json_format(capsys):
    code, out = _run(
        ["threshold", "energy", "--model", "single", "--format", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["columns"] == ["model", "lambda_energy"]
    assert payload["config"]["model"] == "single"
    assert "version" in payload


def test_tail_threshold_requires_inputs(capsys):
    code, _ = _run(["threshold", "tail", "--model", "single"], capsys)
    assert code == 1


def test_tail_threshold_rows(capsys):
    code, out = _run(
        ["threshold", "tail", "--model", "hh", "--g", "0.5",
         "--lambda-bar", "0.5", "--gap", "0.7", "--eps-list", "1e-2,1e-4"],
        capsys,
    )
    assert code == 0
    rows = _data_lines(out)
    assert len(rows) == 3
    lam_loose = int(rows[1].split(",")[1])
    lam_tight = int(rows[2].split(",")[1])
    assert lam_loose <= lam_tight


# ---------------------------------------------------------------------------
# config files and flag precedence
# ---------------------------------------------------------------------------

def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("eps = 0.1\nlambda0 = 4\n# a comment\n")
    code, out = _run(
        ["threshold", "energy", "--model", "single", "--config", str(cfg)],
        capsys,
    )
    assert code == 0
    assert _data_lines(out)[1] == "single,1694"


def test_flags_beat_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("eps=0.1\nlambda0=4\n")
    code, out = _run(
        ["threshold", "energy", "--model", "single",
         "--config", str(cfg), "--eps", "0.5"],
        capsys,
    )
    assert code == 0
    lam = int(_data_lines(out)[1].split(",")[1])
    assert lam != 1694
    assert lam < 1694


def test_config_file_on_one_word_command(tmp_path, capsys):
    """compare takes one command word: the config flags go in before its flags."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("eps=0.1\n")
    for via_config, direct in (
        (["compare", "--config", str(cfg)], ["compare", "--eps", "0.1"]),
        (["compare", "--tpoints", "2", "--config", str(cfg), "--eps", "0.5"],
         ["compare", "--tpoints", "2", "--eps", "0.5"]),
    ):
        code, out = _run(via_config, capsys)
        code2, out2 = _run(direct, capsys)
        assert code == code2 == 0
        assert _data_lines(out) == _data_lines(out2)
    cfg.write_text("model=u1\n")
    assert cli.main(["compare", "--config", str(cfg)]) == 1
    assert "unrecognized arguments: --model u1" in capsys.readouterr().err


def test_bad_config_line_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("this is not a pair\n")
    code, _ = _run(
        ["threshold", "energy", "--model", "single", "--config", str(cfg)],
        capsys,
    )
    assert code == 1


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------

def test_out_file_written_atomically(tmp_path, capsys):
    target = tmp_path / "thr.csv"
    code, _ = _run(
        ["threshold", "energy", "--model", "single", "--out", str(target)],
        capsys,
    )
    assert code == 0
    assert target.exists()
    assert "single,1694" not in capsys.readouterr().out
    stray = [p for p in os.listdir(tmp_path) if p.startswith(".truncert-")]
    assert stray == []
    assert "lambda_energy" in target.read_text()


def test_outdir_env_redirects_relative_paths(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TRUNCERT_OUTDIR", str(tmp_path))
    code, _ = _run(
        ["threshold", "energy", "--model", "single", "--out", "sub/e.csv"],
        capsys,
    )
    assert code == 0
    assert (tmp_path / "sub" / "e.csv").exists()


def test_reruns_are_bit_identical(tmp_path, capsys):
    argv = ["threshold", "state", "--model", "single", "--g", "1",
            "--t", "0.5,1.5", "--eps", "1e-4"]
    _, first = _run(argv, capsys)
    _, second = _run(argv, capsys)
    # the header and the analytic rows must not move between reruns
    assert _data_lines(first) == _data_lines(second)


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------

def test_parser_is_built_once_for_many_calls(capsys, monkeypatch):
    """main and sweep share one parser, built on the first call."""
    builds = []
    real = cli.build_parser

    def counting():
        builds.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._shared_parser.cache_clear()
    try:
        codes = [
            cli.main(argv)
            for argv in (
                ["threshold", "energy", "--model", "single"],
                ["sweep", "--cmd", "threshold-state", "--vary", "g=0.5,1", "--set", "t=1"],
                ["threshold", "nonsense"],
                ["compare", "--tpoints", "3"],
            )
        ]
    finally:
        cli._shared_parser.cache_clear()
    capsys.readouterr()
    assert codes == [0, 0, 1, 0]
    assert builds == [1]


#: Commands that read a list default: --eps-list (threshold tail and verify
#: tail), --lambda-tildes (verify ham) and --taus (verify trotter).
_DEFAULT_LIST_ARGV = [
    ["threshold", "tail", "--model", "hh", "--lambda-bar", "0.3", "--gap", "0.5"],
    ["verify", "tail", "--model", "hh", "--n-max", "4"],
    ["verify", "ham", "--model", "single"],
    ["verify", "trotter", "--model", "single", "--n-max", "12"],
]


def test_default_list_commands_rerun_identically(capsys):
    """The shared parser hands every call the same default lists; a rerun of
    each command after the others (and a sweep) prints the same output."""

    def run(argv):
        code, out = _run(argv + ["--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        if "runtime_s" in payload["columns"]:
            i = payload["columns"].index("runtime_s")
            for row in payload["rows"]:
                row[i] = None
        return payload

    first = [run(argv) for argv in _DEFAULT_LIST_ARGV]
    for argv in _DEFAULT_LIST_ARGV[::-1]:
        run(argv)
    run(["sweep", "--cmd", "threshold-state", "--vary", "g=0.5,1", "--set", "t=1"])
    assert [run(argv) for argv in _DEFAULT_LIST_ARGV] == first
    assert first[0]["config"]["eps_list"] == "0.01,0.0001,1e-06"
    assert first[2]["config"]["lambda_tildes"] == "10"
    assert first[3]["config"]["taus"] == "0.2,0.1,0.05,0.025"


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_rows_match_scalar_calls(capsys):
    code, out = _run(
        ["sweep", "--cmd", "threshold-energy",
         "--vary", "n=5,20", "--vary", "eps=0.1,0.01",
         "--set", "model=hh"],
        capsys,
    )
    assert code == 0
    rows = _data_lines(out)
    assert rows[0] == "n,eps,model,lambda_energy"
    assert len(rows) == 5
    for row in rows[1:]:
        n, eps, _, lam = row.split(",")
        code2, out2 = _run(
            ["threshold", "energy", "--model", "hh", "--n", n, "--eps", eps],
            capsys,
        )
        assert code2 == 0
        assert _data_lines(out2)[1].split(",")[1] == lam


def test_sweep_grid_cap_is_resource_error(capsys):
    code, _ = _run(
        ["sweep", "--cmd", "threshold-energy",
         "--vary", "eps=0.1,0.2,0.3,0.4", "--max-rows", "3"],
        capsys,
    )
    assert code == 2


def test_sweep_rejects_unknown_command(capsys):
    code, _ = _run(["sweep", "--cmd", "verify-all"], capsys)
    assert code == 1


def test_sweep_switch_values_match_scalar_calls(tmp_path, capsys):
    """A switch set to true or false (in a config file, as in a sweep's
    --set) equals giving or omitting the bare flag."""
    base = ["verify", "ham", "--n-max", "20", "--lambda-tildes", "6,10"]
    for value, switch in (("true", ["--check-padding"]), ("false", [])):
        cfg = tmp_path / f"{value}.cfg"
        cfg.write_text(f"check_padding={value}\n")
        configured = _masked_json(base + ["--config", str(cfg)], capsys)
        direct = _masked_json(base + switch, capsys)
        assert configured["rows"] == direct["rows"]
        assert configured["config"]["check_padding"] == value
        notes = [row[configured["columns"].index("notes")] for row in configured["rows"]]
        assert len(notes) == 2
        assert all(("padding doubling shifts" in note) == (value == "true") for note in notes)


@pytest.mark.parametrize(
    "extra",
    [
        ["--vary", "t=0.5,1", "--set", "bogus=1"],
        ["--vary", "t=0.5,oops"],
        ["--vary", "t="],
        ["--vary", "lambda0=1,2", "--set", "t="],
    ],
)
def test_sweep_bad_point_is_one_usage_error(extra, capsys):
    code = cli.main(["sweep", "--cmd", "threshold-state"] + extra)
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("error:") == 1
    assert "usage:" not in err


# ---------------------------------------------------------------------------
# the model table
# ---------------------------------------------------------------------------

_PAIR_ARGV = {
    "threshold state": ["threshold", "state", "--t", "0.5"],
    "threshold energy": ["threshold", "energy"],
    "verify trotter": ["verify", "trotter", "--n-max", "14", "--taus", "0.1,0.05"],
    "verify ham": ["verify", "ham"],
}

#: Flags a pair adds for one model: each model is given only flags it reads.
_PAIR_MODEL_ARGV = {("verify trotter", "hh"): ["--sites", "1"]}

_UNSUPPORTED = {
    "threshold energy": ("dicke", "u1"),
    "verify trotter": ("dicke", "u1"),
    "verify ham": ("hh", "dicke", "u1"),
}

_MESSAGES = {
    "threshold energy": "energy thresholds cover --model single or hh",
    "verify trotter": "the trotter suite runs on --model single or hh",
    "verify ham": "the hamiltonian-truncation suite runs on --model single",
}


@pytest.mark.parametrize("model", ["single", "hh", "dicke", "u1"])
@pytest.mark.parametrize("command", list(_PAIR_ARGV))
def test_every_model_command_pair(command, model, capsys):
    code = cli.main(
        _PAIR_ARGV[command] + _PAIR_MODEL_ARGV.get((command, model), []) + ["--model", model]
    )
    captured = capsys.readouterr()
    if model in _UNSUPPORTED.get(command, ()):
        assert code == 1
        assert captured.err == f"truncert: error: {_MESSAGES[command]}\n"
        assert captured.out == ""
    else:
        assert code == 0, captured.err
        assert f"# model={model}" in captured.out.splitlines()


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_usage_error_exits_one(capsys):
    assert cli.main(["threshold", "nonsense"]) == 1
    capsys.readouterr()


def test_missing_subcommand_exits_one(capsys):
    assert cli.main([]) == 1
    capsys.readouterr()


def test_resource_guard_exits_two(capsys):
    code, _ = _run(
        ["threshold", "state", "--model", "single", "--g", "1",
         "--t", "50", "--eps", "1e-9", "--delta-max", "3"],
        capsys,
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv, code",
    [
        (["threshold", "state", "--t", "inf"], 1),
        (["threshold", "state", "--t", "nan"], 1),
        (["compare", "--t", "inf"], 1),
        (["threshold", "ham", "--t-single", "inf"], 1),
        (["verify", "state", "--t", "inf", "--n-max", "8"], 1),
        (["verify", "coherent", "--t", "inf"], 1),
        (["threshold", "state", "--t", "1e200"], 2),
        (["threshold", "tail", "--lambda-bar", "0.1", "--gap", "1e-300"], 2),
        (["verify", "state", "--t", "1e200", "--n-max", "8"], 2),
        (["threshold", "ham", "--t-single", "1e200"], 2),
        (["threshold", "ham", "--model", "u1", "--field-cap", "4", "--t-single", "1e200"], 2),
        # the engine refuses a time it cannot expand instead of spinning on it
        (["verify", "ham", "--t-single", "inf"], 1),
        (["verify", "ham", "--t-single", "nan"], 1),
        (["verify", "ham", "--t-single", "1e12"], 2),
        (["verify", "trotter", "--taus", "inf"], 1),
    ],
)
def test_bad_time_is_one_error_line(argv, code, capsys):
    """A time that is not finite is a usage error, one past float range or
    the engine's term cap a guard error: one line, at once, no traceback."""
    start = time.perf_counter()
    assert cli.main(argv) == code
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    prefix = "truncert: error: " if code == 1 else "truncert: resource/guard error: "
    assert captured.err.startswith(prefix)
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def test_tail_on_a_doubled_ground_level_is_refused(capsys):
    """3-site Hubbard-Holstein at n_max 5 has a spin-flip partner 2e-14
    above its ground level (in sector 10): the tail check refuses it as
    degenerate instead of certifying with the next level's gap 0.129477."""
    argv = ["verify", "tail", "--model", "hh", "--sites", "3", "--n-max", "5",
            "--eps-list", "0.01"]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("truncert: error: ground space nearly degenerate")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


_ENERGY = ["threshold", "energy", "--lambda0", "4"]


@pytest.mark.parametrize(
    "argv, code, named",
    [
        # finite inputs whose window overflows a float
        (_ENERGY + ["--model", "single", "--omega0", "1e-320", "--eps", "0.1"], 2, "overflows"),
        (_ENERGY + ["--model", "hh", "--omega0", "1e-300", "--eps", "1e-3"], 2, "overflows"),
        (["compare", "--omega0", "1e-320", "--t", "1"], 2, "overflows"),
        (["threshold", "tail", "--model", "hh", "--lambda-bar", "1e308", "--gap", "1",
          "--eps-list", "1e-2"], 2, "lambda_bar=1e+308"),
        # inputs that are not finite
        (_ENERGY + ["--model", "hh", "--g", "inf", "--eps", "0.1"], 1, "g must be finite"),
        (_ENERGY + ["--model", "hh", "--g", "nan", "--eps", "0.1"], 1, "g must be finite"),
        (_ENERGY + ["--model", "hh", "--etotal", "nan"], 1, "e_total must be finite"),
        (_ENERGY + ["--model", "hh", "--ef", "inf"], 1, "e_f_ground must be finite"),
        (_ENERGY + ["--model", "hh", "--omega0", "nan"], 1, "omega0 must be finite"),
        (_ENERGY + ["--model", "single", "--omega0", "nan"], 1, "omega0 must be finite"),
        (["compare", "--omega0", "nan", "--t", "1"], 1, "omega0 must be finite"),
        (["threshold", "tail", "--lambda-bar", "0.3", "--gap", "nan"], 1, "gap must be finite"),
        # a lambda0 past float range, and no modes to split eps over
        (["threshold", "state", "--lambda0", "9" * 320, "--t", "1"], 2, "overflows"),
        (["compare", "--n", "0", "--t", "1"], 1, "n_modes must be >= 1"),
    ],
)
def test_analytic_command_input_errors_name_the_input(argv, code, named, capsys):
    """No traceback from an analytic command: a non-finite input exits 1
    naming it, a finite one whose window overflows a float exits 2."""
    assert cli.main(argv) == code
    captured = capsys.readouterr()
    prefix = "truncert: error: " if code == 1 else "truncert: resource/guard error: "
    assert captured.err.startswith(prefix) and named in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert captured.out == ""


def test_reach_under_the_term_cap_exits_as_fast_as_one_far_past_it(capsys):
    """t = 1e5 reaches 9.7e5, under the 2^20-term cap yet past what 2^20
    terms can expand: it exits 2 as fast as t = 1e12, with no term search."""
    seconds = {}
    for t in ("1e12", "1e5", "1e12"):
        start = time.perf_counter()
        assert cli.main(["verify", "ham", "--t-single", t]) == 2
        seconds[t] = time.perf_counter() - start
        assert "Chebyshev terms" in capsys.readouterr().err
    assert seconds["1e5"] < 3.0 * seconds["1e12"] + 0.1


def test_huge_finite_time_keeps_its_row(capsys):
    """t = 1e150 stays inside float range: its window has 305 digits."""
    code, out = _run(["threshold", "state", "--t", "1e150"], capsys)
    assert code == 0
    t, lam, bound, delta = _data_lines(out)[1].split(",")
    assert (t, bound, delta) == ("1e+150", "0.004138655306088551", "239")
    assert lam.startswith("566440000000000026909516") and len(lam) == 305


def test_verify_state_past_the_sector_guard_exits_two(capsys, monkeypatch):
    """A sector whose window columns exceed propagate.COLUMN_CAP is a guard error."""
    monkeypatch.setattr(propagate, "COLUMN_CAP", 1000)
    code = cli.main(
        ["verify", "state", "--model", "hh", "--sites", "2", "--n-max", "3",
         "--lambda0", "1", "--t", "0.4", "--deltas", "2"]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("truncert: resource/guard error: window columns")
    assert captured.out == ""


def test_trotter_order_without_constants_exits_one_before_propagating(
    capsys, monkeypatch
):
    """p = 4 has no certified per-step constant: rejected before any evolution."""
    calls = []
    real = propagate.ChebyshevPropagator.apply

    def counting(self, *args, **kwargs):
        calls.append(self.shape)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(propagate.ChebyshevPropagator, "apply", counting)
    code = cli.main(
        ["verify", "trotter", "--model", "hh", "--sites", "2", "--n-max", "21",
         "--lambda0", "1", "--p", "4", "--taus", "0.2,0.1"]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert "certified per-step constants cover p in {1, 2}" in captured.err
    assert calls == []


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--lambda0", "5", "--lambda-tildes", "20,6"],
         "lambda_tilde = 6 must be >= lambda0 + 2 = 7"),
        (["--lambda0", "1", "--lambda-tildes", "20,199"],
         "padding insufficient: cutoff 200 < lambda_tilde + 2"),
    ],
)
def test_bad_lambda_tilde_exits_one_before_propagating(extra, message, capsys, monkeypatch):
    """Every lambda-tilde is checked before the first one is propagated."""
    calls = []
    real = propagate.ChebyshevPropagator.apply_times

    def counting(self, *args, **kwargs):
        calls.append(self.shape)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(propagate.ChebyshevPropagator, "apply_times", counting)
    code = cli.main(
        ["verify", "ham", "--model", "single", "--n-max", "200", "--check-padding"] + extra
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"truncert: error: {message}\n"
    assert captured.out == ""
    assert calls == []


@pytest.mark.parametrize("lambda0", [8, 9])
def test_vacuous_state_check_exits_one_before_propagating(lambda0, capsys, monkeypatch):
    """A start window at or past the proxy cutoff holds every state, so the
    check would measure nothing: one error line, no output, no evolution."""
    calls = []
    real = propagate.ChebyshevPropagator.apply_times

    def counting(self, *args, **kwargs):
        calls.append(self.shape)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(propagate.ChebyshevPropagator, "apply_times", counting)
    code = cli.main(
        ["verify", "state", "--model", "single", "--n-max", "8", "--t", "0.2",
         "--lambda0", str(lambda0), "--format", "json"]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"truncert: error: lambda0 = {lambda0} must be < the proxy cutoff 8\n"
    assert captured.out == ""
    assert calls == []


def test_one_step_trotter_reports_nan_slope(capsys):
    """One step size leaves no slope to fit: the table still prints, slope is nan."""
    code, out = _run(
        ["verify", "trotter", "--model", "single", "--n-max", "30", "--lambda0", "1",
         "--taus", "0.1", "--format", "json"],
        capsys,
    )
    payload = json.loads(out)
    assert code == 0
    sound = payload["columns"].index("sound")
    assert [row[sound] for row in payload["rows"]] == ["true"]
    assert payload["config"]["slope"] == "nan"


def test_threshold_ham_start_above_cap_exits_two(capsys):
    """lambda0 + 2 = 3 exceeds the cap cutoff - 2 = 2: a guard error, not a usage one."""
    code = cli.main(
        ["threshold", "ham", "--model", "u1", "--sites", "3", "--field-cap", "4",
         "--lambda0", "1", "--eps", "0.1"]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("truncert: resource/guard error:")


def test_verify_state_time_at_speed_limit_up_to_rounding(capsys):
    """t = 0.25 equals the Dicke N = 2, lambda0 = 1 limit 0.24999999999999994."""
    code, out = _run(
        ["verify", "state", "--model", "dicke", "--n", "2", "--n-max", "12",
         "--lambda0", "1", "--t", "0.25,0.5", "--deltas", "1,2,3"],
        capsys,
    )
    assert code == 0
    rows = _data_lines(out)[1:]
    short = [r for r in rows if r.startswith("state_short,")]
    assert short and all("t=0.25" in r for r in short)
    assert all(",true," in r for r in rows)


def test_verify_all_takes_no_model_flags(capsys):
    """verify all runs fixed instances: its header names no model flag; one is refused."""
    code, out = _run(["verify", "all"], capsys)
    assert code == 0
    header = [ln[2:].split("=", 1)[0] for ln in out.splitlines() if ln.startswith("# ")]
    assert "g" not in header and "n_max" not in header and "model" not in header
    assert "format" in header and "seed" not in header
    assert cli.main(["verify", "all", "--g", "2"]) == 1
    assert "unrecognized arguments: --g 2" in capsys.readouterr().err
    assert cli.main(["verify", "all", "--seed", "9"]) == 1
    assert "unrecognized arguments: --seed 9" in capsys.readouterr().err


def _masked_json(argv, capsys):
    code, out = _run(argv + ["--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    i = payload["columns"].index("runtime_s")
    for row in payload["rows"]:
        row[i] = None
    return payload


def test_verify_all_is_four_fixed_commands(capsys):
    """verify all's rows are, in order, those of its four fixed verify commands."""
    fixed = [
        ["verify", "state", "--n-max", "48", "--t", "0.25"],
        ["verify", "ham", "--n-max", "48"],
        ["verify", "tail", "--model", "hh", "--n-max", "12", "--eps-list", "0.01,0.0001"],
        ["verify", "coherent", "--t", "0.5,1,2"],
    ]
    whole = _masked_json(["verify", "all"], capsys)
    parts = [_masked_json(argv, capsys) for argv in fixed]
    assert whole["rows"] == [row for part in parts for row in part["rows"]]
    assert len(whole["rows"]) == int(whole["config"]["reports"]) == 12


def test_unsound_report_exits_three(capsys, monkeypatch):
    from dataclasses import replace

    from truncert import verify

    real = verify.coherent_oracle_check

    def rigged(t_grid, tol=1e-12):
        return replace(real(t_grid, tol=tol), sound=False)

    monkeypatch.setattr(verify, "coherent_oracle_check", rigged)
    code, _ = _run(["verify", "coherent", "--t", "0.5"], capsys)
    assert code == 3


def test_verify_coherent_exits_zero(capsys):
    code, out = _run(["verify", "coherent", "--t", "0.5,1"], capsys)
    assert code == 0
    rows = _data_lines(out)
    assert rows[0].startswith("experiment,")
    assert rows[1].startswith("coherent_oracle,")
    assert ",true," in rows[1]


@pytest.mark.parametrize("argv, flag", [
    (["verify", "state", "--model", "single", "--n-max", "8", "--t", ","], "--t"),
    (["verify", "state", "--model", "single", "--n-max", "8", "--t", "0.2", "--deltas", ","],
     "--deltas"),
    (["verify", "trotter", "--model", "single", "--n-max", "8", "--taus", ","], "--taus"),
    (["verify", "tail", "--model", "single", "--n-max", "8", "--eps-list", ","], "--eps-list"),
    (["verify", "ham", "--model", "single", "--n-max", "40", "--lambda-tildes", ","],
     "--lambda-tildes"),
    (["threshold", "tail", "--model", "hh", "--lambda-bar", "0.3", "--gap", "0.5",
      "--eps-list", ","], "--eps-list"),
    (["verify", "state", "--model", "single", "--n-max", "8", "--t", ""], "--t"),
    (["verify", "state", "--model", "single", "--n-max", "8", "--t", "0.2", "--deltas", ""],
     "--deltas"),
    (["verify", "trotter", "--model", "single", "--n-max", "8", "--taus", ""], "--taus"),
    (["verify", "tail", "--model", "single", "--n-max", "8", "--eps-list", ""], "--eps-list"),
    (["verify", "ham", "--model", "single", "--n-max", "40", "--lambda-tildes", ""],
     "--lambda-tildes"),
    (["threshold", "tail", "--model", "hh", "--lambda-bar", "0.3", "--gap", "0.5",
      "--eps-list", ""], "--eps-list"),
    (["threshold", "state", "--model", "hh", "--lambda0", "4", "--t", " "], "--t"),
    (["compare", "--t", ""], "--t"),
], ids=["state-t", "state-deltas", "trotter-taus", "tail-eps", "ham-lambda-tildes",
        "threshold-tail-eps", "state-t-blank", "state-deltas-blank", "trotter-taus-blank",
        "tail-eps-blank", "ham-lambda-tildes-blank", "threshold-tail-eps-blank",
        "threshold-state-t-blank", "compare-t-blank"])
def test_empty_comma_list_is_refused(argv, flag, capsys):
    """A comma list with no values, blank text included, would run a check
    that tests nothing and exit 0; it is a usage error, one line, with no
    output, before any model is built."""
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.splitlines() == [
        f"truncert: error: argument {flag}: empty comma list {argv[-1]!r}"
    ]


def test_empty_config_value_is_refused(tmp_path, capsys):
    """A config line with no value (eps_list=) is refused before anything
    runs: one error line, no output."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("eps_list=\n")
    for argv in (["verify", "tail", "--model", "single", "--n-max", "8"],
                 ["threshold", "tail", "--model", "hh", "--lambda-bar", "0.3", "--gap", "0.5"]):
        code = cli.main(argv + ["--config", str(cfg)])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert err.splitlines() == ["truncert: config error: config line 'eps_list=' has no value"]


@pytest.mark.parametrize(
    "deltas, named", [("0,2", "0"), ("0", "0"), ("-3", "-3"), ("2,-1,0,3", "-1, 0")]
)
def test_verify_state_refuses_deltas_below_one(deltas, named, capsys):
    """A window growth below 1 is refused with one error line naming every
    such delta and no output, not dropped from the report."""
    argv = ["verify", "state", "--model", "single", "--n-max", "8", "--t", "0.2"]
    code = cli.main(argv + [f"--deltas={deltas}"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.splitlines() == [f"truncert: error: deltas must be >= 1, got {named}"]


def test_verify_coherent_accepts_tmax(capsys):
    code, out = _run(["verify", "coherent", "--tmax", "3", "--tpoints", "5"], capsys)
    assert code == 0
    rows = _data_lines(out)
    assert rows[1].startswith("coherent_oracle,")
    assert ",true," in rows[1]
    assert "t_grid=0.0,0.75,1.5,2.25,3.0" in rows[1]


def test_csv_cells_with_commas_are_quoted(capsys):
    import csv
    import io

    code, out = _run(["verify", "coherent", "--t", "0.5,1"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO("\n".join(_data_lines(out)))))
    header, data = rows[0], rows[1:]
    assert all(len(row) == len(header) for row in data)
    inputs = data[0][header.index("inputs")]
    assert "t_grid=0.5,1.0" in inputs


# ---------------------------------------------------------------------------
# each command's flags
# ---------------------------------------------------------------------------

_COMMON = {"--out", "--format", "--config"}
_PROFILE = {"--model", "--g", "--gb", "--n"}
_MODEL = _PROFILE | {"--gm", "--ge", "--omega0", "--omega-z", "--hop", "--u", "--mu",
                     "--sites", "--field-cap", "--n-max"}
_TIMES = {"--t", "--tmax", "--tpoints"}

#: Every command's flags: the ones it reads (a model flag counts if some
#: --model reads it) and the output flags.
_COMMAND_FLAGS = {
    "threshold state": _PROFILE | _TIMES | {"--lambda0", "--eps", "--delta-max"},
    "threshold ham": _MODEL | {"--lambda0", "--eps", "--t-single"},
    "threshold energy": {"--model", "--g", "--n", "--omega0", "--lambda0", "--eps", "--ef",
                         "--etotal"},
    "threshold tail": _PROFILE | {"--lambda-bar", "--gap", "--eps-list"},
    "compare": _TIMES | {"--g", "--omega0", "--n", "--lambda0", "--eps"},
    "verify state": _MODEL | _TIMES | {"--lambda0", "--deltas", "--windows"},
    "verify ham": _MODEL | {"--lambda0", "--t-single", "--lambda-tildes", "--check-padding"},
    "verify tail": _MODEL | {"--eps-list"},
    "verify trotter": _MODEL | {"--lambda0", "--p", "--taus"},
    "verify coherent": _TIMES,
    "verify all": set(),
    "sweep": {"--cmd", "--vary", "--set", "--max-rows"},
}


def _leaf_flags(parser, path=()):
    """{command words: its long flags} for every leaf command under parser."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {" ".join(path): {a.option_strings[-1] for a in parser._actions
                                 if a.option_strings and a.dest != "help"}}
    return {
        cmd: flags
        for action in subs
        for name, sub in action.choices.items()
        for cmd, flags in _leaf_flags(sub, path + (name,)).items()
    }


def test_each_command_takes_only_the_flags_it_reads():
    got = _leaf_flags(cli.build_parser())
    assert got == {cmd: flags | _COMMON for cmd, flags in _COMMAND_FLAGS.items()}
    assert sum(len(flags) for flags in got.values()) == 163


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "coherent", "--model", "hh"],
        ["verify", "tail", "--lambda0", "1"],
        ["verify", "state", "--taus", "0.1"],
        ["compare", "--model", "u1"],
        ["threshold", "state", "--sites", "3"],
        ["threshold", "energy", "--model", "single", "--gb", "3"],
    ],
)
def test_command_refuses_a_flag_it_does_not_read(argv, capsys):
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in captured.err
    assert captured.out == ""


# ---------------------------------------------------------------------------
# the profile flags of threshold state and threshold tail
# ---------------------------------------------------------------------------

_TAIL = ["--lambda-bar", "1", "--gap", "1"]


@pytest.mark.parametrize(
    "argv, refused",
    [
        (["threshold", "state", "--model", "hh", "--gb", "3", "--n", "7", "--t", "1"],
         "--model hh does not read --gb"),
        (["threshold", "state", "--n", "7", "--t", "1"], "--model single does not read --n"),
        (["threshold", "tail", "--model", "dicke", "--gb", "0"] + _TAIL,
         "--model dicke does not read --gb"),
        (["threshold", "tail", "--model", "u1", "--n", "100"] + _TAIL,
         "--model u1 does not read --n"),
        (["sweep", "--cmd", "threshold-state", "--set", "model=hh", "--vary", "gb=2,5",
          "--set", "t=1"], "--model hh does not read --gb"),
        (["sweep", "--cmd", "threshold-state", "--vary", "model=dicke,single",
          "--set", "n=7", "--set", "t=1"], "--model single does not read --n"),
    ],
)
def test_threshold_commands_refuse_a_profile_flag_the_model_does_not_read(
    argv, refused, capsys
):
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"truncert: error: {refused}\n"
    assert captured.out == ""


def test_profile_flag_from_a_config_file_is_refused_too(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model=hh\ngb=3\n")
    assert cli.main(["threshold", "state", "--t", "1", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "truncert: error: --model hh does not read --gb\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, echoed, rows",
    [
        (["threshold", "state", "--model", "u1", "--gb", "3", "--t", "1"],
         {"g=0.5", "gb=3.0"}, ["1.0,130,0.0011284722222222223,6"]),
        (["threshold", "state", "--model", "dicke", "--n", "7", "--t", "1"],
         {"g=0.5", "n=7"}, ["1.0,258,0.009463966914928701,7"]),
        (["threshold", "state", "--model", "u1", "--t", "1"], {"g=0.5", "gb=0.0"}, None),
        (["threshold", "state", "--model", "hh", "--t", "1"], {"g=0.5"}, None),
        (["threshold", "tail", "--model", "u1", "--gb", "3"] + _TAIL, {"g=0.5", "gb=3.0"},
         ["0.01,2669,8,0.2592962993483232,14.645769109270383,0.0068754709849578955",
          "0.0001,4970,9,0.20376938071382047,23.856781399707117,8.557414430721099e-05",
          "1e-06,8602,11,0.17330741018219498,33.06741937678345,7.261763679214906e-07"]),
        (["threshold", "tail", "--model", "dicke", "--n", "7"] + _TAIL, {"g=0.5", "n=7"},
         ["0.01,182888,12,0.2592962993483232,14.645769109270383,0.0077158088163306335",
          "0.0001,783372,15,0.20376938071382047,23.856781399707117,7.51138933496099e-05",
          "1e-06,1963442,17,0.17330741018219498,33.06741937678345,9.474869395362716e-07"]),
        (["threshold", "tail", "--model", "single"] + _TAIL, {"g=0.5"}, None),
    ],
)
def test_threshold_header_echoes_only_the_profile_flags_the_model_reads(
    argv, echoed, rows, capsys
):
    code, out = _run(argv, capsys)
    assert code == 0
    header = {ln[2:] for ln in out.splitlines()[1:] if ln.startswith("# ")}
    assert {h for h in header if h.split("=")[0] in ("g", "gb", "n")} == echoed
    if rows is not None:
        assert _data_lines(out)[1:] == rows


def test_sweep_over_a_profile_flag_the_model_reads(capsys):
    code, out = _run(
        ["sweep", "--cmd", "threshold-state", "--set", "model=dicke", "--vary", "n=2,5",
         "--set", "t=1"],
        capsys,
    )
    assert code == 0
    assert _data_lines(out) == [
        "n,t,lambda_ours,bound,delta",
        "2,1.0,78,0.0028611992998621655,7",
        "5,1.0,186,0.006822859868902086,7",
    ]



# ---------------------------------------------------------------------------
# the model flags of every model command
# ---------------------------------------------------------------------------

#: The model flags (dests) each hook of each model reads.
_READS = {
    "profile": {"single": {"g"}, "hh": {"g"}, "dicke": {"g", "n"}, "u1": {"g", "gb"}},
    "build": {
        "single": {"g", "omega0", "n_max"},
        "hh": {"sites", "hop", "u", "mu", "g", "omega0", "n_max"},
        "dicke": {"n", "omega0", "omega_z", "g", "n_max"},
        "u1": {"sites", "gm", "g", "ge", "field_cap"},
    },
    "energy": {"single": {"omega0"}, "hh": {"omega0", "g", "n", "ef", "etotal"}},
}
_MODEL_DESTS = {dest for by_model in _READS.values() for reads in by_model.values()
                for dest in reads}

#: Small builds, each from flags its model reads.
_SMALL = {"single": ["--n-max", "8"], "hh": ["--sites", "2", "--n-max", "4"],
          "dicke": ["--n", "2", "--n-max", "6"], "u1": ["--field-cap", "4"]}
_ALL_MODELS = ("single", "hh", "dicke", "u1")

#: command: (argv, the hook whose flags it reads, its models, small flags per model).
#: verify trotter also calls the trotter hook, which reads a subset of the builder's flags.
_MODEL_COMMANDS = {
    "threshold state": (["threshold", "state", "--t", "0.5"], "profile", _ALL_MODELS, {}),
    "threshold tail": (["threshold", "tail"] + _TAIL + ["--eps-list", "0.01"], "profile",
                       _ALL_MODELS, {}),
    "threshold energy": (["threshold", "energy"], "energy", ("single", "hh"), {}),
    "threshold ham": (["threshold", "ham", "--t-single", "0.02", "--eps", "0.3"], "build",
                      _ALL_MODELS, _SMALL),
    "verify state": (["verify", "state", "--t", "0.1", "--deltas", "2"], "build",
                     _ALL_MODELS, _SMALL),
    "verify ham": (["verify", "ham", "--lambda-tildes", "6"], "build", ("single",), _SMALL),
    "verify tail": (["verify", "tail", "--eps-list", "0.01"], "build", _ALL_MODELS, _SMALL),
    "verify trotter": (["verify", "trotter", "--taus", "0.1"], "build", ("single", "hh"),
                       {"single": ["--n-max", "14"], "hh": ["--sites", "1", "--n-max", "14"]}),
}
_PAIRS = [(cmd, model) for cmd, spec in _MODEL_COMMANDS.items() for model in spec[2]]


def _model_argv(command, model):
    argv, _, _, small = _MODEL_COMMANDS[command]
    return argv + ["--model", model] + small.get(model, [])


def _unread_flag(command, model):
    """The first model flag the command takes that --model does not read, or None."""
    _, hook, _, _ = _MODEL_COMMANDS[command]
    taken = {f for f in _leaf_flags(cli.build_parser())[command]
             if f[2:].replace("-", "_") in _MODEL_DESTS}
    unread = sorted(taken - {"--" + d.replace("_", "-") for d in _READS[hook][model]})
    return unread[0] if unread else None


def test_model_flag_table_covers_every_hook():
    assert set(cli._MODEL_FLAGS) == _MODEL_DESTS
    for hook, by_model in _READS.items():
        for name, model in cli._MODELS.items():
            fn = model.get(hook)
            reads = set(fn.__code__.co_varnames[: fn.__code__.co_argcount]) if fn else None
            assert (reads & _MODEL_DESTS if fn else None) == by_model.get(name)


@pytest.mark.parametrize("command, model", _PAIRS)
def test_model_command_header_echoes_exactly_the_model_flags_it_reads(
    command, model, capsys
):
    code = cli.main(_model_argv(command, model))
    captured = capsys.readouterr()
    assert code == 0, captured.err
    header = {ln[2:].split("=", 1)[0] for ln in captured.out.splitlines()[1:]
              if ln.startswith("# ")}
    assert header & _MODEL_DESTS == _READS[_MODEL_COMMANDS[command][1]][model]
    assert "model" in header


@pytest.mark.parametrize("command, model", _PAIRS)
def test_model_command_refuses_an_unread_model_flag_from_every_source(
    command, model, tmp_path, capsys
):
    flag = _unread_flag(command, model)
    if flag is None:  # hh's energy baseline reads every flag threshold energy takes
        assert (command, model) == ("threshold energy", "hh")
        return
    refused = f"truncert: error: --model {model} does not read {flag}\n"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{flag[2:]}=3\n")
    runs = [
        _model_argv(command, model) + [flag, "3"],
        _model_argv(command, model) + ["--config", str(cfg)],
    ]
    if command in ("threshold state", "threshold energy"):
        runs.append(["sweep", "--cmd", command.replace(" ", "-"), "--set", f"model={model}",
                     "--vary", f"{flag[2:]}=3,4"])
    for argv in runs:
        assert cli.main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.err == refused
        assert captured.out == ""


@pytest.mark.parametrize(
    "argv, refused",
    [
        # the u1 builder fixes the magnetic weight at 0
        (["threshold", "ham", "--model", "u1", "--gb", "5"], "--model u1 does not read --gb"),
        # the single-mode energy baseline does not read the coupling
        (["sweep", "--cmd", "threshold-energy", "--set", "model=single",
          "--vary", "g=0.5,1,2"], "--model single does not read --g"),
        (["verify", "state", "--model", "single", "--sites", "5", "--n-max", "8",
          "--t", "0.2"], "--model single does not read --sites"),
    ],
)
def test_inert_model_flags_are_refused(argv, refused, capsys):
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"truncert: error: {refused}\n"
    assert captured.out == ""


def test_unsupported_model_error_comes_before_a_refusal(capsys):
    assert cli.main(["verify", "ham", "--model", "u1", "--n-max", "8"]) == 1
    assert capsys.readouterr().err == (
        "truncert: error: the hamiltonian-truncation suite runs on --model single\n"
    )
    assert cli.main(["verify", "trotter", "--model", "dicke", "--sites", "3"]) == 1
    assert capsys.readouterr().err == (
        "truncert: error: the trotter suite runs on --model single or hh\n"
    )


def test_config_equals_form_reads_the_file(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("eps=0.5\n")
    outs = [
        _run(["threshold", "state", "--t", "1"] + form, capsys)
        for form in (["--config", str(cfg)], [f"--config={cfg}"], [])
    ]
    assert [code for code, _ in outs] == [0, 0, 0]
    spaced, equals, plain = (out for _, out in outs)
    assert _data_lines(equals) == _data_lines(spaced) != _data_lines(plain)
    assert _data_lines(equals)[1].startswith("1.0,1,0.35355")
    assert f"# config={cfg}" in equals.splitlines()


def _parsers(parser):
    """parser and every subparser under it."""
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _parsers(sub)


def test_flag_prefixes_are_not_flags(tmp_path, capsys):
    """No parser takes a prefix for a flag: --conf FILE once stood for
    --config FILE, whose file then went unread under a header echoing it.
    A prefix is a usage error, one line; --config still reads the file."""
    assert all(p.allow_abbrev is False for p in _parsers(cli.build_parser()))
    cfg = tmp_path / "c.cfg"
    cfg.write_text("eps=0.5\n")
    for argv, named in (
        (["threshold", "state", "--t", "1", "--conf", str(cfg)], f"--conf {cfg}"),
        (["verify", "state", "--n-m", "8"], "--n-m 8"),
    ):
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"truncert: error: unrecognized arguments: {named}\n"
    code, out = _run(["threshold", "state", "--t", "1", "--config", str(cfg)], capsys)
    assert code == 0
    assert _data_lines(out) == ["t,lambda_ours,bound,delta", "1.0,1,0.35355339059327373,2"]


@pytest.mark.parametrize(
    "argv, have, need",
    [
        (["--model", "u1"], "--field-cap 1", "--field-cap 4"),
        (["--model", "u1", "--lambda0", "2"], "--field-cap 1", "--field-cap 6"),
        (["--model", "hh", "--lambda0", "13"], "--n-max 16", "--n-max 17"),
    ],
)
def test_threshold_ham_default_cutoff_without_a_window_names_its_flag(argv, have, need, capsys):
    """threshold ham searches lambda0 + 2 .. cutoff - 2.  A default cutoff
    with no window there (u1's --field-cap 1 at its default --lambda0 0
    among them) exits 1 naming the model's cutoff flag and the smallest
    value that leaves one, which then runs the search; a given cutoff with
    no window stays the search's guard error."""
    lambda0 = argv[argv.index("--lambda0") + 1] if "--lambda0" in argv else "0"
    assert cli.main(["threshold", "ham", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"truncert: error: the default {have} leaves no window to search at "
        f"--lambda0 {lambda0}; give {need} or more\n"
    )
    flag, value = need.split()
    assert cli.main(["threshold", "ham", *argv, flag, value, "--format", "json"]) in (0, 2)
    assert "leaves no window" not in capsys.readouterr().err
    assert cli.main(["threshold", "ham", *argv, flag, str(int(value) - 1)]) == 2
    assert "search starts at" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command", [["threshold", "ham"], ["verify", "state"], ["verify", "tail"]]
)
def test_dicke_build_at_the_default_n_names_the_flag(command, capsys, monkeypatch):
    """--n defaults to the hh energy baseline's 100 sites, a 2^100-fold spin
    space: a Dicke build needs --n given, and without it exits 1 naming the
    flag before any model is built.  The profile still takes the default."""
    from truncert import models

    def no_build(*args):
        raise AssertionError("a model was built")

    monkeypatch.setattr(models, "dicke", no_build)
    refused = "truncert: error: --model dicke needs --n for this command; give --n\n"
    for argv in ([*command, "--model", "dicke"], [*command, "--model", "dicke", "--n-max", "6"]):
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == refused
        assert captured.out == ""
    code, out = _run(["threshold", "state", "--model", "dicke", "--t", "1"], capsys)
    assert code == 0
    assert "# n=100" in out.splitlines()
    assert _data_lines(out) == ["t,lambda_ours,bound,delta", "1.0,6400,0.005187624172458306,9"]
