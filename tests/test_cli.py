import argparse
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import aslyap as al
from aslyap import cli, fields, simulate
from aslyap.cli import main

from conftest import MODELS

ROT = str(MODELS / "rotational.model")
ROT_TEXT = (MODELS / "rotational.model").read_text()
LIN = str(MODELS / "linear1d.model")
UNSTABLE = str(MODELS / "unstable1d.model")
UNSTABLE2D = str(MODELS / "unstable2d.model")


def _runs(tmp_path):
    return str(tmp_path / "runs")


def test_check_passes_on_rotational(tmp_path, capsys):
    assert main(["check", "--model", ROT, "--grid", "41", "--out", _runs(tmp_path)]) == 0
    run = next((tmp_path / "runs").iterdir())
    report = json.loads((run / "report.json").read_text())
    assert report["all_pass"] is True
    assert (run / "report.csv").exists()
    assert (run / "manifest.json").exists()
    # the cell centres are checked as well
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("checked 1670 nodes: 0 failing")
    assert out[1].startswith("checked 1588 cell centres: 0 failing")
    report = json.loads((run / "report_staggered.json").read_text())
    assert report["all_pass"] is True and report["n_pass"] == 1588
    assert (run / "report_staggered.csv").exists()


def test_check_fails_on_unstable(tmp_path):
    assert main(["check", "--model", UNSTABLE, "--grid", "41",
                 "--out", _runs(tmp_path)]) == 1
    run = next((tmp_path / "runs").iterdir())
    report = json.loads((run / "report.json").read_text())
    assert report["n_fail"] > 0


def test_check_fails_a_candidate_that_passes_only_at_the_nodes(tmp_path):
    # sin(50 pi x1)^3 and its first two derivatives vanish at every node of the 101^2
    # grid, but not at the cell centres, where the candidate fails the decrease
    wavy = tmp_path / "wavy.model"
    wavy.write_text(ROT_TEXT.replace(
        "V = sqrt(x1^2 + x2^2)", "V = sqrt(x1^2 + x2^2) + 0.01*sin(157.07963267948966*x1)^3"))
    assert main(["check", "--model", str(wavy), "--grid", "101",
                 "--out", _runs(tmp_path)]) == 1
    run = next((tmp_path / "runs").iterdir())
    nodes = json.loads((run / "report.json").read_text())
    centres = json.loads((run / "report_staggered.json").read_text())
    assert nodes["all_pass"] is True and nodes["n_pass"] == 10192
    assert centres["all_pass"] is False and centres["n_fail"] == 4594


def test_check_missing_candidate_is_config_error(tmp_path):
    bare = tmp_path / "bare.model"
    bare.write_text(
        "[dimensions]\nstate = 1\nnoise = 1\n[controls]\nhold = 0\n"
        "[dynamics]\nf1 = -x1\n[domain]\nlower = -1\nupper = 1\n"
    )
    assert main(["check", "--model", str(bare), "--out", _runs(tmp_path)]) == 2


@pytest.mark.parametrize("term, reason", [
    ("(1/0)*x1^2", "constant 1/0 cannot be evaluated: float division by zero"),
    ("0^(-1)*x1", "constant 0^(-1) cannot be evaluated"),
    ("10^400*x1", "constant 10^400 cannot be evaluated"),
    ("(-1)^0.5*x1", "constant (-1)^0.5 is not a real number"),
    ("1e400*x1", "syntax error: number 1e400 overflows a float"),
])
def test_constant_without_float_value_is_model_error(tmp_path, capsys, term, reason):
    # constants are evaluated in Python floats, where these raise or turn complex
    bad = tmp_path / "bad.model"
    bad.write_text(
        "[dimensions]\nstate = 1\nnoise = 1\n[controls]\nhold = 0\n"
        f"[dynamics]\nf1 = -x1 + {term}\n[candidate]\nV = x1^2\n"
        "[domain]\nlower = -1\nupper = 1\n"
    )
    assert main(["check", "--model", str(bad), "--grid", "21", "--out", _runs(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"line 7: {reason}" in err and "internal error" not in err
    assert not (tmp_path / "runs").exists()


def test_missing_model_file_is_config_error(tmp_path):
    assert main(["check", "--model", "nope.model", "--out", _runs(tmp_path)]) == 2


def test_unreadable_model_file_is_config_error(tmp_path, capsys):
    binary = tmp_path / "binary.model"
    binary.write_bytes(b"\xff\xfe\x00")
    for path in (tmp_path, binary):
        assert main(["check", "--model", str(path), "--out", _runs(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: cannot read model file {path}")
    assert not (tmp_path / "runs").exists()


def test_unknown_flag_is_config_error(tmp_path):
    assert main(["check", "--model", ROT, "--bogus", "1"]) == 2


@pytest.mark.parametrize("argv", [
    ["simulate", "--x0", "0.5,0", "-T", "0.01", "--paths", "2"],
    ["gauge", "--radii", "0.2", "-T", "0.01", "--paths", "2"],
    ["pipeline", "--grid", "21"],
])
def test_negative_seed_is_config_error(tmp_path, capsys, argv):
    assert main([*argv, "--model", ROT, "--seed", "-1", "--out", _runs(tmp_path)]) == 2
    assert "--seed must be nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["simulate", "--x0", "0.5,0", "--seed", str(2**64)], "--seed"),
    (["simulate", "--x0", "0.5,0", "--thin", "-1"], "--thin"),
    (["simulate", "--x0", "0.5,0", "--paths", "0"], "--paths"),
    (["simulate", "--x0", "0.5,0", "--dt", "0"], "--dt"),
    (["simulate", "--x0", "0.5,0", "-T", "-1"], "-T"),
    (["simulate", "--x0", "0.5,0", "-T", "inf"], "-T"),
    (["gauge", "--radii", "0.2", "--dt", "-0.001"], "--dt"),
    (["gauge", "--radii", "0.2", "--paths", "0"], "--paths"),
    (["gauge", "--radii", "0.2", "-T", "nan"], "-T"),
    (["pipeline", "--sim-dt", "nan"], "--sim-dt"),
    (["pipeline", "-T", "0"], "-T"),
    (["pipeline", "--paths", "0"], "--paths"),
    (["gauge", "--radii", "0.2,0.1,0.2"], "--radii"),
    (["gauge", "--radii", "0.2,-0.1"], "--radii"),
    (["gauge", "--radii", "0.2,nan"], "--radii"),
    (["gauge", "--radii", "0.2,0.4", "--dt", "1e-3", "-T", "4e-4"], "-T"),
    (["simulate", "--x0", "0.5,0", "-T", "5e-4"], "-T"),
    (["pipeline", "--paths", "20", "-T", "4e-4"], "-T"),
    (["pipeline", "--build-gauge", "--gauge-horizon", "-1"], "--gauge-horizon"),
    (["pipeline", "--gauge-horizon", "nan"], "--gauge-horizon"),
    (["pipeline", "--build-gauge", "--sim-dt", "0.01", "--gauge-horizon", "0.004"],
     "--gauge-horizon"),
    (["simulate", "--x0", "nan,0"], "--x0"),
    (["simulate", "--x0", "0.5,0", "--paths", "2", "--dt", "1e-200", "-T", "1"], "-T"),
    (["simulate", "--x0", "0.5,0", "--paths", "2", "--dt", "1e-320", "-T", "1"], "-T"),
    (["simulate", "--x0", "0.5,x"], "--x0"),
    (["gauge", "--radii", "0.2,x"], "--radii"),
    (["gauge", "--radii", "0.2", "--seed", str(2**64)], "--seed"),
])
def test_bad_ensemble_flags_are_config_errors(tmp_path, capsys, argv, flag):
    assert main([*argv, "--model", ROT, "--out", _runs(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {flag} must be ")
    assert not (tmp_path / "runs").exists()  # rejected before any run directory


@pytest.mark.parametrize("argv, flag, dt_flag", [
    (["simulate", "--x0", "0.5,0", "--paths", "2", "--dt", "2e-19", "-T", "1"], "-T", "--dt"),
    # 5e17 steps fit one start's timeline but not the three of --radii
    (["gauge", "--radii", "0.1,0.2,0.3", "--paths", "2", "--dt", "2e-18", "-T", "1"],
     "-T", "--dt"),
    (["pipeline", "--build-gauge", "--sim-dt", "1e-18", "-T", "1e-18",
      "--gauge-horizon", "2"], "--gauge-horizon", "--sim-dt"),
    # nor the three start radii that the pipeline's simulate stage steps in one batch
    (["pipeline", "--sim-dt", "1", "-T", "5e17"], "-T", "--sim-dt"),
])
def test_timeline_too_big_for_an_array_is_config_error(tmp_path, capsys, argv, flag, dt_flag):
    assert main([*argv, "--model", ROT, "--out", _runs(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {flag} must be ")
    assert f"{dt_flag} steps once rounded, with a timeline of " in err
    assert not (tmp_path / "runs").exists()  # rejected before any run directory


@pytest.mark.parametrize("argv, flag", [
    (["value", "sup", "--dt", "-1"], "--dt"),
    (["value", "sup", "--dt", "nan"], "--dt"),
    (["value", "integral", "--dt", "inf"], "--dt"),
    (["value", "sup", "--cap", "0"], "--cap"),
    (["value", "sup", "--cap", "nan"], "--cap"),
    (["value", "sup", "--tol", "-1"], "--tol"),
    (["value", "discounted", "--tol", "nan"], "--tol"),
    (["value", "discounted", "--lambda", "-1"], "--lambda"),
    (["value", "discounted", "--lambda", "inf"], "--lambda"),
    (["value", "discounted", "--theta", "0"], "--theta"),
    (["value", "discounted", "--theta", "nan"], "--theta"),
    (["pipeline", "--dt", "-1"], "--dt"),
    (["pipeline", "--dt", "nan"], "--dt"),
    (["pipeline", "--cap", "0"], "--cap"),
    (["pipeline", "--cap", "inf"], "--cap"),
    (["check", "--eps-tan", "-1"], "--eps-tan"),
    (["check", "--tol", "nan"], "--tol"),
    (["viability", "--mu", "nan"], "--mu"),
    (["viability", "--mu", "5"], "--mu"),
    (["pipeline", "--supermax-tol", "nan"], "--supermax-tol"),
    (["pipeline", "--build-gauge", "--gauge-levels", "-1"], "--gauge-levels"),
    (["value", "discounted", "--cap", "1.5"], "--cap"),
    (["value", "sup", "--lambda", "-1"], "--lambda"),
])
def test_bad_value_flags_are_config_errors(tmp_path, capsys, argv, flag):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([*argv, "--model", ROT, "--grid", "21", "--out", _runs(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {flag} must be ")
    assert not (tmp_path / "runs").exists()  # rejected before any run directory


def _subcommands() -> dict:
    parser = cli.build_parser()
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


# the least each subcommand needs beside --model and the flag under test
_REQUIRED = {"check": ["check"], "value": ["value", "sup"],
             "simulate": ["simulate", "--x0", "0.5,0"], "gauge": ["gauge", "--radii", "0.2"],
             "viability": ["viability", "--mu", "0.5"], "pipeline": ["pipeline"]}


def test_every_numeric_flag_has_exactly_one_check():
    assert set(_subcommands()) == set(_REQUIRED)
    for name, sp in _subcommands().items():
        checked = [dest for _, dest, _ in sp.get_default("checks")]
        numeric = [a.dest for a in sp._actions if a.type in (float, int)]
        assert numeric and sorted(checked) == sorted(numeric), name


@pytest.mark.parametrize("command, flag", [
    (name, flag) for name, sp in _subcommands().items()
    for flag, _, _ in sp.get_default("checks")
])
def test_every_checked_flag_rejects_a_bad_value(tmp_path, capsys, command, flag):
    action = next(a for a in _subcommands()[command]._actions if flag in a.option_strings)
    argv = [*_REQUIRED[command], "--model", ROT, "--out", _runs(tmp_path), flag]
    assert main([*argv, "nan"]) == 2
    if action.type is int:  # argparse refuses nan for an int; every int rule refuses -1
        assert f"argument {'/'.join(action.option_strings)}: invalid int value: 'nan'" \
            in capsys.readouterr().err
        assert main([*argv, "-1"]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {flag} must be ")
    assert not (tmp_path / "runs").exists()  # rejected before any run directory


def test_readme_lists_the_rule_of_every_checked_flag():
    # README's list of flag rules names exactly the flags that some subcommand checks
    text = (MODELS.parent / "README.md").read_text()
    rules = text.split("\nEvery numeric flag has one rule", 1)[1].split("\n\n")[1]
    assert all(line.startswith(("- ", "  ")) for line in rules.splitlines())
    named = set(re.findall(r"`(-{1,2}[A-Za-z][\w-]*)`", rules))
    checked = {flag for sp in _subcommands().values() for flag, _, _ in sp.get_default("checks")}
    assert named == checked


def test_negative_integral_gauge_is_config_error(tmp_path, capsys):
    model = tmp_path / "negative_l.model"
    model.write_text(ROT_TEXT.replace("l = 0.5*r", "l = r - 0.5"))
    assert main(["value", "integral", "--model", str(model), "--grid", "21",
                 "--out", _runs(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: l in the [candidate] section of ")
    assert "must be nonnegative on the grid, got -0.5" in err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("argv", [["value", "sup"], ["value", "discounted"], ["pipeline"]])
def test_grid_must_hold_the_origin(tmp_path, capsys, argv):
    assert main([*argv, "--model", ROT, "--grid", "0:1:21,0:1:21",
                 "--out", _runs(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: the grid (--grid, else the model's [domain]) must hold the origin")
    assert not (tmp_path / "runs").exists()


def test_value_sup_writes_field(tmp_path):
    assert main(["value", "sup", "--model", LIN, "--grid", "81",
                 "--out", _runs(tmp_path)]) == 0
    run = next((tmp_path / "runs").iterdir())
    grid = al.Grid((-1.0,), (1.0,), (81,))
    fld = al.ScalarField.from_csv((run / "field.csv").read_text(), grid)
    r = np.abs(grid.nodes()[:, 0])
    mask = r <= 0.8
    assert np.abs(fld.flat - r)[mask].max() <= 0.05
    sidecar = json.loads((run / "field.json").read_text())
    assert sidecar["converged"] is True


def test_value_field_keeps_its_fill_on_a_round_trip(tmp_path):
    assert main(["value", "sup", "--model", ROT, "--grid", "11",
                 "--out", _runs(tmp_path)]) == 0
    run = next((tmp_path / "runs").iterdir())
    grid = al.Grid((-1.0, -1.0), (1.0, 1.0), (11, 11))
    fill = json.loads((run / "field.json").read_text())["fill"]
    from_csv = al.ScalarField.from_csv((run / "field.csv").read_text(), grid, fill=fill)
    from_binary = al.ScalarField.from_binary(from_csv.to_binary(), fill=fill)
    off_grid = np.array([[1.5, 0.0]])
    for fld in (from_csv, from_binary):
        assert fld.value(off_grid).tolist() == [1.0]  # the solve's cap
    # without the sidecar's fill, a field reads NaN off the grid as before
    assert np.isnan(al.ScalarField.from_binary(from_csv.to_binary()).value(off_grid)).all()


@pytest.mark.parametrize("kind", ["sup", "integral", "discounted"])
def test_value_sidecar_cap_is_the_fill(tmp_path, kind):
    # the cap a discounted solve saturates at is its own, not its scheme's
    assert main(["value", kind, "--model", ROT, "--grid", "21", "--out", _runs(tmp_path)]) == 0
    run = next((tmp_path / "runs").iterdir())
    sidecar = json.loads((run / "field.json").read_text())
    assert sidecar["cap"] == sidecar["fill"]


def test_value_discounted_rejects_bad_lambda(tmp_path):
    assert main(["value", "discounted", "--model", ROT, "--lambda", "-1",
                 "--out", _runs(tmp_path)]) == 2
    assert main(["value", "discounted", "--model", ROT, "--theta", "0",
                 "--grid", "21", "--out", _runs(tmp_path)]) == 2


def test_value_integral_needs_gauge(tmp_path):
    assert main(["value", "integral", "--model", UNSTABLE,
                 "--out", _runs(tmp_path)]) == 2


def _prop_set_per_row(prop_mask):
    """The row-by-row writer of ``prop_set.csv`` that ``cmd_value`` replaced."""
    lines = ["index,in_prop_set"] + [f"{i},{int(v)}" for i, v in enumerate(prop_mask)]
    return "\n".join(lines) + "\n"


def test_value_discounted_writes_prop_set(tmp_path):
    assert main(["value", "discounted", "--model", ROT, "--grid", "31",
                 "--cap", "0.6", "--dt", "0.01", "--out", _runs(tmp_path)]) == 0
    run = next((tmp_path / "runs").iterdir())
    text = (run / "prop_set.csv").read_text()
    lines = text.splitlines()
    assert lines[0] == "index,in_prop_set"
    flags = np.array([int(l.split(",")[1]) for l in lines[1:]])
    assert flags.sum() > 0
    # the set is {W <= theta}, theta = 10 dt by default
    fld = al.ScalarField.from_csv((run / "field.csv").read_text(),
                                  al.Grid((-1.0, -1.0), (1.0, 1.0), (31, 31)))
    theta = 10.0 * json.loads((run / "field.json").read_text())["dt"]
    assert text == _prop_set_per_row(fld.flat <= theta)


def test_simulate_reproducible_runs(tmp_path):
    args = ["simulate", "--model", ROT, "--x0", "0.5,0", "--dt", "1e-3",
            "-T", "0.5", "--paths", "40", "--seed", "7", "--out", _runs(tmp_path)]
    assert main(args) == 0
    runs = sorted((tmp_path / "runs").iterdir())
    assert len(runs) == 1
    first = (runs[0] / "ensemble.csv").read_bytes()
    assert main(args) == 0  # same config hashes to the same directory
    runs = sorted((tmp_path / "runs").iterdir())
    assert len(runs) == 1
    assert (runs[0] / "ensemble.csv").read_bytes() == first
    manifest = json.loads((runs[0] / "ensemble.json").read_text())
    assert manifest["seed"] == 7 and manifest["n_paths"] == 40
    assert manifest["integrator"] == "milstein"


def test_simulate_thin_writes_paths(tmp_path):
    assert main(["simulate", "--model", ROT, "--x0", "0.4,0", "--dt", "1e-2",
                 "-T", "0.1", "--paths", "2", "--thin", "5",
                 "--out", _runs(tmp_path)]) == 0
    run = next((tmp_path / "runs").iterdir())
    assert (run / "paths.csv").read_text().splitlines()[0] == "t,x1,x2,path"


def test_gauge_command(tmp_path):
    assert main(["gauge", "--model", ROT, "--radii", "0.2,0.4", "--paths", "60",
                 "-T", "3", "--out", _runs(tmp_path)]) == 0
    run = next((tmp_path / "runs").iterdir())
    gauges = json.loads((run / "gauges.json").read_text())
    assert gauges["stabilizability"]["consistent"] is True
    assert gauges["decay"]["kappa"] == pytest.approx(0.5, abs=0.15)
    assert gauges["integrator"] == "milstein"


def _two_forked_chunks(monkeypatch):
    """Step every batch in two chunks, the second in a forked child; the pids forked."""
    monkeypatch.setattr(simulate, "_MIN_CHUNK_PATHS", 1)
    monkeypatch.setattr(simulate, "_SPLIT_PATHS", 1)
    monkeypatch.setattr(fields, "_cpus", lambda: 2)  # no core left for a producer
    made, fork = [], os.fork

    def spy():
        pid = fork()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return made


def test_dead_ensemble_process_is_an_internal_error(tmp_path, monkeypatch, capsys):
    forks = _two_forked_chunks(monkeypatch)
    chunk = simulate._simulate_chunk
    # the second chunk, stepped by the forked child, kills its process
    monkeypatch.setattr(simulate, "_simulate_chunk",
                        lambda *a: os._exit(9) if a[4] else chunk(*a))
    assert main(["simulate", "--model", ROT, "--x0", "0.5,0", "--paths", "2", "-T", "0.01",
                 "--out", _runs(tmp_path)]) == 3
    assert len(forks) == 1
    assert ("internal error: RuntimeError: the process stepping ensemble chunk(s) 1 died "
            "without a result (wait status 2304)") in capsys.readouterr().err


def test_gauge_decay_batch_equals_separate_ensembles(tmp_path, monkeypatch):
    forks = _two_forked_chunks(monkeypatch)
    argv = ["gauge", "--model", ROT, "--radii", "0.1,0.2,0.3,0.4", "--paths", "30",
            "-T", "1", "--seed", "3"]
    assert main([*argv, "--out", str(tmp_path / "batch")]) == 0
    assert len(forks) == 1
    used = []

    def separate(model, x0s, dt, T, n_paths, seeds, **kw):
        used.extend(seeds)
        return [al.simulate_ensemble(model, x0, dt, T, n_paths, s, **kw)
                for x0, s in zip(x0s, seeds)]

    monkeypatch.setattr(cli, "_simulate_batch", separate)
    assert main([*argv, "--out", str(tmp_path / "alone")]) == 0
    assert used == [1003, 1004, 1005, 1006]
    batch, alone = (next((tmp_path / d).iterdir()) / "gauges.json" for d in ("batch", "alone"))
    assert batch.read_bytes() == alone.read_bytes()


@pytest.mark.parametrize("candidate", [True, False])
def test_pipeline_batch_equals_separate_ensembles(tmp_path, monkeypatch, candidate):
    forks = _two_forked_chunks(monkeypatch)  # the chunk bound cuts the second ensemble
    model = tmp_path / "rot.model"
    # without a [candidate], the paths track the value field
    model.write_text(ROT_TEXT if candidate else
                     ROT_TEXT.replace("[candidate]\nV = sqrt(x1^2 + x2^2)\nl = 0.5*r\n", ""))
    assert candidate or "[candidate]" not in model.read_text()
    argv = ["pipeline", "--model", str(model), "--grid", "21", "--paths", "20", "-T", "1",
            "--sim-dt", "2e-3", "--seed", "8"]
    assert main([*argv, "--out", str(tmp_path / "batch")]) == 0
    assert len(forks) == 1
    used = []

    def separate(model, x0s, dt, T, n_paths, seeds, **kw):
        used.append(([float(x0[0]) for x0 in x0s], list(seeds)))
        return [al.simulate_ensemble(model, x0, dt, T, n_paths, s, **kw)
                for x0, s in zip(x0s, seeds)]

    monkeypatch.setattr(cli, "_simulate_batch", separate)
    assert main([*argv, "--out", str(tmp_path / "alone")]) == 0
    assert used == [([0.25, 0.4, 0.55], [8, 9, 10])]
    batch, alone = (next((tmp_path / d).iterdir()) for d in ("batch", "alone"))
    files = sorted(f.name for f in batch.iterdir())
    assert "pipeline.json" in files and files == sorted(f.name for f in alone.iterdir())
    for name in files:
        assert (batch / name).read_bytes() == (alone / name).read_bytes(), name


def _batches(monkeypatch):
    """The (start points, seeds) of every batch of paths stepped from here on."""
    batches, batch = [], simulate._simulate_batch

    def spy(model, x0s, dt, T, n_paths, seeds, **kw):
        batches.append(([list(map(float, x0)) for x0 in x0s], list(seeds)))
        return batch(model, x0s, dt, T, n_paths, seeds, **kw)

    monkeypatch.setattr(simulate, "_simulate_batch", spy)
    monkeypatch.setattr(cli, "_simulate_batch", spy)
    return batches


def test_gauge_steps_each_start_point_once(tmp_path, monkeypatch):
    batches = _batches(monkeypatch)
    assert main(["gauge", "--model", ROT, "--radii", "0.3,0.1,0.2", "--paths", "20",
                 "-T", "1", "--seed", "4", "--out", _runs(tmp_path)]) == 0
    # one batch, by increasing radius, with the decay seeds; both fits read it
    assert batches == [([[0.1, 0.0], [0.2, 0.0], [0.3, 0.0]], [1004, 1005, 1006])]


def test_pipeline_steps_each_start_point_once(tmp_path, monkeypatch):
    batches = _batches(monkeypatch)
    assert main(["pipeline", "--model", ROT, "--grid", "21", "--paths", "20", "-T", "1",
                 "--sim-dt", "2e-3", "--seed", "5", "--out", _runs(tmp_path)]) == 0
    # the simulate stage's three ensembles in one batch; the gauge stage fits them
    assert batches == [([[0.25, 0.0], [0.4, 0.0], [0.55, 0.0]], [5, 6, 7])]
    run = next((tmp_path / "runs").iterdir())
    stages = json.loads((run / "pipeline.json").read_text())
    assert stages["gauge"]["stabilizability"] is True


@pytest.mark.parametrize("grid, reason", [
    ("abc", "invalid literal for int()"),
    ("2", "need at least 3 nodes per axis"),
    ("3", "check needs at least 4 nodes per axis"),
    ("1:-1:5,-1:1:5", "bounds must be finite with upper > lower"),
    ("21,21,21", "grid counts must match the state dimension"),
    ("0:1:5", "expected one lo:hi:n block per axis"),
    ("0:1,0:1", "expected one lo:hi:n block per axis"),
    ("0:1:x,0:1:5", "invalid literal for int()"),
])
def test_bad_grid_names_the_flag(tmp_path, capsys, grid, reason):
    assert main(["check", "--model", ROT, "--grid", grid, "--out", _runs(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: --grid {grid}: ") and reason in err
    assert not (tmp_path / "runs").exists()


def test_nan_domain_bound_is_config_error(tmp_path, capsys):
    bad = tmp_path / "nan.model"
    bad.write_text(ROT_TEXT.replace("lower = -1, -1", "lower = nan, -1"))
    assert main(["simulate", "--model", str(bad), "--x0", "0.5,0", "-T", "0.01",
                 "--paths", "10", "--out", _runs(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "upper bounds must exceed lower bounds, got lower = nan, -1" in err
    assert not (tmp_path / "runs").exists()


def test_infinite_domain_without_grid_asks_for_the_flag(tmp_path, capsys):
    unbounded = tmp_path / "unbounded.model"
    unbounded.write_text(
        "[dimensions]\nstate = 1\nnoise = 1\n[controls]\nhold = 0\n"
        "[dynamics]\nf1 = -x1\n[candidate]\nV = abs(x1)\nl = 0.5*r\n"
        "[domain]\nlower = -inf\nupper = inf\n"
    )
    assert main(["check", "--model", str(unbounded), "--out", _runs(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "[domain] lower = -inf, upper = inf" in err and "--grid" in err
    assert not (tmp_path / "runs").exists()


def test_negative_rho_names_the_flag(tmp_path, capsys):
    assert main(["check", "--model", ROT, "--rho=-1", "--out", _runs(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: --rho must be nonnegative")


def test_viability_command(tmp_path):
    assert main(["viability", "--model", ROT, "--grid", "81", "--mu", "0.5",
                 "--out", _runs(tmp_path)]) == 0
    assert main(["viability", "--model", UNSTABLE2D, "--grid", "81", "--mu", "0.5",
                 "--out", _runs(tmp_path)]) == 1
    assert main(["viability", "--model", ROT, "--grid", "41", "--mu", "99",
                 "--out", _runs(tmp_path)]) == 2  # level outside the field range


def test_pipeline_rotational(tmp_path):
    assert main(["pipeline", "--model", ROT, "--grid", "41", "--paths", "60",
                 "-T", "4", "--sim-dt", "2e-3", "--seed", "1",
                 "--out", _runs(tmp_path)]) == 0
    run = next((tmp_path / "runs").iterdir())
    stages = json.loads((run / "pipeline.json").read_text())
    for stage in ("value", "feedback", "simulate", "gauge", "supermaxingale",
                  "re_verify"):
        assert stage in stages
    assert stages["re_verify"]["band_pass_fraction"] >= 0.99
    assert stages["simulate"]["integrator"] == "milstein"
    assert (run / "sup_value.csv").exists() and (run / "feedback.csv").exists()


def test_supermaxingale_stage_checks_each_ensemble(tmp_path, monkeypatch):
    results, check = [], cli.check_supermaxingale

    def spy(ensemble, *args):
        results.append((float(ensemble.x0[0]), check(ensemble, *args)))
        return results[-1][1]

    monkeypatch.setattr(cli, "check_supermaxingale", spy)
    assert main(["pipeline", "--model", ROT, "--grid", "21", "--paths", "20", "-T", "1",
                 "--sim-dt", "2e-3", "--supermax-tol", "0.5", "--out", _runs(tmp_path)]) == 0
    # each ensemble against the threshold of its own start point's V(x0)
    assert [r for r, _ in results] == [0.25, 0.4, 0.55]
    assert [c.threshold for _, c in results] == pytest.approx([0.5 * (1 + r) for r, _ in results])
    stages = json.loads((next((tmp_path / "runs").iterdir()) / "pipeline.json").read_text())
    assert stages["supermaxingale"] == {"worst_excess": max(c.worst_excess for _, c in results),
                                        "passed": True}


def test_pipeline_without_candidate_tracks_the_value_field(tmp_path, monkeypatch):
    model = tmp_path / "no_candidate.model"
    model.write_text(ROT_TEXT.replace("[candidate]\nV = sqrt(x1^2 + x2^2)\nl = 0.5*r\n", ""))
    assert "[candidate]" not in model.read_text()
    candidates, check = [], cli.check_supermaxingale

    def spy(ensemble, candidate, *args):
        candidates.append(candidate)
        return check(ensemble, candidate, *args)

    monkeypatch.setattr(cli, "check_supermaxingale", spy)
    assert main(["pipeline", "--model", str(model), "--grid", "21", "--paths", "20", "-T", "1",
                 "--out", _runs(tmp_path)]) == 0
    # the ensembles track the sup value, read at the cap (the grid's radius) off the grid
    assert len(candidates) == 3 and all(isinstance(c, al.ScalarField) for c in candidates)
    assert candidates[0].name == "sup-value" and candidates[0].fill == 1.0
    stages = json.loads((next((tmp_path / "runs").iterdir()) / "pipeline.json").read_text())
    assert list(stages) == ["value", "feedback", "simulate", "gauge", "supermaxingale",
                            "re_verify"]
    assert stages["supermaxingale"] == {"worst_excess": pytest.approx(0.004431527941703539,
                                                                      rel=1e-9),
                                        "passed": True}


def test_python_m_aslyap_runs_the_cli():
    src = str(MODELS.parent / "src")
    done = subprocess.run([sys.executable, "-m", "aslyap", "--version"], capture_output=True,
                          text=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == al.__version__


def test_pipeline_fails_on_unstable(tmp_path):
    code = main(["pipeline", "--model", UNSTABLE2D, "--grid", "21", "--paths", "20",
                 "-T", "2", "--sim-dt", "2e-3", "--out", _runs(tmp_path)])
    assert code == 1


def test_pipeline_multi_cap_monotone(tmp_path):
    assert main(["pipeline", "--model", ROT, "--grid", "31", "--paths", "40",
                 "-T", "3", "--sim-dt", "2e-3", "--multi-cap",
                 "--out", _runs(tmp_path)]) == 0
    run = next((tmp_path / "runs").iterdir())
    stages = json.loads((run / "pipeline.json").read_text())
    assert stages["multi_cap"]["monotone_in_cap"] is True


def test_x0_of_wrong_length_is_config_error(tmp_path, capsys):
    assert main(["simulate", "--model", ROT, "--x0", "0.5", "--out", _runs(tmp_path)]) == 2
    assert "--x0 must have 2 component(s), got 1" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_internal_error_exits_3(tmp_path, monkeypatch, capsys):
    # a ValueError from inside a library call is a fault too, not a config error
    for error in (TypeError, ValueError):
        def broken(*args, **kwargs):
            raise error("boom")

        monkeypatch.setattr(cli, "simulate_ensemble", broken)
        assert main(["simulate", "--model", ROT, "--x0", "0.5,0", "-T", "0.01", "--paths", "2",
                     "--out", _runs(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == f"internal error: {error.__name__}: boom"
        assert "config error" not in err


def test_version_flag():
    assert main(["--version"]) == 0


def test_check_on_unbounded_domain_matches_bounded_model(tmp_path):
    # the candidate's finite-difference step no longer comes out infinite
    text = ("[dimensions]\nstate = 2\nnoise = 1\n[controls]\nhold = 0.0\n"
            "[dynamics]\nf1 = -x1\nf2 = -x2\ns1_1 = -x2\ns2_1 = x1\n"
            "[candidate]\nV = x1^2 + x2^2\nl = 0.5*r\n[domain]\n")
    reports = []
    for name, domain in (("bounded", "lower = -1, -1\nupper = 1, 1\n"),
                         ("unbounded", "lower = -inf, -inf\nupper = inf, inf\n")):
        path = tmp_path / f"{name}.model"
        path.write_text(text + domain)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["check", "--model", str(path), "--grid=-1:1:21,-1:1:21",
                         "--out", str(tmp_path / name)]) == 0
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], name
        run = next((tmp_path / name).iterdir())
        reports.append(((run / "report.json").read_text(), (run / "report.csv").read_text()))
    assert reports[0] == reports[1]
    assert json.loads(reports[1][0])["nonsmooth_candidate"] is False
