"""Command-line entry points: exit codes and what they print."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import catl
from catl.cli import main
from catl.formulas import horizon, print_formula
from catl.scenario import BUILTIN_SCENARIOS, builtin
from catl.trajectories import (
    IndividualTrajectory, TeamMember, TeamTrajectory, save_team_csv, save_team_json,
)

NAMES = sorted(BUILTIN_SCENARIOS)


@pytest.mark.parametrize("name", NAMES)
def test_parse_inline_builtin_spec(name, capsys):
    # The case-study text is longer than a file name may be; it is still
    # read as an inline formula.
    _, phi, text = builtin(name)
    assert main(["parse", text, "--scenario", name]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [print_formula(phi), f"horizon: {horizon(phi)}"]


@pytest.mark.parametrize("name", NAMES)
def test_exported_scenario_parses_its_spec(name, tmp_path, capsys):
    _, phi, _ = builtin(name)
    assert main(["scenario", "--name", name, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    spec, scenario = tmp_path / "spec.catl", tmp_path / "scenario.json"
    assert main(["parse", str(spec), "--scenario", str(scenario)]) == 0
    assert f"horizon: {horizon(phi)}" in capsys.readouterr().out


@pytest.mark.parametrize("text", [
    "task(in(Goal), Robot, )",
    "task(in(Nowhere), Robot, 1)",
    "F[0,99] task(in(Goal), Robot, 1)",
    "in(Goal)",
], ids=["syntax", "unknown_region", "horizon", "inner_atom_at_team_level"])
def test_malformed_spec_exits_1(text, capsys):
    assert main(["parse", text, "--scenario", "toy"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


# Toy paths from Init to Goal. The second touches the Obs corner (2.5, 2.0):
# its robustness is 0, yet it violates "never in Obs".
AROUND_OBS = [(1, 1), (2, 1), (3, 1), (4, 1.5), (4.5, 2.5), (5, 3.5), (5, 4.5),
              (5, 5), (5, 5), (5, 5), (5, 5)]
TIED_ON_OBS_CORNER = [(1, 1), (1.8, 1.2), (2.5, 1.5), (2.5, 2.0), (3.5, 1.9), (4.2, 2.8),
                      (4.8, 3.7), (5, 4.6), (5, 5), (5, 5), (5, 5)]


@pytest.mark.parametrize("path, code, satisfied, rho", [
    (AROUND_OBS, 0, True, 0.5),
    (TIED_ON_OBS_CORNER, 2, False, 0.0),
], ids=["around_obstacle", "tied_on_obstacle_corner"])
def test_monitor_exit_code_follows_satisfaction(path, code, satisfied, rho, tmp_path, capsys):
    _, _, text = builtin("toy")
    states = np.array(path, dtype=float)
    team = TeamTrajectory([TeamMember(
        1, IndividualTrajectory(states, np.diff(states, axis=0)), frozenset({"Robot"}))])
    save_team_csv(team, tmp_path / "t.csv")
    args = ["monitor", "--scenario", "toy", "--spec", text, "--traj", str(tmp_path / "t.csv")]
    assert main(args) == code
    report = json.loads(capsys.readouterr().out)
    assert report["satisfied"] is satisfied
    assert report["robustness"] == pytest.approx(rho)


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_monitor_rejects_non_finite_states(value, tmp_path, capsys):
    _, _, text = builtin("toy")
    team = TeamTrajectory([TeamMember(
        1, IndividualTrajectory(np.array(AROUND_OBS, dtype=float)), frozenset({"Robot"}))])
    save_team_csv(team, tmp_path / "t.csv")
    lines = (tmp_path / "t.csv").read_text().splitlines()
    assert lines[4].startswith("3,1,")
    lines[4] = f"3,1,{value},1.5"
    (tmp_path / "t.csv").write_text("\n".join(lines) + "\n")
    args = ["monitor", "--scenario", "toy", "--spec", text, "--traj", str(tmp_path / "t.csv")]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "non-finite" in captured.err


@pytest.mark.parametrize("row, why", [
    ("3,1,0", "want 4 fields"),
    ("3,x,0,0", "invalid literal for int() with base 10: 'x'"),
    ("2,1,0,0", "repeats time 2 of agent 1"),
], ids=["short_row", "bad_cell", "repeated_row"])
def test_monitor_names_the_line_of_a_bad_csv_row(row, why, tmp_path, capsys):
    _, _, text = builtin("toy")
    team = TeamTrajectory([TeamMember(
        1, IndividualTrajectory(np.array(AROUND_OBS, dtype=float)), frozenset({"Robot"}))])
    path = tmp_path / "t.csv"
    save_team_csv(team, path)
    lines = path.read_text().splitlines()
    lines[4] = row
    path.write_text("\n".join(lines) + "\n")
    args = ["monitor", "--scenario", "toy", "--spec", text, "--traj", str(path)]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: line 5: {why}\n"


def test_eval_rejects_a_checkpoint_that_is_not_an_object(tmp_path, capsys):
    _, _, text = builtin("toy")
    params = tmp_path / "p.json"
    params.write_text("[1, 2]")
    args = ["eval", "--scenario", "toy", "--spec", text, "--params", str(params), "--trials", "2"]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {params}: ")


def test_monitor_names_caps_file_lacking_an_agent(tmp_path, capsys):
    _, _, text = builtin("toy")
    team = TeamTrajectory([TeamMember(
        1, IndividualTrajectory(np.array(AROUND_OBS, dtype=float)), frozenset({"Robot"}))])
    save_team_csv(team, tmp_path / "t.csv")
    caps = tmp_path / "t.caps.json"
    caps.write_text(json.dumps({"2": ["Robot"]}))
    args = ["monitor", "--scenario", "toy", "--spec", text, "--traj", str(tmp_path / "t.csv"),
            "--caps", str(caps)]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {caps}: no capabilities for agent 1\n"


def test_monitor_names_json_team_entry_lacking_states(tmp_path, capsys):
    _, _, text = builtin("toy")
    team = TeamTrajectory([TeamMember(
        1, IndividualTrajectory(np.array(AROUND_OBS, dtype=float)), frozenset({"Robot"}))])
    path = tmp_path / "t.json"
    save_team_json(team, path)
    doc = json.loads(path.read_text())
    del doc["agents"][0]["states"]
    path.write_text(json.dumps(doc))
    args = ["monitor", "--scenario", "toy", "--spec", text, "--traj", str(path)]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: agents[0] lacks ['states']\n"


@pytest.mark.parametrize("command", ["monitor", "repair"])
def test_json_team_with_a_string_id_is_named(command, tmp_path, capsys):
    _, _, text = builtin("toy")
    team = TeamTrajectory([TeamMember(
        1, IndividualTrajectory(np.array(AROUND_OBS, dtype=float)), frozenset({"Robot"}))])
    path = tmp_path / "t.json"
    save_team_json(team, path)
    doc = json.loads(path.read_text())
    doc["agents"][0]["id"] = "one"
    path.write_text(json.dumps(doc))
    args = [command, "--scenario", "toy", "--spec", text, "--traj", str(path)]
    if command == "repair":
        args += ["--out", str(tmp_path / "out")]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: agents[0]: 'id' is 'one', want an integer\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("option", ["--params", "--scenario", "--config", "--traj", "--caps"])
def test_file_that_is_not_json_is_named(option, tmp_path, capsys):
    _, _, text = builtin("toy")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    team = TeamTrajectory([TeamMember(
        1, IndividualTrajectory(np.array(AROUND_OBS, dtype=float)), frozenset({"Robot"}))])
    save_team_csv(team, tmp_path / "t.csv")
    args = {
        "--params": ["eval", "--scenario", "toy", "--spec", text, "--params", str(bad)],
        "--scenario": ["parse", text, "--scenario", str(bad)],
        "--config": ["train", "--scenario", "toy", "--spec", text, "--config", str(bad),
                     "--out", str(tmp_path / "out")],
        "--traj": ["monitor", "--scenario", "toy", "--spec", text, "--traj", str(bad)],
        "--caps": ["monitor", "--scenario", "toy", "--spec", text,
                   "--traj", str(tmp_path / "t.csv"), "--caps", str(bad)],
    }[option]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {bad}: not valid JSON: ")
    assert not (tmp_path / "out").exists()


def _without_regions(doc):
    del doc["regions"]
    return doc


def _short_u_max(doc):
    doc["agents"][0]["u_max"] = [1.0]
    return doc


def _with(key, value):
    return lambda doc: {**doc, key: value}


def _with_agent(key, value):
    def change(doc):
        doc["agents"][0][key] = value
        return doc
    return change


WANT_CORNERS = "want two [x, y] corners of finite numbers with min <= max"


@pytest.mark.parametrize("change, why", [
    (lambda doc: [1, 2], "{path}: scenario is a JSON list, want an object"),
    (_without_regions, "{path}: scenario lacks ['regions']"),
    (_short_u_max,
     "{path}: agents[0]: agent 1: control bounds are [1.0], want two positive finite numbers"),
    (_with_agent("u_max", [True, 1]),
     "{path}: agents[0]: agent 1: control bounds are [True, 1], want two positive finite numbers"),
    (_with_agent("id", "one"), "{path}: agents[0]: 'id' is 'one', want an integer"),
    (_with_agent("id", True), "{path}: agents[0]: 'id' is True, want an integer"),
    (_with_agent("capabilities", "Robot"),
     "{path}: agents[0]: capabilities are 'Robot', want a list of names"),
    (_with("capabilities", "Robot"), "{path}: capabilities are 'Robot', want a list of names"),
    (_with("workspace", 5), "{path}: 'workspace' is 5, " + WANT_CORNERS),
    (_with("workspace", [[0, 0], [6]]), "{path}: 'workspace' is [[0, 0], [6]], " + WANT_CORNERS),
    (_with("horizon", "ten"), "{path}: 'horizon' is 'ten', want an integer >= 1"),
    (_with("horizon", 2.5), "{path}: 'horizon' is 2.5, want an integer >= 1"),
], ids=["not_an_object", "no_regions", "short_u_max", "bool_u_max", "str_id", "bool_id",
        "str_agent_capabilities", "str_capabilities", "workspace_int", "workspace_short_corner",
        "horizon_str", "horizon_float"])
def test_parse_names_the_fault_in_a_scenario_file(change, why, tmp_path, capsys):
    assert main(["scenario", "--name", "toy", "--out", str(tmp_path)]) == 0
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(change(json.loads(path.read_text()))))
    capsys.readouterr()
    assert main(["parse", str(tmp_path / "spec.catl"), "--scenario", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: " + why.format(path=path) + "\n"


# counts that crash training at 0 (stack of nothing, division or overflow), and
# stage lengths, which at 0 leave a stage untrained; --stages skips a stage
ZERO_COUNTS = ("m_samples", "n_rollouts", "tau_anneal_every", "eval_every", "val_states",
               "gate_states", "n_c", "hidden", "steps_a", "steps_b", "steps_c", "steps_e",
               "gate_steps", "rounds_b")
NAN, INF = float("nan"), float("inf")  # json.dumps writes them as NaN and Infinity


@pytest.mark.parametrize("doc, why", [
    ({"steps_a": 1, "stepz_b": 1}, "unknown config keys ['stepz_b']"),
    (5, "config is int, want a JSON object"),
    ({"steps_a": "ten"}, "config key 'steps_a' is str, want int"),
    ({"steps_b": True}, "config key 'steps_b' is bool, want int"),
    ({"gamma": "1.0"}, "config key 'gamma' is str, want float | None"),
    ({"repair_restarts": 0}, "config key 'repair_restarts' is 0, want at least 1"),
    ({"repair_iterations": 0}, "config key 'repair_iterations' is 0, want at least 1"),
    *(({key: 0}, f"config key {key!r} is 0, want at least 1") for key in ZERO_COUNTS),
    ({"tau": 0.0}, "config key 'tau' is 0.0, want above 0"),
    ({"tau_start": -1.0}, "config key 'tau_start' is -1.0, want above 0"),
    ({"lr": NAN}, "config key 'lr' is nan, want a finite number"),
    ({"gamma": NAN}, "config key 'gamma' is nan, want a finite number"),
    ({"beta": INF}, "config key 'beta' is inf, want a finite number"),
    ({"tau": INF}, "config key 'tau' is inf, want a finite number"),
    ({"gate_eps_floor": NAN}, "config key 'gate_eps_floor' is nan, want a finite number"),
    ({"convergence_pp": -INF}, "config key 'convergence_pp' is -inf, want a finite number"),
    ({"gate_lr": -1}, "config key 'gate_lr' is -1, want above 0"),
    ({"gamma": -0.5}, "config key 'gamma' is -0.5, want at least 0"),
    ({"beta": 1.5}, "config key 'beta' is 1.5, want in [0, 1]"),
    ({"val_fraction": 2.0}, "config key 'val_fraction' is 2.0, want in [0, 1)"),
    ({"val_fraction": 1}, "config key 'val_fraction' is 1, want in [0, 1)"),
    ({"rounds_b": -3}, "config key 'rounds_b' is -3, want at least 1"),
    ({"seed": -1}, "config key 'seed' is -1, want at least 0"),
], ids=["unknown_key", "not_an_object", "str_for_int", "bool_for_int", "str_for_gamma",
        "zero_repair_restarts", "zero_repair_iterations",
        *(f"zero_{key}" for key in ZERO_COUNTS), "zero_tau", "negative_tau_start",
        "nan_lr", "nan_gamma", "inf_beta", "inf_tau", "nan_gate_eps_floor",
        "inf_convergence_pp", "negative_gate_lr", "negative_gamma", "beta_above_1",
        "val_fraction_2", "val_fraction_1", "negative_rounds_b", "negative_seed"])
def test_malformed_train_config_exits_1(doc, why, tmp_path, capsys):
    _, _, text = builtin("toy")
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(doc))
    args = ["train", "--scenario", "toy", "--spec", text, "--config", str(config),
            "--out", str(tmp_path / "out")]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {config}: {why}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["eval", "synth", "repair", "train"])
def test_negative_seed_exits_1(command, tmp_path, capsys):
    _, _, text = builtin("toy")
    out = ["--out", str(tmp_path / "out")]
    args = {
        "eval": ["eval", "--scenario", "toy", "--spec", text, "--params", "p.json"],
        "synth": ["synth", "--scenario", "toy", "--agent", "1", "--formula", "F[0,10] in(Goal)"],
        "repair": ["repair", "--scenario", "toy", "--spec", text, "--traj", "t.json", *out],
        "train": ["train", "--scenario", "toy", "--spec", text, *out],
    }[command]
    assert main(args + ["--seed", "-2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    # train's seed is a config key; the other commands name the flag
    assert captured.err.splitlines()[-1] == (
        "error: config key 'seed' is -2, want at least 0" if command == "train"
        else "error: argument --seed: '-2' is not an integer of at least 0")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field", ["restarts", "iterations"])
def test_zero_synthesis_budget_exits_1(field, capsys):
    args = ["synth", "--scenario", "toy", "--agent", "1", "--formula", "F[0,10] in(Goal)",
            f"--{field}", "0"]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and field in captured.err


@pytest.mark.parametrize("x0", ["1", "a,b", "nan,1"])
def test_bad_initial_state_exits_1(x0, capsys):
    args = ["synth", "--scenario", "toy", "--agent", "1", "--formula", "F[0,10] in(Goal)",
            "--x0", x0]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --x0 is {x0!r}, want two finite numbers x,y\n"


def test_unknown_stages_exit_1_before_training(tmp_path, capsys):
    _, _, text = builtin("toy")
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"steps_a": 2, "eval_every": 1, "val_states": 2}))
    out = tmp_path / "out"
    args = ["train", "--scenario", "toy", "--spec", text, "--config", str(config),
            "--out", str(out), "--stages", "axyz"]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "'xyz'" in captured.err
    assert not out.exists()


def test_cli_import_leaves_scipy_optimize_unloaded():
    # only imitation's agent matching needs scipy.optimize; it imports it lazily
    code = "import sys, catl.cli; print('scipy.optimize' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(catl.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout == "False\n"
