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
from catl.trajectories import IndividualTrajectory, TeamMember, TeamTrajectory, save_team_csv

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


# counts that crash training at 0 (stack of nothing, division or overflow), and
# stage lengths, which at 0 leave a stage untrained; --stages skips a stage
ZERO_COUNTS = ("m_samples", "n_rollouts", "tau_anneal_every", "eval_every", "val_states",
               "gate_states", "n_c", "hidden", "steps_a", "steps_b", "steps_c", "steps_e")


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
], ids=["unknown_key", "not_an_object", "str_for_int", "bool_for_int", "str_for_gamma",
        "zero_repair_restarts", "zero_repair_iterations",
        *(f"zero_{key}" for key in ZERO_COUNTS), "zero_tau", "negative_tau_start"])
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


@pytest.mark.parametrize("field", ["restarts", "iterations"])
def test_zero_synthesis_budget_exits_1(field, capsys):
    args = ["synth", "--scenario", "toy", "--agent", "1", "--formula", "F[0,10] in(Goal)",
            f"--{field}", "0"]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and field in captured.err


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
