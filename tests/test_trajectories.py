"""Trajectory file formats."""

import json
import re

import numpy as np
import pytest

from catl import monitor
from catl.trajectories import (
    IndividualTrajectory,
    NonFiniteError,
    TeamMember,
    TeamTrajectory,
    load_team_csv,
    load_team_json,
    save_team_csv,
    save_team_json,
)

from generators import TEAM_CAPS


def test_team_csv_round_trip_is_bitwise_exact(tmp_path):
    rng = np.random.default_rng(7)
    members = []
    for j, caps in enumerate(TEAM_CAPS):
        states = rng.normal(size=(6, 2))
        members.append(TeamMember(j, IndividualTrajectory(states, np.diff(states, axis=0)), caps))
    team = TeamTrajectory(members)
    save_team_csv(team, tmp_path / "team.csv")
    loaded = load_team_csv(tmp_path / "team.csv")
    assert len(loaded.members) == len(team.members)
    for before, after in zip(team.members, loaded.members):
        assert after.agent_id == before.agent_id
        assert after.capabilities == before.capabilities
        assert after.trajectory.states.tobytes() == before.trajectory.states.tobytes()
        assert after.trajectory.controls.tobytes() == before.trajectory.controls.tobytes()


def _edited_csv(tmp_path, edit) -> str:
    """A saved two-agent, four-step CSV with controls, one row edited."""
    rng = np.random.default_rng(8)
    members = []
    for j, caps in enumerate(TEAM_CAPS[:2]):
        states = rng.normal(size=(4, 2))
        members.append(TeamMember(j, IndividualTrajectory(states, np.diff(states, axis=0)), caps))
    path = tmp_path / "team.csv"
    save_team_csv(TeamTrajectory(members), path)
    lines = path.read_text().splitlines()  # header, then rows t = 0..3 of agents 0 and 1
    edit(lines)
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _drop_row(k):
    return lambda lines: lines.pop(k)


def _set_controls(k, controls):
    def edit(lines):
        lines[k] = ",".join(lines[k].split(",")[:4] + controls)
    return edit


@pytest.mark.parametrize("edit, fault", [
    (_drop_row(6), "agent 1: non-contiguous time steps"),
    (_set_controls(8, ["0.5", "0.5"]), "agent 1 has a control on its last row at time 3"),
    (_set_controls(4, ["", ""]), "agent 1 has no control at time 1"),
], ids=["missing_time", "control_on_last_row", "missing_control"])
def test_csv_row_faults_name_the_file_agent_and_time(tmp_path, edit, fault):
    path = _edited_csv(tmp_path, edit)
    with pytest.raises(ValueError) as err:
        load_team_csv(path)
    assert str(err.value) == f"{path}: {fault}"


def test_non_finite_states_and_controls_are_rejected():
    assert monitor.NonFiniteError is NonFiniteError
    states = np.zeros((4, 2))
    bad_states = states.copy()
    bad_states[2, 1] = np.nan
    with pytest.raises(NonFiniteError, match=r"states hold 1 non-finite.*\(2, 1\)"):
        IndividualTrajectory(bad_states)
    bad_states[2, 1] = np.inf
    with pytest.raises(NonFiniteError, match="states"):
        IndividualTrajectory(bad_states)
    # NaN controls once passed the dynamics check, since NaN > tol is False
    bad_controls = np.zeros((3, 2))
    bad_controls[1, 0] = np.nan
    with pytest.raises(NonFiniteError, match=r"controls hold 1 non-finite.*\(1, 0\)"):
        IndividualTrajectory(states, bad_controls)


def test_a_one_state_trajectory_with_no_controls_has_no_step_to_check():
    # a horizon-0 rollout's team holds (1, 2) states and (0, 2) controls
    x = IndividualTrajectory(np.ones((1, 2)), np.zeros((0, 2)))
    assert x.last_time == 0 and x.controls.shape == (0, 2)
    with pytest.raises(ValueError, match="violate"):
        IndividualTrajectory(np.zeros((2, 2)), np.ones((1, 2)))


def robot_team() -> TeamTrajectory:
    return TeamTrajectory([TeamMember(1, IndividualTrajectory(np.zeros((3, 2))),
                                      frozenset({"Robot"}))])


def test_csv_capabilities_must_be_a_list_of_names(tmp_path):
    save_team_csv(robot_team(), tmp_path / "t.csv")
    caps = tmp_path / "t.caps.json"
    for value in ("Robot", [1], None):
        caps.write_text(json.dumps({"1": value}))
        with pytest.raises(ValueError, match=f"^{caps}: agent 1: capabilities are "):
            load_team_csv(tmp_path / "t.csv")
    caps.write_text(json.dumps({"1": ["Robot"]}))
    assert load_team_csv(tmp_path / "t.csv").members[0].capabilities == {"Robot"}


def test_json_capabilities_must_be_a_list_of_names(tmp_path):
    path = tmp_path / "t.json"
    save_team_json(robot_team(), path)
    doc = json.loads(path.read_text())
    for value in ("Robot", [1], None):
        doc["agents"][0]["capabilities"] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=fr"^{path}: agents\[0\]: capabilities are "):
            load_team_json(path)
    doc["agents"][0]["capabilities"] = ["Robot"]
    path.write_text(json.dumps(doc))
    assert load_team_json(path).members[0].capabilities == {"Robot"}


@pytest.mark.parametrize("key, value, why", [
    ("id", "one", "'id' is 'one', want an integer"),
    ("id", 1.5, "'id' is 1.5, want an integer"),
    ("id", True, "'id' is True, want an integer"),
    ("states", [[0, 0], [0, "a"], [0, 0]], "could not convert string to float: 'a'"),
    ("states", [[0, 0], [0], [0, 0]], "setting an array element with a sequence"),
    ("controls", [[0, 0], ["b", 0]], "could not convert string to float: 'b'"),
    ("controls", [[0, 0]], "controls must be (H, 2)=(2, 2), got (1, 2)"),
], ids=["str_id", "float_id", "bool_id", "str_state", "ragged_states", "str_control",
        "short_controls"])
def test_json_team_entry_faults_name_the_file_and_agent(key, value, why, tmp_path):
    path = tmp_path / "t.json"
    save_team_json(robot_team(), path)
    doc = json.loads(path.read_text())
    doc["agents"][0][key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}: agents[0]: {why}")):
        load_team_json(path)
