"""Team and individual trajectories plus their on-disk formats.

CSV form: header ``t,agent,x0,x1[,u0,u1]`` with one row per (time, agent),
plus a sidecar JSON mapping agent id to its capability list. The single-file
JSON form embeds both.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DYNAMICS_TOL = 1e-9


class NonFiniteError(ValueError):
    """States or controls hold NaN or infinite coordinates."""


def _check_finite(name: str, values: np.ndarray) -> None:
    bad = np.argwhere(~np.isfinite(values))
    if len(bad):
        raise NonFiniteError(
            f"{name} hold {len(bad)} non-finite values, first at (t, coordinate) "
            f"{tuple(int(i) for i in bad[0])}"
        )


@dataclass
class IndividualTrajectory:
    """States x(0..H) in the plane; optional controls u(0..H-1).

    Every coordinate must be finite. When controls are present the
    single-integrator update x(t+1) = x(t) + u(t) must hold to within 1e-9.
    """

    states: np.ndarray
    controls: np.ndarray | None = None

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=np.float64)
        if self.states.ndim != 2 or self.states.shape[1] != 2:
            raise ValueError(f"states must be (H+1, 2), got {self.states.shape}")
        _check_finite("states", self.states)
        if self.controls is not None:
            self.controls = np.asarray(self.controls, dtype=np.float64)
            if self.controls.shape != (len(self.states) - 1, 2):
                raise ValueError(
                    f"controls must be (H, 2)={len(self.states) - 1, 2}, got {self.controls.shape}"
                )
            _check_finite("controls", self.controls)
            err = np.abs(self.states[1:] - self.states[:-1] - self.controls).max(initial=0.0)
            if err > DYNAMICS_TOL:
                raise ValueError(f"controls violate x(t+1)=x(t)+u(t) by {err:.3e}")

    def __len__(self) -> int:
        return len(self.states)

    @property
    def last_time(self) -> int:
        return len(self.states) - 1

    def controls_from_states(self) -> np.ndarray:
        return self.states[1:] - self.states[:-1]


@dataclass
class TeamMember:
    agent_id: int
    trajectory: IndividualTrajectory
    capabilities: frozenset[str]

    def __post_init__(self):
        self.capabilities = frozenset(self.capabilities)


@dataclass
class TeamTrajectory:
    """Every agent's trajectory with its capability set, keyed by agent id."""

    members: list[TeamMember] = field(default_factory=list)

    def __post_init__(self):
        ids = [m.agent_id for m in self.members]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate agent ids: {sorted(ids)}")
        lengths = {len(m.trajectory) for m in self.members}
        if len(lengths) > 1:
            raise ValueError(f"members disagree on trajectory length: {sorted(lengths)}")
        self.members.sort(key=lambda m: m.agent_id)

    def __len__(self) -> int:
        return len(self.members[0].trajectory) if self.members else 0

    @property
    def last_time(self) -> int:
        return len(self) - 1

    @property
    def agent_ids(self) -> list[int]:
        return [m.agent_id for m in self.members]

    def member(self, agent_id: int) -> TeamMember:
        for m in self.members:
            if m.agent_id == agent_id:
                return m
        raise KeyError(f"no agent {agent_id}")

    def with_capability(self, cap_name: str) -> list[TeamMember]:
        """Members holding the capability, in ascending agent-id order."""
        return [m for m in self.members if cap_name in m.capabilities]

    def replace(self, agent_id: int, trajectory: IndividualTrajectory) -> "TeamTrajectory":
        members = [
            TeamMember(m.agent_id, trajectory if m.agent_id == agent_id else m.trajectory,
                       m.capabilities)
            for m in self.members
        ]
        return TeamTrajectory(members)

    def copy(self) -> "TeamTrajectory":
        return TeamTrajectory([
            TeamMember(
                m.agent_id,
                IndividualTrajectory(
                    m.trajectory.states.copy(),
                    None if m.trajectory.controls is None else m.trajectory.controls.copy(),
                ),
                m.capabilities,
            )
            for m in self.members
        ])


# -- file formats -----------------------------------------------------------


def read_json(path: str | Path):
    """The JSON document in the file at path; ValueError naming the file
    unless its text is JSON."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from None


def require_keys(entry, keys: tuple[str, ...], where: str) -> None:
    """ValueError naming where unless entry is an object holding every key."""
    missing = [k for k in keys if not isinstance(entry, dict) or k not in entry]
    if missing:
        raise ValueError(f"{where} lacks {missing}")


def capability_set(value, where: str) -> frozenset[str]:
    """A capability list as a set; ValueError naming where unless it is a
    list of names."""
    if not isinstance(value, list) or not all(isinstance(c, str) for c in value):
        raise ValueError(f"{where}: capabilities are {value!r}, want a list of names")
    return frozenset(value)


def save_team_csv(team: TeamTrajectory, csv_path: str | Path,
                  caps_path: str | Path | None = None) -> None:
    csv_path = Path(csv_path)
    has_controls = all(m.trajectory.controls is not None for m in team.members)
    header = ["t", "agent", "x0", "x1"] + (["u0", "u1"] if has_controls else [])
    with csv_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t in range(len(team)):
            for m in team.members:
                # repr of a Python float is the shortest text float() reads back exactly
                row = [t, m.agent_id, *map(repr, m.trajectory.states[t].tolist())]
                if has_controls:
                    if t < m.trajectory.last_time:
                        row += map(repr, m.trajectory.controls[t].tolist())
                    else:
                        row += ["", ""]
                writer.writerow(row)
    if caps_path is None:
        caps_path = csv_path.with_suffix(".caps.json")
    caps = {str(m.agent_id): sorted(m.capabilities) for m in team.members}
    Path(caps_path).write_text(json.dumps(caps, indent=1, sort_keys=True) + "\n")


def load_team_csv(csv_path: str | Path, caps_path: str | Path | None = None) -> TeamTrajectory:
    csv_path = Path(csv_path)
    if caps_path is None:
        caps_path = csv_path.with_suffix(".caps.json")
    caps_doc = read_json(caps_path)
    states: dict[int, dict[int, list[float]]] = {}
    controls: dict[int, dict[int, list[float]]] = {}
    with csv_path.open() as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or reader.fieldnames[:4] != ["t", "agent", "x0", "x1"]:
            raise ValueError(f"{csv_path}: expected header t,agent,x0,x1[,u0,u1]")
        has_controls = "u0" in reader.fieldnames
        for row in reader:
            where = f"{csv_path}: line {reader.line_num}"
            if None in row or None in row.values():
                raise ValueError(f"{where}: want {len(reader.fieldnames)} fields")
            try:
                t, j = int(row["t"]), int(row["agent"])
                x = [float(row["x0"]), float(row["x1"])]
                u = [float(row["u0"]), float(row["u1"])] if has_controls and row["u0"] else None
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            if t in states.setdefault(j, {}):
                raise ValueError(f"{where}: repeats time {t} of agent {j}")
            states[j][t] = x
            if u is not None:
                controls.setdefault(j, {})[t] = u
    members = []
    for j in sorted(states):
        times = sorted(states[j])
        if times != list(range(len(times))):
            raise ValueError(f"{csv_path}: agent {j}: non-contiguous time steps")
        xs = np.array([states[j][t] for t in times])
        us = None
        if has_controls:  # a control on every row of an agent but its last
            given = controls.get(j, {})
            for t in times:
                if (t in given) != (t < times[-1]):
                    fault = "no control" if t < times[-1] else "a control on its last row"
                    raise ValueError(f"{csv_path}: agent {j} has {fault} at time {t}")
            us = np.array([given[t] for t in times[:-1]]) if len(times) > 1 else None
        if not isinstance(caps_doc, dict) or str(j) not in caps_doc:
            raise ValueError(f"{caps_path}: no capabilities for agent {j}")
        members.append(TeamMember(j, IndividualTrajectory(xs, us),
                                  capability_set(caps_doc[str(j)], f"{caps_path}: agent {j}")))
    return TeamTrajectory(members)


def save_team_json(team: TeamTrajectory, path: str | Path) -> None:
    doc = {
        "agents": [
            {
                "id": m.agent_id,
                "capabilities": sorted(m.capabilities),
                "states": m.trajectory.states.tolist(),
                **(
                    {"controls": m.trajectory.controls.tolist()}
                    if m.trajectory.controls is not None
                    else {}
                ),
            }
            for m in team.members
        ]
    }
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def load_team_json(path: str | Path) -> TeamTrajectory:
    doc = read_json(path)
    agents = doc.get("agents") if isinstance(doc, dict) else None
    if not isinstance(agents, list):
        raise ValueError(f"{path}: want a JSON object with an 'agents' list")
    members = []
    for k, entry in enumerate(agents):
        where = f"{path}: agents[{k}]"
        require_keys(entry, ("id", "capabilities", "states"), where)
        if type(entry["id"]) is not int:
            raise ValueError(f"{where}: 'id' is {entry['id']!r}, want an integer")
        try:
            controls = np.array(entry["controls"], dtype=float) if "controls" in entry else None
            trajectory = IndividualTrajectory(np.array(entry["states"], dtype=float), controls)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{where}: {exc}") from None
        members.append(TeamMember(entry["id"], trajectory,
                                  capability_set(entry["capabilities"], where)))
    return TeamTrajectory(members)
