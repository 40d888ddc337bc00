"""Deterministic SVG/CSV rendering of workspaces, trajectories, and
communication masks. Hand-rolled SVG keeps the bytes reproducible."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .scenario import Scenario
from .trajectories import TeamTrajectory, save_team_csv

_REGION_FILL = {
    "R": "#9ecbff",
    "B": "#c8a165",
    "M": "none",
}
_DEFAULT_FILL = "#d8e8d0"
_AGENT_COLORS = [
    "#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
    "#e377c2", "#17becf",
]


def _svg_header(width: float, height: float) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect x="0" y="0" width="{width:.0f}" height="{height:.0f}" fill="white"/>',
    ]


def workspace_svg(
    scenario: Scenario,
    teams: list[tuple[TeamTrajectory, str]] | None = None,
    scale: float = 60.0,
) -> str:
    """Workspace map with regions and optional trajectory overlays.

    ``teams`` pairs a trajectory with a stroke style suffix ("" solid,
    "dashed" for overlays like pre-repair traces).
    """
    (x_lo, y_lo), (x_hi, y_hi) = scenario.workspace
    width = (x_hi - x_lo) * scale
    height = (y_hi - y_lo) * scale

    def sx(x: float) -> float:
        return (x - x_lo) * scale

    def sy(y: float) -> float:
        return height - (y - y_lo) * scale  # svg y grows downward

    parts = _svg_header(width, height)
    for name in sorted(scenario.regions):
        region = scenario.regions[name]
        fill = _REGION_FILL.get(name, _DEFAULT_FILL)
        for lo, hi in region.rects:
            parts.append(
                f'<rect x="{sx(lo[0]):.1f}" y="{sy(hi[1]):.1f}" '
                f'width="{(hi[0] - lo[0]) * scale:.1f}" '
                f'height="{(hi[1] - lo[1]) * scale:.1f}" '
                f'fill="{fill}" stroke="#555" stroke-width="1"/>'
            )
        cx, cy = region.center()
        parts.append(
            f'<text x="{sx(cx):.1f}" y="{sy(cy):.1f}" font-size="14" '
            f'text-anchor="middle" fill="#333">{name}</text>'
        )
    for team, style in teams or []:
        dash = ' stroke-dasharray="6,4"' if style == "dashed" else ""
        for idx, member in enumerate(team.members):
            color = _AGENT_COLORS[idx % len(_AGENT_COLORS)]
            pts = " ".join(
                f"{sx(p[0]):.1f},{sy(p[1]):.1f}" for p in member.trajectory.states
            )
            parts.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" '
                f'stroke-width="2"{dash}/>'
            )
            x0, y0 = member.trajectory.states[0]
            parts.append(
                f'<circle cx="{sx(x0):.1f}" cy="{sy(y0):.1f}" r="4" fill="{color}"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def comm_mask_svg(mask: np.ndarray, agent_ids: list[int], cell: float = 18.0) -> str:
    """(J, H) grid; filled squares mark channel participation."""
    n_agents, length = mask.shape
    margin = 40.0
    width = margin + length * cell + 10
    height = margin + n_agents * cell + 10
    parts = _svg_header(width, height)
    for j in range(n_agents):
        parts.append(
            f'<text x="{margin - 8:.1f}" y="{margin + j * cell + cell * 0.7:.1f}" '
            f'font-size="11" text-anchor="end" fill="#333">{agent_ids[j]}</text>'
        )
        for t in range(length):
            fill = "#2ca02c" if mask[j, t] else "white"
            parts.append(
                f'<rect x="{margin + t * cell:.1f}" y="{margin + j * cell:.1f}" '
                f'width="{cell:.1f}" height="{cell:.1f}" fill="{fill}" '
                f'stroke="#999" stroke-width="0.5"/>'
            )
    for t in range(0, length, 5):
        parts.append(
            f'<text x="{margin + t * cell + cell / 2:.1f}" y="{margin - 8:.1f}" '
            f'font-size="11" text-anchor="middle" fill="#333">{t}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def save_comm_mask_csv(mask: np.ndarray, agent_ids: list[int], path: str | Path) -> None:
    """CSV ``t,agent,comm`` for one rollout's (J, H) mask."""
    lines = ["t,agent,comm"]
    n_agents, length = mask.shape
    for t in range(length):
        for j in range(n_agents):
            lines.append(f"{t},{agent_ids[j]},{int(mask[j, t])}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_comm_mask_csv(path: str | Path) -> tuple[np.ndarray, list[int]]:
    """The (J, H) mask of a ``t,agent,comm`` CSV and its agent ids, ascending.
    ValueError naming the file on another header, no rows or a row that is
    not three integers with t >= 0 and comm 0 or 1."""
    header, *lines = Path(path).read_text().strip().splitlines() or [""]
    if header != "t,agent,comm":
        raise ValueError(f"{path}: header is {header!r}, want 't,agent,comm'")
    if not lines:
        raise ValueError(f"{path}: no rows after the header")
    rows = []
    for number, line in enumerate(lines, start=2):
        try:
            t, j, v = (int(field) for field in line.split(","))
        except ValueError:
            t = v = -1  # reported below, with the rows out of range
        if t < 0 or v not in (0, 1):
            raise ValueError(f"{path}: line {number} is {line!r}, "
                             "want integers t >= 0, agent and comm 0 or 1")
        rows.append((t, j, v))
    ids = sorted({j for _, j, _ in rows})
    mask = np.zeros((len(ids), max(t for t, _, _ in rows) + 1))
    for t, j, v in rows:
        mask[ids.index(j), t] = v
    return mask, ids


def emit_plots(
    out_dir: str | Path,
    scenario: Scenario,
    team: TeamTrajectory | None = None,
    comm_mask: np.ndarray | None = None,
    agent_ids: list[int] | None = None,
    overlay: TeamTrajectory | None = None,
) -> list[Path]:
    """Write map SVG (+ trajectories), comm grid SVG, and raw CSVs."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    teams = []
    if overlay is not None:
        teams.append((overlay, "dashed"))
    if team is not None:
        teams.append((team, ""))
    map_path = out / "map.svg"
    map_path.write_text(workspace_svg(scenario, teams))
    written.append(map_path)

    if team is not None:
        csv_path = out / "trajectory.csv"
        save_team_csv(team, csv_path)
        written.append(csv_path)

    if comm_mask is not None:
        ids = agent_ids if agent_ids is not None else list(range(1, len(comm_mask) + 1))
        comm_path = out / "comm.svg"
        comm_path.write_text(comm_mask_svg(np.asarray(comm_mask), ids))
        written.append(comm_path)
        comm_csv = out / "comm.csv"
        save_comm_mask_csv(np.asarray(comm_mask), ids, comm_csv)
        written.append(comm_csv)

    return written
