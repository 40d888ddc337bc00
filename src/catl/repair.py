"""Team trajectory repair: make a violating trajectory satisfy the spec.

Clauses of the negation-free DNF are attempted from most to least robust.
Within a clause, every timed task not satisfied by a margin (holder count
<= required count) is assigned to its top agents by inner robustness; agents
violating an assigned task are flagged and re-synthesized one at a time, each
synthesis targeting the conjunction of everything assigned to that agent.
After each single-agent repair, tasks whose holder count dropped to exactly
the required count are re-assigned to their satisfying agents so later
repairs cannot break them. A verdict of success additionally requires the
full-formula monitor check to pass on the final trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dnf import DnfForm, clause_formula, to_dnf
from .formulas import OuterFormula, TimedTask
from .monitor import count, inner_rho, inner_sat, outer_rho, outer_sat
from .scenario import Scenario
from .synth import synthesize_conjunction, warm_start_weights
from .trajectories import TeamTrajectory


def sort_desc(values) -> list[int]:
    """Indices ordering the values largest to smallest; ties by ascending index."""
    vals = [float(v) for v in values]
    return sorted(range(len(vals)), key=lambda i: (-vals[i], i))


@dataclass
class RepairBudget:
    """Per-synthesis iterations and restarts, and the base synthesis seed."""

    synth_iterations: int = 300
    synth_restarts: int = 4
    seed: int = 0


@dataclass
class SynthLog:
    clause: int
    agent_id: int
    pinned: int
    success: bool
    robustness: float


@dataclass
class RepairState:
    """Per-clause working state (assignments index tasks of that clause)."""

    assignments: dict[int, set[int]]
    flags: dict[int, bool]
    working: TeamTrajectory


@dataclass
class RepairOutcome:
    trajectory: TeamTrajectory
    controls: dict[int, np.ndarray]
    verdict: str  # "success" | "fail"
    clause: int | None
    robustness: float
    syntheses: list[SynthLog] = field(default_factory=list)
    repaired_agents: list[int] = field(default_factory=list)
    count_trace: list[dict] = field(default_factory=list)

    @property
    def success(self) -> bool:
        return self.verdict == "success"


def _controls_of(team: TeamTrajectory, repaired: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
    out = {}
    for m in team.members:
        if m.agent_id in repaired:
            out[m.agent_id] = repaired[m.agent_id]
        elif m.trajectory.controls is not None:
            out[m.agent_id] = m.trajectory.controls
        else:
            out[m.agent_id] = m.trajectory.controls_from_states()
    return out


def repair(
    X: TeamTrajectory,
    Phi: OuterFormula,
    scenario: Scenario,
    budget: RepairBudget | None = None,
    dnf: DnfForm | None = None,
) -> RepairOutcome:
    """Attempt to repair X to satisfy Phi; sound but not complete."""
    budget = budget or RepairBudget()
    phi = scenario.bind_spec(Phi)
    if dnf is None:
        dnf = to_dnf(phi, scenario.jc_sizes())
    horizon_steps = X.last_time
    u_max = {a.agent_id: np.asarray(a.u_max) for a in scenario.agents}

    clause_rhos = [outer_rho(X, clause_formula(c), 0) for c in dnf.clauses]
    order = sort_desc(clause_rhos)

    syntheses: list[SynthLog] = []
    count_trace: list[dict] = []
    best: tuple[float, TeamTrajectory, dict, list[int]] | None = None

    for k in order:
        clause = dnf.clauses[k]
        state = RepairState(
            assignments={m.agent_id: set() for m in X.members},
            flags={m.agent_id: False for m in X.members},
            working=X.copy(),
        )
        # holder counts of every atom on the current working team; it changes
        # only when a synthesis replaces a member
        counts = _counts(state.working, clause)
        _assign_tasks(state, clause, counts)
        flagged = sorted(j for j, f in state.flags.items() if f)

        repaired_controls: dict[int, np.ndarray] = {}
        clause_ok = True
        for j in flagged:
            member = state.working.member(j)
            pins = [(clause[i].time, clause[i].task.inner)
                    for i in sorted(state.assignments[j])]
            w_init = warm_start_weights(
                member.trajectory.controls
                if member.trajectory.controls is not None
                else member.trajectory.controls_from_states(),
                u_max[j],
            )
            res = synthesize_conjunction(
                member.trajectory.states[0],
                pins,
                horizon_steps,
                u_max[j],
                iterations=budget.synth_iterations,
                restarts=budget.synth_restarts,
                seed=budget.seed + 1000 * k + j,
                w_init=w_init,
            )
            syntheses.append(SynthLog(k, j, len(pins), res.success, res.robustness))
            if not res.success:
                clause_ok = False
                break
            state.working = state.working.replace(j, res.trajectory)
            repaired_controls[j] = res.controls
            counts_after = _counts(state.working, clause)
            count_trace.append({"clause": k, "agent": j, "before": counts, "after": counts_after})
            counts = counts_after
            _reassign_exact(state, clause, counts)

        final_rho = outer_rho(state.working, phi, 0)
        if clause_ok and outer_sat(state.working, phi, 0):
            return RepairOutcome(
                trajectory=state.working,
                controls=_controls_of(state.working, repaired_controls),
                verdict="success",
                clause=k,
                robustness=final_rho,
                syntheses=syntheses,
                repaired_agents=sorted(repaired_controls),
                count_trace=count_trace,
            )
        if best is None or final_rho > best[0]:
            best = (final_rho, state.working, repaired_controls, sorted(repaired_controls))

    if best is None:  # empty DNF: nothing to try
        return RepairOutcome(X.copy(), _controls_of(X, {}), "fail", None,
                             outer_rho(X, phi, 0), syntheses, [], count_trace)
    rho, working, repaired_controls, repaired_ids = best
    return RepairOutcome(
        trajectory=working,
        controls=_controls_of(working, repaired_controls),
        verdict="fail",
        clause=None,
        robustness=rho,
        syntheses=syntheses,
        repaired_agents=repaired_ids,
        count_trace=count_trace,
    )


def _counts(team: TeamTrajectory, clause: tuple[TimedTask, ...]) -> list[int]:
    """Holder count of every atom of the clause on the team."""
    return [count(team, a.task.cap, a.task.inner, a.time) for a in clause]


def _assign_tasks(state: RepairState, clause: tuple[TimedTask, ...], counts: list[int]) -> None:
    """Assign every not-just-satisfied task to its top holders, flagging violators.
    ``counts`` holds the clause's holder counts on ``state.working``."""
    for i, atom in enumerate(clause):
        task, t = atom.task, atom.time
        if counts[i] > task.count:
            continue
        holders = state.working.with_capability(task.cap.name)
        rhos = [inner_rho(m.trajectory, task.inner, t) for m in holders]
        assigned = 0
        for idx in sort_desc(rhos):
            member = holders[idx]
            state.assignments[member.agent_id].add(i)
            if not inner_sat(member.trajectory, task.inner, t):
                state.flags[member.agent_id] = True
            assigned += 1
            if assigned == task.count:
                break


def _reassign_exact(state: RepairState, clause: tuple[TimedTask, ...], counts: list[int]) -> None:
    """After one agent's repair, pin tasks now satisfied by exactly their count.
    ``counts`` holds the clause's holder counts on ``state.working``."""
    for i, atom in enumerate(clause):
        task, t = atom.task, atom.time
        if counts[i] != task.count:
            continue
        for member in state.working.with_capability(task.cap.name):
            if inner_sat(member.trajectory, task.inner, t):
                state.assignments[member.agent_id].add(i)
