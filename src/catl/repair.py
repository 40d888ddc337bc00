"""Team trajectory repair: make a violating trajectory satisfy the spec.

Clauses of the negation-free DNF are attempted from most to least robust.
Each clause keeps a verdict table: whether each agent holds each timed
task's capability and satisfies its inner formula at its time. It is filled
with one ``inner_sat`` per (task, holder), and a synthesis recomputes only
its agent's verdicts; holder counts, violation flags and pins all read it.
Every timed task not satisfied by a margin (holder count <= required count)
is assigned to its top holders by inner robustness; agents violating an
assigned task are flagged and re-synthesized one at a time, each synthesis
targeting the conjunction of everything assigned to that agent. After each
single-agent repair, tasks whose holder count dropped to exactly the
required count are re-assigned to their satisfying agents so later repairs
cannot break them. A verdict of success additionally requires the
full-formula monitor check to pass on the final trajectory.

Each clause works on its own copy of the team, and a synthesis replaces the
agent's member in it, so the working team carries the repaired controls; the
outcome reads every agent's controls off the team it returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dnf import DnfForm, clause_formula, to_dnf
from .formulas import OuterFormula, TimedTask
# count is unused here but stays a module name: bench/tracing.py wraps repair.count
from .monitor import count, inner_rho, inner_sat, outer_rho, outer_sat  # noqa: F401
from .scenario import Scenario
from .synth import synthesize_conjunction, warm_start_weights
from .trajectories import TeamMember, TeamTrajectory


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


def _controls(member: TeamMember) -> np.ndarray:
    """The member's controls, or its state differences when it has none."""
    traj = member.trajectory
    return traj.controls if traj.controls is not None else traj.controls_from_states()


def repair(
    X: TeamTrajectory,
    Phi: OuterFormula,
    scenario: Scenario,
    budget: RepairBudget,
    dnf: DnfForm | None = None,
) -> RepairOutcome:
    """Attempt to repair X to satisfy Phi; sound but not complete."""
    phi = scenario.bind_spec(Phi)
    if dnf is None:
        dnf = to_dnf(phi, scenario.jc_sizes())
    u_max = {a.agent_id: np.asarray(a.u_max) for a in scenario.agents}

    clause_rhos = [outer_rho(X, clause_formula(c), 0) for c in dnf.clauses]

    syntheses: list[SynthLog] = []
    count_trace: list[dict] = []
    # (robustness, team, clause index on success, repaired agent ids)
    best: tuple[float, TeamTrajectory, int | None, list[int]] | None = None

    for k in sort_desc(clause_rhos):
        clause = dnf.clauses[k]
        working = X.copy()
        # tasks of this clause assigned to each agent, by index into the clause
        assignments: dict[int, set[int]] = {m.agent_id: set() for m in X.members}
        # each agent's verdicts on the clause's atoms, and the holder counts
        sat = {m.agent_id: _verdicts(m, clause) for m in working.members}
        counts = np.sum(list(sat.values()), axis=0)
        flagged = _assign_tasks(working, clause, sat, counts, assignments)

        repaired: list[int] = []
        for j in flagged:
            member = working.member(j)
            pins = [(clause[i].time, clause[i].task.inner) for i in sorted(assignments[j])]
            res = synthesize_conjunction(
                member.trajectory.states[0],
                pins,
                X.last_time,
                u_max[j],
                iterations=budget.synth_iterations,
                restarts=budget.synth_restarts,
                seed=budget.seed + 1000 * k + j,
                w_init=warm_start_weights(_controls(member), u_max[j]),
            )
            syntheses.append(SynthLog(k, j, len(pins), res.success, res.robustness))
            if not res.success:
                break
            working = working.replace(j, res.trajectory)
            repaired.append(j)
            sat[j] = _verdicts(working.member(j), clause)
            before, counts = counts, np.sum(list(sat.values()), axis=0)
            count_trace.append({"clause": k, "agent": j, "before": before.tolist(),
                                "after": counts.tolist()})
            # pin tasks now satisfied by exactly their count to their satisfying agents
            exact = counts == [a.task.count for a in clause]
            for a, row in sat.items():
                assignments[a].update(np.flatnonzero(row & exact).tolist())

        rho = outer_rho(working, phi, 0)
        if len(repaired) == len(flagged) and outer_sat(working, phi, 0):
            best = (rho, working, k, repaired)
            break
        if best is None or rho > best[0]:
            best = (rho, working, None, repaired)

    if best is None:  # empty DNF: nothing to try
        best = (outer_rho(X, phi, 0), X.copy(), None, [])
    rho, working, clause_index, repaired = best
    return RepairOutcome(
        trajectory=working,
        controls={m.agent_id: _controls(m) for m in working.members},
        verdict="fail" if clause_index is None else "success",
        clause=clause_index,
        robustness=rho,
        syntheses=syntheses,
        repaired_agents=repaired,
        count_trace=count_trace,
    )


def _verdicts(member: TeamMember, clause: tuple[TimedTask, ...]) -> np.ndarray:
    """Whether the member holds each atom's capability and satisfies its inner
    formula at the atom's time."""
    return np.array([a.task.cap.name in member.capabilities
                     and inner_sat(member.trajectory, a.task.inner, a.time) for a in clause],
                    dtype=bool)


def _assign_tasks(working: TeamTrajectory, clause: tuple[TimedTask, ...],
                  sat: dict[int, np.ndarray], counts: np.ndarray,
                  assignments: dict[int, set[int]]) -> list[int]:
    """Assign every not-just-satisfied task to its top holders; returns the ids
    of the assigned agents that violate a task, ascending. ``sat`` and
    ``counts`` hold the clause's verdicts and holder counts on ``working``."""
    flagged: set[int] = set()
    for i, atom in enumerate(clause):
        task, t = atom.task, atom.time
        if counts[i] > task.count:
            continue
        holders = working.with_capability(task.cap.name)
        rhos = [inner_rho(m.trajectory, task.inner, t) for m in holders]
        for idx in sort_desc(rhos)[:task.count]:
            j = holders[idx].agent_id
            assignments[j].add(i)
            if not sat[j][i]:
                flagged.add(j)
    return sorted(flagged)
