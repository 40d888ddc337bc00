"""Repair: ordering, soundness against the monitor, bookkeeping invariants."""

import numpy as np
import pytest

from catl.dnf import to_dnf
from catl.formulas import horizon
from catl.monitor import count, outer_rho, outer_sat
from catl.repair import RepairBudget, repair, sort_desc
from catl.scenario import triple_toy
from catl.trajectories import IndividualTrajectory, TeamMember, TeamTrajectory

from generators import random_outer

BUDGET = RepairBudget(synth_iterations=150, synth_restarts=2, seed=0)


class TestSortDesc:
    def test_example(self):
        assert sort_desc([0.5, 2.0, -1.0]) == [1, 0, 2]

    def test_ties_by_ascending_index(self):
        assert sort_desc([1.0, 1.0, 1.0]) == [0, 1, 2]

    def test_random_lists_are_sorted(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            vals = rng.normal(size=int(rng.integers(1, 10)))
            order = sort_desc(vals)
            assert sorted(order) == list(range(len(vals)))
            ordered = [vals[i] for i in order]
            assert all(a >= b for a, b in zip(ordered, ordered[1:]))


def random_toy_team(rng, scenario, length):
    """Random in-workspace trajectories for the toy roster."""
    members = []
    for a in scenario.agents:
        start = scenario.sample_initial(rng)[0]
        steps = rng.uniform(-0.8, 0.8, size=(length - 1, 2)) * np.asarray(a.u_max)
        states = np.vstack([start[None], start[None] + np.cumsum(steps, axis=0)])
        states = np.clip(states, 0.0, 6.0)
        members.append(TeamMember(a.agent_id, IndividualTrajectory(states), a.capabilities))
    return TeamTrajectory(members)


def monitor_counts(team, clause):
    """Holder count of every atom of the clause, from the monitor."""
    return [count(team, a.task.cap, a.task.inner, a.time) for a in clause]


def random_spec(rng, scenario):
    sizes = scenario.jc_sizes()
    caps = list(sizes)
    while True:
        phi = random_outer(
            rng, depth=int(rng.integers(1, 3)), budget=int(rng.integers(1, 5)),
            team_caps=[a.capabilities for a in scenario.agents],
        )
        try:
            bound = scenario.bind_spec(phi)
            dnf = to_dnf(bound, sizes, clause_cap=500)
        except Exception:
            continue
        if dnf.clause_count >= 1 and horizon(bound) <= scenario.horizon:
            return bound, dnf


class TestRepair:
    def test_already_satisfying_returns_unchanged(self):
        scenario, phi = triple_toy()
        rng = np.random.default_rng(77)
        team = None
        for _ in range(300):
            cand = random_toy_team(rng, scenario, scenario.horizon + 1)
            if outer_sat(cand, phi, 0):
                team = cand
                break
        assert team is not None, "could not sample a satisfying trajectory"
        outcome = repair(team, phi, scenario, BUDGET)
        assert outcome.success
        assert outcome.repaired_agents == []
        for m_in, m_out in zip(team.members, outcome.trajectory.members):
            assert np.array_equal(m_in.trajectory.states, m_out.trajectory.states)

    def test_violating_occupancy_case(self):
        # both red-capable agents wander into the protected box mid-mission;
        # the spec requires both to stay out (G task(!in(Cc), red, 2))
        scenario, phi = triple_toy()
        a1 = np.array([[1.5, 1.5], [2.0, 2.2], [2.6, 3.0], [3.0, 3.8],
                       [3.0, 4.2], [3.0, 4.2], [3.0, 4.2]])
        a2 = np.array([[1.6, 1.4], [2.2, 2.1], [2.8, 2.9], [3.2, 3.7],
                       [3.2, 4.3], [3.2, 4.3], [3.2, 4.3]])
        a3 = np.tile([0.8, 0.8], (7, 1))
        team = TeamTrajectory(
            [
                TeamMember(1, IndividualTrajectory(a1), frozenset({"red"})),
                TeamMember(2, IndividualTrajectory(a2), frozenset({"red", "blue"})),
                TeamMember(3, IndividualTrajectory(a3), frozenset({"blue"})),
            ]
        )
        assert not outer_sat(team, phi, 0)
        outcome = repair(team, phi, scenario, BUDGET)
        assert outcome.success, [s for s in outcome.syntheses]
        assert outer_sat(outcome.trajectory, phi, 0)
        assert outcome.robustness > 0

    def test_randomized_soundness_and_invariants(self):
        scenario, _ = triple_toy()
        rng = np.random.default_rng(2025)
        attempted = 0
        succeeded = 0
        while attempted < 30:
            phi, dnf = random_spec(rng, scenario)
            team = random_toy_team(rng, scenario, scenario.horizon + 1)
            if outer_sat(team, phi, 0):
                continue
            attempted += 1
            outcome = repair(team, phi, scenario, BUDGET, dnf=dnf)
            if outcome.verdict == "success":
                succeeded += 1
                # Prop.-style soundness: success verdicts pass the monitor
                assert outer_sat(outcome.trajectory, phi, 0)
                # unflagged agents bitwise unchanged
                for m_in, m_out in zip(team.members, outcome.trajectory.members):
                    if m_in.agent_id not in outcome.repaired_agents:
                        assert np.array_equal(
                            m_in.trajectory.states, m_out.trajectory.states
                        )
                # controls are returned for every agent and obey the dynamics
                for m_out in outcome.trajectory.members:
                    u = outcome.controls[m_out.agent_id]
                    err = np.abs(
                        m_out.trajectory.states[1:]
                        - m_out.trajectory.states[:-1]
                        - u
                    ).max()
                    assert err <= 1e-9
            # each clause's recorded counts start on the input team and, in
            # the clause that succeeded, end on the returned team
            for k in {step["clause"] for step in outcome.count_trace}:
                steps = [step for step in outcome.count_trace if step["clause"] == k]
                assert steps[0]["before"] == monitor_counts(team, dnf.clauses[k])
                if k == outcome.clause:
                    assert steps[-1]["after"] == monitor_counts(outcome.trajectory, dnf.clauses[k])
            # one-at-a-time monotonicity: counts of oversatisfied tasks
            # drop by at most 1 per single-agent repair
            for step in outcome.count_trace:
                clause = dnf.clauses[step["clause"]]
                for i, atom in enumerate(clause):
                    if step["before"][i] > atom.task.count:
                        assert step["after"][i] >= step["before"][i] - 1
        assert succeeded >= 1  # incompleteness allowed, but not universal failure


class TestRepairFail:
    def test_infeasible_spec_reports_fail(self):
        scenario, _ = triple_toy()
        # B is reachable only after 3 steps from the far corner; demand it at t=0..0
        phi = scenario.parse_spec("G[0,0] task(in(B), blue, 2)")
        length = scenario.horizon + 1
        far = np.tile([0.5, 5.5], (length, 1))
        team = TeamTrajectory(
            [
                TeamMember(1, IndividualTrajectory(far.copy()), frozenset({"red"})),
                TeamMember(2, IndividualTrajectory(far.copy()), frozenset({"red", "blue"})),
                TeamMember(3, IndividualTrajectory(far.copy()), frozenset({"blue"})),
            ]
        )
        outcome = repair(team, phi, scenario, BUDGET)
        assert outcome.verdict == "fail"
        assert outcome.robustness <= 0
