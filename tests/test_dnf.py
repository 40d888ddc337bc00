"""Normalizer checks: expansion, complement counts, distribution, equivalence."""

import itertools

import numpy as np
import pytest

from catl.dnf import (
    FALSE,
    DnfForm,
    DnfSizeError,
    dnf_to_formula,
    jc_sizes_of,
    negation_free,
    to_dnf,
)
from catl.formulas import (
    INot,
    IAnd,
    InRegion,
    ITrue,
    OAlways,
    OAnd,
    OEventually,
    ONot,
    OOr,
    OTrue,
    OUntil,
    Task,
    TimedTask,
    horizon,
)
from catl.geometry import Region
from catl.monitor import outer_sat
from catl.scenario import builtin
from catl.trajectories import IndividualTrajectory, TeamMember, TeamTrajectory

from generators import TEAM_CAPS, random_outer, random_team

BOX = Region.box("Box", (0.0, 0.0), (2.0, 2.0))
INSIDE = np.array([[1.0, 1.0]])
OUTSIDE = np.array([[5.0, 5.0]])


def atom(name="c", m=1, negate_inner=False):
    inner = InRegion(BOX.name, BOX)
    if negate_inner:
        inner = INot(inner)
    return Task(inner, name, m)


def pattern_team(bits, cap="c", length=1):
    """One agent per bit; bit=1 puts the agent inside BOX for all time."""
    return TeamTrajectory(
        [
            TeamMember(
                j,
                IndividualTrajectory(np.tile(INSIDE[0] if bit else OUTSIDE[0], (length, 1))),
                frozenset({cap}),
            )
            for j, bit in enumerate(bits)
        ]
    )


class TestExpansion:
    def test_eventually_two_instants(self):
        t = atom()
        out = negation_free(OEventually(t, 0, 1), {"c": 1})
        assert out == OOr((TimedTask(t, 0), TimedTask(t, 1)))

    def test_always_two_instants(self):
        t = atom()
        out = negation_free(OAlways(t, 0, 1), {"c": 1})
        assert out == OAnd((TimedTask(t, 0), TimedTask(t, 1)))

    def test_until_structure(self):
        t1, t2 = atom(m=1), atom(m=2)
        out = negation_free(OUntil(t1, t2, 1, 2), {"c": 2})
        expected = OOr(
            (
                OAnd((TimedTask(t2, 1), TimedTask(t1, 0))),
                OAnd((TimedTask(t2, 2), TimedTask(t1, 0), TimedTask(t1, 1))),
            )
        )
        assert out == expected

    def test_until_equivalent_over_all_patterns(self):
        # two agents, horizon 2: enumerate every inside/outside pattern over time
        t1, t2 = atom(m=1), atom(m=2)
        phi = OUntil(t1, t2, 1, 2)
        expanded = negation_free(phi, {"c": 2})
        for pattern in itertools.product([0, 1], repeat=6):
            grid = np.array(pattern).reshape(2, 3)
            team = TeamTrajectory(
                [
                    TeamMember(
                        j,
                        IndividualTrajectory(
                            np.array([INSIDE[0] if b else OUTSIDE[0] for b in grid[j]])
                        ),
                        frozenset({"c"}),
                    )
                    for j in range(2)
                ]
            )
            assert outer_sat(team, phi, 0) == outer_sat(team, expanded, 0)

    def test_timed_offsets_bounded_by_horizon(self):
        rng = np.random.default_rng(11)
        sizes = jc_sizes_of(TEAM_CAPS)
        for _ in range(100):
            phi = random_outer(rng, depth=3, budget=5)
            expanded = negation_free(phi, sizes)
            hrz = horizon(phi)

            def max_offset(node):
                if isinstance(node, TimedTask):
                    return node.time
                if isinstance(node, (OAnd, OOr)):
                    return max(max_offset(c) for c in node.children)
                if isinstance(node, ONot):
                    return max_offset(node.child)
                return 0

            assert max_offset(expanded) <= hrz


class TestNegationElimination:
    def test_complement_count(self):
        neg = ONot(TimedTask(atom(m=2), 0))
        out = negation_free(neg, {"c": 4})
        assert out == TimedTask(atom(m=3, negate_inner=True), 0)

    def test_complement_equivalent_over_all_patterns(self):
        neg = ONot(TimedTask(atom(m=2), 0))
        rewritten = negation_free(neg, {"c": 4})
        for bits in itertools.product([0, 1], repeat=4):
            team = pattern_team(bits)
            assert outer_sat(team, neg, 0) == outer_sat(team, rewritten, 0), bits

    def test_double_negation(self):
        t = TimedTask(atom(), 0)
        assert negation_free(ONot(ONot(t)), {"c": 2}) == t

    def test_bridge_occupancy_rule(self):
        # no more than 1 of 4 ground agents on the bridge
        bridge_task = Task(InRegion("B", BOX), "Ground", 2)
        out = negation_free(ONot(TimedTask(bridge_task, 3)), {"Ground": 4})
        assert out == TimedTask(
            Task(INot(InRegion("B", BOX)), "Ground", 3), 3
        )

    def test_unsatisfiable_task_folds(self):
        t = TimedTask(atom(m=5), 0)
        assert negation_free(t, {"c": 3}) == FALSE
        assert negation_free(ONot(t), {"c": 3}) == OTrue()

    def test_output_is_folded_and_negation_free(self):
        # constants only at the root: to_dnf's clause cap relies on every
        # proper subformula having at least one clause
        rng = np.random.default_rng(12)
        sizes = jc_sizes_of(TEAM_CAPS)
        for _ in range(200):
            out = negation_free(random_outer(rng, depth=3, budget=4), sizes)
            if out in (OTrue(), FALSE):
                continue
            stack = [out]
            while stack:
                node = stack.pop()
                if isinstance(node, (OAnd, OOr)):
                    stack.extend(node.children)
                else:
                    assert isinstance(node, TimedTask), node


class TestToDnf:
    def test_distribution(self):
        t1, t2, t3 = (TimedTask(atom(m=m), 0) for m in (1, 2, 3))
        phi = OAnd((OOr((t1, t2)), t3))
        dnf = to_dnf(phi, {"c": 3})
        assert sorted(len(c) for c in dnf.clauses) == [2, 2]
        assert {frozenset(c) for c in dnf.clauses} == {
            frozenset({t1, t3}),
            frozenset({t2, t3}),
        }

    def test_true_is_single_empty_clause(self):
        dnf = to_dnf(OTrue(), {})
        assert dnf.clauses == [()]

    def test_clause_cap(self):
        t = atom()
        big = OAnd(tuple(OEventually(t, 0, 9) for _ in range(5)))
        with pytest.raises(DnfSizeError):
            to_dnf(big, {"c": 1}, clause_cap=1000)

    def test_negation_free_output(self):
        rng = np.random.default_rng(21)
        sizes = jc_sizes_of(TEAM_CAPS)
        for _ in range(100):
            phi = random_outer(rng, depth=3, budget=4)
            try:
                dnf = to_dnf(phi, sizes, clause_cap=3000)
            except DnfSizeError:
                continue
            for clause in dnf.clauses:
                for a in clause:
                    assert isinstance(a, TimedTask)
                    assert a.time <= horizon(phi)

    def test_random_equivalence(self):
        rng = np.random.default_rng(22)
        sizes = jc_sizes_of(TEAM_CAPS)
        done = 0
        while done < 200:
            phi = random_outer(rng, depth=3, budget=4)
            try:
                dnf = to_dnf(phi, sizes, clause_cap=3000)
            except DnfSizeError:
                continue
            rebuilt = dnf_to_formula(dnf)
            team = random_team(rng, horizon(phi) + 1)
            assert outer_sat(team, phi, 0) == outer_sat(team, rebuilt, 0)
            done += 1

    def test_idempotence(self):
        rng = np.random.default_rng(23)
        sizes = jc_sizes_of(TEAM_CAPS)
        done = 0
        while done < 60:
            phi = random_outer(rng, depth=3, budget=3)
            try:
                first = to_dnf(phi, sizes, clause_cap=3000)
            except DnfSizeError:
                continue
            second = to_dnf(dnf_to_formula(first), sizes, clause_cap=3000)
            assert {frozenset(c) for c in first.clauses} == {
                frozenset(c) for c in second.clauses
            }
            done += 1

    @pytest.mark.parametrize("name, clauses, atoms", [
        ("case-study", 6, 507), ("reduced", 1, 55), ("toy", 1, 12), ("triple-toy", 1, 9),
    ])
    def test_builtin_sizes(self, name, clauses, atoms):
        scenario, phi, _ = builtin(name)
        dnf = to_dnf(phi, scenario.jc_sizes())
        assert (dnf.clause_count, dnf.atom_count()) == (clauses, atoms)

    def test_subsumed_clause_dropped(self):
        t1, t2 = TimedTask(atom(m=1), 0), TimedTask(atom(m=2), 0)
        phi = OOr((t1, OAnd((t1, t2))))
        dnf = to_dnf(phi, {"c": 2})
        assert dnf.clauses == [(t1,)]
