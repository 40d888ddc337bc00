"""Semantics checks against the independent bottom-up oracle."""

import numpy as np
import pytest

from catl import autodiff as ad
from catl import monitor
from catl.autodiff import Tensor
from catl.formulas import (
    HalfPlane,
    IAlways,
    IAnd,
    IEventually,
    INot,
    InRegion,
    ITrue,
    OTrue,
    Predicate,
    SpecError,
    Task,
    TimedTask,
    horizon,
)
from catl.geometry import Region
from catl.monitor import (
    TOP,
    HorizonError,
    NonFiniteError,
    count,
    inner_rho,
    inner_rho_tensor,
    inner_sat,
    outer_rho,
    outer_rho_batch,
    outer_rho_tensor,
    outer_sat,
    smoothness_bound,
)
from catl.scenario import builtin
from catl.synth import pinned_conjunction
from catl.trajectories import IndividualTrajectory, TeamMember, TeamTrajectory

from generators import (
    REGIONS,
    TEAM_CAPS,
    random_inner,
    random_outer,
    random_predicate,
    random_states,
    random_team,
)
from oracles import finite_difference, individual_sat, team_sat

C_REGION = Region.box("C", (2.0, -1.0), (4.0, 1.0))
TAU = 10.0  # smooth temperature


def in_region(region: Region) -> Predicate:
    return InRegion(region.name, region)


def on_grid(states: np.ndarray) -> np.ndarray:
    """States snapped to a 0.5 grid, where predicates sit exactly on region edges."""
    return np.round(states * 2) / 2


def make_team(states_list, caps_list) -> TeamTrajectory:
    return TeamTrajectory(
        [
            TeamMember(j, IndividualTrajectory(np.asarray(s, dtype=float)), caps)
            for j, (s, caps) in enumerate(zip(states_list, caps_list))
        ]
    )


class TestInnerSat:
    def test_constant_trajectory_inside_region(self):
        states = np.tile([3.0, 0.0], (10, 1))
        assert inner_sat(IndividualTrajectory(states), IEventually(in_region(C_REGION), 0, 8), 0)

    def test_entering_river_violates_avoidance(self):
        river = Region.box("R", (0.0, 4.0), (10.0, 6.0))
        states = np.array([[1.0, 1.0 + t * 0.5] for t in range(26)])
        phi = IAlways(INot(in_region(river)), 0, 25)
        assert not inner_sat(IndividualTrajectory(states), phi, 0)

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(101)
        for _ in range(400):
            budget = int(rng.integers(0, 5))
            phi = random_inner(rng, depth=int(rng.integers(0, 4)), budget=budget)
            states = random_states(rng, horizon(phi) + int(rng.integers(1, 4)))
            t = int(rng.integers(0, len(states) - horizon(phi)))
            for x in (states, on_grid(states)):
                assert inner_sat(x, phi, t) == individual_sat(x, phi, t)

    def test_region_edge_satisfies_region(self):
        # margin exactly 0: robustness cannot tell in(A) from !in(A), satisfaction can
        edge = np.array([[1.0, 0.0]])
        phi = INot(in_region(REGIONS["A"]))
        assert not inner_sat(edge, phi, 0)
        assert inner_rho(edge, phi, 0) == 0.0

    def test_horizon_violation_raises(self):
        states = random_states(np.random.default_rng(0), 4)
        with pytest.raises(HorizonError):
            inner_sat(states, IEventually(ITrue(), 0, 10), 0)


class TestInnerRho:
    def test_unit_box_margin(self):
        # f(x) = 1 - max|x - c| for a box of half-width 1 centered at c
        box = Region.box("U", (2.0, 2.0), (4.0, 4.0))
        states = np.array([[3.3, 3.0]])  # sup-distance 0.3 from center
        assert inner_rho(states, in_region(box), 0) == pytest.approx(0.7)

    def test_sign_agrees_with_sat(self):
        rng = np.random.default_rng(55)
        checked = 0
        for _ in range(1000):
            budget = int(rng.integers(0, 5))
            phi = random_inner(rng, depth=int(rng.integers(0, 4)), budget=budget)
            states = random_states(rng, horizon(phi) + 1)
            rho = inner_rho(states, phi, 0)
            if abs(rho) <= 1e-9:
                continue
            checked += 1
            assert (rho > 0) == inner_sat(states, phi, 0)
        assert checked > 900

    def test_smooth_close_to_classical(self):
        rng = np.random.default_rng(56)
        for _ in range(200):
            phi = random_inner(rng, depth=2, budget=4)
            states = random_states(rng, horizon(phi) + 2)
            rho_c = inner_rho(states, phi, 0)
            for tau in (5.0, 10.0, 50.0):
                rho_s = inner_rho(states, phi, 0, tau)
                slack = 128 * np.spacing(max(1.0, abs(rho_c)))  # float rounding at R_TOP scale
                assert abs(rho_s - rho_c) <= smoothness_bound(phi, tau) + slack

    def test_halfplane_margin_bitwise_equal_in_both_modes(self):
        # a predicate is not smoothed, so its smooth robustness is the
        # classical one exactly (smoothness_bound of a predicate is 0); the
        # region predicates of random_predicate ride along
        rng = np.random.default_rng(57)
        preds = [random_predicate(rng) for _ in range(400)]
        for kind in (HalfPlane, InRegion):
            assert sum(isinstance(p, kind) for p in preds) > 150
        for phi in preds:
            states = random_states(rng, 10)
            for t in range(10):
                assert inner_rho(states, phi, t) == inner_rho(states, phi, t, TAU)
            assert smoothness_bound(phi, 10.0) == 0.0

    def test_predicate_leaf_is_its_margin_on_batched_states(self):
        # (B, T) starts of one step each: the smooth node's value is evaluate's
        # margin bit for bit, and the boolean leaf is its sign, edges included
        rng = np.random.default_rng(59)
        for _ in range(40):
            phi = random_predicate(rng)
            states = on_grid(rng.uniform(-3.0, 3.0, size=(4, 6, 2)))
            node = inner_rho_tensor(Tensor(states[:, :, None, :]), phi, TAU)
            margin = phi.evaluate(states)
            assert np.array_equal(node.value, margin)
            for (b, t), m in np.ndenumerate(margin):
                assert inner_sat(states[b], phi, t) == (m >= 0.0)

    def test_true_gets_top_constant(self):
        states = random_states(np.random.default_rng(1), 3)
        assert inner_rho(states, ITrue(), 0) == TOP


class TestCount:
    def test_all_six_delivery_agents_enter_supply_region(self):
        # all agents pass through C within 8 steps
        states = [
            np.vstack([np.linspace([0.0, 0.0], [3.0, 0.0], 5), np.tile([3.0, 0.0], (5, 1))])
            for _ in range(6)
        ]
        team = make_team(states, [frozenset({"Delivery"})] * 6)
        phi = IEventually(in_region(C_REGION), 0, 8)
        assert count(team, "Delivery", phi, 0) == 6

    def test_empty_capability_group(self):
        team = random_team(np.random.default_rng(2), 5)
        assert count(team, "green", ITrue(), 0) == 0

    def test_matches_per_agent_loop(self):
        rng = np.random.default_rng(57)
        for _ in range(100):
            phi = random_inner(rng, depth=2, budget=3)
            team = random_team(rng, horizon(phi) + 2)
            t = int(rng.integers(0, 2))
            expected = sum(
                1
                for m in team.members
                if "red" in m.capabilities and inner_sat(m.trajectory, phi, t)
            )
            assert count(team, "red", phi, t) == expected


class TestTaskRho:
    def test_second_largest(self):
        # inner robustness {3, 1, -2} for three holders, m=2 -> 1
        states = [np.array([[3.0, 0.0]]), np.array([[1.0, 0.0]]), np.array([[-2.0, 0.0]])]
        team = make_team(states, [frozenset({"red"})] * 3)
        halfline = InRegion("H", Region.box("H", (0.0, -5.0), (100.0, 5.0)))
        # margin in x: min(x, 100-x); y margin large enough not to bind
        task = Task(halfline, "red", 2)
        assert outer_rho(team, task, 0) == pytest.approx(1.0)

    def test_m_equals_one_is_max(self):
        rng = np.random.default_rng(58)
        phi = random_inner(rng, depth=1, budget=0)
        team = random_team(rng, 2)
        rhos = [
            inner_rho(m.trajectory, phi, 0) for m in team.members if "red" in m.capabilities
        ]
        task = Task(phi, "red", 1)
        assert outer_rho(team, task, 0) == pytest.approx(max(rhos))

    def test_sign_matches_counting(self):
        rng = np.random.default_rng(59)
        checked = 0
        for _ in range(1000):
            phi = random_inner(rng, depth=2, budget=2)
            team = random_team(rng, horizon(phi) + 1)
            cap = "red" if rng.random() < 0.5 else "blue"
            holders = len(team.with_capability(cap))
            m = int(rng.integers(1, holders + 1))
            task = Task(phi, cap, m)
            rho = outer_rho(team, task, 0)
            if abs(rho) <= 1e-9:
                continue
            checked += 1
            assert (rho > 0) == (count(team, cap, phi, 0) >= m)
        assert checked > 900

    def test_too_many_required_raises(self):
        team = random_team(np.random.default_rng(3), 3)
        task = Task(ITrue(), "red", 5)
        with pytest.raises(ValueError):
            outer_rho(team, task, 0)


class TestOuterSemantics:
    def test_satisfying_trajectory_for_reach_task(self):
        states = [
            np.vstack([np.linspace([0.0, 0.0], [3.0, 0.0], 5), np.tile([3.0, 0.0], (5, 1))])
            for _ in range(6)
        ]
        team = make_team(states, [frozenset({"Delivery"})] * 6)
        phi = Task(IEventually(in_region(C_REGION), 0, 8), "Delivery", 6)
        assert outer_sat(team, phi, 0)
        assert outer_rho(team, phi, 0) > 0

    def test_true_formula(self):
        team = random_team(np.random.default_rng(4), 3)
        assert outer_sat(team, OTrue(), 0)
        assert outer_rho(team, OTrue(), 0) == TOP

    def test_sign_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(60)
        checked = 0
        for _ in range(600):
            budget = int(rng.integers(0, 5))
            phi = random_outer(rng, depth=int(rng.integers(0, 4)), budget=budget)
            team = random_team(rng, horizon(phi) + int(rng.integers(1, 3)))
            t = int(rng.integers(0, len(team) - horizon(phi)))
            snapped = make_team([on_grid(m.trajectory.states) for m in team.members],
                                [m.capabilities for m in team.members])
            assert outer_sat(snapped, phi, t) == team_sat(snapped, phi, t)
            rho = outer_rho(team, phi, t)
            if abs(rho) <= 1e-9:
                continue
            checked += 1
            sat = outer_sat(team, phi, t)
            assert (rho > 0) == sat
            assert sat == team_sat(team, phi, t)
        assert checked > 500

    def test_negation_duality(self):
        from catl.formulas import ONot

        rng = np.random.default_rng(61)
        for _ in range(100):
            phi = random_outer(rng, depth=2, budget=3)
            team = random_team(rng, horizon(phi) + 1)
            assert outer_rho(team, ONot(phi), 0) == pytest.approx(-outer_rho(team, phi, 0))

    def test_timed_task_shift_property(self):
        rng = np.random.default_rng(62)
        for _ in range(60):
            task = random_outer(rng, depth=0, budget=2)
            while not isinstance(task, Task):
                task = random_outer(rng, depth=0, budget=2)
            offset = int(rng.integers(0, 3))
            timed = TimedTask(task, offset)
            t0 = int(rng.integers(0, 2))
            team = random_team(rng, t0 + horizon(timed) + 1)
            assert outer_sat(team, timed, t0) == outer_sat(team, task, t0 + offset)
            assert outer_rho(team, timed, t0) == pytest.approx(
                outer_rho(team, task, t0 + offset)
            )

    def test_smooth_convergence_bound(self):
        rng = np.random.default_rng(63)
        for _ in range(150):
            phi = random_outer(rng, depth=2, budget=4)
            team = random_team(rng, horizon(phi) + 1)
            rho_c = outer_rho(team, phi, 0)
            for tau in (5.0, 10.0, 50.0):
                rho_s = outer_rho(team, phi, 0, tau)
                slack = 128 * np.spacing(max(1.0, abs(rho_c)))
                assert abs(rho_s - rho_c) <= smoothness_bound(phi, tau) + slack


class TestUnboundRegion:
    """Every monitor path raises SpecError for a region that was never bound."""

    PHI = IEventually(InRegion("A"), 0, 2)

    @pytest.mark.parametrize("evaluate", [
        lambda states, phi: inner_sat(states, phi, 0),
        lambda states, phi: inner_rho(states, phi, 0),
        lambda states, phi: inner_rho(states, phi, 0, TAU),
        lambda states, phi: outer_rho_batch(
            [(states[None], frozenset({"red"}))], Task(phi, "red", 1)),
    ], ids=["inner_sat", "inner_rho", "inner_rho_smooth", "outer_rho_batch"])
    def test_raises_spec_error(self, evaluate):
        states = random_states(np.random.default_rng(3), 4)
        with pytest.raises(SpecError, match="region 'A' is unbound"):
            evaluate(states, self.PHI)


class TestTemperature:
    """Every entry point that takes a temperature rejects one at or below 0."""

    PHI = IEventually(in_region(C_REGION), 0, 2)

    @pytest.mark.parametrize("evaluate", [
        lambda states, phi, tau: inner_rho(states, phi, 0, tau),
        lambda states, phi, tau: outer_rho(
            TeamTrajectory([TeamMember(0, IndividualTrajectory(states), frozenset({"red"}))]),
            Task(phi, "red", 1), 0, tau),
        lambda states, phi, tau: outer_rho_batch(
            [(states[None], frozenset({"red"}))], Task(phi, "red", 1), tau),
        lambda states, phi, tau: inner_rho_tensor(Tensor(states), phi, tau).value,
        lambda states, phi, tau: outer_rho_tensor(
            [(Tensor(states[None]), frozenset({"red"}))], Task(phi, "red", 1), tau).value,
    ], ids=["inner_rho", "outer_rho", "outer_rho_batch", "inner_rho_tensor", "outer_rho_tensor"])
    @pytest.mark.parametrize("tau", [0.0, -1.0])
    def test_non_positive_tau_rejected(self, evaluate, tau):
        states = random_states(np.random.default_rng(4), 4)
        assert np.isfinite(evaluate(states, self.PHI, TAU)).all()
        with pytest.raises(ValueError, match="tau must be positive"):
            evaluate(states, self.PHI, tau)


class TestBatchEntryPoints:
    """outer_rho_batch and outer_rho_tensor reject bad states at the boundary."""

    PHI = Task(IEventually(in_region(C_REGION), 0, 4), "red", 1)

    @staticmethod
    def rho(entry: str, states: np.ndarray):
        """states is (B, J, T, 2) for the members of TEAM_CAPS."""
        if entry == "batch":
            members = [(states[:, j], caps) for j, caps in enumerate(TEAM_CAPS)]
            return outer_rho_batch(members, TestBatchEntryPoints.PHI)
        members = [(Tensor(states[:, j]), caps) for j, caps in enumerate(TEAM_CAPS)]
        return outer_rho_tensor(members, TestBatchEntryPoints.PHI, TAU).value

    @pytest.mark.parametrize("entry", ["batch", "tensor"])
    def test_short_trajectory_raises_horizon_error(self, entry):
        rng = np.random.default_rng(66)
        states = rng.normal(size=(2, 3, 5, 2))
        assert self.rho(entry, states).shape == (2,)  # exactly horizon + 1 states
        with pytest.raises(HorizonError):
            self.rho(entry, states[:, :, :4])

    @pytest.mark.parametrize("entry", ["batch", "tensor"])
    def test_non_finite_states_rejected(self, entry):
        states = np.random.default_rng(67).normal(size=(2, 3, 6, 2))
        states[1, 2, 3, 0] = np.nan
        with pytest.raises(NonFiniteError, match=r"member 2 has 1 non-finite.*\(1, 3\)"):
            self.rho(entry, states)
        states[1, 2, 3, 0] = np.inf
        with pytest.raises(NonFiniteError):
            self.rho(entry, states)


def red_team(states: np.ndarray) -> TeamTrajectory:
    """A one-member team holding "red" over states, written in place after
    construction so that non-finite states reach the monitor."""
    team = make_team([np.zeros_like(states)], [frozenset({"red"})])
    team.members[0].trajectory.states[:] = states
    return team


class TestCheckedEntry:
    """Every public entry point rejects short states, t < 0 and non-finite
    states with a named error."""

    PHI = IEventually(in_region(C_REGION), 0, 4)  # horizon 4
    TASK = Task(PHI, "red", 1)
    ENTRY_POINTS = {
        "inner_sat": lambda s, t: inner_sat(s, TestCheckedEntry.PHI, t),
        "count": lambda s, t: count(red_team(s), "red", TestCheckedEntry.PHI, t),
        "outer_sat": lambda s, t: outer_sat(red_team(s), TestCheckedEntry.TASK, t),
        "inner_rho": lambda s, t: inner_rho(s, TestCheckedEntry.PHI, t),
        "inner_rho_tensor": lambda s, t: inner_rho_tensor(Tensor(s), TestCheckedEntry.PHI, TAU),
        "outer_rho": lambda s, t: outer_rho(red_team(s), TestCheckedEntry.TASK, t),
        "outer_rho_batch": lambda s, t: outer_rho_batch(
            [(s[None], frozenset({"red"}))], TestCheckedEntry.TASK),
        "outer_rho_tensor": lambda s, t: outer_rho_tensor(
            [(Tensor(s[None]), frozenset({"red"}))], TestCheckedEntry.TASK, TAU),
    }
    AT_TIME_0 = ("inner_rho_tensor", "outer_rho_batch", "outer_rho_tensor")

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_short_states_and_negative_times_raise_horizon_error(self, entry):
        evaluate = self.ENTRY_POINTS[entry]
        states = np.random.default_rng(73).normal(size=(6, 2))
        evaluate(states[:5], 0)  # exactly horizon + 1 states
        with pytest.raises(HorizonError, match="needs 4 steps, member 0 has 3"):
            evaluate(states[:4], 0)
        if entry not in self.AT_TIME_0:
            evaluate(states, 1)
            with pytest.raises(HorizonError, match="t=2 needs 6 steps"):
                evaluate(states, 2)
            with pytest.raises(HorizonError, match="t=-1"):
                evaluate(states, -1)

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_states_raise_non_finite_error(self, entry, bad):
        states = np.random.default_rng(74).normal(size=(5, 2))
        states[3, 1] = bad
        with pytest.raises(NonFiniteError, match=r"member 0 has 1 non-finite.* \((0, )?3,?\)"):
            self.ENTRY_POINTS[entry](states, 0)

    def test_repeated_calls_walk_the_formula_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(monitor, "horizon", lambda phi: calls.append(phi) or horizon(phi))
        phi = IAnd((IEventually(in_region(C_REGION), 0, 3), IAlways(in_region(REGIONS["A"]), 1, 2)))
        states = random_states(np.random.default_rng(75), 8)
        for t in range(5):
            inner_sat(states, phi, t)
            inner_rho(states, phi, t)
            inner_rho(states, phi, t, TAU)
        inner_rho_tensor(Tensor(states), phi, TAU)
        with pytest.raises(HorizonError):
            inner_rho(states, phi, 5)
        assert calls == [phi]


class TestMarginMemo:
    def test_memo_does_not_outlive_its_call(self):
        # Each loop frees its states, so the next fresh array often takes the
        # freed address: a memo keyed by id() that outlived its call would
        # hand back an earlier call's margins.
        box = Region.box("A", (0.0, 0.0), (1.0, 1.0))
        phi = IAnd((IEventually(in_region(box), 1, 1), IEventually(INot(in_region(box)), 2, 2)))
        rng = np.random.default_rng(66)
        for _ in range(60):
            states = rng.uniform(-0.5, 1.5, size=(3, 2))
            want_sat = box.margin(states[1]) >= 0 and box.margin(states[2]) < 0
            assert inner_sat(states, phi, 0) == want_sat
            with ad.no_grad():
                rho = inner_rho_tensor(Tensor(states), phi, TAU).item()
            fresh = inner_rho_tensor(Tensor(states.copy()), phi, TAU).item()
            assert rho == fresh
            assert rho == ad.softmin_lse(
                Tensor(np.array([box.margin(states[1]), -box.margin(states[2])])), tau=10.0
            ).item()
            del states

    def test_pinned_conjunction_tape_size(self):
        # Repair's typical target on the reduced scenario: in(M) and !in(R)
        # pinned at each of the 26 steps, plus F[0,8] in(C). The graph holds
        # the states leaf and the plan's one node: 2 nodes, where a node per
        # plan op took 11, one slice per pin 62 and per-pin margin graphs 1,095.
        sc, _, _ = builtin("reduced")
        pred = {name: in_region(region) for name, region in sc.regions.items()}
        pins = [(0, IEventually(pred["C"], 0, 8))]
        pins += [(t, pred["M"]) for t in range(26)]
        pins += [(t, INot(pred["R"])) for t in range(26)]
        states = Tensor(np.random.default_rng(67).uniform(0.0, 10.0, size=(26, 2)))
        rho = inner_rho_tensor(states, pinned_conjunction(pins), TAU)
        assert len(ad._toposort(rho)) <= 2


class TestPlan:
    """The compiled plan against the independent oracles, and its cache."""

    @staticmethod
    def batch_values(members, phi) -> list[np.ndarray]:
        """Boolean, classical and smooth values at time 0 over members
        (batched states, capabilities)."""
        return [
            monitor._monitor(phi, members, 0, boolean=True),
            monitor._monitor(phi, members, 0),
            monitor._monitor(phi, members, 0, TAU),
        ]

    def test_inner_plan_matches_oracle_at_batch_ranks_0_and_1(self):
        rng = np.random.default_rng(68)
        for _ in range(150):
            phi = random_inner(rng, depth=int(rng.integers(0, 4)), budget=int(rng.integers(0, 5)))
            batch = np.stack([random_states(rng, horizon(phi) + 1) for _ in range(3)])
            batch[0] = on_grid(batch[0])  # margins of exactly 0 on region edges
            sat, rho, smooth = self.batch_values([(batch, None)], phi)
            for b, states in enumerate(batch):
                want = individual_sat(states, phi)
                assert inner_sat(states, phi, 0) == want
                assert sat[b] == (1.0 if want else -1.0)
                assert rho[b] == inner_rho(states, phi, 0)
                assert smooth[b] == inner_rho(states, phi, 0, TAU)
                if abs(rho[b]) > 1e-9:
                    assert (rho[b] > 0) == want
                if abs(rho[b]) > smoothness_bound(phi, TAU) + 1e-9:
                    assert (smooth[b] > 0) == want

    def test_outer_plan_matches_oracle_at_batch_ranks_0_and_1(self):
        rng = np.random.default_rng(69)
        for _ in range(100):
            phi = random_outer(rng, depth=int(rng.integers(0, 3)), budget=int(rng.integers(0, 4)))
            length = horizon(phi) + 1
            states = np.stack([[random_states(rng, length) for _ in TEAM_CAPS]
                               for _ in range(3)])  # (B, J, T, 2)
            members = [(states[:, j], caps) for j, caps in enumerate(TEAM_CAPS)]
            sat, rho, smooth = self.batch_values(members, phi)
            assert np.array_equal(rho, outer_rho_batch(members, phi))
            assert np.array_equal(smooth, outer_rho_batch(members, phi, TAU))
            for b in range(3):
                team = make_team(states[b], TEAM_CAPS)
                want = team_sat(team, phi)
                assert outer_sat(team, phi, 0) == want
                assert sat[b] == (1.0 if want else -1.0)
                assert rho[b] == outer_rho(team, phi, 0)
                assert smooth[b] == outer_rho(team, phi, 0, TAU)
                if abs(rho[b]) > 1e-9:
                    assert (rho[b] > 0) == want
                if abs(rho[b]) > smoothness_bound(phi, TAU) + 1e-9:
                    assert (smooth[b] > 0) == want

    def test_duplicated_pin_gradient_matches_finite_differences(self):
        # in(A) pinned twice at step 2 gathers one margin entry twice, and a
        # window over the same margin reads it a third time
        a, b = in_region(REGIONS["A"]), in_region(REGIONS["B"])
        target = pinned_conjunction([(2, a), (1, IEventually(a, 0, 2)), (2, a),
                                     (3, INot(b)), (0, b)])
        plan = monitor._compile(target, ((5, None),))
        assert [name for name, _, _ in plan.ops].count("gathered") == 1
        rng = np.random.default_rng(70)
        checked = 0
        for _ in range(20):
            x0 = rng.uniform(-1.5, 2.0, size=(5, 2))
            x = Tensor(x0.copy())
            inner_rho_tensor(x, target, TAU).backward()
            fd = finite_difference(
                lambda v: inner_rho_tensor(Tensor(v), target, TAU).item(), x0.copy())
            scale = max(np.abs(fd).max(), np.abs(x.grad).max(), 1e-8)
            checked += np.abs(fd - x.grad).max() / scale < 1e-4
        assert checked >= 18  # a probe may sit on a face tie of a margin

    def test_plan_cache_stays_within_its_bound(self):
        rng = np.random.default_rng(71)
        for k in range(5 * monitor.FORMULA_CACHE_SIZE):
            pins = [(int(t), random_predicate(rng)) for t in rng.integers(0, 6, size=4)]
            target = pinned_conjunction(pins)
            states = random_states(rng, 6 + k % 3)
            inner_rho(states, target, 0)
            inner_rho_tensor(Tensor(states), target, TAU)
            assert len(monitor._FORMULAS) <= monitor.FORMULA_CACHE_SIZE
            # one layout for the cut array states, one for the whole Tensor
            lengths = {horizon(target) + 1, len(states)}
            assert set(monitor._entry(target).plans) == {((n, None),) for n in lengths}

    def test_a_reused_id_never_gets_a_stale_plan(self, monkeypatch):
        # an entry filed under the id of a new formula, as if the formula it
        # was made for had been freed and its id reused, is made again
        monkeypatch.setattr(monitor, "_FORMULAS", {})
        box = in_region(REGIONS["A"])
        inside, outside = IEventually(box, 0, 0), IEventually(INot(box), 0, 0)
        stale = monitor._FORMULAS[id(inside)] = monitor._Entry(outside)
        stale.plans[((1, None),)] = monitor._compile(outside, ((1, None),))
        states = np.zeros((1, 2))
        assert inner_sat(states, inside, 0)
        assert monitor._FORMULAS[id(inside)].phi is inside
        # and in the wild: formulas built and freed in a loop reuse ids
        rng = np.random.default_rng(72)
        for _ in range(4 * monitor.FORMULA_CACHE_SIZE):
            phi = random_inner(rng, depth=2, budget=3)
            states = on_grid(random_states(rng, horizon(phi) + 1))
            assert inner_sat(states, phi, 0) == individual_sat(states, phi)
            del phi


class TestPlanNode:
    """The smooth plan as one graph node whose backward is the reverse sweep,
    and the array entry point that runs the same sweep."""

    @staticmethod
    def matches_finite_differences(value, grad: np.ndarray, x0: np.ndarray) -> bool:
        fd = finite_difference(value, x0.copy())
        scale = max(np.abs(fd).max(), np.abs(grad).max(), 1e-8)
        return np.abs(fd - grad).max() / scale < 1e-4

    @pytest.mark.parametrize("batch", [(), (3,)], ids=["rank0", "rank1"])
    def test_inner_gradient_matches_finite_differences(self, batch):
        rng = np.random.default_rng(90 + len(batch))
        hits = 0
        for _ in range(40):
            phi = random_inner(rng, depth=int(rng.integers(1, 4)), budget=int(rng.integers(1, 5)))
            length = horizon(phi) + 1 + int(rng.integers(0, 2))
            rows = batch[0] if batch else 1
            x0 = np.stack([random_states(rng, length) for _ in range(rows)])
            x0 = x0.reshape(batch + (length, 2))
            weights = Tensor(rng.normal(size=batch))
            x = Tensor(x0.copy())
            ad.sum_(inner_rho_tensor(x, phi, TAU) * weights).backward()
            grad = np.zeros_like(x0) if x.grad is None else x.grad
            hits += self.matches_finite_differences(
                lambda v: ad.sum_(inner_rho_tensor(Tensor(v), phi, TAU) * weights).item(), grad, x0)
        assert hits >= 36  # a probe may sit near a sort or face tie

    @pytest.mark.parametrize("batch", [(), (3,)], ids=["rank0", "rank1"])
    def test_outer_gradient_matches_finite_differences(self, batch):
        rng = np.random.default_rng(92 + len(batch))
        hits = 0
        for _ in range(30):
            phi = random_outer(rng, depth=int(rng.integers(1, 3)), budget=int(rng.integers(1, 4)))
            length = horizon(phi) + 1
            rows = batch[0] if batch else 1
            x0 = np.stack([[random_states(rng, length) for _ in TEAM_CAPS] for _ in range(rows)])
            x0 = x0.reshape(batch + (len(TEAM_CAPS), length, 2))
            weights = Tensor(rng.normal(size=batch))

            def objective(v: np.ndarray, leaves=None) -> Tensor:
                leaves = leaves or [Tensor(v[..., j, :, :]) for j in range(len(TEAM_CAPS))]
                members = list(zip(leaves, TEAM_CAPS))
                return ad.sum_(outer_rho_tensor(members, phi, TAU) * weights)

            leaves = [Tensor(x0[..., j, :, :].copy()) for j in range(len(TEAM_CAPS))]
            objective(x0, leaves).backward()
            grad = np.stack([np.zeros(leaf.shape) if leaf.grad is None else leaf.grad
                             for leaf in leaves], axis=-3)
            hits += self.matches_finite_differences(
                lambda v: objective(v).item(), grad, x0)
        assert hits >= 27

    def test_array_entry_point_is_the_node_bitwise(self):
        # inner_rho_grad runs the node's sweep on cut arrays: the same value,
        # and the node's gradient with zeros past the horizon
        rng = np.random.default_rng(95)
        for _ in range(60):
            phi = random_inner(rng, depth=int(rng.integers(0, 4)), budget=int(rng.integers(0, 5)))
            states = random_states(rng, horizon(phi) + 1 + int(rng.integers(0, 3)))
            x = Tensor(states.copy())
            node = inner_rho_tensor(x, phi, TAU)
            node.backward()
            rho, grad = monitor.inner_rho_grad(states, phi, TAU)
            assert rho == node.item()
            assert np.array_equal(grad, np.zeros_like(states) if x.grad is None else x.grad)

    def test_array_entry_point_checks_its_input(self):
        phi = IEventually(in_region(C_REGION), 0, 3)
        with pytest.raises(HorizonError, match="needs 3 steps, member 0 has 2"):
            monitor.inner_rho_grad(np.zeros((3, 2)), phi, TAU)
        states = np.zeros((4, 2))
        states[2, 0] = np.nan
        with pytest.raises(NonFiniteError, match="member 0 has 1 non-finite"):
            monitor.inner_rho_grad(states, phi, TAU)
        with pytest.raises(ValueError, match="tau must be positive"):
            monitor.inner_rho_grad(np.zeros((4, 2)), phi, 0.0)


class TestSmoothGradients:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(64)
        hits = 0
        trials = 0
        while trials < 40:
            phi = random_outer(rng, depth=2, budget=3, allow_not=True)
            length = horizon(phi) + 1
            base = np.stack([random_states(rng, length) for _ in range(len(TEAM_CAPS))])

            def value(flat: np.ndarray) -> float:
                arr = flat.reshape(base.shape)
                members = [
                    (Tensor(arr[j]), caps) for j, caps in enumerate(TEAM_CAPS)
                ]
                return outer_rho_tensor(members, phi, TAU).item()

            leaves = [Tensor(base[j].copy()) for j in range(len(TEAM_CAPS))]
            members = [(leaves[j], caps) for j, caps in enumerate(TEAM_CAPS)]
            out = outer_rho_tensor(members, phi, TAU)
            out.backward()
            grad = np.stack([
                leaf.grad if leaf.grad is not None else np.zeros_like(leaf.value)
                for leaf in leaves
            ])
            fd = finite_difference(value, base.copy().reshape(-1)).reshape(base.shape)
            scale = max(np.abs(fd).max(), np.abs(grad).max(), 1e-8)
            trials += 1
            if np.abs(fd - grad).max() / scale < 1e-4:
                hits += 1
        assert hits >= 36  # a few probes may sit near sort ties

    def test_inner_rho_tensor_matches_plain(self):
        rng = np.random.default_rng(65)
        phi = random_inner(rng, depth=2, budget=3)
        states = random_states(rng, horizon(phi) + 1)
        with ad.no_grad():
            val = inner_rho_tensor(Tensor(states), phi, TAU).item()
        assert val == pytest.approx(inner_rho(states, phi, 0, TAU))
