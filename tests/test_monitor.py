"""Semantics checks against the independent bottom-up oracle."""

import numpy as np
import pytest

from catl import autodiff as ad
from catl.autodiff import Tensor
from catl.formulas import (
    Capability,
    IAlways,
    IEventually,
    INot,
    InRegion,
    ITrue,
    OTrue,
    Predicate,
    Task,
    TimedTask,
    horizon,
)
from catl.geometry import Region
from catl.monitor import (
    CLASSICAL,
    HorizonError,
    NonFiniteError,
    RobustnessConfig,
    count,
    inner_rho,
    inner_rho_tensor,
    inner_sat,
    outer_rho,
    outer_rho_batch,
    outer_rho_tensor,
    outer_sat,
    smoothness_bound,
    task_rho,
)
from catl.trajectories import IndividualTrajectory, TeamMember, TeamTrajectory

from generators import (
    REGIONS,
    TEAM_CAPS,
    random_inner,
    random_outer,
    random_states,
    random_team,
)
from oracles import finite_difference, individual_sat, team_sat

C_REGION = Region.box("C", (2.0, -1.0), (4.0, 1.0))
SMOOTH10 = RobustnessConfig("smooth", tau=10.0)


def in_region(region: Region) -> Predicate:
    return Predicate(InRegion(region.name, region))


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
            assert inner_sat(states, phi, t) == individual_sat(states, phi, t)

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
                cfg = RobustnessConfig("smooth", tau=tau)
                rho_s = inner_rho(states, phi, 0, cfg)
                slack = 128 * np.spacing(max(1.0, abs(rho_c)))  # float rounding at R_TOP scale
                assert abs(rho_s - rho_c) <= smoothness_bound(phi, tau) + slack

    def test_true_gets_top_constant(self):
        states = random_states(np.random.default_rng(1), 3)
        assert inner_rho(states, ITrue(), 0) == CLASSICAL.top


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
        assert count(team, Capability("green", -1), ITrue(), 0) == 0

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
        halfline = Predicate(InRegion("H", Region.box("H", (0.0, -5.0), (100.0, 5.0))))
        # margin in x: min(x, 100-x); y margin large enough not to bind
        task = Task(halfline, Capability("red", 0), 2)
        assert task_rho(team, task, 0) == pytest.approx(1.0)

    def test_m_equals_one_is_max(self):
        rng = np.random.default_rng(58)
        phi = random_inner(rng, depth=1, budget=0)
        team = random_team(rng, 2)
        rhos = [
            inner_rho(m.trajectory, phi, 0) for m in team.members if "red" in m.capabilities
        ]
        task = Task(phi, Capability("red", 0), 1)
        assert task_rho(team, task, 0) == pytest.approx(max(rhos))

    def test_sign_matches_counting(self):
        rng = np.random.default_rng(59)
        checked = 0
        for _ in range(1000):
            phi = random_inner(rng, depth=2, budget=2)
            team = random_team(rng, horizon(phi) + 1)
            cap = "red" if rng.random() < 0.5 else "blue"
            holders = len(team.with_capability(cap))
            m = int(rng.integers(1, holders + 1))
            task = Task(phi, Capability(cap, 0), m)
            rho = task_rho(team, task, 0)
            if abs(rho) <= 1e-9:
                continue
            checked += 1
            assert (rho > 0) == (count(team, cap, phi, 0) >= m)
        assert checked > 900

    def test_too_many_required_raises(self):
        team = random_team(np.random.default_rng(3), 3)
        task = Task(ITrue(), Capability("red", 0), 5)
        with pytest.raises(ValueError):
            task_rho(team, task, 0)


class TestOuterSemantics:
    def test_satisfying_trajectory_for_reach_task(self):
        states = [
            np.vstack([np.linspace([0.0, 0.0], [3.0, 0.0], 5), np.tile([3.0, 0.0], (5, 1))])
            for _ in range(6)
        ]
        team = make_team(states, [frozenset({"Delivery"})] * 6)
        phi = Task(IEventually(in_region(C_REGION), 0, 8), Capability("Delivery", 0), 6)
        assert outer_sat(team, phi, 0)
        assert outer_rho(team, phi, 0) > 0

    def test_true_formula(self):
        team = random_team(np.random.default_rng(4), 3)
        assert outer_sat(team, OTrue(), 0)
        assert outer_rho(team, OTrue(), 0) == CLASSICAL.top

    def test_sign_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(60)
        checked = 0
        for _ in range(600):
            budget = int(rng.integers(0, 5))
            phi = random_outer(rng, depth=int(rng.integers(0, 4)), budget=budget)
            team = random_team(rng, horizon(phi) + int(rng.integers(1, 3)))
            t = int(rng.integers(0, len(team) - horizon(phi)))
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
                cfg = RobustnessConfig("smooth", tau=tau)
                rho_s = outer_rho(team, phi, 0, cfg)
                slack = 128 * np.spacing(max(1.0, abs(rho_c)))
                assert abs(rho_s - rho_c) <= smoothness_bound(phi, tau) + slack


class TestBatchEntryPoints:
    """outer_rho_batch and outer_rho_tensor reject bad states at the boundary."""

    PHI = Task(IEventually(in_region(C_REGION), 0, 4), Capability("red", 0), 1)

    @staticmethod
    def rho(entry: str, states: np.ndarray):
        """states is (B, J, T, 2) for the members of TEAM_CAPS."""
        if entry == "batch":
            members = [(states[:, j], caps) for j, caps in enumerate(TEAM_CAPS)]
            return outer_rho_batch(members, TestBatchEntryPoints.PHI)
        members = [(Tensor(states[:, j]), caps) for j, caps in enumerate(TEAM_CAPS)]
        return outer_rho_tensor(members, TestBatchEntryPoints.PHI, SMOOTH10).value

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
                return outer_rho_tensor(members, phi, SMOOTH10).item()

            leaves = [Tensor(base[j].copy()) for j in range(len(TEAM_CAPS))]
            members = [(leaves[j], caps) for j, caps in enumerate(TEAM_CAPS)]
            out = outer_rho_tensor(members, phi, SMOOTH10)
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
            val = inner_rho_tensor(Tensor(states), phi, SMOOTH10).item()
        assert val == pytest.approx(inner_rho(states, phi, 0, SMOOTH10))
