"""Synthesis: feasibility, constraint satisfaction, ascent, determinism."""

import numpy as np
import pytest

from catl import autodiff as ad
from catl.autodiff import Tensor
from catl.formulas import IAlways, IEventually, INot, InRegion, ITrue, SpecError
from catl.geometry import Region
from catl.monitor import inner_rho_tensor, inner_sat
from catl.synth import (
    SynthResult,
    _descent_grad,
    _unroll,
    pinned_conjunction,
    synthesize,
    synthesize_conjunction,
)

C = Region.box("C", (2.5, -0.5), (3.5, 0.5))  # unit square centered (3, 0)
FAR = Region.box("Far", (7.0, 7.0), (8.0, 8.0))


def in_c():
    return InRegion("C", C)


def reach(**kw) -> SynthResult:
    """synthesize on the reach-C task, kw overriding its arguments."""
    args = dict(
        x0=np.zeros(2),
        target=IEventually(in_c(), 0, 5),
        horizon_steps=5,
        u_max=np.ones(2),
        iterations=200,
        restarts=3,
        seed=7,
    )
    args.update(kw)
    return synthesize(**args)


class TestSynthesize:
    def test_reachable_goal_within_deadline(self):
        # sup-distance to the region is 2.5 < 5 steps at speed 1: feasible
        res = reach()
        assert res.success
        assert res.robustness > 0
        assert inner_sat(res.trajectory, IEventually(in_c(), 0, 5), 0)

    def test_true_target_is_immediate(self):
        res = reach(target=ITrue())
        assert res.success
        assert np.all(res.trajectory.controls == 0.0)
        assert res.robustness == 1e6

    def test_always_from_outside_is_infeasible(self):
        res = reach(target=IAlways(in_c(), 0, 2), iterations=100)
        assert not res.success
        assert res.robustness < 0

    def test_dynamics_and_bounds_hold_exactly(self):
        res = reach()
        states, u = res.trajectory.states, res.trajectory.controls
        assert np.abs(states[1:] - states[:-1] - u).max() <= 1e-9
        assert np.all(np.abs(u) < 1.0)

    def test_returned_states_follow_dynamics_bitwise(self):
        # x(t+1) = x(t) + u(t) with no rounding slack, and the states checked
        # and returned are the ones the smooth objective was ascended on
        res = reach()
        states, u = res.trajectory.states, res.trajectory.controls
        assert np.array_equal(states[1:], states[:-1] + u)
        rng = np.random.default_rng(16)
        u_max = np.array([0.7, 1.3])
        for _ in range(50):
            x0, w = rng.normal(size=2) * 5.0, rng.normal(size=(25, 2))
            states, u = _unroll(x0, w, u_max)
            assert np.array_equal(states[0], x0)
            assert np.array_equal(states[1:], states[:-1] + u)

    def test_descent_gradient_is_the_graph_of_unroll_bitwise(self):
        # the hand-carried gradient on w equals backward() through tanh, the
        # u_max product and the running sum of chained adds from x0, stacked
        # and composed with the monitor's node, on random repair-like targets
        a, b = InRegion("C", C), InRegion("Far", FAR)
        rng = np.random.default_rng(17)
        u_max = np.array([0.7, 1.3])
        for _ in range(30):
            pins = [(int(t), a if rng.random() < 0.5 else INot(b))
                    for t in rng.integers(0, 9, size=int(rng.integers(1, 8)))]
            pins.append((int(rng.integers(0, 4)), IEventually(a, 0, int(rng.integers(1, 5)))))
            target = pinned_conjunction(pins)
            x0, w0 = rng.normal(size=2), rng.normal(size=(10, 2))
            for tau in (2.0, 32.0):
                w = Tensor(w0.copy())
                u = ad.tanh(w) * Tensor(u_max)
                rows = [x0]
                for t in range(10):
                    rows.append(rows[-1] + u[t])
                states = ad.stack(rows, axis=0)
                (-inner_rho_tensor(states, target, tau)).backward()
                assert np.array_equal(_descent_grad(x0, w0, u_max, target, tau), w.grad)

    def test_deterministic_given_seed(self):
        a = reach()
        b = reach()
        assert np.array_equal(a.trajectory.states, b.trajectory.states)

    def test_target_horizon_must_fit(self):
        with pytest.raises(SpecError):
            reach(horizon_steps=3, target=IEventually(in_c(), 0, 9))

    def test_initial_state_must_be_two_finite_numbers(self):
        # a NaN coordinate would fail every check and leave no best trajectory
        for x0 in ([np.nan, 1.0], [1.0, -np.inf], [1.0], [0.0, 0.0, 0.0]):
            with pytest.raises(SpecError, match="initial state must be two finite numbers"):
                reach(x0=np.array(x0))

    @pytest.mark.parametrize("u_max", [[np.nan, 1.0], [1.0, np.inf], [1.0, 1.0, 1.0], [1.0],
                                       [0.0, 1.0], [1.0, -2.0]])
    def test_control_bound_must_be_two_finite_positive_numbers(self, u_max):
        with pytest.raises(SpecError, match="u_max must be two finite positive numbers"):
            reach(u_max=np.array(u_max))

    @pytest.mark.parametrize("w_init", [np.zeros((4, 2)), np.zeros((6, 2)), np.zeros((5, 3)),
                                        np.zeros(10), np.full((5, 2), np.nan),
                                        np.full((5, 2), -np.inf)],
                             ids=["short", "long", "wide", "flat", "nan", "inf"])
    def test_warm_start_must_be_finite_and_one_row_per_step(self, w_init):
        # a short w_init used to return horizon_steps states, one too few
        with pytest.raises(SpecError, match=r"w_init must be finite and of shape \(5, 2\)"):
            reach(w_init=w_init)

    def test_warm_start_replaces_the_first_draw(self):
        w_init = np.full((5, 2), 0.5)
        res = reach(w_init=w_init, iterations=1, restarts=1)
        assert res.trajectory.states.shape == (6, 2)
        assert res.trajectory.controls.shape == (5, 2)


class TestSynthesizeConjunction:
    def test_sequential_waypoints(self):
        a_box = Region.box("A", (1.5, -0.5), (2.5, 0.5))
        b_box = Region.box("Bx", (3.5, -0.5), (4.5, 0.5))
        pins = [
            (2, InRegion("A", a_box)),
            (5, InRegion("Bx", b_box)),
        ]
        res = synthesize_conjunction(np.zeros(2), pins, 6, np.ones(2),
                                     iterations=250, restarts=3, seed=3)
        assert res.success
        assert inner_sat(res.trajectory, InRegion("A", a_box), 2)
        assert inner_sat(res.trajectory, InRegion("Bx", b_box), 5)

    def test_empty_pin_list_is_trivial_success(self):
        res = synthesize_conjunction(np.ones(2), [], 4, np.ones(2),
                                     iterations=500, restarts=8, seed=0)
        assert res.success
        assert np.all(res.trajectory.controls == 0.0)

    def test_conflicting_pins_fail(self):
        west = Region.box("W", (-3.0, -0.5), (-2.0, 0.5))
        east = Region.box("E", (2.0, -0.5), (3.0, 0.5))
        pins = [
            (3, InRegion("W", west)),
            (3, InRegion("E", east)),
        ]
        res = synthesize_conjunction(np.zeros(2), pins, 5, np.ones(2),
                                     iterations=120, restarts=2, seed=1)
        assert not res.success

    def test_avoidance_pin(self):
        pins = [(4, InRegion("C", C)), (2, INot(InRegion("C", C)))]
        res = synthesize_conjunction(np.zeros(2), pins, 5, np.ones(2),
                                     iterations=250, restarts=3, seed=5)
        assert res.success
        assert not inner_sat(res.trajectory, InRegion("C", C), 2)
        assert inner_sat(res.trajectory, InRegion("C", C), 4)
