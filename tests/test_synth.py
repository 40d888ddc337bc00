"""Synthesis: feasibility, constraint satisfaction, ascent, determinism."""

import numpy as np
import pytest

from catl.formulas import IAlways, IEventually, INot, InRegion, ITrue, Predicate, SpecError
from catl.geometry import Region
from catl.monitor import inner_sat
from catl.autodiff import Tensor
from catl.synth import SynthesisRequest, _unroll, synthesize, synthesize_conjunction

C = Region.box("C", (2.5, -0.5), (3.5, 0.5))  # unit square centered (3, 0)
FAR = Region.box("Far", (7.0, 7.0), (8.0, 8.0))


def in_c():
    return Predicate(InRegion("C", C))


def reach_request(**kw) -> SynthesisRequest:
    defaults = dict(
        x0=np.zeros(2),
        horizon=5,
        u_max=np.ones(2),
        target=IEventually(in_c(), 0, 5),
        iterations=200,
        restarts=3,
        seed=7,
    )
    defaults.update(kw)
    return SynthesisRequest(**defaults)


class TestSynthesize:
    def test_reachable_goal_within_deadline(self):
        # sup-distance to the region is 2.5 < 5 steps at speed 1: feasible
        res = synthesize(reach_request())
        assert res.success
        assert res.robustness > 0
        assert inner_sat(res.trajectory, IEventually(in_c(), 0, 5), 0)

    def test_true_target_is_immediate(self):
        res = synthesize(reach_request(target=ITrue()))
        assert res.success
        assert np.all(res.trajectory.controls == 0.0)
        assert res.robustness == 1e6

    def test_always_from_outside_is_infeasible(self):
        res = synthesize(reach_request(target=IAlways(in_c(), 0, 2), iterations=100))
        assert not res.success
        assert res.robustness < 0

    def test_dynamics_and_bounds_hold_exactly(self):
        res = synthesize(reach_request())
        states, u = res.trajectory.states, res.trajectory.controls
        assert np.abs(states[1:] - states[:-1] - u).max() <= 1e-9
        assert np.all(np.abs(u) < 1.0)

    def test_returned_states_follow_dynamics_bitwise(self):
        # x(t+1) = x(t) + u(t) with no rounding slack, and the states checked
        # and returned are the ones the smooth objective was ascended on
        res = synthesize(reach_request())
        states, u = res.trajectory.states, res.trajectory.controls
        assert np.array_equal(states[1:], states[:-1] + u)
        rng = np.random.default_rng(16)
        u_max = np.array([0.7, 1.3])
        for _ in range(50):
            x0, w = rng.normal(size=2) * 5.0, rng.normal(size=(25, 2))
            states, u = (a.value for a in _unroll(x0, Tensor(w), u_max))
            assert np.array_equal(states[1:], states[:-1] + u)

    def test_deterministic_given_seed(self):
        a = synthesize(reach_request())
        b = synthesize(reach_request())
        assert np.array_equal(a.trajectory.states, b.trajectory.states)

    def test_target_horizon_must_fit(self):
        with pytest.raises(SpecError):
            reach_request(horizon=3, target=IEventually(in_c(), 0, 9))


class TestSynthesizeConjunction:
    def test_sequential_waypoints(self):
        a_box = Region.box("A", (1.5, -0.5), (2.5, 0.5))
        b_box = Region.box("Bx", (3.5, -0.5), (4.5, 0.5))
        pins = [
            (2, Predicate(InRegion("A", a_box))),
            (5, Predicate(InRegion("Bx", b_box))),
        ]
        res = synthesize_conjunction(np.zeros(2), pins, 6, np.ones(2),
                                     iterations=250, restarts=3, seed=3)
        assert res.success
        assert inner_sat(res.trajectory, Predicate(InRegion("A", a_box)), 2)
        assert inner_sat(res.trajectory, Predicate(InRegion("Bx", b_box)), 5)

    def test_empty_pin_list_is_trivial_success(self):
        res = synthesize_conjunction(np.ones(2), [], 4, np.ones(2))
        assert res.success
        assert np.all(res.trajectory.controls == 0.0)

    def test_conflicting_pins_fail(self):
        west = Region.box("W", (-3.0, -0.5), (-2.0, 0.5))
        east = Region.box("E", (2.0, -0.5), (3.0, 0.5))
        pins = [
            (3, Predicate(InRegion("W", west))),
            (3, Predicate(InRegion("E", east))),
        ]
        res = synthesize_conjunction(np.zeros(2), pins, 5, np.ones(2),
                                     iterations=120, restarts=2, seed=1)
        assert not res.success

    def test_avoidance_pin(self):
        pins = [(4, Predicate(InRegion("C", C))), (2, INot(Predicate(InRegion("C", C))))]
        res = synthesize_conjunction(np.zeros(2), pins, 5, np.ones(2),
                                     iterations=250, restarts=3, seed=5)
        assert res.success
        assert not inner_sat(res.trajectory, Predicate(InRegion("C", C)), 2)
        assert inner_sat(res.trajectory, Predicate(InRegion("C", C)), 4)
