"""Initial-state sampling and agent control bounds."""

import numpy as np
import pytest

from catl.formulas import SpecError
from catl.geometry import Region
from catl.scenario import AgentSpec, Scenario, builtin


def test_single_rectangle_stream_is_scalar_uniform_draws():
    sc, _, _ = builtin("case-study")
    got = sc.sample_initial_batch(np.random.default_rng(5), 4)
    rng = np.random.default_rng(5)
    want = np.zeros((4, sc.n_agents, 2))
    for n in range(4):
        for i, a in enumerate(sc.agents):
            (lo, hi), = sc.regions[a.init_region].rects
            want[n, i] = [rng.uniform(lo[0], hi[0]), rng.uniform(lo[1], hi[1])]
    assert np.array_equal(got, want)
    assert np.array_equal(sc.sample_initial(np.random.default_rng(5)), got[0])


def test_two_rectangle_region_is_picked_by_area():
    # areas 1 and 3, so three draws in four land in the right rectangle
    start = Region("Start", (((0.0, 0.0), (1.0, 1.0)), ((2.0, 0.0), (5.0, 1.0))))
    agents = [AgentSpec(j, frozenset({"c"}), (1.0, 1.0), "Start") for j in (1, 2)]
    sc = Scenario("two-rects", ((0.0, 0.0), (6.0, 2.0)), {"Start": start}, ["c"], agents, 3)
    x = sc.sample_initial_batch(np.random.default_rng(3), 4000)
    assert x.shape == (4000, 2, 2)
    assert np.all(start.margin(x) >= 0)
    assert np.allclose((x[..., 0] >= 2.0).mean(axis=0), 0.75, atol=0.03)


@pytest.mark.parametrize("u_max", [(1.0,), (1.0, 1.0, 1.0), (1.0, 0.0), (-1.0, 1.0),
                                   (1.0, float("inf")), (float("nan"), 1.0), ("1", 1.0), 1.0,
                                   (True, 1.0)],
                         ids=["one", "three", "zero", "negative", "inf", "nan", "text", "scalar",
                              "bool"])
def test_agent_needs_two_positive_finite_bounds(u_max):
    with pytest.raises(SpecError, match="^agent 3: control bounds are "):
        AgentSpec(3, frozenset({"a"}), u_max, "Init")
    assert AgentSpec(3, frozenset({"a"}), [0.5, 2], "Init").u_max == (0.5, 2)
