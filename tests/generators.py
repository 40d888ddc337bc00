"""Seeded random formulas, trajectories and tiny teams for property tests."""

from __future__ import annotations

import numpy as np

from catl.formulas import (
    HalfPlane,
    IAlways,
    IAnd,
    IEventually,
    INot,
    IOr,
    ITrue,
    IUntil,
    OAlways,
    OAnd,
    OEventually,
    ONot,
    OOr,
    OTrue,
    OUntil,
    Predicate,
    InRegion,
    Task,
    TimedTask,
)
from catl.geometry import Region
from catl.trajectories import IndividualTrajectory, TeamMember, TeamTrajectory

REGIONS = {
    "A": Region.box("A", (-1.0, -1.0), (1.0, 1.0)),
    "B": Region.box("B", (0.5, -2.0), (2.5, 0.5)),
}

CAPS = ["red", "blue"]

TEAM_CAPS = [frozenset({"red"}), frozenset({"red", "blue"}), frozenset({"blue"})]


def random_predicate(rng: np.random.Generator) -> Predicate:
    if rng.random() < 0.5:
        name = rng.choice(list(REGIONS))
        return InRegion(name, REGIONS[name])
    angle = rng.uniform(0, 2 * np.pi)
    return HalfPlane((float(np.cos(angle)), float(np.sin(angle))), float(rng.uniform(-1.5, 1.5)))


def random_interval(rng: np.random.Generator, budget: int) -> tuple[int, int]:
    a = int(rng.integers(0, max(budget, 1)))
    b = int(rng.integers(a, budget + 1))
    return a, b


def random_inner(rng: np.random.Generator, depth: int, budget: int):
    """Random inner formula with horizon <= budget."""
    if depth <= 0 or budget <= 0:
        kinds = ["pred", "pred", "pred", "true"]
    else:
        kinds = ["pred", "true", "not", "and", "or", "ev", "al", "until"]
    kind = rng.choice(kinds)
    if kind == "true":
        return ITrue()
    if kind == "pred":
        return random_predicate(rng)
    if kind == "not":
        return INot(random_inner(rng, depth - 1, budget))
    if kind in ("and", "or"):
        n = int(rng.integers(2, 4))
        children = tuple(random_inner(rng, depth - 1, budget) for _ in range(n))
        return IAnd(children) if kind == "and" else IOr(children)
    a, b = random_interval(rng, budget)
    rest = budget - b
    if kind == "ev":
        return IEventually(random_inner(rng, depth - 1, rest), a, b)
    if kind == "al":
        return IAlways(random_inner(rng, depth - 1, rest), a, b)
    return IUntil(
        random_inner(rng, depth - 1, rest), random_inner(rng, depth - 1, rest), a, b
    )


def random_task(rng: np.random.Generator, depth: int, budget: int,
                team_caps=None) -> Task:
    team_caps = team_caps if team_caps is not None else TEAM_CAPS
    cap = str(rng.choice(CAPS))
    holders = sum(1 for caps in team_caps if cap in caps)
    m = int(rng.integers(1, holders + 1))
    return Task(random_inner(rng, depth, budget), cap, m)


def random_outer(rng: np.random.Generator, depth: int, budget: int,
                 team_caps=None, allow_not: bool = True):
    """Random team formula with horizon <= budget."""
    if depth <= 0 or budget <= 0:
        kinds = ["task", "task", "task", "true"]
    else:
        kinds = ["task", "true", "and", "or", "ev", "al", "until"]
        if allow_not:
            kinds += ["not", "not"]
    kind = rng.choice(kinds)
    if kind == "true":
        return OTrue()
    if kind == "task":
        inner_budget = int(rng.integers(0, budget + 1)) if budget > 0 else 0
        task = random_task(rng, max(depth - 1, 0), inner_budget, team_caps)
        if budget - inner_budget > 0 and rng.random() < 0.25:
            offset = int(rng.integers(0, budget - inner_budget + 1))
            return TimedTask(task, offset)
        return task
    if kind == "not":
        return ONot(random_outer(rng, depth - 1, budget, team_caps, allow_not))
    if kind in ("and", "or"):
        n = int(rng.integers(2, 4))
        children = tuple(
            random_outer(rng, depth - 1, budget, team_caps, allow_not) for _ in range(n)
        )
        return OAnd(children) if kind == "and" else OOr(children)
    a, b = random_interval(rng, budget)
    rest = budget - b
    if kind == "ev":
        return OEventually(random_outer(rng, depth - 1, rest, team_caps, allow_not), a, b)
    if kind == "al":
        return OAlways(random_outer(rng, depth - 1, rest, team_caps, allow_not), a, b)
    return OUntil(
        random_outer(rng, depth - 1, rest, team_caps, allow_not),
        random_outer(rng, depth - 1, rest, team_caps, allow_not),
        a,
        b,
    )


def random_states(rng: np.random.Generator, length: int, scale: float = 2.0) -> np.ndarray:
    start = rng.uniform(-scale, scale, size=2)
    steps = rng.uniform(-1.0, 1.0, size=(length - 1, 2))
    return np.vstack([start, start + np.cumsum(steps, axis=0)])


def random_team(rng: np.random.Generator, length: int, team_caps=None) -> TeamTrajectory:
    team_caps = team_caps if team_caps is not None else TEAM_CAPS
    return TeamTrajectory(
        [
            TeamMember(j, IndividualTrajectory(random_states(rng, length)), caps)
            for j, caps in enumerate(team_caps)
        ]
    )
