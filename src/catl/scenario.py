"""Scenario definitions: workspace geometry, agent rosters, initial-state
sampling, spec binding, and the built-in benchmark scenarios."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .formulas import OuterFormula, SpecError, Task, bind, capability_vector, horizon, walk
from .geometry import Region
from .parsing import parse_spec


@dataclass(frozen=True)
class AgentSpec:
    agent_id: int
    capabilities: frozenset[str]
    u_max: tuple[float, float]
    init_region: str

    def __post_init__(self):
        object.__setattr__(self, "capabilities", frozenset(self.capabilities))
        if min(self.u_max) <= 0:
            raise SpecError(f"agent {self.agent_id}: control bounds must be positive")


@dataclass
class Scenario:
    name: str
    workspace: tuple[tuple[float, float], tuple[float, float]]
    regions: dict[str, Region]
    capabilities: list[str]
    agents: list[AgentSpec]
    horizon: int

    def __post_init__(self):
        self.agents = sorted(self.agents, key=lambda a: a.agent_id)
        ids = [a.agent_id for a in self.agents]
        if len(set(ids)) != len(ids):
            raise SpecError(f"duplicate agent ids: {ids}")
        union = set().union(*(a.capabilities for a in self.agents)) if self.agents else set()
        if union != set(self.capabilities):
            raise SpecError(
                f"agent capabilities {sorted(union)} must cover exactly the "
                f"vocabulary {self.capabilities}"
            )
        for a in self.agents:
            if a.init_region not in self.regions:
                raise SpecError(f"agent {a.agent_id}: unknown init region {a.init_region!r}")
        if self.horizon < 1:
            raise SpecError("horizon must be >= 1")

    # -- roster helpers --

    @property
    def n_agents(self) -> int:
        return len(self.agents)

    def jc_sizes(self) -> dict[str, int]:
        return {
            c: sum(1 for a in self.agents if c in a.capabilities) for c in self.capabilities
        }

    def capability_matrix(self) -> np.ndarray:
        return np.stack(
            [capability_vector(a.capabilities, self.capabilities) for a in self.agents]
        )

    def u_max_matrix(self) -> np.ndarray:
        return np.array([a.u_max for a in self.agents], dtype=np.float64)

    def member_caps(self) -> list[frozenset[str]]:
        return [a.capabilities for a in self.agents]

    # -- sampling --

    def sample_initial(self, rng: np.random.Generator) -> np.ndarray:
        """One uniform draw per agent from its initial region; (J, 2)."""
        return self.sample_initial_batch(rng, 1)[0]

    def sample_initial_batch(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n uniform draws per agent from its initial region; (n, J, 2). Where a
        region has several rectangles, one is picked per draw, weighted by area,
        before any coordinate is drawn."""
        lo, hi = np.empty((n, self.n_agents, 2)), np.empty((n, self.n_agents, 2))
        for i, a in enumerate(self.agents):
            rects = np.array(self.regions[a.init_region].rects, dtype=np.float64)  # (R, 2, 2)
            pick = 0
            if len(rects) > 1:
                areas = np.prod(rects[:, 1] - rects[:, 0], axis=1)
                weights = areas / areas.sum() if areas.sum() > 0 else None
                pick = rng.choice(len(rects), size=n, p=weights)
            lo[:, i], hi[:, i] = rects[pick, 0], rects[pick, 1]
        return rng.uniform(lo, hi)

    # -- spec binding --

    def bind_spec(self, phi: OuterFormula) -> OuterFormula:
        """Bind region names, validate capabilities/counts and the horizon."""
        bound = bind(phi, self.regions)
        if horizon(bound) > self.horizon:
            raise SpecError(
                f"spec horizon {horizon(bound)} exceeds scenario horizon {self.horizon}"
            )
        _validate_counts(bound, self.jc_sizes())
        return bound

    def parse_spec(self, text: str) -> OuterFormula:
        phi = parse_spec(text, regions=self.regions, capabilities=self.capabilities)
        return self.bind_spec(phi)


def _validate_counts(phi, sizes: dict[str, int]) -> None:
    for node in walk(phi):
        if not isinstance(node, Task):
            continue
        name = node.cap.name
        if name not in sizes:
            raise SpecError(f"capability {name!r} absent from the scenario")
        if node.count > sizes[name]:
            raise SpecError(
                f"task needs {node.count} agents with {name!r}, scenario has {sizes[name]}"
            )


# -- scenario files -----------------------------------------------------------


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    doc = {
        "name": scenario.name,
        "workspace": [list(scenario.workspace[0]), list(scenario.workspace[1])],
        "regions": [
            {"name": r.name, "rects": [[list(lo), list(hi)] for lo, hi in r.rects]}
            for r in scenario.regions.values()
        ],
        "capabilities": scenario.capabilities,
        "agents": [
            {
                "id": a.agent_id,
                "capabilities": sorted(a.capabilities),
                "u_max": list(a.u_max),
                "init_region": a.init_region,
            }
            for a in scenario.agents
        ],
        "horizon": scenario.horizon,
    }
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def load_scenario(path: str | Path) -> Scenario:
    doc = json.loads(Path(path).read_text())
    regions = {}
    for entry in doc["regions"]:
        rects = tuple(
            (tuple(map(float, lo)), tuple(map(float, hi))) for lo, hi in entry["rects"]
        )
        regions[entry["name"]] = Region(entry["name"], rects)
    agents = [
        AgentSpec(
            agent_id=e["id"],
            capabilities=frozenset(e["capabilities"]),
            u_max=tuple(e["u_max"]),
            init_region=e["init_region"],
        )
        for e in doc["agents"]
    ]
    return Scenario(
        name=doc.get("name", Path(path).stem),
        workspace=(tuple(doc["workspace"][0]), tuple(doc["workspace"][1])),
        regions=regions,
        capabilities=list(doc["capabilities"]),
        agents=agents,
        horizon=int(doc["horizon"]),
    )


# -- built-in scenarios ----------------------------------------------------------


def case_study() -> tuple[Scenario, OuterFormula]:
    """Six-robot emergency-response mission on a 10x10 workspace.

    Four ground vehicles (Delivery+Ground, |u| <= 1) start in the south-west,
    two aerial vehicles (Delivery+Inspection, |u| <= 1.2) in the south-east.
    A river band crosses the middle, passable for ground vehicles only at the
    bridge; supplies are collected in C and delivered to villages V1/V2 on
    the far side, subject to bridge inspection, river avoidance, single-file
    bridge occupancy, and containment rules over a 25-step horizon.
    """
    regions = {
        "C": Region.box("C", (4.0, 1.0), (6.0, 3.0)),
        "V1": Region.box("V1", (1.0, 7.5), (3.0, 9.5)),
        "V2": Region.box("V2", (7.0, 7.5), (9.0, 9.5)),
        "B": Region.box("B", (4.4, 4.5), (5.6, 6.0)),
        "R": Region(
            "R",
            (
                ((0.0, 4.5), (4.4, 6.0)),
                ((5.6, 4.5), (10.0, 6.0)),
            ),
        ),
        "M": Region.box("M", (0.0, 0.0), (10.0, 10.0)),
        "Init_g": Region.box("Init_g", (0.5, 0.5), (2.0, 2.0)),
        "Init_a": Region.box("Init_a", (8.0, 0.5), (9.5, 2.0)),
    }
    ground = frozenset({"Delivery", "Ground"})
    aerial = frozenset({"Delivery", "Inspection"})
    agents = [AgentSpec(j, ground, (1.0, 1.0), "Init_g") for j in range(1, 5)]
    agents += [AgentSpec(j, aerial, (1.2, 1.2), "Init_a") for j in range(5, 7)]
    scenario = Scenario(
        name="case-study",
        workspace=((0.0, 0.0), (10.0, 10.0)),
        regions=regions,
        capabilities=["Delivery", "Ground", "Inspection"],
        agents=agents,
        horizon=25,
    )
    return scenario, scenario.parse_spec(CASE_STUDY_SPEC)


CASE_STUDY_SPEC = """\
# supplies within 8, deliveries to both villages, inspected bridge,
# river avoidance, single-file bridge, containment
task(F[0,8] in(C), Delivery, 6)
& task(F[0,25] in(V1), Delivery, 3)
& task(F[0,25] in(V2), Delivery, 3)
& (!task(in(B), Ground, 1) U[0,5] task(in(B), Inspection, 2))
& G[0,25] task(!in(R), Ground, 4)
& G[0,25] !task(in(B), Ground, 2)
& G[0,25] task(in(M), Delivery, 6)
"""


def reduced_case_study() -> tuple[Scenario, OuterFormula]:
    """Four-robot variant without the bridge-coordination rules.

    Keeps reach/delivery/avoidance/containment (counts rescaled to the
    2 ground + 2 aerial roster); drops inspection and bridge occupancy.
    """
    base, _ = case_study()
    ground = frozenset({"Delivery", "Ground"})
    aerial = frozenset({"Delivery", "Inspection"})
    agents = [
        AgentSpec(1, ground, (1.0, 1.0), "Init_g"),
        AgentSpec(2, ground, (1.0, 1.0), "Init_g"),
        AgentSpec(3, aerial, (1.2, 1.2), "Init_a"),
        AgentSpec(4, aerial, (1.2, 1.2), "Init_a"),
    ]
    scenario = Scenario(
        name="reduced-case-study",
        workspace=base.workspace,
        regions=base.regions,
        capabilities=base.capabilities,
        agents=agents,
        horizon=25,
    )
    return scenario, scenario.parse_spec(REDUCED_SPEC)


REDUCED_SPEC = """\
task(F[0,8] in(C), Delivery, 4)
& task(F[0,25] in(V1), Delivery, 2)
& task(F[0,25] in(V2), Delivery, 2)
& G[0,25] task(!in(R), Ground, 2)
& G[0,25] task(in(M), Delivery, 4)
"""


def toy_benchmark() -> tuple[Scenario, OuterFormula]:
    """Single agent, reach-the-goal while avoiding an obstacle in the way."""
    regions = {
        "Init": Region.box("Init", (0.5, 0.5), (1.5, 1.5)),
        "Goal": Region.box("Goal", (4.5, 4.5), (5.5, 5.5)),
        "Obs": Region.box("Obs", (2.5, 2.0), (3.5, 4.0)),
    }
    scenario = Scenario(
        name="toy",
        workspace=((0.0, 0.0), (6.0, 6.0)),
        regions=regions,
        capabilities=["Robot"],
        agents=[AgentSpec(1, frozenset({"Robot"}), (1.0, 1.0), "Init")],
        horizon=10,
    )
    return scenario, scenario.parse_spec(TOY_SPEC)


TOY_SPEC = """\
task(F[0,10] in(Goal), Robot, 1) & G[0,10] task(!in(Obs), Robot, 1)
"""


def triple_toy() -> tuple[Scenario, OuterFormula]:
    """Three heterogeneous agents on a small map; used by randomized repair tests."""
    regions = {
        "A": Region.box("A", (1.0, 1.0), (2.5, 2.5)),
        "B": Region.box("B", (3.5, 1.0), (5.0, 2.5)),
        "Cc": Region.box("Cc", (2.0, 3.5), (4.0, 5.0)),
        "Start": Region.box("Start", (0.5, 0.5), (5.5, 5.5)),
    }
    scenario = Scenario(
        name="triple-toy",
        workspace=((0.0, 0.0), (6.0, 6.0)),
        regions=regions,
        capabilities=["red", "blue"],
        agents=[
            AgentSpec(1, frozenset({"red"}), (1.0, 1.0), "Start"),
            AgentSpec(2, frozenset({"red", "blue"}), (1.0, 1.0), "Start"),
            AgentSpec(3, frozenset({"blue"}), (1.2, 1.2), "Start"),
        ],
        horizon=6,
    )
    return scenario, scenario.parse_spec(TRIPLE_TOY_SPEC)


TRIPLE_TOY_SPEC = """\
task(F[0,6] in(A), red, 1) & task(F[0,6] in(B), blue, 1) & G[0,6] task(!in(Cc), red, 2)
"""


BUILTIN_SCENARIOS = {
    "case-study": (case_study, CASE_STUDY_SPEC),
    "reduced": (reduced_case_study, REDUCED_SPEC),
    "toy": (toy_benchmark, TOY_SPEC),
    "triple-toy": (triple_toy, TRIPLE_TOY_SPEC),
}


def builtin(name: str) -> tuple[Scenario, OuterFormula, str]:
    if name not in BUILTIN_SCENARIOS:
        raise SpecError(f"unknown builtin scenario {name!r} "
                        f"(have: {', '.join(sorted(BUILTIN_SCENARIOS))})")
    factory, text = BUILTIN_SCENARIOS[name]
    scenario, phi = factory()
    return scenario, phi, text
