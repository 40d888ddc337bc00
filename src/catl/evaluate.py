"""Monte-Carlo evaluation of a trained policy against a specification."""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .formulas import OuterFormula
from .monitor import outer_rho_batch, outer_sat_batch
from .policy import PolicyParams, RolloutResult, rollout
from .scenario import Scenario

_CHUNK = 250


@dataclass
class EvalReport:
    trials: int
    successes: int
    success_rate: float
    rho_min: float
    rho_mean: float
    rho_max: float
    rho_quantiles: list[float]  # 0, 25, 50, 75, 100th percentiles
    mean_communications: float
    wall_clock_per_rollout: float
    gate_mode: str
    seed: int

    def to_json(self) -> dict:
        """Serialized form: every field but the timing, which is left out so
        reports from identical seeds are bitwise identical."""
        return {k: v for k, v in asdict(self).items() if k != "wall_clock_per_rollout"}

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), indent=1, sort_keys=True) + "\n")


def scored_rollouts(
    params: PolicyParams,
    scenario: Scenario,
    phi: OuterFormula,
    x0: np.ndarray,
    gate_mode: str,
) -> tuple[RolloutResult, np.ndarray, np.ndarray]:
    """No-grad rollouts of the teams x0 (B, J, n_x), with per team its
    classical robustness and its success, each (B,). This is the one place
    success is decided: robustness > 0 succeeds, below 0 fails, and a row
    tied at exactly 0 gets the boolean monitor's verdict, where a state on a
    region's edge is in the region."""
    member_caps = scenario.member_caps()
    with ad.no_grad():
        res = rollout(params, x0, scenario.horizon, gate_mode, member_caps=member_caps)
    states = res.states_numpy()
    members = [(states[:, j], caps) for j, caps in enumerate(member_caps)]
    eta = outer_rho_batch(members, phi)
    success = eta > 0
    tied = np.flatnonzero(eta == 0)
    if tied.size:
        success[tied] = outer_sat_batch([(x[tied], caps) for x, caps in members], phi)
    return res, eta, success


def evaluate(
    params: PolicyParams,
    scenario: Scenario,
    phi: OuterFormula,
    trials: int,
    seed: int = 0,
    gate_mode: str = "full",
) -> EvalReport:
    """Independent seeded rollouts, scored by ``scored_rollouts``."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng([seed, 97])
    scores: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    t0 = time.perf_counter()
    remaining = trials
    while remaining > 0:
        batch = min(_CHUNK, remaining)
        remaining -= batch
        x0 = scenario.sample_initial_batch(rng, batch)
        res, eta, success = scored_rollouts(params, scenario, phi, x0, gate_mode)
        scores.append((eta, success, res.comm_counts()))
        del res  # one chunk's rollout at a time
    elapsed = time.perf_counter() - t0
    eta, success, comm = (np.concatenate(part) for part in zip(*scores))
    successes = int(success.sum())
    return EvalReport(
        trials=trials,
        successes=successes,
        success_rate=successes / trials,
        rho_min=float(eta.min()),
        rho_mean=float(eta.mean()),
        rho_max=float(eta.max()),
        rho_quantiles=[float(q) for q in np.percentile(eta, [0, 25, 50, 75, 100])],
        mean_communications=float(comm.mean()),
        wall_clock_per_rollout=elapsed / trials,
        gate_mode=gate_mode,
        seed=seed,
    )
