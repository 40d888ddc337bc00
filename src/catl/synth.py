"""Gradient-based single-agent synthesis under integrator dynamics.

Controls are parameterized as u(t) = u_max * tanh(w(t)), which keeps every
control strictly inside its box; w is optimized with Adam (learning rate
0.05) to maximize the smooth robustness of the target formula at time 0.
The temperature starts soft and sharpens: tau = 2 at iteration 0, doubling
every 100 iterations up to 32. Every 20 iterations, and at the last one,
the classical robustness is checked and the best-checked trajectory is kept.
Restarts are seeded and sequential, a warm start replacing restart 0's
random draw; the first check above the success margin 1e-3 ends the search.

The states are one running sum over [x0, u0, u1, ...], added in that order,
so the unrolled dynamics are a single graph node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .formulas import IAnd, IEventually, InnerFormula, ITrue, SpecError, horizon
from .monitor import SMOOTH, RobustnessConfig, inner_rho, inner_rho_tensor
from .nn import Adam
from .trajectories import IndividualTrajectory


@dataclass
class SynthesisRequest:
    x0: np.ndarray
    horizon: int
    u_max: np.ndarray
    target: InnerFormula
    iterations: int = 500
    restarts: int = 8
    seed: int = 0
    w_init: np.ndarray | None = None  # warm start for the first restart

    def __post_init__(self):
        for name in ("iterations", "restarts"):
            if getattr(self, name) < 1:
                raise SpecError(f"{name} must be at least 1, got {getattr(self, name)}")
        self.x0 = np.asarray(self.x0, dtype=np.float64).reshape(2)
        self.u_max = np.asarray(self.u_max, dtype=np.float64).reshape(2)
        if np.any(self.u_max <= 0):
            raise SpecError("control bounds must be positive")
        if horizon(self.target) > self.horizon:
            raise SpecError(
                f"target horizon {horizon(self.target)} exceeds request horizon {self.horizon}"
            )


@dataclass
class SynthResult:
    trajectory: IndividualTrajectory
    robustness: float  # classical, at time 0
    success: bool
    restarts_used: int = 0


def _unroll(x0: np.ndarray, w: Tensor, u_max: np.ndarray) -> tuple[Tensor, Tensor]:
    """States (H+1, 2) and controls (H, 2) from the unconstrained weights; state
    t is ((x0 + u0) + u1) + ... + u(t-1), one running-sum node."""
    u = ad.tanh(w) * Tensor(u_max)
    return ad.cumsum(ad.concat([Tensor(x0.reshape(1, 2)), u], axis=0), axis=0), u


def synthesize(req: SynthesisRequest) -> SynthResult:
    """Best-effort trajectory maximizing the target's robustness from x0.

    Success means strictly positive classical robustness; on failure the
    best restart's trajectory is returned flagged unsuccessful.
    """
    if isinstance(req.target, ITrue):
        u = np.zeros((req.horizon, 2))
        states = np.tile(req.x0, (req.horizon + 1, 1))
        return SynthResult(IndividualTrajectory(states, u), SMOOTH.top, True)

    best_rho = -np.inf
    for restart in range(req.restarts):
        rng = np.random.default_rng([req.seed, restart])
        if restart == 0 and req.w_init is not None:
            w = Tensor(req.w_init.copy())
        else:
            w = Tensor(rng.uniform(-1.0, 1.0, size=(req.horizon, 2)))
        opt = Adam({"w": w}, lr=0.05)
        for it in range(req.iterations):
            tau = min(2.0 * (2.0 ** (it // 100)), 32.0)
            cfg = RobustnessConfig("smooth", tau=tau)
            opt.zero_grad()
            states, _ = _unroll(req.x0, w, req.u_max)
            (-inner_rho_tensor(states, req.target, cfg)).backward()
            opt.step()
            if it % 20 == 19 or it == req.iterations - 1:
                with ad.no_grad():
                    states, u = _unroll(req.x0, w, req.u_max)
                rho_c = inner_rho(states.value, req.target, 0)
                if rho_c > best_rho:
                    best_rho, best = rho_c, (states.value, u.value)
                if rho_c > 1e-3:
                    break
        # best_rho passes the margin exactly when a check did and ended the restart
        if best_rho > 1e-3:
            break

    return SynthResult(IndividualTrajectory(*best), best_rho, best_rho > 0.0, restart + 1)


def pinned_conjunction(pins: list[tuple[int, InnerFormula]]) -> InnerFormula:
    """Conjunction of formulas each pinned to hold at an exact time."""
    parts = [IEventually(phi, t, t) for t, phi in sorted(pins, key=lambda p: p[0])]
    return IAnd.of(parts, ITrue())


def synthesize_conjunction(
    x0: np.ndarray,
    pins: list[tuple[int, InnerFormula]],
    horizon_steps: int,
    u_max: np.ndarray,
    **budget,
) -> SynthResult:
    """Synthesis for a set of (time, formula) requirements on one agent."""
    for t, _ in pins:
        if t > horizon_steps:
            raise SpecError(f"pinned time {t} exceeds horizon {horizon_steps}")
    req = SynthesisRequest(
        x0=x0, horizon=horizon_steps, u_max=u_max, target=pinned_conjunction(pins), **budget
    )
    return synthesize(req)


def warm_start_weights(controls: np.ndarray, u_max: np.ndarray) -> np.ndarray:
    """Invert the tanh parameterization of an existing control sequence."""
    ratio = np.clip(controls / u_max, -0.999, 0.999)
    return np.arctanh(ratio)
