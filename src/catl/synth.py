"""Gradient-based single-agent synthesis under integrator dynamics.

Controls are parameterized as u(t) = u_max * tanh(w(t)), which keeps every
control strictly inside its box; w is optimized with Adam (learning rate
0.05) to maximize the smooth robustness of the target formula at time 0.
The temperature starts soft and sharpens: tau = 2 at iteration 0, doubling
every 100 iterations up to 32. Every 20 iterations, and at the last one,
the classical robustness is checked and the best-checked trajectory is kept.
The budget is ``iterations`` per restart and up to ``restarts`` restarts;
restart r draws its weights from ``default_rng([seed, r])``, a warm start
``w_init`` replacing restart 0's draw. Restarts run one after another and the
first check above the success margin 1e-3 ends the search.

The states are one running sum over [x0, u0, u1, ...], added in that order.
An iteration takes the smooth robustness and its gradient on the states
from ``inner_rho_grad``, without a graph, and carries that gradient back to
w by hand: the reverse running sum, times u_max, times 1 - tanh(w)^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .formulas import IAnd, IEventually, InnerFormula, ITrue, SpecError, horizon
# inner_rho_tensor is unused here but stays a module name: bench/tracing.py wraps it
from .monitor import TOP, inner_rho, inner_rho_grad, inner_rho_tensor  # noqa: F401
from .nn import Adam
from .trajectories import IndividualTrajectory


@dataclass
class SynthResult:
    trajectory: IndividualTrajectory
    robustness: float  # classical, at time 0
    success: bool
    restarts_used: int = 0


def _unroll(x0: np.ndarray, w: np.ndarray, u_max: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """States (H+1, 2) and controls (H, 2) from the unconstrained weights w
    (H, 2), x0 (2,) and u_max (2,); state t is ((x0 + u0) + u1) + ... + u(t-1)."""
    u = np.tanh(w) * u_max
    return np.cumsum(np.concatenate([x0[None], u]), axis=0), u


def _descent_grad(x0: np.ndarray, w: np.ndarray, u_max: np.ndarray, target: InnerFormula,
                  tau: float) -> np.ndarray:
    """The gradient on w of minus the smooth robustness of the unrolled
    states: the monitor's gradient on the states, through the running sum
    (a reverse running sum, less its x0 row) and u = u_max * tanh(w), each
    product in the order the graph of ``_unroll`` would take it."""
    states, _ = _unroll(x0, w, u_max)
    _, g_states = inner_rho_grad(states, target, tau)
    tanh_w = np.tanh(w)
    return (np.cumsum(-g_states[::-1], axis=0)[::-1][1:] * u_max) * (1.0 - tanh_w * tanh_w)


def synthesize(
    x0: np.ndarray,
    target: InnerFormula,
    horizon_steps: int,
    u_max: np.ndarray,
    *,
    iterations: int,
    restarts: int,
    seed: int,
    w_init: np.ndarray | None = None,
) -> SynthResult:
    """Best-effort trajectory of horizon_steps steps from x0 maximizing the
    target's robustness, with |u| <= u_max per axis; the budget and seed are
    described in the module docstring.

    Success means strictly positive classical robustness; on failure the
    best restart's trajectory is returned flagged unsuccessful. A True target
    returns the resting trajectory at robustness ``TOP``.
    """
    for name, value in (("iterations", iterations), ("restarts", restarts)):
        if value < 1:
            raise SpecError(f"{name} must be at least 1, got {value}")
    x0 = np.asarray(x0, dtype=np.float64).ravel()
    if x0.shape != (2,) or not np.isfinite(x0).all():
        raise SpecError(f"initial state must be two finite numbers, got {x0.tolist()}")
    u_max = np.asarray(u_max, dtype=np.float64).ravel()
    if u_max.shape != (2,) or not np.isfinite(u_max).all() or np.any(u_max <= 0):
        raise SpecError(f"u_max must be two finite positive numbers, got {u_max.tolist()}")
    if w_init is not None:
        w_init = np.asarray(w_init, dtype=np.float64)
        if w_init.shape != (horizon_steps, 2) or not np.isfinite(w_init).all():
            raise SpecError(f"w_init must be finite and of shape ({horizon_steps}, 2), "
                            f"got shape {w_init.shape}")
    if horizon(target) > horizon_steps:
        raise SpecError(
            f"target horizon {horizon(target)} exceeds request horizon {horizon_steps}"
        )
    if isinstance(target, ITrue):
        u = np.zeros((horizon_steps, 2))
        states = np.tile(x0, (horizon_steps + 1, 1))
        return SynthResult(IndividualTrajectory(states, u), TOP, True)

    best_rho = -np.inf
    for restart in range(restarts):
        rng = np.random.default_rng([seed, restart])
        if restart == 0 and w_init is not None:
            w = Tensor(w_init.copy())
        else:
            w = Tensor(rng.uniform(-1.0, 1.0, size=(horizon_steps, 2)))
        opt = Adam({"w": w}, lr=0.05)
        for it in range(iterations):
            tau = min(2.0 * (2.0 ** (it // 100)), 32.0)
            w.grad = _descent_grad(x0, w.value, u_max, target, tau)
            opt.step()
            if it % 20 == 19 or it == iterations - 1:
                states, u = _unroll(x0, w.value, u_max)
                rho_c = inner_rho(states, target, 0)
                if rho_c > best_rho:
                    best_rho, best = rho_c, (states, u)
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
    """Synthesis for a set of (time, formula) requirements on one agent;
    ``budget`` holds ``synthesize``'s keyword arguments."""
    for t, _ in pins:
        if t > horizon_steps:
            raise SpecError(f"pinned time {t} exceeds horizon {horizon_steps}")
    return synthesize(x0, pinned_conjunction(pins), horizon_steps, u_max, **budget)


def warm_start_weights(controls: np.ndarray, u_max: np.ndarray) -> np.ndarray:
    """Invert the tanh parameterization of an existing control sequence."""
    ratio = np.clip(controls / u_max, -0.999, 0.999)
    return np.arctanh(ratio)
