"""Qualitative and quantitative semantics over team trajectories.

Two quantitative modes share one signal-based evaluator:

* ``classical`` - exact min/max robustness. Its sign decides satisfaction
  (soundness, checked against an independent boolean recursion in the tests).
* ``smooth`` - min/max replaced by temperature-tau log-sum-exp softmin/softmax,
  evaluated over autodiff tensors so gradients flow to states or parameters.
  Task atoms select the m-th largest per-agent value by exact sort in both
  modes (differentiable almost everywhere), and predicate margins are exact
  in both modes, so |smooth - classical| is bounded by depth * log(W) / tau
  (see :func:`smoothness_bound`).

Until semantics: a witness time t' in [t+a, t+b] for the right operand, with
the left operand required on the half-open prefix [t, t').
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .formulas import (
    Capability,
    HalfPlane,
    IAlways,
    IAnd,
    IEventually,
    INot,
    InnerFormula,
    InRegion,
    IOr,
    ITrue,
    IUntil,
    OAlways,
    OAnd,
    OEventually,
    ONot,
    OOr,
    OTrue,
    OuterFormula,
    OUntil,
    Predicate,
    Task,
    TimedTask,
    horizon,
)
from .trajectories import IndividualTrajectory, TeamTrajectory


class HorizonError(ValueError):
    """Formula needs more future than the trajectory provides."""


class NonFiniteError(ValueError):
    """States handed to the monitor hold NaN or infinite coordinates."""


@dataclass(frozen=True)
class RobustnessConfig:
    """mode is "classical" or "smooth"; tau is the smooth temperature;
    top is the finite robustness assigned to True."""

    mode: str = "classical"
    tau: float = 10.0
    top: float = 1e6

    def __post_init__(self):
        if self.mode not in ("classical", "smooth"):
            raise ValueError(f"unknown robustness mode {self.mode!r}")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if not (0 < self.top < np.inf):
            raise ValueError("top must be positive and finite")


CLASSICAL = RobustnessConfig("classical")
SMOOTH = RobustnessConfig("smooth")


# -- boolean semantics -------------------------------------------------------


def inner_sat(x: IndividualTrajectory | np.ndarray, phi: InnerFormula, t: int) -> bool:
    """Bounded STL satisfaction of one agent's trajectory at time t."""
    states = x.states if isinstance(x, IndividualTrajectory) else np.asarray(x)
    last = len(states) - 1
    if t < 0 or t + horizon(phi) > last:
        raise HorizonError(
            f"evaluating at t={t} needs {t + horizon(phi)} steps, trajectory has {last}"
        )
    return _inner_sat(states, phi, t, {})


def _inner_sat(states, phi, t, memo) -> bool:
    key = (id(phi), t)
    if key in memo:
        return memo[key]
    match phi:
        case ITrue():
            out = True
        case Predicate(fn=fn):
            out = bool(fn.evaluate(states[t]) >= 0.0)
        case INot(child=c):
            out = not _inner_sat(states, c, t, memo)
        case IAnd(children=cs):
            out = all(_inner_sat(states, c, t, memo) for c in cs)
        case IOr(children=cs):
            out = any(_inner_sat(states, c, t, memo) for c in cs)
        case IEventually(child=c, a=a, b=b):
            out = any(_inner_sat(states, c, t + s, memo) for s in range(a, b + 1))
        case IAlways(child=c, a=a, b=b):
            out = all(_inner_sat(states, c, t + s, memo) for s in range(a, b + 1))
        case IUntil(left=l, right=r, a=a, b=b):
            out = any(
                _inner_sat(states, r, t + s, memo)
                and all(_inner_sat(states, l, t + k, memo) for k in range(s))
                for s in range(a, b + 1)
            )
        case _:
            raise TypeError(f"not an inner formula: {phi!r}")
    memo[key] = out
    return out


def count(X: TeamTrajectory, cap: Capability | str, phi: InnerFormula, t: int) -> int:
    """Number of capability holders whose trajectory satisfies phi at t."""
    name = cap.name if isinstance(cap, Capability) else cap
    return sum(1 for m in X.with_capability(name) if inner_sat(m.trajectory, phi, t))


def outer_sat(X: TeamTrajectory, Phi: OuterFormula, t: int) -> bool:
    """Team-level satisfaction at time t."""
    last = X.last_time
    if t < 0 or t + horizon(Phi) > last:
        raise HorizonError(
            f"evaluating at t={t} needs {t + horizon(Phi)} steps, trajectory has {last}"
        )
    return _outer_sat(X, Phi, t)


def _outer_sat(X, Phi, t) -> bool:
    match Phi:
        case OTrue():
            return True
        case Task(inner=inner, cap=cap, count=m):
            holders = X.with_capability(cap.name)
            if m > len(holders):
                raise ValueError(
                    f"task needs {m} agents with {cap.name!r}, team has {len(holders)}"
                )
            return count(X, cap, inner, t) >= m
        case TimedTask(task=task, time=offset):
            return _outer_sat(X, task, t + offset)
        case ONot(child=c):
            return not _outer_sat(X, c, t)
        case OAnd(children=cs):
            return all(_outer_sat(X, c, t) for c in cs)
        case OOr(children=cs):
            return any(_outer_sat(X, c, t) for c in cs)
        case OEventually(child=c, a=a, b=b):
            return any(_outer_sat(X, c, t + s) for s in range(a, b + 1))
        case OAlways(child=c, a=a, b=b):
            return all(_outer_sat(X, c, t + s) for s in range(a, b + 1))
        case OUntil(left=l, right=r, a=a, b=b):
            return any(
                _outer_sat(X, r, t + s) and all(_outer_sat(X, l, t + k) for k in range(s))
                for s in range(a, b + 1)
            )
        case _:
            raise TypeError(f"not a team formula: {Phi!r}")


# -- quantitative semantics ---------------------------------------------------
#
# Signals are arrays whose last axis is time: value i is the robustness when
# evaluation starts at time i. Leading axes (if any) are batch dimensions.
# The classical backend works on ndarrays, the smooth one on Tensors; both
# share the recursion in _inner_signal/_outer_signal.


class _ClassicalBackend:
    smooth = False

    def __init__(self, top: float, batch_shape: tuple):
        self.top = top
        self.batch_shape = batch_shape

    def const(self, value: float, length: int):
        return np.full(self.batch_shape + (length,), value)

    def margins(self, states, fn):
        if isinstance(fn, InRegion):
            if fn.region is None:
                raise ValueError(f"region {fn.region_name!r} is unbound")
            return fn.region.margin(states)
        return fn.evaluate(states)

    def neg(self, sig):
        return -sig

    def reduce_min(self, sigs):
        return sigs[0] if len(sigs) == 1 else np.min(np.stack(sigs, axis=-1), axis=-1)

    def reduce_max(self, sigs):
        return sigs[0] if len(sigs) == 1 else np.max(np.stack(sigs, axis=-1), axis=-1)

    def kth_largest(self, sigs, k: int):
        if len(sigs) == 1:
            return sigs[0]
        stacked = np.sort(np.stack(sigs, axis=-1), axis=-1)
        return stacked[..., len(sigs) - k]

    @staticmethod
    def slice_t(sig, start: int, length: int):
        return sig[..., start : start + length]


class _SmoothBackend:
    smooth = True

    def __init__(self, top: float, tau: float, batch_shape: tuple):
        self.top = top
        self.tau = tau
        self.batch_shape = batch_shape

    def const(self, value: float, length: int):
        return Tensor(np.full(self.batch_shape + (length,), value))

    def margins(self, states: Tensor, fn):
        x0 = states[..., 0]
        x1 = states[..., 1]
        if isinstance(fn, HalfPlane):
            return fn.offset - (x0 * fn.normal[0] + x1 * fn.normal[1])
        if fn.region is None:
            raise ValueError(f"region {fn.region_name!r} is unbound")
        # Exact (hard) min over faces / max over rectangles: the margin is the
        # predicate itself, not a semantic min/max, so it is not smoothed.
        rect_margins = []
        for lo, hi in fn.region.rects:
            faces = ad.stack([x0 - lo[0], x1 - lo[1], hi[0] - x0, hi[1] - x1], axis=-1)
            rect_margins.append(ad.kth_largest(faces, k=4, axis=-1))
        if len(rect_margins) == 1:
            return rect_margins[0]
        return ad.kth_largest(ad.stack(rect_margins, axis=-1), k=1, axis=-1)

    def neg(self, sig):
        return -sig

    def reduce_min(self, sigs):
        if len(sigs) == 1:
            return sigs[0]
        return ad.softmin_lse(ad.stack(sigs, axis=-1), tau=self.tau, axis=-1)

    def reduce_max(self, sigs):
        if len(sigs) == 1:
            return sigs[0]
        return ad.softmax_lse(ad.stack(sigs, axis=-1), tau=self.tau, axis=-1)

    def kth_largest(self, sigs, k: int):
        if len(sigs) == 1:
            return sigs[0]
        return ad.kth_largest(ad.stack(sigs, axis=-1), k=k, axis=-1)

    @staticmethod
    def slice_t(sig, start: int, length: int):
        return sig[..., start : start + length]


def _backend(cfg: RobustnessConfig, batch_shape: tuple):
    if cfg.mode == "smooth":
        return _SmoothBackend(cfg.top, cfg.tau, batch_shape)
    return _ClassicalBackend(cfg.top, batch_shape)


def _inner_signal(states, phi, length: int, be):
    """Robustness signal of phi for start times 0..length-1."""
    match phi:
        case ITrue():
            return be.const(be.top, length)
        case Predicate(fn=fn):
            return be.slice_t(be.margins(states, fn), 0, length)
        case INot(child=c):
            return be.neg(_inner_signal(states, c, length, be))
        case IAnd(children=cs):
            return be.reduce_min([_inner_signal(states, c, length, be) for c in cs])
        case IOr(children=cs):
            return be.reduce_max([_inner_signal(states, c, length, be) for c in cs])
        case IEventually(child=c, a=a, b=b):
            sig = _inner_signal(states, c, length + b, be)
            return be.reduce_max([be.slice_t(sig, a + k, length) for k in range(b - a + 1)])
        case IAlways(child=c, a=a, b=b):
            sig = _inner_signal(states, c, length + b, be)
            return be.reduce_min([be.slice_t(sig, a + k, length) for k in range(b - a + 1)])
        case IUntil(left=l, right=r, a=a, b=b):
            sig1 = _inner_signal(states, l, length + b, be)
            sig2 = _inner_signal(states, r, length + b, be)
            return _until_signal(sig1, sig2, a, b, length, be)
        case _:
            raise TypeError(f"not an inner formula: {phi!r}")


def _until_signal(sig1, sig2, a: int, b: int, length: int, be):
    terms = []
    for s in range(a, b + 1):
        witness = be.slice_t(sig2, s, length)
        if s == 0:
            terms.append(witness)
        else:
            prefix = be.reduce_min([be.slice_t(sig1, k, length) for k in range(s)])
            terms.append(be.reduce_min([witness, prefix]))
    return be.reduce_max(terms)


def _outer_signal(members, Phi, length: int, be):
    """members: list of (states, capability set) with states (..., T, 2)."""
    match Phi:
        case OTrue():
            return be.const(be.top, length)
        case Task(inner=inner, cap=cap, count=m):
            holders = [s for s, caps in members if cap.name in caps]
            if m > len(holders):
                raise ValueError(
                    f"task needs {m} agents with {cap.name!r}, team has {len(holders)}"
                )
            return be.kth_largest([_inner_signal(s, inner, length, be) for s in holders], m)
        case TimedTask(task=task, time=offset):
            sig = _outer_signal(members, task, length + offset, be)
            return be.slice_t(sig, offset, length)
        case ONot(child=c):
            return be.neg(_outer_signal(members, c, length, be))
        case OAnd(children=cs):
            return be.reduce_min([_outer_signal(members, c, length, be) for c in cs])
        case OOr(children=cs):
            return be.reduce_max([_outer_signal(members, c, length, be) for c in cs])
        case OEventually(child=c, a=a, b=b):
            sig = _outer_signal(members, c, length + b, be)
            return be.reduce_max([be.slice_t(sig, a + k, length) for k in range(b - a + 1)])
        case OAlways(child=c, a=a, b=b):
            sig = _outer_signal(members, c, length + b, be)
            return be.reduce_min([be.slice_t(sig, a + k, length) for k in range(b - a + 1)])
        case OUntil(left=l, right=r, a=a, b=b):
            sig1 = _outer_signal(members, l, length + b, be)
            sig2 = _outer_signal(members, r, length + b, be)
            return _until_signal(sig1, sig2, a, b, length, be)
        case _:
            raise TypeError(f"not a team formula: {Phi!r}")


# -- public entry points -------------------------------------------------------


def inner_rho(
    x: IndividualTrajectory | np.ndarray,
    phi: InnerFormula,
    t: int,
    cfg: RobustnessConfig = CLASSICAL,
) -> float:
    """Robustness of one agent's trajectory at time t."""
    states = x.states if isinstance(x, IndividualTrajectory) else np.asarray(x)
    last = len(states) - 1
    if t < 0 or t + horizon(phi) > last:
        raise HorizonError(
            f"evaluating at t={t} needs {t + horizon(phi)} steps, trajectory has {last}"
        )
    suffix = states[t:]
    if cfg.mode == "smooth":
        with ad.no_grad():
            sig = _inner_signal(Tensor(suffix), phi, 1, _backend(cfg, ()))
        return float(sig.value[0])
    return float(_inner_signal(suffix, phi, 1, _backend(cfg, ()))[0])


def inner_rho_tensor(states: Tensor, phi: InnerFormula, cfg: RobustnessConfig) -> Tensor:
    """Smooth robustness at time 0 as a graph node; states is (..., T, 2)."""
    be = _backend(cfg, states.shape[:-2])
    sig = _inner_signal(states, phi, 1, be)
    return sig[..., 0]


def task_rho(
    X: TeamTrajectory,
    task: Task,
    t: int,
    cfg: RobustnessConfig = CLASSICAL,
) -> float:
    """m-th largest inner robustness over the capability holders."""
    return outer_rho(X, task, t, cfg)


def outer_rho(
    X: TeamTrajectory,
    Phi: OuterFormula,
    t: int,
    cfg: RobustnessConfig = CLASSICAL,
) -> float:
    """Team-level robustness at time t."""
    last = X.last_time
    if t < 0 or t + horizon(Phi) > last:
        raise HorizonError(
            f"evaluating at t={t} needs {t + horizon(Phi)} steps, trajectory has {last}"
        )
    members = [(m.trajectory.states[t:], m.capabilities) for m in X.members]
    if cfg.mode == "smooth":
        with ad.no_grad():
            sig = _outer_signal(
                [(Tensor(s), caps) for s, caps in members], Phi, 1, _backend(cfg, ())
            )
        return float(sig.value[0])
    return float(_outer_signal(members, Phi, 1, _backend(cfg, ()))[0])


def _batch_shape(members, Phi: OuterFormula) -> tuple:
    """Leading batch shape of the member states (..., T, 2), once every
    member is long enough for Phi at time 0 and holds only finite states."""
    need = horizon(Phi)
    for k, (states, _) in enumerate(members):
        values = states.value if isinstance(states, Tensor) else np.asarray(states)
        last = values.shape[-2] - 1
        if need > last:
            raise HorizonError(
                f"evaluating at t=0 needs {need} steps, member {k} has {last}"
            )
        bad = np.argwhere(~np.isfinite(values).all(axis=-1))
        if len(bad):
            raise NonFiniteError(
                f"member {k} has {len(bad)} non-finite states, first at index "
                f"(batch..., t) {tuple(int(i) for i in bad[0])}"
            )
    return members[0][0].shape[:-2]


def outer_rho_batch(
    members: list[tuple[np.ndarray, frozenset]],
    Phi: OuterFormula,
    cfg: RobustnessConfig = CLASSICAL,
) -> np.ndarray:
    """Classical robustness at time 0 for a batch: states are (B, T, 2)."""
    batch_shape = _batch_shape(members, Phi)
    if cfg.mode == "smooth":
        with ad.no_grad():
            sig = _outer_signal(
                [(Tensor(s), caps) for s, caps in members], Phi, 1,
                _backend(cfg, batch_shape),
            )
        return sig.value[..., 0]
    return _outer_signal(members, Phi, 1, _backend(cfg, batch_shape))[..., 0]


def outer_rho_tensor(
    members: list[tuple[Tensor, frozenset]],
    Phi: OuterFormula,
    cfg: RobustnessConfig,
) -> Tensor:
    """Robustness at time 0 as a graph node; member states are (..., T, 2)."""
    batch_shape = _batch_shape(members, Phi)
    sig = _outer_signal(members, Phi, 1, _backend(cfg, batch_shape))
    return sig[..., 0]


# -- smooth-vs-classical error bound -------------------------------------------


def smoothness_bound(phi: InnerFormula | OuterFormula, tau: float) -> float:
    """Upper bound on |smooth - classical| robustness: depth * log(W) / tau."""
    depth, fanin = smoothness_depth(phi)
    if depth == 0:
        return 0.0
    return depth * np.log(max(fanin, 2)) / tau


def smoothness_depth(phi) -> tuple[int, int]:
    """(levels of softened min/max, max fan-in), overapproximated.

    Mirrors the evaluator: And/Or and temporal windows add one level each;
    until adds up to three (prefix min, pairing, witness max); task selection
    and predicate margins are exact sorts (1-Lipschitz, no level).
    """
    match phi:
        case ITrue() | OTrue() | Predicate():
            return 0, 1
        case Task(inner=inner):
            return smoothness_depth(inner)
        case TimedTask(task=task):
            return smoothness_depth(task)
        case INot(child=c) | ONot(child=c):
            return smoothness_depth(c)
        case IAnd(children=cs) | IOr(children=cs) | OAnd(children=cs) | OOr(children=cs):
            ds, ws = zip(*(smoothness_depth(c) for c in cs))
            return (1 if len(cs) >= 2 else 0) + max(ds), max(len(cs), *ws)
        case (IEventually(child=c, a=a, b=b) | IAlways(child=c, a=a, b=b)
              | OEventually(child=c, a=a, b=b) | OAlways(child=c, a=a, b=b)):
            d, w = smoothness_depth(c)
            window = b - a + 1
            return (1 if window >= 2 else 0) + d, max(window, w)
        case IUntil(left=l, right=r, a=a, b=b) | OUntil(left=l, right=r, a=a, b=b):
            d1, w1 = smoothness_depth(l)
            d2, w2 = smoothness_depth(r)
            return 3 + max(d1, d2), max(b - a + 1, max(2, b), w1, w2)
        case _:
            raise TypeError(f"not a formula: {phi!r}")
