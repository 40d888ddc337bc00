"""Qualitative and quantitative semantics over team trajectories.

One signal recursion (``_signal``) serves three backends:

* boolean - satisfaction, carried as a +1/-1 signal so that min, max,
  negation and the k-th largest compute and, or, not and "at least m
  holders". Its predicate leaf is the one place ties are decided: a state
  whose margin is exactly 0 satisfies the predicate. Robustness cannot
  decide ties by its sign, since at margin 0 both p and not p get 0.
* classical (``tau`` None) - exact min/max robustness. Away from ties its
  sign agrees with satisfaction (checked against independent oracles in the
  tests).
* smooth (``tau`` > 0) - min/max replaced by temperature-tau log-sum-exp
  softmin/softmax, evaluated over autodiff tensors so gradients flow to
  states or parameters.
  Task atoms select the m-th largest per-agent value by exact sort in both
  modes (differentiable almost everywhere), and predicate margins are exact
  in both modes, so |smooth - classical| is bounded by depth * log(W) / tau
  (see :func:`smoothness_bound`).

True has the finite robustness ``TOP`` in both modes.

Until semantics: a witness time t' in [t+a, t+b] for the right operand, with
the left operand required on the half-open prefix [t, t').

Within one call of an entry point, each distinct predicate (and each negated
predicate) is evaluated once per states array, over all its states, and
every pin and window that reads it slices that one signal. An F/G window of
width W is one sliding-window view reduced along its last axis, not W
slices stacked; a width-1 window is a plain slice. A predicate's margin and
its gradient are the predicate's own ``evaluate`` and ``vjp``, shared by all
three backends; on the smooth backend the two make one node, so the graph
holds one node per distinct predicate and per window.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .formulas import (
    InnerFormula,
    OuterFormula,
    Predicate,
    Task,
    TimedTask,
    _Always,
    _And,
    _Not,
    _NAry,
    _True,
    _Until,
    _Window,
    horizon,
)
from .trajectories import IndividualTrajectory, NonFiniteError, TeamTrajectory


class HorizonError(ValueError):
    """Formula needs more future than the trajectory provides."""


TOP = 1e6  # the finite robustness of True


def _check_horizon(phi, t: int, last: int, who: str = "trajectory") -> int:
    """Raise HorizonError unless states 0..last decide phi at time t; return
    the last time step phi reads at t."""
    end = t + horizon(phi)
    if t < 0 or end > last:
        raise HorizonError(f"evaluating at t={t} needs {end} steps, {who} has {last}")
    return end


# -- signal semantics ------------------------------------------------------------
#
# Signals are arrays whose last axis is time: value i is the robustness (or
# truth) when evaluation starts at time i. Leading axes (if any) are batch
# dimensions. The boolean and classical backends work on ndarrays, the smooth
# one on Tensors; all three share the recursion in _signal.


class _Backend:
    """The temperature and the batch shape of the signals being combined.

    Subclasses give the leaf signals (``const``, ``margins``), ``stack``
    (signals along a new last axis), ``windows`` (sliding windows of one
    signal along a new last axis) and ``min``, ``max`` and ``kth``
    reductions of that last axis."""

    top = TOP

    def __init__(self, tau: float | None, batch_shape: tuple):
        self.tau = tau
        self.batch_shape = batch_shape

    def reduce_min(self, sigs):
        return sigs[0] if len(sigs) == 1 else self.min(self.stack(sigs))

    def reduce_max(self, sigs):
        return sigs[0] if len(sigs) == 1 else self.max(self.stack(sigs))

    def kth_largest(self, sigs, k: int):
        return sigs[0] if len(sigs) == 1 else self.kth(self.stack(sigs), k)


class _ClassicalBackend(_Backend):
    def const(self, value: float, length: int):
        return np.full(self.batch_shape + (length,), value)

    def margins(self, states, pred):
        return pred.evaluate(states)

    def stack(self, sigs):
        return np.stack(sigs, axis=-1)

    def windows(self, sig, start: int, count: int, width: int):
        return ad.window_view(sig, start, count, width)

    def min(self, stacked):
        return stacked.min(axis=-1)

    def max(self, stacked):
        return stacked.max(axis=-1)

    def kth(self, stacked, k: int):
        return np.sort(stacked, axis=-1)[..., stacked.shape[-1] - k]


class _SmoothBackend(_Backend):
    def const(self, value: float, length: int):
        return Tensor(np.full(self.batch_shape + (length,), value))

    def margins(self, states, pred):
        sv = _values(states)
        return Tensor(pred.evaluate(sv), (states,), lambda g: (pred.vjp(sv, g),))

    def stack(self, sigs):
        return ad.stack(sigs, axis=-1)

    def windows(self, sig, start: int, count: int, width: int):
        return ad.windows(sig, start, count, width)

    def min(self, stacked):
        return ad.softmin_lse(stacked, tau=self.tau, axis=-1)

    def max(self, stacked):
        return ad.softmax_lse(stacked, tau=self.tau, axis=-1)

    def kth(self, stacked, k: int):
        return ad.kth_largest(stacked, k=k, axis=-1)


class _BooleanBackend(_ClassicalBackend):
    """Truth as a +1/-1 signal; True is the constant +1 (top=1). A predicate
    holds where its margin is >= 0, on the region's edge too."""

    top = 1.0

    def margins(self, states, pred):
        return np.where(pred.evaluate(states) >= 0.0, 1.0, -1.0)


_BOOLEAN = _BooleanBackend(None, ())


def _backend(tau: float | None, batch_shape: tuple) -> _Backend:
    """Classical backend when tau is None, smooth at temperature tau otherwise."""
    if tau is None:
        return _ClassicalBackend(None, batch_shape)
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    return _SmoothBackend(tau, batch_shape)


def _slice_t(sig, start: int, length: int):
    if start == 0 and sig.shape[-1] == length:
        return sig
    return sig[..., start : start + length]


def _common(sigs: list) -> list:
    """Signals cut to the shortest one's length, so they combine pointwise."""
    length = min(s.shape[-1] for s in sigs)
    return [_slice_t(s, 0, length) for s in sigs]


def _at0(x, phi, be):
    """Robustness (or truth) of phi at time 0: one entry into _signal, with a
    margin memo that lives only as long as this call."""
    return _signal(x, phi, 1, be, {})[..., 0]


def _memoized(memo: dict, key: tuple, make):
    sig = memo.get(key)
    if sig is None:
        sig = memo[key] = make()
    return sig


def _values(x) -> np.ndarray:
    """The array behind states x: a Tensor's value, or x itself."""
    return x.value if isinstance(x, Tensor) else np.asarray(x)


def _signal(x, phi, length: int, be, memo: dict):
    """Robustness signal of phi for start times 0..length-1 and perhaps later.

    x holds one agent's states (..., T, 2) below a task and, above it, the
    team as a list of (states, capability set) members. A signal may run past
    ``length``: a predicate's covers every state of x, and operators that
    combine signals pointwise cut them to a common length first. memo maps
    (predicate, id(states)) to that margin signal, and ("not", predicate,
    id(states)) to its negation, so each distinct predicate and negated
    predicate is one signal per states array in one entry call; equal
    predicates share a key.
    """
    match phi:
        case _True():
            return be.const(be.top, length)
        case Predicate():
            return _memoized(memo, (phi, id(x)), lambda: be.margins(x, phi))
        case Task(inner=inner, cap=cap, count=m):
            holders = [s for s, caps in x if cap in caps]
            if m > len(holders):
                raise ValueError(f"task needs {m} agents with {cap!r}, team has {len(holders)}")
            sigs = [_signal(s, inner, length, be, memo) for s in holders]
            return be.kth_largest(_common(sigs), m)
        case TimedTask(task=task, time=offset):
            return _slice_t(_signal(x, task, length + offset, be, memo), offset, length)
        case _Not(child=Predicate() as c):
            return _memoized(memo, ("not", c, id(x)), lambda: -_signal(x, c, length, be, memo))
        case _Not(child=c):
            return -_signal(x, c, length, be, memo)
        case _NAry(children=cs):
            reduce = be.reduce_min if isinstance(phi, _And) else be.reduce_max
            return reduce(_common([_signal(x, c, length, be, memo) for c in cs]))
        case _Window(child=c, a=a, b=b):
            sig = _signal(x, c, length + b, be, memo)
            if a == b:
                return _slice_t(sig, a, length)
            reduce = be.min if isinstance(phi, _Always) else be.max
            return reduce(be.windows(sig, a, length, b - a + 1))
        case _Until(left=l, right=r, a=a, b=b):
            sig1 = _signal(x, l, length + b, be, memo)
            sig2 = _signal(x, r, length + b, be, memo)
            return _until_signal(sig1, sig2, a, b, length, be)
        case _:
            raise TypeError(f"not a formula: {phi!r}")


def _until_signal(sig1, sig2, a: int, b: int, length: int, be):
    terms = []
    for s in range(a, b + 1):
        witness = _slice_t(sig2, s, length)
        if s == 0:
            terms.append(witness)
        else:
            prefix = be.min(be.windows(sig1, 0, length, s))
            terms.append(be.reduce_min([witness, prefix]))
    return be.reduce_max(terms)


def _rho0(x, phi, tau: float | None, batch_shape: tuple = ()) -> np.ndarray:
    """Robustness values at time 0 over states or members x, without a graph:
    every backend reads plain arrays."""
    with ad.no_grad():
        return _values(_at0(x, phi, _backend(tau, batch_shape)))


# -- public entry points -------------------------------------------------------


def _agent_from(x: IndividualTrajectory | np.ndarray, phi: InnerFormula, t: int) -> np.ndarray:
    """One agent's states from t to t + horizon(phi), once they decide phi at t."""
    states = x.states if isinstance(x, IndividualTrajectory) else np.asarray(x)
    return states[t : _check_horizon(phi, t, len(states) - 1) + 1]


def _team_from(X: TeamTrajectory, Phi: OuterFormula, t: int) -> list:
    """Members as (states from t to t + horizon(Phi), capabilities), once they
    decide Phi at t."""
    end = _check_horizon(Phi, t, X.last_time) + 1
    return [(m.trajectory.states[t:end], m.capabilities) for m in X.members]


def inner_sat(x: IndividualTrajectory | np.ndarray, phi: InnerFormula, t: int) -> bool:
    """Bounded STL satisfaction of one agent's trajectory at time t."""
    return bool(_at0(_agent_from(x, phi, t), phi, _BOOLEAN) > 0)


def count(X: TeamTrajectory, cap: str, phi: InnerFormula, t: int) -> int:
    """Number of capability holders whose trajectory satisfies phi at t."""
    return sum(1 for m in X.with_capability(cap) if inner_sat(m.trajectory, phi, t))


def outer_sat(X: TeamTrajectory, Phi: OuterFormula, t: int) -> bool:
    """Team-level satisfaction at time t."""
    return bool(_at0(_team_from(X, Phi, t), Phi, _BOOLEAN) > 0)


def inner_rho(
    x: IndividualTrajectory | np.ndarray,
    phi: InnerFormula,
    t: int,
    tau: float | None = None,
) -> float:
    """Robustness of one agent's trajectory at time t: classical when tau is
    None, smooth at temperature tau otherwise."""
    return float(_rho0(_agent_from(x, phi, t), phi, tau))


def inner_rho_tensor(states: Tensor, phi: InnerFormula, tau: float) -> Tensor:
    """Smooth robustness at temperature tau and time 0 as a graph node;
    states is (..., T, 2)."""
    return _at0(states, phi, _backend(tau, states.shape[:-2]))


def outer_rho(
    X: TeamTrajectory,
    Phi: OuterFormula,
    t: int,
    tau: float | None = None,
) -> float:
    """Team-level robustness at time t: classical when tau is None, smooth at
    temperature tau otherwise."""
    return float(_rho0(_team_from(X, Phi, t), Phi, tau))


def _batch_shape(members, Phi: OuterFormula) -> tuple:
    """Leading batch shape of the member states (..., T, 2), once every
    member is long enough for Phi at time 0 and holds only finite states."""
    for k, (states, _) in enumerate(members):
        values = _values(states)
        _check_horizon(Phi, 0, values.shape[-2] - 1, f"member {k}")
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
    tau: float | None = None,
) -> np.ndarray:
    """Robustness at time 0 for a batch, without a graph: states are (B, T, 2);
    classical when tau is None, smooth at temperature tau otherwise."""
    return _rho0(members, Phi, tau, _batch_shape(members, Phi))


def outer_rho_tensor(
    members: list[tuple[Tensor, frozenset]],
    Phi: OuterFormula,
    tau: float,
) -> Tensor:
    """Smooth robustness at temperature tau and time 0 as a graph node; member
    states are (..., T, 2)."""
    return _at0(members, Phi, _backend(tau, _batch_shape(members, Phi)))


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
        case _True() | Predicate():
            return 0, 1
        case Task(inner=inner):
            return smoothness_depth(inner)
        case TimedTask(task=task):
            return smoothness_depth(task)
        case _Not(child=c):
            return smoothness_depth(c)
        case _NAry(children=cs):
            ds, ws = zip(*(smoothness_depth(c) for c in cs))
            return (1 if len(cs) >= 2 else 0) + max(ds), max(len(cs), *ws)
        case _Window(child=c, a=a, b=b):
            d, w = smoothness_depth(c)
            window = b - a + 1
            return (1 if window >= 2 else 0) + d, max(window, w)
        case _Until(left=l, right=r, a=a, b=b):
            d1, w1 = smoothness_depth(l)
            d2, w2 = smoothness_depth(r)
            return 3 + max(d1, d2), max(b - a + 1, max(2, b), w1, w2)
        case _:
            raise TypeError(f"not a formula: {phi!r}")
