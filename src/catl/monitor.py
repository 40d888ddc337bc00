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
  softmin/softmax, evaluated in numpy with a reverse sweep for gradients,
  so that they flow to states or parameters.
  Task atoms select the m-th largest per-agent value by exact sort in both
  modes (differentiable almost everywhere), and predicate margins are exact
  in both modes, so |smooth - classical| is bounded by depth * log(W) / tau
  (see :func:`smoothness_bound`).

True has the finite robustness ``TOP`` in both modes.

Until semantics: a witness time t' in [t+a, t+b] for the right operand, with
the left operand required on the half-open prefix [t, t').

Every entry point runs a plan: the flat list of ops that ``_signal`` emits
when it recurses once over a formula for one member layout (the time length
and the capabilities of each member's states). The boolean, classical and
smooth backends run the same plan, a few numpy calls per op; ties are still
decided only in the boolean backend's predicate leaf.

The smooth forward keeps each op's residual: a predicate's margin gradient,
which records the face that sets a region's margin, the softmin/softmax
weights and the index of a k-th largest. The reverse sweep walks the ops
once, in the reverse of the post-order of the plan's read graph, and hands
each op's gradient to the slots it read, so gradients are summed in the
order a graph node per op would sum them. On Tensor states the forward and
the sweep make one graph node (``inner_rho_tensor``, ``outer_rho_tensor``);
on arrays ``inner_rho_grad`` returns the gradient with no graph at all.

A formula's cache entry (``_entry``), keyed by its identity, holds its
horizon, computed once, and its plan per layout, compiled on first use.
Every entry point calls one boundary, ``_monitor``, the only place inputs
are checked and cut to the window that decides the formula.

In a plan each distinct predicate (and each negated predicate) is one
margin op per member, over all its states, and every pin and window that
reads it slices that one signal. An F/G window of width W is one
sliding-window view reduced along its last axis; a width-1 window is a
plain slice; a conjunction of width-1 slices, such as the pins of a
synthesis target, is one concat of their distinct sources, one
integer-index gather and one min. A predicate's margin is the predicate's
own ``evaluate``, and with its gradient its own ``linearize``.
"""

from __future__ import annotations

from types import SimpleNamespace

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


# -- signal semantics ------------------------------------------------------------
#
# Signals are arrays whose last axis is time: value i is the robustness (or
# truth) when evaluation starts at time i. Leading axes (if any) are batch
# dimensions. The boolean and classical backends work on ndarrays, the smooth
# one on Tensors; all three run the same plan, which _signal compiles.


class _Backend:
    """The temperature and the batch shape of the signals being combined.

    Each op kind of a plan is a method that reads its inputs from ``vals``,
    the member states followed by the signals computed so far. Subclasses
    give the leaf ops (``full``, ``margin``) and the primitives the others
    share: ``stack`` (signals along a new last axis), ``concat`` (signals end
    to end along the time axis), ``windows`` (sliding windows of one signal
    along a new last axis) and ``min``, ``max`` and ``kth`` reductions of
    that last axis. Negation, slicing and integer-index gathers use the
    operators that ndarrays and Tensors share."""

    top = TOP

    def __init__(self, tau: float | None, batch_shape: tuple):
        self.tau = tau
        self.batch_shape = batch_shape

    def neg(self, vals, i: int):
        return -vals[i]

    def slice(self, vals, i: int, start: int, length: int):
        return vals[i][..., start : start + length]

    def at(self, vals, i: int, t: int):
        return vals[i][..., t]

    def window(self, vals, i: int, start: int, count: int, width: int, how: tuple):
        return self.reduce(self.windows(vals[i], start, count, width), how)

    def stacked(self, vals, ins: tuple, how: tuple):
        return self.reduce(self.stack([vals[i] for i in ins]), how)

    def gathered(self, vals, ins: tuple, index: np.ndarray, how: tuple):
        sig = vals[ins[0]] if len(ins) == 1 else self.concat([vals[i] for i in ins])
        return self.reduce(sig[..., index], how)

    def reduce(self, stacked, how: tuple):
        """``how`` is ("min",), ("max",) or ("kth", k)."""
        return getattr(self, how[0])(stacked, *how[1:])


class _ClassicalBackend(_Backend):
    def full(self, vals, length: int):
        return np.full(self.batch_shape + (length,), self.top)

    def margin(self, vals, member: int, pred):
        return pred.evaluate(vals[member])

    def stack(self, sigs):
        return np.stack(sigs, axis=-1)

    def concat(self, sigs):
        return np.concatenate(sigs, axis=-1)

    def windows(self, sig, start: int, count: int, width: int):
        return ad.window_view(sig, start, count, width)

    def min(self, stacked):
        return stacked.min(axis=-1)

    def max(self, stacked):
        return stacked.max(axis=-1)

    def kth(self, stacked, k: int):
        return np.sort(stacked, axis=-1)[..., stacked.shape[-1] - k]


class _SmoothBackend(_ClassicalBackend):
    """Smooth robustness over arrays: min and max become temperature-tau
    log-sum-exp softmin and softmax. With ``saved`` a list, every margin and
    reduction appends its residual to it, in plan order: the predicate's
    (from ``linearize``), the softmin/softmax weights, or the index of the
    k-th largest. ``sweep`` reads them back."""

    def __init__(self, tau: float, batch_shape: tuple, saved: list | None = None):
        super().__init__(tau, batch_shape)
        self.saved = saved

    def _keep(self, value, residual):
        if self.saved is not None:
            self.saved.append(residual)
        return value

    def margin(self, vals, member: int, pred):
        if self.saved is None:
            return pred.evaluate(vals[member])
        return self._keep(*pred.linearize(vals[member]))

    def min(self, stacked):
        return self._keep(*ad.lse(stacked, self.tau, -1))

    def max(self, stacked):
        return self._keep(*ad.lse(stacked, self.tau, 1))

    def kth(self, stacked, k: int):
        # ties go to the first tied entry
        index = np.argsort(-stacked, axis=-1, kind="stable")[..., k - 1 : k]
        return self._keep(np.take_along_axis(stacked, index, axis=-1)[..., 0], index)

    # -- the reverse sweep --

    def sweep(self, plan: "_Plan", g: np.ndarray, shapes: list) -> list:
        """The gradient of the plan's value on each slot, from g on the value,
        after a run that saved residuals; ``shapes`` holds each member's
        states shape. Each op hands the gradient on its value to the slots
        it read, in ``plan.sweep`` order, so every slot sums the gradients
        it gets in the order ``Tensor.backward`` would sum them, were each
        op a node reading its slots in order."""
        members = len(shapes)
        self.shapes = shapes + [self.batch_shape + (n,) for n in plan.lengths[members:]]
        self.grads = [None] * len(self.shapes)
        self.grads[-1] = g
        for k, r in plan.sweep:
            name, args, _ = plan.ops[k]
            residual = None if r is None else self.saved[r]
            getattr(self, "d_" + name)(self.grads[members + k], residual, *args)
        return self.grads

    def _add(self, i: int, g, key=None) -> None:
        """Add g to slot i's gradient, or to its time steps ``key``. A whole
        g is a new array, or a view of one, that nothing else reads, so it
        becomes the gradient as it is."""
        grads = self.grads
        if key is not None:
            if grads[i] is None:
                grads[i] = np.zeros(self.shapes[i])
            grads[i][..., key] += g
        elif grads[i] is None:
            grads[i] = g
        else:
            grads[i] += g

    @staticmethod
    def _reduced(g, residual, how: tuple, n: int):
        """The gradient on the (..., n) entries that were reduced to g."""
        if how[0] == "kth":
            out = np.zeros(g.shape + (n,))
            np.put_along_axis(out, residual, g[..., None], axis=-1)
            return out
        return g[..., None] * residual

    def d_margin(self, g, gradient, member: int, pred):
        self._add(member, g[..., None] * gradient)

    def d_neg(self, g, residual, i: int):
        self._add(i, -g)

    def d_slice(self, g, residual, i: int, start: int, length: int):
        self._add(i, g, slice(start, start + length))

    def d_at(self, g, residual, i: int, t: int):
        self._add(i, g, t)

    def d_window(self, g, residual, i: int, start: int, count: int, width: int, how: tuple):
        # summed into each state by ascending offset k, as width stacked
        # slices would be, looping over whichever of k and window j is shorter
        gw = self._reduced(g, residual, how, width)
        span = np.zeros(g.shape[:-1] + (count + width - 1,))
        if width <= count:
            for k in range(width):
                span[..., k : k + count] += gw[..., k]
        else:  # descending j is ascending k at each state
            for j in reversed(range(count)):
                span[..., j : j + width] += gw[..., j, :]
        self._add(i, span, slice(start, start + count + width - 1))

    def d_stacked(self, g, residual, ins: tuple, how: tuple):
        gs = self._reduced(g, residual, how, len(ins))
        for j, i in enumerate(ins):
            self._add(i, gs[..., j])

    def d_gathered(self, g, residual, ins: tuple, index: np.ndarray, how: tuple):
        # one gradient over the concat of the sources, entries read more
        # than once adding up, then cut at the sources' ends
        sig = np.zeros(g.shape[:-1] + (sum(self.shapes[i][-1] for i in ins),))
        np.add.at(sig, (Ellipsis, index), self._reduced(g, residual, how, index.shape[-1]))
        end = 0
        for i in ins:
            start, end = end, end + self.shapes[i][-1]
            self._add(i, sig[..., start:end])


class _BooleanBackend(_ClassicalBackend):
    """Truth as a +1/-1 signal; True is the constant +1 (top=1). A predicate
    holds where its margin is >= 0, on the region's edge too."""

    top = 1.0

    def margin(self, vals, member: int, pred):
        return np.where(pred.evaluate(vals[member]) >= 0.0, 1.0, -1.0)


def _values(x) -> np.ndarray:
    """The array behind states x: a Tensor's value, an IndividualTrajectory's
    states, or x itself."""
    if isinstance(x, IndividualTrajectory):
        return x.states
    return x.value if isinstance(x, Tensor) else np.asarray(x)


# -- plans -----------------------------------------------------------------------


class _Plan:
    """The flat op list of one formula and member layout. ``ops`` holds
    (backend method name, arguments, slots read for the last time) triples;
    op i computes slot len(members) + i, its integer arguments name the
    slots it reads (``reads[i]``, in order), and the run drops each signal
    after its last read, as a recursion would. ``lengths`` is every slot's
    time length, members first."""

    __slots__ = ("ops", "lengths", "reads", "_sweep")

    def __init__(self, ops: list, lengths: list, reads: list):
        self.ops, self.lengths, self.reads = ops, lengths, reads
        self._sweep = None

    def run(self, states: list, be: _Backend):
        vals = list(states)
        for name, args, done in self.ops:
            vals.append(getattr(be, name)(vals, *args))
            for i in done:
                vals[i] = None
        return vals[-1]

    @property
    def sweep(self) -> list:
        """The reverse sweep's order, made on first use: (op index, position
        of its residual among those the run saved, or None) for each op that
        reads a slot, in the reverse of the post-order that
        ``autodiff._toposort`` gives on the read graph. The plain reverse of
        the op list would sum some gradients in another order than
        ``Tensor.backward`` does on a node per op, and so drift by an ulp."""
        if self._sweep is None:
            members = len(self.lengths) - len(self.ops)
            nodes = [SimpleNamespace(slot=i, _parents=()) for i in range(members)]
            for reads in self.reads:
                nodes.append(SimpleNamespace(slot=len(nodes),
                                             _parents=tuple(nodes[i] for i in reads)))
            post = [node.slot for node in ad._toposort(nodes[-1])]
            position = {}
            for k, (name, _, _) in enumerate(self.ops):
                if name in _SAVING:
                    position[k] = len(position)
            ops = [k - members for k in reversed(post) if k >= members]
            self._sweep = [(k, position.get(k)) for k in ops if self.reads[k]]
        return self._sweep


# the ops whose smooth run saves a residual for the sweep
_SAVING = ("margin", "window", "stacked", "gathered")


class _Recorder:
    """The backend of _signal at compile time: each call appends ops to a
    flat list and returns a view (slot, start, length) of a signal, so a
    slice costs no op until something reads the view whole.

    Each distinct predicate and negated predicate is one margin op per
    member; equal predicates share it. A reduction of width-1 views becomes
    one concat of their distinct source signals and one integer-index
    gather in child order, where a stack would need one slice per child.
    The sources go into the concat in the order of each one's last use:
    backward() then reaches them in the order it would reach them through
    the slices of a stack, so gradients are summed in the same order."""

    def __init__(self, lengths: list[int]):
        self.lengths = list(lengths)  # time length per slot; members first
        self.ops: list[tuple] = []
        self.last_read: dict[int, int] = {}  # slot -> index of the op reading it last
        self.memo: dict = {}

    def emit(self, length: int, reads: tuple, name: str, *args) -> tuple:
        for i in reads:
            self.last_read[i] = len(self.ops)
        self.ops.append((name, args, reads))
        self.lengths.append(length)
        return len(self.lengths) - 1, 0, length

    def plan(self) -> _Plan:
        done = [[] for _ in self.ops]
        for i, k in self.last_read.items():
            done[k].append(i)
        ops = [(name, args, tuple(d)) for (name, args, _), d in zip(self.ops, done)]
        return _Plan(ops, self.lengths, [reads for _, _, reads in self.ops])

    def slot(self, view: tuple) -> int:
        """The slot holding exactly the view's signal, sliced if need be."""
        i, start, length = view
        if start == 0 and self.lengths[i] == length:
            return i
        return self.emit(length, (i,), "slice", i, start, length)[0]

    def const(self, length: int) -> tuple:
        return self.emit(length, (), "full", length)

    def margin(self, member: int, pred) -> tuple:
        key = (pred, member)
        if key not in self.memo:
            self.memo[key] = self.emit(self.lengths[member], (member,), "margin", member, pred)
        return self.memo[key]

    def neg_margin(self, member: int, pred) -> tuple:
        key = ("not", pred, member)
        if key not in self.memo:
            self.memo[key] = self.neg(self.margin(member, pred))
        return self.memo[key]

    def neg(self, view: tuple) -> tuple:
        i = self.slot(view)
        return self.emit(view[2], (i,), "neg", i)

    def window(self, view: tuple, start: int, count: int, width: int, how: str) -> tuple:
        i, offset, _ = view
        return self.emit(count, (i,), "window", i, offset + start, count, width, (how,))

    def reduce(self, views: list, how: tuple) -> tuple:
        """min, max or k-th largest of the views, cut to a common length."""
        if len(views) == 1:
            return views[0]
        length = min(v[2] for v in views)
        if length == 1 and any(self.lengths[i] > 1 for i, _, _ in views):
            last = {i: k for k, (i, _, _) in enumerate(views)}
            sources = sorted(last, key=last.get)
            offset = dict(zip(sources, np.cumsum([0] + [self.lengths[i] for i in sources])))
            index = np.array([[offset[i] + start for i, start, _ in views]])
            return self.emit(1, tuple(sources), "gathered", tuple(sources), index, how)
        ins = tuple(self.slot((i, start, length)) for i, start, _ in views)
        return self.emit(length, ins, "stacked", ins, how)


def _slice_t(view: tuple, start: int, length: int) -> tuple:
    i, offset, _ = view
    return i, offset + start, length


def _signal(x, phi, length: int, rec: _Recorder) -> tuple:
    """View of the robustness signal of phi for start times 0..length-1 and
    perhaps later.

    x is one agent's member slot below a task and, above it, the team as a
    list of (member slot, capability set). A signal may run past ``length``:
    a predicate's covers every state of x, and operators that combine
    signals pointwise cut them to a common length first.
    """
    match phi:
        case _True():
            return rec.const(length)
        case Predicate():
            return rec.margin(x, phi)
        case Task(inner=inner, cap=cap, count=m):
            holders = [s for s, caps in x if cap in caps]
            if m > len(holders):
                raise ValueError(f"task needs {m} agents with {cap!r}, team has {len(holders)}")
            return rec.reduce([_signal(s, inner, length, rec) for s in holders], ("kth", m))
        case TimedTask(task=task, time=offset):
            return _slice_t(_signal(x, task, length + offset, rec), offset, length)
        case _Not(child=Predicate() as c):
            return rec.neg_margin(x, c)
        case _Not(child=c):
            return rec.neg(_signal(x, c, length, rec))
        case _NAry(children=cs):
            how = ("min",) if isinstance(phi, _And) else ("max",)
            return rec.reduce([_signal(x, c, length, rec) for c in cs], how)
        case _Window(child=c, a=a, b=b):
            sig = _signal(x, c, length + b, rec)
            if a == b:
                return _slice_t(sig, a, length)
            how = "min" if isinstance(phi, _Always) else "max"
            return rec.window(sig, a, length, b - a + 1, how)
        case _Until(left=l, right=r, a=a, b=b):
            sig1 = _signal(x, l, length + b, rec)
            sig2 = _signal(x, r, length + b, rec)
            return _until_signal(sig1, sig2, a, b, length, rec)
        case _:
            raise TypeError(f"not a formula: {phi!r}")


def _until_signal(sig1, sig2, a: int, b: int, length: int, rec: _Recorder) -> tuple:
    terms = []
    for s in range(a, b + 1):
        witness = _slice_t(sig2, s, length)
        if s == 0:
            terms.append(witness)
        else:
            prefix = rec.window(sig1, 0, length, s, "min")
            terms.append(rec.reduce([witness, prefix], ("min",)))
    return rec.reduce(terms, ("max",))


def _compile(phi, layout: tuple) -> _Plan:
    """The plan of phi at time 0 for a member layout: a tuple of (time length,
    capabilities) per member. An inner formula reads member 0."""
    rec = _Recorder([n for n, _ in layout])
    team = [(j, caps) for j, (_, caps) in enumerate(layout)]
    i, start, _ = _signal(0 if isinstance(phi, InnerFormula) else team, phi, 1, rec)
    rec.emit(1, (i,), "at", i, start)
    return rec.plan()


class _Entry:
    """What the monitor knows of one formula: its horizon and its plan per
    member layout. ``phi`` is the formula itself, for the cache's identity
    check."""

    __slots__ = ("phi", "horizon", "plans")

    def __init__(self, phi):
        self.phi = phi
        self.horizon = horizon(phi)
        self.plans: dict[tuple, _Plan] = {}


FORMULA_CACHE_SIZE = 8
_FORMULAS: dict[int, _Entry] = {}


def _entry(phi) -> _Entry:
    """phi's cache entry, made on first use. The cache is keyed by id(phi), so
    a call never hashes a formula; an entry made for another formula that
    reused the id is replaced. The oldest entry goes once the cache holds
    FORMULA_CACHE_SIZE entries."""
    entry = _FORMULAS.get(id(phi))
    if entry is None or entry.phi is not phi:
        entry = _Entry(phi)
        _FORMULAS.pop(id(phi), None)
        if len(_FORMULAS) >= FORMULA_CACHE_SIZE:
            _FORMULAS.pop(next(iter(_FORMULAS)))
        _FORMULAS[id(phi)] = entry
    return entry


def _monitor(phi, members: list, t: int, tau: float | None = None, boolean: bool = False,
             grad: bool = False):
    """Truth (+1/-1) of phi at time t when ``boolean``, else its robustness:
    classical when tau is None, smooth at temperature tau otherwise.

    ``members`` is a list of (states (..., T, 2), capabilities), one agent
    being one member. This is the one place monitor inputs are checked and
    cut: HorizonError unless t >= 0 and every member has states up to
    t + horizon(phi), NonFiniteError if a state is NaN or infinite. Array
    states are cut to [t, t + horizon(phi)] as a view and give an array,
    without a graph; with ``grad`` the smooth robustness comes with its
    gradient on each member's states. Tensor states are read whole at t = 0
    and give one graph node whose backward is the reverse sweep."""
    entry = _entry(phi)
    end = t + entry.horizon
    values, layout, tensors = [], [], []
    for k, (x, caps) in enumerate(members):
        whole = _values(x)
        last = whole.shape[-2] - 1
        if t < 0 or end > last:
            raise HorizonError(f"evaluating at t={t} needs {end} steps, member {k} has {last}")
        if not np.isfinite(whole).all():
            bad = np.argwhere(~np.isfinite(whole).all(axis=-1))
            raise NonFiniteError(
                f"member {k} has {len(bad)} non-finite states, first at index "
                f"(batch..., t) {tuple(int(i) for i in bad[0])}"
            )
        if isinstance(x, Tensor):
            tensors.append(k)
            values.append(whole)
        else:
            values.append(whole[..., t : end + 1, :])
        layout.append((values[-1].shape[-2], caps))
    layout = tuple(layout)
    plan = entry.plans.get(layout)
    if plan is None:
        plan = entry.plans[layout] = _compile(phi, layout)
    batch_shape = values[0].shape[:-2] if values else ()
    if boolean or tau is None:
        be = _BooleanBackend if boolean else _ClassicalBackend
        return plan.run(values, be(None, batch_shape))
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if not grad and not (tensors and ad.grad_enabled()):
        value = plan.run(values, _SmoothBackend(tau, batch_shape))
        return Tensor(value) if tensors else value
    be = _SmoothBackend(tau, batch_shape, saved=[])
    value = plan.run(values, be)
    shapes = [v.shape for v in values]
    if grad:
        grads = []
        for (x, _), g in zip(members, be.sweep(plan, np.ones(batch_shape), shapes)):
            grads.append(np.zeros(_values(x).shape))
            if g is not None:
                grads[-1][..., t : t + g.shape[-2], :] = g
        return value, grads

    def backward(g):
        grads = be.sweep(plan, g, shapes)
        return tuple(grads[k] for k in tensors)

    return Tensor(value, [members[k][0] for k in tensors], backward)


# -- public entry points -------------------------------------------------------


def inner_sat(x: IndividualTrajectory | np.ndarray, phi: InnerFormula, t: int) -> bool:
    """Bounded STL satisfaction of one agent's trajectory at time t."""
    return bool(_monitor(phi, [(x, None)], t, boolean=True) > 0)


def count(X: TeamTrajectory, cap: str, phi: InnerFormula, t: int) -> int:
    """Number of capability holders whose trajectory satisfies phi at t."""
    return sum(1 for m in X.with_capability(cap) if inner_sat(m.trajectory, phi, t))


def outer_sat(X: TeamTrajectory, Phi: OuterFormula, t: int) -> bool:
    """Team-level satisfaction at time t."""
    members = [(m.trajectory, m.capabilities) for m in X.members]
    return bool(_monitor(Phi, members, t, boolean=True) > 0)


def inner_rho(
    x: IndividualTrajectory | np.ndarray,
    phi: InnerFormula,
    t: int,
    tau: float | None = None,
) -> float:
    """Robustness of one agent's trajectory at time t: classical when tau is
    None, smooth at temperature tau otherwise."""
    return float(_monitor(phi, [(x, None)], t, tau))


def inner_rho_tensor(states: Tensor, phi: InnerFormula, tau: float) -> Tensor:
    """Smooth robustness at temperature tau and time 0 as one graph node,
    whose backward is the plan's reverse sweep; states is (..., T, 2)."""
    return _monitor(phi, [(states, None)], 0, tau)


def inner_rho_grad(states: np.ndarray, phi: InnerFormula, tau: float) -> tuple[float, np.ndarray]:
    """Smooth robustness at temperature tau and time 0 of one agent's states
    (T, 2), and its gradient on the states, without a graph."""
    rho, (grad,) = _monitor(phi, [(states, None)], 0, tau, grad=True)
    return float(rho), grad


def outer_rho(
    X: TeamTrajectory,
    Phi: OuterFormula,
    t: int,
    tau: float | None = None,
) -> float:
    """Team-level robustness at time t: classical when tau is None, smooth at
    temperature tau otherwise."""
    members = [(m.trajectory, m.capabilities) for m in X.members]
    return float(_monitor(Phi, members, t, tau))


def outer_rho_batch(
    members: list[tuple[np.ndarray, frozenset]],
    Phi: OuterFormula,
    tau: float | None = None,
) -> np.ndarray:
    """Robustness at time 0 for a batch, without a graph: states are (B, T, 2);
    classical when tau is None, smooth at temperature tau otherwise."""
    return _monitor(Phi, members, 0, tau)


def outer_rho_tensor(
    members: list[tuple[Tensor, frozenset]],
    Phi: OuterFormula,
    tau: float,
) -> Tensor:
    """Smooth robustness at temperature tau and time 0 as one graph node,
    whose backward is the plan's reverse sweep; member states are (..., T, 2)."""
    return _monitor(Phi, members, 0, tau)


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
