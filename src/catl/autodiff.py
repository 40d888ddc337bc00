"""Reverse-mode automatic differentiation over float64 numpy arrays.

A Tensor wraps an ndarray plus a gradient slot. Operations record their
inputs and a backward closure; calling ``backward()`` on a scalar result
accumulates exact adjoints into every reachable leaf. Everything is
64-bit and single-threaded per graph, so runs are bitwise reproducible.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

_GRAD_ENABLED = True


class no_grad:
    """Context manager that disables graph recording (values only)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


def grad_enabled() -> bool:
    return _GRAD_ENABLED


class Tensor:
    """Node in the computation graph: value, gradient slot, recorded parents."""

    __slots__ = ("value", "grad", "_parents", "_backward")

    def __init__(
        self,
        value,
        parents: Sequence["Tensor"] = (),
        backward: Callable[[np.ndarray], tuple] | None = None,
    ):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad: np.ndarray | None = None
        if _GRAD_ENABLED:
            self._parents = tuple(parents)
            self._backward = backward
        else:
            self._parents = ()
            self._backward = None

    @property
    def shape(self) -> tuple:
        return self.value.shape

    @property
    def ndim(self) -> int:
        return self.value.ndim

    def item(self) -> float:
        if self.value.size != 1:
            raise ValueError(f"item() needs a single element, got shape {self.shape}")
        return float(self.value.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into ``grad`` of every reachable node.

        self must be scalar-shaped (size 1).
        """
        if self.value.size != 1:
            raise ValueError(f"backward() needs a scalar, got shape {self.shape}")
        order = _toposort(self)
        self.grad = np.ones_like(self.value)
        for node in reversed(order):
            if node._backward is None or node.grad is None:
                continue
            contribs = node._backward(node.grad)
            for parent, contrib in zip(node._parents, contribs):
                if contrib is None:
                    continue
                if parent.grad is None:
                    # a copy: add, reshape, stack and concat hand back g or views of it
                    parent.grad = np.array(contrib, dtype=np.float64)
                else:
                    parent.grad += contrib

    # -- operator sugar -------------------------------------------------

    def __add__(self, other):
        return add(self, _lift(other))

    def __radd__(self, other):
        return add(_lift(other), self)

    def __sub__(self, other):
        return sub(self, _lift(other))

    def __rsub__(self, other):
        return sub(_lift(other), self)

    def __mul__(self, other):
        return mul(self, _lift(other))

    def __rmul__(self, other):
        return mul(_lift(other), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, _lift(other))

    def __getitem__(self, key):
        return getitem(self, key)

    def __repr__(self):
        return f"Tensor(shape={self.shape})"


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _toposort(root: Tensor) -> list[Tensor]:
    """Iterative DFS post-order (graphs are deep; no recursion)."""
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum grad over axes that were broadcast to reach ``grad.shape``."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# -- primitives ----------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.value + b.value

    def bwd(g):
        return _unbroadcast(g, a.value.shape), _unbroadcast(g, b.value.shape)

    return Tensor(out, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.value - b.value

    def bwd(g):
        return _unbroadcast(g, a.value.shape), _unbroadcast(-g, b.value.shape)

    return Tensor(out, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.value * b.value
    av, bv = a.value, b.value

    def bwd(g):
        return _unbroadcast(g * bv, av.shape), _unbroadcast(g * av, bv.shape)

    return Tensor(out, (a, b), bwd)


def neg(a: Tensor) -> Tensor:
    return Tensor(-a.value, (a,), lambda g: (-g,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """(..., n) x (n, m); gradients reduce over any broadcast batch dims."""
    out = a.value @ b.value
    av, bv = a.value, b.value

    def bwd(g):
        ga = g @ bv.T
        if av.ndim == 1:
            gb = np.outer(av, g)
        else:
            gb = av.reshape(-1, av.shape[-1]).T @ g.reshape(-1, g.shape[-1])
        return _unbroadcast(ga, av.shape), _unbroadcast(gb, bv.shape)

    return Tensor(out, (a, b), bwd)


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.value)

    def bwd(g):
        return (g * (1.0 - out * out),)

    return Tensor(out, (a,), bwd)


def sigmoid(a: Tensor) -> Tensor:
    out = 1.0 / (1.0 + np.exp(-a.value))

    def bwd(g):
        return (g * out * (1.0 - out),)

    return Tensor(out, (a,), bwd)


def square(a: Tensor) -> Tensor:
    av = a.value

    def bwd(g):
        return (g * 2.0 * av,)

    return Tensor(av * av, (a,), bwd)


def relu(a: Tensor) -> Tensor:
    """max(x, 0); subgradient 0 at the kink."""
    mask = a.value > 0.0

    def bwd(g):
        return (g * mask,)

    return Tensor(np.where(mask, a.value, 0.0), (a,), bwd)


def lstm_step(x: Tensor, state: Tensor, w_x: Tensor, w_h: Tensor, b: Tensor,
              carry: np.ndarray | None = None) -> Tensor:
    """One gated recurrent update of the state [h, c], stacked to (2, ..., n),
    as one node: z = x @ w_x + h @ w_h + b split into [input, forget, output,
    candidate] pre-activations, c' = f * c + i * cand, h' = o * tanh(c'). The
    value is carry * [h', c'] + (1 - carry) * state, stacked the same way, so
    rows where the constant 0/1 ``carry`` (..., 1) is 0 keep their state; None
    updates every row. Forward values equal the composition of ``matmul``,
    ``sigmoid``, ``tanh`` and ``mul`` bitwise."""
    sv, xv, wxv, whv = state.value, x.value, w_x.value, w_h.value
    hv, cv = sv[0], sv[1]
    n = hv.shape[-1]
    z = xv @ wxv + hv @ whv + b.value
    gates = 1.0 / (1.0 + np.exp(-z[..., : 3 * n]))
    gi, gf, go = gates[..., :n], gates[..., n : 2 * n], gates[..., 2 * n :]
    cand = np.tanh(z[..., 3 * n :])
    out = np.empty(sv.shape)
    np.multiply(gf, cv, out=out[1])
    out[1] += gi * cand
    tc = np.tanh(out[1])
    np.multiply(go, tc, out=out[0])
    if carry is not None:
        keep = 1.0 - carry
        out = carry * out + keep * sv

    def bwd(g):
        gh, gc = g if carry is None else carry * g  # what reaches [h', c']
        dc = gc + (gh * go) * (1.0 - tc * tc)
        dz = np.empty(z.shape)
        dz[..., :n] = (dc * cand) * gi * (1.0 - gi)
        dz[..., n : 2 * n] = (dc * cv) * gf * (1.0 - gf)
        dz[..., 2 * n : 3 * n] = (gh * tc) * go * (1.0 - go)
        dz[..., 3 * n :] = (dc * gi) * (1.0 - cand * cand)
        flat = dz.reshape(-1, dz.shape[-1])
        d_state = np.stack([dz @ whv.T, dc * gf])
        if carry is not None:
            d_state += keep * g
        return (
            dz @ wxv.T,
            d_state,
            xv.reshape(-1, xv.shape[-1]).T @ flat,
            hv.reshape(-1, hv.shape[-1]).T @ flat,
            _unbroadcast(dz, b.value.shape),
        )

    return Tensor(out, (x, state, w_x, w_h, b), bwd)


def getitem(a: Tensor, key) -> Tensor:
    """a[key]. With an integer-array key an element may be read more than
    once, and the backward adds up every read's gradient; with basic
    indexing it stores g as it is."""
    out = a.value[key]
    av_shape = a.value.shape
    parts = key if isinstance(key, tuple) else (key,)
    fancy = any(isinstance(k, (np.ndarray, list)) for k in parts)

    def bwd(g):
        full = np.zeros(av_shape)
        if fancy:
            np.add.at(full, key, g)
        else:
            full[key] = g
        return (full,)

    return Tensor(out, (a,), bwd)


def reshape(a: Tensor, shape: tuple) -> Tensor:
    av_shape = a.value.shape

    def bwd(g):
        return (g.reshape(av_shape),)

    return Tensor(a.value.reshape(shape), (a,), bwd)


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    tensors = list(tensors)
    out = np.concatenate([t.value for t in tensors], axis=axis)
    sizes = [t.value.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=axis))

    return Tensor(out, tensors, bwd)


def stack(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    tensors = list(tensors)
    out = np.stack([t.value for t in tensors], axis=axis)

    def bwd(g):
        pieces = np.moveaxis(g, axis, 0)
        return tuple(pieces[i] for i in range(len(tensors)))

    return Tensor(out, tensors, bwd)


def cumsum(a: Tensor, axis: int = 0) -> Tensor:
    """Running sum along ``axis``, added in order: out[k] = (a[0] + a[1]) + ... + a[k].
    The gradient is the reverse running sum of g."""

    def bwd(g):
        return (np.flip(np.cumsum(np.flip(g, axis), axis=axis), axis),)

    return Tensor(np.cumsum(a.value, axis=axis), (a,), bwd)


def window_view(a: np.ndarray, start: int, count: int, width: int) -> np.ndarray:
    """Sliding windows along the last axis: out[..., i, k] = a[..., start + i + k]
    for i < count and k < width, a read-only view of shape (..., count, width)."""
    if start + count + width - 1 > a.shape[-1]:
        raise ValueError(f"{count} windows of width {width} from {start} overrun {a.shape[-1]}")
    step = a.strides[-1]
    return np.lib.stride_tricks.as_strided(
        a[..., start:], a.shape[:-1] + (count, width), a.strides[:-1] + (step, step),
        writeable=False,
    )


def windows(a: Tensor, start: int, count: int, width: int) -> Tensor:
    """``window_view`` as one node. The backward adds g back into each state
    in the order ``width`` stacked slices would, by ascending offset k; it
    loops over whichever of k and the window i is shorter."""
    shape = a.value.shape

    def bwd(g):
        full = np.zeros(shape)
        if width <= count:
            for k in range(width):
                full[..., start + k : start + k + count] += g[..., k]
        else:  # descending i is ascending k at each state
            for i in reversed(range(count)):
                full[..., start + i : start + i + width] += g[..., i, :]
        return (full,)

    return Tensor(window_view(a.value, start, count, width), (a,), bwd)


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.value.sum(axis=axis, keepdims=keepdims)
    av_shape = a.value.shape

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g, av_shape).copy(),)
        gg = g
        if not keepdims:
            gg = np.expand_dims(g, axis)
        return (np.broadcast_to(gg, av_shape).copy(),)

    return Tensor(out, (a,), bwd)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    n = a.value.size if axis is None else a.value.shape[axis]
    return mul(sum_(a, axis=axis, keepdims=keepdims), Tensor(1.0 / n))


def _lse(a: Tensor, tau: float, axis: int, sign: int) -> Tensor:
    """(sign/tau) * log sum exp(sign * tau * x) along ``axis``, shifted by the
    extremum for stability; the gradient is the softmax weights."""
    av = a.value
    m = (av.max if sign > 0 else av.min)(axis=axis, keepdims=True)
    e = np.exp(sign * tau * (av - m))
    s = e.sum(axis=axis, keepdims=True)
    out = (m + sign * (np.log(s) / tau)).squeeze(axis=axis)
    w = e / s

    def bwd(g):
        return (g.reshape(s.shape) * w,)

    return Tensor(out, (a,), bwd)


def softmax_lse(a: Tensor, tau: float, axis: int = -1) -> Tensor:
    """Smooth maximum: (1/tau) * log sum exp(tau * x) along ``axis``.

    Satisfies max(x) <= out <= max(x) + log(n)/tau.
    """
    return _lse(a, tau, axis, 1)


def softmin_lse(a: Tensor, tau: float, axis: int = -1) -> Tensor:
    """Smooth minimum: -softmax_lse(-x). min(x) - log(n)/tau <= out <= min(x)."""
    return _lse(a, tau, axis, -1)


def logsumexp(a: Tensor, axis: int = -1) -> Tensor:
    """Plain log-sum-exp (tau = 1 smooth max), for cross-entropy losses."""
    return softmax_lse(a, tau=1.0, axis=axis)


def kth_largest(a: Tensor, k: int, axis: int = -1) -> Tensor:
    """k-th largest value along ``axis`` (k is 1-based).

    Ties resolve to the smallest original index (stable sort on descending
    value). The gradient routes entirely to the selected element, so the
    result is differentiable away from ties.
    """
    av = a.value
    n = av.shape[axis]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for axis of size {n}")
    moved = np.moveaxis(av, axis, -1)
    idx = np.argsort(-moved, axis=-1, kind="stable")[..., k - 1]
    out = np.take_along_axis(moved, idx[..., None], axis=-1)[..., 0]
    av_shape = av.shape

    def bwd(g):
        gm = np.zeros_like(moved)
        np.put_along_axis(gm, idx[..., None], np.expand_dims(g, -1), axis=-1)
        return (np.moveaxis(gm, -1, axis).reshape(av_shape),)

    return Tensor(out, (a,), bwd)
