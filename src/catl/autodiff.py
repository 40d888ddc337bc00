"""Reverse-mode automatic differentiation over float64 numpy arrays.

A Tensor wraps an ndarray plus a gradient slot. Operations record their
inputs and a backward closure; calling ``backward()`` on a scalar result
accumulates exact adjoints into every reachable leaf. An operand that is
not a Tensor (an ndarray or a number) is a constant: never a graph node,
never given a gradient. ``_unbroadcast`` decides that for add, sub, mul,
matmul and lstm_step, whose backward returns None in a constant's place
and computes nothing for it; stack and concat hand back views of g, which
cost nothing. The ops are those the package runs, plus the reference paths
tests compare against: getitem's integer-array key and lstm_step's carry.
Everything is 64-bit and single-threaded per graph, so runs are bitwise
reproducible.
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
    __array_ufunc__ = None  # so ndarray <op> Tensor calls the Tensor's reflected operator

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

    def item(self) -> float:
        if self.value.size != 1:
            raise ValueError(f"item() needs a single element, got shape {self.shape}")
        return float(self.value.reshape(()))

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
                if contrib is None or not isinstance(parent, Tensor):
                    continue
                if parent.grad is None:
                    # a copy: add, sub, stack and concat hand back g or views of it
                    parent.grad = np.array(contrib, dtype=np.float64)
                else:
                    parent.grad += contrib

    # -- operator sugar -------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return getitem(self, key)

    def __repr__(self):
        return f"Tensor(shape={self.shape})"


def _value(x):
    """A Tensor's value, or x itself: a non-Tensor operand is a constant."""
    return x.value if isinstance(x, Tensor) else x


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
            if isinstance(parent, Tensor) and id(parent) not in visited:
                stack.append((parent, False))
    return order


def _unbroadcast(x, grad: Callable[[], np.ndarray]) -> np.ndarray | None:
    """The gradient on operand x: None for a constant, whose ``grad`` is never
    called, else ``grad()`` summed over the axes broadcast to reach x's shape."""
    if not isinstance(x, Tensor):
        return None
    grad, shape = grad(), x.value.shape
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


def add(a, b) -> Tensor:
    av, bv = _value(a), _value(b)

    def bwd(g):
        return _unbroadcast(a, lambda: g), _unbroadcast(b, lambda: g)

    return Tensor(av + bv, (a, b), bwd)


def sub(a, b) -> Tensor:
    av, bv = _value(a), _value(b)

    def bwd(g):
        return _unbroadcast(a, lambda: g), _unbroadcast(b, lambda: -g)

    return Tensor(av - bv, (a, b), bwd)


def mul(a, b) -> Tensor:
    av, bv = _value(a), _value(b)

    def bwd(g):
        return _unbroadcast(a, lambda: g * bv), _unbroadcast(b, lambda: g * av)

    return Tensor(av * bv, (a, b), bwd)


def neg(a: Tensor) -> Tensor:
    return Tensor(-a.value, (a,), lambda g: (-g,))


def _rows_matmul(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """a (..., n) @ w (n, m) as one product over a's rows: numpy's own @ on a
    > 2-D runs one product per leading index, slower and summed otherwise."""
    if a.ndim <= 2:
        return a @ w
    return (a.reshape(-1, a.shape[-1]) @ w).reshape(*a.shape[:-1], w.shape[-1])


def matmul(a, b) -> Tensor:
    """(..., n) x (n, m); gradients reduce over any broadcast batch dims."""
    av, bv = _value(a), _value(b)

    def bwd(g):
        rows = g.reshape(-1, g.shape[-1])
        return (_unbroadcast(a, lambda: _rows_matmul(g, bv.T)),
                _unbroadcast(b, lambda: av.reshape(-1, av.shape[-1]).T @ rows))

    return Tensor(_rows_matmul(av, bv), (a, b), bwd)


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.value)

    def bwd(g):
        return (g * (1.0 - out * out),)

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


def _cell_forward(z: np.ndarray, c: np.ndarray, h_out: np.ndarray, c_out: np.ndarray) -> tuple:
    """The gates of pre-activations z (..., 4n) on cell c (..., n): writes
    c' = f * c + i * cand to ``c_out`` and h' = o * tanh(c') to ``h_out``, and
    returns what ``_cell_backward`` reads."""
    n = c.shape[-1]
    gates = 1.0 / (1.0 + np.exp(-z[..., : 3 * n]))
    gi, gf, go = gates[..., :n], gates[..., n : 2 * n], gates[..., 2 * n :]
    cand = np.tanh(z[..., 3 * n :])
    np.multiply(gf, c, out=c_out)
    c_out += gi * cand
    tc = np.tanh(c_out)
    np.multiply(go, tc, out=h_out)
    return gates, cand, tc


def _cell_backward(gh: np.ndarray, gc: np.ndarray, c: np.ndarray, acts: tuple,
                   dz: np.ndarray) -> np.ndarray:
    """From the gradients gh, gc on h' and c' of one ``_cell_forward`` on cell
    c: writes the gradient on z to ``dz`` and returns the part of c's
    gradient that flows through c'."""
    gates, cand, tc = acts
    n = c.shape[-1]
    gi, gf, go = gates[..., :n], gates[..., n : 2 * n], gates[..., 2 * n :]
    dc = gc + (gh * go) * (1.0 - tc * tc)
    dz[..., :n] = (dc * cand) * gi * (1.0 - gi)
    dz[..., n : 2 * n] = (dc * c) * gf * (1.0 - gf)
    dz[..., 2 * n : 3 * n] = (gh * tc) * go * (1.0 - go)
    dz[..., 3 * n :] = (dc * gi) * (1.0 - cand * cand)
    return dc * gf


def lstm_step(x, state, w_x, w_h, b, carry: np.ndarray | None = None) -> Tensor:
    """One gated recurrent update of the state [h, c], stacked to (2, ..., n),
    as one node: z = x @ w_x + h @ w_h + b split into [input, forget, output,
    candidate] pre-activations, c' = f * c + i * cand, h' = o * tanh(c'). The
    value is carry * [h', c'] + (1 - carry) * state, stacked the same way, so
    rows where the constant 0/1 ``carry`` (..., 1) is 0 keep their state; None
    updates every row; any operand may be a constant array. The gates are
    the logistic 1 / (1 + exp(-z)) in numpy, bitwise. The program steps with
    no carry; the blend is the per-element reference of ``bidirectional_lstm``."""
    xv, sv, wxv, whv, bv = map(_value, (x, state, w_x, w_h, b))
    hv, cv = sv[0], sv[1]
    z = _rows_matmul(xv, wxv) + _rows_matmul(hv, whv) + bv
    out = np.empty(sv.shape)
    acts = _cell_forward(z, cv, out[0], out[1])
    if carry is not None:
        keep = 1.0 - carry
        out = carry * out + keep * sv

    def bwd(g):
        gh, gc = g if carry is None else carry * g  # what reaches [h', c']
        dz = np.empty(z.shape)
        dc_prev = _cell_backward(gh, gc, cv, acts, dz)
        flat = dz.reshape(-1, dz.shape[-1])

        def d_state():
            d = np.stack([_rows_matmul(dz, whv.T), dc_prev])
            return d if carry is None else d + keep * g

        return (
            _unbroadcast(x, lambda: _rows_matmul(dz, wxv.T)),
            _unbroadcast(state, d_state),
            _unbroadcast(w_x, lambda: xv.reshape(-1, xv.shape[-1]).T @ flat),
            _unbroadcast(w_h, lambda: hv.reshape(-1, hv.shape[-1]).T @ flat),
            _unbroadcast(b, lambda: dz),
        )

    return Tensor(out, (x, state, w_x, w_h, b), bwd)


def bidirectional_lstm(x: Tensor, mask: np.ndarray, fwd: Sequence[Tensor],
                       bwd: Sequence[Tensor]) -> Tensor:
    """Two gated recurrent cells scanned over axis 1 of x (B, J, m), one
    forward and one backward, as one node: mask * (h_fwd + h_bwd), (B, J, n).

    ``fwd`` and ``bwd`` are each a cell's (w_x, w_h, b). Both start from a
    zero [h, c] state. An element whose constant 0/1 ``mask`` (B, J) entry is
    0 does not update either state (it is skipped, as if absent from the
    sequence) and its output is 0. Step k updates forward element k and
    backward element J-1-k together, on (2, B, n) h and c with one matmul
    over the stacked (2, ., 4n) weights; the values equal ``lstm_step`` run
    per element and direction bitwise. Without grad recording no step's gate
    activations are kept. The backward is backpropagation through time over
    k = J-1 ... 0; x's gradient and each weight's are one matmul over all
    steps."""
    xv = x.value
    batch, length, m = xv.shape
    w_x, w_h, b = (np.array([f.value, r.value]) for f, r in zip(fwd, bwd))
    n = w_h.shape[1]
    b = b[:, None]  # (2, 1, 4n)
    # by direction, then step: step k reads forward element k and backward element J-1-k
    steps = xv.transpose(1, 0, 2)
    xs = np.array([steps, steps[::-1]])  # (2, J, B, m)
    carry = np.array([mask.T, mask.T[::-1]])[:, :, None, :, None]  # (2, J, 1, B, 1)
    keep = 1.0 - carry
    # [h, c] of both directions before step 0 and after each step
    states = np.zeros((length + 1, 2, 2, batch, n))
    fresh = np.empty((2, 2, batch, n))
    acts = []
    for k in range(length):
        z = xs[:, k] @ w_x + states[k, :, 0] @ w_h + b
        step_acts = _cell_forward(z, states[k, :, 1], fresh[:, 0], fresh[:, 1])
        np.add(carry[:, k] * fresh, keep[:, k] * states[k], out=states[k + 1])
        if _GRAD_ENABLED:
            acts.append(step_acts)
    h = states[1:, :, 0]  # (J, 2, B, n)
    out = mask[..., None] * (h[:, 0] + h[::-1, 1]).transpose(1, 0, 2)

    def backward(g):
        g_out = (g * mask[..., None]).transpose(1, 0, 2)
        g_h = np.array([g_out, g_out[::-1]])  # on h after each step
        dzs = np.empty((2, length, batch, 4 * n))
        w_ht = w_h.transpose(0, 2, 1)
        g_state = np.zeros((2, 2, batch, n))  # on [h, c]; nothing follows the last step
        for k in reversed(range(length)):
            g_state[:, 0] += g_h[:, k]
            through = carry[:, k] * g_state  # what reaches [h', c']
            dc_prev = _cell_backward(through[:, 0], through[:, 1], states[k, :, 1], acts[k],
                                     dzs[:, k])
            g_state = keep[:, k] * g_state
            g_state[:, 0] += dzs[:, k] @ w_ht
            g_state[:, 1] += dc_prev
        flat = dzs.reshape(2, length * batch, 4 * n)
        dx = (flat @ w_x.transpose(0, 2, 1)).reshape(2, length, batch, m)
        h_prev = states[:-1, :, 0].transpose(1, 0, 2, 3).reshape(2, -1, n)
        g_wx = xs.reshape(2, -1, m).transpose(0, 2, 1) @ flat
        g_wh = h_prev.transpose(0, 2, 1) @ flat
        g_b = flat.sum(axis=1)
        return ((dx[0] + dx[1, ::-1]).transpose(1, 0, 2),
                g_wx[0], g_wh[0], g_b[0], g_wx[1], g_wh[1], g_b[1])

    return Tensor(out, (x, *fwd, *bwd), backward)


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


def concat(tensors: Sequence, axis: int = -1) -> Tensor:
    tensors = list(tensors)
    values = [_value(t) for t in tensors]
    out = np.concatenate(values, axis=axis)
    splits = np.cumsum([v.shape[axis] for v in values])[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=axis))

    return Tensor(out, tensors, bwd)


def stack(tensors: Sequence, axis: int = -1) -> Tensor:
    tensors = list(tensors)
    out = np.stack([_value(t) for t in tensors], axis=axis)

    def bwd(g):
        pieces = np.moveaxis(g, axis, 0)
        return tuple(pieces[i] for i in range(len(tensors)))

    return Tensor(out, tensors, bwd)


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.value.sum(axis=axis, keepdims=keepdims)
    av_shape = a.value.shape

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, av_shape).copy(),)

    return Tensor(out, (a,), bwd)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    n = a.value.size if axis is None else a.value.shape[axis]
    return mul(sum_(a, axis=axis, keepdims=keepdims), 1.0 / n)


def lse(av: np.ndarray, tau: float, sign: int, axis: int = -1) -> tuple[np.ndarray, np.ndarray]:
    """(sign/tau) * log sum exp(sign * tau * x) of an array along ``axis``,
    shifted by the extremum for stability, and its gradient: the softmax
    weights, with ``axis`` kept."""
    m = (av.max if sign > 0 else av.min)(axis=axis, keepdims=True)
    e = np.exp(sign * tau * (av - m))
    s = e.sum(axis=axis, keepdims=True)
    return (m + sign * (np.log(s) / tau)).squeeze(axis=axis), e / s


def logsumexp(a: Tensor, axis: int = -1) -> Tensor:
    """Plain log-sum-exp along ``axis``, for cross-entropy losses."""
    out, w = lse(a.value, 1.0, 1, axis)
    return Tensor(out, (a,), lambda g: (np.expand_dims(g, axis) * w,))
