"""Layers and optimization on top of the autodiff engine.

Dense stacks, a gated recurrent (LSTM) cell, a masked bidirectional scan over
axis 1 of a (B, J, n) tensor, bias-corrected Adam, and the JSON checkpoint
format. A recurrent state is [h, c] as one (2, ..., n) tensor, and a cell step
is one fused ``lstm_step`` node. The scan is one ``bidirectional_lstm`` node
for the whole sequence, both directions and the participation mask: it
steps the two directions together and backpropagates through time itself.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import Tensor, bidirectional_lstm, lstm_step, matmul, tanh
from .trajectories import read_json

CHECKPOINT_FORMAT_VERSION = 1

# Adam's moment decay rates and denominator guard, as Kingma and Ba (2015) recommend
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8


def init_weight(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)), the scheme used everywhere here."""
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


@dataclass
class Dense:
    """Two-layer perceptron with tanh hidden activation (no output activation)."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    @staticmethod
    def create(rng: np.random.Generator, n_in: int, n_hidden: int, n_out: int) -> "Dense":
        return Dense(
            w1=Tensor(init_weight(rng, n_in, n_hidden)),
            b1=Tensor(np.zeros(n_hidden)),
            w2=Tensor(init_weight(rng, n_hidden, n_out)),
            b2=Tensor(np.zeros(n_out)),
        )

    def __call__(self, x) -> Tensor:
        h = tanh(matmul(x, self.w1) + self.b1)
        return matmul(h, self.w2) + self.b2

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.w1": self.w1, f"{prefix}.b1": self.b1,
                f"{prefix}.w2": self.w2, f"{prefix}.b2": self.b2}


@dataclass
class RecurrentCell:
    """Gated recurrent cell (input/forget/output gates + tanh candidate).

    Gate pre-activations are computed as one fused affine map
    x @ w_x + h @ w_h + b, split into [input, forget, output, candidate].
    The state is [h, c] stacked to one (2, ..., n) tensor, and a step records
    one ``lstm_step`` node (hand-written backward); callers read h as
    ``state[0]``.
    """

    w_x: Tensor
    w_h: Tensor
    b: Tensor

    @staticmethod
    def create(rng: np.random.Generator, input_dim: int, hidden_dim: int) -> "RecurrentCell":
        return RecurrentCell(
            w_x=Tensor(init_weight(rng, input_dim, 4 * hidden_dim)),
            w_h=Tensor(init_weight(rng, hidden_dim, 4 * hidden_dim)),
            b=Tensor(np.zeros(4 * hidden_dim)),
        )

    def step(self, x: Tensor, state: Tensor, carry: np.ndarray | None) -> Tensor:
        """One recurrent update of ``state`` (2, ..., dim) on input x (..., n_in),
        a Tensor or a constant array; rows where the constant 0/1 ``carry``
        (..., 1) is 0 keep their state. None updates every row."""
        return lstm_step(x, state, self.w_x, self.w_h, self.b, carry)

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.w_x": self.w_x, f"{prefix}.w_h": self.w_h, f"{prefix}.b": self.b}


def bidirectional_scan(
    fwd: RecurrentCell,
    bwd: RecurrentCell,
    inputs: Tensor,
    mask: np.ndarray,
) -> Tensor:
    """Run two directional cells along axis 1 of ``inputs`` and sum their
    hidden states, as one ``bidirectional_lstm`` node.

    ``inputs`` is (B, J, n), ``mask`` a constant (B, J) array in {0,1}; the
    result is (B, J, hidden). Each direction carries one [h, c] state from
    zero. A masked-out element does not update it (it is skipped, as if
    absent from the sequence) and its output is zero.
    """
    if inputs.shape[1] == 0:
        raise ValueError("bidirectional_scan needs a nonempty sequence")
    return bidirectional_lstm(inputs, mask, (fwd.w_x, fwd.w_h, fwd.b), (bwd.w_x, bwd.w_h, bwd.b))


@dataclass
class Adam:
    """Bias-corrected Adam over a fixed, ordered set of named parameters."""

    params: dict[str, Tensor]
    lr: float = 1e-3

    def __post_init__(self):
        self.step_count = 0
        self.m = {name: np.zeros_like(p.value) for name, p in self.params.items()}
        self.v = {name: np.zeros_like(p.value) for name, p in self.params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self) -> None:
        """Descend along stored gradients (minimization convention)."""
        self.step_count += 1
        t = self.step_count
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            self.m[name] = _BETA1 * self.m[name] + (1 - _BETA1) * g
            self.v[name] = _BETA2 * self.v[name] + (1 - _BETA2) * g * g
            m_hat = self.m[name] / (1 - _BETA1 ** t)
            v_hat = self.v[name] / (1 - _BETA2 ** t)
            p.value -= self.lr * m_hat / (np.sqrt(v_hat) + _EPS)


# -- checkpoints ----------------------------------------------------------


def _encode_array(a: np.ndarray) -> dict:
    data = np.ascontiguousarray(a, dtype="<f8").tobytes()
    return {"shape": list(a.shape), "data": base64.b64encode(data).decode("ascii")}


def _decode_array(block) -> np.ndarray:
    shape = block.get("shape") if isinstance(block, dict) else None
    if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
        raise ValueError("has no 'shape' list of sizes")
    if not isinstance(block.get("data"), str):
        raise ValueError("has no base64 'data' text")
    raw = base64.b64decode(block["data"])
    if len(raw) != 8 * int(np.prod(shape)):
        raise ValueError(f"data holds {len(raw)} bytes, not 8 per entry of shape {shape}")
    a = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
    if not np.isfinite(a).all():
        raise ValueError("holds NaN or infinite values")
    return a


def save_checkpoint(path: str | Path, params: dict[str, Tensor], dims: dict) -> None:
    """JSON envelope: format_version, dims, named blocks of base64 little-endian f64."""
    doc = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "dims": dims,
        "params": {name: _encode_array(p.value) for name, p in sorted(params.items())},
    }
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def load_checkpoint(path: str | Path) -> tuple[dict[str, Tensor], dict]:
    """Read a ``save_checkpoint`` file; ValueError naming the file and the
    block unless ``dims`` and ``params`` are objects whose blocks fill their
    shapes with finite values."""
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: checkpoint is a JSON {type(doc).__name__}, want an object")
    if doc.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint format: {doc.get('format_version')}")
    for key in ("dims", "params"):
        if not isinstance(doc.get(key), dict):
            raise ValueError(f"{path}: checkpoint has no {key!r} object")
    params = {}
    for name, block in doc["params"].items():
        try:
            params[name] = Tensor(_decode_array(block))
        except ValueError as exc:
            raise ValueError(f"{path}: parameter {name!r}: {exc}") from None
    return params, doc["dims"]
