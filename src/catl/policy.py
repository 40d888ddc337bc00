"""Shared-parameter team policy with a gated communication channel.

Per agent and time step: a recurrent encoder turns the observed state into a
fixed-size thought vector (hidden state initialized from the capability
network), a gate decides channel participation, a bidirectional scan over the
participants' thoughts (ascending agent id) produces integrated thoughts, and
the output network maps [thought, integrated thought] to a control squashed
into the agent's box bounds. One parameter set serves any number of agents.

``rollout`` simulates B teams of J agents at once. Every value of its loop
is indexed (b, j, .), agent j of team b, and it returns every trace as one
tensor indexed (b, j, time, .). Constants (initial states, capabilities,
control bounds) stay plain arrays, so the tape records only what depends on
the parameters.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .nn import Dense, RecurrentCell, bidirectional_scan, load_checkpoint, save_checkpoint
from .scenario import Scenario
from .trajectories import IndividualTrajectory, NonFiniteError, TeamMember, TeamTrajectory

GATE_MODES = ("full", "none", "learned")
COMM_CLASS = 0  # first gate logit = "communicate"
# what save_policy writes under "dims" besides the PolicyDims fields
_EXTRA_DIMS_KEYS = ("u_max", "cap_matrix", "agent_ids", "obs_center", "obs_scale")


@dataclass(frozen=True)
class PolicyDims:
    n_x: int = 2
    n_u: int = 2
    n_c: int = 8
    n_cap: int = 1
    hidden: int = 32


@dataclass
class PolicyParams:
    """All trainable blocks plus the roster data needed to run them."""

    dims: PolicyDims
    cap_net: Dense
    encoder: RecurrentCell
    chan_fwd: RecurrentCell
    chan_bwd: RecurrentCell
    out_net: Dense
    gate_net: Dense
    u_max: np.ndarray  # (J, n_u) per-agent box bounds
    cap_matrix: np.ndarray  # (J, n_cap) roster capability vectors
    agent_ids: list[int]
    # observed states are normalized to roughly [-1, 1] before encoding;
    # keeps the recurrent gates out of saturation on large workspaces
    obs_center: np.ndarray = None  # (n_x,)
    obs_scale: np.ndarray = None  # (n_x,)

    def __post_init__(self):
        if self.obs_center is None:
            self.obs_center = np.zeros(self.dims.n_x)
        if self.obs_scale is None:
            self.obs_scale = np.ones(self.dims.n_x)

    def named(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        out.update(self.cap_net.named("cap"))
        out.update(self.encoder.named("enc"))
        out.update(self.chan_fwd.named("chan_f"))
        out.update(self.chan_bwd.named("chan_b"))
        out.update(self.out_net.named("out"))
        out.update(self.gate_net.named("gate"))
        return out

    def policy_named(self) -> dict[str, Tensor]:
        return {k: v for k, v in self.named().items() if not k.startswith("gate")}

    def gate_named(self) -> dict[str, Tensor]:
        return {k: v for k, v in self.named().items() if k.startswith("gate")}

    def trainable_count(self) -> int:
        return sum(p.value.size for p in self.named().values())

    @property
    def n_agents(self) -> int:
        return len(self.agent_ids)

    def normalize_obs(self, x):
        """Observed states x (..., n_x), a Tensor or an array, mapped to
        roughly [-1, 1]; the result has x's type."""
        return (x - self.obs_center) * (1.0 / self.obs_scale)

    def copy(self) -> "PolicyParams":
        clone = create_policy_raw(np.random.default_rng(0), self.dims,
                                  self.u_max, self.cap_matrix, self.agent_ids,
                                  obs_center=self.obs_center.copy(),
                                  obs_scale=self.obs_scale.copy())
        for name, p in clone.named().items():
            p.value = self.named()[name].value.copy()
        return clone


def create_policy_raw(
    rng: np.random.Generator,
    dims: PolicyDims,
    u_max: np.ndarray,
    cap_matrix: np.ndarray,
    agent_ids: list[int],
    obs_center: np.ndarray | None = None,
    obs_scale: np.ndarray | None = None,
) -> PolicyParams:
    out_net = Dense.create(rng, 2 * dims.n_c, dims.hidden, dims.n_u)
    # start with small controls so early gradients are not squashed by tanh
    out_net.w2.value *= 0.3
    return PolicyParams(
        dims=dims,
        cap_net=Dense.create(rng, dims.n_cap, dims.hidden, dims.n_c),
        encoder=RecurrentCell.create(rng, dims.n_x, dims.n_c),
        chan_fwd=RecurrentCell.create(rng, dims.n_c, dims.n_c),
        chan_bwd=RecurrentCell.create(rng, dims.n_c, dims.n_c),
        out_net=out_net,
        gate_net=Dense.create(rng, dims.n_c, dims.hidden, 2),
        u_max=np.asarray(u_max, dtype=np.float64),
        cap_matrix=np.asarray(cap_matrix, dtype=np.float64),
        agent_ids=list(agent_ids),
        obs_center=obs_center,
        obs_scale=obs_scale,
    )


def create_policy(
    rng: np.random.Generator,
    scenario: Scenario,
    n_c: int = 8,
    hidden: int = 32,
) -> PolicyParams:
    dims = PolicyDims(n_cap=len(scenario.capabilities), n_c=n_c, hidden=hidden)
    lo, hi = np.asarray(scenario.workspace[0]), np.asarray(scenario.workspace[1])
    return create_policy_raw(
        rng, dims, scenario.u_max_matrix(), scenario.capability_matrix(),
        [a.agent_id for a in scenario.agents],
        obs_center=(lo + hi) / 2.0,
        obs_scale=np.maximum((hi - lo) / 2.0, 1e-9),
    )


# -- per-step operations -----------------------------------------------------


def gate(h: Tensor | np.ndarray, params: PolicyParams, mode: str) -> np.ndarray:
    """Participation decision per thought of ``h`` (..., n_c), shaped as h's
    leading axes; hard argmax in learned mode."""
    values = h.value if isinstance(h, Tensor) else np.asarray(h)
    if mode == "full":
        return np.ones(values.shape[:-1], dtype=bool)
    if mode == "none":
        return np.zeros(values.shape[:-1], dtype=bool)
    if mode == "learned":
        with ad.no_grad():
            logits = params.gate_net(values).value
        return np.argmax(logits, axis=-1) == COMM_CLASS
    raise ValueError(f"unknown gate mode {mode!r} (have: {GATE_MODES})")


def act(params: PolicyParams, h: Tensor, h_tilde, u_max: np.ndarray) -> Tensor:
    """Control from [thought, integrated thought], squashed into the box
    ``u_max``, a constant array that broadcasts against the controls.
    ``h_tilde`` may be a constant array too (zeros for a silent agent)."""
    raw = params.out_net(ad.concat([h, h_tilde], axis=-1))
    return ad.tanh(raw) * u_max


# -- closed-loop rollout ----------------------------------------------------------


@dataclass
class RolloutResult:
    """Rollout trace: states and controls stay on the tape, thoughts and the
    channel mask are values only.

    Each trace is indexed (batch row b, roster index j, time, .).
    """

    states: Tensor  # (B, J, H+1, n_x)
    controls: Tensor  # (B, J, H, n_u)
    thoughts: np.ndarray  # (B, J, H, n_c)
    comm_mask: np.ndarray  # (B, J, H) in {0,1}
    agent_ids: list[int]
    member_caps: list[frozenset[str]] | None = None

    @property
    def batch(self) -> int:
        return self.states.shape[0]

    def member_tensors(self, member_caps) -> list[tuple[Tensor, frozenset]]:
        return [(self.states[:, j], caps) for j, caps in enumerate(member_caps)]

    def states_numpy(self) -> np.ndarray:
        """(B, J, H+1, n_x)"""
        return self.states.value

    def comm_counts(self) -> np.ndarray:
        """Total channel accesses per batch element."""
        return self.comm_mask.reshape(self.batch, -1).sum(axis=1)

    def to_teams(self) -> list[TeamTrajectory]:
        assert self.member_caps is not None
        return [
            TeamTrajectory([
                TeamMember(agent_id, IndividualTrajectory(x[j], u[j]), caps)
                for j, (agent_id, caps) in enumerate(zip(self.agent_ids, self.member_caps))
            ])
            for x, u in zip(self.states.value, self.controls.value)
        ]


def rollout(
    params: PolicyParams,
    x0: np.ndarray,
    length: int,
    gate_mode: str = "full",
    member_caps: list[frozenset[str]] | None = None,
    cut: np.ndarray | None = None,
    nocomm_params: PolicyParams | None = None,
) -> RolloutResult:
    """Closed-loop simulation for ``length`` steps under x(t+1) = x(t) + u(t).

    x0 is (J, n_x) or batched (B, J, n_x): ValueError naming that shape for
    any other, NonFiniteError if it holds NaN or infinite values. ``cut`` is an
    optional boolean (B, J, length) array: where ``cut[b, j, t]`` is set, the
    channel connection of roster index j in row b is masked off at time t and
    that agent's control at t comes from ``nocomm_params`` (its own encoder
    fed the row's observed states, values only); everything else follows
    ``params``.
    """
    if gate_mode not in GATE_MODES:
        raise ValueError(f"unknown gate mode {gate_mode!r}")
    if length < 1:
        raise ValueError(f"rollout length must be >= 1, got {length}")
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.ndim == 2:
        x0 = x0[None]
    team = (params.n_agents, params.dims.n_x)
    if x0.ndim != 3 or x0.shape[1:] != team:
        raise ValueError(f"x0 has shape {x0.shape}, want {team} or (B, {team[0]}, {team[1]})")
    if not np.isfinite(x0).all():
        raise NonFiniteError(f"x0 holds {int((~np.isfinite(x0)).sum())} non-finite values")
    batch, n_agents = x0.shape[:2]

    caps = np.broadcast_to(params.cap_matrix, (batch, n_agents, params.dims.n_cap))
    state = ad.stack([params.cap_net(caps), np.zeros((batch, n_agents, params.dims.n_c))],
                     axis=0)
    if cut is not None:
        if nocomm_params is None:
            raise ValueError("cut needs nocomm_params")
        cut = np.asarray(cut, dtype=bool)
        if cut.shape != (batch, n_agents, length):
            raise ValueError(f"cut has shape {cut.shape}, want {(batch, n_agents, length)}")
        no_talk = np.zeros((batch, n_agents, nocomm_params.dims.n_c))
        state_nc = ad.stack([nocomm_params.cap_net(caps), no_talk], axis=0)

    states = [x0]
    controls: list[Tensor] = []
    # copied out each step: h is a view of the [h, c] state, and holding it
    # would keep c alive too
    thoughts = np.empty((batch, n_agents, length, params.dims.n_c))
    comm_mask = np.zeros((batch, n_agents, length))

    for t in range(length):
        x = states[-1]
        state = params.encoder.step(params.normalize_obs(x), state, None)
        h = state[0]
        thoughts[:, :, t] = h.value

        mask = gate(h, params, gate_mode).astype(np.float64)
        if cut is not None:
            mask[cut[:, :, t]] = 0.0
        comm_mask[:, :, t] = mask

        h_tilde = bidirectional_scan(params.chan_fwd, params.chan_bwd, h, mask)
        u = act(params, h, h_tilde, params.u_max)

        if cut is not None:
            # substitution is values-only: cutting is a labeling tool, never
            # a training path
            with ad.no_grad():
                state_nc = nocomm_params.encoder.step(nocomm_params.normalize_obs(x), state_nc,
                                                      None)
                u_nc = act(nocomm_params, state_nc[0], no_talk, params.u_max).value
            on = cut[:, :, t, None]
            u = u * ~on + np.where(on, u_nc, 0.0)

        controls.append(u)
        states.append(x + u)

    return RolloutResult(
        states=ad.stack(states, axis=2),
        controls=ad.stack(controls, axis=2),
        thoughts=thoughts,
        comm_mask=comm_mask,
        agent_ids=list(params.agent_ids),
        member_caps=member_caps,
    )


# -- persistence -------------------------------------------------------------------


def save_policy(path: str | Path, params: PolicyParams) -> None:
    meta = {
        **asdict(params.dims),
        "u_max": params.u_max.tolist(),
        "cap_matrix": params.cap_matrix.tolist(),
        "agent_ids": params.agent_ids,
        "obs_center": params.obs_center.tolist(),
        "obs_scale": params.obs_scale.tolist(),
    }
    save_checkpoint(path, params.named(), meta)


def load_policy(path: str | Path) -> PolicyParams:
    """Read a ``save_policy`` checkpoint; ValueError unless its dims hold every
    key save_policy writes, its integer dims are positive integers, it holds
    exactly the policy's parameters and every array has the shape its dims
    imply."""
    tensors, meta = load_checkpoint(path)
    dim_names = [f.name for f in fields(PolicyDims)]
    missing = [key for key in (*dim_names, *_EXTRA_DIMS_KEYS) if key not in meta]
    if missing:
        raise ValueError(f"{path}: checkpoint dims lack {missing}")
    for name in dim_names:
        value = meta[name]
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ValueError(f"{path}: checkpoint dim {name!r} is {value!r}, want an integer >= 1")
    dims = PolicyDims(**{name: meta[name] for name in dim_names})
    params = create_policy_raw(
        np.random.default_rng(0), dims,
        np.array(meta["u_max"]), np.array(meta["cap_matrix"]), list(meta["agent_ids"]),
        obs_center=np.array(meta["obs_center"]),
        obs_scale=np.array(meta["obs_scale"]),
    )
    named = params.named()
    missing, extra = sorted(set(named) - set(tensors)), sorted(set(tensors) - set(named))
    if missing or extra:
        raise ValueError(f"{path}: checkpoint lacks parameters {missing}, has unexpected {extra}")
    n = len(params.agent_ids)
    arrays = {name: (t.value, named[name].value.shape) for name, t in tensors.items()}
    arrays.update(
        u_max=(params.u_max, (n, dims.n_u)),
        cap_matrix=(params.cap_matrix, (n, dims.n_cap)),
        obs_center=(params.obs_center, (dims.n_x,)),
        obs_scale=(params.obs_scale, (dims.n_x,)),
    )
    for name, (value, shape) in arrays.items():
        if value.shape != shape:
            raise ValueError(f"{path}: parameter {name!r} has shape {value.shape}, want {shape}")
    for name, p in named.items():
        p.value = tensors[name].value
    return params

