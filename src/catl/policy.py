"""Shared-parameter team policy with a gated communication channel.

Per agent and time step: a recurrent encoder turns the observed state into a
fixed-size thought vector (hidden state initialized from the capability
network), a gate decides channel participation, a bidirectional scan over the
participants' thoughts (ascending agent id) produces integrated thoughts, and
the output network maps [thought, integrated thought] to a control squashed
into the agent's box bounds. One parameter set serves any number of agents.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .nn import Dense, RecurrentCell, bidirectional_scan, load_checkpoint, save_checkpoint
from .scenario import Scenario
from .trajectories import IndividualTrajectory, TeamMember, TeamTrajectory

GATE_MODES = ("full", "none", "learned")
COMM_CLASS = 0  # first gate logit = "communicate"


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

    def normalize_obs(self, x: Tensor) -> Tensor:
        return (x - Tensor(self.obs_center)) * Tensor(1.0 / self.obs_scale)

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


# -- single-agent operations ---------------------------------------------------


@dataclass
class AgentRuntime:
    """Recurrent state of one agent (hidden state seeded by the capability net)."""

    h: Tensor
    c: Tensor
    cap_vec: np.ndarray
    last_thought: Tensor | None = None


def init_runtime(params: PolicyParams, cap_vec: np.ndarray) -> AgentRuntime:
    h0 = params.cap_net(Tensor(cap_vec.reshape(1, -1)))
    c0 = Tensor(np.zeros((1, params.dims.n_c)))
    return AgentRuntime(h=h0, c=c0, cap_vec=cap_vec)


def encode(params: PolicyParams, runtime: AgentRuntime, x: np.ndarray | Tensor) -> Tensor:
    """One recurrent step on the observed state; returns the thought."""
    if runtime.h is None:
        raise ValueError("runtime not initialized")
    xt = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=float).reshape(1, -1))
    runtime.h, runtime.c = params.encoder.step(params.normalize_obs(xt), runtime.h, runtime.c)
    runtime.last_thought = runtime.h
    return runtime.h


def gate(h: Tensor | np.ndarray, params: PolicyParams, mode: str) -> np.ndarray:
    """Participation decision per row of ``h``; hard argmax in learned mode."""
    values = h.value if isinstance(h, Tensor) else np.asarray(h)
    if values.ndim == 1:
        values = values.reshape(1, -1)
    if mode == "full":
        return np.ones(len(values), dtype=bool)
    if mode == "none":
        return np.zeros(len(values), dtype=bool)
    if mode == "learned":
        with ad.no_grad():
            logits = params.gate_net(Tensor(values)).value
        return np.argmax(logits, axis=-1) == COMM_CLASS
    raise ValueError(f"unknown gate mode {mode!r} (have: {GATE_MODES})")


def gate_logits(params: PolicyParams, h: Tensor) -> Tensor:
    return params.gate_net(h)


def channel(
    params: PolicyParams,
    thoughts: list[Tensor],
    masks: list[np.ndarray] | None = None,
) -> list[Tensor]:
    """Integrated thoughts for a sequence ordered by agent id.

    ``masks[i]`` is a constant (B, 1) 0/1 array; masked-out agents do not
    contribute to or update the scan and receive the zero vector.
    """
    outs = bidirectional_scan(params.chan_fwd, params.chan_bwd, thoughts, masks)
    if masks is not None:
        outs = [Tensor(m) * o for m, o in zip(masks, outs)]
    return outs


def act(params: PolicyParams, h: Tensor, h_tilde: Tensor, u_max) -> Tensor:
    """Control from [thought, integrated thought], squashed into the box."""
    raw = params.out_net(ad.concat([h, h_tilde], axis=-1))
    return ad.tanh(raw) * Tensor(np.asarray(u_max, dtype=np.float64))


# -- closed-loop rollout ----------------------------------------------------------


@dataclass
class RolloutResult:
    """Differentiable rollout trace: tensors stay on the tape."""

    states: list[Tensor]  # H+1 tensors of shape (B*J, n_x)
    controls: list[Tensor]  # H tensors of shape (B*J, n_u)
    thoughts: list[Tensor]  # H tensors of shape (B*J, n_c)
    comm_mask: np.ndarray  # (B, J, H) in {0,1}
    batch: int
    n_agents: int
    agent_ids: list[int]
    member_caps: list[frozenset[str]] | None = None

    @property
    def length(self) -> int:
        return len(self.states) - 1

    def agent_states(self, j: int) -> Tensor:
        """(B, H+1, n_x) tensor of agent j's states (j is a roster index)."""
        b, n = self.batch, self.n_agents
        per_t = [ad.reshape(x, (b, n, -1))[:, j, :] for x in self.states]
        return ad.stack(per_t, axis=1)

    def member_tensors(self, member_caps) -> list[tuple[Tensor, frozenset]]:
        return [(self.agent_states(j), caps) for j, caps in enumerate(member_caps)]

    def states_numpy(self) -> np.ndarray:
        """(B, J, H+1, n_x)"""
        arr = np.stack([x.value for x in self.states], axis=1)  # (B*J, H+1, n_x)
        b, n = self.batch, self.n_agents
        return arr.reshape(b, n, arr.shape[1], arr.shape[2])

    def controls_numpy(self) -> np.ndarray:
        arr = np.stack([u.value for u in self.controls], axis=1)
        b, n = self.batch, self.n_agents
        return arr.reshape(b, n, arr.shape[1], arr.shape[2])

    def comm_counts(self) -> np.ndarray:
        """Total channel accesses per batch element."""
        return self.comm_mask.reshape(self.batch, -1).sum(axis=1)

    def to_teams(self) -> list[TeamTrajectory]:
        assert self.member_caps is not None
        states = self.states_numpy()
        controls = self.controls_numpy()
        teams = []
        for i in range(self.batch):
            members = [
                TeamMember(self.agent_ids[j],
                           IndividualTrajectory(states[i, j], controls[i, j]),
                           self.member_caps[j])
                for j in range(self.n_agents)
            ]
            teams.append(TeamTrajectory(members))
        return teams


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

    x0 is (J, n_x) or batched (B, J, n_x). ``cut`` is an optional boolean
    (B, J, length) array: where ``cut[b, j, t]`` is set, the channel
    connection of roster index j in row b is masked off at time t and that
    agent's control at t comes from ``nocomm_params`` (its own encoder fed
    the row's observed states, values only); everything else follows
    ``params``.
    """
    if gate_mode not in GATE_MODES:
        raise ValueError(f"unknown gate mode {gate_mode!r}")
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.ndim == 2:
        x0 = x0[None]
    batch, n_agents, n_x = x0.shape
    if n_agents != params.n_agents:
        raise ValueError(f"x0 has {n_agents} agents, policy roster has {params.n_agents}")
    bj = batch * n_agents

    caps_tiled = np.tile(params.cap_matrix, (batch, 1))
    umax_tiled = np.tile(params.u_max, (batch, 1))
    x = Tensor(x0.reshape(bj, n_x))
    h = params.cap_net(Tensor(caps_tiled))
    c = Tensor(np.zeros((bj, params.dims.n_c)))
    if cut is not None:
        if nocomm_params is None:
            raise ValueError("cut needs nocomm_params")
        cut = np.asarray(cut, dtype=bool)
        if cut.shape != (batch, n_agents, length):
            raise ValueError(f"cut has shape {cut.shape}, want {(batch, n_agents, length)}")
        cut_rows = cut.reshape(bj, length)  # flat row b*J + j, as x
        h_nc = nocomm_params.cap_net(Tensor(caps_tiled))
        c_nc = Tensor(np.zeros((bj, nocomm_params.dims.n_c)))
        no_talk = Tensor(np.zeros((bj, nocomm_params.dims.n_c)))

    states = [x]
    controls: list[Tensor] = []
    thoughts: list[Tensor] = []
    comm_mask = np.zeros((batch, n_agents, length))

    for t in range(length):
        h, c = params.encoder.step(params.normalize_obs(x), h, c)
        thoughts.append(h)

        mask = gate(h, params, gate_mode).astype(np.float64).reshape(batch, n_agents)
        if cut is not None:
            mask[cut[:, :, t]] = 0.0
        comm_mask[:, :, t] = mask

        hr = ad.reshape(h, (batch, n_agents, params.dims.n_c))
        agent_thoughts = [hr[:, j, :] for j in range(n_agents)]
        masks = [mask[:, j : j + 1] for j in range(n_agents)]
        integrated = channel(params, agent_thoughts, masks)
        h_tilde = ad.reshape(ad.stack(integrated, axis=1), (bj, params.dims.n_c))

        u = act(params, h, h_tilde, umax_tiled)

        if cut is not None:
            h_nc, c_nc = nocomm_params.encoder.step(
                nocomm_params.normalize_obs(Tensor(x.value)), h_nc, c_nc
            )
            # substitution is values-only: cutting is a labeling tool, never
            # a training path
            u_nc = act(nocomm_params, h_nc, no_talk, umax_tiled).value
            on = cut_rows[:, t : t + 1]
            u = u * Tensor(~on) + Tensor(np.where(on, u_nc, 0.0))

        controls.append(u)
        x = x + u
        states.append(x)

    return RolloutResult(
        states=states,
        controls=controls,
        thoughts=thoughts,
        comm_mask=comm_mask,
        batch=batch,
        n_agents=n_agents,
        agent_ids=list(params.agent_ids),
        member_caps=member_caps,
    )


# -- persistence -------------------------------------------------------------------


def save_policy(path: str | Path, params: PolicyParams) -> None:
    dims = params.dims
    meta = {
        "n_x": dims.n_x,
        "n_u": dims.n_u,
        "n_c": dims.n_c,
        "n_cap": dims.n_cap,
        "hidden": dims.hidden,
        "u_max": params.u_max.tolist(),
        "cap_matrix": params.cap_matrix.tolist(),
        "agent_ids": params.agent_ids,
        "obs_center": params.obs_center.tolist(),
        "obs_scale": params.obs_scale.tolist(),
    }
    save_checkpoint(path, params.named(), meta)


def load_policy(path: str | Path) -> PolicyParams:
    tensors, meta = load_checkpoint(path)
    dims = PolicyDims(
        n_x=meta["n_x"], n_u=meta["n_u"], n_c=meta["n_c"],
        n_cap=meta["n_cap"], hidden=meta["hidden"],
    )
    params = create_policy_raw(
        np.random.default_rng(0), dims,
        np.array(meta["u_max"]), np.array(meta["cap_matrix"]), list(meta["agent_ids"]),
        obs_center=np.array(meta["obs_center"]),
        obs_scale=np.array(meta["obs_scale"]),
    )
    for name, p in params.named().items():
        p.value = tensors[name].value
    return params


def export_comm_mask_csv(mask: np.ndarray, agent_ids: list[int], path: str | Path) -> None:
    """CSV ``t,agent,comm`` for one rollout's (J, H) mask."""
    lines = ["t,agent,comm"]
    n_agents, length = mask.shape
    for t in range(length):
        for j in range(n_agents):
            lines.append(f"{t},{agent_ids[j]},{int(mask[j, t])}")
    Path(path).write_text("\n".join(lines) + "\n")
