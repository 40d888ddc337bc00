"""Training pipeline for the team policy.

Stage A trains the policy networks under full communication on the
robustness-with-cost objective. Stage B alternates dataset aggregation
(rollouts, repairing violators) with retraining on the mixed
robustness+imitation objective. Stage C trains a no-communication baseline
on the same mixed objective. Stage D labels thoughts by ablating single
(agent, time) channel connections and trains the gate classifier on them.
Stage E retrains the policy with the learned gate active and frozen.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import dnf
from .autodiff import Tensor
from .evaluate import scored_rollouts
from .formulas import OuterFormula
from .monitor import (
    NonFiniteError,
    RobustnessConfig,
    outer_rho_batch,
    outer_rho_tensor,
    outer_sat,
)
from .nn import Adam
from .policy import COMM_CLASS, PolicyParams, RolloutResult, create_policy, rollout, save_policy
from .repair import RepairBudget, repair
from .scenario import Scenario
from .trajectories import TeamTrajectory


# JSON value types per TrainConfig field annotation; from_json rejects bools first
_JSON_TYPES = {"int": (int,), "float": (int, float), "float | None": (int, float, type(None))}


@dataclass
class TrainConfig:
    # objective
    m_samples: int = 16
    n_rollouts: int = 64
    beta: float = 0.5
    gamma: float | None = None  # None: closed-form bound with 1.1 safety factor
    tau: float = 10.0
    tau_start: float = 1.0  # temperature anneals from here up to tau
    tau_anneal_every: int = 100  # doubling period, in optimizer steps
    r_top: float = 1e6
    # optimization
    lr: float = 0.02
    steps_a: int = 600
    steps_b: int = 250
    rounds_b: int = 3
    convergence_pp: float = 1.0
    steps_c: int = 350
    steps_e: int = 250
    gate_lr: float = 0.01
    gate_steps: int = 400
    eval_every: int = 25
    val_states: int = 64
    val_fraction: float = 0.2
    # gate labeling
    gate_states: int = 10
    gate_eps_rel: float = 0.05
    gate_eps_floor: float = 0.1
    # model
    n_c: int = 8
    hidden: int = 32
    # repair budget during aggregation
    repair_iterations: int = 250
    repair_restarts: int = 3
    seed: int = 0

    def __post_init__(self):
        for key in ("m_samples", "n_rollouts", "tau_anneal_every", "eval_every", "val_states",
                    "gate_states", "n_c", "hidden", "repair_iterations", "repair_restarts",
                    "steps_a", "steps_b", "steps_c", "steps_e"):
            if getattr(self, key) < 1:
                raise ValueError(f"config key {key!r} is {getattr(self, key)}, want at least 1")
        for key in ("tau", "tau_start"):
            if not getattr(self, key) > 0:
                raise ValueError(f"config key {key!r} is {getattr(self, key)}, want above 0")

    def smooth_cfg(self, step: int | None = None) -> RobustnessConfig:
        """Training temperature: anneals from tau_start, doubling every
        tau_anneal_every steps, capped at tau. step=None gives the final tau."""
        if step is None:
            tau = self.tau
        else:
            tau = min(self.tau_start * 2.0 ** (step // self.tau_anneal_every), self.tau)
        return RobustnessConfig("smooth", tau=tau, top=self.r_top)

    def repair_budget(self) -> RepairBudget:
        return RepairBudget(
            synth_iterations=self.repair_iterations,
            synth_restarts=self.repair_restarts,
            seed=self.seed,
        )

    @staticmethod
    def from_json(path: str | Path) -> "TrainConfig":
        """Read a ``to_json`` file; ValueError unless it is an object of config
        fields, each holding a value of its field's type and range."""
        doc = json.loads(Path(path).read_text())
        if not isinstance(doc, dict):
            raise ValueError(f"{path}: config is {type(doc).__name__}, want a JSON object")
        types = {f.name: f.type for f in fields(TrainConfig)}
        unknown = sorted(set(doc) - set(types))
        if unknown:
            raise ValueError(f"{path}: unknown config keys {unknown}")
        for key, value in doc.items():
            if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[types[key]]):
                raise ValueError(
                    f"{path}: config key {key!r} is {type(value).__name__}, want {types[key]}"
                )
        try:
            return TrainConfig(**doc)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    def to_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(asdict(self), indent=1, sort_keys=True) + "\n")


def gamma_bound(scenario: Scenario) -> float:
    """Closed-form supremum of the squared-control cost over the whole team,
    times a 1.1 safety factor (keeps the objective's sign strict)."""
    u = scenario.u_max_matrix()
    return 1.1 * scenario.horizon * float((u * u).sum())


def effective_gamma(cfg: TrainConfig, scenario: Scenario) -> float:
    return cfg.gamma if cfg.gamma is not None else gamma_bound(scenario)


# -- objectives -----------------------------------------------------------------


def control_cost(res: RolloutResult) -> Tensor:
    """Sum over agents and time of ||u||^2, per batch element: (B,)."""
    return ad.sum_(ad.square(res.controls), axis=(1, 2, 3))


def robustness_objective(
    params: PolicyParams,
    x0_batch: np.ndarray,
    phi: OuterFormula,
    scenario: Scenario,
    cfg: TrainConfig,
    gate_mode: str,
    gamma: float,
    step: int | None = None,
) -> tuple[Tensor, RolloutResult, Tensor]:
    """Mean over the batch of eta - max(eta,0) * cost / gamma.

    The division by gamma (>= the cost supremum) keeps the sign of every
    summand equal to the sign of eta, so cost can never override robustness.
    gamma = 0 disables the cost term entirely (pure mean robustness).
    """
    member_caps = scenario.member_caps()
    res = rollout(params, x0_batch, scenario.horizon, gate_mode, member_caps=member_caps)
    eta = outer_rho_tensor(res.member_tensors(member_caps), phi, cfg.smooth_cfg(step))
    if gamma <= 0:
        return ad.mean(eta), res, eta
    cost = control_cost(res)
    per = eta - ad.relu(eta) * cost * (1.0 / gamma)
    return ad.mean(per), res, eta


# -- dataset --------------------------------------------------------------------


@dataclass
class DatasetEntry:
    initial: np.ndarray  # (J, 2)
    states: np.ndarray  # (J, H+1, 2)
    provenance: str  # "rollout" | "repaired"
    round_index: int


@dataclass
class Dataset:
    entries: list[DatasetEntry] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)

    def add(self, team: TeamTrajectory, phi: OuterFormula, provenance: str,
            round_index: int) -> None:
        """Store the team's member states, stacked (J, H+1, 2) in agent-id order
        (the roster order), with ``initial = states[:, 0]``; ValueError if the
        team violates phi."""
        if not outer_sat(team, phi, 0):
            raise ValueError("refusing to insert a violating trajectory into the dataset")
        states = np.stack([m.trajectory.states for m in team.members])
        self.entries.append(DatasetEntry(states[:, 0], states, provenance, round_index))

    def split(self, val_fraction: float) -> tuple[list[DatasetEntry], list[DatasetEntry]]:
        """(train, validation) entries: validation is the head of the insertion
        order, at least one entry unless the dataset is empty."""
        n_val = max(1, int(len(self.entries) * val_fraction)) if self.entries else 0
        return self.entries[n_val:], self.entries[:n_val]

    def save(self, path: str | Path) -> None:
        doc = [
            {
                "initial": e.initial.tolist(),
                "states": e.states.tolist(),
                "provenance": e.provenance,
                "round": e.round_index,
            }
            for e in self.entries
        ]
        Path(path).write_text(json.dumps(doc) + "\n")

    @staticmethod
    def load(path: str | Path) -> "Dataset":
        doc = json.loads(Path(path).read_text())
        return Dataset(
            [
                DatasetEntry(
                    np.array(e["initial"]), np.array(e["states"]),
                    e["provenance"], e["round"],
                )
                for e in doc
            ]
        )


def aggregate_dataset(
    params: PolicyParams,
    scenario: Scenario,
    phi: OuterFormula,
    cfg: TrainConfig,
    dataset: Dataset,
    rng: np.random.Generator,
    round_index: int,
) -> dict:
    """Roll out with full communication, repair violators, insert every
    satisfying trajectory."""
    x0 = scenario.sample_initial_batch(rng, cfg.n_rollouts)
    with ad.no_grad():
        res = rollout(params, x0, scenario.horizon, "full", member_caps=scenario.member_caps())
    stats = {"rollouts": cfg.n_rollouts, "satisfying": 0, "repaired": 0, "failed": 0}
    budget = cfg.repair_budget()
    form = dnf.to_dnf(phi, scenario.jc_sizes())  # one DNF for every violator
    for i, team in enumerate(res.to_teams()):
        # the boolean monitor decides, as Dataset.add does: a rollout that
        # ties at robustness -0.0 can still violate
        if outer_sat(team, phi, 0):
            stats["satisfying"] += 1
            dataset.add(team, phi, "rollout", round_index)
            continue
        outcome = repair(team, phi, scenario, replace(budget, seed=budget.seed + i), dnf=form)
        if outcome.success:
            stats["repaired"] += 1
            dataset.add(outcome.trajectory, phi, "repaired", round_index)
        else:
            stats["failed"] += 1
    stats["success_rate"] = stats["satisfying"] / cfg.n_rollouts
    return stats


# -- imitation ---------------------------------------------------------------------


def identical_groups(scenario: Scenario) -> list[list[int]]:
    """Roster indices grouped by identical capability sets."""
    groups: dict[frozenset, list[int]] = {}
    for idx, a in enumerate(scenario.agents):
        groups.setdefault(a.capabilities, []).append(idx)
    return [groups[k] for k in sorted(groups, key=lambda s: sorted(s))]


def match_identical_agents(
    roll_states: np.ndarray,
    data_states: np.ndarray,
    groups: list[list[int]],
) -> np.ndarray:
    """Permutation p minimizing sum_t ||roll[j] - data[p[j]]||^2 within groups.

    roll_states/data_states are (J, T, 2); p[j] is the dataset roster index
    imitated by rollout agent j.
    """
    from scipy.optimize import linear_sum_assignment  # imitation alone needs scipy

    n = roll_states.shape[0]
    if data_states.shape[0] != n:
        raise ValueError("mismatched rosters")
    perm = np.arange(n)
    for group in groups:
        if len(group) == 1:
            continue
        cost = np.zeros((len(group), len(group)))
        for a, ja in enumerate(group):
            for b, jb in enumerate(group):
                diff = roll_states[ja] - data_states[jb]
                cost[a, b] = float((diff * diff).sum())
        rows, cols = linear_sum_assignment(cost)
        for r, c in zip(rows, cols):
            perm[group[r]] = group[c]
    return perm


def imitation_loss(
    params: PolicyParams,
    entries: list[DatasetEntry],
    scenario: Scenario,
    gate_mode: str,
) -> Tensor:
    """Mean over entries of the squared distance between the policy's rollout
    from the entry's initial states and the stored trajectory, with identical
    agents matched before comparison."""
    member_caps = scenario.member_caps()
    groups = identical_groups(scenario)
    x0 = np.stack([e.initial for e in entries])
    res = rollout(params, x0, scenario.horizon, gate_mode, member_caps=member_caps)
    roll_np = res.states_numpy()
    targets = np.zeros_like(roll_np)
    for i, entry in enumerate(entries):
        perm = match_identical_agents(roll_np[i], entry.states, groups)
        targets[i] = entry.states[perm]
    per_agent = ad.sum_(ad.square(res.states - Tensor(targets)), axis=(2, 3))  # (B, J)
    return ad.mean(ad.sum_(per_agent, axis=1))


# -- success metric ------------------------------------------------------------------


def success_rate(
    params: PolicyParams,
    scenario: Scenario,
    phi: OuterFormula,
    x0_batch: np.ndarray,
    gate_mode: str,
) -> float:
    """Share of the teams x0_batch that succeed, scored as ``evaluate`` scores them."""
    _, success, _ = scored_rollouts(params, scenario, phi, x0_batch, gate_mode)
    return float(success.mean())


# -- policy training engine ------------------------------------------------------------


class DivergenceError(FloatingPointError):
    """The training objective or the rollout under it became non-finite."""


@dataclass
class StageResult:
    params: PolicyParams
    log: list[dict]
    best_success: float


def train_policy(
    scenario: Scenario,
    phi: OuterFormula,
    cfg: TrainConfig,
    *,
    gate_mode: str,
    steps: int,
    stage: str,
    rng: np.random.Generator,
    dataset: Dataset | None = None,
    init_params: PolicyParams | None = None,
) -> StageResult:
    """Adam ascent on the (optionally imitation-mixed) objective; returns the
    checkpoint with the best validation success rate."""
    params = init_params.copy() if init_params is not None else create_policy(
        rng, scenario, n_c=cfg.n_c, hidden=cfg.hidden
    )
    opt = Adam(params.policy_named(), lr=cfg.lr)
    gamma = effective_gamma(cfg, scenario)

    # validation starts from the held-out entries' initial states, topped up
    # with sampled ones; imitation trains on the rest
    imitate, held_out = dataset.split(cfg.val_fraction) if dataset and cfg.beta > 0 else ([], [])
    val_x0 = [e.initial for e in held_out]
    if cfg.val_states > len(held_out):
        val_x0 += list(scenario.sample_initial_batch(rng, cfg.val_states - len(held_out)))
    val_x0 = np.stack(val_x0)

    log: list[dict] = []
    best_sr = -1.0
    best_params = params.copy()

    for step in range(steps):
        x0 = scenario.sample_initial_batch(rng, cfg.m_samples)
        opt.zero_grad()
        diverged = f"training stage {stage!r} diverged at step {step + 1}"
        try:
            objective, _, eta = robustness_objective(
                params, x0, phi, scenario, cfg, gate_mode, gamma, step=step
            )
        except NonFiniteError as err:  # the rollout left the finite states
            raise DivergenceError(f"{diverged}: {err}") from err
        if imitate:
            picks = rng.choice(len(imitate), size=min(cfg.m_samples, len(imitate)), replace=False)
            imit = imitation_loss(params, [imitate[p] for p in picks], scenario, gate_mode)
            total = objective * (1.0 - cfg.beta) - imit * cfg.beta
        else:
            total = objective
        if not np.isfinite(total.value):
            raise DivergenceError(f"{diverged}: objective is {float(total.value)}")
        (-total).backward()
        opt.step()

        if (step + 1) % cfg.eval_every == 0 or step == steps - 1:
            sr = success_rate(params, scenario, phi, val_x0, gate_mode)
            log.append(
                {
                    "stage": stage,
                    "step": step + 1,
                    "objective": float(total.value),
                    "mean_eta": float(eta.value.mean()),
                    "val_success": sr,
                }
            )
            if sr > best_sr:
                best_sr = sr
                best_params = params.copy()

    return StageResult(params=best_params, log=log, best_success=best_sr)


# -- gate dataset and classifier ----------------------------------------------------------


@dataclass
class GateSample:
    thought: np.ndarray
    label: int
    agent_index: int
    time: int
    drop: float


@dataclass
class GateDataset:
    samples: list[GateSample] = field(default_factory=list)
    threshold_sweep: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.samples)

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        thoughts = np.stack([s.thought for s in self.samples])
        labels = np.array([s.label for s in self.samples], dtype=np.int64)
        return thoughts, labels

    def save(self, path: str | Path) -> None:
        doc = {
            "threshold_sweep": self.threshold_sweep,
            "samples": [{**asdict(s), "thought": s.thought.tolist()} for s in self.samples],
        }
        Path(path).write_text(json.dumps(doc) + "\n")


def build_gate_dataset(
    params_full: PolicyParams,
    params_nocomm: PolicyParams,
    scenario: Scenario,
    phi: OuterFormula,
    cfg: TrainConfig,
    rng: np.random.Generator,
) -> GateDataset:
    """Label each (agent, time) thought by the robustness drop when that one
    channel connection is cut and the agent falls back to the no-comm policy
    for that step. Covers all agents at all time points of each sampled run.

    All cuts of one initial state run as one batched rollout: row 0 is the
    uncut base and row 1 + j*H + t cuts agent j at time t."""
    member_caps = scenario.member_caps()
    smooth = cfg.smooth_cfg()
    data = GateDataset()
    sweep_rels = (0.01, 0.05, 0.1)
    sweep_counts = {rel: 0 for rel in sweep_rels}
    n_agents, length = scenario.n_agents, scenario.horizon
    cut = np.eye(1 + n_agents * length, dtype=bool)[:, 1:].reshape(-1, n_agents, length)

    for _ in range(cfg.gate_states):
        x0 = scenario.sample_initial(rng)
        with ad.no_grad():
            res = rollout(params_full, np.tile(x0, (len(cut), 1, 1)), length, "full",
                          member_caps=member_caps, cut=cut, nocomm_params=params_nocomm)
        states = res.states_numpy()
        members = [(states[:, j], caps) for j, caps in enumerate(member_caps)]
        etas = outer_rho_batch(members, phi, smooth)
        drops = etas[0] - etas[1:]  # cut k = j*H + t, so j outer and t inner
        scale = max(abs(float(etas[0])), cfg.gate_eps_floor)
        labels = drops > cfg.gate_eps_rel * scale
        data.samples += [
            GateSample(res.thoughts[0, j, t].copy(), int(label), j, t, float(drop))
            for (j, t), label, drop in zip(np.ndindex(n_agents, length), labels, drops)
        ]
        for rel in sweep_rels:
            sweep_counts[rel] += int(np.sum(drops > rel * scale))

    data.threshold_sweep = {
        "relative_thresholds": list(sweep_rels),
        "positive_fraction": {str(rel): sweep_counts[rel] / len(data) for rel in sweep_rels},
    }
    return data


def gate_cross_entropy(params: PolicyParams, thoughts: np.ndarray,
                       labels: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy of the gate over (thought, label) pairs.

    Label 1 selects class COMM_CLASS ("communicate"), label 0 the other class
    ("stay silent").
    """
    logits = params.gate_net(Tensor(thoughts))
    onehot = np.eye(2)[np.where(labels == 1, COMM_CLASS, 1 - COMM_CLASS)]
    lse = ad.logsumexp(logits, axis=-1)
    picked = ad.sum_(logits * Tensor(onehot), axis=-1)
    return ad.mean(lse - picked)


@dataclass
class GateReport:
    samples: int
    positives: int
    train_accuracy: float
    heldout_accuracy: float
    final_loss: float
    degenerate: bool


def train_gate(
    params: PolicyParams,
    data: GateDataset,
    cfg: TrainConfig,
    rng: np.random.Generator,
) -> GateReport:
    """Fit the gate classifier in place; reports held-out accuracy."""
    thoughts, labels = data.arrays()
    positives = int(labels.sum())
    degenerate = positives == 0 or positives == len(labels)
    order = rng.permutation(len(labels))
    n_held = max(1, len(labels) // 5)
    held, tr = order[:n_held], order[n_held:]
    if len(tr) == 0:
        tr = held
    opt = Adam(params.gate_named(), lr=cfg.gate_lr)
    loss_val = float("nan")
    for _ in range(cfg.gate_steps):
        opt.zero_grad()
        loss = gate_cross_entropy(params, thoughts[tr], labels[tr])
        loss.backward()
        opt.step()
        loss_val = loss.item()

    def accuracy(idx) -> float:
        with ad.no_grad():
            logits = params.gate_net(Tensor(thoughts[idx])).value
        pred = (np.argmax(logits, axis=-1) == COMM_CLASS).astype(int)
        return float((pred == labels[idx]).mean())

    return GateReport(
        samples=len(labels),
        positives=positives,
        train_accuracy=accuracy(tr),
        heldout_accuracy=accuracy(held),
        final_loss=loss_val,
        degenerate=degenerate,
    )


# -- the full pipeline ---------------------------------------------------------------------


@dataclass
class PipelineResult:
    final: PolicyParams
    full_comm: PolicyParams
    nocomm: PolicyParams
    dataset: Dataset
    gate_data: GateDataset | None
    gate_report: GateReport | None
    log: list[dict]
    stage_success: dict


def run_pipeline(
    scenario: Scenario,
    phi: OuterFormula,
    cfg: TrainConfig,
    out_dir: str | Path,
    stages: str = "abcde",
) -> PipelineResult:
    """Run the requested training stages in order, writing their checkpoints
    and data to out_dir; see the module docstring. Stage A always runs, and
    letters of ``stages`` outside "abcde" raise ValueError before any stage.

    The returned ``log`` ends with a ``done`` event carrying ``wall_clock_s``.
    That timing is in the returned log only: ``training_log.json`` is a
    deterministic artifact, so seeded runs write identical files."""
    unknown = sorted(set(stages) - set("abcde"))
    if unknown:
        raise ValueError(f"unknown stages {''.join(unknown)!r}; stages are letters of 'abcde'")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    log: list[dict] = []
    stage_success: dict = {}
    t_start = time.perf_counter()

    def stage(name: str, gate_mode: str, steps: int, stream: tuple, **kwargs) -> PolicyParams:
        """Train one policy stage on its own rng stream and record its log
        and best validation success."""
        result = train_policy(scenario, phi, cfg, gate_mode=gate_mode, steps=steps, stage=name,
                              rng=np.random.default_rng([cfg.seed, *stream]), **kwargs)
        log.extend(result.log)
        stage_success[name] = result.best_success
        return result.params

    params_full = stage("a", "full", cfg.steps_a, (1,))
    save_policy(out / "stage_a.json", params_full)

    dataset = Dataset()
    if "b" in stages:
        prev_rate = float("-inf")  # rollout success rate of the previous round
        for round_index in range(1, cfg.rounds_b + 1):
            agg = aggregate_dataset(params_full, scenario, phi, cfg, dataset,
                                    np.random.default_rng([cfg.seed, 2, round_index]), round_index)
            log.append({"stage": "b-aggregate", "round": round_index, **agg})
            params_full = stage(f"b{round_index}", "full", cfg.steps_b, (3, round_index),
                                dataset=dataset, init_params=params_full)
            stage_success["b"] = stage_success[f"b{round_index}"]
            # aggregation rounds stop once the rollout success rate plateaus
            if agg["success_rate"] - prev_rate < cfg.convergence_pp / 100.0:
                break
            prev_rate = agg["success_rate"]
        save_policy(out / "stage_b.json", params_full)
        dataset.save(out / "dataset.json")

    params_nocomm = params_full
    if "c" in stages:
        params_nocomm = stage("c", "none", cfg.steps_c, (4,), dataset=dataset)
        save_policy(out / "stage_c_nocomm.json", params_nocomm)

    gate_data = None
    gate_report = None
    if "d" in stages:
        gate_data = build_gate_dataset(
            params_full, params_nocomm, scenario, phi, cfg,
            np.random.default_rng([cfg.seed, 5]),
        )
        gate_report = train_gate(
            params_full, gate_data, cfg, np.random.default_rng([cfg.seed, 6])
        )
        log.append(
            {
                "stage": "d",
                "gate_samples": gate_report.samples,
                "gate_positives": gate_report.positives,
                "gate_heldout_accuracy": gate_report.heldout_accuracy,
                "degenerate": gate_report.degenerate,
                "threshold_sweep": gate_data.threshold_sweep,
            }
        )
        gate_data.save(out / "gate_dataset.json")

    params_final = params_full
    if "e" in stages:
        params_final = stage("e", "learned", cfg.steps_e, (7,), dataset=dataset,
                             init_params=params_full)

    save_policy(out / "final.json", params_final)
    log_doc = {
        "config": asdict(cfg),
        "stage_success": stage_success,
        "dataset_size": len(dataset),
        "events": log,
    }
    (out / "training_log.json").write_text(
        json.dumps(log_doc, indent=1, sort_keys=True) + "\n"
    )
    log.append({"stage": "done", "wall_clock_s": time.perf_counter() - t_start})

    return PipelineResult(
        final=params_final,
        full_comm=params_full,
        nocomm=params_nocomm,
        dataset=dataset,
        gate_data=gate_data,
        gate_report=gate_report,
        log=log,
        stage_success=stage_success,
    )
