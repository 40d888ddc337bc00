"""The benchmark's workloads: inputs made from a seed, one timed operation,
and the checks on that operation's outputs.

Every workload is a closed loop with a single caller: ``unit(k)`` calls one
public catl function and returns only after it has finished, and the next
unit starts after that. ``unit(k)`` is a pure function of (seed, k), so the
traced run can replay the units of the untraced run and compare outputs.

A workload whose work per call depends strongly on its inputs (a repair
takes 1.5-4 s on ``reduced`` depending on the violator) runs a fixed pool of
``pool`` inputs, one per unit; the seed only sets their order, and a run
holds whole cycles of the pool, so every run does the same work.

Names are looked up on the catl modules at call time (``train.run_pipeline``,
not a local alias), so the wrappers the tracer installs see every call.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from catl import autodiff as ad
from catl import dnf, evaluate, monitor, policy, scenario, train
from catl.trajectories import IndividualTrajectory, TeamMember, TeamTrajectory

# matches evaluate's internal chunk size, so one call is one batched rollout
EVAL_TRIALS = 250
# evaluate calls per rollout-case-study unit: about twice the time of one gate state
EVALS_PER_UNIT = 60
# a control may exceed its bound by rounding in x(t+1) - x(t) only
U_TOL = 1e-9


@dataclass
class UnitResult:
    seconds: float  # wall time of the public call alone
    items: int  # work items the call completed (rollouts, violators, pipelines)
    digest: str  # hash of every deterministic output of the call
    failures: list[str] = field(default_factory=list)  # failed output checks
    failed_items: int = 0  # items the program gave up on (repair verdict "fail")


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def _team(states: np.ndarray, sc) -> TeamTrajectory:
    """(J, T, 2) states as a team in roster order."""
    return TeamTrajectory([
        TeamMember(a.agent_id, IndividualTrajectory(states[j]), a.capabilities)
        for j, a in enumerate(sc.agents)
    ])


def check_dataset_entries(entries, x0: np.ndarray, sc, phi) -> list[str]:
    """Every entry satisfies phi, starts at the x0 it was rolled out from,
    and moves each agent by at most its control bound per step."""
    problems = []
    u_max = sc.u_max_matrix()[:, None, :]
    for entry in entries:
        row = next((i for i in range(len(x0)) if np.array_equal(x0[i], entry.initial)), None)
        if row is None or not np.array_equal(entry.states[:, 0], entry.initial):
            problems.append(f"{entry.provenance} entry does not start at its own x0")
        if np.any(np.abs(np.diff(entry.states, axis=1)) > u_max + U_TOL):
            problems.append(f"{entry.provenance} entry exceeds u_max")
        if not monitor.outer_sat(_team(entry.states, sc), phi, 0):
            problems.append(f"{entry.provenance} entry violates the spec")
    return problems


def check_repair_outcome(team: TeamTrajectory, outcome, sc, phi) -> list[str]:
    """A successful repair satisfies phi, keeps every agent's x0, respects
    u_max and follows x(t+1) = x(t) + u(t) with its own controls."""
    if not outcome.success:
        return []
    problems = []
    if not monitor.outer_sat(outcome.trajectory, phi, 0):
        problems.append("repaired trajectory violates the spec")
    bounds = {a.agent_id: np.asarray(a.u_max) for a in sc.agents}
    for member in outcome.trajectory.members:
        states = member.trajectory.states
        u = outcome.controls[member.agent_id]
        if not np.array_equal(states[0], team.member(member.agent_id).trajectory.states[0]):
            problems.append(f"agent {member.agent_id} moved its x0")
        if np.any(np.abs(u) > bounds[member.agent_id] + U_TOL):
            problems.append(f"agent {member.agent_id} exceeds u_max")
        if not np.allclose(states[1:], states[:-1] + u, rtol=0, atol=1e-9):
            problems.append(f"agent {member.agent_id} breaks x(t+1) = x(t) + u(t)")
    return problems


def params_problems(params) -> list[str]:
    bad = [name for name, p in params.named().items() if not np.all(np.isfinite(p.value))]
    return [f"non-finite parameter {name}" for name in bad]


class Workload:
    """Set-up state plus the timed unit. Subclasses define ``scenario_name``
    and ``unit``; ``setup`` builds everything a unit needs."""

    name = ""
    scenario_name = ""
    pool = 1  # units per cycle; see the module docstring

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        self.order = np.random.default_rng([seed, 0]).permutation(self.pool)

    def member(self, k: int) -> int:
        """The pool member unit ``k`` runs."""
        return int(self.order[k % self.pool])

    def setup_spec(self) -> None:
        """Build the scenario (which parses and binds the spec) and
        normalize the spec to DNF."""
        self.sc, self.phi, _ = scenario.builtin(self.scenario_name)
        self.dnf = dnf.to_dnf(self.phi, self.sc.jc_sizes())

    def setup(self) -> None:
        """Everything before the first unit: the spec, then the policies."""
        self.setup_spec()

    def unit(self, k: int) -> UnitResult:
        raise NotImplementedError

    def final_checks(self, results: list[UnitResult]) -> list[str]:
        """Checks that need the whole run; default none."""
        return []

    def items_per_s(self, results: list[UnitResult]) -> float:
        """The end-to-end throughput: items over the seconds of the timed
        calls, totalled over the run."""
        return sum(r.items for r in results) / sum(r.seconds for r in results)

    def extra_layer_metrics(self, results: list[UnitResult]) -> dict[str, float]:
        """Per-layer values the workload measures itself, outside the tracer,
        from its untraced units."""
        return {}

    def _roundtrip(self, params, name: str):
        """Save and reload a policy, as ``catl train`` / ``catl eval`` do."""
        path = self.work_dir / f"{name}.json"
        policy.save_policy(path, params)
        return policy.load_policy(path)


class TrainReduced(Workload):
    """All five stages of ``run_pipeline`` on the reduced builtin."""

    name = "train-reduced"
    scenario_name = "reduced"
    config = dict(
        steps_a=10, steps_b=5, rounds_b=1, n_rollouts=1, steps_c=5, steps_e=5,
        gate_states=1, gate_steps=20, eval_every=5, val_states=16,
        repair_iterations=100, repair_restarts=2,
    )
    rho_trials = 64
    # pipeline seeds 0 and 1: stage B repairs one violator, and its repair
    # time depends on which violator the pipeline seed draws
    pool = 2

    def setup(self) -> None:
        super().setup()
        self.cfg = train.TrainConfig(**self.config)
        self.rho: list[float] = []

    def unit(self, k: int) -> UnitResult:
        cfg = replace(self.cfg, seed=self.member(k))
        out = Path(tempfile.mkdtemp(prefix="train-", dir=self.work_dir))
        try:
            t0 = time.perf_counter()
            result = train.run_pipeline(self.sc, self.phi, cfg, out_dir=out)
            seconds = time.perf_counter() - t0
            files = sorted(out.iterdir())
            digest = _digest(*(f.name.encode() + f.read_bytes() for f in files))
            log_text = (out / "training_log.json").read_text()
        finally:
            shutil.rmtree(out)

        failures = params_problems(result.final)
        if "wall_clock_s" in log_text:
            failures.append("timing entered training_log.json")
        # stage B's single round draws its initial states from this stream
        x0 = self.sc.sample_initial_batch(np.random.default_rng([cfg.seed, 2, 1]),
                                          cfg.n_rollouts)
        failures += check_dataset_entries(result.dataset.entries, x0, self.sc, self.phi)
        expected = cfg.gate_states * self.sc.n_agents * self.sc.horizon
        if len(result.gate_data) != expected:
            failures.append(f"gate dataset has {len(result.gate_data)} samples, want {expected}")
        # quality of the trained policy, outside the timed region
        report = evaluate.evaluate(result.final, self.sc, self.phi, self.rho_trials,
                                   seed=0, gate_mode="learned")
        self.rho.append(report.rho_mean)
        return UnitResult(seconds, 1, digest, failures)

    def extra_layer_metrics(self, results: list[UnitResult]) -> dict[str, float]:
        # self.rho[:len(results)] are the untraced units; later ones are replays
        return {"train.rho_mean": float(np.mean(self.rho[:len(results)]))} if self.rho else {}


class RepairReduced(Workload):
    """``aggregate_dataset`` on the reduced builtin with untrained policies:
    every rollout violates and is repaired one after another, as in stage B,
    at ``TrainConfig``'s repair budget. The pool holds two fixed policies of
    three rollouts each, six violators in all."""

    name = "repair-reduced"
    scenario_name = "reduced"
    pool = 2
    rollouts = 3

    def setup(self) -> None:
        super().setup()
        self.cfg = train.TrainConfig(n_rollouts=self.rollouts)
        self.policies = [
            policy.create_policy(np.random.default_rng([11, p]), self.sc,
                                 n_c=self.cfg.n_c, hidden=self.cfg.hidden)
            for p in range(self.pool)
        ]

    def unit(self, k: int) -> UnitResult:
        p = self.member(k)
        cfg = replace(self.cfg, seed=p)  # repair seeds p + i, as stage B's seed + i
        dataset = train.Dataset()
        t0 = time.perf_counter()
        stats = train.aggregate_dataset(self.policies[p], self.sc, self.phi, cfg, dataset,
                                        np.random.default_rng([2, p]), 1)
        seconds = time.perf_counter() - t0
        # aggregate_dataset draws its initial states first, from this same stream
        x0 = self.sc.sample_initial_batch(np.random.default_rng([2, p]), cfg.n_rollouts)
        failures = check_dataset_entries(dataset.entries, x0, self.sc, self.phi)
        if stats["satisfying"] + stats["repaired"] + stats["failed"] != stats["rollouts"]:
            failures.append(f"aggregate stats do not add up: {stats}")
        digest = _digest(json.dumps(stats, sort_keys=True).encode(),
                         *(e.states.tobytes() + e.provenance.encode() for e in dataset.entries))
        return UnitResult(seconds, stats["rollouts"], digest, failures, stats["failed"])


class RolloutCaseStudy(Workload):
    """No-grad rollouts on the 6-agent case study, in a fixed mix: per unit,
    ``EVALS_PER_UNIT`` calls of ``evaluate(trials=250, gate_mode="full")``
    (the ``catl eval`` default; 250 is evaluate's chunk size, so each call is
    one batched rollout and one classical batch monitor call), then
    ``build_gate_dataset`` on one initial state (J·H = 150 one-row ablation
    rollouts).

    ``items_per_s`` is the rate of the fastest evaluate call of the run:
    every call does the same amount of work, so their times differ only by
    how much the host slows them, and the host runs slow for minutes at a
    time, longer than a run. The gate calls (3-5 s each, a handful per run)
    are too long and too few to filter that way; they feed the output checks
    and the per-layer metrics, and gate labeling's end-to-end cost shows in
    ``train-reduced``."""

    name = "rollout-case-study"
    scenario_name = "case-study"

    def setup(self) -> None:
        super().setup()
        self.cfg = train.TrainConfig(gate_states=1)
        self.params = self._roundtrip(
            policy.create_policy(np.random.default_rng([self.seed, 21]), self.sc), "full")
        self.nocomm = self._roundtrip(
            policy.create_policy(np.random.default_rng([self.seed, 22]), self.sc), "nocomm")
        self.eval_s: dict[int, list[float]] = {}  # untraced call times, by unit
        self.gate_s: dict[int, float] = {}
        self.disagree = 0

    def unit(self, k: int) -> UnitResult:
        failures = []
        reports, eval_s = [], []
        for j in range(EVALS_PER_UNIT):
            seed = self.seed * 1000 + EVALS_PER_UNIT * k + j
            t0 = time.perf_counter()
            report = evaluate.evaluate(self.params, self.sc, self.phi, EVAL_TRIALS, seed=seed,
                                       gate_mode="full")
            eval_s.append(time.perf_counter() - t0)
            reports.append(json.dumps(report.to_json(), sort_keys=True))
            if k == 0 and j == 0:
                failures += self._check_first_chunk(report, seed)
        if any("wall_clock" in doc for doc in reports):
            failures.append("timing entered EvalReport.to_json()")

        t0 = time.perf_counter()
        data = train.build_gate_dataset(self.params, self.nocomm, self.sc, self.phi, self.cfg,
                                        np.random.default_rng([self.seed, 5, k]))
        gate_s = time.perf_counter() - t0
        failures += self._check_gate(data)
        thoughts, labels = data.arrays()
        drops = np.array([s.drop for s in data.samples])
        digest = _digest(*(doc.encode() for doc in reports), thoughts.tobytes(),
                         labels.tobytes(), drops.tobytes(),
                         json.dumps(data.threshold_sweep, sort_keys=True).encode())
        self.eval_s.setdefault(k, eval_s)
        self.gate_s.setdefault(k, gate_s)
        return UnitResult(sum(eval_s) + gate_s, EVAL_TRIALS * len(reports) + len(data),
                          digest, failures)

    def _check_first_chunk(self, report, seed: int) -> list[str]:
        """Recompute evaluate's first chunk independently: batch robustness
        against the scalar monitor per team, and the success count."""
        rng = np.random.default_rng([seed, 97])  # evaluate's documented stream
        x0 = self.sc.sample_initial_batch(rng, EVAL_TRIALS)
        with ad.no_grad():
            res = policy.rollout(self.params, x0, self.sc.horizon, "full",
                                 member_caps=self.sc.member_caps())
        states = res.states_numpy()
        members = [(states[:, j], caps) for j, caps in enumerate(self.sc.member_caps())]
        eta = monitor.outer_rho_batch(members, self.phi)
        teams = res.to_teams()
        scalar = np.array([monitor.outer_rho(t, self.phi, 0) for t in teams])
        sat = np.array([monitor.outer_sat(t, self.phi, 0) for t in teams])
        self.disagree = int(np.sum((eta >= 0) != sat))
        problems = []
        if not np.allclose(eta, scalar, rtol=0, atol=1e-9):
            problems.append("batch robustness differs from scalar outer_rho")
        if report.successes != int(np.sum(eta >= 0)):
            problems.append("EvalReport.successes differs from the count of eta >= 0")
        return problems

    def _check_gate(self, data) -> list[str]:
        expected = self.cfg.gate_states * self.sc.n_agents * self.sc.horizon
        problems = []
        if len(data) != expected:
            problems.append(f"gate dataset has {len(data)} samples, want {expected}")
        thoughts, labels = data.arrays()
        drops = np.array([s.drop for s in data.samples])
        if not (np.all(np.isfinite(thoughts)) and np.all(np.isfinite(drops))):
            problems.append("non-finite thought or drop in the gate dataset")
        if not set(labels.tolist()) <= {0, 1}:
            problems.append("gate label outside {0, 1}")
        return problems

    def final_checks(self, results: list[UnitResult]) -> list[str]:
        first = evaluate.evaluate(self.params, self.sc, self.phi, EVAL_TRIALS,
                                  seed=self.seed * 1000, gate_mode="full")
        again = evaluate.evaluate(self.params, self.sc, self.phi, EVAL_TRIALS,
                                  seed=self.seed * 1000, gate_mode="full")
        if first.to_json() != again.to_json():
            return ["re-running evaluate with the same seed changed to_json()"]
        return []

    def _untraced_eval_s(self, results: list[UnitResult]) -> list[float]:
        return [t for k in range(len(results)) for t in self.eval_s[k]]

    def items_per_s(self, results: list[UnitResult]) -> float:
        return EVAL_TRIALS / min(self._untraced_eval_s(results))

    def extra_layer_metrics(self, results: list[UnitResult]) -> dict[str, float]:
        eval_s = self._untraced_eval_s(results)
        gate_s = [self.gate_s[k] for k in range(len(results))]
        expected = self.cfg.gate_states * self.sc.n_agents * self.sc.horizon
        return {
            "monitor.sat_rho_disagree": float(self.disagree),
            "evaluate.call_s_p50": float(np.percentile(eval_s, 50)),
            "evaluate.call_s_p90": float(np.percentile(eval_s, 90)),
            "evaluate.rollouts_per_s": EVAL_TRIALS * len(eval_s) / sum(eval_s),
            "gate.ablations_per_s": expected * len(gate_s) / sum(gate_s),
        }


WORKLOADS = {w.name: w for w in (TrainReduced, RepairReduced, RolloutCaseStudy)}
