"""Trainer: objectives, matching, dataset rules, gate labeling and fitting."""

import json
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

from catl import autodiff as ad
from catl import train
from catl.autodiff import Tensor
from catl.evaluate import EvalReport, evaluate, scored_rollouts
from catl.formulas import horizon
from catl.monitor import outer_rho, outer_rho_batch, outer_sat
from catl.policy import RolloutResult, create_policy, gate, rollout
from catl.scenario import toy_benchmark, triple_toy
from catl.train import (
    Dataset,
    DatasetEntry,
    DivergenceError,
    GateDataset,
    GateSample,
    TrainConfig,
    aggregate_dataset,
    build_gate_dataset,
    control_cost,
    effective_gamma,
    gamma_bound,
    gate_cross_entropy,
    identical_groups,
    imitation_loss,
    match_identical_agents,
    robustness_objective,
    success_rate,
    train_gate,
    train_policy,
)

from generators import TEAM_CAPS, random_outer, random_states
from oracles import best_permutation

TOY_SC, TOY_PHI = toy_benchmark()
TRIPLE_SC, TRIPLE_PHI = triple_toy()


def toy_params(seed=0):
    return create_policy(np.random.default_rng(seed), TOY_SC, n_c=6, hidden=16)


# toy paths whose classical robustness is exactly 0. OBS_CORNER touches the
# Obs corner (2.5, 2.0) on its way to the goal: robustness -0.0, and it
# violates "never in Obs". GOAL_EDGE ends on the Goal corner (4.5, 4.5),
# clear of Obs: robustness 0.0, and it satisfies, since a state on a
# region's edge is in the region.
OBS_CORNER = np.array([(1, 1), (1.8, 1.2), (2.5, 1.5), (2.5, 2.0), (3.5, 1.9), (4.2, 2.8),
                       (4.8, 3.7), (5, 4.6), (5, 5), (5, 5), (5, 5)], dtype=float)
GOAL_EDGE = np.array([(1, 1), (2, 1), (3, 1), (4, 1), (4.5, 1.5), (4.5, 2.5), (4.5, 3.5),
                      (4.5, 4.0), (4.5, 4.5), (4.5, 4.5), (4.5, 4.5)], dtype=float)


def fixed_rollout(states):
    """A stand-in for ``rollout`` that returns the states (B, J, T, 2)."""
    def fake(params, x0, length, gate_mode="full", member_caps=None, **kw):
        batch, agents = states.shape[:2]
        return RolloutResult(
            states=Tensor(states), controls=Tensor(np.diff(states, axis=-2)),
            thoughts=np.zeros((batch, agents, length, 0)),
            comm_mask=np.ones((batch, agents, length)),
            agent_ids=list(range(1, agents + 1)), member_caps=member_caps,
        )
    return fake


class TestObjective:
    def test_gamma_bound_closed_form(self):
        # H * sum_j ||u_max_j||^2, with the 1.1 safety factor
        expected = 1.1 * 6 * (2 * 1.0 + 2 * 1.0 + 2 * 1.2 ** 2)
        assert gamma_bound(TRIPLE_SC) == pytest.approx(expected)

    def test_gamma_zero_is_pure_mean_robustness(self):
        params = toy_params()
        cfg = TrainConfig(seed=0)
        x0 = TOY_SC.sample_initial_batch(np.random.default_rng(1), 4)
        obj, _, eta = robustness_objective(params, x0, TOY_PHI, TOY_SC, cfg, "full", 0.0)
        assert obj.item() == pytest.approx(float(eta.value.mean()))

    def test_zero_controls_cost_free(self):
        params = toy_params()
        for p in params.named().values():
            p.value = np.zeros_like(p.value)
        cfg = TrainConfig(seed=0)
        x0 = TOY_SC.sample_initial_batch(np.random.default_rng(2), 3)
        gamma = effective_gamma(cfg, TOY_SC)
        obj, res, eta = robustness_objective(params, x0, TOY_PHI, TOY_SC, cfg, "full", gamma)
        assert np.all(control_cost(res).value == 0.0)
        assert obj.item() == pytest.approx(float(eta.value.mean()))

    def test_sign_property_with_bound_gamma(self):
        # for single rollouts, sign(objective term) == sign(eta)
        cfg = TrainConfig(seed=0)
        gamma = effective_gamma(cfg, TOY_SC)
        rng = np.random.default_rng(3)
        signs_checked = 0
        for seed in range(12):
            params = toy_params(seed)
            x0 = TOY_SC.sample_initial_batch(rng, 1)
            obj, _, eta = robustness_objective(
                params, x0, TOY_PHI, TOY_SC, cfg, "full", gamma
            )
            e = float(eta.value[0])
            if abs(e) < 1e-9:
                continue
            signs_checked += 1
            assert np.sign(obj.item()) == np.sign(e)
        assert signs_checked >= 10


class TestMatching:
    def test_identity_for_identical_trajectories(self):
        rng = np.random.default_rng(4)
        states = rng.normal(size=(3, 5, 2))
        groups = [[0, 1], [2]]
        perm = match_identical_agents(states, states.copy(), groups)
        assert np.array_equal(perm, [0, 1, 2])

    def test_swap_detected(self):
        rng = np.random.default_rng(5)
        states = rng.normal(size=(2, 5, 2))
        swapped = states[::-1].copy()
        perm = match_identical_agents(states, swapped, [[0, 1]])
        assert np.array_equal(perm, [1, 0])

    def test_matches_exhaustive_search_on_group_of_four(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            roll = rng.normal(size=(4, 6, 2))
            data = rng.normal(size=(4, 6, 2))
            perm = match_identical_agents(roll, data, [[0, 1, 2, 3]])
            cost = np.array([
                [((roll[a] - data[b]) ** 2).sum() for b in range(4)] for a in range(4)
            ])
            best, best_val = best_permutation(cost)
            got_val = sum(cost[i, perm[i]] for i in range(4))
            assert got_val == pytest.approx(best_val)

    def test_groups_respect_capability_sets(self):
        groups = identical_groups(TRIPLE_SC)
        # three distinct capability sets -> three singleton groups
        assert sorted(len(g) for g in groups) == [1, 1, 1]

    def test_mismatched_rosters_rejected(self):
        with pytest.raises(ValueError):
            match_identical_agents(np.zeros((2, 3, 2)), np.zeros((3, 3, 2)), [[0, 1]])


class TestImitation:
    def test_replaying_dataset_gives_zero_loss(self):
        params = toy_params(7)
        rng = np.random.default_rng(7)
        x0 = TOY_SC.sample_initial_batch(rng, 3)
        with ad.no_grad():
            res = rollout(params, x0, TOY_SC.horizon, "full",
                          member_caps=TOY_SC.member_caps())
        entries = [
            DatasetEntry(x0[i], res.states_numpy()[i], "rollout", 0) for i in range(3)
        ]
        loss = imitation_loss(params, entries, TOY_SC, "full")
        assert loss.item() == pytest.approx(0.0, abs=1e-18)

    def test_gradient_matches_finite_differences(self):
        from oracles import finite_difference

        params = toy_params(8)
        rng = np.random.default_rng(8)
        x0 = TOY_SC.sample_initial_batch(rng, 2)
        targets = np.stack([TOY_SC.sample_initial_batch(rng, 1)[0] for _ in range(2)])
        entries = [
            DatasetEntry(x0[i], np.tile(targets[i][:, None, :], (1, 11, 1)), "rollout", 0)
            for i in range(2)
        ]
        leaf = params.out_net.w2
        base = leaf.value.copy()

        loss = imitation_loss(params, entries, TOY_SC, "full")
        loss.backward()
        grad = leaf.grad.copy()

        def value(w):
            leaf.value = w
            with ad.no_grad():
                return imitation_loss(params, entries, TOY_SC, "full").item()

        fd = finite_difference(value, base.copy())
        leaf.value = base
        scale = max(np.abs(fd).max(), np.abs(grad).max(), 1e-8)
        assert np.abs(fd - grad).max() / scale < 1e-4


    def test_a_stage_b_step_graph_has_no_constant_leaf(self):
        # the objective plus imitation, as a stage-B step builds it: every
        # node without parents that backward reaches is a policy parameter
        params = toy_params(9)
        cfg = TrainConfig(seed=0)
        rng = np.random.default_rng(9)
        x0 = TOY_SC.sample_initial_batch(rng, 3)
        with ad.no_grad():
            states = rollout(params, x0, TOY_SC.horizon).states_numpy()
        entries = [DatasetEntry(x0[i], states[i], "rollout", 0) for i in range(2)]
        objective, _, _ = robustness_objective(params, x0, TOY_PHI, TOY_SC, cfg, "full",
                                               effective_gamma(cfg, TOY_SC))
        imit = imitation_loss(params, entries, TOY_SC, "full")
        loss = -(objective * (1.0 - cfg.beta) - imit * cfg.beta)
        loss.backward()
        leaves = [node for node in ad._toposort(loss) if not node._parents]
        parameters = {id(p) for p in params.policy_named().values()}
        assert leaves and all(id(node) in parameters for node in leaves)


class TestDataset:
    def test_violating_insert_rejected(self):
        length = TRIPLE_SC.horizon + 1
        from catl.trajectories import IndividualTrajectory, TeamMember, TeamTrajectory

        far = np.tile([0.2, 5.8], (length, 1))
        team = TeamTrajectory([
            TeamMember(a.agent_id, IndividualTrajectory(far.copy()), a.capabilities)
            for a in TRIPLE_SC.agents
        ])
        ds = Dataset()
        with pytest.raises(ValueError):
            ds.add(team, TRIPLE_PHI, "rollout", 0)
        assert len(ds) == 0

    def test_insert_stores_the_team_states(self):
        from catl.trajectories import IndividualTrajectory, TeamMember, TeamTrajectory

        # goes around Obs to the goal, so it satisfies the toy spec
        path = np.array([(1, 1), (2, 1), (3, 1), (4, 1.5), (4.5, 2.5), (5, 3.5), (5, 4.5),
                         (5, 5), (5, 5), (5, 5), (5, 5)], dtype=float)
        team = TeamTrajectory([TeamMember(1, IndividualTrajectory(path), {"Robot"})])
        ds = Dataset()
        ds.add(team, TOY_PHI, "repaired", 2)
        (entry,) = ds.entries
        assert np.array_equal(entry.states, path[None])
        assert np.array_equal(entry.initial, path[None, 0])
        assert (entry.provenance, entry.round_index) == ("repaired", 2)

    @pytest.mark.parametrize("doc, why", [
        ([{"states": [], "provenance": "rollout", "round": 0}], r"entries\[0\] lacks \['initial'\]"),
        (["entry"], r"entries\[0\] lacks \['initial', 'states', 'provenance', 'round'\]"),
        ({"entries": []}, "want a JSON list of dataset entries"),
    ], ids=["missing_key", "not_an_object", "not_a_list"])
    def test_load_names_the_file_and_the_entry(self, doc, why, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"^{path}: {why}"):
            Dataset.load(path)

    def test_aggregation_insert_paths(self, tmp_path):
        cfg = TrainConfig(seed=0, n_rollouts=6, repair_iterations=120, repair_restarts=2)
        rng = np.random.default_rng(9)
        # a policy trained enough to satisfy sometimes would be ideal; the
        # zero policy never satisfies the reach task, so every entry must
        # come from repair and still pass the monitor on insertion
        params = create_policy(np.random.default_rng(1), TRIPLE_SC, n_c=6, hidden=16)
        ds = Dataset()
        stats = aggregate_dataset(params, TRIPLE_SC, TRIPLE_PHI, cfg, ds, rng, 1)
        assert stats["satisfying"] + stats["repaired"] + stats["failed"] == 6
        assert len(ds) == stats["satisfying"] + stats["repaired"]
        for e in ds.entries:
            assert e.provenance in ("rollout", "repaired")
        ds.save(tmp_path / "d.json")
        loaded = Dataset.load(tmp_path / "d.json")
        assert len(loaded) == len(ds)
        assert np.array_equal(loaded.entries[0].states, ds.entries[0].states)

    def test_rollout_tied_on_obstacle_edge_goes_to_repair(self, monkeypatch):
        tied = fixed_rollout(OBS_CORNER[None, None])
        team = tied(None, None, TOY_SC.horizon, member_caps=TOY_SC.member_caps()).to_teams()[0]
        assert outer_rho(team, TOY_PHI, 0) == 0.0 and not outer_sat(team, TOY_PHI, 0)
        monkeypatch.setattr("catl.evaluate.rollout", tied)
        cfg = TrainConfig(n_rollouts=1, repair_iterations=40, repair_restarts=1)
        ds = Dataset()
        stats = aggregate_dataset(toy_params(), TOY_SC, TOY_PHI, cfg, ds,
                                  np.random.default_rng(0), 1)
        assert stats["satisfying"] == 0
        assert stats["repaired"] + stats["failed"] == 1
        assert len(ds) == stats["repaired"]

    def test_split_is_deterministic(self):
        ds = Dataset()
        for i in range(10):
            ds.entries.append(DatasetEntry(np.zeros((1, 2)), np.zeros((1, 2, 2)),
                                           "rollout", i))
        a = ds.split(0.2)
        b = ds.split(0.2)
        assert a == b
        assert len(a[1]) == 2
        # validation is the head of the insertion order, training the tail
        assert [e.round_index for e in a[1]] == [0, 1]
        assert [e.round_index for e in a[0]] == list(range(2, 10))


class TestGate:
    def test_zero_logit_loss_is_log_two(self):
        params = toy_params(10)
        for p in params.gate_named().values():
            p.value = np.zeros_like(p.value)
        thoughts = np.random.default_rng(10).normal(size=(40, 6))
        labels = np.random.default_rng(11).integers(0, 2, size=40)
        loss = gate_cross_entropy(params, thoughts, labels)
        assert loss.item() == pytest.approx(np.log(2.0))

    def test_separable_thoughts_learned(self):
        params = toy_params(11)
        rng = np.random.default_rng(12)
        n = 200
        labels = rng.integers(0, 2, size=n)
        thoughts = rng.normal(size=(n, 6)) * 0.1
        thoughts[:, 0] = labels * 2.0 - 1.0  # linearly separable by first coord
        data = GateDataset(
            [GateSample(thoughts[i], int(labels[i]), 0, 0, 0.0) for i in range(n)]
        )
        cfg = TrainConfig(gate_steps=400, gate_lr=0.02)
        report = train_gate(params, data, cfg, np.random.default_rng(13))
        assert report.heldout_accuracy >= 0.99
        assert not report.degenerate
        # the rollout's learned gate opens the channel where label 1 says so
        assert np.mean(gate(thoughts, params, "learned") == (labels == 1)) >= 0.99

    def test_uninformative_thoughts_bounded_by_label_entropy(self):
        params = toy_params(12)
        n = 64
        thoughts = np.zeros((n, 6))  # identical thoughts: nothing to learn
        labels = np.array([0, 1] * (n // 2))
        data = GateDataset(
            [GateSample(thoughts[i], int(labels[i]), 0, 0, 0.0) for i in range(n)]
        )
        cfg = TrainConfig(gate_steps=300, gate_lr=0.02)
        train_gate(params, data, cfg, np.random.default_rng(14))
        loss = gate_cross_entropy(params, thoughts, labels)
        assert loss.item() >= np.log(2.0) - 1e-9

    def test_single_class_flagged_degenerate(self):
        params = toy_params(13)
        data = GateDataset(
            [GateSample(np.zeros(6), 1, 0, 0, 0.0) for _ in range(10)]
        )
        cfg = TrainConfig(gate_steps=10)
        report = train_gate(params, data, cfg, np.random.default_rng(15))
        assert report.degenerate

    def test_build_gate_dataset_labels_match_drops(self):
        cfg = TrainConfig(seed=0, gate_states=2)
        full = toy_params(14)
        nocomm = toy_params(15)
        data = build_gate_dataset(full, nocomm, TOY_SC, TOY_PHI, cfg,
                                  np.random.default_rng(16))
        assert len(data) == 2 * TOY_SC.n_agents * TOY_SC.horizon
        sweep = data.threshold_sweep["positive_fraction"]
        assert sweep["0.01"] >= sweep["0.05"] >= sweep["0.1"]
        for s in data.samples:
            assert s.label in (0, 1)
            assert s.thought.shape == (full.dims.n_c,)

    def test_build_gate_dataset_matches_one_row_cut_rollouts(self):
        cfg = TrainConfig(seed=0, gate_states=1, gate_eps_rel=0.01, gate_eps_floor=0.01)
        full = create_policy(np.random.default_rng(30), TRIPLE_SC, n_c=6, hidden=16)
        nocomm = create_policy(np.random.default_rng(31), TRIPLE_SC, n_c=6, hidden=16)
        for p in nocomm.named().values():
            p.value = p.value * 3.0  # a fallback far enough off to flip some labels
        data = build_gate_dataset(full, nocomm, TRIPLE_SC, TRIPLE_PHI, cfg,
                                  np.random.default_rng(22))

        # reference: one one-row rollout per (agent, time) cut, j outer, t inner
        x0 = TRIPLE_SC.sample_initial(np.random.default_rng(22))
        caps = TRIPLE_SC.member_caps()
        n_agents, length = TRIPLE_SC.n_agents, TRIPLE_SC.horizon

        def smooth_eta(cut=None):
            with ad.no_grad():
                res = rollout(full, x0, length, member_caps=caps, cut=cut,
                              nocomm_params=nocomm)
            states = res.states_numpy()
            members = [(states[:, j], c) for j, c in enumerate(caps)]
            return float(outer_rho_batch(members, TRIPLE_PHI, cfg.tau)[0]), res

        eta_full, base = smooth_eta()
        eps = cfg.gate_eps_rel * max(abs(eta_full), cfg.gate_eps_floor)
        want = []
        for j in range(n_agents):
            for t in range(length):
                cut = np.zeros((1, n_agents, length), dtype=bool)
                cut[0, j, t] = True
                want.append((j, t, eta_full - smooth_eta(cut)[0]))

        assert [(s.agent_index, s.time) for s in data.samples] == [w[:2] for w in want]
        assert [s.label for s in data.samples] == [int(w[2] > eps) for w in want]
        assert 0 < sum(s.label for s in data.samples) < len(want)
        drops = np.array([s.drop for s in data.samples])
        assert np.abs(drops - np.array([w[2] for w in want])).max() <= 1e-12
        for s in data.samples:
            assert np.allclose(s.thought, base.thoughts[0, s.agent_index, s.time],
                               rtol=0, atol=1e-12)


class TestTrainPolicy:
    def test_seeded_runs_bitwise_identical(self):
        cfg = TrainConfig(seed=3, m_samples=4, eval_every=5, val_states=8)

        def run():
            res = train_policy(
                TOY_SC, TOY_PHI, cfg, gate_mode="full", steps=10, stage="a",
                rng=np.random.default_rng([3, 1]),
            )
            return {k: v.value.copy() for k, v in res.params.named().items()}

        a, b = run(), run()
        for k in a:
            assert np.array_equal(a[k], b[k]), k

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("gamma, poison, step, why", [
        # saturated controls keep step 1 finite; its gradient is NaN
        (None, True, 2, "non-finite states"),
        # 1/gamma overflows, so the cost term is inf or NaN from the start
        (1e-320, False, 1, "objective is"),
    ])
    def test_diverging_training_stops(self, gamma, poison, step, why):
        params = toy_params(18)
        if poison:
            params.encoder.w_x.value[0, 0] = np.inf
        cfg = TrainConfig(seed=3, m_samples=4, eval_every=5, val_states=8, gamma=gamma)
        with pytest.raises(DivergenceError,
                           match=rf"stage 'a' diverged at step {step}: .*{why}"):
            train_policy(TOY_SC, TOY_PHI, cfg, gate_mode="full", steps=2, stage="a",
                         rng=np.random.default_rng(18), init_params=params)

    def test_zero_policy_has_zero_success_on_toy(self):
        params = toy_params(16)
        for p in params.named().values():
            p.value = np.zeros_like(p.value)
        x0 = TOY_SC.sample_initial_batch(np.random.default_rng(17), 50)
        assert success_rate(params, TOY_SC, TOY_PHI, x0, "full") == 0.0

    def test_config_json_roundtrip(self, tmp_path):
        cfg = TrainConfig(seed=9, lr=0.005, beta=0.25)
        cfg.to_json(tmp_path / "cfg.json")
        loaded = TrainConfig.from_json(tmp_path / "cfg.json")
        assert loaded == cfg

    def test_config_json_takes_ints_for_floats_and_null_gamma(self, tmp_path):
        (tmp_path / "cfg.json").write_text('{"lr": 1, "gamma": null, "steps_a": 3}')
        cfg = TrainConfig.from_json(tmp_path / "cfg.json")
        assert (cfg.lr, cfg.gamma, cfg.steps_a) == (1, None, 3)


class TestPipeline:
    CFG = dict(steps_a=2, steps_b=1, rounds_b=2, n_rollouts=1, steps_c=1, steps_e=1,
               gate_states=1, gate_steps=2, eval_every=1, val_states=2, m_samples=2,
               n_c=4, hidden=8, repair_iterations=20, repair_restarts=1)

    def run(self, out, stages):
        result = train.run_pipeline(TOY_SC, TOY_PHI, TrainConfig(**self.CFG), out, stages)
        doc = json.loads((out / "training_log.json").read_text())
        return result, doc, [e["stage"] for e in doc["events"]]

    def test_record_of_every_stage(self, tmp_path):
        result, doc, stages = self.run(tmp_path, "abcde")
        assert stages == ["a", "a", "b-aggregate", "b1", "b-aggregate", "b2", "c", "d", "e"]
        assert [e["round"] for e in doc["events"] if e["stage"] == "b-aggregate"] == [1, 2]
        assert set(doc["stage_success"]) == {"a", "b1", "b2", "b", "c", "e"}
        assert doc["stage_success"]["b"] == doc["stage_success"]["b2"]
        assert result.stage_success == doc["stage_success"]
        assert doc["dataset_size"] == len(result.dataset)
        assert result.log[-1]["stage"] == "done"

    def test_stage_c_without_dataset_runs_to_the_end(self, tmp_path):
        result, doc, stages = self.run(tmp_path, "acde")
        assert stages == ["a", "a", "c", "d", "e"]
        assert set(doc["stage_success"]) == {"a", "c", "e"}
        assert doc["dataset_size"] == 0
        assert not (tmp_path / "dataset.json").exists()
        assert (tmp_path / "final.json").exists()


class TestSuccess:
    """``scored_rollouts`` decides success for ``evaluate``, ``success_rate``
    and ``aggregate_dataset``: the sign of the classical robustness, and the
    boolean monitor where it is exactly 0."""

    @pytest.mark.parametrize("path, successes", [(OBS_CORNER, 0), (GOAL_EDGE, 3)],
                             ids=["obstacle_corner", "goal_edge"])
    def test_tied_toy_path_scores_by_the_boolean_verdict(self, path, successes, monkeypatch):
        tied = fixed_rollout(np.repeat(path[None, None], 3, axis=0))
        team = tied(None, None, TOY_SC.horizon, member_caps=TOY_SC.member_caps()).to_teams()[0]
        assert outer_rho(team, TOY_PHI, 0) == 0.0
        assert outer_sat(team, TOY_PHI, 0) == (successes > 0)
        monkeypatch.setattr("catl.evaluate.rollout", tied)
        report = evaluate(toy_params(), TOY_SC, TOY_PHI, 3)
        assert (report.successes, report.rho_max) == (successes, 0.0)
        x0 = TOY_SC.sample_initial_batch(np.random.default_rng(0), 3)
        assert success_rate(toy_params(), TOY_SC, TOY_PHI, x0, "full") == successes / 3

    def test_success_is_the_boolean_verdict_on_grid_snapped_batches(self, monkeypatch):
        # states on a 0.5 grid put predicates exactly on region edges, so
        # many rows tie at robustness 0, each way
        rng = np.random.default_rng(71)
        ties = {True: 0, False: 0}
        for _ in range(400):  # 6,400 rows
            phi = random_outer(rng, depth=int(rng.integers(0, 3)),
                               budget=int(rng.integers(0, 4)))
            length = horizon(phi) + 2
            states = np.round(2 * np.stack([[random_states(rng, length) for _ in TEAM_CAPS]
                                            for _ in range(16)])) / 2  # (B, J, T, 2)
            monkeypatch.setattr("catl.evaluate.rollout", fixed_rollout(states))
            scenario = SimpleNamespace(horizon=length - 1, member_caps=lambda: TEAM_CAPS)
            res, eta, success = scored_rollouts(None, scenario, phi, states[:, :, 0], "full")
            for team, rho, ok in zip(res.to_teams(), eta, success):
                want = outer_sat(team, phi, 0)
                assert ok == want
                if rho == 0:
                    ties[want] += 1
        assert ties[True] >= 100 and ties[False] >= 20, ties


class TestEvalReport:
    def test_to_json_holds_every_field_but_the_timing(self, tmp_path):
        report = evaluate(create_policy(np.random.default_rng(3), TOY_SC), TOY_SC, TOY_PHI,
                          8, seed=0)
        doc = report.to_json()
        names = {f.name for f in fields(EvalReport)}
        assert set(doc) == names - {"wall_clock_per_rollout"}
        assert all(doc[name] == getattr(report, name) for name in doc)
        report.save(tmp_path / "report.json")
        assert json.loads((tmp_path / "report.json").read_text()) == doc

    @pytest.mark.parametrize("policy_scenario, edits, name", [
        (TOY_SC, {}, "agent ids"),
        (TRIPLE_SC, {1: {"capabilities": {"blue"}}, 3: {"capabilities": {"red"}}},
         "capability matrix"),
        (TRIPLE_SC, {3: {"u_max": (1.5, 1.2)}}, "u_max"),
    ], ids=["agent_ids", "capabilities", "u_max"])
    def test_a_policy_for_another_roster_is_rejected(self, policy_scenario, edits, name):
        # a policy runs on its own roster's bounds and capabilities, so
        # evaluating it on another roster is refused before any rollout
        agents = [replace(a, **edits.get(a.agent_id, {})) for a in TRIPLE_SC.agents]
        scenario = replace(TRIPLE_SC, agents=agents)
        params = create_policy(np.random.default_rng(0), policy_scenario)
        with pytest.raises(ValueError, match=f"^policy roster differs from the scenario in {name}"):
            evaluate(params, scenario, TRIPLE_PHI, 4)
