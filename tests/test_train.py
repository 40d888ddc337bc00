"""Trainer: objectives, matching, dataset rules, gate labeling and fitting."""

import numpy as np
import pytest

from catl import autodiff as ad
from catl import train
from catl.autodiff import Tensor
from catl.monitor import RobustnessConfig, outer_rho, outer_rho_batch, outer_sat
from catl.policy import RolloutResult, create_policy, rollout
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

from oracles import best_permutation

TOY_SC, TOY_PHI = toy_benchmark()
TRIPLE_SC, TRIPLE_PHI = triple_toy()


def toy_params(seed=0):
    return create_policy(np.random.default_rng(seed), TOY_SC, n_c=6, hidden=16)


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
            ds.add(DatasetEntry(far[0], np.tile(far, (3, 1, 1)), "rollout", 0),
                   team, TRIPLE_PHI)

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
        # touches the Obs corner (2.5, 2.0) on its way to the goal: classical
        # robustness is -0.0, yet the rollout violates "never in Obs"
        path = np.array([(1, 1), (1.8, 1.2), (2.5, 1.5), (2.5, 2.0), (3.5, 1.9), (4.2, 2.8),
                         (4.8, 3.7), (5, 4.6), (5, 5), (5, 5), (5, 5)], dtype=float)
        assert len(path) == TOY_SC.horizon + 1

        def tied_rollout(params, x0, length, gate_mode="full", member_caps=None, **kw):
            return RolloutResult(
                states=[Tensor(x[None]) for x in path],
                controls=[Tensor((b - a)[None]) for a, b in zip(path[:-1], path[1:])],
                thoughts=[], comm_mask=np.ones((1, 1, length)), batch=1, n_agents=1,
                agent_ids=[1], member_caps=member_caps,
            )

        team = tied_rollout(None, None, TOY_SC.horizon,
                            member_caps=TOY_SC.member_caps()).to_teams()[0]
        assert outer_rho(team, TOY_PHI, 0) == 0.0 and not outer_sat(team, TOY_PHI, 0)
        monkeypatch.setattr(train, "rollout", tied_rollout)
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
                                           "rollout", 0))
        a = ds.split(0.2)
        b = ds.split(0.2)
        assert a == b
        assert len(a[1]) == 2


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
            return float(outer_rho_batch(members, TRIPLE_PHI, cfg.smooth_cfg())[0]), res

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
            assert np.allclose(s.thought, base.thoughts[s.time].value[s.agent_index],
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
