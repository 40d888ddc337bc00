"""Policy model: gating, channel, control bounds, rollouts, gradients."""

import base64
import json
import re

import numpy as np
import pytest

from catl import autodiff as ad
from catl.autodiff import Tensor
from catl.formulas import IEventually, INot, IAlways, InRegion, OAnd, Task
from catl.geometry import Region
from catl.monitor import outer_rho_tensor
from catl.nn import Dense, RecurrentCell, bidirectional_scan
from catl.policy import (
    PolicyDims,
    PolicyParams,
    act,
    create_policy,
    create_policy_raw,
    gate,
    load_policy,
    rollout,
    save_policy,
)
from catl.scenario import case_study, toy_benchmark, triple_toy
from catl.trajectories import NonFiniteError
from catl.train import control_cost

from oracles import finite_difference

FOUR_ZEROS = base64.b64encode(bytes(32)).decode("ascii")  # four little-endian f64 zeros
ONE_NAN = base64.b64encode(np.array([0.0, np.nan, 0.0, 0.0], "<f8").tobytes()).decode("ascii")
TWO_INF = base64.b64encode(np.array([np.inf, 0.0, -np.inf, 0.0], "<f8").tobytes()).decode("ascii")


def small_policy(seed=0, n_agents=2, n_c=4, hidden=8, u_max=1.0) -> PolicyParams:
    rng = np.random.default_rng(seed)
    dims = PolicyDims(n_cap=n_agents, n_c=n_c, hidden=hidden)
    return create_policy_raw(
        rng,
        dims,
        u_max=np.full((n_agents, 2), float(u_max)),
        cap_matrix=np.eye(n_agents),
        agent_ids=list(range(1, n_agents + 1)),
    )


def zero_policy(**kw) -> PolicyParams:
    params = small_policy(**kw)
    for p in params.named().values():
        p.value = np.zeros_like(p.value)
    return params


class TestGate:
    def test_full_always_communicates(self):
        params = small_policy()
        h = np.random.default_rng(1).normal(size=(5, 4))
        assert gate(h, params, "full").all()

    def test_none_never_communicates(self):
        params = small_policy()
        h = np.random.default_rng(2).normal(size=(5, 4))
        assert not gate(h, params, "none").any()

    def test_learned_decision_shift_invariant(self):
        # adding one constant to both logits cannot change the argmax
        params = small_policy(seed=3)
        h = np.random.default_rng(3).normal(size=(20, 4))
        base = gate(h, params, "learned")
        params.gate_net.b2.value = params.gate_net.b2.value + 5.0
        assert np.array_equal(gate(h, params, "learned"), base)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            gate(np.zeros((1, 4)), small_policy(), "sometimes")


class TestChannel:
    def test_single_participant_sees_only_itself(self):
        params = small_policy(seed=4)
        rng = np.random.default_rng(4)
        h0 = rng.normal(size=(1, 1, 4))
        other_a = rng.normal(size=(1, 1, 4))
        other_b = rng.normal(size=(1, 1, 4))
        mask = np.array([[1.0, 0.0]])
        cells = params.chan_fwd, params.chan_bwd
        out_a = bidirectional_scan(*cells, Tensor(np.concatenate([h0, other_a], axis=1)), mask)
        out_b = bidirectional_scan(*cells, Tensor(np.concatenate([h0, other_b], axis=1)), mask)
        assert np.allclose(out_a.value[:, 0], out_b.value[:, 0])
        # non-participant receives the zero vector
        assert np.all(out_a.value[:, 1] == 0.0)

    def test_deterministic_given_order(self):
        params = small_policy(seed=5)
        rng = np.random.default_rng(5)
        hs = Tensor(rng.normal(size=(1, 3, 4)))
        mask = np.ones((1, 3))
        cells = params.chan_fwd, params.chan_bwd
        a = bidirectional_scan(*cells, hs, mask).value.copy()
        b = bidirectional_scan(*cells, hs, mask).value.copy()
        assert np.array_equal(a, b)


class TestAct:
    def test_control_strictly_inside_box(self):
        params = small_policy(seed=6)
        rng = np.random.default_rng(6)
        h = Tensor(rng.normal(size=(50, 4)) * 10)
        ht = Tensor(rng.normal(size=(50, 4)) * 10)
        u = act(params, h, ht, np.array([1.0, 1.2]))
        assert np.all(np.abs(u.value[:, 0]) < 1.0)
        assert np.all(np.abs(u.value[:, 1]) < 1.2)

    def test_zero_parameters_zero_control(self):
        params = zero_policy()
        u = act(params, Tensor(np.ones((3, 4))), Tensor(np.ones((3, 4))), np.ones(2))
        assert np.all(u.value == 0.0)


class TestEncode:
    def test_identical_histories_identical_thoughts(self):
        params = small_policy(seed=7, n_agents=2)
        params.cap_matrix = np.array([[1.0, 0.0], [1.0, 0.0]])  # same capabilities
        x0 = np.tile(np.random.default_rng(7).normal(size=(1, 2)), (2, 1))
        thoughts = rollout(params, x0, 4, "none").thoughts
        assert np.array_equal(thoughts[:, 0], thoughts[:, 1])

    def test_case_study_thought_dimension(self):
        scenario, _ = case_study()
        params = create_policy(np.random.default_rng(0), scenario, n_c=8)
        res = rollout(params, np.zeros((6, 2)), scenario.horizon)
        assert res.thoughts.shape == (1, 6, scenario.horizon, 8)


class TestRollout:
    def test_zero_parameters_hold_position(self):
        params = zero_policy()
        x0 = np.array([[1.0, 2.0], [3.0, 4.0]])
        res = rollout(params, x0, length=5)
        states = res.states_numpy()
        for t in range(6):
            assert np.array_equal(states[0, :, t], x0)

    def test_gate_mode_masks(self):
        params = small_policy(seed=8)
        x0 = np.zeros((2, 2))
        assert rollout(params, x0, 4, "full").comm_mask.all()
        assert not rollout(params, x0, 4, "none").comm_mask.any()

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError, match="length must be >= 1"):
            rollout(small_policy(), np.zeros((2, 2)), 0)

    @pytest.mark.parametrize("x0, error, message", [
        (np.array([[np.nan, 0.0]]), NonFiniteError, "x0 holds 1 non-finite"),
        (np.full((3, 1, 2), np.inf), NonFiniteError, "x0 holds 6 non-finite"),
        (np.zeros((1, 3)), ValueError, r"x0 has shape \(1, 1, 3\), want \(1, 2\) or \(B, 1, 2\)"),
        (np.zeros((2, 2)), ValueError, r"x0 has shape \(1, 2, 2\), want \(1, 2\)"),
        (np.zeros((1, 1, 1, 2)), ValueError, r"x0 has shape \(1, 1, 1, 2\), want \(1, 2\)"),
    ], ids=["nan", "inf-batch", "wide-state", "extra-agent", "four-axes"])
    def test_bad_initial_states_rejected_at_the_boundary(self, x0, error, message):
        with pytest.raises(error, match=message):
            rollout(small_policy(n_agents=1), x0, 3)

    def test_dynamics_consistency_and_bounds(self):
        params = small_policy(seed=9, u_max=1.2)
        x0 = np.random.default_rng(9).normal(size=(3, 2, 2))
        res = rollout(params, x0, 6)
        assert res.states.shape == (3, 2, 7, 2)
        assert res.controls.shape == (3, 2, 6, 2)
        assert res.thoughts.shape == (3, 2, 6, 4)
        states = res.states_numpy()
        controls = res.controls.value
        assert np.allclose(states[:, :, 1:], states[:, :, :-1] + controls, atol=0)
        assert np.all(np.abs(controls) < 1.2)
        teams = res.to_teams() if res.member_caps else None
        assert teams is None  # caps not provided here
        assert np.array_equal(control_cost(res).value, (controls ** 2).sum(axis=(1, 2, 3)))
        with_caps = rollout(params, x0, 6, member_caps=CAPS2)
        for b, team in enumerate(with_caps.to_teams()):
            for j, member in enumerate(team.members):
                assert np.array_equal(res.states.value[b, j], member.trajectory.states)
                assert np.array_equal(controls[b, j], member.trajectory.controls)

    def test_rollout_deterministic(self):
        params = small_policy(seed=10)
        x0 = np.random.default_rng(10).normal(size=(2, 2))
        a = rollout(params, x0, 5).states_numpy()
        b = rollout(params, x0, 5).states_numpy()
        assert np.array_equal(a, b)

    def test_parameter_count_roster_invariant(self):
        toy_sc, _ = toy_benchmark()
        triple_sc, _ = triple_toy()
        p1 = create_policy(np.random.default_rng(0), toy_sc, n_c=6)
        # give both the same capability vocabulary size for a fair comparison
        six_sc, _ = case_study()
        p6 = create_policy(np.random.default_rng(0), six_sc, n_c=6)
        p3 = create_policy(np.random.default_rng(0), triple_sc, n_c=6)
        assert p6.trainable_count() == sum(
            v.value.size for v in p6.named().values()
        )
        # same dims except n_cap -> counts differ only through n_cap, not J
        assert p3.dims.n_cap == 2 and p6.dims.n_cap == 3
        p6b = create_policy_raw(
            np.random.default_rng(1), p6.dims,
            np.ones((12, 2)), np.tile(p6.cap_matrix, (2, 1)), list(range(12)),
        )
        assert p6b.trainable_count() == p6.trainable_count()

    def test_ablation_diverges_only_after_cut(self):
        params = small_policy(seed=11)
        nocomm = small_policy(seed=12)
        x0 = np.random.default_rng(11).normal(size=(2, 2))
        base = rollout(params, x0, 6).states_numpy()
        cut = np.zeros((1, 2, 6), dtype=bool)
        cut[0, 0, 3] = True
        abl = rollout(params, x0, 6, cut=cut, nocomm_params=nocomm).states_numpy()
        assert np.array_equal(base[:, :, : 3 + 1], abl[:, :, : 3 + 1])
        assert not np.array_equal(base, abl)

    def test_cut_control_comes_from_nocomm_encoder(self):
        params = small_policy(seed=11, n_agents=3)
        nocomm = small_policy(seed=12, n_agents=3)
        x0 = np.random.default_rng(12).normal(size=(2, 3, 2))
        j, t_cut = 1, 3
        cut = np.zeros((2, 3, 6), dtype=bool)
        cut[1, j, t_cut] = True
        res = rollout(params, x0, 6, cut=cut, nocomm_params=nocomm)
        states = res.states_numpy()[1, j]
        # the no-comm encoder sees the row's own observed states from t = 0
        zeros = Tensor(np.zeros((1, nocomm.dims.n_c)))
        state_nc = ad.stack([nocomm.cap_net(Tensor(params.cap_matrix[j : j + 1])), zeros], axis=0)
        for t in range(t_cut + 1):
            state_nc = nocomm.encoder.step(
                nocomm.normalize_obs(Tensor(states[t : t + 1])), state_nc, None)
        want = act(nocomm, state_nc[0], zeros, params.u_max[j])
        assert np.allclose(res.controls.value[1, j, t_cut], want.value[0],
                           rtol=0, atol=1e-12)
        assert res.comm_mask[1, j, t_cut] == 0
        assert res.comm_mask.sum() == res.comm_mask.size - 1
        # row 0 carries no cut and matches an uncut rollout
        uncut = rollout(params, x0, 6).states_numpy()
        assert np.allclose(res.states_numpy()[0], uncut[0], rtol=0, atol=1e-12)

    def test_cut_rejects_wrong_shape_and_missing_fallback(self):
        params = small_policy(seed=11)
        x0 = np.zeros((2, 2))
        with pytest.raises(ValueError, match="nocomm_params"):
            rollout(params, x0, 6, cut=np.zeros((1, 2, 6), dtype=bool))
        with pytest.raises(ValueError, match="shape"):
            rollout(params, x0, 6, cut=np.zeros((1, 2, 5), dtype=bool),
                    nocomm_params=small_policy(seed=12))

    @pytest.mark.parametrize("tamper, message", [
        (lambda doc: doc["dims"].update(hidden=16), "'cap.b1' has shape (8,), want (16,)"),
        (lambda doc: doc["dims"].update(n_c=6), "'cap.b2' has shape (4,), want (6,)"),
        (lambda doc: doc["dims"]["u_max"].append([1.0, 1.0]),
         "'u_max' has shape (3, 2), want (2, 2)"),
        (lambda doc: doc["params"].pop("enc.b"), "lacks parameters ['enc.b'], has unexpected []"),
        (lambda doc: doc["dims"].pop("hidden"), "checkpoint dims lack ['hidden']"),
        (lambda doc: doc["dims"].update(hidden="16"), "checkpoint dim 'hidden' is '16', want an integer"),
        (lambda doc: doc["dims"].update(hidden=0), "checkpoint dim 'hidden' is 0, want an integer >= 1"),
        (lambda doc: doc["dims"].update(n_c=-3), "checkpoint dim 'n_c' is -3, want an integer >= 1"),
    ], ids=["hidden", "n_c", "u_max_rows", "missing_tensor", "missing_dims_key", "dims_wrong_type",
            "dims_zero", "dims_negative"])
    def test_tampered_checkpoint_rejected(self, tmp_path, tamper, message):
        path = tmp_path / "p.json"
        save_policy(path, small_policy(seed=13))
        doc = json.loads(path.read_text())
        tamper(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(message)):
            load_policy(path)

    @pytest.mark.parametrize("text, message", [
        ("[1, 2]", "checkpoint is a JSON list, want an object"),
        ('{"format_version": 1, "dims": {}}', "checkpoint has no 'params' object"),
        ('{"format_version": 1, "dims": {}, "params": [1]}', "checkpoint has no 'params' object"),
        ('{"format_version": 1, "dims": [], "params": {}}', "checkpoint has no 'dims' object"),
        ('{"format_version": 1, "dims": {}, "params": {"enc.b": {"shape": [7]}}}',
         "parameter 'enc.b': has no base64 'data' text"),
        ('{"format_version": 1, "dims": {}, "params": {"enc.b": {"data": "%s"}}}' % FOUR_ZEROS,
         "parameter 'enc.b': has no 'shape' list of sizes"),
        ('{"format_version": 1, "dims": {}, "params": {"enc.b": [7]}}',
         "parameter 'enc.b': has no 'shape' list of sizes"),
        ('{"format_version": 1, "dims": {}, "params": {"enc.b": {"shape": [7], "data": "%s"}}}'
         % FOUR_ZEROS, "parameter 'enc.b': data holds 32 bytes, not 8 per entry of shape [7]"),
        ('{"format_version": 1, "dims": {}, "params": {"enc.b": {"shape": [4], "data": "%s"}}}'
         % ONE_NAN, "parameter 'enc.b': holds NaN or infinite values"),
        ('{"format_version": 1, "dims": {}, "params": {"enc.w": {"shape": [2, 2], "data": "%s"}}}'
         % TWO_INF, "parameter 'enc.w': holds NaN or infinite values"),
    ], ids=["not_an_object", "no_params", "params_list", "dims_list", "block_without_data",
            "block_without_shape", "block_not_an_object", "data_short_of_shape", "nan_block",
            "inf_block"])
    def test_malformed_checkpoint_document_rejected(self, tmp_path, text, message):
        # raw text, so the document need not be an object at all
        path = tmp_path / "p.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            load_policy(path)

    def test_checkpoint_roundtrip(self, tmp_path):
        params = small_policy(seed=13)
        x0 = np.random.default_rng(13).normal(size=(2, 2))
        save_policy(tmp_path / "p.json", params)
        loaded = load_policy(tmp_path / "p.json")
        assert np.array_equal(
            rollout(params, x0, 5).states_numpy(),
            rollout(loaded, x0, 5).states_numpy(),
        )


GOAL = Region.box("Goal", (2.0, 2.0), (4.0, 4.0))
OBS = Region.box("Obs", (-2.0, -2.0), (-1.0, -1.0))
SPEC2 = OAnd(
    (
        Task(IEventually(InRegion("Goal", GOAL), 0, 10), "a", 1),
        Task(IAlways(INot(InRegion("Obs", OBS)), 0, 10), "b", 1),
    )
)
CAPS2 = [frozenset({"a"}), frozenset({"b"})]


class TestRolloutGradient:
    def test_end_to_end_gradient_matches_finite_differences(self):
        params = small_policy(seed=14, n_c=4, hidden=6)
        x0 = np.array([[0.0, 0.0], [0.5, 0.5]])

        def objective() -> Tensor:
            res = rollout(params, x0, 10)
            return outer_rho_tensor(res.member_tensors(CAPS2), SPEC2, 10.0)

        target = params.encoder.w_x
        base = target.value.copy()

        out = objective()
        out.backward()
        grad = target.grad.copy()

        def value(w: np.ndarray) -> float:
            target.value = w
            with ad.no_grad():
                v = objective().item()
            return v

        fd = finite_difference(value, base.copy())
        target.value = base
        scale = max(np.abs(fd).max(), np.abs(grad).max(), 1e-8)
        assert np.abs(fd - grad).max() / scale < 1e-4
