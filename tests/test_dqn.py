"""Network forward/backward, replay buffer, schedules, target sync."""

import numpy as np
import pytest

from algocontrol.agents import (
    AgentHyperparams,
    DQNAgent,
    MLPQNet,
    ReplayBuffer,
    dqn_epsilon,
    dqn_loss_and_grads,
    dqn_train_step,
    load_snapshot,
    save_agent,
    sync_target,
)
from algocontrol.agents.dqn import Batch
from algocontrol.core import ContractError, Observation, derive_stream
from oracles import random_gradcheck_case


def make_net(input_dim=3, actions=4, hidden=5, seed=0):
    return MLPQNet(input_dim, actions, derive_stream(seed, 0), hidden=hidden)


class TestForward:
    def test_zero_weights_zero_output(self):
        net = make_net()
        for p in net.parameters():
            p[:] = 0.0
        assert np.array_equal(net.forward(np.ones(3)), np.zeros(4))

    def test_hand_computed_2_2_2(self):
        net = MLPQNet(2, 2, derive_stream(1, 0), hidden=2)
        net.w1 = np.array([[1.0, 0.0], [0.0, 1.0]])
        net.b1 = np.array([0.5, 0.5])
        net.w2 = np.array([[2.0, -1.0], [1.0, 3.0]])
        net.b2 = np.array([0.1, -0.2])
        x = np.array([1.0, 2.0])
        # hidden = relu([1.5, 2.5]) = [1.5, 2.5] (positive region)
        # out = [1.5*2 + 2.5*1 + 0.1, 1.5*-1 + 2.5*3 - 0.2] = [5.6, 5.8]
        assert np.allclose(net.forward(x), [5.6, 5.8], atol=1e-12)

    def test_positive_homogeneity_with_zero_biases(self):
        net = make_net()
        net.b1[:] = 0.0
        net.b2[:] = 0.0
        x = np.abs(derive_stream(2, 0).normal(size=3)) + 0.1
        # guarantee positive preactivations so ReLU is linear
        net.w1 = np.abs(net.w1)
        assert np.allclose(net.forward(3.0 * x), 3.0 * net.forward(x), atol=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ContractError):
            make_net(input_dim=3).forward(np.ones(4))

    def test_batch_forward_matches_single(self):
        net = make_net()
        xs = derive_stream(3, 0).normal(size=(6, 3))
        batch_out = net.forward(xs)
        for i, x in enumerate(xs):
            assert np.allclose(batch_out[i], net.forward(x), atol=0)


class TestGradients:
    def test_matches_central_finite_differences(self):
        rng = derive_stream(77, 0)
        hp = AgentHyperparams(alpha=1.0)
        step = 1e-5
        worst = 0.0
        for _ in range(100):
            net, target, batch = random_gradcheck_case(rng)
            _, grads = dqn_loss_and_grads(net, target, batch, hp)
            for param, grad in zip(net.parameters(), grads):
                flat, gflat = param.ravel(), grad.ravel()
                for i in range(flat.size):
                    saved = flat[i]
                    flat[i] = saved + step
                    up = dqn_loss_and_grads(net, target, batch, hp)[0]
                    flat[i] = saved - step
                    down = dqn_loss_and_grads(net, target, batch, hp)[0]
                    flat[i] = saved
                    fd = (up - down) / (2 * step)
                    rel = abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-8)
                    worst = max(worst, rel)
        assert worst <= 1e-4

    def test_done_masks_target_network(self):
        rng = derive_stream(78, 0)
        hp = AgentHyperparams(alpha=1.0)
        net, target_a, batch = random_gradcheck_case(rng)
        batch.dones[:] = True
        target_b = make_net(seed=999)
        loss_a = dqn_loss_and_grads(net, target_a, batch, hp)[0]
        loss_b = dqn_loss_and_grads(net, target_b, batch, hp)[0]
        assert loss_a == loss_b

    def test_zero_td_error_means_zero_loss_and_no_update(self):
        # zero net, zero rewards, terminal transitions: targets == predictions
        net = make_net()
        for p in net.parameters():
            p[:] = 0.0
        target = net.clone()
        batch = Batch(
            obs=np.ones((4, 3)),
            actions=np.zeros(4, dtype=np.int64),
            rewards=np.zeros(4),
            next_obs=np.ones((4, 3)),
            dones=np.ones(4, dtype=bool),
        )
        hp = AgentHyperparams(alpha=1.0)
        loss = dqn_train_step(net, target, batch, hp)
        assert loss == 0.0
        for p in net.parameters():
            assert np.array_equal(p, np.zeros_like(p))

    def test_loss_nonnegative(self):
        rng = derive_stream(79, 0)
        hp = AgentHyperparams(alpha=1.0)
        for _ in range(10):
            net, target, batch = random_gradcheck_case(rng)
            loss, _ = dqn_loss_and_grads(net, target, batch, hp)
            assert loss >= 0.0

    def test_empty_batch_rejected(self):
        net = make_net()
        batch = Batch(
            obs=np.zeros((0, 3)),
            actions=np.zeros(0, dtype=np.int64),
            rewards=np.zeros(0),
            next_obs=np.zeros((0, 3)),
            dones=np.zeros(0, dtype=bool),
        )
        with pytest.raises(ContractError):
            dqn_loss_and_grads(net, net.clone(), batch, AgentHyperparams(alpha=1.0))


class TestEpsilonSchedule:
    def test_start(self):
        assert dqn_epsilon(0, 3000) == 1.0

    def test_end(self):
        assert dqn_epsilon(3000, 3000) == 0.02
        assert dqn_epsilon(9999, 3000) == 0.02

    def test_midpoint(self):
        assert dqn_epsilon(1500, 3000) == pytest.approx(0.51, abs=1e-12)

    def test_invalid_horizon(self):
        with pytest.raises(ContractError):
            dqn_epsilon(0, 0)


class TestSyncTarget:
    def test_copies_on_multiples_of_five(self):
        hp = AgentHyperparams(alpha=1.0, target_sync_every=5)
        net, target = make_net(seed=1), make_net(seed=2)
        sync_target(net, target, 5, hp)
        x = derive_stream(80, 0).normal(size=3)
        assert np.array_equal(net.forward(x), target.forward(x))

    def test_skips_other_episodes(self):
        hp = AgentHyperparams(alpha=1.0, target_sync_every=5)
        net, target = make_net(seed=1), make_net(seed=2)
        before = [p.copy() for p in target.parameters()]
        sync_target(net, target, 7, hp)
        for p, b in zip(target.parameters(), before):
            assert np.array_equal(p, b)

    def test_copy_is_detached(self):
        hp = AgentHyperparams(alpha=1.0, target_sync_every=5)
        net, target = make_net(seed=1), make_net(seed=2)
        sync_target(net, target, 5, hp)
        net.w1 += 1.0
        x = np.ones(3)
        assert not np.array_equal(net.forward(x), target.forward(x))


class TestReplayBuffer:
    def test_capacity_bound_and_eviction(self):
        buf = ReplayBuffer(capacity=10, obs_dim=1)
        for i in range(25):
            buf.push(np.array([float(i)]), 0, float(i), np.array([0.0]), False)
        assert len(buf) == 10
        stored = set(buf.obs[:, 0])
        assert stored == set(float(i) for i in range(15, 25))

    def test_uniform_sampling_with_replacement(self):
        buf = ReplayBuffer(capacity=4, obs_dim=1)
        for i in range(4):
            buf.push(np.array([float(i)]), i, 0.0, np.array([0.0]), False)
        rng = derive_stream(81, 0)
        batch = buf.sample(rng, 10**4)
        counts = np.bincount(batch.actions, minlength=4)
        assert np.all(np.abs(counts / 10**4 - 0.25) <= 0.02)

    def test_sample_empty_rejected(self):
        with pytest.raises(ContractError):
            ReplayBuffer(4, 1).sample(derive_stream(82, 0), 2)


class TestDQNAgent:
    def test_encoding_normalizes(self):
        agent = DQNAgent(
            action_count=2,
            horizon=11,
            context_dim=2,
            total_episodes=100,
            rng=derive_stream(83, 0),
            context_scales=(0.01, 1 / 11),
        )
        obs = Observation(time_step=5, continuous_features=(50.0, 5.5))
        encoded = agent.encode(obs)
        assert np.allclose(encoded, [5 / 11, 0.5, 0.5])

    def test_greedy_policy_snapshot_is_frozen(self, tmp_path):
        agent = DQNAgent(
            action_count=2,
            horizon=11,
            context_dim=2,
            total_episodes=100,
            rng=derive_stream(84, 0),
        )
        path = tmp_path / "net.snap"
        save_agent(agent, str(path))
        frozen = load_snapshot(str(path))
        obs = Observation(time_step=3, continuous_features=(7.0, 4.0))
        before = frozen.net.forward(agent.encode(obs))
        agent.net.w2 += 100.0  # training drift must not leak into snapshots
        assert np.array_equal(frozen.net.forward(agent.encode(obs)), before)

    def test_snapshot_roundtrip(self, tmp_path):
        agent = DQNAgent(
            action_count=3,
            horizon=11,
            context_dim=2,
            total_episodes=100,
            rng=derive_stream(85, 0),
        )
        path = tmp_path / "net.snap"
        save_agent(agent, str(path))
        loaded = load_snapshot(str(path))
        assert isinstance(loaded, DQNAgent) and loaded.horizon == agent.horizon
        x = derive_stream(86, 0).normal(size=3)
        assert np.allclose(loaded.net.forward(x), agent.net.forward(x), atol=0)
        obs = Observation(time_step=4, continuous_features=(-30.0, 6.0))
        assert loaded.greedy_action(obs) == agent.greedy_action(obs)
