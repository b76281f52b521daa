"""Network forward/backward, replay buffer, schedules, target sync."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from algocontrol.agents import (
    AgentHyperparams,
    DQNAgent,
    DQNGroup,
    MLPQNet,
    ReplayBuffer,
    dqn_train_step,
    load_snapshot,
    save_agent,
)
from algocontrol.agents.dqn import GREEDY_CHUNK, INPUT_ROWS_KEPT, _columns, _loss_into_grad
from algocontrol.benchmarks import (
    SigmoidEnv,
    SigmoidMVAEnv,
    make_instance_set,
    sample_sigmoid_instance,
)
from algocontrol.cli import main
from algocontrol.core import BlockStream, ContractError, Observation, SeedSpec, derive_stream
from algocontrol.harness import evaluate_on_test_set, run_training_episode
from oracles import (
    _reference_forward,
    random_gradcheck_case,
    reference_loss_and_grads,
    reference_train_step,
)


def make_net(input_dim=3, actions=4, hidden=5, seed=0):
    return MLPQNet(input_dim, actions, derive_stream(seed, 0), hidden=hidden)


def sample(buf, rng, batch_size):
    """A replay batch as a ``DQNGroup`` step takes it: the ``_columns`` of
    one ``gather``, actions as int64."""
    batch = buf.gather(rng, np.empty((batch_size, buf.rows.shape[1])))
    x, actions, rewards, next_obs, dones = _columns(batch, buf.obs_dim)
    return x, actions.astype(np.int64), rewards, next_obs, dones


def twin(net):
    """A separate net holding a copy of ``net``'s parameters."""
    other = MLPQNet(net.input_dim, net.action_count, hidden=net.hidden)
    other.theta[...] = net.theta
    return other


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def loss_and_grad(net, target, batch, hp):
    """The loss of ``_loss_into_grad`` and a copy of the ``net.grad`` it wrote."""
    return _loss_into_grad(net, target, batch, hp), net.grad.copy()


def shares_theta(net):
    """Whether every parameter block of ``net`` is a view of ``net.theta``."""
    return all(np.shares_memory(p, net.theta) for p in net.parameters())


class TestForward:
    def test_zero_weights_zero_output(self):
        net = make_net()
        for p in net.parameters():
            p[:] = 0.0
        assert np.array_equal(net.forward(np.ones((2, 3))), np.zeros((2, 4)))

    def test_hand_computed_2_2_2(self):
        net = MLPQNet(2, 2, derive_stream(1, 0), hidden=2)
        net.w1[...] = [[1.0, 0.0], [0.0, 1.0]]
        net.b1[...] = [0.5, 0.5]
        net.w2[...] = [[2.0, -1.0], [1.0, 3.0]]
        net.b2[...] = [0.1, -0.2]
        x = np.array([[1.0, 2.0]])
        # hidden = relu([1.5, 2.5]) = [1.5, 2.5] (positive region)
        # out = [1.5*2 + 2.5*1 + 0.1, 1.5*-1 + 2.5*3 - 0.2] = [5.6, 5.8]
        assert np.allclose(net.forward(x), [[5.6, 5.8]], atol=1e-12)

    def test_positive_homogeneity_with_zero_biases(self):
        net = make_net()
        net.b1[:] = 0.0
        net.b2[:] = 0.0
        x = np.abs(derive_stream(2, 0).normal(size=(4, 3))) + 0.1
        # guarantee positive preactivations so ReLU is linear
        np.abs(net.w1, out=net.w1)
        assert np.allclose(net.forward(3.0 * x), 3.0 * net.forward(x), atol=1e-9)

    def test_dimension_mismatch(self):
        """Only 2-D rows of the input width are taken: not a wider row,
        a 1-D row or an ``(N, 1, d)`` stack."""
        net = make_net(input_dim=3)
        for shape in [(1, 4), (3,), (4,), (2, 1, 3), (1, 1, 3)]:
            with pytest.raises(ContractError):
                net.forward(np.ones(shape))

    def test_batch_forward_matches_single(self):
        net = make_net()
        xs = derive_stream(3, 0).normal(size=(6, 3))
        batch_out = net.forward(xs)
        for i in range(len(xs)):
            assert same_bits(batch_out[i : i + 1], net.forward(xs[i : i + 1]))


class TestGradients:
    def test_matches_central_finite_differences(self):
        rng = derive_stream(77, 0)
        hp = AgentHyperparams(alpha=1.0)
        step = 1e-5
        worst = 0.0
        for _ in range(100):
            net, target, batch = random_gradcheck_case(rng)
            _, grad = loss_and_grad(net, target, batch, hp)
            theta = net.theta
            for i in range(theta.size):
                saved = theta[i]
                theta[i] = saved + step
                up = _loss_into_grad(net, target, batch, hp)
                theta[i] = saved - step
                down = _loss_into_grad(net, target, batch, hp)
                theta[i] = saved
                fd = (up - down) / (2 * step)
                rel = abs(fd - grad[i]) / max(abs(fd), abs(grad[i]), 1e-8)
                worst = max(worst, rel)
        assert worst <= 1e-4

    def test_done_masks_target_network(self):
        rng = derive_stream(78, 0)
        hp = AgentHyperparams(alpha=1.0)
        net, target_a, batch = random_gradcheck_case(rng)
        batch[4][:] = 1.0
        target_b = make_net(seed=999)
        loss_a = _loss_into_grad(net, target_a, batch, hp)
        loss_b = _loss_into_grad(net, target_b, batch, hp)
        assert loss_a == loss_b

    def test_zero_td_error_means_zero_loss_and_no_update(self):
        # zero net, zero rewards, terminal transitions: targets == predictions
        net = make_net()
        for p in net.parameters():
            p[:] = 0.0
        target = twin(net)
        batch = (np.ones((4, 3)), np.zeros(4, dtype=np.int64), np.zeros(4), np.ones((4, 3)),
                 np.ones(4))
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
            assert _loss_into_grad(net, target, batch, hp) >= 0.0

    def test_empty_batch_rejected(self):
        net = make_net()
        batch = (np.zeros((0, 3)), np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros((0, 3)),
                 np.zeros(0))
        with pytest.raises(ContractError):
            _loss_into_grad(net, twin(net), batch, AgentHyperparams(alpha=1.0))


def make_agent(total_episodes=3000, **hp):
    return DQNAgent(
        action_count=4,
        horizon=11,
        context_dim=2,
        total_episodes=total_episodes,
        hp=AgentHyperparams(alpha=1.0, **hp),
        rng=derive_stream(81, 0),
    )


def episode_states(instance, n):
    """The states of steps 0..n-1 of an episode on ``instance``, as training
    builds them: ``(t, instance, history)``, a DQN's features being its instance."""
    return [(t, instance, ()) for t in range(n)]


class TestEpsilonSchedule:
    def epsilon(self, episode, decay_episodes=3000):
        agent = make_agent(decay_episodes, eps_decay_fraction=1.0)
        agent.episodes_trained = episode
        return agent.epsilon

    def test_start(self):
        assert self.epsilon(0) == 1.0

    def test_end(self):
        assert self.epsilon(3000) == 0.02
        assert self.epsilon(9999) == 0.02

    def test_midpoint(self):
        assert self.epsilon(1500) == pytest.approx(0.51, abs=1e-12)


class TestSyncTarget:
    """``end_episode`` syncs the target after every fifth episode; with an
    empty buffer it takes no SGD step, so only the sync moves the target."""

    def agent_after(self, episodes):
        agent = make_agent(target_sync_every=5)
        agent.net, agent.target_net = make_net(seed=1), make_net(seed=2)
        agent.episodes_trained = episodes - 1
        before = [p.copy() for p in agent.target_net.parameters()]
        agent.end_episode(derive_stream(80, 1))
        return agent, before

    def test_copies_on_multiples_of_five(self):
        agent, _ = self.agent_after(5)
        x = derive_stream(80, 0).normal(size=(1, 3))
        assert np.array_equal(agent.net.forward(x), agent.target_net.forward(x))

    def test_skips_other_episodes(self):
        agent, before = self.agent_after(7)
        for p, b in zip(agent.target_net.parameters(), before):
            assert np.array_equal(p, b)

    def test_copy_is_detached(self):
        agent, _ = self.agent_after(5)
        target_before = agent.target_net.theta.copy()
        agent.net.w1 += 1.0
        x = np.ones((1, 3))
        assert not np.array_equal(agent.net.forward(x), agent.target_net.forward(x))
        agent.net.theta[:] = 0.0
        assert np.array_equal(agent.net.forward(x), np.zeros((1, 4)))
        assert np.array_equal(agent.target_net.theta, target_before)
        assert not np.array_equal(agent.target_net.forward(x), np.zeros((1, 4)))


class TestParameterViews:
    """``w1, b1, w2, b2`` stay views of ``theta`` through every operation
    on a whole network, and the target never shares the online vector."""

    @staticmethod
    def check(agent):
        assert shares_theta(agent.net) and shares_theta(agent.target_net)
        assert not np.shares_memory(agent.net.theta, agent.target_net.theta)

    def test_init_train_step_sync_and_load(self, tmp_path):
        agent = make_agent(target_sync_every=2)
        self.check(agent)
        rng = derive_stream(96, 0)
        instance = (1.0, 5.0)
        agent.observe(episode_states(instance, 3), [t % 4 for t in range(3)], [0.5] * 3)
        agent.end_episode(rng)  # one SGD step, no sync
        self.check(agent)
        assert not np.array_equal(agent.net.theta, agent.target_net.theta)
        agent.end_episode(rng)  # another step, then a sync
        self.check(agent)
        assert np.array_equal(agent.net.theta, agent.target_net.theta)
        save_agent(agent, str(tmp_path / "net.snap"))
        loaded = load_snapshot(str(tmp_path / "net.snap"))
        self.check(loaded)
        assert np.array_equal(loaded.net.theta, agent.net.theta)
        assert np.array_equal(loaded.target_net.theta, agent.net.theta)

    def test_train_step_updates_through_the_views(self):
        rng = derive_stream(97, 0)
        hp = AgentHyperparams(alpha=1.0)
        net, target, batch = random_gradcheck_case(rng)
        before = [p.copy() for p in net.parameters()]
        _, grad = loss_and_grad(net, target, batch, hp)
        dqn_train_step(net, target, batch, hp)
        assert shares_theta(net)
        for p, b, g in zip(net.parameters(), before, net._blocks(grad)):
            assert np.array_equal(p, b - hp.dqn_lr * g)


def packed_row(obs, action, reward, next_obs, done):
    """One ring row, laid out obs | action | reward | next_obs | done."""
    return np.concatenate([obs, [action, reward], next_obs, [done]])


class TestReplayBuffer:
    def test_capacity_bound_and_eviction(self):
        buf = ReplayBuffer(capacity=10, obs_dim=1)
        for i in range(25):
            buf.extend(np.array([[float(i)]]), [0], [float(i)], np.array([[0.0]]), [False])
        assert len(buf) == 10 and buf.rows.shape == (10, 5)
        stored = set(buf.rows[: len(buf), 0])
        assert stored == set(float(i) for i in range(15, 25))

    def test_uniform_sampling_with_replacement(self):
        buf = ReplayBuffer(capacity=4, obs_dim=1)
        buf.extend(np.arange(4.0)[:, None], [0, 1, 2, 3], [0.0] * 4, np.zeros((4, 1)), [False] * 4)
        rng = derive_stream(81, 0)
        actions = sample(buf, rng, 10**4)[1]
        counts = np.bincount(actions, minlength=4)
        assert np.all(np.abs(counts / 10**4 - 0.25) <= 0.02)

    def test_gather_fills_out_with_drawn_ring_rows(self):
        buf = ReplayBuffer(capacity=8, obs_dim=2)
        obs, actions, rewards, next_obs, dones = zip(*transitions(0, 6))
        buf.extend(np.array(obs), actions, rewards, np.array(next_obs), dones)
        out = np.empty((5, 7))
        assert buf.gather(BlockStream(89, 0), out) is out  # a replay stream's draws
        assert not np.shares_memory(out, buf.rows)
        assert np.array_equal(out, buf.rows[derive_stream(89, 0).integers(6, size=5)])

    def test_sample_empty_rejected(self):
        with pytest.raises(ContractError):
            sample(ReplayBuffer(4, 1), derive_stream(82, 0), 2)


def transitions(first, n):
    """``n`` distinct transitions (obs, action, reward, next_obs, done)."""
    return [
        (np.array([float(i), -float(i)]), i % 3, 0.5 * i, np.array([i + 0.25, 1.0]), i % 2 == 0)
        for i in range(first, first + n)
    ]


class TestRingWrite:
    """One ``extend`` of an episode leaves the ring exactly as writing its
    transitions one at a time, oldest first, would."""

    CAPACITY = 10

    @staticmethod
    def sequential(capacity, written):
        slots, nxt = [None] * capacity, 0
        for transition in written:
            slots[nxt] = transition
            nxt = (nxt + 1) % capacity
        return slots, min(len(written), capacity)

    @pytest.mark.parametrize(
        "before, episode",
        [(0, 4), (7, 3), (7, 4), (7, 6), (10, 10), (3, 25), (0, 10)],
        ids=["no-wrap", "ends-at-capacity", "wrap-by-one", "wrap", "full-then-full",
             "longer-than-capacity", "exactly-capacity"],
    )
    def test_matches_sequential_writes(self, before, episode):
        buf = ReplayBuffer(self.CAPACITY, obs_dim=2)
        old, new = transitions(0, before), transitions(100, episode)
        for chunk in (old, new):
            if chunk:
                obs, actions, rewards, next_obs, dones = zip(*chunk)
                buf.extend(np.array(obs), actions, rewards, np.array(next_obs), dones)
        slots, size = self.sequential(self.CAPACITY, old + new)
        assert len(buf) == size
        for i, transition in enumerate(slots[:size]):
            assert np.array_equal(buf.rows[i], packed_row(*transition))
        batch = sample(buf, BlockStream(88, 0), 50)
        idx = derive_stream(88, 0).integers(size, size=50)
        for got, want in zip(batch, zip(*(slots[i] for i in idx))):
            assert np.array_equal(got, np.array(want))

    def test_following_write_continues_after_the_episode(self):
        buf = ReplayBuffer(self.CAPACITY, obs_dim=2)
        for chunk in (transitions(0, 13), transitions(50, 4)):
            obs, actions, rewards, next_obs, dones = zip(*chunk)
            buf.extend(np.array(obs), actions, rewards, np.array(next_obs), dones)
        slots, _ = self.sequential(self.CAPACITY, transitions(0, 13) + transitions(50, 4))
        assert [int(a) for a in buf.rows[:, 2]] == [s[1] for s in slots]
        assert list(buf.rows[:, 3]) == [s[2] for s in slots]
        assert np.array_equal(buf.rows, [packed_row(*s) for s in slots])


# (obs_dim, actions, hidden, batch_size): input dim 1 and hidden 1 take
# numpy's vector path through the products.
BATCH_SHAPES = [(3, 2, 50, 11), (1, 3, 50, 2), (1, 2, 5, 11), (3, 2, 1, 11), (2, 5, 7, 32),
                (4, 4, 50, 64)]


def filled_ring(rng, obs_dim, actions, n=30):
    """A ring of capacity 40 holding ``n`` random transitions."""
    buf = ReplayBuffer(capacity=40, obs_dim=obs_dim)
    buf.extend(rng.normal(size=(n, obs_dim)), rng.integers(actions, size=n).tolist(),
               rng.normal(size=n).tolist(), rng.normal(size=(n, obs_dim)),
               (rng.random(n) < 0.3).tolist())
    return buf


class TestStridedBatch:
    """A sampled batch is strided views into one gathered array; the loss,
    gradients and SGD step on it equal, bit for bit, those on contiguous
    copies of the same rows."""

    @pytest.mark.parametrize("obs_dim, actions, hidden, batch_size", BATCH_SHAPES)
    def test_views_equal_contiguous_copies(self, obs_dim, actions, hidden, batch_size):
        rng = derive_stream(95, obs_dim * 100 + batch_size)
        buf = filled_ring(rng, obs_dim, actions)
        hp = AgentHyperparams(alpha=1.0)
        for trial in range(5):
            net = MLPQNet(obs_dim, actions, rng, hidden=hidden)
            target = MLPQNet(obs_dim, actions, rng, hidden=hidden)
            views = sample(buf, rng, batch_size)
            assert not views[0].flags.c_contiguous and not views[3].flags.c_contiguous
            copies = tuple(np.ascontiguousarray(column) for column in views)
            loss, grad = loss_and_grad(net, target, views, hp)
            loss_c, grad_c = loss_and_grad(net, target, copies, hp)
            assert loss == loss_c
            assert np.array_equal(grad, grad_c)
            stepped, stepped_c = twin(net), twin(net)
            assert dqn_train_step(stepped, target, views, hp) == dqn_train_step(
                stepped_c, target, copies, hp)
            for p, p_c in zip(stepped.parameters(), stepped_c.parameters()):
                assert np.array_equal(p, p_c)


class TestSGDStepOracle:
    """Loss, gradients and parameters after each of 20 chained SGD steps,
    with target syncs, equal ``oracles.reference_train_step`` bit for bit;
    with ``other_size``, every third step takes a batch of that size instead."""

    @settings(max_examples=30, deadline=None)
    @given(shape=st.sampled_from(BATCH_SHAPES), contiguous=st.booleans(),
           sync_every=st.integers(1, 7), seed=st.integers(0, 2**16),
           other_size=st.sampled_from([None, 1, 5, 11, 40]))
    @example(shape=BATCH_SHAPES[0], contiguous=False, sync_every=5, seed=0, other_size=5)
    def test_matches_reference(self, shape, contiguous, sync_every, seed, other_size):
        obs_dim, actions, hidden, size = shape
        rng = derive_stream(seed, 0)
        buf = filled_ring(rng, obs_dim, actions)
        hp = AgentHyperparams(alpha=1.0, dqn_lr=0.01)
        net = MLPQNet(obs_dim, actions, rng, hidden=hidden)
        target = MLPQNet(obs_dim, actions, rng, hidden=hidden)
        ref, ref_target = twin(net), twin(target)
        for step in range(1, 21):
            batch_size = other_size if other_size and step % 3 == 0 else size
            batch = sample(buf, rng, batch_size)
            if contiguous:
                batch = tuple(np.ascontiguousarray(column) for column in batch)
            loss, grad = loss_and_grad(net, target, batch, hp)
            ref_loss, ref_grads = reference_loss_and_grads(ref, ref_target, batch, hp)
            assert loss == ref_loss
            for g, g_ref in zip(net._blocks(grad), ref_grads):
                assert same_bits(g, g_ref)
            assert dqn_train_step(net, target, batch, hp) == reference_train_step(
                ref, ref_target, batch, hp)
            assert same_bits(net.theta, ref.theta)
            if step % sync_every == 0:
                target.theta[...] = net.theta
                ref_target.theta[...] = ref.theta


def lockstep_members(count, context_dim=2, hidden=50, capacity=40, names=None):
    """``count`` DQN agents (3 actions, horizon 11, differently initialized)
    in one DQNGroup; a ring of ``capacity`` wraps every few episodes."""
    hp = AgentHyperparams(alpha=1.0, dqn_lr=0.01, target_sync_every=5,
                          buffer_capacity=capacity)
    agents = [DQNAgent(action_count=3, horizon=11, context_dim=context_dim, total_episodes=300,
                       hp=hp, net=MLPQNet(1 + context_dim, 3, derive_stream(k, 0), hidden=hidden))
              for k in range(count)]
    DQNGroup(agents, names)
    return agents


def play_episode(agent, rng):
    """Write one random run of consecutive steps on a random integer instance
    to the agent's ring; returns what the ring receives: (instance, t0,
    actions, rewards, dones)."""
    instance = tuple(float(v) for v in rng.integers(-3, 4, agent.input_dim - 1))
    t0 = int(rng.integers(0, 6))
    n = int(rng.integers(1, 12 - t0))
    actions = rng.integers(3, size=n).tolist()
    rewards = rng.normal(size=n).tolist()
    dones = [t == n - 1 for t in range(n)]
    rows = agent.input_rows(instance)
    agent.buffer.extend(rows[t0 : t0 + n], actions, rewards, rows[t0 + 1 : t0 + n + 1], dones)
    return instance, t0, actions, rewards, dones


class TestLockstepStep:
    """One stacked SGD step per round gives each member of a DQNGroup, bit
    for bit, the loss and parameters of single-network steps on its own
    ring and stream, through target syncs and ring wraps, whatever order
    the members end their episodes in. Never skipped: on a BLAS kernel
    where this fails, the failure is the finding."""

    @pytest.mark.parametrize("count, context_dim, hidden", [
        (1, 2, 50), (2, 2, 50), (3, 2, 50), (13, 2, 50),
        (3, 0, 50), (3, 2, 1),  # input dim 1 and hidden 1 take numpy's vector path
    ])
    def test_matches_single_network_steps(self, count, context_dim, hidden):
        agents = lockstep_members(count, context_dim, hidden)
        hp = agents[0].hp
        singles = [(twin(a.net), twin(a.target_net), ReplayBuffer(40, a.input_dim))
                   for a in agents]
        streams = [(derive_stream(k, 1), derive_stream(k, 1)) for k in range(count)]
        rng = derive_stream(98, count)
        for episode in range(1, 301):
            for k in rng.permutation(count):
                agent, (_, _, ring), (train, _) = agents[k], singles[k], streams[k]
                instance, t0, actions, rewards, dones = play_episode(agent, rng)
                rows = agent.input_rows(instance)
                ring.extend(rows[t0 : t0 + len(actions)], actions, rewards,
                            rows[t0 + 1 : t0 + len(actions) + 1], dones)
                agent.end_episode(train)
            for agent, (net, target, ring), (_, single_train) in zip(agents, singles, streams):
                loss = reference_train_step(net, target, sample(ring, single_train, 11), hp)
                if episode % 5 == 0:
                    target.theta[...] = net.theta
                assert agent.episodes_trained == episode
                assert agent.last_loss == loss
                assert np.array_equal(agent.net.theta, net.theta)
                assert np.array_equal(agent.target_net.theta, target.theta)
        assert all(len(a.buffer) == 40 for a in agents)  # every ring has wrapped

    def test_members_view_rows_of_the_group_arrays(self):
        agents = lockstep_members(3)
        group = agents[0]._group
        for k, agent in enumerate(agents):
            assert agent._group is group and agent._slot == k
            assert np.shares_memory(agent.net.theta, group.net.theta[k])
            assert np.shares_memory(agent.net.grad, group.net.grad[k])
            assert np.shares_memory(agent.target_net.theta, group.target_net.theta[k])
            assert shares_theta(agent.net) and shares_theta(agent.target_net)
        assert shares_theta(group.net) and group.net.w1.shape == (3, 3, 50)

    def test_a_lone_agent_steps_on_its_own_row(self):
        (agent,) = lockstep_members(1)
        group = agent._group
        assert group.net.theta.shape == agent.net.theta.shape and group.net.w1.shape == (3, 50)
        assert np.shares_memory(group.net.theta, agent.net.theta)
        assert np.shares_memory(group.net.grad, agent.net.grad)
        assert np.shares_memory(group.target_net.theta, agent.target_net.theta)

    def test_step_waits_for_the_last_member(self):
        agents = lockstep_members(3)
        rng = derive_stream(99, 0)
        before = agents[0]._group.net.theta.copy()
        for agent in agents[:2]:
            play_episode(agent, rng)
            agent.end_episode(derive_stream(99, 1))
        assert np.array_equal(agents[0]._group.net.theta, before)
        assert [a.episodes_trained for a in agents] == [0, 0, 0]
        play_episode(agents[2], rng)
        agents[2].end_episode(derive_stream(99, 1))
        assert not np.array_equal(agents[0]._group.net.theta, before)
        assert [a.episodes_trained for a in agents] == [1, 1, 1]

    def test_a_member_ends_one_episode_per_round(self):
        agents = lockstep_members(2, names=["seed 3", "seed 4"])
        play_episode(agents[1], derive_stream(99, 2))
        agents[1].end_episode(derive_stream(99, 3))
        with pytest.raises(ContractError, match="seed 4 ended two episodes in one lockstep round"):
            agents[1].end_episode(derive_stream(99, 3))

    def test_a_member_without_replay_data_is_refused(self):
        agents = lockstep_members(2, names=["seed 3", "seed 4"])
        play_episode(agents[1], derive_stream(99, 2))
        agents[0].end_episode(derive_stream(99, 3))
        with pytest.raises(ContractError, match="seed 3 has no replay data"):
            agents[1].end_episode(derive_stream(99, 3))

    @pytest.mark.parametrize("where", ["w1", "b2"])
    def test_divergence_names_the_member_and_episode(self, where):
        agents = lockstep_members(3, names=["seed 4", "seed 5", "seed 6"])
        rng = derive_stream(99, 4)
        for _ in range(2):
            for agent in agents:
                play_episode(agent, rng)
                agent.end_episode(rng)
        getattr(agents[1].net, where).flat[0] = np.inf
        with np.errstate(all="ignore"), pytest.raises(
                ContractError, match="DQN training of seed 5 diverged in episode 3"):
            for agent in agents:
                play_episode(agent, rng)
                agent.end_episode(rng)
        assert [a.episodes_trained for a in agents] == [2, 2, 2]

    def test_members_must_share_shape_and_hyperparameters(self):
        agents = [make_agent(), make_agent(target_sync_every=3)]
        with pytest.raises(ContractError, match="share network shape"):
            DQNGroup(agents)


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
        encoded = agent.input_rows((50.0, 5.5))[5]
        assert np.allclose(encoded, [5 / 11, 0.5, 0.5])

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("where", ["w1", "b1", "w2", "b2"])
    def test_non_finite_update_names_episode(self, where, value):
        agent = DQNAgent(
            action_count=2,
            horizon=11,
            context_dim=2,
            total_episodes=100,
            rng=derive_stream(87, 0),
        )
        rng = derive_stream(87, 1)
        agent.observe(episode_states((1.0, 5.0), 1), [1], [0.5])
        agent.end_episode(rng)
        getattr(agent.net, where).flat[0] = value
        with np.errstate(all="ignore"), pytest.raises(ContractError, match="episode 2"):
            agent.end_episode(rng)
        assert agent.episodes_trained == 1

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
        x = agent.input_rows(obs.continuous_features)[obs.time_step : obs.time_step + 1]
        before = frozen.net.forward(x)
        agent.net.w2 += 100.0  # training drift must not leak into snapshots
        assert np.array_equal(frozen.net.forward(x), before)

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
        x = derive_stream(86, 0).normal(size=(1, 3))
        assert np.allclose(loaded.net.forward(x), agent.net.forward(x), atol=0)
        obs = Observation(time_step=4, continuous_features=(-30.0, 6.0))
        assert loaded.greedy_action(obs) == agent.greedy_action(obs)


class TestSnapshotWidth:
    """A network whose hidden width is not the default saves, loads,
    replays and keeps training at its own width."""

    INSTANCES = [(1.0, 5.0), (-40.0, 3.0), (75.0, 8.0)]

    def test_hidden_7_round_trip(self, tmp_path, capsys):
        agent = DQNAgent(action_count=2, horizon=11, context_dim=2, total_episodes=10,
                         hp=AgentHyperparams(target_sync_every=5),
                         context_scales=(0.01, 1 / 11),
                         net=MLPQNet(3, 2, derive_stream(99, 0), hidden=7))
        path = tmp_path / "narrow.snap"
        save_agent(agent, str(path))
        assert "hidden 7" in path.read_text().splitlines()
        loaded = load_snapshot(str(path))
        assert loaded.net.hidden == loaded.target_net.hidden == 7
        greedy = {inst: [agent.greedy_action(Observation(t, inst)) for t in range(11)]
                  for inst in self.INSTANCES}
        assert len(set(greedy[(1.0, 5.0)])) == 2  # the replay below checks both actions
        for inst, actions in greedy.items():
            assert [loaded.greedy_action(Observation(t, inst)) for t in range(11)] == actions
        argv = ["replay", str(path), "--benchmark", "sigmoid", "--instance", "s=1,p=5"]
        assert main(argv) == 0
        out = capsys.readouterr().out.splitlines()
        replayed = [int(line.split("action=")[1].split()[0]) for line in out if "action=" in line]
        assert replayed == greedy[(1.0, 5.0)]
        rng, env = derive_stream(98, 1), SigmoidEnv(11)
        for episode in range(loaded.hp.target_sync_every):
            run_training_episode(loaded, env, self.INSTANCES[episode % 3],
                                 SeedSpec(98, episode), rng, rng)
        assert not np.array_equal(loaded.net.theta, agent.net.theta)
        x = derive_stream(98, 2).normal(size=(4, 3))
        assert np.array_equal(loaded.target_net.forward(x), loaded.net.forward(x))


class TestSnapshotRecords:
    """Every network element must be stored exactly once."""

    @pytest.fixture
    def lines(self, tmp_path):
        agent = DQNAgent(action_count=2, horizon=11, context_dim=2, total_episodes=10,
                         rng=derive_stream(87, 0))
        save_agent(agent, str(tmp_path / "net.snap"))
        return (tmp_path / "net.snap").read_text().splitlines()

    @staticmethod
    def _replay_refuses(path, capsys, message):
        with pytest.raises(ContractError, match=message):
            load_snapshot(str(path))
        argv = ["replay", str(path), "--benchmark", "sigmoid", "--instance", "s=1,p=5"]
        assert main(argv) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("E-RUNTIME:") and message in err[0]

    def test_missing_element_names_the_parameter(self, tmp_path, capsys, lines):
        start = next(i for i, line in enumerate(lines) if line.startswith("records "))
        lines.remove(next(line for line in lines if line.startswith("w1/000003\t")))
        lines[start] = f"records {len(lines) - start - 1}"
        path = tmp_path / "missing.snap"
        path.write_text("\n".join(lines) + "\n")
        self._replay_refuses(path, capsys, "snapshot has no record for w1/000003")

    def test_repeated_record_names_the_line(self, tmp_path, capsys, lines):
        i = lines.index(next(line for line in lines if line.startswith("b1/000001\t")))
        lines[i] = "b1/000000\t0.25"
        path = tmp_path / "repeated.snap"
        path.write_text("\n".join(lines) + "\n")
        self._replay_refuses(path, capsys, f"snapshot line {i + 1}: repeated record")


def per_step_encoding(agent, t, features):
    """Input vector of one step, built the way a per-step encoder builds it."""
    out = np.empty(agent.input_dim)
    out[0] = t / agent.horizon
    if agent.input_dim > 1:
        out[1:] = np.asarray(features) * agent.context_scales
    return out


def single_row_q(agent, instance):
    """Q-values of each time step 0..T-1, one ``oracles._reference_forward``
    of a single row each, computed outside ``MLPQNet``."""
    rows = agent.input_rows(instance)
    return np.concatenate([_reference_forward(agent.net, rows[t : t + 1])
                           for t in range(agent.horizon)])


def single_row_greedy(agent, instance):
    return np.argmax(single_row_q(agent, instance), axis=1).tolist()


def stacked_equals_single_rows(agent, instance):
    q = agent.net.forward(agent.input_rows(instance)[: agent.horizon])
    return np.array_equal(q, single_row_q(agent, instance), equal_nan=True)


class TestStackedGreedy:
    """Greedy actions come from one forward over an instance's rows; each
    of its rows equals the single-row product, bit for bit."""

    @staticmethod
    def agent(input_dim, actions, horizon, seed):
        scales = tuple(0.5 + 0.25 * k for k in range(input_dim - 1))
        return DQNAgent(action_count=actions, horizon=horizon, context_dim=input_dim - 1,
                        total_episodes=10, rng=derive_stream(seed, 0), context_scales=scales)

    @staticmethod
    def instances(agent, seed, n=3):
        rng = derive_stream(seed, 1)
        return [tuple(float(v) for v in rng.normal(0.0, 5.0, agent.input_dim - 1))
                for _ in range(n)]

    @pytest.mark.parametrize("input_dim", [1, 2, 3, 4])
    def test_matches_single_row_forward(self, input_dim):
        for actions in range(2, 7):
            for horizon in range(1, 41):
                seed = 1000 * input_dim + 100 * actions + horizon
                agent = self.agent(input_dim, actions, horizon, seed)
                for instance in self.instances(agent, seed):
                    assert stacked_equals_single_rows(agent, instance)
                    greedy = [agent.greedy_action(Observation(t, instance))
                              for t in range(horizon)]
                    assert greedy == single_row_greedy(agent, instance)

    def test_input_rows_equal_per_step_encoding(self):
        for input_dim in (1, 2, 3, 4):
            for horizon in (1, 7, 11, 40):
                agent = self.agent(input_dim, 3, horizon, input_dim + horizon)
                for instance in self.instances(agent, horizon):
                    rows = agent.input_rows(instance)
                    assert rows.shape == (horizon + 1, input_dim)
                    for t in range(horizon + 1):
                        assert np.array_equal(rows[t], per_step_encoding(agent, t, instance))

    def test_ties_go_to_the_lowest_index(self):
        agent = self.agent(3, 5, 11, 7)
        for p in agent.net.parameters():
            p[:] = 0.0
        instance = (1.0, 2.0)
        assert [agent.greedy_action(Observation(t, instance)) for t in range(11)] == [0] * 11
        agent = self.agent(3, 5, 11, 7)
        agent.net.w2[:] = 0.0
        agent.net.b2[:] = [0.0, 1.0, 0.0, 1.0, 0.5]
        assert [agent.greedy_action(Observation(t, instance)) for t in range(11)] == [1] * 11
        assert single_row_greedy(agent, instance) == [1] * 11

    @pytest.mark.parametrize("where", ["w1", "w2", "b2"])
    def test_nan_weight(self, where):
        agent = self.agent(3, 4, 11, 8)
        param = getattr(agent.net, where)
        param[..., 2] = np.nan
        instance = (1.5, -2.0)
        assert stacked_equals_single_rows(agent, instance)
        greedy = [agent.greedy_action(Observation(t, instance)) for t in range(11)]
        assert greedy == single_row_greedy(agent, instance)

    def test_one_forward_per_instance(self, monkeypatch):
        agent = self.agent(3, 4, 11, 9)
        calls = []
        forward = agent.net.forward
        monkeypatch.setattr(agent.net, "forward", lambda x: calls.append(x.shape) or forward(x))
        for instance in self.instances(agent, 9, n=2):
            for t in range(11):
                agent.greedy_action(Observation(t, instance))
        assert calls == [(11, 3), (11, 3)]

    @settings(max_examples=40, deadline=None)
    @given(input_dim=st.integers(1, 4), actions=st.integers(2, 6), horizon=st.integers(1, 40),
           seed=st.integers(0, 2**16))
    @example(input_dim=3, actions=3, horizon=11, seed=0)
    def test_checkpoint_fill_equals_single_row_forwards(self, input_dim, actions, horizon, seed):
        """``greedy_paths`` gives each instance the Q-values and path of single-row
        forwards of its own rows, on a list longer than a chunk, with repeats,
        with memoised instances, and across the clear of the input-row memo."""
        agent = self.agent(input_dim, actions, horizon, seed)
        fresh = self.instances(agent, seed, n=2 * GREEDY_CHUNK + 3)
        memoised = {fresh[1], fresh[6]}
        for instance in memoised:
            agent.greedy_path(instance)
        if input_dim > 1:  # fill the row memo so that its clear falls in the first chunk
            for k in range(INPUT_ROWS_KEPT - len(agent._rows) - 3):
                agent.input_rows((1000.0 + k,) * (input_dim - 1))
        q_rows = []
        forward = agent.net.forward
        agent.net.forward = lambda x: q_rows.append(forward(x)) or q_rows[-1]
        listed = fresh[:5] + fresh[3:1:-1] + fresh + fresh[::4]
        paths = agent.greedy_paths(listed)

        new = list(dict.fromkeys(i for i in listed if i not in memoised))
        assert len(q_rows) == -(-len(new) // GREEDY_CHUNK)
        q = np.concatenate(q_rows) if q_rows else np.empty((0, actions))
        assert len(q) == len(new) * horizon
        for k, instance in enumerate(new):
            assert np.array_equal(q[k * horizon : (k + 1) * horizon],
                                  single_row_q(agent, instance), equal_nan=True)
        assert paths == [single_row_greedy(agent, i) for i in listed]
        if input_dim > 1:
            assert len(agent._rows) < INPUT_ROWS_KEPT - 3  # the memo started over
        assert agent.greedy_paths(listed) == paths
        assert len(q_rows) == -(-len(new) // GREEDY_CHUNK)  # memoised until the next update

    def test_a_checkpoint_forwards_a_chunk_of_instances_at_a_time(self):
        horizon = 11
        env = SigmoidEnv(horizon=horizon)
        agent = self.agent(3, env.action_count, horizon, 10)
        test_set = make_instance_set(derive_stream(10, 2), horizon, 100)
        calls = []
        forward = agent.net.forward
        agent.net.forward = lambda x: calls.append(x.shape) or forward(x)
        evaluate_on_test_set(agent, env, test_set, 10)
        assert len(calls) == -(-100 // GREEDY_CHUNK)
        assert sum(n for n, _ in calls) == 100 * horizon
        assert all(d == 3 for _, d in calls)
        evaluate_on_test_set(agent, env, test_set, 10)  # memoised until the next update
        assert len(calls) == -(-100 // GREEDY_CHUNK)


SIGMOID_FAMILY = {"sigmoid": SigmoidEnv, "sigmoidmva": SigmoidMVAEnv}


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(sorted(SIGMOID_FAMILY)), horizon=st.integers(1, 12),
       capacity=st.integers(1, 30), episodes=st.integers(1, 4), seed=st.integers(0, 2**16))
@example(kind="sigmoid", horizon=11, capacity=15, episodes=2, seed=0)  # episode 2 wraps
def test_ring_holds_the_per_step_rows(kind, horizon, capacity, episodes, seed):
    """Whole episodes written as slices leave the ring as writing each
    transition's per-step encoding, one at a time, would."""
    env = SIGMOID_FAMILY[kind](horizon)
    agent = DQNAgent(action_count=env.action_count, horizon=horizon, context_dim=2,
                     total_episodes=10, hp=AgentHyperparams(alpha=1.0, buffer_capacity=capacity),
                     rng=derive_stream(seed, 0), context_scales=(0.01, 1 / horizon))
    written, observe = [], agent.observe

    def recording(states, actions, rewards):
        for (t, instance, _), action, reward in zip(states, actions, rewards):
            written.append((per_step_encoding(agent, t, instance), action, reward,
                            per_step_encoding(agent, t + 1, instance), t == len(actions) - 1))
        observe(states, actions, rewards)

    agent.observe = recording
    rng = derive_stream(seed, 1)
    instances = make_instance_set(rng, horizon, 2)
    for episode in range(episodes):
        run_training_episode(agent, env, instances[episode % 2], SeedSpec(seed, episode),
                             rng, rng)
    slots, size = TestRingWrite.sequential(capacity, written)
    assert len(agent.buffer) == size
    for i, transition in enumerate(slots[:size]):
        assert np.array_equal(agent.buffer.rows[i], packed_row(*transition))


class TestMemoLifetime:
    """Every network update drops the memo: greedy actions always follow
    the current network."""

    def test_greedy_follows_every_update(self, tmp_path):
        horizon = 11
        agent = DQNAgent(action_count=2, horizon=horizon, context_dim=2, total_episodes=60,
                         hp=AgentHyperparams(alpha=0.1, dqn_lr=0.05, eps_decay_fraction=0.5),
                         rng=derive_stream(92, 0), context_scales=(0.01, 1 / horizon))
        instances = make_instance_set(derive_stream(92, 1), horizon, 4)
        explore, train = derive_stream(92, 2), derive_stream(92, 3)
        env, seen, loaded = SigmoidEnv(horizon), set(), None
        for episode in range(60):
            for instance in instances:  # fill the memo before the update
                agent.greedy_action(Observation(0, instance))
            run_training_episode(agent, env, instances[episode % 4], SeedSpec(92, episode),
                                 explore, train)
            for instance in instances:
                greedy = [agent.greedy_action(Observation(t, instance)) for t in range(horizon)]
                assert greedy == single_row_greedy(agent, instance)
                seen.add(tuple(greedy))
            if episode == 30:
                path = tmp_path / "mid.snap"
                save_agent(agent, str(path))
                loaded = load_snapshot(str(path))
                frozen = {inst: single_row_greedy(agent, inst) for inst in instances}
        assert len(seen) > 1  # the updates changed the policy
        for instance in instances:
            greedy = [loaded.greedy_action(Observation(t, instance)) for t in range(horizon)]
            assert greedy == frozen[instance] == single_row_greedy(loaded, instance)

    def test_episode_reaches_the_ring_as_per_step_rows(self):
        agent = DQNAgent(action_count=2, horizon=11, context_dim=2, total_episodes=10,
                         rng=derive_stream(93, 2), context_scales=(0.01, 1 / 11))
        instance = (3.0, 5.0)
        rng = derive_stream(93, 0)
        run_training_episode(agent, SigmoidEnv(11), instance, SeedSpec(93, 1), rng, rng)
        assert len(agent.buffer) == 11
        rows = agent.buffer.rows  # obs 0:3 | action 3 | reward 4 | next_obs 5:8 | done 8
        for t in range(11):
            assert np.array_equal(rows[t, :3], per_step_encoding(agent, t, instance))
            assert np.array_equal(rows[t, 5:8], per_step_encoding(agent, t + 1, instance))
        assert list(rows[:11, 8]) == [0.0] * 10 + [1.0]

    @pytest.mark.parametrize("n", [1, 4, 11])
    def test_an_episode_is_steps_0_to_n_of_one_instance(self, n):
        """``observe`` writes steps 0..n-1 of its one instance, each next_obs the
        following step of that instance, and only the last step done."""
        agent = make_agent()
        agent.observe(episode_states((1.0, 2.0), 4), [0] * 4, [0.0] * 4)  # another episode first
        instance = (3.0, 2.0)
        actions, rewards = [t % 4 for t in range(n)], [0.25 * t for t in range(n)]
        agent.observe(episode_states(instance, n), actions, rewards)
        assert len(agent.buffer) == 4 + n
        rows = agent.buffer.rows[4 : 4 + n]  # obs 0:3 | action 3 | reward 4 | next_obs 5:8 | done 8
        for t in range(n):
            assert np.array_equal(rows[t, :3], per_step_encoding(agent, t, instance))
            assert np.array_equal(rows[t, 5:8], per_step_encoding(agent, t + 1, instance))
        assert list(rows[:, 3]) == actions and list(rows[:, 4]) == rewards
        assert list(rows[:, 8]) == [0.0] * (n - 1) + [1.0]

    @pytest.mark.parametrize("instance, n_states, n_actions, n_rewards", [
        ((1.0, 2.0), 0, 0, 0), ((1.0, 2.0), 12, 12, 12), ((1.0, 2.0), 3, 3, 2),
        ((1.0, 2.0), 2, 2, 3), ((1.0, 2.0), 2, 3, 3), ((1.0, 2.0), 4, 3, 3),
        ((1.0, 2.0), 0, 3, 3), ((1.0,), 3, 3, 3), ((1.0, 2.0, 3.0), 3, 3, 3),
    ], ids=["empty", "past-horizon", "a-reward-short", "a-reward-over", "a-state-short",
            "a-state-over", "no-state", "short-instance", "long-instance"])
    def test_a_malformed_episode_is_refused(self, instance, n_states, n_actions, n_rewards):
        agent = make_agent()
        with pytest.raises(ContractError,
                           match="an episode is 1 to 11 states, an action and a reward each"):
            agent.observe(episode_states(instance, n_states), [0] * n_actions,
                          [0.0] * n_rewards)
        assert len(agent.buffer) == 0

    def test_input_rows_outlive_updates_within_a_bound(self):
        agent = DQNAgent(action_count=2, horizon=11, context_dim=2, total_episodes=2000,
                         rng=derive_stream(95, 0), context_scales=(0.01, 1 / 11))
        rng, env, sizes = derive_stream(95, 1), SigmoidEnv(11), set()
        kept = agent.input_rows((1.0, 5.0))
        run_training_episode(agent, env, (1.0, 5.0), SeedSpec(95, 0), rng, rng)
        assert agent.input_rows((1.0, 5.0)) is kept
        for episode in range(1, 2001):  # distribution mode: a new instance every episode
            run_training_episode(agent, env, sample_sigmoid_instance(rng, 11),
                                 SeedSpec(95, episode), rng, rng)
            sizes.add(len(agent._rows))
        assert max(sizes) == INPUT_ROWS_KEPT

    def test_input_rows_are_read_only(self):
        rows = make_agent().input_rows((1.0, 2.0))
        with pytest.raises(ValueError):
            rows[0, 0] = 5.0
