"""Function-approximation Q-learning: a small double DQN, from scratch.

The network is a fully connected ReLU net with one hidden layer of 50
units, trained by plain SGD on the mean squared TD error with a
periodically synced target network and a uniform replay buffer. One
training iteration consumes one episode: the batch size equals the
episode length.
"""

from __future__ import annotations

import math

import numpy as np

from ..core import ActionId, BlockStream, ContractError, Instance, Observation
from .tabular import AgentHyperparams

HIDDEN_UNITS = 50
EPSILON_START = 1.0
EPSILON_END = 0.02
# Instances whose input rows a DQN agent keeps: the 100 training plus 100
# test instances of a fixed-set run fit; with more, the memo starts over.
INPUT_ROWS_KEPT = 256
# Instances per forward of a checkpoint's greedy fill. Every instance of a
# 200-instance checkpoint in one forward raises peak RSS by about 1 MB.
GREEDY_CHUNK = 8


class MLPQNet:
    """input_dim -> 50 ReLU -> action_count; ``w1, b1, w2, b2`` are views of one
    float64 vector ``theta``, all NaN for a caller to fill when built without ``rng``.
    ``grad`` is laid out like ``theta``: the SGD step writes its gradient there.

    Given ``theta`` (and ``grad``), the net views those arrays instead: a row
    of a ``DQNGroup``'s stacked arrays, or the whole ``(S, size)`` stack, whose
    blocks then carry a leading seed axis."""

    def __init__(
        self, input_dim: int, action_count: int, rng: np.random.Generator | None = None,
        hidden: int = HIDDEN_UNITS, theta: np.ndarray | None = None,
        grad: np.ndarray | None = None,
    ) -> None:
        if input_dim < 1 or action_count < 1:
            raise ContractError("input_dim and action_count must be >= 1")
        self.input_dim, self.action_count, self.hidden = input_dim, action_count, hidden
        if theta is None:
            size = (input_dim + 1) * hidden + (hidden + 1) * action_count
            theta = np.full(size, np.nan if rng is None else 0.0)
        self.theta = theta
        self.w1, self.b1, self.w2, self.b2 = self._blocks(self.theta)
        self._bias_rows = (self.b1[..., None, :], self.b2[..., None, :])  # broadcast over rows
        self.grad = np.zeros(theta.shape) if grad is None else grad
        self._grad_blocks = self._blocks(self.grad)
        # The SGD step's flat row offsets and dLoss/dQ buffer, for its one batch shape.
        self._scratch = (None, np.empty((0, action_count)))
        if rng is not None:  # He initialization for the ReLU layer, Xavier-ish for the head
            self.w1[...] = rng.normal(0.0, np.sqrt(2.0 / input_dim), self.w1.shape)
            self.w2[...] = rng.normal(0.0, np.sqrt(1.0 / hidden), self.w2.shape)

    def _blocks(self, vector: np.ndarray) -> tuple[np.ndarray, ...]:
        """``vector`` split into w1, b1, w2, b2 (in that order) as shaped views;
        leading axes are kept."""
        d, h, a = self.input_dim, self.hidden, self.action_count
        lead = vector.shape[:-1]
        w1, b1, w2, b2 = np.split(vector, np.cumsum([d * h, h, h * a]), axis=-1)
        return w1.reshape(lead + (d, h)), b1, w2.reshape(lead + (h, a)), b2

    def parameters(self) -> list[np.ndarray]:
        return [self.w1, self.b1, self.w2, self.b2]

    def _layers(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pre-activations, hidden activations and Q-values of float64 rows ``x``
        (``(..., N, input_dim)``, with the net's leading axes if it has any)."""
        b1, b2 = self._bias_rows
        z1 = x @ self.w1 + b1
        h = np.maximum(z1, 0.0)
        return z1, h, h @ self.w2 + b2

    def forward(self, obs: np.ndarray) -> np.ndarray:
        """Q-values ``(N, action_count)`` of the rows of an ``(N, input_dim)``
        array. Each row runs the single-row product, so its Q-values do not
        depend on the rows beside it; any other shape raises ContractError."""
        x = np.asarray(obs, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ContractError(f"forward takes (N, {self.input_dim}) rows, not shape {x.shape}")
        return self._layers(x[:, None, :])[2][:, 0, :]


class ReplayBuffer:
    """Fixed-capacity ring of transitions with uniform sampling, one row
    of ``rows`` per transition: obs | action | reward | next_obs | done."""

    def __init__(self, capacity: int, obs_dim: int) -> None:
        if capacity < 1:
            raise ContractError("capacity must be >= 1")
        self.capacity = capacity
        self.obs_dim = obs_dim
        # Uninitialised: ``gather`` reads only rows below ``len``, all written.
        self.rows = np.empty((capacity, 2 * obs_dim + 3))
        self._next = 0
        self._size = 0

    def extend(self, obs, actions, rewards, next_obs, dones) -> None:
        """Write transitions in order, as one ring write per transition
        would: of more than ``capacity`` transitions, the last
        ``capacity`` stay."""
        n = len(actions)
        keep = min(n, self.capacity)
        start = (self._next + n - keep) % self.capacity
        if start + keep <= self.capacity:
            idx = slice(start, start + keep)
        else:
            idx = (start + np.arange(keep)) % self.capacity
        d, rows = self.obs_dim, self.rows
        rows[idx, :d] = obs[n - keep:]
        rows[idx, d] = actions[n - keep:]
        rows[idx, d + 1] = rewards[n - keep:]
        rows[idx, d + 2 : 2 * d + 2] = next_obs[n - keep:]
        rows[idx, 2 * d + 2] = dones[n - keep:]
        self._next = (self._next + n) % self.capacity
        self._size = min(self._size + n, self.capacity)

    def gather(self, rng: BlockStream, out: np.ndarray) -> np.ndarray:
        """Fill the rows of ``out`` with a uniform sample, with replacement, of
        the ring's rows, drawn from ``rng``; returns ``out``."""
        if self._size == 0:
            raise ContractError("cannot sample from an empty replay buffer")
        # Every index is in range, so "clip" changes no row; unlike "raise", it
        # writes straight into ``out``.
        return self.rows.take(rng.integers(self._size, size=len(out)), axis=0, out=out,
                              mode="clip")

    def __len__(self) -> int:
        return self._size


def _columns(batch: np.ndarray, obs_dim: int) -> tuple:
    """Column views (obs, actions, rewards, next_obs, dones) of ring rows
    ``(..., n, 2 * obs_dim + 3)``; actions are still float64."""
    d = obs_dim
    return (batch[..., :d], batch[..., d], batch[..., d + 1], batch[..., d + 2 : 2 * d + 2],
            batch[..., 2 * d + 2])


def _loss_into_grad(
    net: MLPQNet, target_net: MLPQNet, batch: tuple, hp: AgentHyperparams
) -> np.ndarray:
    """Mean squared TD error with the double-DQN target on a batch of
    ``_columns`` (actions as int64); its gradient overwrites ``net.grad``.

    Target: r + gamma * Q_target(s', argmax_a Q_online(s', a)), masked on
    terminal transitions. A stacked net takes a batch with the same leading
    seed axis and returns one loss per seed: each seed's products, sums and
    indexing are those of a lone net on its own batch.
    """
    x, actions, rewards, next_obs, dones = batch
    n = x.shape[-2]
    if n == 0:
        raise ContractError("batch must be non-empty")
    base, dq = net._scratch  # base: the flat offset of each row's first Q-value
    if dq.shape[:-1] != actions.shape:
        a = net.action_count
        base, dq = net._scratch = (np.arange(0, actions.size * a, a).reshape(actions.shape),
                                   np.empty(actions.shape + (a,)))

    next_actions = net._layers(next_obs)[2].argmax(axis=-1)
    bootstrap = target_net._layers(next_obs)[2].take(base + next_actions)
    targets = rewards + hp.gamma * bootstrap * (1.0 - dones)

    z1, h, q = net._layers(x)
    chosen = base + actions
    diff = q.take(chosen) - targets

    dq.fill(0.0)
    dq.put(chosen, 2.0 * diff / n)
    dw1, db1, dw2, db2 = net._grad_blocks
    np.matmul(h.swapaxes(-1, -2), dq, out=dw2)
    np.add.reduce(dq, axis=-2, out=db2)
    dh = dq @ net.w2.swapaxes(-1, -2)
    np.copyto(dh, 0.0, where=z1 <= 0.0)
    # Contiguous: numpy's vector path (input_dim or hidden 1) rounds strided x.T differently.
    np.matmul(np.ascontiguousarray(x).swapaxes(-1, -2), dh, out=dw1)
    np.add.reduce(dh, axis=-2, out=db1)
    return np.add.reduce(diff * diff, axis=-1) / n  # the sum and division of np.mean


def dqn_train_step(
    net: MLPQNet, target_net: MLPQNet, batch: tuple, hp: AgentHyperparams
) -> np.ndarray:
    """One SGD step on the double-DQN TD loss; returns the loss (one per
    seed of a stacked net)."""
    loss = _loss_into_grad(net, target_net, batch, hp)
    net.grad *= hp.dqn_lr
    net.theta -= net.grad
    return loss


class DQNGroup:
    """DQN agents that train in lockstep, with one stacked SGD step per round.

    Each member's ``net.theta``/``net.grad`` and ``target_net.theta`` are rows
    of the group's ``(S, size)`` arrays, so whatever reads one agent's
    network reads its row. A round is one episode of every member, in any
    order: each member's ``end_episode`` samples its own replay ring, with its
    own stream, into its slot of the group batch, and the round's last one
    takes one ``dqn_train_step`` for all members. Each member's step equals,
    bit for bit, the step it would take alone. ``names`` name the members in
    a divergence error. A ``DQNAgent`` starts as a group of one, whose step
    runs on its own row, without the seed axis. The group holds a member
    only from its ``end_episode`` to the round's step, so once its caller
    lets go of the members, their replay rings are freed at once.
    """

    def __init__(self, agents: list["DQNAgent"], names: list[str] | None = None) -> None:
        first = agents[0]
        d, a, h = first.input_dim, first.action_count, first.net.hidden
        if any((x.input_dim, x.action_count, x.net.hidden, x.batch_size, x.hp)
               != (d, a, h, first.batch_size, first.hp) for x in agents):
            raise ContractError(
                "agents in lockstep must share network shape, batch size and hyperparameters"
            )
        self.names = names or [f"agent {k}" for k in range(len(agents))]
        self.hp = first.hp
        self.theta = np.stack([x.net.theta for x in agents])
        grad, target = np.zeros(self.theta.shape), np.stack([x.target_net.theta for x in agents])
        self.batch = np.empty((len(agents), first.batch_size, 2 * d + 3))
        # The step's nets and batch: the stacks, or a lone member's rows, whose
        # single-network products are cheaper than those of a stack of one.
        step = slice(None) if len(agents) > 1 else 0
        self.net = MLPQNet(d, a, hidden=h, theta=self.theta[step], grad=grad[step])
        self.target_net = MLPQNet(d, a, hidden=h, theta=target[step])
        self._columns = _columns(self.batch[step], d)
        for k, agent in enumerate(agents):
            agent.net = MLPQNet(d, a, hidden=h, theta=self.theta[k], grad=grad[k])
            agent.target_net = MLPQNet(d, a, hidden=h, theta=target[k])
            agent._group, agent._slot = self, k
        # The members that ended this round's episode, by slot. Only these are
        # held, until the round's step: an agent holds its group, so holding
        # every member for good would make cycles that keep the replay rings
        # alive until a full garbage collection.
        self._round: dict[int, DQNAgent] = {}
        self._sampled = 0  # how many of them sampled a batch

    def end_episode(self, agent: "DQNAgent", rng: BlockStream) -> None:
        """Member ``agent`` has ended its episode of this round: sample its
        batch with ``rng``, and if it is the round's last, take the round's step."""
        k = agent._slot
        if k in self._round:
            raise ContractError(f"{self.names[k]} ended two episodes in one lockstep round")
        self._round[k] = agent
        if len(agent.buffer) > 0:
            agent.buffer.gather(rng, self.batch[k])
            self._sampled += 1
        if len(self._round) == len(self.names):
            self._step()

    def _step(self) -> None:
        """The round's SGD step (none while no member has replay data), its
        finiteness check, then each member's greedy-cache clear, ε and
        target sync."""
        members, sampled = self._round, self._sampled
        self._round, self._sampled = {}, 0
        if sampled:
            if sampled < len(members):
                empty = min(k for k, agent in members.items() if len(agent.buffer) == 0)
                raise ContractError(f"{self.names[empty]} has no replay data in a lockstep "
                                    "round where other members have")
            x, actions, rewards, next_obs, dones = self._columns
            batch = (x, actions.astype(np.int64), rewards, next_obs, dones)
            # One loss per member; a lone member's step returns a scalar.
            losses = dqn_train_step(self.net, self.target_net, batch, self.hp).reshape(-1).tolist()
            theta = self.theta
            if not (all(map(math.isfinite, losses)) and np.isfinite(theta).all()):
                k = next(k for k, loss in enumerate(losses)
                         if not (math.isfinite(loss) and np.isfinite(theta[k]).all()))
                raise ContractError(
                    f"DQN training of {self.names[k]} diverged in episode "
                    f"{members[k].episodes_trained + 1}: loss {losses[k]!r} "
                    "or an updated parameter is not finite"
                )
            for k, agent in members.items():
                agent.last_loss = losses[k]
                agent._greedy.clear()
        for agent in members.values():
            agent.episodes_trained += 1
            agent._epsilon = agent.epsilon
            if agent.episodes_trained % agent.hp.target_sync_every == 0:
                agent.target_net.theta[...] = agent.net.theta


class DQNAgent:
    """Double DQN agent over the benchmark observation encoding.

    Observations are encoded as [t / T, *scaled continuous features];
    histories are not part of the encoding (the sigmoid-family
    benchmarks, the intended users of this agent, expose none). Feature
    scales bring the inputs to unit order; raw scale values near +-100
    blow up plain SGD.

    The encoding depends only on (t, instance), and the network changes
    only in its group's SGD step. So the inputs of all T + 1 time steps of
    an instance are built at once and kept across updates (for up to
    ``INPUT_ROWS_KEPT`` instances), and its T greedy actions come from one
    stacked forward, kept until the next SGD step. ε is likewise set once
    per episode, after that step. So no choice of an episode depends on
    its rewards: ``select_action(s, rng)`` picks the whole path on states ``(t,
    features(instance), history)``, whose features are the instance, ``observe``
    writes it to the replay ring in one write, and a checkpoint scores
    ``greedy_paths(instances)`` with ``Environment.path_rewards``; that fill
    forwards the rows of ``GREEDY_CHUNK`` instances at a time.
    """

    kind = "dqn"

    def __init__(
        self,
        action_count: int,
        horizon: int,
        context_dim: int,
        total_episodes: int,
        hp: AgentHyperparams | None = None,
        rng: np.random.Generator | None = None,
        context_scales: tuple[float, ...] | None = None,
        net: MLPQNet | None = None,
    ) -> None:
        self.hp = hp or AgentHyperparams()
        self.action_count = action_count
        self.horizon = horizon
        self.input_dim = 1 + context_dim
        if context_scales is None:
            context_scales = (1.0,) * context_dim
        if len(context_scales) != context_dim:
            raise ContractError("context_scales length must equal context_dim")
        self.context_scales = np.array(context_scales, dtype=float)
        self.net = net or MLPQNet(self.input_dim, action_count, rng or np.random.default_rng(0))
        self.target_net = MLPQNet(self.input_dim, action_count, hidden=self.net.hidden,
                                  theta=self.net.theta.copy())
        self.buffer = ReplayBuffer(self.hp.buffer_capacity, self.input_dim)
        self.batch_size = self.hp.batch_size if self.hp.batch_size > 0 else horizon
        self.decay_episodes = max(1, int(round(total_episodes * self.hp.eps_decay_fraction)))
        self.episodes_trained = 0
        self._epsilon = self.epsilon
        self.last_loss = 0.0
        self._rows: dict[Instance, np.ndarray] = {}
        self._greedy: dict[Instance, list[ActionId]] = {}
        DQNGroup([self])  # sets net, target_net, _group and _slot

    def input_rows(self, instance: Instance) -> np.ndarray:
        """Network inputs of time steps 0..T on ``instance``, one row each."""
        rows = self._rows.get(instance)
        if rows is None:
            if len(self._rows) >= INPUT_ROWS_KEPT:
                self._rows.clear()
            rows = np.empty((self.horizon + 1, self.input_dim))
            rows[:, 0] = np.arange(self.horizon + 1) / self.horizon
            rows[:, 1:] = np.asarray(instance) * self.context_scales
            rows.flags.writeable = False  # shared by every caller
            self._rows[instance] = rows
        return rows

    def greedy_path(self, instance: Instance) -> list[ActionId]:
        """Greedy action of each time step 0..T-1 on ``instance``."""
        actions = self._greedy.get(instance)
        if actions is None:
            self._fill([instance])
            actions = self._greedy[instance]
        return actions

    def greedy_paths(self, instances: list[Instance]) -> list[list[ActionId]]:
        """``greedy_path`` of each of ``instances``, in order, from one fill of
        those not memoised yet."""
        greedy = self._greedy
        self._fill([i for i in dict.fromkeys(instances) if i not in greedy])
        return [greedy[i] for i in instances]

    def _fill(self, new: list[Instance]) -> None:
        """Memoise the greedy paths of ``new``, distinct instances without one: their
        T input rows go through ``net.forward`` ``GREEDY_CHUNK`` instances at a
        time, concatenated. Each row runs the single-row product, so every path is
        the one a forward of its instance alone gives."""
        greedy, T = self._greedy, self.horizon
        for k in range(0, len(new), GREEDY_CHUNK):
            chunk = new[k : k + GREEDY_CHUNK]
            rows = [self.input_rows(i)[:T] for i in chunk]
            # A lone instance, a training episode's miss, needs no copy of its rows.
            q = self.net.forward(np.concatenate(rows) if len(rows) > 1 else rows[0])
            actions = q.argmax(axis=1).tolist()
            for j, instance in enumerate(chunk):
                greedy[instance] = actions[j * T : (j + 1) * T]

    @property
    def epsilon(self) -> float:
        """Exploration rate: linear from 1.0 at episode 0 down to 0.02."""
        if self.episodes_trained >= self.decay_episodes:
            return EPSILON_END
        frac = self.episodes_trained / self.decay_episodes
        return EPSILON_START + (EPSILON_END - EPSILON_START) * frac

    def features(self, instance: Instance) -> Instance:
        """The features of every state of an episode on ``instance``: the instance."""
        return instance

    def select_action(self, s: tuple, rng: np.random.Generator) -> ActionId:
        """The ε-greedy action of state ``s = (t, instance, history)``."""
        if rng.random() < self._epsilon:
            return int(rng.integers(self.action_count))
        return self.greedy_path(s[1])[s[0]]

    def observe(self, states: list, actions: list[ActionId], rewards: list[float]) -> None:
        """Write one episode to the replay ring, in one write: ``states`` from step 0
        on the instance ``states[0][1]``, their ``actions`` and ``rewards``, the last
        step ending it, so obs and next_obs are two slices of the instance's input
        rows. Any other shape (1 to T states, an action and a reward each,
        context_dim values) is refused."""
        n, instance, d = len(actions), states[0][1] if states else (), self.input_dim - 1
        if not 0 < n == len(states) == len(rewards) <= self.horizon or len(instance) != d:
            raise ContractError(f"an episode is 1 to {self.horizon} states, an action and a "
                                f"reward each, on an instance of {d} values; got {len(states)} "
                                f"states, {n} actions, {len(rewards)} rewards, instance "
                                f"{instance!r}")
        rows = self.input_rows(instance)
        self.buffer.extend(rows[:n], actions, rewards, rows[1 : n + 1], [0.0] * (n - 1) + [1.0])

    def end_episode(self, rng: BlockStream) -> None:
        """Sample a replay batch with ``rng`` into this agent's slot of its
        ``DQNGroup``. The round's last member to end its episode takes one SGD step
        for every member, then syncs each target every ``target_sync_every``
        episodes (alone, an agent does so in each ``end_episode``); until then its
        network, ε and ``episodes_trained`` are the last round's. A loss or
        parameter that is not finite raises ContractError."""
        self._group.end_episode(self, rng)

    def greedy_action(self, obs: Observation) -> ActionId:
        return self.greedy_path(obs.continuous_features)[obs.time_step]
