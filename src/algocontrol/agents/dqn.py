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

from ..core import ActionId, ContractError, Instance, Observation
from .tabular import AgentHyperparams

HIDDEN_UNITS = 50
EPSILON_START = 1.0
EPSILON_END = 0.02
# Instances whose input rows a DQN agent keeps: the 100 training plus 100
# test instances of a fixed-set run fit; with more, the memo starts over.
INPUT_ROWS_KEPT = 256


class MLPQNet:
    """input_dim -> 50 ReLU -> action_count; ``w1, b1, w2, b2`` are views of one
    float64 vector ``theta``, all NaN for a caller to fill when built without ``rng``.
    ``grad`` is laid out like ``theta``: the SGD step writes its gradient there."""

    def __init__(
        self, input_dim: int, action_count: int, rng: np.random.Generator | None = None,
        hidden: int = HIDDEN_UNITS,
    ) -> None:
        if input_dim < 1 or action_count < 1:
            raise ContractError("input_dim and action_count must be >= 1")
        self.input_dim, self.action_count, self.hidden = input_dim, action_count, hidden
        size = (input_dim + 1) * hidden + (hidden + 1) * action_count
        self.theta = np.full(size, np.nan if rng is None else 0.0)
        self.w1, self.b1, self.w2, self.b2 = self._blocks(self.theta)
        self.grad = np.zeros(size)
        self._grad_blocks = self._blocks(self.grad)
        # The SGD step's batch row indices and dLoss/dQ buffer, for its one batch size.
        self._scratch = (np.arange(0), np.empty((0, action_count)))
        if rng is not None:  # He initialization for the ReLU layer, Xavier-ish for the head
            self.w1[...] = rng.normal(0.0, np.sqrt(2.0 / input_dim), self.w1.shape)
            self.w2[...] = rng.normal(0.0, np.sqrt(1.0 / hidden), self.w2.shape)

    def _blocks(self, vector: np.ndarray) -> tuple[np.ndarray, ...]:
        """``vector`` split into w1, b1, w2, b2 (in that order) as shaped views."""
        d, h, a = self.input_dim, self.hidden, self.action_count
        w1, b1, w2, b2 = np.split(vector, np.cumsum([d * h, h, h * a]))
        return w1.reshape(d, h), b1, w2.reshape(h, a), b2

    def parameters(self) -> list[np.ndarray]:
        return [self.w1, self.b1, self.w2, self.b2]

    def _layers(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pre-activations, hidden activations and Q-values of float64 rows ``x``."""
        z1 = x @ self.w1 + self.b1
        h = np.maximum(z1, 0.0)
        return z1, h, h @ self.w2 + self.b2

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
        # Uninitialised: ``sample`` reads only rows below ``len``, all written.
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

    def sample(self, rng: np.random.Generator, batch_size: int) -> tuple:
        """Uniform sample with replacement, as column views (obs, actions,
        rewards, next_obs, dones) of one gather; actions come as int64."""
        if self._size == 0:
            raise ContractError("cannot sample from an empty replay buffer")
        batch = self.rows.take(rng.integers(self._size, size=batch_size), axis=0)
        d = self.obs_dim
        return (batch[:, :d], batch[:, d].astype(np.int64), batch[:, d + 1],
                batch[:, d + 2 : 2 * d + 2], batch[:, 2 * d + 2])

    def __len__(self) -> int:
        return self._size


def _loss_into_grad(
    net: MLPQNet, target_net: MLPQNet, batch: tuple, hp: AgentHyperparams
) -> float:
    """Mean squared TD error with the double-DQN target on a
    ``ReplayBuffer.sample`` batch; its gradient overwrites ``net.grad``.

    Target: r + gamma * Q_target(s', argmax_a Q_online(s', a)), masked on
    terminal transitions.
    """
    x, actions, rewards, next_obs, dones = batch
    n = x.shape[0]
    if n == 0:
        raise ContractError("batch must be non-empty")
    rows, dq = net._scratch
    if len(rows) != n:
        rows, dq = net._scratch = np.arange(n), np.empty((n, net.action_count))

    next_actions = np.argmax(net._layers(next_obs)[2], axis=1)
    bootstrap = target_net._layers(next_obs)[2][rows, next_actions]
    targets = rewards + hp.gamma * bootstrap * (1.0 - dones)

    z1, h, q = net._layers(x)
    diff = q[rows, actions] - targets

    dq.fill(0.0)
    dq[rows, actions] = 2.0 * diff / n
    dw1, db1, dw2, db2 = net._grad_blocks
    np.matmul(h.T, dq, out=dw2)
    np.add.reduce(dq, axis=0, out=db2)
    dh = dq @ net.w2.T
    dh[z1 <= 0.0] = 0.0
    # Contiguous: numpy's vector path (input_dim or hidden 1) rounds strided x.T differently.
    np.matmul(np.ascontiguousarray(x).T, dh, out=dw1)
    np.add.reduce(dh, axis=0, out=db1)
    return float(np.add.reduce(diff * diff)) / n  # the sum and division of np.mean


def dqn_train_step(
    net: MLPQNet, target_net: MLPQNet, batch: tuple, hp: AgentHyperparams
) -> float:
    """One SGD step on the double-DQN TD loss; returns the loss."""
    loss = _loss_into_grad(net, target_net, batch, hp)
    net.grad *= hp.dqn_lr
    net.theta -= net.grad
    return loss


class DQNAgent:
    """Double DQN agent over the benchmark observation encoding.

    Observations are encoded as [t / T, *scaled continuous features];
    histories are not part of the encoding (the sigmoid-family
    benchmarks, the intended users of this agent, expose none). Feature
    scales bring the inputs to unit order; raw scale values near +-100
    blow up plain SGD.

    The encoding depends only on (t, instance), and the network changes
    only in ``end_episode``. So the inputs of all T + 1 time steps of an
    instance are built at once and kept across updates (for up to
    ``INPUT_ROWS_KEPT`` instances), and its T greedy actions come from one
    stacked forward, kept until the next SGD step. ε is likewise set once
    per episode, in ``end_episode``. An episode's transitions reach the
    replay ring in one write, in ``end_episode``: they are consecutive
    time steps of one instance, so their obs and next_obs are two slices
    of that instance's input rows.
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
        self.target_net = MLPQNet(self.input_dim, action_count, hidden=self.net.hidden)
        self.target_net.theta[...] = self.net.theta
        self.buffer = ReplayBuffer(self.hp.buffer_capacity, self.input_dim)
        self.batch_size = self.hp.batch_size if self.hp.batch_size > 0 else horizon
        self.decay_episodes = max(1, int(round(total_episodes * self.hp.eps_decay_fraction)))
        self.episodes_trained = 0
        self._epsilon = self.epsilon
        self.last_loss = 0.0
        self._rows: dict[Instance, np.ndarray] = {}
        self._greedy: dict[Instance, list[ActionId]] = {}
        self._episode: list[tuple] = []

    def encode(self, obs: Observation) -> Observation:
        """The observation itself; ``input_rows`` holds its network input."""
        return obs

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

    def _greedy_actions(self, instance: Instance) -> list[ActionId]:
        """Greedy action of each time step 0..T-1 on ``instance``."""
        actions = self._greedy.get(instance)
        if actions is None:
            q = self.net.forward(self.input_rows(instance)[: self.horizon])
            actions = self._greedy[instance] = np.argmax(q, axis=1).tolist()
        return actions

    @property
    def epsilon(self) -> float:
        """Exploration rate: linear from 1.0 at episode 0 down to 0.02."""
        if self.episodes_trained >= self.decay_episodes:
            return EPSILON_END
        frac = self.episodes_trained / self.decay_episodes
        return EPSILON_START + (EPSILON_END - EPSILON_START) * frac

    def select_action(self, s: Observation, rng: np.random.Generator) -> ActionId:
        if rng.random() < self._epsilon:
            return int(rng.integers(self.action_count))
        return self._greedy_actions(s.continuous_features)[s.time_step]

    def observe(self, s: Observation, action: ActionId, reward: float,
                s_next: Observation, done: bool) -> None:
        """Keep one transition of the current episode; its next observation
        is the next time step of the same instance, as every environment's
        ``step`` returns."""
        self._episode.append((s.continuous_features, s.time_step, action, reward, done))

    def end_episode(self, rng: np.random.Generator) -> None:
        """Write the episode's transitions to the replay ring, take one
        SGD step on a replay sample, then sync the target every
        ``target_sync_every`` episodes. An episode that is not consecutive
        time steps of one instance, or a loss or parameter that is not
        finite, raises ContractError."""
        episode = self.episodes_trained + 1
        if self._episode:
            instances, times, actions, rewards, dones = zip(*self._episode)
            self._episode = []
            t0, n = times[0], len(times)
            if instances.count(instances[0]) != n:
                raise ContractError("the transitions of one episode must share one instance")
            if times != tuple(range(t0, t0 + n)) or t0 < 0 or t0 + n > self.horizon:
                raise ContractError(f"episode time steps must be consecutive in 0..T: {times}")
            rows = self.input_rows(instances[0])
            self.buffer.extend(rows[t0 : t0 + n], actions, rewards, rows[t0 + 1 : t0 + n + 1],
                               dones)
        if len(self.buffer) > 0:
            batch = self.buffer.sample(rng, self.batch_size)
            self.last_loss = dqn_train_step(self.net, self.target_net, batch, self.hp)
            self._greedy.clear()
            if not (math.isfinite(self.last_loss) and np.isfinite(self.net.theta).all()):
                raise ContractError(
                    f"DQN training diverged in episode {episode}: loss {self.last_loss!r} "
                    "or an updated parameter is not finite"
                )
        self.episodes_trained = episode
        self._epsilon = self.epsilon
        if episode % self.hp.target_sync_every == 0:
            self.target_net.theta[...] = self.net.theta

    def greedy_action(self, obs: Observation) -> ActionId:
        return self._greedy_actions(obs.continuous_features)[obs.time_step]
