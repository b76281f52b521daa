"""Function-approximation Q-learning: a small double DQN, from scratch.

The network is a fully connected ReLU net with one hidden layer of 50
units, trained by plain SGD on the mean squared TD error with a
periodically synced target network and a uniform replay buffer. One
training iteration consumes one episode: the batch size equals the
episode length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import ActionId, ContractError, Observation
from .tabular import AgentHyperparams

HIDDEN_UNITS = 50
EPSILON_START = 1.0
EPSILON_END = 0.02


class MLPQNet:
    """input_dim -> 50 ReLU -> action_count, float64 parameters."""

    def __init__(
        self, input_dim: int, action_count: int, rng: np.random.Generator,
        hidden: int = HIDDEN_UNITS,
    ) -> None:
        if input_dim < 1 or action_count < 1:
            raise ContractError("input_dim and action_count must be >= 1")
        self.input_dim = input_dim
        self.action_count = action_count
        self.hidden = hidden
        # He initialization for the ReLU layer, Xavier-ish for the head.
        self.w1 = rng.normal(0.0, np.sqrt(2.0 / input_dim), (input_dim, hidden))
        self.b1 = np.zeros(hidden)
        self.w2 = rng.normal(0.0, np.sqrt(1.0 / hidden), (hidden, action_count))
        self.b2 = np.zeros(action_count)

    def parameters(self) -> list[np.ndarray]:
        return [self.w1, self.b1, self.w2, self.b2]

    def copy_from(self, other: "MLPQNet") -> None:
        self.w1 = other.w1.copy()
        self.b1 = other.b1.copy()
        self.w2 = other.w2.copy()
        self.b2 = other.b2.copy()

    def clone(self) -> "MLPQNet":
        clone = object.__new__(MLPQNet)
        clone.input_dim = self.input_dim
        clone.action_count = self.action_count
        clone.hidden = self.hidden
        clone.copy_from(self)
        return clone

    def forward(self, obs: np.ndarray) -> np.ndarray:
        """Q-values for a single observation vector or a batch of rows."""
        x = np.asarray(obs, dtype=float)
        single = x.ndim == 1
        if single:
            x = x[None, :]
        if x.shape[1] != self.input_dim:
            raise ContractError(
                f"observation dim {x.shape[1]} != network input dim {self.input_dim}"
            )
        h = np.maximum(x @ self.w1 + self.b1, 0.0)
        q = h @ self.w2 + self.b2
        return q[0] if single else q


@dataclass
class Batch:
    obs: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_obs: np.ndarray
    dones: np.ndarray


class ReplayBuffer:
    """Fixed-capacity ring of transitions with uniform sampling."""

    def __init__(self, capacity: int, obs_dim: int) -> None:
        if capacity < 1:
            raise ContractError("capacity must be >= 1")
        self.capacity = capacity
        self.obs = np.zeros((capacity, obs_dim))
        self.actions = np.zeros(capacity, dtype=np.int64)
        self.rewards = np.zeros(capacity)
        self.next_obs = np.zeros((capacity, obs_dim))
        self.dones = np.zeros(capacity, dtype=bool)
        self._next = 0
        self._size = 0

    def push(
        self,
        obs: np.ndarray,
        action: ActionId,
        reward: float,
        next_obs: np.ndarray,
        done: bool,
    ) -> None:
        i = self._next
        self.obs[i] = obs
        self.actions[i] = action
        self.rewards[i] = reward
        self.next_obs[i] = next_obs
        self.dones[i] = done
        self._next = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, rng: np.random.Generator, batch_size: int) -> Batch:
        """Uniform sample with replacement from the stored transitions."""
        if self._size == 0:
            raise ContractError("cannot sample from an empty replay buffer")
        idx = rng.integers(self._size, size=batch_size)
        return Batch(
            obs=self.obs[idx],
            actions=self.actions[idx],
            rewards=self.rewards[idx],
            next_obs=self.next_obs[idx],
            dones=self.dones[idx],
        )

    def __len__(self) -> int:
        return self._size


def dqn_loss_and_grads(
    net: MLPQNet, target_net: MLPQNet, batch: Batch, hp: AgentHyperparams
) -> tuple[float, list[np.ndarray]]:
    """Mean squared TD error with the double-DQN target and its gradient.

    Target: r + gamma * Q_target(s', argmax_a Q_online(s', a)), masked on
    terminal transitions.
    """
    n = batch.obs.shape[0]
    if n == 0:
        raise ContractError("batch must be non-empty")

    next_online = net.forward(batch.next_obs)
    next_actions = np.argmax(next_online, axis=1)
    next_target = target_net.forward(batch.next_obs)
    bootstrap = next_target[np.arange(n), next_actions]
    targets = batch.rewards + hp.gamma * bootstrap * (~batch.dones)

    x = batch.obs
    z1 = x @ net.w1 + net.b1
    h = np.maximum(z1, 0.0)
    q = h @ net.w2 + net.b2
    chosen = q[np.arange(n), batch.actions]

    diff = chosen - targets
    loss = float(np.mean(diff**2))

    dq = np.zeros_like(q)
    dq[np.arange(n), batch.actions] = 2.0 * diff / n
    dw2 = h.T @ dq
    db2 = dq.sum(axis=0)
    dh = dq @ net.w2.T
    dh[z1 <= 0.0] = 0.0
    dw1 = x.T @ dh
    db1 = dh.sum(axis=0)
    return loss, [dw1, db1, dw2, db2]


def dqn_train_step(
    net: MLPQNet, target_net: MLPQNet, batch: Batch, hp: AgentHyperparams
) -> float:
    """One SGD step on the double-DQN TD loss; returns the loss."""
    loss, grads = dqn_loss_and_grads(net, target_net, batch, hp)
    for param, grad in zip(net.parameters(), grads):
        param -= hp.dqn_lr * grad
    return loss


def dqn_epsilon(episode: int, total_decay_episodes: int) -> float:
    """Exploration rate: linear from 1.0 at episode 0 down to 0.02."""
    if total_decay_episodes < 1:
        raise ContractError("total_decay_episodes must be >= 1")
    if episode >= total_decay_episodes:
        return EPSILON_END
    frac = episode / total_decay_episodes
    return EPSILON_START + (EPSILON_END - EPSILON_START) * frac


def sync_target(
    net: MLPQNet, target_net: MLPQNet, episode: int, hp: AgentHyperparams
) -> MLPQNet:
    """Copy online parameters into the target every N episodes."""
    if episode % hp.target_sync_every == 0:
        target_net.copy_from(net)
    return target_net


class DQNAgent:
    """Double DQN agent over the benchmark observation encoding.

    Observations are encoded as [t / T, *scaled continuous features];
    histories are not part of the encoding (the sigmoid-family
    benchmarks, the intended users of this agent, expose none). Feature
    scales bring the inputs to unit order; raw scale values near +-100
    blow up plain SGD.
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
        init_rng = rng if rng is not None else np.random.default_rng(0)
        self.net = MLPQNet(self.input_dim, action_count, init_rng)
        self.target_net = self.net.clone()
        self.buffer = ReplayBuffer(self.hp.buffer_capacity, self.input_dim)
        self.batch_size = self.hp.batch_size if self.hp.batch_size > 0 else horizon
        self.decay_episodes = max(1, int(round(total_episodes * self.hp.eps_decay_fraction)))
        self.episodes_trained = 0
        self.last_loss = 0.0

    def encode(self, obs: Observation) -> np.ndarray:
        out = np.empty(self.input_dim)
        out[0] = obs.time_step / self.horizon
        if self.input_dim > 1:
            out[1:] = np.asarray(obs.continuous_features) * self.context_scales
        return out

    @property
    def epsilon(self) -> float:
        return dqn_epsilon(self.episodes_trained, self.decay_episodes)

    def begin_episode(self) -> None:
        pass

    def select_action(self, obs: Observation, rng: np.random.Generator) -> ActionId:
        if rng.random() < self.epsilon:
            return int(rng.integers(self.action_count))
        return int(np.argmax(self.net.forward(self.encode(obs))))

    def observe(
        self,
        obs: Observation,
        action: ActionId,
        reward: float,
        next_obs: Observation,
        done: bool,
    ) -> None:
        self.buffer.push(self.encode(obs), action, reward, self.encode(next_obs), done)

    def end_episode(self, rng: np.random.Generator | None = None) -> None:
        sample_rng = rng if rng is not None else np.random.default_rng(0)
        if len(self.buffer) > 0:
            batch = self.buffer.sample(sample_rng, self.batch_size)
            self.last_loss = dqn_train_step(self.net, self.target_net, batch, self.hp)
        self.episodes_trained += 1
        sync_target(self.net, self.target_net, self.episodes_trained, self.hp)

    def greedy_action(self, obs: Observation) -> ActionId:
        return int(np.argmax(self.net.forward(self.encode(obs))))
