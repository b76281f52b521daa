"""Tabular learners: Q-learning and the context-oblivious baselines.

All of them key their tables on the same canonical state encoding
(time step, continuous features rounded to the closest integer, recent
action history). URS and GR are the two extremes of epsilon-greedy
Q-learning (epsilon = 1 and 0); PURS selects proportionally to the
expected number of remaining episode steps recorded per state-action.
Every agent evaluates by greedy selection over what it recorded during
training.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..core import ActionId, ConfigError, ContractError, Observation

StateKey = tuple

def state_key(obs: Observation) -> StateKey:
    """Canonical hashable encoding of an observation for table lookup;
    without features, the observation itself (equal to (t, (), history))."""
    t, features, history = obs
    if not features:
        return obs
    return (t, tuple(int(round(f)) for f in features), history)


class QTable:
    """Action-value table: one row of ``action_count`` values per state.

    A state's row is created, all zeros, on the first write to it;
    unseen states read as all zeros. Actions index rows, so they must
    lie in [0, action_count).
    """

    def __init__(self, action_count: int) -> None:
        if action_count < 1:
            raise ContractError("action_count must be >= 1")
        self.action_count = action_count
        self.rows: dict[StateKey, list[float]] = {}
        self._zeros = (0.0,) * action_count

    def get(self, s: StateKey, a: ActionId) -> float:
        row = self.rows.get(s)
        return 0.0 if row is None else row[a]

    def set(self, s: StateKey, a: ActionId, value: float) -> None:
        row = self.rows.get(s)
        if row is None:
            row = self.rows[s] = [0.0] * self.action_count
        row[a] = value

    def row(self, s: StateKey) -> Sequence[float]:
        """The action values of ``s``: the stored row itself, read only."""
        return self.rows.get(s, self._zeros)

    def max(self, s: StateKey) -> float:
        return max(self.row(s))

    def argmax(self, s: StateKey) -> ActionId:
        """Greedy action; ties go to the lowest action index."""
        row = self.row(s)
        return row.index(max(row))

    def copy(self) -> "QTable":
        clone = QTable(self.action_count)
        clone.rows = {s: row[:] for s, row in self.rows.items()}
        return clone

    def __len__(self) -> int:
        """Number of states with a stored row."""
        return len(self.rows)


def argmax_with_random_ties(
    rng: np.random.Generator, q: QTable, s: StateKey, action_count: int
) -> ActionId:
    """Greedy selection breaking exact ties uniformly at random.

    Used during training only: with zero-initialized tables, always
    taking the lowest tied index starves states reached off the greedy
    path, which visibly fattens the time-to-optimum tail.
    """
    row = q.row(s)
    best = max(row)
    tied = [a for a in range(action_count) if row[a] == best]
    if len(tied) == 1:
        return tied[0]
    return tied[int(rng.integers(len(tied)))]


@dataclass
class AgentHyperparams:
    """Shared learner settings; defaults follow the experimental setup."""

    gamma: float = 0.99
    epsilon: float = 0.1
    alpha: float = 1.0
    dqn_lr: float = 5e-4
    target_sync_every: int = 5
    batch_size: int = 0  # 0 = episode length
    buffer_capacity: int = 50_000
    eps_decay_fraction: float = 0.1

    def __post_init__(self) -> None:
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigError("gamma must be in [0, 1]")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ConfigError("epsilon must be in [0, 1]")
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigError("alpha must be in (0, 1]")
        if not 0.0 < self.dqn_lr < math.inf:
            raise ConfigError("dqn_lr must be finite and > 0")
        if self.target_sync_every < 1:
            raise ConfigError("target_sync_every must be >= 1")
        if self.batch_size < 0:
            raise ConfigError("batch_size must be >= 0 (0 = episode length)")
        if self.buffer_capacity < 1:
            raise ConfigError("buffer_capacity must be >= 1")
        if not 0.0 < self.eps_decay_fraction <= 1.0:
            raise ConfigError("eps_decay_fraction must be in (0, 1]")


def q_update(
    q: QTable,
    s: StateKey,
    a: ActionId,
    reward: float,
    s_next: StateKey,
    done: bool,
    hp: AgentHyperparams,
) -> QTable:
    """One-step Q-learning update (in place; the table is returned)."""
    bootstrap = 0.0 if done else q.max(s_next)
    q.set(
        s,
        a,
        (1.0 - hp.alpha) * q.get(s, a) + hp.alpha * (reward + hp.gamma * bootstrap),
    )
    return q


class TabularAgent:
    """Q-table learner covering qlearn, urs, gr and purs behaviours.

    ``kind`` selects the training-time action rule; evaluation is always
    greedy on the learned table. URS and GR are realized as epsilon = 1
    and epsilon = 0.
    """

    KINDS = ("qlearn", "urs", "gr", "purs")

    def __init__(
        self,
        kind: str,
        action_count: int,
        hp: AgentHyperparams | None = None,
    ) -> None:
        if kind not in self.KINDS:
            raise ContractError(f"unknown tabular agent kind {kind!r}")
        self.kind = kind
        self.action_count = action_count
        self.hp = hp or AgentHyperparams()
        if kind == "urs":
            self.epsilon = 1.0
        elif kind == "gr":
            self.epsilon = 0.0
        else:
            self.epsilon = self.hp.epsilon
        self.q = QTable(action_count)
        # PURS ledger, one row per state like the Q rows: visit counts and
        # the running mean of the episode steps left after each action.
        self.visits: dict[StateKey, list[int]] = {}
        self.remaining: dict[StateKey, list[float]] = {}
        self.episodes_trained = 0
        # (state, action) of each step this episode; only PURS keeps them.
        self._episode: list[tuple[StateKey, ActionId]] = []

    def encode(self, obs: Observation) -> StateKey:
        return state_key(obs)

    def select_action(self, s: StateKey, rng: np.random.Generator) -> ActionId:
        if self.kind == "purs":
            return self._purs_action(s, rng)
        if self.epsilon > 0.0 and rng.random() < self.epsilon:
            return int(rng.integers(self.action_count))
        return argmax_with_random_ties(rng, self.q, s, self.action_count)

    def observe(self, s: StateKey, action: ActionId, reward: float,
                s_next: StateKey, done: bool) -> None:
        q_update(self.q, s, action, reward, s_next, done, self.hp)
        if self.kind == "purs":
            self._episode.append((s, action))

    def _purs_action(self, s: StateKey, rng: np.random.Generator) -> ActionId:
        """Unvisited actions first (uniformly); otherwise sample an action
        with probability proportional to its mean remaining episode steps.

        Falls back to uniform when every estimate is zero (e.g. the final
        step of any episode).
        """
        counts = self.visits.get(s)
        if counts is None:
            return int(rng.integers(self.action_count))
        unvisited = [a for a, n in enumerate(counts) if n == 0]
        if unvisited:
            return unvisited[int(rng.integers(len(unvisited)))]
        weights = self.remaining[s]
        total = sum(weights)
        if total <= 0.0:
            return int(rng.integers(self.action_count))
        u = rng.random() * total
        acc = 0.0
        for a, w in enumerate(weights):
            acc += w
            if u < acc:
                return a
        return self.action_count - 1

    def end_episode(self, rng: np.random.Generator) -> None:
        # Remaining steps are only known once the episode length is.
        length = len(self._episode)
        for i, (s, a) in enumerate(self._episode):
            counts = self.visits.get(s)
            if counts is None:
                counts = self.visits[s] = [0] * self.action_count
                self.remaining[s] = [0.0] * self.action_count
            means = self.remaining[s]
            counts[a] += 1
            means[a] += (length - 1 - i - means[a]) / counts[a]
        self._episode = []
        self.episodes_trained += 1

    def greedy_action(self, obs: Observation) -> ActionId:
        return self.q.argmax(state_key(obs))
