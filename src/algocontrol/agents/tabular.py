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
from dataclasses import dataclass

import numpy as np

from ..core import ActionId, ConfigError, ContractError, Observation

StateKey = tuple
QRows = dict[StateKey, list[float]]

def rounded(features: tuple[float, ...]) -> tuple[int, ...]:
    """Continuous features as a table key holds them: each rounded to the closest int."""
    return tuple(int(round(f)) for f in features)


def state_key(obs: Observation) -> StateKey:
    """Canonical hashable encoding of an observation for table lookup;
    without features, the observation itself (equal to (t, (), history))."""
    t, features, history = obs
    if not features:
        return obs
    return (t, rounded(features), history)


def greedy(q: QRows, s: StateKey) -> ActionId:
    """Greedy action of ``s``: ties go to the lowest action index, and a
    state with no row gives 0."""
    row = q.get(s)
    return 0 if row is None else row.index(max(row))


def argmax_with_random_ties(
    rng: np.random.Generator, q: QRows, s: StateKey, action_count: int
) -> ActionId:
    """Greedy selection breaking exact ties uniformly at random; a state
    with no row reads as zeros, so it draws once over all actions.

    Used during training only: with zero-initialized tables, always
    taking the lowest tied index starves states reached off the greedy
    path, which visibly fattens the time-to-optimum tail.
    """
    row = q.get(s)
    if row is None:
        return int(rng.integers(action_count))
    best = max(row)
    if row.count(best) == 1:  # a unique maximum draws nothing
        return row.index(best)
    tied = [a for a in range(action_count) if row[a] == best]
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
    q: QRows,
    s: StateKey,
    a: ActionId,
    reward: float,
    s_next: StateKey,
    done: bool,
    hp: AgentHyperparams,
    action_count: int,
) -> QRows:
    """One-step Q-learning update (in place; the table is returned). The row
    of ``s`` is created here, ``action_count`` zeros, on its first update. A
    new value that is not finite raises ContractError before it is written."""
    next_row = None if done else q.get(s_next)
    bootstrap = 0.0 if next_row is None else max(next_row)
    row = q.get(s)
    if row is None:
        row = q[s] = [0.0] * action_count
    value = (1.0 - hp.alpha) * row[a] + hp.alpha * (reward + hp.gamma * bootstrap)
    if value - value != 0.0:  # nan for inf and nan alike
        raise ContractError(f"Q-value {value!r} of state {s!r}, action {a} is not finite")
    row[a] = value
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
        if action_count < 1:
            raise ContractError("action_count must be >= 1")
        self.kind = kind
        self.action_count = action_count
        self.hp = hp or AgentHyperparams()
        if kind == "urs":
            self.epsilon = 1.0
        elif kind == "gr":
            self.epsilon = 0.0
        else:
            self.epsilon = self.hp.epsilon
        self.q: QRows = {}  # state key -> its action_count values (see q_update)
        # PURS ledger, one row per state like the Q rows: visit counts and
        # the running mean of the episode steps left after each action.
        self.visits: dict[StateKey, list[int]] = {}
        self.remaining: dict[StateKey, list[float]] = {}
        # (state, action) of each step this episode; only PURS keeps them.
        self._episode: list[tuple[StateKey, ActionId]] = []

    def features(self, instance: tuple[float, ...]) -> tuple[int, ...]:
        """The features of every state key of an episode on ``instance``."""
        return rounded(instance)

    def select_action(self, s: StateKey, rng: np.random.Generator) -> ActionId:
        if self.kind == "purs":
            return self._purs_action(s, rng)
        if self.epsilon > 0.0 and rng.random() < self.epsilon:
            return int(rng.integers(self.action_count))
        return argmax_with_random_ties(rng, self.q, s, self.action_count)

    def observe(self, s: StateKey, action: ActionId, reward: float,
                s_next: StateKey, done: bool) -> None:
        q_update(self.q, s, action, reward, s_next, done, self.hp, self.action_count)
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

    def greedy_action(self, obs: Observation) -> ActionId:
        return greedy(self.q, state_key(obs))

    def greedy_path_holds(self, path: list[tuple[StateKey, ActionId]]) -> bool:
        """Whether ``greedy_action`` takes each action of a (state key, action) path."""
        q = self.q
        for s, a in path:
            row = q.get(s)
            if (0 if row is None else row.index(max(row))) != a:
                return False
        return True
