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
from itertools import chain

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
    states: list[StateKey],
    actions: list[ActionId],
    rewards: list[float],
    hp: AgentHyperparams,
    action_count: int,
) -> QRows:
    """Q-learning along one segment of an episode, transition by transition in
    order (in place; the table is returned). Transition i goes from
    ``states[i]`` by ``actions[i]``, paid ``rewards[i]``, to ``states[i + 1]``;
    where ``states`` has no entry i + 1 (as many states as actions) it ends the
    episode and bootstraps 0.0. So ``[s, s_next], [a], [r]`` is one step that
    goes on, ``[s], [a], [r]`` one that ends, and an episode is its states,
    actions and rewards. Each transition's value is
    ``(1 - alpha) * row[a] + alpha * (reward + gamma * max(next row))``, with
    the next row as it is when that transition runs (a state with no row
    reads as zeros). Each state's row is looked up once: the row that
    bootstraps transition i is the one transition i + 1 writes. A row is
    created, ``action_count`` zeros, on its own state's first update. A new
    value that is not finite raises ContractError before it is written; the
    transitions before it stay written, and no later state gets a row. Any
    other shape (no action, rewards not one per action, or states neither as
    many as the actions nor one more) is refused before anything is written."""
    n = len(actions)
    if not 0 < n == len(rewards) or len(states) - n not in (0, 1):
        raise ContractError(f"a segment is 1 or more actions, a reward each, and as many "
                            f"states or one more; got {len(states)} states, {n} actions, "
                            f"{len(rewards)} rewards")
    alpha, gamma = hp.alpha, hp.gamma
    keep, get = 1.0 - alpha, q.get
    # Each next row is looked up as its transition starts (map is lazy), so it
    # holds every write of the transitions before.
    next_rows = chain(map(get, states[1:]), (None,))
    row = get(states[0])
    for s, a, reward, next_row in zip(states, actions, rewards, next_rows):
        if row is None:  # or made just now, by the transition before from this same state
            row = q.setdefault(s, [0.0] * action_count)
        value = keep * row[a] + alpha * (reward + gamma * (0.0 if next_row is None
                                                           else max(next_row)))
        if value - value != 0.0:  # nan for inf and nan alike
            raise ContractError(f"Q-value {value!r} of state {s!r}, action {a} is not finite")
        row[a] = value
        row = next_row
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
        """The training-time action at ``s``. PURS samples by its ledger. The others
        explore with probability epsilon (one ``random()``, then a uniform action),
        else take the greedy action, breaking exact ties uniformly at random: a
        unique maximum draws nothing, and a state with no row reads as zeros, so it
        draws once over all actions. The greedy action is read off the row's values
        as they are now, so any write to ``q`` is seen.

        Random ties matter during training only: with zero-initialized tables,
        always taking the lowest tied index starves states reached off the greedy
        path, which visibly fattens the time-to-optimum tail.
        """
        if self.kind == "purs":
            return self._purs_action(s, rng)
        if self.epsilon > 0.0 and rng.random() < self.epsilon:
            return int(rng.integers(self.action_count))
        row = self.q.get(s)
        if row is None:
            return int(rng.integers(self.action_count))
        best = max(row)
        if row.count(best) == 1:
            return row.index(best)
        tied = [a for a, v in enumerate(row) if v == best]
        return tied[int(rng.integers(len(tied)))]

    def observe(self, states: list[StateKey], actions: list, rewards: list[float]) -> None:
        """Learn from one episode: its state keys in step order, the last step ending
        it, with the ``actions`` taken there and their ``rewards``. One ``q_update``
        call learns the whole episode, a segment with as many states as actions, so its
        last step bootstraps 0.0; PURS keeps the (state, action) pairs for
        ``end_episode``. Any other shape (no state, or lists of different lengths) is
        refused."""
        n = len(states)
        if not 0 < n == len(actions) == len(rewards):
            raise ContractError(f"an episode is 1 or more states, an action and a reward "
                                f"each; got {n} states, {len(actions)} actions, "
                                f"{len(rewards)} rewards")
        q_update(self.q, states, actions, rewards, self.hp, self.action_count)
        if self.kind == "purs":
            self._episode += zip(states, actions)

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

    def rows_seen(self, keys: list[StateKey]) -> list[list[float] | None]:
        """A copy of the row of each of ``keys`` as it is now, None where there is
        none: what ``greedy_path_holds`` compares the rows with."""
        return [row if row is None else row.copy() for row in map(self.q.get, keys)]

    def greedy_path_holds(self, keys: list[StateKey], actions: list[ActionId],
                          seen: list[list[float] | None]) -> bool:
        """Whether ``greedy_action`` takes ``actions[i]`` at each state key ``keys[i]``,
        given ``seen[i]``, that row's values when the path last held there. A row
        equal to the values last seen keeps its greedy action (equal values give
        the same lowest-index argmax, -0.0 == 0.0 included), so only a row that
        differs is walked again, and its copy in ``seen`` is refreshed where its
        action still holds. The rows are read as they are now, so any write to
        ``q`` is seen: by ``q_update``, in place, or a row replaced or created."""
        rows = list(map(self.q.get, keys))
        if rows == seen:
            return True
        for i, row in enumerate(rows):
            if row != seen[i]:
                if (0 if row is None else row.index(max(row))) != actions[i]:
                    return False
                seen[i] = row if row is None else row.copy()
        return True
