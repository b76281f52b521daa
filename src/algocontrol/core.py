"""Environment contract and shared domain types.

Every benchmark is an episodic, finite-horizon decision process: the
controller observes the target's internal state, picks one action per
time step, and receives a scalar reward. Benchmarks may additionally be
parameterized by an *instance* (the task the target is solving), which
stays fixed for the duration of one episode. All randomness flows
through explicitly derived streams so that any episode can be replayed
bit for bit.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import NamedTuple

import numpy as np

ActionId = int
# An instance is its context: () for context-free benchmarks, (scale,
# inflection) for the sigmoid family. It stays fixed for one episode.
Instance = tuple[float, ...]


class ContractError(ValueError):
    """Raised when a caller violates an environment or agent contract."""


class ConfigError(ContractError):
    """Invalid configuration value; raised before any episode runs."""


class Observation(NamedTuple):
    """What the controller sees at one time step, as the named tuple
    ``(time_step, continuous_features, action_history)``.

    ``continuous_features`` is the episode's instance (empty for
    context-free benchmarks). ``action_history`` holds the most
    recent actions, oldest first, padded with the environment's pad
    value (== action_count, outside the valid action range) until enough
    actions exist.
    """

    time_step: int
    continuous_features: tuple[float, ...] = ()
    action_history: tuple[int, ...] = ()


class SeedSpec(NamedTuple):
    """Addressable random stream, the named tuple (master seed, stream id):
    identical pairs always yield identical streams within one
    implementation; distinct stream ids yield independent streams."""

    master_seed: int
    stream_id: int = 0


_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One splitmix64 output step; the stable 64-bit mixing function."""
    x = (x + _SPLITMIX_GAMMA) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def derive_seed(master_seed: int, stream_id: int) -> int:
    """Mix (master_seed, stream_id) into a 64-bit child seed.

    It is splitmix64 of ``master_seed XOR stream_id``, so (m, k) and
    (m', k') share a seed whenever m ^ k == m' ^ k': at n_seeds = 2,
    masters 2j and 2j + 1 run the same two seed runs (ROADMAP item 2).
    Seeds and ids may be any Python ints; they are reduced mod 2^64 first.
    """
    return splitmix64((master_seed & _MASK64) ^ (stream_id & _MASK64))


def derive_stream(master_seed: int, stream_id: int) -> np.random.Generator:
    """Return the random stream addressed by (master_seed, stream_id)."""
    return np.random.Generator(np.random.PCG64(derive_seed(master_seed, stream_id)))


# Raw PCG64 words a BlockStream draws per refill.
BLOCK = 1024
_TWO_32 = 1 << 32
_MASK32 = _TWO_32 - 1
_TWO_64 = 1 << 64


class BlockStream:
    """The ``random()``, ``integers(n)`` and ``integers(n, size=k)`` draws of
    ``derive_stream(master_seed, stream_id)``, value for value and in the
    same order, served from blocks of raw PCG64 words.

    numpy builds them from PCG64's 64-bit outputs w: ``random()`` is
    ``(w >> 11) * 2**-53``; ``integers(n)`` takes, for n <= 2**32, a 32-bit draw
    (the low half of a new word, keeping its high half for the next 32-bit draw,
    as PCG64's ``has_uint32`` does), else a whole word, through Lemire's bounded
    method (Lemire, ACM TOMACS 2019).

    A list draw whose bound n <= 2**32 equals that of the stream's previous
    32-bit list draw is a slice of a table: the block's 2 * BLOCK halves, low
    then high in stream order, each as ``(half * n) >> 32``, built once per block
    with numpy beside the indices of its rejected halves. The loop takes the
    draw instead when a rejected half falls in its window, the spare half it
    starts with is rejected, the window crosses the block's end, or ``size`` is
    0. A table costs about three loops of 32 values, or ten of 11, so only a
    repeated bound builds one: the blackbox's schedules, all of one bound, repay
    it within the block, while a replay ring that is still filling asks for a
    new bound each draw and stays on the loop.
    """

    __slots__ = ("_bits", "_next", "_spare", "_raw", "_bound", "_table")

    def __init__(self, master_seed: int, stream_id: int) -> None:
        self._bits = np.random.PCG64(derive_seed(master_seed, stream_id))
        self._next = iter(()).__next__  # the next word of the current block
        self._spare: int | None = None  # high half of the last word split in two
        self._raw: np.ndarray | None = None  # the current block, as numpy drew it
        self._bound = 0  # the bound of the last 32-bit list draw
        # (values, rejected half indices) of _bound on this block, once built
        self._table: tuple[list[int], list[int]] | None = None

    def _refill(self) -> int:
        """Start a new block and return its first word."""
        raw = self._raw = self._bits.random_raw(BLOCK)
        self._table = None
        self._next = iter(raw.tolist()).__next__
        return self._next()

    def random(self) -> float:
        """A float in [0, 1), as ``Generator.random()``."""
        try:
            w = self._next()
        except StopIteration:
            w = self._refill()
        return (w >> 11) * 2.0**-53

    def integers(self, n: int, size: int | None = None):
        """An int in [0, n), as ``Generator.integers(n)`` for 1 <= n <= 2**64, or
        with ``size`` a list of that many; n == 1 draws nothing."""
        if size is not None:
            return self._list(n, size)
        if type(n) is not int or not 1 < n <= _TWO_32:
            if n == 1:
                return 0
            if type(n) is not int or not _TWO_32 < n <= _TWO_64:
                raise ContractError(f"integers needs an int n in [1, 2**64], got {n!r}")
            threshold = _TWO_64 % n  # a whole word each try; the spare half stays
            while True:
                try:
                    m = self._next() * n
                except StopIteration:
                    m = self._refill() * n
                if m & _MASK64 >= threshold:
                    return m >> 64
        threshold = _TWO_32 % n  # numpy's (2**32 - 1 - (n - 1)) % n
        while True:
            u = self._spare
            if u is None:
                try:
                    w = self._next()
                except StopIteration:
                    w = self._refill()
                self._spare, u = w >> 32, w & _MASK32
            else:
                self._spare = None
            m = u * n
            if m & _MASK32 >= threshold:  # else rejected: draw again
                return m >> 32

    def _list(self, n: int, size: int) -> list[int]:
        """``size`` draws of ``integers(n)``, as one ``Generator.integers(n, size=size)``."""
        if type(n) is not int or not 1 <= n <= _TWO_64 or type(size) is not int or size < 0:
            raise ContractError(f"integers needs int n in [1, 2**64], size >= 0: {n!r}, {size!r}")
        if n == 1 or n > _TWO_32:
            return [self.integers(n) for _ in range(size)]
        threshold, spare = _TWO_32 % n, self._spare
        if n != self._bound:
            self._bound, self._table = n, None
        elif size:
            words = self._next.__self__
            start = BLOCK - words.__length_hint__()  # the next word's index in the block
            k = size if spare is None else size - 1  # halves the window takes
            lo = 2 * start  # the next word's low half
            if start < BLOCK and lo + k <= 2 * BLOCK and (
                    spare is None or spare * n & _MASK32 >= threshold):
                values, rejected = self._table or self._table_for(n)
                if rejected[bisect_left(rejected, lo)] >= lo + k:
                    out = values[lo:lo + k]
                    end = start + (k + 1) // 2  # past the last word the window takes
                    words.__setstate__(end)
                    self._spare = int(self._raw[end - 1]) >> 32 if k & 1 else None
                    if spare is not None:
                        out.insert(0, spare * n >> 32)
                    return out
        out = []
        for _ in range(size):
            while True:
                if spare is None:
                    try:
                        w = self._next()
                    except StopIteration:
                        w = self._refill()
                    spare, m = w >> 32, (w & _MASK32) * n
                else:
                    spare, m = None, spare * n
                if m & _MASK32 >= threshold:  # else rejected: draw again
                    break
            out.append(m >> 32)
        self._spare = spare
        return out

    def _table_for(self, n: int) -> tuple[list[int], list[int]]:
        """Build the current block's table for bound ``n``: every half's draw, and
        the indices of the halves that Lemire's method rejects, then 2 * BLOCK."""
        halves = self._raw.astype("<u8", copy=False).view("<u4").astype(np.uint64)
        m = halves * n
        rejected = np.flatnonzero(m & _MASK32 < _TWO_32 % n).tolist()
        rejected.append(2 * BLOCK)
        self._table = (m >> 32).tolist(), rejected
        return self._table


class Environment:
    """Base class for all benchmarks: pull-based reset/step lifecycle.

    Subclasses implement ``_reward(t, action)`` and may override
    ``_terminates(t, action)`` for benchmarks with early termination. The
    training loop calls both without ``step``, so they may read only what
    ``reset`` set (the instance, Fuzzy's noise seed), never the episode's state.
    A single instance is single-threaded; independent instances may run
    concurrently. Each environment has a ``horizon`` and an ``action_count``;
    its class states ``kind``, ``default_horizon``, ``context_dim`` (the length
    of every observation's features), ``history_len``, ``fixed_rewards``
    (with it the reward at step t depends only on (t, action, instance), with
    no random draw and no early termination) and ``params``, the
    ``BenchmarkConfig`` fields its constructor takes after the horizon, in
    order, whose defaults are class attributes; it keeps no random stream.
    """

    fixed_rewards = True
    context_dim = 0
    history_len = 5
    params: tuple[str, ...] = ()

    def __init__(self, horizon: int, action_count: int) -> None:
        if horizon < 1:
            raise ContractError("horizon must be >= 1")
        self.horizon = horizon
        self.action_count = action_count
        self._instance: Instance = ()
        self._t = 0
        self._done = True
        self._history: tuple[int, ...] = ()
        self._tables: dict[Instance, list[dict[ActionId, float]]] = {}

    @property
    def pad_action(self) -> int:
        """History filler for steps before enough actions exist."""
        return self.action_count

    def reset(self, instance: Instance = (), seed: SeedSpec | None = None) -> Observation:
        """Start an episode on ``instance`` and return its first observation.
        ``seed`` addresses a noise stream: only FuzzyEnv, whose rewards draw, keeps it."""
        if len(instance) != self.context_dim:
            raise ContractError(
                f"instance has {len(instance)} context parameters, "
                f"environment expects {self.context_dim}"
            )
        self._instance = instance
        self._t = 0
        self._done = False
        self._history = (self.pad_action,) * self.history_len
        return Observation(0, instance, self._history)

    def step(self, action: ActionId) -> tuple[Observation, float, bool]:
        """Apply ``action``; returns ``(next observation, reward, done)``."""
        t = self._t
        if self._done:  # also true before the first reset
            raise ContractError("step called on an inactive episode (reset first)")
        if not 0 <= action < self.action_count:
            raise ContractError(f"action {action} out of range [0, {self.action_count})")
        reward = float(self._reward(t, action))
        done = self._done = t + 1 >= self.horizon or (
            not self.fixed_rewards and self._terminates(t, action))
        history = self._history
        if self.history_len > 0:
            history = self._history = history[1:] + (action,)
        self._t = t + 1
        # Observation(...) without the named tuple's Python-level __new__
        return tuple.__new__(Observation, (t + 1, self._instance, history)), reward, done

    def path_return(self, actions, instance: Instance, master_seed: int,
                    stream_id: int) -> float:
        """The total ``greedy_rollout`` returns for the open-loop ``actions`` on
        ``instance`` with seed (master_seed, stream_id), bit for bit: here the
        path's entries of the instance's reward table, added left to right from
        0.0. A missing table is filled by ``step``: one ``reset(instance)`` and
        ``horizon`` steps of each action. A path of another length than the
        horizon goes through ``_check_actions``; otherwise the table's rows, which
        hold the keys 0 .. action_count - 1 alone, refuse an action outside that
        range as ``step`` does, after a cold table is filled. A benchmark whose
        rewards are not fixed overrides it."""
        if len(actions) != self.horizon:
            self._check_actions(actions)
        table = self._tables.get(instance)
        if table is None:  # row t: each action's reward at step t, as step returns it
            # On this environment, kept as it was: a copy would read __dict__,
            # which slows this object's every later attribute access.
            episode = self._instance, self._t, self._done, self._history
            table = [[] for _ in range(self.horizon)]
            for action in range(self.action_count):
                self.reset(instance)
                for row in table:
                    row.append(self.step(action)[1])
            self._instance, self._t, self._done, self._history = episode
            table = self._tables[instance] = [dict(enumerate(row)) for row in table]
        total = 0.0
        try:
            for row, action in zip(table, actions):
                total += row[action]
        except KeyError:
            raise ContractError(f"path action out of range [0, {self.action_count})") from None
        return total

    def _check_actions(self, actions) -> None:
        """Refuse a path no rollout takes: not a whole schedule of ``horizon`` actions
        and not ending at its first terminating action, or (as ``step`` does) with an
        action outside [0, action_count)."""
        n, horizon = len(actions), self.horizon
        # A rollout stops at the horizon or at its first terminating action.
        if n != horizon and not (0 < n < horizon and not self.fixed_rewards
                                 and self._terminates(n - 1, actions[-1])
                                 and not any(map(self._terminates, range(n - 1), actions))):
            raise ContractError(f"a path of {n} actions ends no episode of horizon {self.horizon}")
        if not 0 <= min(actions) <= max(actions) < self.action_count:
            raise ContractError(f"path action out of range [0, {self.action_count})")

    def _reward(self, t: int, action: ActionId) -> float:
        raise NotImplementedError

    def _terminates(self, t: int, action: ActionId) -> bool:
        return False


def greedy_rollout(policy, env: Environment, instance: Instance, seed: SeedSpec | None,
                   trace: list[tuple[Observation, ActionId, float]] | None = None) -> float:
    """Roll out ``policy(obs) -> action`` for one episode; returns the
    total reward.

    This is the one loop that runs a fixed policy: greedy evaluation and
    snapshot replay go through it. A ``trace`` list gets one
    ``(obs, action, reward)`` item per step, ``obs`` being the observation
    the action was chosen on.
    """
    obs = env.reset(instance, seed)
    step = env.step
    total, done = 0.0, False
    while not done:
        action = policy(obs)
        next_obs, reward, done = step(action)
        if trace is not None:
            trace.append((obs, action, reward))
        obs = next_obs
        total += reward
    return total
