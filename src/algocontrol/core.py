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

from dataclasses import dataclass
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


@dataclass(frozen=True)
class SeedSpec:
    """Addressable random stream: (master seed, stream id).

    Identical pairs always yield identical streams within one
    implementation; distinct stream ids yield independent streams.
    """

    master_seed: int
    stream_id: int = 0


@dataclass(frozen=True)
class EnvSpec:
    """Static shape of an environment, constant over its lifetime."""

    action_count: int
    horizon: int
    context_dim: int  # also the length of every observation's continuous features
    history_len: int


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

    The mapping is fixed: splitmix64 applied to ``master_seed XOR
    stream_id``. Seeds and ids may be any Python ints; they are reduced
    mod 2^64 first.
    """
    return splitmix64((master_seed & _MASK64) ^ (stream_id & _MASK64))


def derive_stream(master_seed: int, stream_id: int) -> np.random.Generator:
    """Return the random stream addressed by (master_seed, stream_id)."""
    return np.random.Generator(np.random.PCG64(derive_seed(master_seed, stream_id)))


class Environment:
    """Base class for all benchmarks: pull-based reset/step lifecycle.

    Subclasses implement ``_reward(t, action)`` and may override
    ``_terminates(t, action)`` for benchmarks with early termination.
    A single instance is single-threaded; independent instances may run
    concurrently. With ``fixed_rewards`` the reward at step t depends only
    on (t, action, instance), with no random draw and no early termination.
    """

    fixed_rewards = True

    def __init__(self, spec: EnvSpec) -> None:
        self._spec = spec
        self._instance: Instance | None = None
        self._seed: SeedSpec | None = None
        self._rng: np.random.Generator | None = None
        self._t = 0
        self._done = True
        self._history: tuple[int, ...] = ()
        self._obs: Observation | None = None
        self._trace: list[tuple[Observation, ActionId, float]] | None = None

    @property
    def spec(self) -> EnvSpec:
        return self._spec

    @property
    def pad_action(self) -> int:
        """History filler for steps before enough actions exist."""
        return self._spec.action_count

    @property
    def instance(self) -> Instance:
        if self._instance is None:
            raise ContractError("environment has not been reset")
        return self._instance

    @property
    def rng(self) -> np.random.Generator:
        """The episode's random stream, derived from its seed on first use."""
        if self._rng is None:
            seed = self._seed if self._seed is not None else SeedSpec(0, 0)
            self._rng = derive_stream(seed.master_seed, seed.stream_id)
        return self._rng

    def reset(self, instance: Instance = (), seed: SeedSpec | None = None,
              record_trace: bool = False) -> Observation:
        """Start an episode on ``instance`` and return its first observation.

        ``seed`` addresses the episode's random stream; None means stream
        (0, 0). The seed is stored and its Generator derived on the first
        draw, so benchmarks whose rewards draw nothing never derive one.
        The stream and the order of draws are the same as if it were
        derived here.
        """
        if len(instance) != self._spec.context_dim:
            raise ContractError(
                f"instance has {len(instance)} context parameters, "
                f"environment expects {self._spec.context_dim}"
            )
        self._instance = instance
        self._seed, self._rng = seed, None
        self._t = 0
        self._done = False
        self._history = (self.pad_action,) * self._spec.history_len
        self._trace = [] if record_trace else None
        self._obs = Observation(0, instance, self._history)
        return self._obs

    def step(self, action: ActionId) -> tuple[Observation, float, bool]:
        """Apply ``action``; returns ``(next observation, reward, done)``."""
        spec, t = self._spec, self._t
        if self._done:  # also true before the first reset
            raise ContractError("step called on an inactive episode (reset first)")
        if not 0 <= action < spec.action_count:
            raise ContractError(f"action {action} out of range [0, {spec.action_count})")
        reward = float(self._reward(t, action))
        done = self._done = self._terminates(t, action) or t + 1 >= spec.horizon
        if self._trace is not None:
            self._trace.append((self._obs, action, reward))
        history = self._history
        if spec.history_len > 0:
            history = self._history = history[1:] + (action,)
        self._t = t + 1
        obs = self._obs = Observation(t + 1, self._instance, history)
        return obs, reward, done

    @property
    def trace(self) -> list[tuple[Observation, ActionId, float]]:
        """The episode's ``(observation, action, reward)`` steps, in order."""
        if self._trace is None:
            raise ContractError("episode was not reset with record_trace=True")
        return self._trace

    def _reward(self, t: int, action: ActionId) -> float:
        raise NotImplementedError

    def _terminates(self, t: int, action: ActionId) -> bool:
        return False


def greedy_rollout(policy, env: Environment, instance: Instance,
                   seed: SeedSpec | None, record_trace: bool = False) -> float:
    """Roll out ``policy(obs) -> action`` for one episode; returns the
    total reward.

    This is the one loop that runs a fixed policy: greedy evaluation,
    open-loop schedules and snapshot replay all go through it. With
    ``record_trace`` the episode's steps stay in ``env.trace``.
    """
    obs = env.reset(instance, seed, record_trace)
    step = env.step
    total, done = 0.0, False
    while not done:
        obs, reward, done = step(policy(obs))
        total += reward
    return total
