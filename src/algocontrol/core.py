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

from dataclasses import dataclass, field

import numpy as np

ActionId = int


class ContractError(ValueError):
    """Raised when a caller violates an environment or agent contract."""


@dataclass(frozen=True)
class Observation:
    """What the controller sees at one time step.

    ``continuous_features`` carries instance information for benchmarks
    that expose it (empty otherwise). ``action_history`` holds the most
    recent actions, oldest first, padded with the environment's pad
    value (== action_count, outside the valid action range) until enough
    actions exist.
    """

    time_step: int
    continuous_features: tuple[float, ...] = ()
    action_history: tuple[int, ...] = ()


@dataclass(frozen=True)
class InstanceContext:
    """One task out of the instance set; the context of the MDP.

    ``params`` is empty for context-free benchmarks and ``(scale,
    inflection)`` for the sigmoid family.
    """

    instance_id: int = 0
    params: tuple[float, ...] = ()


CONTEXT_FREE = InstanceContext(instance_id=0, params=())


@dataclass(frozen=True)
class StepOutcome:
    observation: Observation
    reward: float
    done: bool


@dataclass
class EpisodeTrace:
    """Full record of one episode: transitions plus their reward sum."""

    instance: InstanceContext
    transitions: list[tuple[Observation, ActionId, float, Observation, bool]] = field(
        default_factory=list
    )
    total_reward: float = 0.0

    def append(
        self,
        obs: Observation,
        action: ActionId,
        reward: float,
        next_obs: Observation,
        done: bool,
    ) -> None:
        self.transitions.append((obs, action, reward, next_obs, done))
        self.total_reward += reward

    def __len__(self) -> int:
        return len(self.transitions)


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
    context_dim: int
    obs_continuous_dim: int
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


def as_generator(seed: SeedSpec | np.random.Generator | None) -> np.random.Generator:
    """Accept a SeedSpec or an existing Generator; None means stream (0, 0)."""
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        return derive_stream(0, 0)
    return derive_stream(seed.master_seed, seed.stream_id)


class Environment:
    """Base class for all benchmarks: pull-based reset/step lifecycle.

    Subclasses implement ``_reward(t, action)`` and may override
    ``_terminates(t, action)`` for benchmarks with early termination.
    A single instance is single-threaded; independent instances may run
    concurrently.
    """

    def __init__(self, spec: EnvSpec) -> None:
        self._spec = spec
        self._instance: InstanceContext | None = None
        self._seed: SeedSpec | None = None
        self._rng: np.random.Generator | None = None
        self._t = 0
        self._done = True
        self._history: tuple[int, ...] = ()
        self._trace: EpisodeTrace | None = None

    @property
    def spec(self) -> EnvSpec:
        return self._spec

    @property
    def pad_action(self) -> int:
        """History filler for steps before enough actions exist."""
        return self._spec.action_count

    @property
    def instance(self) -> InstanceContext:
        if self._instance is None:
            raise ContractError("environment has not been reset")
        return self._instance

    @property
    def rng(self) -> np.random.Generator:
        """The episode's random stream, derived from its seed on first use."""
        if self._rng is None:
            self._rng = as_generator(self._seed)
        return self._rng

    def reset(
        self,
        instance: InstanceContext = CONTEXT_FREE,
        seed: SeedSpec | np.random.Generator | None = None,
        record_trace: bool = False,
    ) -> Observation:
        """Start an episode on ``instance`` and return its first observation.

        ``seed`` addresses the episode's random stream; None means stream
        (0, 0). A SeedSpec is stored and its Generator derived on the
        first draw, so benchmarks whose rewards draw nothing never derive
        one. The stream and the order of draws are the same as if it were
        derived here. A Generator passed in is used as is.
        """
        if len(instance.params) != self._spec.context_dim:
            raise ContractError(
                f"instance has {len(instance.params)} context parameters, "
                f"environment expects {self._spec.context_dim}"
            )
        self._instance = instance
        if isinstance(seed, np.random.Generator):
            self._seed, self._rng = None, seed
        else:
            self._seed, self._rng = seed, None
        self._t = 0
        self._done = False
        self._history = (self.pad_action,) * self._spec.history_len
        self._trace = EpisodeTrace(instance=instance) if record_trace else None
        return self._observe()

    def step(self, action: ActionId) -> StepOutcome:
        if self._done or self._instance is None:
            raise ContractError("step called on an inactive episode (reset first)")
        if not 0 <= action < self._spec.action_count:
            raise ContractError(
                f"action {action} out of range [0, {self._spec.action_count})"
            )
        # The pre-step observation only feeds the trace.
        obs = self._observe() if self._trace is not None else None
        reward = float(self._reward(self._t, action))
        terminated = self._terminates(self._t, action)
        if self._spec.history_len > 0:
            self._history = self._history[1:] + (action,)
        self._t += 1
        self._done = terminated or self._t >= self._spec.horizon
        next_obs = self._observe()
        if self._trace is not None:
            self._trace.append(obs, action, reward, next_obs, self._done)
        return StepOutcome(observation=next_obs, reward=reward, done=self._done)

    @property
    def done(self) -> bool:
        return self._done

    @property
    def trace(self) -> EpisodeTrace:
        if self._trace is None:
            raise ContractError("episode was not reset with record_trace=True")
        return self._trace

    def _observe(self) -> Observation:
        return Observation(
            time_step=self._t,
            continuous_features=self._continuous_features(),
            action_history=self._history,
        )

    def _continuous_features(self) -> tuple[float, ...]:
        return ()

    def _reward(self, t: int, action: ActionId) -> float:
        raise NotImplementedError

    def _terminates(self, t: int, action: ActionId) -> bool:
        return False


def greedy_rollout(
    policy,
    env: Environment,
    instance: InstanceContext,
    seed: SeedSpec | np.random.Generator | None,
    record_trace: bool = False,
) -> float:
    """Roll out ``policy(obs) -> action`` for one episode; returns the
    total reward.

    This is the one loop that runs a fixed policy: greedy evaluation,
    open-loop schedules and snapshot replay all go through it. With
    ``record_trace`` the episode's transitions stay in ``env.trace``.
    """
    obs = env.reset(instance, seed, record_trace)
    total = 0.0
    while not env.done:
        outcome = env.step(policy(obs))
        total += outcome.reward
        obs = outcome.observation
    return total
