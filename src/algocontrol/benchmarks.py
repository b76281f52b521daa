"""The five white-box benchmarks and their instance samplers.

Counting, Fuzzy and Luby are context-free sequence tasks whose state is
a time feature plus a short history of recent actions. Sigmoid and
SigmoidMVA are instance-parameterized: each episode runs on a sampled
sigmoid curve (scale, inflection point) exposed to the controller as
continuous state features, which is what makes policies instance-aware.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from . import core
from .core import ActionId, ConfigError, ContractError, Environment, Instance, SeedSpec

EXP_CLAMP = 500.0


def luby_value(t: int) -> int:
    """Value at 1-indexed position ``t`` of the restart-length sequence.

    The sequence is 1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, ...:
    position 2^k - 1 holds 2^(k-1), and positions 2^(k-1) <= t < 2^k - 1
    repeat the prefix.
    """
    if t < 1:
        raise ContractError(f"sequence position must be >= 1, got {t}")
    while True:
        if ((t + 1) & t) == 0:  # t == 2^k - 1
            return (t + 1) >> 1
        t = t - (1 << (t.bit_length() - 1)) + 1


def luby_exponent(t: int) -> int:
    """Base-2 exponent of ``luby_value(t)``; exact for all positions."""
    return luby_value(t).bit_length() - 1


def counting_reward(t: int, action: ActionId) -> float:
    """1 when the action index matches the time step, else 0."""
    return 1.0 if action == t else 0.0


def sigmoid(t: float, scale: float, inflection: float) -> float:
    """Logistic curve 1 / (1 + exp(-scale * (t - inflection))).

    The exponent is clamped to +-500 so scales near +-100 never
    overflow; extreme arguments saturate to 0 or 1.
    """
    z = -scale * (t - inflection)
    if z > EXP_CLAMP:
        z = EXP_CLAMP
    elif z < -EXP_CLAMP:
        z = -EXP_CLAMP
    return 1.0 / (1.0 + math.exp(z))


def sigmoid_reward(t: int, action: ActionId, scale: float, inflection: float) -> float:
    """Reward sig(t) for action 1 and 1 - sig(t) for action 0."""
    value = sigmoid(t, scale, inflection)
    return value if action == 1 else 1.0 - value


def sigmoidmva_reward(
    t: int, action: ActionId, scale: float, inflection: float, levels: int
) -> float:
    """Reward 1 - |sig(t) - action/levels| for the multi-valued variant."""
    return 1.0 - abs(sigmoid(t, scale, inflection) - action / levels)


def sample_sigmoid_instance(rng: np.random.Generator, horizon: int) -> Instance:
    """Draw (scale, inflection): scale ~ U(-100, 100) and inflection
    ~ N(T/2, sd T/4)."""
    scale = rng.uniform(-100.0, 100.0)
    inflection = rng.normal(horizon / 2.0, horizon / 4.0)
    return (scale, inflection)


def make_instance_set(rng: np.random.Generator, horizon: int, n: int) -> list[Instance]:
    """Sample ``n`` independent sigmoid instances."""
    if n < 1:
        raise ContractError(f"instance set size must be >= 1, got {n}")
    return [sample_sigmoid_instance(rng, horizon) for _ in range(n)]


class CountingEnv(Environment):
    """Learn to count: reward 1 only when action == time step.

    The action space has one action per time step, so the optimal
    policy scores exactly the horizon and any constant policy scores 1.
    """

    kind = "counting"
    default_horizon = 5

    def __init__(self, horizon: int = default_horizon) -> None:
        super().__init__(horizon, action_count=horizon)

    def _reward(self, t: int, action: ActionId, instance: Instance) -> float:
        return counting_reward(t, action)


class FuzzyEnv(Environment):
    """Two actions: 1 pays a noisy reward, 0 ends the episode early.

    Action 1 draws from a normal law (mean 1, sd 2 by default), so the
    optimal policy plays 1 for all T steps with expected total T.
    Action 0 pays 0 and terminates. It alone draws, from a stream it keeps.
    """

    kind = "fuzzy"
    default_horizon = 20
    fixed_rewards = False
    params = ("fuzzy_mean", "fuzzy_spread")
    mean = 1.0
    spread = 2.0

    def __init__(self, horizon: int = default_horizon, mean: float = mean,
                 spread: float = spread) -> None:
        super().__init__(horizon, action_count=2)
        self.mean = mean
        self.spread = spread

    def reset(self, instance: Instance = (), seed: SeedSpec | None = None) -> core.Observation:
        """As ``Environment.reset``; keeps ``seed`` (None: stream (0, 0)) until the first draw."""
        obs = super().reset(instance, seed)
        self._seed, self._rng = seed or SeedSpec(0, 0), None
        return obs

    def _reward(self, t: int, action: ActionId, instance: Instance) -> float:
        if action == 0:
            return 0.0
        if self._rng is None:
            self._rng = core.derive_stream(*self._seed)
        return self.mean + self.spread * self._rng.standard_normal()

    def _terminates(self, t: int, action: ActionId) -> bool:
        return action == 0

    def path_rewards(self, actions, instance: Instance, master_seed: int,
                     stream_id: int) -> list[float]:
        """As ``Environment.path_rewards``, for a whole schedule (a rollout stops at
        its first 0) or a shorter path whose first 0 is its last action. Steps
        before the first 0 pay the stream's normals, drawn as one vector (the
        values and IEEE operations of ``_reward``); a first 0 pays 0.0 and ends it."""
        length, horizon = len(actions), self.horizon
        n = actions.index(0) if 0 in actions else length  # the paying steps
        if length != horizon and not (length < horizon and n == length - 1):
            raise ContractError(f"a path of {length} actions ends no episode of horizon {horizon}")
        if not self.action_set.issuperset(actions):
            raise ContractError(f"path action out of range [0, {self.action_count})")
        self._check_instance(instance)
        z = core.derive_stream(master_seed, stream_id).standard_normal(n) if n else np.empty(0)
        rewards = (self.mean + self.spread * z).tolist()
        return rewards + [0.0] if n < length else rewards

    def path_return(self, actions, instance: Instance, master_seed: int,
                    stream_id: int) -> float:
        """The rewards of ``path_rewards``, added left to right from 0.0."""
        return reduce(add, self.path_rewards(actions, instance, master_seed, stream_id), 0.0)


class LubyEnv(Environment):
    """Emit the exponents of the restart-length sequence: +1/-1 reward.

    Actions are the exponents {0 .. floor(log2 T)}; step t must produce
    the exponent of the (t+1)-th sequence value.
    """

    kind = "luby"
    default_horizon = 32

    def __init__(self, horizon: int = default_horizon) -> None:
        super().__init__(horizon, action_count=horizon.bit_length())  # floor(log2 T) + 1
        self._targets = tuple(luby_exponent(t + 1) for t in range(horizon))

    def _reward(self, t: int, action: ActionId, instance: Instance) -> float:
        return 1.0 if action == self._targets[t] else -1.0


class SigmoidEnv(Environment):
    """Binary-action sigmoid tracking across instances.

    Action 1 pays the sigmoid value at t, action 0 its complement; the
    instance (scale, inflection) is part of the observation.
    """

    kind = "sigmoid"
    default_horizon = 11
    context_dim = 2
    history_len = 0

    def __init__(self, horizon: int = default_horizon) -> None:
        super().__init__(horizon, action_count=2)

    def _reward(self, t: int, action: ActionId, instance: Instance) -> float:
        scale, inflection = instance
        return sigmoid_reward(t, action, scale, inflection)


class SigmoidMVAEnv(Environment):
    """Multi-valued sigmoid tracking: follow the curve on a level grid.

    Action a maps to the value a/L; reward is 1 minus the distance to
    the sigmoid, so finer grids allow closer tracking.
    """

    kind = "sigmoidmva"
    default_horizon = 11
    context_dim = 2
    history_len = 0
    params = ("levels",)
    levels = 4

    def __init__(self, horizon: int = default_horizon, levels: int = levels) -> None:
        if levels < 1:
            raise ContractError("levels must be >= 1")
        super().__init__(horizon, action_count=levels + 1)
        self.levels = levels

    def _reward(self, t: int, action: ActionId, instance: Instance) -> float:
        scale, inflection = instance
        return sigmoidmva_reward(t, action, scale, inflection, self.levels)


ENVIRONMENTS = {env.kind: env for env in (CountingEnv, FuzzyEnv, LubyEnv, SigmoidEnv,
                                          SigmoidMVAEnv)}
BENCHMARK_KINDS = tuple(ENVIRONMENTS)


@dataclass(frozen=True)
class BenchmarkConfig:
    """Declarative description of one benchmark environment."""

    kind: str
    horizon: int = 0  # 0 = use the benchmark's default
    levels: int = SigmoidMVAEnv.levels
    fuzzy_mean: float = FuzzyEnv.mean
    fuzzy_spread: float = FuzzyEnv.spread

    def __post_init__(self) -> None:
        if self.kind not in ENVIRONMENTS:
            raise ConfigError(
                f"unknown benchmark kind {self.kind!r}; expected one of {BENCHMARK_KINDS}"
            )
        if self.horizon < 0 or self.levels < 1:
            raise ConfigError("horizon must be >= 0 and levels >= 1")
        if not math.isfinite(self.fuzzy_mean):
            raise ConfigError("fuzzy_mean must be finite")
        if not 0.0 <= self.fuzzy_spread < math.inf:
            raise ConfigError("fuzzy_spread must be finite and >= 0")

    @property
    def resolved_horizon(self) -> int:
        return self.horizon or ENVIRONMENTS[self.kind].default_horizon

    @property
    def has_instances(self) -> bool:
        return ENVIRONMENTS[self.kind].context_dim > 0

    @property
    def noisy(self) -> bool:
        """Whether one policy's return varies between episodes: rewards
        that are not ``fixed_rewards`` or sampled instances. It sets the
        default alpha, 0.1 (else 1.0), and ``runs``."""
        return not ENVIRONMENTS[self.kind].fixed_rewards or self.has_instances

    @property
    def runs(self) -> int:
        """Episodes per evaluation outside fixed sets and per blackbox race."""
        return 10 if self.noisy else 1


def make_env(config: BenchmarkConfig) -> Environment:
    """Instantiate the environment described by ``config``."""
    cls = ENVIRONMENTS[config.kind]
    return cls(config.resolved_horizon, *(getattr(config, p) for p in cls.params))
