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

import numpy as np

from .core import ActionId, ConfigError, ContractError, Environment, EnvSpec, Instance

HISTORY_LEN = 5
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

    def __init__(self, horizon: int = 5) -> None:
        if horizon < 1:
            raise ContractError("horizon must be >= 1")
        super().__init__(
            EnvSpec(
                action_count=horizon,
                horizon=horizon,
                context_dim=0,
                history_len=HISTORY_LEN,
            )
        )

    def _reward(self, t: int, action: ActionId) -> float:
        return counting_reward(t, action)


class FuzzyEnv(Environment):
    """Two actions: 1 pays a noisy reward, 0 ends the episode early.

    Action 1 draws from a normal law (mean 1, sd 2 by default), so the
    optimal policy plays 1 for all T steps with expected total T.
    Action 0 pays 0 and terminates.
    """

    kind = "fuzzy"
    fixed_rewards = False

    def __init__(self, horizon: int = 20, mean: float = 1.0, spread: float = 2.0) -> None:
        if horizon < 1:
            raise ContractError("horizon must be >= 1")
        super().__init__(
            EnvSpec(
                action_count=2,
                horizon=horizon,
                context_dim=0,
                history_len=HISTORY_LEN,
            )
        )
        self.mean = mean
        self.spread = spread

    def _reward(self, t: int, action: ActionId) -> float:
        if action == 0:
            return 0.0
        return self.mean + self.spread * self.rng.standard_normal()

    def _terminates(self, t: int, action: ActionId) -> bool:
        return action == 0


class LubyEnv(Environment):
    """Emit the exponents of the restart-length sequence: +1/-1 reward.

    Actions are the exponents {0 .. floor(log2 T)}; step t must produce
    the exponent of the (t+1)-th sequence value.
    """

    kind = "luby"

    def __init__(self, horizon: int = 32) -> None:
        if horizon < 1:
            raise ContractError("horizon must be >= 1")
        super().__init__(
            EnvSpec(
                action_count=int(math.log2(horizon)) + 1,
                horizon=horizon,
                context_dim=0,
                history_len=HISTORY_LEN,
            )
        )
        self._targets = tuple(luby_exponent(t + 1) for t in range(horizon))

    def _reward(self, t: int, action: ActionId) -> float:
        return 1.0 if action == self._targets[t] else -1.0


class SigmoidEnv(Environment):
    """Binary-action sigmoid tracking across instances.

    Action 1 pays the sigmoid value at t, action 0 its complement; the
    instance (scale, inflection) is part of the observation.
    """

    kind = "sigmoid"

    def __init__(self, horizon: int = 11) -> None:
        if horizon < 1:
            raise ContractError("horizon must be >= 1")
        super().__init__(
            EnvSpec(
                action_count=2,
                horizon=horizon,
                context_dim=2,
                history_len=0,
            )
        )

    def _reward(self, t: int, action: ActionId) -> float:
        scale, inflection = self.instance
        return sigmoid_reward(t, action, scale, inflection)


class SigmoidMVAEnv(Environment):
    """Multi-valued sigmoid tracking: follow the curve on a level grid.

    Action a maps to the value a/L; reward is 1 minus the distance to
    the sigmoid, so finer grids allow closer tracking.
    """

    kind = "sigmoidmva"

    def __init__(self, horizon: int = 11, levels: int = 4) -> None:
        if horizon < 1 or levels < 1:
            raise ContractError("horizon and levels must be >= 1")
        super().__init__(
            EnvSpec(
                action_count=levels + 1,
                horizon=horizon,
                context_dim=2,
                history_len=0,
            )
        )
        self.levels = levels

    def _reward(self, t: int, action: ActionId) -> float:
        scale, inflection = self.instance
        return sigmoidmva_reward(t, action, scale, inflection, self.levels)


BENCHMARK_KINDS = ("counting", "fuzzy", "luby", "sigmoid", "sigmoidmva")

DEFAULT_HORIZONS = {
    "counting": 5,
    "fuzzy": 20,
    "luby": 32,
    "sigmoid": 11,
    "sigmoidmva": 11,
}


@dataclass(frozen=True)
class BenchmarkConfig:
    """Declarative description of one benchmark environment."""

    kind: str
    horizon: int = 0  # 0 = use the benchmark's default
    levels: int = 4
    fuzzy_mean: float = 1.0
    fuzzy_spread: float = 2.0

    def __post_init__(self) -> None:
        if self.kind not in BENCHMARK_KINDS:
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
        return self.horizon if self.horizon > 0 else DEFAULT_HORIZONS[self.kind]

    @property
    def has_instances(self) -> bool:
        return self.kind in ("sigmoid", "sigmoidmva")

    @property
    def stochastic_reward(self) -> bool:
        return self.kind == "fuzzy"

    @property
    def noisy(self) -> bool:
        """Whether one policy's return varies between episodes: stochastic
        rewards or sampled instances. It sets the experiment defaults:
        alpha 0.1 (else 1.0), and 10 runs (else 1) per evaluation outside
        fixed sets and per blackbox race."""
        return self.stochastic_reward or self.has_instances

    @property
    def fixed_episode_length(self) -> bool:
        return self.kind != "fuzzy"


def make_env(config: BenchmarkConfig) -> Environment:
    """Instantiate the environment described by ``config``."""
    horizon = config.resolved_horizon
    if config.kind == "counting":
        return CountingEnv(horizon)
    if config.kind == "fuzzy":
        return FuzzyEnv(horizon, mean=config.fuzzy_mean, spread=config.fuzzy_spread)
    if config.kind == "luby":
        return LubyEnv(horizon)
    if config.kind == "sigmoid":
        return SigmoidEnv(horizon)
    return SigmoidMVAEnv(horizon, levels=config.levels)
