"""Sequence-space black-box configurator.

Searches over fixed per-timestep action schedules, never observing
state: the open-loop view a classical configurator has of the problem.
Candidates are either fresh random schedules or single-position
mutations of the incumbent, compared by aggressive racing on paired
evaluation streams. Every environment episode counts against the
budget, re-evaluations included.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    CONTEXT_FREE,
    ContractError,
    Environment,
    InstanceContext,
    SeedSpec,
    greedy_rollout,
)

@dataclass(frozen=True)
class Schedule:
    """Open-loop action sequence, one entry per time step."""

    actions: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.actions)


@dataclass
class IncumbentRecord:
    schedule: Schedule
    eval_rewards: list[float] = field(default_factory=list)

    @property
    def mean_reward(self) -> float:
        return sum(self.eval_rewards) / len(self.eval_rewards)

    @property
    def n_runs(self) -> int:
        return len(self.eval_rewards)


def random_schedule(
    rng: np.random.Generator, horizon: int, action_count: int
) -> Schedule:
    if horizon < 1:
        raise ContractError("horizon must be >= 1")
    return Schedule(tuple(int(a) for a in rng.integers(action_count, size=horizon)))


def mutate_schedule(
    rng: np.random.Generator, schedule: Schedule, action_count: int
) -> Schedule:
    """Flip one uniformly chosen position to a different uniform value."""
    actions = list(schedule.actions)
    pos = int(rng.integers(len(actions)))
    if action_count > 1:
        shift = 1 + int(rng.integers(action_count - 1))
        actions[pos] = (actions[pos] + shift) % action_count
    return Schedule(tuple(actions))


class ScheduleEvaluator:
    """Executes schedules with paired per-run instance and noise streams.

    Run index r always maps to the same instance and the same noise
    stream, so two schedules compared on the same run indices see
    identical conditions.
    """

    def __init__(
        self,
        env: Environment,
        instances: list[InstanceContext] | None,
        base_seed: int,
    ) -> None:
        self.env = env
        self.instances = instances
        self.base_seed = base_seed
        self.episodes_consumed = 0

    def instance_for_run(self, run: int) -> InstanceContext:
        if self.instances is None:
            return CONTEXT_FREE
        return self.instances[run % len(self.instances)]

    def run(self, schedule: Schedule, run: int) -> float:
        if len(schedule) != self.env.spec.horizon:
            raise ContractError(
                f"schedule length {len(schedule)} != horizon {self.env.spec.horizon}"
            )
        self.episodes_consumed += 1
        actions = schedule.actions
        return greedy_rollout(
            lambda obs: actions[obs.time_step],
            self.env,
            self.instance_for_run(run),
            SeedSpec(self.base_seed, run),
        )


def race(
    challenger: Schedule,
    incumbent: IncumbentRecord,
    evaluator: ScheduleEvaluator,
    max_runs: int,
    budget_left: int | None = None,
) -> tuple[IncumbentRecord, int]:
    """Race a challenger against the incumbent on shared run indices.

    The challenger is evaluated on successively more paired runs
    (doubling blocks); it is dropped as soon as its mean falls at or
    below the incumbent's mean on the same runs, and promoted only if
    it completes the incumbent's run count with a strictly greater
    mean. Returns the winner and the episodes consumed.
    """
    if max_runs < 1:
        raise ContractError("max_runs must be >= 1")
    target_runs = min(max_runs, incumbent.n_runs)
    rewards: list[float] = []
    consumed = 0
    block = 1
    while len(rewards) < target_runs:
        n_new = min(block, target_runs - len(rewards))
        if budget_left is not None and consumed + n_new > budget_left:
            return incumbent, consumed  # budget exhausted mid-race
        for _ in range(n_new):
            rewards.append(evaluator.run(challenger, len(rewards)))
            consumed += 1
        block *= 2
        k = len(rewards)
        challenger_mean = sum(rewards) / k
        incumbent_mean = sum(incumbent.eval_rewards[:k]) / k
        if challenger_mean <= incumbent_mean:
            return incumbent, consumed
    return IncumbentRecord(challenger, rewards), consumed


@dataclass
class BlackboxResult:
    incumbent: IncumbentRecord
    best_so_far: list[float]  # incumbent mean after every consumed episode
    episodes_consumed: int


def blackbox_optimize(
    env: Environment,
    instances: list[InstanceContext] | None,
    episode_budget: int,
    rng: np.random.Generator,
    neighbor_fraction: float = 0.5,
    max_runs: int = 1,
    stop_at: float | None = None,
) -> BlackboxResult:
    """Random search plus incumbent mutation under a racing comparison.

    Emits the incumbent's recorded mean after every consumed episode so
    the curve is directly comparable with per-episode agent learning
    curves. ``max_runs`` caps the paired runs behind each comparison:
    1 suits a deterministic benchmark; noisy rewards or varying
    instances need more (the harness passes 10). ``stop_at`` ends the
    search early once the incumbent mean reaches the given value (the
    curve stays defined: best-so-far is monotone by construction).
    """
    if episode_budget < 1 or max_runs < 1:
        raise ContractError("episode_budget and max_runs must be >= 1")
    spec = env.spec
    evaluator = ScheduleEvaluator(env, instances, base_seed=int(rng.integers(2**63)))

    first = random_schedule(rng, spec.horizon, spec.action_count)
    rewards = [evaluator.run(first, run) for run in range(min(max_runs, episode_budget))]
    incumbent = IncumbentRecord(first, rewards)
    # The first incumbent's mean backfills its own evaluation episodes.
    curve: list[float] = [incumbent.mean_reward] * len(rewards)

    while evaluator.episodes_consumed < episode_budget:
        if stop_at is not None and incumbent.mean_reward >= stop_at:
            break
        if rng.random() < neighbor_fraction:
            challenger = mutate_schedule(rng, incumbent.schedule, spec.action_count)
        else:
            challenger = random_schedule(rng, spec.horizon, spec.action_count)
        budget_left = episode_budget - evaluator.episodes_consumed
        previous_mean = incumbent.mean_reward
        incumbent, consumed = race(challenger, incumbent, evaluator, max_runs, budget_left)
        # A promotion takes effect on the race's final episode.
        curve.extend([previous_mean] * (consumed - 1))
        curve.append(incumbent.mean_reward)
    return BlackboxResult(
        incumbent=incumbent,
        best_so_far=curve,
        episodes_consumed=evaluator.episodes_consumed,
    )
