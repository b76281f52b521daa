"""Sequence-space black-box configurator.

Searches over fixed per-timestep action schedules, never observing
state: the open-loop view a classical configurator has of the problem.
Candidates are either fresh random schedules or single-position
mutations of the incumbent, compared by aggressive racing on paired
evaluation streams. Every environment episode counts against the
budget, re-evaluations included.

Schedules are scored by ``Environment.path_return`` (bit for bit a
rollout's total), and each score counts as one episode.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import ContractError, Environment, Instance


@dataclass
class IncumbentRecord:
    schedule: tuple[int, ...]
    eval_rewards: list[float] = field(default_factory=list)

    @property
    def mean_reward(self) -> float:
        return sum(self.eval_rewards) / len(self.eval_rewards)


def random_schedule(rng: np.random.Generator, horizon: int,
                    action_count: int) -> tuple[int, ...]:
    """Uniform actions, one per time step."""
    if horizon < 1:
        raise ContractError("horizon must be >= 1")
    return tuple(rng.integers(action_count, size=horizon).tolist())


def mutate_schedule(rng: np.random.Generator, schedule: tuple[int, ...],
                    action_count: int) -> tuple[int, ...]:
    """Flip one uniformly chosen position to a different uniform value."""
    if not schedule:
        raise ContractError("cannot mutate an empty schedule")
    actions = list(schedule)
    pos = int(rng.integers(len(actions)))
    if action_count > 1:
        shift = 1 + int(rng.integers(action_count - 1))
        actions[pos] = (actions[pos] + shift) % action_count
    return tuple(actions)


class ScheduleEvaluator:
    """Executes schedules with paired per-run instance and noise streams.

    Run index r always maps to the same instance, ``instances[r % len]``
    (``[()]`` on a benchmark without instances), and the same noise
    stream, so two schedules compared on the same run indices see
    identical conditions. Each score is one episode; the caller counts them.
    """

    def __init__(self, env: Environment, instances: list[Instance], base_seed: int) -> None:
        if not instances:
            raise ContractError("instances must be non-empty")
        self.env = env
        self.instances = instances
        self.base_seed = base_seed

    def instance_for_run(self, run: int) -> Instance:
        return self.instances[run % len(self.instances)]

    def run(self, schedule: tuple[int, ...], run: int) -> float:
        env = self.env
        if len(schedule) != env.horizon:
            raise ContractError(f"schedule length {len(schedule)} != horizon {env.horizon}")
        return env.path_return(schedule, self.instance_for_run(run), self.base_seed, run)


def race(
    challenger: tuple[int, ...],
    incumbent: IncumbentRecord,
    evaluator: ScheduleEvaluator,
    max_runs: int,
    budget_left: int,
) -> tuple[IncumbentRecord, int]:
    """Race a challenger against the incumbent on shared run indices.

    The challenger is evaluated on successively more paired runs
    (doubling blocks); it is dropped as soon as its mean falls at or
    below the incumbent's mean on the same runs, and promoted only if
    it completes the incumbent's run count with a strictly greater
    mean. Returns the winner and the episodes consumed.
    """
    if max_runs < 1 or not incumbent.eval_rewards:
        raise ContractError("max_runs and the incumbent's evaluation runs must be >= 1")
    target_runs = min(max_runs, len(incumbent.eval_rewards))
    rewards: list[float] = []
    block = 1
    while len(rewards) < target_runs:
        n_new = min(block, target_runs - len(rewards))
        if len(rewards) + n_new > budget_left:
            return incumbent, len(rewards)  # budget exhausted mid-race
        for _ in range(n_new):
            rewards.append(evaluator.run(challenger, len(rewards)))
        block *= 2
        k = len(rewards)
        challenger_mean = sum(rewards) / k
        incumbent_mean = sum(incumbent.eval_rewards[:k]) / k
        if challenger_mean <= incumbent_mean:
            return incumbent, k
    return IncumbentRecord(challenger, rewards), len(rewards)


@dataclass
class BlackboxResult:
    incumbent: IncumbentRecord
    best_so_far: list[float]  # incumbent mean after every consumed episode
    episodes_consumed: int


def blackbox_optimize(
    env: Environment,
    instances: list[Instance],
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
    curve stays defined: best-so-far is monotone by construction). Each race
    appends the episodes it consumed, at least one, so ``len(curve)`` counts them.
    """
    if episode_budget < 1 or max_runs < 1 or not 0.0 <= neighbor_fraction <= 1.0:
        raise ContractError("need episode_budget, max_runs >= 1 and neighbor_fraction in [0, 1]")
    evaluator = ScheduleEvaluator(env, instances, base_seed=int(rng.integers(2**63)))

    first = random_schedule(rng, env.horizon, env.action_count)
    rewards = [evaluator.run(first, run) for run in range(min(max_runs, episode_budget))]
    incumbent = IncumbentRecord(first, rewards)
    # The first incumbent's mean backfills its own evaluation episodes.
    curve: list[float] = [incumbent.mean_reward] * len(rewards)

    while len(curve) < episode_budget:
        if stop_at is not None and incumbent.mean_reward >= stop_at:
            break
        if rng.random() < neighbor_fraction:
            challenger = mutate_schedule(rng, incumbent.schedule, env.action_count)
        else:
            challenger = random_schedule(rng, env.horizon, env.action_count)
        budget_left = episode_budget - len(curve)
        previous_mean = incumbent.mean_reward
        incumbent, consumed = race(challenger, incumbent, evaluator, max_runs, budget_left)
        # A promotion takes effect on the race's final episode.
        curve.extend([previous_mean] * (consumed - 1))
        curve.append(incumbent.mean_reward)
    return BlackboxResult(
        incumbent=incumbent,
        best_so_far=curve,
        episodes_consumed=len(curve),
    )
