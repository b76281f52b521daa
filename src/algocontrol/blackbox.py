"""Sequence-space black-box configurator.

Searches over fixed per-timestep action schedules, never observing
state: the open-loop view a classical configurator has of the problem.
Candidates are either fresh random schedules or single-position
mutations of the incumbent, compared by aggressive racing on paired
evaluation streams. Every environment episode counts against the
budget, re-evaluations included.

On benchmarks with ``fixed_rewards`` the rollout loop fills each
instance's T x A reward table once; a schedule scored from it gets the
rollout's total bit for bit and still counts as one episode.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import ContractError, Environment, Instance, SeedSpec, greedy_rollout


@dataclass
class IncumbentRecord:
    schedule: tuple[int, ...]
    eval_rewards: list[float] = field(default_factory=list)

    @property
    def mean_reward(self) -> float:
        return sum(self.eval_rewards) / len(self.eval_rewards)

    @property
    def n_runs(self) -> int:
        return len(self.eval_rewards)


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

    Run index r always maps to the same instance and the same noise
    stream, so two schedules compared on the same run indices see
    identical conditions.
    """

    def __init__(self, env: Environment, instances: list[Instance] | None,
                 base_seed: int) -> None:
        if instances is not None and not instances:
            raise ContractError("instances must be None or non-empty")
        self.env = env
        self.instances = instances
        self.base_seed = base_seed
        self.episodes_consumed = 0
        self._tables: dict[Instance, list[tuple[float, ...]]] = {}

    def instance_for_run(self, run: int) -> Instance:
        if self.instances is None:
            return ()
        return self.instances[run % len(self.instances)]

    def run(self, schedule: tuple[int, ...], run: int) -> float:
        env, instance = self.env, self.instance_for_run(run)
        if len(schedule) != env.spec.horizon:
            raise ContractError(
                f"schedule length {len(schedule)} != horizon {env.spec.horizon}"
            )
        self.episodes_consumed += 1
        if not env.fixed_rewards:
            return greedy_rollout(lambda obs: schedule[obs.time_step], env, instance,
                                  SeedSpec(self.base_seed, run))
        if not 0 <= min(schedule) <= max(schedule) < env.spec.action_count:
            raise ContractError(f"schedule action out of range [0, {env.spec.action_count})")
        table = self._tables.get(instance)
        if table is None:  # row t: each action's reward at step t, as step returns it
            columns = []
            for action in range(env.spec.action_count):
                greedy_rollout(lambda obs: action, env, instance, None, record_trace=True)
                columns.append([reward for _, _, reward in env.trace])
            table = self._tables[instance] = list(zip(*columns))
        total = 0.0  # added left to right from 0.0, as greedy_rollout does
        for row, action in zip(table, schedule):
            total += row[action]
        return total


def race(
    challenger: tuple[int, ...],
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
    if max_runs < 1 or incumbent.n_runs < 1:
        raise ContractError("max_runs and the incumbent's evaluation runs must be >= 1")
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
    instances: list[Instance] | None,
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
    if episode_budget < 1 or max_runs < 1 or not 0.0 <= neighbor_fraction <= 1.0:
        raise ContractError("need episode_budget, max_runs >= 1 and neighbor_fraction in [0, 1]")
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
