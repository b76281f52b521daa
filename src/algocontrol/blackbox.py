"""Sequence-space black-box configurator.

Searches over fixed per-timestep action schedules, never observing
state: the open-loop view a classical configurator has of the problem.
Candidates are either fresh random schedules or single-position
mutations of the incumbent, compared by aggressive racing on paired
evaluation streams. Every environment episode counts against the
budget, re-evaluations included.

Schedules are scored through one function, ``score(schedule, run)`` in
``blackbox_optimize``: run r always takes the instance ``instances[r % n]``
and the noise stream (base seed, r), so two schedules compared on the same
runs see the same conditions. It returns ``Environment.path_return`` (bit
for bit a rollout's total), and each score counts as one episode. Every
draw comes from one ``core.BlockStream``: the values ``Generator`` draws
would give.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import BlockStream, ContractError, Environment, Instance


@dataclass
class IncumbentRecord:
    schedule: tuple[int, ...]
    eval_rewards: list[float] = field(default_factory=list)

    @property
    def mean_reward(self) -> float:
        return sum(self.eval_rewards) / len(self.eval_rewards)


def random_schedule(rng: BlockStream, horizon: int, action_count: int) -> tuple[int, ...]:
    """Uniform actions, one per time step."""
    if horizon < 1:
        raise ContractError("horizon must be >= 1")
    return tuple(rng.integers(action_count, size=horizon))


def mutate_schedule(rng: BlockStream, schedule: tuple[int, ...],
                    action_count: int) -> tuple[int, ...]:
    """Flip one uniformly chosen position to a different uniform value."""
    if not schedule:
        raise ContractError("cannot mutate an empty schedule")
    actions = list(schedule)
    pos = rng.integers(len(actions))
    if action_count > 1:
        shift = 1 + rng.integers(action_count - 1)
        actions[pos] = (actions[pos] + shift) % action_count
    return tuple(actions)


def race(
    challenger: tuple[int, ...],
    incumbent: IncumbentRecord,
    score,
    max_runs: int,
    budget_left: int,
) -> tuple[IncumbentRecord, int]:
    """Race a challenger against the incumbent on shared run indices.

    ``score(schedule, run)`` returns the total of one episode of ``schedule``
    on paired run ``run``. The challenger is evaluated on successively
    more paired runs (doubling blocks); it is dropped as soon as its mean
    falls at or below the incumbent's mean on the same runs, and promoted
    only if it completes the incumbent's run count with a strictly greater
    mean. Returns the winner and the episodes consumed.
    """
    held = incumbent.eval_rewards
    if max_runs < 1 or not held:
        raise ContractError("max_runs and the incumbent's evaluation runs must be >= 1")
    target_runs = min(max_runs, len(held))
    rewards: list[float] = []
    k, block = 0, 1  # k: runs so far, len(rewards)
    while k < target_runs:
        n_new = min(block, target_runs - k)
        if k + n_new > budget_left:
            return incumbent, k  # budget exhausted mid-race
        for r in range(k, k + n_new):
            rewards.append(score(challenger, r))
        k += n_new
        block *= 2
        if sum(rewards) / k <= sum(held[:k]) / k:
            return incumbent, k
    return IncumbentRecord(challenger, rewards), k


@dataclass
class BlackboxResult:
    incumbent: IncumbentRecord
    best_so_far: list[float]  # incumbent mean after every consumed episode
    episodes_consumed: int


def blackbox_optimize(
    env: Environment,
    instances: list[Instance],
    episode_budget: int,
    rng: BlockStream,
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
    if not instances:  # a benchmark without instances passes [()]
        raise ContractError("instances must be non-empty")
    base_seed, n = rng.integers(2**63), len(instances)

    def score(schedule: tuple[int, ...], run: int) -> float:
        """Run r: instance ``instances[r % n]``, noise stream (base_seed, r)."""
        return env.path_return(schedule, instances[run % n], base_seed, run)

    first = random_schedule(rng, env.horizon, env.action_count)
    rewards = [score(first, run) for run in range(min(max_runs, episode_budget))]
    incumbent = IncumbentRecord(first, rewards)
    mean = incumbent.mean_reward  # the incumbent's, recomputed on promotion only
    # The first incumbent's mean backfills its own evaluation episodes.
    curve: list[float] = [mean] * len(rewards)

    while len(curve) < episode_budget:
        if stop_at is not None and mean >= stop_at:
            break
        if rng.random() < neighbor_fraction:
            challenger = mutate_schedule(rng, incumbent.schedule, env.action_count)
        else:
            challenger = random_schedule(rng, env.horizon, env.action_count)
        winner, consumed = race(challenger, incumbent, score, max_runs,
                                episode_budget - len(curve))
        if consumed > 1:
            curve.extend([mean] * (consumed - 1))
        if winner is not incumbent:  # a promotion takes effect on the race's final episode
            incumbent, mean = winner, winner.mean_reward
        curve.append(mean)
    return BlackboxResult(
        incumbent=incumbent,
        best_so_far=curve,
        episodes_consumed=len(curve),
    )
