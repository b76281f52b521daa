"""Experiment protocol: train, evaluate after every episode, repeat
over seeds, aggregate.

Each seed repetition is fully self-contained: all of its randomness is
derived from (master_seed, seed_index) through fixed stream ids, so
seed runs can execute in any order, in parallel or in lockstep (a DQN
group takes one stacked SGD step per round of episodes) without changing
any curve, and evaluation draws from streams disjoint from training.
Each seed run also derives its own instances, the experiment's fixed
train/test sets included, from its master and run seeds.
Three instance regimes are supported: none (context-free benchmarks),
distribution (fresh instance per training episode), and fixed train/
test sets with held-out evaluation every ``test_eval_every`` episodes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from functools import reduce
from itertools import zip_longest
from operator import add

import numpy as np

from .agents import (AgentHyperparams, DQNAgent, DQNGroup, TabularAgent, AGENT_KINDS, snapshot,
                     state_key)
from .benchmarks import BenchmarkConfig, make_env, make_instance_set, sample_sigmoid_instance
from .blackbox import blackbox_optimize
from .core import (BlockStream, ConfigError, ContractError, Environment, Instance, SeedSpec,
                   derive_seed, derive_stream, greedy_rollout)

INSTANCE_MODES = ("none", "distribution", "fixed")

# Stream ids, fixed for reproducibility. Per-run streams hang off
# derive_seed(master_seed, RUN_BASE + seed_index); instance sets are
# shared by all runs and hang off the master seed directly.
TRAIN_SET_STREAM = 1 << 40
TEST_SET_STREAM = (1 << 40) + 1
RUN_BASE = 0

AGENT_INIT_STREAM = 1
EXPLORE_STREAM = 2
TRAIN_INSTANCE_STREAM = 3
EVAL_INSTANCE_STREAM = 4
BLACKBOX_STREAM = 5
TRAIN_NOISE_BASE = 1 << 32
EVAL_NOISE_BASE = 1 << 33
TEST_NOISE_BASE = 1 << 34


@dataclass(frozen=True)
class ExperimentConfig:
    benchmark: BenchmarkConfig
    agent_kind: str
    hp: AgentHyperparams | None = None  # None = defaults, alpha by BenchmarkConfig.noisy
    n_seeds: int = 25
    n_episodes: int = 1000
    master_seed: int = 0
    instance_mode: str = ""  # "" = infer from the benchmark
    n_train_instances: int = 100
    n_test_instances: int = 100
    eval_runs: int = 0  # 0 = regime default; fixed sets allow only n_train_instances
    test_eval_every: int = 500
    train_eval_every: int = 1
    smoothing_window: int = 10
    neighbor_fraction: float = 0.5
    record_wall_time: bool = False
    workers: int = 1
    output_path: str = ""

    def validated(self) -> "ExperimentConfig":
        cfg = self
        if cfg.agent_kind not in AGENT_KINDS:
            raise ConfigError(f"unknown agent kind {cfg.agent_kind!r}; "
                              f"expected one of {AGENT_KINDS}")
        if cfg.n_seeds < 1:
            raise ConfigError("n_seeds must be >= 1")
        if cfg.n_episodes < 1:
            raise ConfigError("n_episodes must be >= 1")
        if cfg.smoothing_window < 1:
            raise ConfigError("smoothing_window must be >= 1")
        if cfg.test_eval_every < 1 or cfg.train_eval_every < 1:
            raise ConfigError("evaluation intervals must be >= 1")
        if not 0.0 <= cfg.neighbor_fraction <= 1.0:
            raise ConfigError("neighbor_fraction must be in [0, 1]")
        if cfg.workers < 1:
            raise ConfigError("workers must be >= 1")
        if cfg.instance_mode == "":
            mode = "distribution" if cfg.benchmark.has_instances else "none"
            cfg = replace(cfg, instance_mode=mode)
        if cfg.instance_mode not in INSTANCE_MODES:
            raise ConfigError(f"unknown instance mode {cfg.instance_mode!r}; "
                              f"expected one of {INSTANCE_MODES}")
        if cfg.instance_mode == "none" and cfg.benchmark.has_instances:
            raise ConfigError(f"benchmark {cfg.benchmark.kind!r} requires instances; "
                              "use instance_mode distribution or fixed")
        if cfg.instance_mode != "none" and not cfg.benchmark.has_instances:
            raise ConfigError(f"benchmark {cfg.benchmark.kind!r} is context-free; "
                              "use instance_mode none")
        if cfg.instance_mode == "fixed" and min(cfg.n_train_instances, cfg.n_test_instances) < 1:
            raise ConfigError("fixed mode needs n_train_instances and n_test_instances >= 1")
        if cfg.agent_kind == "dqn" and not cfg.benchmark.has_instances:
            # DQN encodes [t/T, context]; context-free benchmarks would
            # leave it blind to histories, so keep it on the sigmoid family.
            raise ConfigError("dqn supports only the sigmoid-family benchmarks")
        if cfg.eval_runs < 0:
            raise ConfigError("eval_runs must be >= 0")
        if cfg.instance_mode == "fixed":
            # Fixed sets evaluate once on every training instance.
            if cfg.eval_runs not in (0, cfg.n_train_instances):
                raise ConfigError(f"fixed mode evaluates on all {cfg.n_train_instances} train "
                                  "instances; set eval_runs to 0 or to that number")
            eval_runs = cfg.n_train_instances
        else:
            eval_runs = cfg.eval_runs or cfg.benchmark.runs
        hp = cfg.hp or AgentHyperparams(alpha=0.1 if cfg.benchmark.noisy else 1.0)
        bench = replace(cfg.benchmark, horizon=cfg.benchmark.resolved_horizon)  # canonical
        return replace(cfg, benchmark=bench, eval_runs=eval_runs, hp=hp)


@dataclass
class SeedCurve:
    """Per-seed learning curve: rewards indexed by training episode."""

    seed: int
    episodes: list[int]
    train_rewards: list[float]
    test_points: list[tuple[int, float]] = field(default_factory=list)
    wall_time_ms: int = 0


@dataclass
class AggregateCurve:
    episodes: list[int]
    mean: list[float]
    stderr: list[float]


def smooth(values: list[float], window: int) -> list[float]:
    """Trailing moving average; the first window-1 points average over
    the available prefix so curves start at the first episode."""
    if window < 1:
        raise ContractError("window must be >= 1")
    out: list[float] = []
    acc = 0.0
    for i, v in enumerate(values):
        acc += v
        if i >= window:
            acc -= values[i - window]
            out.append(acc / window)
        else:
            out.append(acc / (i + 1))
    return out


def aggregate(curves: list[SeedCurve]) -> AggregateCurve:
    """Pointwise mean and standard error over per-seed curves; seeds that
    differ in train rows or episodes raise ContractError naming them."""
    if not curves:
        raise ContractError("need at least one curve to aggregate")
    if len({len(c.train_rewards) for c in curves}) != 1:
        counts = ", ".join(f"seed {c.seed} has {len(c.train_rewards)}" for c in curves)
        raise ContractError(f"seeds differ in train rows: {counts}")
    for c in curves[1:]:
        for a, b in zip_longest(curves[0].episodes, c.episodes, fillvalue="none"):
            if a != b:
                raise ContractError(f"seed {curves[0].seed} has train episode {a} "
                                    f"where seed {c.seed} has {b}")
    data = np.array([c.train_rewards for c in curves])
    mean = data.mean(axis=0)
    if data.shape[0] > 1:
        stderr = data.std(axis=0, ddof=1) / math.sqrt(data.shape[0])
    else:
        stderr = np.zeros(data.shape[1])
    return AggregateCurve(list(curves[0].episodes), [float(v) for v in mean],
                          [float(v) for v in stderr])


def run_training_episode(agent, env: Environment, instance: Instance, seed: SeedSpec,
                         explore_rng: np.random.Generator | BlockStream,
                         train_rng: BlockStream) -> float:
    """One training episode; returns its total reward. The benchmarks are
    white-box (what the agent sees at step t depends only on t, the instance and
    the actions so far), and no choice reads an update of its own episode. So the
    agent picks the whole path up to its end by ``select_action(s, rng)`` on the
    states ``(t, agent.features(instance), history)``; ``env.path_rewards`` scores
    it in one call, with ``step``'s values and draws; the agent ``observe``s the
    states, actions and rewards and ``end_episode``s. The environment's own
    episode is left alone. ``explore_rng`` serves ``select_action``,
    ``train_rng`` ``end_episode``."""
    env._check_instance(instance)
    select, features = agent.select_action, agent.features(instance)
    history, states, actions = (env.pad_action,) * env.history_len, [], []
    terminates = None if env.fixed_rewards else env._terminates
    for t in range(env.horizon):
        s = (t, features, history)
        action = select(s, explore_rng)
        states.append(s)
        actions.append(action)
        if terminates is not None and terminates(t, action):
            break
        if history:
            history = history[1:] + (action,)
    rewards = env.path_rewards(actions, instance, *seed)
    agent.observe(states, actions, rewards)
    agent.end_episode(train_rng)
    return reduce(add, rewards, 0.0)


def _make_agent(cfg: ExperimentConfig, env: Environment, run_seed: int):
    if cfg.agent_kind == "dqn":
        # sigmoid-family context is (scale in +-100, inflection near T/2)
        scales = (0.01, 1.0 / env.horizon)
        return DQNAgent(env.action_count, env.horizon, env.context_dim, cfg.n_episodes, cfg.hp,
                        derive_stream(run_seed, AGENT_INIT_STREAM), context_scales=scales)
    return TabularAgent(cfg.agent_kind, env.action_count, hp=cfg.hp)


class _EvalSetup:
    """Seed run ``seed_index`` of the protocol, set up once: its ``env``, the one
    environment it trains, checkpoints and tests on; its ``agent`` (none for
    blackbox) and the streams that train it; its ``curve``; its ``instances`` to
    evaluate on, with paired noise seeds; ``test_set``, the held-out set (empty
    outside fixed mode); and ``draw()``, each training episode's instance.

    Training consumes no evaluation stream, so whatever is evaluated between
    episodes leaves the agent bit-identical.
    """

    def __init__(self, cfg: ExperimentConfig, seed_index: int) -> None:
        self.cfg = cfg
        run_seed = self.run_seed = derive_seed(cfg.master_seed, RUN_BASE + seed_index)
        env = self.env = make_env(cfg.benchmark)
        self.curve = SeedCurve(seed=seed_index, episodes=[], train_rewards=[])
        horizon = cfg.benchmark.horizon
        self.test_set: list[Instance] = []
        if cfg.instance_mode == "distribution":
            rng = derive_stream(run_seed, EVAL_INSTANCE_STREAM)
            self.instances = make_instance_set(rng, horizon, cfg.eval_runs)
            instance_rng = derive_stream(run_seed, TRAIN_INSTANCE_STREAM)
            self.draw = lambda: sample_sigmoid_instance(instance_rng, horizon)
        elif cfg.instance_mode == "fixed":
            # Off the master seed, so every seed run derives the same sets.
            train = self.instances = make_instance_set(
                derive_stream(cfg.master_seed, TRAIN_SET_STREAM), horizon, cfg.n_train_instances
            )
            self.test_set = make_instance_set(
                derive_stream(cfg.master_seed, TEST_SET_STREAM), horizon, cfg.n_test_instances
            )
            instance_rng = BlockStream(run_seed, TRAIN_INSTANCE_STREAM)  # derive_stream's values
            self.draw = lambda: train[instance_rng.integers(len(train))]
        else:
            self.instances = [()] * cfg.eval_runs
            self.draw = lambda: ()
        # Per distinct instance: the state keys and actions of its last greedy path,
        # the score of the rollout that took it, and each key's row as last seen
        # (see TabularAgent.greedy_path_holds).
        self.paths: dict[Instance, tuple[list, list, float, list]] = {}
        if cfg.agent_kind != "blackbox":
            if env.fixed_rewards and not env.context_dim:  # training reads its one table
                env.reward_table(())
            self.agent = _make_agent(cfg, env, run_seed)
            self.explore_rng = BlockStream(run_seed, EXPLORE_STREAM)  # derive_stream's values
            self.replay_rng = BlockStream(run_seed, TRAIN_NOISE_BASE)

    def train(self, episode: int) -> None:
        """Training episode ``episode`` on the instance ``draw()`` gives."""
        run_training_episode(self.agent, self.env, self.draw(),
                             SeedSpec(self.run_seed, TRAIN_NOISE_BASE + episode),
                             self.explore_rng, self.replay_rng)

    def checkpoint(self, episode: int) -> None:
        """The curve's evaluations due after training episode ``episode``."""
        cfg, curve, agent = self.cfg, self.curve, self.agent
        if episode % cfg.train_eval_every == 0:
            curve.episodes.append(episode)
            curve.train_rewards.append(self.evaluate(agent, self.env, episode))
        if self.test_set and episode % cfg.test_eval_every == 0:
            curve.test_points.append((episode, evaluate_on_test_set(
                agent, self.env, self.test_set, self.run_seed)))

    def evaluate(self, agent, env: Environment, episode: int) -> float:
        # Instances stay fixed across checkpoints (variance reduction);
        # reward noise is fresh per checkpoint so smoothing averages it.
        base = EVAL_NOISE_BASE + episode * len(self.instances)
        return _mean_greedy_return(agent, env, self.instances, self.run_seed, base, self.paths)


def evaluate_on_test_set(
    agent,
    env: Environment,
    test_instances: list[Instance],
    run_seed: int,
) -> float:
    """Greedy episode on each held-out instance; mean total reward."""
    if not test_instances:
        raise ContractError("test instance set is empty")
    return _mean_greedy_return(agent, env, test_instances, run_seed, TEST_NOISE_BASE)


def _mean_greedy_return(agent, env: Environment, instances: list[Instance],
                        run_seed: int, base: int, paths: dict | None = None) -> float:
    """Mean greedy return over ``instances``; run r draws noise stream base + r.
    A DQN run adds up ``env.path_rewards`` of its path from one
    ``greedy_paths(instances)`` fill, a few instances per forward. With
    ``paths``, a stored tabular path that ``greedy_path_holds`` (checked once per
    instance) is scored again without a rollout, as an observation holds no
    reward: by the score stored with it where rewards are fixed, which no noise
    seed changes, else by ``env.path_return``. The check compares the path's rows
    with their values as last seen: a row equal to them keeps its greedy action,
    and any write to ``agent.q`` is seen, so only changed rows are walked again.
    Otherwise the run rolls out, and ``paths`` keeps its path, its score and a
    copy of its rows."""
    total = 0.0
    if isinstance(agent, DQNAgent):
        for r, (instance, path) in enumerate(zip(instances, agent.greedy_paths(instances))):
            total += reduce(add, env.path_rewards(path, instance, run_seed, base + r), 0.0)
        return total / len(instances)
    policy = agent.greedy_action
    checked = set()
    for r, instance in enumerate(instances):
        if paths is None:
            total += greedy_rollout(policy, env, instance, SeedSpec(run_seed, base + r))
            continue
        held = paths.get(instance)
        if held is not None and (instance in checked or agent.greedy_path_holds(
                held[0], held[1], held[3])):
            total += (held[2] if env.fixed_rewards
                      else env.path_return(held[1], instance, run_seed, base + r))
        else:
            trace: list = []
            score = greedy_rollout(policy, env, instance, SeedSpec(run_seed, base + r), trace)
            total += score
            keys = [state_key(obs) for obs, _, _ in trace]
            paths[instance] = (keys, [a for _, a, _ in trace], score, agent.rows_seen(keys))
        checked.add(instance)
    return total / len(instances)


def _blackbox_curve(run: _EvalSetup) -> None:
    cfg = run.cfg
    result = blackbox_optimize(
        run.env,
        run.instances,
        episode_budget=cfg.n_episodes,
        rng=BlockStream(run.run_seed, BLACKBOX_STREAM),
        neighbor_fraction=cfg.neighbor_fraction,
        max_runs=cfg.benchmark.runs,
    )
    episodes = run.curve.episodes = list(range(cfg.train_eval_every, cfg.n_episodes + 1,
                                               cfg.train_eval_every))
    run.curve.train_rewards = [result.best_so_far[e - 1] for e in episodes]


def _check_save(cfg: ExperimentConfig, save_agent: tuple[int, str] | None) -> None:
    if save_agent is not None and cfg.agent_kind == "blackbox":
        raise ConfigError("blackbox runs produce schedules, not agent snapshots")


def train_and_evaluate(
    cfg: ExperimentConfig,
    seeds: list[int],
    save_agent: tuple[int, str] | None = None,
) -> list[SeedCurve]:
    """Seed repetitions ``seeds`` of the full protocol, in lockstep, with
    their curves in the order of ``seeds``.

    Each seed run trains for ``n_episodes`` episodes; after every
    ``train_eval_every``-th episode its greedy policy is evaluated per the
    instance regime (1 run deterministic, mean of 10 runs stochastic, once
    per training instance for fixed sets). Fixed mode additionally
    evaluates the held-out test set every ``test_eval_every`` episodes.
    A round is episode e of each seed run in turn, then each run's
    checkpoints of episode e; DQN agents form one ``DQNGroup``, so the
    round's last episode takes one stacked SGD step for all of them.
    Runs share no random stream, so each curve is that of its seed run
    alone. ``save_agent=(k, path)`` saves seed k's agent at ``path`` if k
    is one of ``seeds``. Under ``record_wall_time`` each run records an
    equal share of the wall time of the whole call.
    """
    cfg = cfg.validated()
    _check_save(cfg, save_agent)
    started = time.perf_counter()
    runs = [_EvalSetup(cfg, k) for k in seeds]
    if cfg.agent_kind == "blackbox":
        for run in runs:
            _blackbox_curve(run)
    else:
        if cfg.agent_kind == "dqn":
            DQNGroup([run.agent for run in runs], [f"seed {k}" for k in seeds])
        for episode in range(1, cfg.n_episodes + 1):  # a round
            for run in runs:
                run.train(episode)
            for run in runs:
                run.checkpoint(episode)
        if save_agent is not None and save_agent[0] in seeds:
            snapshot.save_agent(runs[seeds.index(save_agent[0])].agent, save_agent[1])
    if cfg.record_wall_time:
        share = int((time.perf_counter() - started) * 1000 / len(seeds))
        for run in runs:
            run.curve.wall_time_ms = share
    return [run.curve for run in runs]


def run_experiment(
    cfg: ExperimentConfig, save_agent: tuple[int, str] | None = None
) -> list[SeedCurve]:
    """All seed repetitions, in ``min(workers, n_seeds)`` processes (one runs
    in-process); deterministic regardless of worker count.

    A DQN config's seeds are split into that many contiguous lockstep
    groups, one ``train_and_evaluate`` job each, so each process takes one
    stacked SGD step per round for its group. Other kinds share no step and
    run one seed per job, so a process holds one Q-table at a time (a
    lockstep group would hold all of its Q-tables at once: on the 2-seed
    ``luby-qlearn`` benchmark workload, 50.4 against 44.4 MB peak RSS).

    ``save_agent=(k, path)`` snapshots seed k's agent at ``path`` when
    its group ends, inside the process that trained it.
    """
    cfg = cfg.validated()
    _check_save(cfg, save_agent)
    if save_agent is not None and not 0 <= save_agent[0] < cfg.n_seeds:
        raise ConfigError(f"agent seed {save_agent[0]} is not a seed of this run; "
                          f"expected 0 to {cfg.n_seeds - 1}")
    n, workers = cfg.n_seeds, min(cfg.workers, cfg.n_seeds)  # a process per job at most
    n_jobs = workers if cfg.agent_kind == "dqn" else n
    edges = [i * n // n_jobs for i in range(n_jobs + 1)]
    jobs = [(cfg, list(range(a, b)), save_agent) for a, b in zip(edges, edges[1:])]
    if workers > 1:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            groups = pool.starmap(train_and_evaluate, jobs)
    else:
        groups = [train_and_evaluate(*job) for job in jobs]
    return [curve for group in groups for curve in group]  # contiguous groups: seed order


def curves_to_csv_rows(
    cfg: ExperimentConfig, curves: list[SeedCurve]
) -> list[tuple]:
    """Rows for the result CSV, sorted by (agent, seed, episode, phase)."""
    rows = [
        (cfg.benchmark.kind, cfg.agent_kind, curve.seed, episode, phase, reward,
         curve.wall_time_ms)
        for curve in curves
        for phase, points in (
            ("train", zip(curve.episodes, curve.train_rewards)),
            ("test", curve.test_points),
        )
        for episode, reward in points
    ]
    rows.sort(key=lambda r: (r[1], r[2], r[3], r[4]))
    return rows


CSV_HEADER = "benchmark,agent,seed,episode,phase,eval_reward,wall_time_ms"


def format_csv(rows: list[tuple]) -> str:
    """CSV text with floats printed to 6 significant digits; a NaN or
    infinite reward raises ContractError instead of being written."""
    lines = [CSV_HEADER]
    for benchmark, agent, seed, episode, phase, reward, wall_ms in rows:
        if not math.isfinite(reward):
            raise ContractError(f"{agent} {phase} reward {reward!r} at seed {seed}, "
                                f"episode {episode} is not finite")
        lines.append(f"{benchmark},{agent},{seed},{episode},{phase},{reward:.6g},{wall_ms}")
    return "\n".join(lines) + "\n"
