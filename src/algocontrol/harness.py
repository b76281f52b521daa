"""Experiment protocol: train, evaluate after every episode, repeat
over seeds, aggregate.

Each seed repetition is fully self-contained: all of its randomness is
derived from (master_seed, seed_index) through fixed stream ids, so
seed runs can execute in any order (or in parallel) without changing
any curve, and evaluation draws from streams disjoint from training.
Three instance regimes are supported: none (context-free benchmarks),
distribution (fresh instance per training episode), and fixed train/
test sets with held-out evaluation every ``test_eval_every`` episodes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .agents import AgentHyperparams, DQNAgent, TabularAgent, AGENT_KINDS, save_agent
from .benchmarks import (
    BenchmarkConfig,
    make_env,
    make_instance_set,
    sample_sigmoid_instance,
)
from .blackbox import blackbox_optimize
from .core import (
    ConfigError,
    ContractError,
    Environment,
    Instance,
    SeedSpec,
    derive_seed,
    derive_stream,
    greedy_rollout,
)

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
            raise ConfigError(
                f"unknown agent kind {cfg.agent_kind!r}; expected one of {AGENT_KINDS}"
            )
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
            raise ConfigError(
                f"unknown instance mode {cfg.instance_mode!r}; expected one of {INSTANCE_MODES}"
            )
        if cfg.instance_mode == "none" and cfg.benchmark.has_instances:
            raise ConfigError(
                f"benchmark {cfg.benchmark.kind!r} requires instances; "
                "use instance_mode distribution or fixed"
            )
        if cfg.instance_mode != "none" and not cfg.benchmark.has_instances:
            raise ConfigError(
                f"benchmark {cfg.benchmark.kind!r} is context-free; use instance_mode none"
            )
        if cfg.instance_mode == "fixed" and (
            cfg.n_train_instances < 1 or cfg.n_test_instances < 1
        ):
            raise ConfigError("fixed mode needs n_train_instances and n_test_instances >= 1")
        if cfg.agent_kind == "dqn" and not cfg.benchmark.has_instances:
            # DQN encodes [t/T, context]; context-free benchmarks would
            # leave it blind to histories, so keep it on the sigmoid family.
            raise ConfigError("dqn supports only the sigmoid-family benchmarks")
        if cfg.eval_runs < 0:
            raise ConfigError("eval_runs must be >= 0")
        noisy = cfg.benchmark.noisy
        if cfg.instance_mode == "fixed":
            # Fixed sets evaluate once on every training instance.
            if cfg.eval_runs not in (0, cfg.n_train_instances):
                raise ConfigError(
                    f"fixed mode evaluates on all {cfg.n_train_instances} train "
                    "instances; set eval_runs to 0 or to that number"
                )
            eval_runs = cfg.n_train_instances
        else:
            eval_runs = cfg.eval_runs or (10 if noisy else 1)
        hp = cfg.hp or AgentHyperparams(alpha=0.1 if noisy else 1.0)
        return replace(cfg, eval_runs=eval_runs, hp=hp)


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


def smooth(values: list[float], window: int = 10) -> list[float]:
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
    """Pointwise mean and standard error over per-seed curves."""
    if not curves:
        raise ContractError("need at least one curve to aggregate")
    lengths = {len(c.train_rewards) for c in curves}
    if len(lengths) != 1:
        raise ContractError(f"curves have ragged lengths: {sorted(lengths)}")
    if any(c.episodes != curves[0].episodes for c in curves):
        raise ContractError("curves disagree on their episode grids")
    data = np.array([c.train_rewards for c in curves])
    mean = data.mean(axis=0)
    if data.shape[0] > 1:
        stderr = data.std(axis=0, ddof=1) / math.sqrt(data.shape[0])
    else:
        stderr = np.zeros(data.shape[1])
    return AggregateCurve(
        episodes=list(curves[0].episodes),
        mean=[float(v) for v in mean],
        stderr=[float(v) for v in stderr],
    )


def run_training_episode(
    agent,
    env: Environment,
    instance: Instance,
    seed: SeedSpec,
    explore_rng: np.random.Generator,
    train_rng: np.random.Generator,
) -> float:
    """One training episode: act, observe, update; returns total reward.
    Each observation is encoded once, by ``agent.encode``."""
    s = agent.encode(env.reset(instance, seed))
    total, done = 0.0, False
    while not done:
        action = agent.select_action(s, explore_rng)
        obs, reward, done = env.step(action)
        s_next = agent.encode(obs)
        agent.observe(s, action, reward, s_next, done)
        total += reward
        s = s_next
    agent.end_episode(train_rng)
    return total


def _make_agent(cfg: ExperimentConfig, run_seed: int):
    spec = make_env(cfg.benchmark).spec
    if cfg.agent_kind == "dqn":
        # sigmoid-family context is (scale in +-100, inflection near T/2)
        scales = (0.01, 1.0 / spec.horizon)
        return DQNAgent(
            action_count=spec.action_count,
            horizon=spec.horizon,
            context_dim=spec.context_dim,
            total_episodes=cfg.n_episodes,
            hp=cfg.hp,
            rng=derive_stream(run_seed, AGENT_INIT_STREAM),
            context_scales=scales,
        )
    return TabularAgent(cfg.agent_kind, spec.action_count, hp=cfg.hp)


class _EvalSetup:
    """Evaluation instances and paired noise seeds for one seed run."""

    def __init__(self, cfg: ExperimentConfig, run_seed: int,
                 train_set: list[Instance] | None) -> None:
        self.cfg = cfg
        self.run_seed = run_seed
        horizon = cfg.benchmark.resolved_horizon
        if cfg.instance_mode == "distribution":
            rng = derive_stream(run_seed, EVAL_INSTANCE_STREAM)
            self.instances = make_instance_set(rng, horizon, cfg.eval_runs)
        elif cfg.instance_mode == "fixed":
            assert train_set is not None
            self.instances = train_set
        else:
            self.instances = [()] * cfg.eval_runs

    def evaluate(self, agent, env: Environment, episode: int) -> float:
        # Instances stay fixed across checkpoints (variance reduction);
        # reward noise is fresh per checkpoint so smoothing averages it.
        base = EVAL_NOISE_BASE + episode * len(self.instances)
        return _mean_greedy_return(agent, env, self.instances, self.run_seed, base)


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
                        run_seed: int, base: int) -> float:
    """Mean greedy return over ``instances``; run r draws noise stream base + r."""
    policy = agent.greedy_action
    total = 0.0
    for r, instance in enumerate(instances):
        total += greedy_rollout(policy, env, instance, SeedSpec(run_seed, base + r))
    return total / len(instances)


def _instance_sets(
    cfg: ExperimentConfig,
) -> tuple[list[Instance] | None, list[Instance] | None]:
    """Fixed train/test sets, shared by every seed run (disjoint streams)."""
    if cfg.instance_mode != "fixed":
        return None, None
    horizon = cfg.benchmark.resolved_horizon
    train = make_instance_set(
        derive_stream(cfg.master_seed, TRAIN_SET_STREAM), horizon, cfg.n_train_instances
    )
    test = make_instance_set(
        derive_stream(cfg.master_seed, TEST_SET_STREAM), horizon, cfg.n_test_instances
    )
    return train, test


def _blackbox_curve(cfg: ExperimentConfig, seed_index: int,
                    eval_setup: _EvalSetup) -> SeedCurve:
    result = blackbox_optimize(
        make_env(cfg.benchmark),
        eval_setup.instances,
        episode_budget=cfg.n_episodes,
        rng=derive_stream(eval_setup.run_seed, BLACKBOX_STREAM),
        neighbor_fraction=cfg.neighbor_fraction,
        max_runs=10 if cfg.benchmark.noisy else 1,
    )
    episodes = list(range(cfg.train_eval_every, cfg.n_episodes + 1, cfg.train_eval_every))
    return SeedCurve(
        seed=seed_index,
        episodes=episodes,
        train_rewards=[result.best_so_far[e - 1] for e in episodes],
    )


def _training(cfg: ExperimentConfig, run_seed: int, agent,
              train_set: list[Instance] | None):
    """Train ``agent`` for one seed run, yielding each episode number
    once that episode is done.

    Training consumes no evaluation streams, so whatever the caller
    does between episodes leaves the agent bit-identical.
    """
    env = make_env(cfg.benchmark)
    explore_rng = derive_stream(run_seed, EXPLORE_STREAM)
    train_rng = derive_stream(run_seed, TRAIN_NOISE_BASE)
    instance_rng = derive_stream(run_seed, TRAIN_INSTANCE_STREAM)
    for episode in range(1, cfg.n_episodes + 1):
        run_training_episode(
            agent,
            env,
            _draw_instance(cfg, instance_rng, train_set),
            SeedSpec(run_seed, TRAIN_NOISE_BASE + episode),
            explore_rng,
            train_rng,
        )
        yield episode


def _draw_instance(
    cfg: ExperimentConfig,
    instance_rng: np.random.Generator,
    train_set: list[Instance] | None,
) -> Instance:
    if cfg.instance_mode == "distribution":
        horizon = cfg.benchmark.resolved_horizon
        return sample_sigmoid_instance(instance_rng, horizon)
    if cfg.instance_mode == "fixed":
        assert train_set is not None
        return train_set[int(instance_rng.integers(len(train_set)))]
    return ()


def _check_save(cfg: ExperimentConfig, save_path: str) -> None:
    if save_path and cfg.agent_kind == "blackbox":
        raise ConfigError("blackbox runs produce schedules, not agent snapshots")


def train_and_evaluate(
    cfg: ExperimentConfig,
    seed_index: int,
    train_set: list[Instance] | None = None,
    test_set: list[Instance] | None = None,
    save_path: str = "",
) -> SeedCurve:
    """One seed repetition of the full protocol.

    Trains for ``n_episodes`` episodes; after every ``train_eval_every``-th
    episode the greedy policy is evaluated per the instance regime
    (1 run deterministic, mean of 10 runs stochastic, once per training
    instance for fixed sets). Fixed mode additionally evaluates the
    held-out test set every ``test_eval_every`` episodes. A non-empty
    ``save_path`` receives a snapshot of the trained agent.
    """
    cfg = cfg.validated()
    _check_save(cfg, save_path)
    if train_set is None and cfg.instance_mode == "fixed":
        train_set, test_set = _instance_sets(cfg)
    run_seed = derive_seed(cfg.master_seed, RUN_BASE + seed_index)
    started = time.perf_counter()
    eval_setup = _EvalSetup(cfg, run_seed, train_set)

    if cfg.agent_kind == "blackbox":
        curve = _blackbox_curve(cfg, seed_index, eval_setup)
    else:
        curve = SeedCurve(seed=seed_index, episodes=[], train_rewards=[])
        eval_env = make_env(cfg.benchmark)
        agent = _make_agent(cfg, run_seed)
        for episode in _training(cfg, run_seed, agent, train_set):
            if episode % cfg.train_eval_every == 0:
                curve.episodes.append(episode)
                curve.train_rewards.append(eval_setup.evaluate(agent, eval_env, episode))
            if cfg.instance_mode == "fixed" and episode % cfg.test_eval_every == 0:
                curve.test_points.append(
                    (episode, evaluate_on_test_set(agent, eval_env, test_set, run_seed))
                )
        if save_path:
            save_agent(agent, save_path)
    if cfg.record_wall_time:
        curve.wall_time_ms = int((time.perf_counter() - started) * 1000)
    return curve


def run_experiment(
    cfg: ExperimentConfig, save_agent: tuple[int, str] | None = None
) -> list[SeedCurve]:
    """All seed repetitions; deterministic regardless of worker count.

    ``save_agent=(k, path)`` snapshots seed k's agent at ``path`` when
    that seed run ends, inside the process that trained it.
    """
    cfg = cfg.validated()
    save_seed, save_path = save_agent or (-1, "")
    _check_save(cfg, save_path)
    if save_agent is not None and not 0 <= save_seed < cfg.n_seeds:
        raise ConfigError(f"agent seed {save_seed} is not a seed of this run; "
                          f"expected 0 to {cfg.n_seeds - 1}")
    train_set, test_set = _instance_sets(cfg)
    jobs = [
        (cfg, k, train_set, test_set, save_path if k == save_seed else "")
        for k in range(cfg.n_seeds)
    ]
    if cfg.workers > 1:
        import multiprocessing

        with multiprocessing.Pool(cfg.workers) as pool:
            curves = pool.starmap(train_and_evaluate, jobs)
    else:
        curves = [train_and_evaluate(*job) for job in jobs]
    return sorted(curves, key=lambda c: c.seed)


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
            raise ContractError(
                f"{agent} {phase} reward {reward!r} at seed {seed}, episode {episode} "
                "is not finite"
            )
        lines.append(
            f"{benchmark},{agent},{seed},{episode},{phase},{reward:.6g},{wall_ms}"
        )
    return "\n".join(lines) + "\n"


def write_csv(path: str, cfg: ExperimentConfig, curves: list[SeedCurve]) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(format_csv(curves_to_csv_rows(cfg, curves)))
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc
