"""Experiment protocol: curves, aggregation, CSV, determinism."""

import gc
import re
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algocontrol.agents import AgentHyperparams, DQNAgent, TabularAgent, tabular
from algocontrol import harness
from algocontrol.benchmarks import (
    BENCHMARK_KINDS,
    BenchmarkConfig,
    CountingEnv,
    FuzzyEnv,
    LubyEnv,
    SigmoidEnv,
    make_env,
    sample_sigmoid_instance,
)
from algocontrol.config import parse_config
from algocontrol.core import (
    BlockStream,
    ContractError,
    Environment,
    SeedSpec,
    derive_seed,
    derive_stream,
)
from algocontrol.harness import (
    CSV_HEADER,
    ConfigError,
    ExperimentConfig,
    SeedCurve,
    aggregate,
    curves_to_csv_rows,
    evaluate_on_test_set,
    format_csv,
    greedy_rollout,
    run_experiment,
    run_training_episode,
    smooth,
    train_and_evaluate,
)
from oracles import step_training_episode
from test_golden import case_text, valid_cases


def counting_cfg(**kwargs):
    defaults = dict(
        benchmark=BenchmarkConfig("counting", horizon=5),
        agent_kind="qlearn",
        hp=AgentHyperparams(alpha=1.0),
        n_seeds=2,
        n_episodes=20,
        master_seed=7,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


class TestSmooth:
    def test_constant_unchanged(self):
        assert smooth([3.0] * 30, 10) == [3.0] * 30

    def test_impulse_plateau(self):
        values = [0.0] * 15 + [10.0] + [0.0] * 15
        out = smooth(values, 10)
        assert out[15:25] == [1.0] * 10
        assert out[25] == 0.0

    def test_window_one_is_identity(self):
        values = [1.0, 5.0, 2.0]
        assert smooth(values, 1) == values

    def test_prefix_averages_available_points(self):
        out = smooth([2.0, 4.0, 6.0], 10)
        assert out == [2.0, 3.0, 4.0]

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_stays_within_bounds(self, values):
        out = smooth(values, 10)
        assert len(out) == len(values)
        assert min(values) - 1e-9 <= min(out) and max(out) <= max(values) + 1e-9


class TestAggregate:
    def _curve(self, seed, rewards):
        return SeedCurve(
            seed=seed, episodes=list(range(1, len(rewards) + 1)), train_rewards=rewards
        )

    def test_identical_curves_zero_stderr(self):
        agg = aggregate([self._curve(0, [1.0, 2.0]), self._curve(1, [1.0, 2.0])])
        assert agg.mean == [1.0, 2.0]
        assert agg.stderr == [0.0, 0.0]

    def test_two_seeds_stderr(self):
        agg = aggregate([self._curve(0, [4.0]), self._curve(1, [6.0])])
        assert agg.mean == [5.0]
        assert agg.stderr == [pytest.approx(1.0)]  # s = sqrt(2), / sqrt(2)

    def test_single_seed_zero_stderr(self):
        agg = aggregate([self._curve(0, [3.0, 4.0])])
        assert agg.stderr == [0.0, 0.0]

    def test_ragged_rejected(self):
        with pytest.raises(ContractError):
            aggregate([self._curve(0, [1.0]), self._curve(1, [1.0, 2.0])])

    def test_ragged_names_each_seeds_row_count(self):
        curves = [self._curve(0, [1.0] * 60), self._curve(1, [1.0] * 59),
                  self._curve(2, [1.0] * 60)]
        with pytest.raises(ContractError) as exc:
            aggregate(curves)
        assert str(exc.value) == ("seeds differ in train rows: seed 0 has 60, seed 1 has 59, "
                                  "seed 2 has 60")

    def test_episode_grids_name_the_seeds_and_episode(self):
        curves = [SeedCurve(0, [1, 2], [5.0, 5.0]), SeedCurve(1, [1, 3], [5.0, 5.0])]
        with pytest.raises(ContractError) as exc:
            aggregate(curves)
        assert str(exc.value) == "seed 0 has train episode 2 where seed 1 has 3"

    def test_episode_lists_of_different_lengths_rejected(self):
        curves = [SeedCurve(4, [1, 2], [5.0, 5.0]), SeedCurve(7, [1, 2, 3], [5.0, 5.0])]
        with pytest.raises(ContractError) as exc:
            aggregate(curves)
        assert str(exc.value) == "seed 4 has train episode none where seed 7 has 3"

    def test_mean_within_seed_envelope(self):
        rng = np.random.default_rng(0)
        curves = [self._curve(k, list(rng.uniform(0, 5, 20))) for k in range(5)]
        agg = aggregate(curves)
        data = np.array([c.train_rewards for c in curves])
        assert np.all(agg.mean >= data.min(axis=0) - 1e-12)
        assert np.all(agg.mean <= data.max(axis=0) + 1e-12)


class TestConfigValidation:
    def test_unknown_agent(self):
        with pytest.raises(ConfigError):
            counting_cfg(agent_kind="ppo").validated()

    def test_instance_mode_inferred(self):
        cfg = counting_cfg().validated()
        assert cfg.instance_mode == "none"
        sig = ExperimentConfig(
            benchmark=BenchmarkConfig("sigmoid", horizon=11),
            agent_kind="qlearn",
            hp=AgentHyperparams(alpha=0.1),
            n_episodes=5,
        ).validated()
        assert sig.instance_mode == "distribution"

    def test_context_free_cannot_use_instances(self):
        with pytest.raises(ConfigError):
            counting_cfg(instance_mode="fixed").validated()

    def test_sigmoid_cannot_run_without_instances(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(
                benchmark=BenchmarkConfig("sigmoid"),
                agent_kind="qlearn",
                n_episodes=5,
                instance_mode="none",
            ).validated()

    @pytest.mark.parametrize("workers", [0, -5])
    def test_workers_must_be_positive(self, workers):
        with pytest.raises(ConfigError, match="workers"):
            counting_cfg(workers=workers).validated()

    def test_dqn_needs_context(self):
        with pytest.raises(ConfigError):
            counting_cfg(agent_kind="dqn").validated()

    def test_eval_runs_defaults(self):
        assert counting_cfg().validated().eval_runs == 1  # deterministic
        fuzzy = ExperimentConfig(
            benchmark=BenchmarkConfig("fuzzy"),
            agent_kind="qlearn",
            hp=AgentHyperparams(alpha=0.1),
            n_episodes=5,
        ).validated()
        assert fuzzy.eval_runs == 10
        fixed = ExperimentConfig(
            benchmark=BenchmarkConfig("sigmoid"),
            agent_kind="qlearn",
            hp=AgentHyperparams(alpha=0.1),
            n_episodes=5,
            instance_mode="fixed",
            n_train_instances=17,
        ).validated()
        assert fixed.eval_runs == 17

    @pytest.mark.parametrize("eval_runs", [1, 2, 4, 6, 100])
    def test_fixed_eval_runs_must_cover_the_train_set(self, eval_runs):
        # fixed mode always evaluates on the whole train set
        cfg = ExperimentConfig(BenchmarkConfig("sigmoid"), "qlearn", n_episodes=5,
                               instance_mode="fixed", n_train_instances=5,
                               eval_runs=eval_runs)
        with pytest.raises(ConfigError, match="eval_runs"):
            cfg.validated()

    @pytest.mark.parametrize(
        "kind,mode,alpha",
        [("counting", "", 1.0), ("luby", "", 1.0), ("fuzzy", "", 0.1),
         ("sigmoid", "distribution", 0.1), ("sigmoid", "fixed", 0.1)],
    )
    def test_alpha_default_follows_noise(self, kind, mode, alpha):
        cfg = ExperimentConfig(BenchmarkConfig(kind), "qlearn", n_episodes=5,
                               instance_mode=mode).validated()
        assert cfg.hp == AgentHyperparams(alpha=alpha)

    def test_given_hyperparameters_are_kept(self):
        hp = AgentHyperparams(epsilon=0.2)
        cfg = ExperimentConfig(BenchmarkConfig("fuzzy"), "qlearn", hp=hp).validated()
        assert cfg.hp is hp


class TestEvaluation:
    def test_oracle_policy_scores_ceiling(self):
        env = CountingEnv(5)
        reward = greedy_rollout(
            lambda obs: obs.time_step, env, (), SeedSpec(0, 0)
        )
        assert reward == 5.0

    def test_untrained_agent_equals_constant_action_zero(self):
        env = CountingEnv(5)
        agent = TabularAgent("urs", 5)
        fresh = greedy_rollout(agent.greedy_action, env, (), SeedSpec(0, 0))
        constant = greedy_rollout(lambda obs: 0, env, (), SeedSpec(0, 0))
        assert fresh == constant == 1.0

    def test_test_set_evaluation_needs_instances(self):
        env = make_env(BenchmarkConfig("sigmoid"))
        agent = TabularAgent("qlearn", 2)
        with pytest.raises(ContractError):
            evaluate_on_test_set(agent, env, [], run_seed=0)


class TestTrainAndEvaluate:
    def test_deterministic_repeat(self):
        cfg = counting_cfg(n_episodes=10).validated()
        curve = train_and_evaluate(cfg, [0])[0]
        later = train_and_evaluate(cfg, [0])[0]
        assert curve.train_rewards == later.train_rewards

    def test_injected_optimal_agent_gives_flat_curve(self, monkeypatch):
        # preload a greedy agent with the optimal on-path values; the
        # whole pipeline must then report a flat curve at the ceiling
        import algocontrol.harness as harness_module
        from algocontrol.agents.tabular import state_key

        def optimal_agent(cfg, env, run_seed):
            agent = TabularAgent("gr", 5, hp=AgentHyperparams(alpha=1.0))
            obs, done = env.reset((), SeedSpec(0, 0)), False
            while not done:
                row = agent.q[state_key(obs)] = [0.0] * 5
                row[obs.time_step] = 1.0
                obs, _, done = env.step(obs.time_step)
            return agent

        monkeypatch.setattr(harness_module, "_make_agent", optimal_agent)
        curve = train_and_evaluate(counting_cfg(n_episodes=10, agent_kind="gr"), [0])[0]
        assert curve.train_rewards == [5.0] * 10

    @pytest.mark.parametrize("kind", ["qlearn", "dqn", "blackbox"])
    def test_one_environment_per_seed_run(self, kind, monkeypatch):
        """A seed run trains, checkpoints and tests on the one environment it builds."""
        made = []
        real = harness.make_env
        monkeypatch.setattr(harness, "make_env", lambda bench: made.append(bench) or real(bench))
        cfg = dqn_cfg("fixed") if kind == "dqn" else counting_cfg(agent_kind=kind)
        train_and_evaluate(cfg, [0, 1])
        assert len(made) == 2

    def test_curves_have_episode_grid(self):
        cfg = counting_cfg(n_episodes=12, train_eval_every=3)
        curve = train_and_evaluate(cfg, [0])[0]
        assert curve.episodes == [3, 6, 9, 12]

    def test_evaluation_does_not_perturb_training(self):
        dense = counting_cfg(n_episodes=20, train_eval_every=1)
        sparse = counting_cfg(n_episodes=20, train_eval_every=5)
        dense_curve = train_and_evaluate(dense, [1])[0]
        sparse_curve = train_and_evaluate(sparse, [1])[0]
        picked = [
            dense_curve.train_rewards[e - 1] for e in sparse_curve.episodes
        ]
        assert picked == sparse_curve.train_rewards

    def test_seed_isolation(self):
        cfg = counting_cfg(n_episodes=15)
        direct = [train_and_evaluate(cfg, [k])[0].train_rewards for k in (0, 1)]
        reversed_order = [train_and_evaluate(cfg, [k])[0].train_rewards for k in (1, 0)]
        assert direct[0] == reversed_order[1]
        assert direct[1] == reversed_order[0]

    def test_blackbox_curve_matches_grid(self):
        cfg = counting_cfg(agent_kind="blackbox", n_episodes=30)
        curve = train_and_evaluate(cfg, [0])[0]
        assert curve.episodes == list(range(1, 31))
        assert all(a <= b for a, b in zip(curve.train_rewards, curve.train_rewards[1:]))

    @pytest.mark.parametrize("bench", [BenchmarkConfig("counting", horizon=5),
                                       BenchmarkConfig("fuzzy", horizon=5)])
    def test_blackbox_races_over_the_benchmarks_runs(self, bench, monkeypatch):
        seen = []
        real = harness.blackbox_optimize

        def spy(*args, **kwargs):
            seen.append(kwargs["max_runs"])
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "blackbox_optimize", spy)
        train_and_evaluate(counting_cfg(benchmark=bench, agent_kind="blackbox", n_episodes=5), [0])
        assert seen == [bench.runs]

    def test_blackbox_save_path_is_a_config_error(self, tmp_path):
        snap = tmp_path / "agent.snap"
        with pytest.raises(ConfigError, match="blackbox"):
            train_and_evaluate(counting_cfg(agent_kind="blackbox", n_episodes=5), [0],
                               save_agent=(0, str(snap)))
        assert not snap.exists()


class TestStepFreeTraining:
    """A training episode scores its path with ``env.path_rewards``: it makes no
    ``Environment.reset`` or ``step`` call and no ``state_key`` call, and the
    agent's features are taken once."""

    @pytest.mark.parametrize("kind", ["qlearn", "dqn"])
    def test_no_step_no_state_key_one_features(self, kind, monkeypatch):
        if kind == "dqn":
            agent = DQNAgent(action_count=2, horizon=11, context_dim=2, total_episodes=10,
                             rng=derive_stream(91, 0))
            env, instance = SigmoidEnv(11), (3.0, 5.0)
        else:
            agent = TabularAgent(kind, 6)
            env, instance = LubyEnv(32), ()
        calls = []

        def counted(name, real):
            def wrapper(*args):
                calls.append(name)
                return real(*args)
            return wrapper

        monkeypatch.setattr(Environment, "reset", counted("reset", Environment.reset))
        monkeypatch.setattr(Environment, "step", counted("step", Environment.step))
        monkeypatch.setattr(tabular, "state_key", counted("state_key", tabular.state_key))
        monkeypatch.setattr(harness, "state_key", counted("state_key", harness.state_key))
        cls = type(agent)
        monkeypatch.setattr(cls, "features", counted("features", cls.features))
        rng = derive_stream(90, 0)
        run_training_episode(agent, env, instance, SeedSpec(90, 1), rng, rng)
        assert calls == ["features"]
        if kind == "dqn":
            assert len(agent.buffer) == 11
        else:
            assert sorted(s[0] for s in agent.q) == list(range(32))

    @pytest.mark.parametrize("kind, agent_kind", [
        *[(kind, "qlearn") for kind in BENCHMARK_KINDS], ("sigmoid", "dqn")])
    def test_a_training_episode_leaves_the_environments_episode_alone(self, kind, agent_kind):
        """An episode two steps in goes on, after a training episode on another
        instance and seed of the same environment, as on an untouched twin."""
        env, twin = (make_env(BenchmarkConfig(kind)) for _ in range(2))
        instance, other = ((3.0, 5.0), (-40.0, 2.0)) if env.context_dim else ((), ())
        for e in (env, twin):
            e.reset(instance, SeedSpec(70, 1))
            e.step(1)
            e.step(1)
        if agent_kind == "dqn":
            agent = DQNAgent(action_count=2, horizon=env.horizon, context_dim=2,
                             total_episodes=10, rng=derive_stream(70, 0))
        else:
            agent = TabularAgent(agent_kind, env.action_count)
        rng = derive_stream(70, 2)
        run_training_episode(agent, env, other, SeedSpec(71, 3), rng, rng)
        steps = [[repr(e.step(1)) for _ in range(env.horizon - 2)] for e in (env, twin)]
        assert steps[0] == steps[1]
        assert steps[0][-1].endswith("True)")  # both episodes ran to their end


TRAINED_CASES = [c for c in valid_cases() if c[1] != "blackbox"]


class TestTrainingMatchesTheStepLoop:
    """The step-free loop trains every agent as the step-driven one of
    ``oracles.step_training_episode`` does, from the same streams."""

    @pytest.mark.parametrize("case", TRAINED_CASES, ids="-".join)
    def test_same_returns_tables_rings_and_next_draws(self, case):
        cfg = parse_config(case_text(*case)).validated()
        free, ref = harness._EvalSetup(cfg, 1), harness._EvalSetup(cfg, 1)
        for episode in range(1, 61):
            returns = [
                loop(run.agent, run.env, run.draw(),
                     SeedSpec(run.run_seed, harness.TRAIN_NOISE_BASE + episode),
                     run.explore_rng, run.replay_rng)
                for loop, run in ((run_training_episode, free), (step_training_episode, ref))
            ]
            assert repr(returns[0]) == repr(returns[1]), episode
        a, b = free.agent, ref.agent
        if isinstance(a, DQNAgent):
            n = len(a.buffer)
            assert n == len(b.buffer) == 60 * cfg.benchmark.horizon
            assert a.buffer.rows[:n].tobytes() == b.buffer.rows[:n].tobytes()
            assert a.net.theta.tobytes() == b.net.theta.tobytes()
            assert a.episodes_trained == b.episodes_trained == 60
        else:
            for table in ("q", "visits", "remaining"):
                rows_a, rows_b = getattr(a, table), getattr(b, table)
                assert [(tuple(s), hash(s), repr(v)) for s, v in rows_a.items()] == [
                    (tuple(s), hash(s), repr(v)) for s, v in rows_b.items()]
            assert a.q and (a.visits if a.kind == "purs" else not a.visits)
        for stream in ("explore_rng", "replay_rng"):
            x, y = getattr(free, stream), getattr(ref, stream)
            assert [x.random() for _ in range(5)] == [y.random() for _ in range(5)]
        assert free.draw() == ref.draw()

    def test_dqn_path_stops_where_its_episode_ends(self):
        """A DQN on a benchmark whose action 0 ends the episode (a context-free
        net, outside the configs' sigmoid family) stops picking there, as the
        step loop does."""
        agents = [DQNAgent(action_count=2, horizon=5, context_dim=0, total_episodes=40,
                           rng=derive_stream(97, 0)) for _ in range(2)]
        streams = [(derive_stream(97, 1), BlockStream(97, 2)) for _ in range(2)]
        lengths = set()
        for episode in range(40):
            returns = [loop(agent, FuzzyEnv(5), (), SeedSpec(97, episode), *rngs)
                       for loop, agent, rngs in zip((run_training_episode, step_training_episode),
                                                    agents, streams)]
            assert repr(returns[0]) == repr(returns[1]), episode
            lengths.add(len(agents[0].buffer))
        n = len(agents[0].buffer)
        assert agents[0].buffer.rows[:n].tobytes() == agents[1].buffer.rows[:n].tobytes()
        assert agents[0].net.theta.tobytes() == agents[1].net.theta.tobytes()
        assert n < 5 * 40  # some episodes ended early

    def test_fuzzy_episode_total_is_the_path_return_of_its_actions(self):
        env, rng, lengths = FuzzyEnv(5), derive_stream(94, 0), set()
        agent = TabularAgent("urs", 2)
        actions: list = []
        real = agent.observe

        def recording(states, taken, rewards):
            actions.extend(taken)
            real(states, taken, rewards)

        agent.observe = recording
        for episode in range(100):
            actions.clear()
            total = run_training_episode(agent, env, (), SeedSpec(94, episode), rng, rng)
            assert repr(total) == repr(env.path_return(actions, (), 94, episode))
            lengths.add(len(actions) if actions[-1] else 0)
        assert 0 in lengths and 5 in lengths  # paths that end at a 0, and whole ones


def train_with_explore(kind: str, benchmark: str, explore, episodes: int):
    """``kind`` trained on ``benchmark`` for ``episodes`` episodes through
    ``run_training_episode``, exploring with the stream ``explore``."""
    env = make_env(BenchmarkConfig(benchmark))
    if kind == "dqn":
        agent = DQNAgent(action_count=env.action_count, horizon=env.horizon,
                         context_dim=env.context_dim, total_episodes=episodes,
                         rng=derive_stream(60, 1), context_scales=(0.01, 1.0 / env.horizon))
    else:
        agent = TabularAgent(kind, env.action_count)
    train_rng, instance_rng = derive_stream(60, 3), derive_stream(60, 4)
    for episode in range(1, episodes + 1):
        instance = sample_sigmoid_instance(instance_rng, env.horizon) if env.context_dim else ()
        run_training_episode(agent, env, instance, SeedSpec(60, episode), explore, train_rng)
    return agent


class TestBlockExploration:
    """Exploring from a BlockStream trains the same agent as exploring from the
    Generator it stands for, and leaves both streams at the same place."""

    @pytest.mark.parametrize("kind,bench", [
        *[(kind, bench) for kind in TabularAgent.KINDS for bench in ("luby", "counting")],
        ("dqn", "sigmoid"),
    ])
    def test_same_agent_and_next_draws(self, kind, bench):
        block, gen = BlockStream(60, 2), derive_stream(60, 2)
        a = train_with_explore(kind, bench, block, 300)
        b = train_with_explore(kind, bench, gen, 300)
        if kind == "dqn":
            assert np.array_equal(a.net.theta, b.net.theta)
        else:
            assert a.q == b.q and a.visits == b.visits and a.remaining == b.remaining
        assert [(block.random(), block.integers(6)) for _ in range(50)] == [
            (gen.random(), gen.integers(6)) for _ in range(50)]


def count_rollouts(monkeypatch) -> list[int]:
    """Count the rollouts that go through ``harness.greedy_rollout``."""
    calls = [0]
    real = harness.greedy_rollout

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "greedy_rollout", counting)
    return calls


def fresh_value(setup, agent, env, episode: int) -> float:
    """A checkpoint's value rolled out in full, without stored paths."""
    base = harness.EVAL_NOISE_BASE + episode * len(setup.instances)
    return harness._mean_greedy_return(agent, env, setup.instances, setup.run_seed, base)


class TestCheckpointMemo:
    """A tabular checkpoint scores each instance's stored greedy path again
    while the path still holds (with its stored score where rewards are fixed,
    else with ``path_return``), so it rolls out at most once per distinct
    instance."""

    @pytest.mark.parametrize(
        "case", [c for c in valid_cases() if c[1] in TabularAgent.KINDS], ids="-".join,
    )
    def test_every_golden_checkpoint_equals_a_fresh_evaluation(self, case, monkeypatch):
        rollouts = count_rollouts(monkeypatch)
        runs = [0]
        real = harness._EvalSetup.evaluate

        def checked(setup, agent, env, episode):
            before = rollouts[0]
            value = real(setup, agent, env, episode)
            assert rollouts[0] - before <= len(set(setup.instances))  # fuzzy: one path
            fresh = fresh_value(setup, agent, env, episode)
            runs[0] += len(setup.instances)
            rollouts[0] -= len(setup.instances)  # uncount the fresh evaluation
            assert repr(value) == repr(fresh)
            return value

        monkeypatch.setattr(harness._EvalSetup, "evaluate", checked)
        run_experiment(parse_config(case_text(*case)))
        assert 0 < rollouts[0] < runs[0]

    def test_flipped_argmax_on_the_path_forces_a_rollout(self, monkeypatch):
        cfg = counting_cfg(n_episodes=30).validated()
        setup = harness._EvalSetup(cfg, 0)
        agent, env = setup.agent, setup.env
        for episode in range(1, cfg.n_episodes + 1):
            setup.train(episode)
        rollouts = count_rollouts(monkeypatch)
        first = setup.evaluate(agent, env, 1)
        assert setup.evaluate(agent, env, 2) == first and rollouts == [1]
        agent.q["off the path"] = [100.0, 0.0, 0.0, 0.0, 0.0]
        assert setup.evaluate(agent, env, 3) == first and rollouts == [1]

        keys, actions = setup.paths[()][:2]
        s, a = keys[2], actions[2]
        row = agent.q.setdefault(s, [0.0] * 5)
        row[(a + 1) % 5] = max(row) + 1.0
        value = setup.evaluate(agent, env, 4)
        assert rollouts == [2]
        assert repr(value) == repr(fresh_value(setup, agent, env, 4))
        assert (setup.paths[()][0][2], setup.paths[()][1][2]) == (s, (a + 1) % 5)

        keys, actions = setup.paths[()][:2]
        s, a = keys[1], actions[1]
        row = agent.q.setdefault(s, [0.0] * 5)
        row[a] = max(row) + 1.0  # in place, the argmax kept
        rollouts[0] = 0  # fresh_value rolled out once more
        value = setup.evaluate(agent, env, 5)
        assert rollouts == [0]
        assert repr(value) == repr(fresh_value(setup, agent, env, 5))

        replaced = [0.0] * 5
        replaced[(a + 2) % 5] = 1.0
        agent.q[s] = replaced  # a new row with another argmax
        rollouts[0] = 0
        value = setup.evaluate(agent, env, 6)
        assert rollouts == [1]
        assert repr(value) == repr(fresh_value(setup, agent, env, 6))
        assert (setup.paths[()][0][1], setup.paths[()][1][1]) == (s, (a + 2) % 5)

    @staticmethod
    def _trained(kind: str):
        cfg = ExperimentConfig(BenchmarkConfig(kind), "qlearn", n_seeds=1, n_episodes=30,
                               master_seed=4).validated()
        setup = harness._EvalSetup(cfg, 0)
        for episode in range(1, cfg.n_episodes + 1):
            setup.train(episode)
        return setup, setup.agent, setup.env

    @staticmethod
    def _count_scores(monkeypatch, env_class) -> list[tuple[int, int]]:
        """The (master seed, stream id) of each ``path_return`` call."""
        scored = []
        real = env_class.path_return

        def counting(env, actions, instance, master_seed, stream_id):
            scored.append((master_seed, stream_id))
            return real(env, actions, instance, master_seed, stream_id)

        monkeypatch.setattr(env_class, "path_return", counting)
        return scored

    def test_a_held_luby_path_reuses_its_score(self, monkeypatch):
        setup, agent, env = self._trained("luby")
        scored = self._count_scores(monkeypatch, LubyEnv)
        rollouts = count_rollouts(monkeypatch)
        values = [setup.evaluate(agent, env, episode) for episode in (1, 2, 3)]
        assert rollouts == [1] and scored == []
        actions = setup.paths[()][1]
        for episode, value in zip((2, 3), values[1:]):
            base = harness.EVAL_NOISE_BASE + episode
            assert repr(value) == repr(values[0]) == repr(
                env.path_return(actions, (), setup.run_seed, base)
            ) == repr(fresh_value(setup, agent, env, episode))

    def test_fuzzy_scores_every_run_with_its_own_stream(self, monkeypatch):
        setup, agent, env = self._trained("fuzzy")
        scored = self._count_scores(monkeypatch, FuzzyEnv)
        rollouts = count_rollouts(monkeypatch)
        runs = len(setup.instances)
        for episode in (1, 2):
            setup.evaluate(agent, env, episode)
        base = [harness.EVAL_NOISE_BASE + episode * runs for episode in (1, 2)]
        assert runs == 10 and rollouts == [1]  # run 0 of the first checkpoint
        assert scored == [(setup.run_seed, base[0] + r) for r in range(1, runs)] + [
            (setup.run_seed, base[1] + r) for r in range(runs)]

    @pytest.mark.parametrize("mode", ["distribution", "fixed"])
    def test_dqn_checkpoint_scores_its_greedy_paths_without_rollouts(self, mode, monkeypatch):
        cfg = ExperimentConfig(BenchmarkConfig("sigmoid", horizon=11), "dqn", n_seeds=1,
                               n_episodes=6, master_seed=3, instance_mode=mode,
                               n_train_instances=7, n_test_instances=5,
                               test_eval_every=3).validated()
        setup = harness._EvalSetup(cfg, 0)
        agent, env, seed = setup.agent, setup.env, setup.run_seed
        rollouts, checked = count_rollouts(monkeypatch), 0
        for episode in range(1, cfg.n_episodes + 1):
            setup.train(episode)
            setup.checkpoint(episode)
            assert rollouts == [0]
            base = harness.EVAL_NOISE_BASE + episode * len(setup.instances)
            for instances, base, value in [
                    (setup.instances, base, setup.curve.train_rewards[-1]),
                    *[(setup.test_set, harness.TEST_NOISE_BASE, v)
                      for e, v in setup.curve.test_points if e == episode]]:
                rolled = [greedy_rollout(agent.greedy_action, env, instance,
                                         SeedSpec(seed, base + r))
                          for r, instance in enumerate(instances)]
                total = 0.0
                for score in rolled:
                    total += score
                assert repr(value) == repr(total / len(instances))
                checked += len(instances)
        assert checked == 6 * cfg.eval_runs + (2 * 5 if mode == "fixed" else 0)


def test_dqn_rings_are_freed_when_the_lockstep_run_returns(monkeypatch):
    """A ``DQNGroup`` holds its members only within a round, so once
    ``train_and_evaluate`` returns, no reference cycle keeps a 2-seed group's
    replay rings alive until a full garbage collection (on ``sigmoid-dqn-fixed``,
    a group that kept its member list read 59.5 against 40.5 MB peak RSS)."""
    rings, real = [], harness._make_agent

    def recording(*args):
        agent = real(*args)
        rings.append(weakref.ref(agent.buffer.rows))
        return agent

    monkeypatch.setattr(harness, "_make_agent", recording)
    cfg = ExperimentConfig(BenchmarkConfig("sigmoid", horizon=11), "dqn", n_seeds=2,
                           n_episodes=4, master_seed=3, instance_mode="fixed",
                           n_train_instances=3, n_test_instances=2, test_eval_every=2)
    gc.disable()
    try:
        assert len(train_and_evaluate(cfg, [0, 1])) == 2
        assert len(rings) == 2 and all(ring() is None for ring in rings)
    finally:
        gc.enable()


class TestCollectorPause:
    """``train_and_evaluate`` runs its seed runs with the cyclic collector
    off and leaves it as the caller had it, whether the run returns or raises."""

    CFG = ExperimentConfig(BenchmarkConfig("luby", horizon=8), "qlearn", n_seeds=2, n_episodes=5)

    @pytest.fixture(autouse=True)
    def _restore(self):
        collecting = gc.isenabled()
        yield
        (gc.enable if collecting else gc.disable)()

    @pytest.mark.parametrize("collecting", [True, False])
    def test_the_run_is_paused_and_the_callers_state_restored(self, collecting, monkeypatch):
        seen, real = [], harness._EvalSetup.train

        def train(run, episode):
            seen.append(gc.isenabled())
            real(run, episode)

        monkeypatch.setattr(harness._EvalSetup, "train", train)
        (gc.enable if collecting else gc.disable)()
        assert len(train_and_evaluate(self.CFG, [0, 1])) == 2
        assert seen == [False] * 10
        assert gc.isenabled() is collecting

    @pytest.mark.parametrize("collecting", [True, False])
    def test_a_run_that_raises_restores_the_callers_state(self, collecting, monkeypatch):
        def train(run, episode):
            raise ContractError(f"episode {episode} refused")

        monkeypatch.setattr(harness._EvalSetup, "train", train)
        (gc.enable if collecting else gc.disable)()
        with pytest.raises(ContractError, match="episode 1 refused"):
            train_and_evaluate(self.CFG, [0])
        assert gc.isenabled() is collecting


class TestFixedInstanceMode:
    def _cfg(self, **kwargs):
        defaults = dict(
            benchmark=BenchmarkConfig("sigmoid", horizon=11),
            agent_kind="qlearn",
            hp=AgentHyperparams(alpha=0.1),
            n_seeds=2,
            n_episodes=30,
            master_seed=5,
            instance_mode="fixed",
            n_train_instances=8,
            n_test_instances=6,
            test_eval_every=10,
            train_eval_every=5,
        )
        defaults.update(kwargs)
        return ExperimentConfig(**defaults)

    def _setup(self, seed_index):
        cfg = self._cfg().validated()
        return harness._EvalSetup(cfg, seed_index)

    def test_sets_are_disjoint_and_sized(self):
        setup = self._setup(0)
        train, test = setup.instances, setup.test_set
        assert len(train) == 8 and len(test) == 6
        assert not set(train) & set(test)
        assert {setup.draw() for _ in range(50)} <= set(train)

    @pytest.mark.parametrize("n_train", [1, 7, 100])
    def test_draws_are_those_of_the_training_instance_stream(self, n_train):
        setup = harness._EvalSetup(self._cfg(n_train_instances=n_train).validated(), 0)
        stream = derive_stream(setup.run_seed, harness.TRAIN_INSTANCE_STREAM)
        expected = [setup.instances[int(stream.integers(n_train))] for _ in range(1000)]
        assert [setup.draw() for _ in range(1000)] == expected

    def test_sets_shared_across_seeds(self):
        a, b = self._setup(0), self._setup(1)
        assert a.run_seed != b.run_seed
        assert (a.instances, a.test_set) == (b.instances, b.test_set)

    def test_test_points_on_schedule(self):
        curve = train_and_evaluate(self._cfg(), [0])[0]
        assert [e for e, _ in curve.test_points] == [10, 20, 30]

    def test_tabular_test_reward_near_default_policy(self):
        # unseen rounded contexts fall back to the all-zero row
        curve = train_and_evaluate(self._cfg(n_episodes=50), [0])[0]
        assert all(3.0 <= r <= 9.0 for _, r in curve.test_points)

    def test_csv_contains_test_rows(self):
        cfg = self._cfg().validated()
        rows = curves_to_csv_rows(cfg, run_experiment(cfg))
        phases = {r[4] for r in rows}
        assert phases == {"train", "test"}
        test_rows = [r for r in rows if r[4] == "test"]
        assert len(test_rows) == 2 * 3  # 2 seeds x 3 checkpoints

    def test_random_policy_distribution_eval_near_half_ceiling(self):
        # a fresh agent's greedy-over-empty-table policy scores about
        # half the ceiling over the evaluation instances
        cfg = ExperimentConfig(
            benchmark=BenchmarkConfig("sigmoid", horizon=11),
            agent_kind="urs",
            hp=AgentHyperparams(alpha=0.1),
            n_seeds=1,
            n_episodes=3,
            master_seed=3,
        )
        curve = train_and_evaluate(cfg, [0])[0]
        assert 2.5 <= curve.train_rewards[0] <= 8.5


class TestCsvOutput:
    def test_header_and_format(self):
        cfg = counting_cfg(n_episodes=3).validated()
        curves = run_experiment(cfg)
        text = format_csv(curves_to_csv_rows(cfg, curves))
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 2 * 3  # 2 seeds x 3 episodes
        first = lines[1].split(",")
        assert first[0] == "counting" and first[1] == "qlearn"
        assert first[4] == "train"

    @pytest.mark.parametrize("reward", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_reward_refused(self, reward):
        rows = [("b", "a", 0, 1, "train", 1.0, 0), ("b", "a", 2, 7, "test", reward, 0)]
        with pytest.raises(ContractError, match=r"seed 2, episode 7"):
            format_csv(rows)

    def test_six_significant_digits(self):
        rows = [("b", "a", 0, 1, "train", 1.23456789, 0)]
        assert "1.23457" in format_csv(rows)

    def test_byte_identical_reruns(self):
        cfg = counting_cfg(n_episodes=5).validated()
        first = format_csv(curves_to_csv_rows(cfg, run_experiment(cfg)))
        second = format_csv(curves_to_csv_rows(cfg, run_experiment(cfg)))
        assert first == second

    def test_rows_sorted(self):
        cfg = counting_cfg(n_episodes=4).validated()
        rows = curves_to_csv_rows(cfg, run_experiment(cfg))
        keys = [(r[1], r[2], r[3], r[4]) for r in rows]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("workers,n_seeds,processes", [(64, 2, [2]), (2, 3, [2]),
                                                           (8, 1, [])])
    def test_pool_capped_at_one_process_per_seed(self, monkeypatch, workers, n_seeds,
                                                 processes):
        import multiprocessing

        started = []

        class SerialPool:  # records its size and runs the jobs here, starting no process
            def __init__(self, n):
                started.append(n)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def starmap(self, fn, jobs):
                return [fn(*job) for job in jobs]

        monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
        cfg = counting_cfg(n_episodes=5, n_seeds=n_seeds, workers=workers)
        curves = run_experiment(cfg)
        assert started == processes
        assert curves == run_experiment(replace(cfg, workers=1))

    @pytest.mark.parametrize("kwargs", [
        {},
        dict(benchmark=BenchmarkConfig("sigmoid", horizon=11), instance_mode="fixed",
             n_train_instances=8, n_test_instances=6, test_eval_every=2),
        dict(benchmark=BenchmarkConfig("sigmoid", horizon=11), instance_mode="distribution"),
    ], ids=["none", "fixed", "distribution"])
    def test_parallel_workers_deterministic(self, kwargs):
        """Each worker derives its seed runs' instances, fixed sets included."""
        cfg = counting_cfg(n_episodes=5, n_seeds=3, **kwargs).validated()
        serial = format_csv(curves_to_csv_rows(cfg, run_experiment(cfg)))
        parallel = format_csv(curves_to_csv_rows(cfg, run_experiment(replace(cfg, workers=2))))
        assert serial == parallel
        assert (",test," in serial) == (cfg.instance_mode == "fixed")


def dqn_cfg(mode: str, **kwargs) -> ExperimentConfig:
    """A short DQN run of five seeds on sigmoid in ``mode``."""
    defaults = dict(benchmark=BenchmarkConfig("sigmoid", horizon=11), agent_kind="dqn",
                    n_seeds=5, n_episodes=12, master_seed=11, instance_mode=mode,
                    n_train_instances=8, n_test_instances=6, test_eval_every=4,
                    train_eval_every=2)
    defaults.update(kwargs)
    return ExperimentConfig(**defaults).validated()


class RecordingPool:
    """Stands in for ``multiprocessing.Pool``: records its size and jobs and
    runs them here, starting no process."""

    def __init__(self, sizes: list, jobs: list):
        self.sizes, self.jobs = sizes, jobs

    def __call__(self, n):
        self.sizes.append(n)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def starmap(self, fn, jobs):
        self.jobs.extend(jobs)
        return [fn(*job) for job in jobs]


class TestLockstepGroups:
    """A worker runs its DQN seed runs in lockstep, one stacked SGD step per
    round; every curve equals the curve of the seed run alone."""

    @pytest.mark.parametrize("mode", ["fixed", "distribution"])
    def test_csv_identical_at_any_worker_count_and_to_lone_runs(self, mode):
        cfg = dqn_cfg(mode)
        csvs = [format_csv(curves_to_csv_rows(cfg, run_experiment(replace(cfg, workers=w))))
                for w in (1, 2, 3)]  # groups of 5; 2 and 3; 1, 2 and 2
        assert csvs[0] == csvs[1] == csvs[2]
        lone = [train_and_evaluate(cfg, [k])[0] for k in range(cfg.n_seeds)]
        assert format_csv(curves_to_csv_rows(cfg, lone)) == csvs[0]
        assert (",test," in csvs[0]) == (mode == "fixed")

    @pytest.mark.parametrize("workers, groups", [
        (1, [[0, 1, 2, 3, 4]]), (2, [[0, 1], [2, 3, 4]]), (3, [[0], [1, 2], [3, 4]]),
        (5, [[0], [1], [2], [3], [4]]), (9, [[0], [1], [2], [3], [4]]),
    ])
    def test_dqn_seeds_split_into_contiguous_groups(self, monkeypatch, workers, groups):
        import multiprocessing

        sizes, jobs = [], []
        monkeypatch.setattr(multiprocessing, "Pool", RecordingPool(sizes, jobs))
        cfg = dqn_cfg("fixed", n_episodes=2, workers=workers)
        curves = run_experiment(cfg)
        if workers > 1:
            assert sizes == [min(workers, 5)] and [job[1] for job in jobs] == groups
        assert curves == run_experiment(replace(cfg, workers=1))

    @pytest.mark.parametrize("kind", ["qlearn", "blackbox"])
    def test_other_kinds_run_one_seed_per_job(self, monkeypatch, kind):
        import multiprocessing

        sizes, jobs = [], []
        monkeypatch.setattr(multiprocessing, "Pool", RecordingPool(sizes, jobs))
        cfg = dqn_cfg("fixed", n_episodes=2, workers=2, agent_kind=kind, hp=None)
        curves = run_experiment(cfg)
        assert sizes == [2] and [job[1] for job in jobs] == [[0], [1], [2], [3], [4]]
        assert curves == run_experiment(replace(cfg, workers=1))

    def test_one_train_step_per_round(self, monkeypatch):
        from algocontrol.agents import dqn

        shapes = []
        real = dqn.dqn_train_step

        def counting(net, target_net, batch, hp):
            shapes.append(net.theta.shape[0])
            return real(net, target_net, batch, hp)

        monkeypatch.setattr(dqn, "dqn_train_step", counting)
        run_experiment(dqn_cfg("distribution", n_seeds=3, n_episodes=7))
        assert shapes == [3] * 7

    @pytest.mark.parametrize("kind", ["dqn", "qlearn"])
    def test_wall_time_is_an_equal_share_of_the_group(self, monkeypatch, kind):
        """Under ``record_wall_time`` a seed run records its group's wall time
        divided by the group's size; a run alone records its own."""
        clock = iter([100.0, 103.0, 200.0, 202.0, 300.0, 301.0])
        monkeypatch.setattr(harness, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
        cfg = dqn_cfg("fixed", n_seeds=3, n_episodes=2, agent_kind=kind, hp=None,
                      record_wall_time=True)
        walls = [c.wall_time_ms for c in run_experiment(cfg)]
        if kind == "dqn":  # one group of three
            assert walls == [1000, 1000, 1000]
            assert train_and_evaluate(cfg, [1])[0].wall_time_ms == 2000
        else:  # a job per seed run
            assert walls == [3000, 2000, 1000]


class TestDivergenceInAGroup:
    """A member whose parameters stop being finite ends the run with an
    error that names its seed run and the episode."""

    @staticmethod
    def poison_seed(monkeypatch, seed_index: int) -> None:
        real = harness._make_agent

        def make(cfg, env, run_seed):
            agent = real(cfg, env, run_seed)
            if run_seed == derive_seed(cfg.master_seed, harness.RUN_BASE + seed_index):
                agent.net.w2[0, 0] = np.nan
            return agent

        monkeypatch.setattr(harness, "_make_agent", make)

    def test_error_names_the_seed_run_and_episode(self, monkeypatch):
        self.poison_seed(monkeypatch, 3)
        with np.errstate(all="ignore"), pytest.raises(
                ContractError, match=r"DQN training of seed 3 diverged in episode 1: loss nan"):
            run_experiment(dqn_cfg("fixed"))

    def test_cli_prints_one_runtime_line(self, monkeypatch, tmp_path, capsys):
        from algocontrol.cli import main
        from algocontrol.config import render_config

        self.poison_seed(monkeypatch, 1)
        config = tmp_path / "exp.ini"
        config.write_text(render_config(dqn_cfg("distribution", n_seeds=3)))
        out = tmp_path / "res.csv"
        with np.errstate(all="ignore"):
            code = main(["run", str(config), "--output", str(out)])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("E-")] == [
            "E-RUNTIME: DQN training of seed 1 diverged in episode 1: loss nan or an updated "
            "parameter is not finite"]
        assert not out.exists()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_cli_process_prints_only_the_runtime_line(self, tmp_path, workers):
        """A run whose SGD step overflows, in a process of its own (no warning
        filter set around it), in process and in a pool: stderr is the one
        E-RUNTIME line, with no numpy warning before it."""
        import os
        import subprocess
        import sys

        import algocontrol
        from algocontrol.config import render_config

        config = tmp_path / "exp.ini"
        config.write_text(render_config(dqn_cfg("fixed", n_seeds=2, n_episodes=3)))
        out = tmp_path / "res.csv"
        src = os.path.dirname(os.path.dirname(algocontrol.__file__))
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from algocontrol.cli import main; sys.exit(main())",
             "run", str(config), "--set", "agent.dqn_lr=1e300",
             "--set", f"harness.workers={workers}", "--output", str(out)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src}, check=False)
        assert done.returncode == 3
        assert re.fullmatch(r"E-RUNTIME: DQN training of seed [01] diverged in episode \d+: loss "
                            r"(inf|nan) or an updated parameter is not finite\n", done.stderr)
        assert done.stdout == "" and not out.exists()
