"""Experiment protocol: curves, aggregation, CSV, determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algocontrol.agents import AgentHyperparams, DQNAgent, TabularAgent, tabular
from algocontrol.benchmarks import BenchmarkConfig, CountingEnv, LubyEnv, SigmoidEnv, make_env
from algocontrol.core import ContractError, SeedSpec, derive_stream
from algocontrol.harness import (
    CSV_HEADER,
    ConfigError,
    ExperimentConfig,
    SeedCurve,
    _instance_sets,
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
        curve = train_and_evaluate(cfg, 0)
        later = train_and_evaluate(cfg, 0)
        assert curve.train_rewards == later.train_rewards

    def test_injected_optimal_agent_gives_flat_curve(self, monkeypatch):
        # preload a greedy agent with the optimal on-path values; the
        # whole pipeline must then report a flat curve at the ceiling
        import algocontrol.harness as harness_module
        from algocontrol.agents.tabular import state_key

        def optimal_agent(cfg, run_seed):
            agent = TabularAgent("gr", 5, hp=AgentHyperparams(alpha=1.0))
            env = CountingEnv(5)
            obs, done = env.reset((), SeedSpec(0, 0)), False
            while not done:
                agent.q.set(state_key(obs), obs.time_step, 1.0)
                obs, _, done = env.step(obs.time_step)
            return agent

        monkeypatch.setattr(harness_module, "_make_agent", optimal_agent)
        curve = train_and_evaluate(counting_cfg(n_episodes=10, agent_kind="gr"), 0)
        assert curve.train_rewards == [5.0] * 10

    def test_curves_have_episode_grid(self):
        cfg = counting_cfg(n_episodes=12, train_eval_every=3)
        curve = train_and_evaluate(cfg, 0)
        assert curve.episodes == [3, 6, 9, 12]

    def test_evaluation_does_not_perturb_training(self):
        dense = counting_cfg(n_episodes=20, train_eval_every=1)
        sparse = counting_cfg(n_episodes=20, train_eval_every=5)
        dense_curve = train_and_evaluate(dense, 1)
        sparse_curve = train_and_evaluate(sparse, 1)
        picked = [
            dense_curve.train_rewards[e - 1] for e in sparse_curve.episodes
        ]
        assert picked == sparse_curve.train_rewards

    def test_seed_isolation(self):
        cfg = counting_cfg(n_episodes=15)
        direct = [train_and_evaluate(cfg, k).train_rewards for k in (0, 1)]
        reversed_order = [train_and_evaluate(cfg, k).train_rewards for k in (1, 0)]
        assert direct[0] == reversed_order[1]
        assert direct[1] == reversed_order[0]

    def test_blackbox_curve_matches_grid(self):
        cfg = counting_cfg(agent_kind="blackbox", n_episodes=30)
        curve = train_and_evaluate(cfg, 0)
        assert curve.episodes == list(range(1, 31))
        assert all(a <= b for a, b in zip(curve.train_rewards, curve.train_rewards[1:]))

    def test_blackbox_save_path_is_a_config_error(self, tmp_path):
        snap = tmp_path / "agent.snap"
        with pytest.raises(ConfigError, match="blackbox"):
            train_and_evaluate(counting_cfg(agent_kind="blackbox", n_episodes=5), 0,
                               save_path=str(snap))
        assert not snap.exists()


class TestOneEncodingPerObservation:
    """A training episode encodes each observation once: steps + 1 calls."""

    def test_luby_state_key_calls(self, monkeypatch):
        calls = []
        real = tabular.state_key

        def counting(obs):
            calls.append(obs.time_step)
            return real(obs)

        monkeypatch.setattr(tabular, "state_key", counting)
        agent = TabularAgent("qlearn", 6)
        rng = derive_stream(90, 0)
        run_training_episode(agent, LubyEnv(32), (), SeedSpec(90, 1), rng, rng)
        assert calls == list(range(33))

    def test_sigmoid_dqn_encode_calls(self, monkeypatch):
        calls = []
        real = DQNAgent.encode

        def counting(self, obs):
            calls.append(obs.time_step)
            return real(self, obs)

        monkeypatch.setattr(DQNAgent, "encode", counting)
        agent = DQNAgent(action_count=2, horizon=11, context_dim=2, total_episodes=10,
                         rng=derive_stream(91, 0))
        rng = derive_stream(91, 1)
        instance = (3.0, 5.0)
        run_training_episode(agent, SigmoidEnv(11), instance, SeedSpec(91, 1), rng, rng)
        assert calls == list(range(12))


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

    def test_sets_are_disjoint_and_sized(self):
        train, test = _instance_sets(self._cfg().validated())
        assert len(train) == 8 and len(test) == 6
        assert not set(train) & set(test)

    def test_sets_shared_across_seeds(self):
        cfg = self._cfg().validated()
        a = _instance_sets(cfg)
        b = _instance_sets(cfg)
        assert a == b

    def test_test_points_on_schedule(self):
        curve = train_and_evaluate(self._cfg(), 0)
        assert [e for e, _ in curve.test_points] == [10, 20, 30]

    def test_tabular_test_reward_near_default_policy(self):
        # unseen rounded contexts fall back to the all-zero row
        curve = train_and_evaluate(self._cfg(n_episodes=50), 0)
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
        curve = train_and_evaluate(cfg, 0)
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

    def test_parallel_workers_deterministic(self):
        cfg = counting_cfg(n_episodes=5, n_seeds=3).validated()
        serial = format_csv(curves_to_csv_rows(cfg, run_experiment(cfg)))
        par_cfg = counting_cfg(n_episodes=5, n_seeds=3, workers=2).validated()
        parallel = format_csv(curves_to_csv_rows(par_cfg, run_experiment(par_cfg)))
        assert serial == parallel
