"""Benchmark reward functions, samplers, and their oracles."""

import dataclasses
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algocontrol.benchmarks import (
    BENCHMARK_KINDS,
    ENVIRONMENTS,
    BenchmarkConfig,
    CountingEnv,
    FuzzyEnv,
    LubyEnv,
    SigmoidMVAEnv,
    counting_reward,
    luby_exponent,
    luby_value,
    make_env,
    make_instance_set,
    sample_sigmoid_instance,
    sigmoid,
    sigmoid_reward,
    sigmoidmva_reward,
)
from algocontrol.core import ContractError, SeedSpec, derive_stream, greedy_rollout
from oracles import luby_sequence_oracle


class TestBenchmarkFacts:
    @pytest.mark.parametrize("kind", BENCHMARK_KINDS)
    def test_config_builds_the_class_defaults(self, kind):
        def shape(env):
            return (env.action_count, env.horizon, env.context_dim, env.history_len)
        assert shape(make_env(BenchmarkConfig(kind))) == shape(ENVIRONMENTS[kind]())
        assert ENVIRONMENTS[kind]().horizon == ENVIRONMENTS[kind].default_horizon

    @pytest.mark.parametrize("horizon", [0, -1])
    @pytest.mark.parametrize("kind", BENCHMARK_KINDS)
    def test_horizon_below_one_rejected(self, kind, horizon):
        with pytest.raises(ContractError, match="horizon must be >= 1"):
            ENVIRONMENTS[kind](horizon)

    def test_noise_follows_fixed_rewards_and_instances(self):
        noisy = {kind for kind in BENCHMARK_KINDS if BenchmarkConfig(kind).noisy}
        assert noisy == {"fuzzy", "sigmoid", "sigmoidmva"}
        assert {BenchmarkConfig(kind).runs for kind in noisy} == {10}
        assert {BenchmarkConfig(kind).runs for kind in ("counting", "luby")} == {1}

    @pytest.mark.parametrize("kind", BENCHMARK_KINDS)
    def test_instances_follow_the_context_dim(self, kind):
        assert BenchmarkConfig(kind).has_instances == (ENVIRONMENTS[kind]().context_dim > 0)

    def test_each_parameter_has_one_class_and_its_default(self):
        """Every kind-specific config field is a constructor parameter of
        exactly one class, after the horizon and in order, and the config's
        default is that class's attribute of the parameter's name."""
        owners = {}
        for env in ENVIRONMENTS.values():
            names = list(inspect.signature(env).parameters)
            assert names[0] == "horizon"
            for field, name in zip(env.params, names[1:], strict=True):
                assert field not in owners
                owners[field] = (env, name)
        config_fields = dataclasses.fields(BenchmarkConfig)
        assert set(owners) == {f.name for f in config_fields} - {"kind", "horizon"}
        for f in config_fields:
            if f.name in owners:
                env, name = owners[f.name]
                assert f.default == getattr(env, name)

    def test_make_env_passes_the_parameters_through(self):
        mva = make_env(BenchmarkConfig("sigmoidmva", levels=7))
        assert (mva.levels, mva.action_count) == (7, 8)
        fuzzy = make_env(BenchmarkConfig("fuzzy", horizon=3, fuzzy_mean=-2.5, fuzzy_spread=0.0))
        fuzzy.reset()
        assert (fuzzy.mean, fuzzy.spread, fuzzy.horizon) == (-2.5, 0.0, 3)
        assert fuzzy.step(1)[1] == -2.5


class TestLuby:
    def test_first_fifteen_values(self):
        expected = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]
        assert [luby_value(t) for t in range(1, 16)] == expected

    def test_listed_positions(self):
        assert luby_value(1) == 1
        assert luby_value(7) == 4
        assert luby_value(15) == 8
        assert luby_value(31) == 16

    def test_against_doubling_oracle_to_1024(self):
        oracle = luby_sequence_oracle(1024)
        assert [luby_value(t) for t in range(1, 1025)] == oracle

    def test_boundary_positions_are_powers(self):
        for k in range(1, 11):
            assert luby_value(2**k - 1) == 2 ** (k - 1)

    def test_exponents(self):
        assert luby_exponent(1) == 0
        assert luby_exponent(7) == 2
        assert luby_exponent(15) == 3
        for t in range(1, 200):
            assert 2 ** luby_exponent(t) == luby_value(t)

    def test_position_zero_rejected(self):
        with pytest.raises(ContractError):
            luby_value(0)


class TestCounting:
    def test_matching_action(self):
        assert counting_reward(3, 3) == 1.0

    def test_optimal_policy_total(self):
        assert sum(counting_reward(t, t) for t in range(5)) == 5.0

    def test_constant_policy_total_one(self):
        for a in range(5):
            assert sum(counting_reward(t, a) for t in range(5)) == 1.0


class TestFuzzy:
    def test_immediate_termination_total_zero(self):
        env = FuzzyEnv(20)
        env.reset((), SeedSpec(0, 0))
        _, reward, done = env.step(0)
        assert done and reward == 0.0

    def test_reward_sample_mean(self):
        # 1e5 reward draws for action 1: mean within 0.02 of 1 (sd 2, so
        # 3 standard errors ~ 0.019)
        env = FuzzyEnv(20)
        rewards = []
        episode = 0
        while len(rewards) < 10**5:
            env.reset((), SeedSpec(100, episode))
            done = False
            while not done:
                _, reward, done = env.step(1)
                rewards.append(reward)
            episode += 1
        mean = float(np.mean(rewards[: 10**5]))
        assert abs(mean - 1.0) <= 0.02

    def test_optimal_policy_expected_total(self):
        env = FuzzyEnv(20)
        totals = []
        for episode in range(2000):
            env.reset((), SeedSpec(200, episode))
            total, done = 0.0, False
            while not done:
                _, reward, done = env.step(1)
                total += reward
            totals.append(total)
        # per-episode sd ~ 2*sqrt(20); 3 SEs over 2000 episodes ~ 0.6
        assert abs(float(np.mean(totals)) - 20.0) <= 0.6


class TestSigmoid:
    def test_inflection_point(self):
        assert sigmoid(5, 1, 5) == pytest.approx(0.5, abs=1e-15)

    def test_figure_instance(self):
        assert sigmoid(3, 20, 3) == pytest.approx(0.5, abs=1e-15)

    def test_extreme_scale_saturates(self):
        assert sigmoid(10, 1e6, 5) == pytest.approx(1.0, abs=1e-200)
        assert sigmoid(0, 1e6, 5) == pytest.approx(0.0, abs=1e-200)
        assert math.isfinite(sigmoid(1e308, -99.9, -1e308))

    def test_complementarity_monte_carlo(self):
        rng = derive_stream(300, 0)
        ts = rng.uniform(-20, 20, 10**4)
        ss = rng.uniform(-100, 100, 10**4)
        ps = rng.normal(5.5, 2.75, 10**4)
        worst = 0.0
        for t, s, p in zip(ts, ss, ps):
            r0 = sigmoid_reward(int(t), 0, s, p)
            r1 = sigmoid_reward(int(t), 1, s, p)
            worst = max(worst, abs(r0 + r1 - 1.0))
        assert worst <= 1e-12

    @given(
        t=st.integers(0, 10),
        s=st.floats(-100, 100, allow_nan=False),
        p=st.floats(-5, 15, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_range_and_complement(self, t, s, p):
        value = sigmoid(t, s, p)
        assert 0.0 <= value <= 1.0
        assert sigmoid_reward(t, 1, s, p) == value

    def test_monotone_in_t_with_sign_of_scale(self):
        for s in (0.5, 7.0, 80.0):
            values = [sigmoid(t, s, 5.0) for t in range(11)]
            assert values == sorted(values)
            values = [sigmoid(t, -s, 5.0) for t in range(11)]
            assert values == sorted(values, reverse=True)

    def test_optimal_switches_at_inflection(self):
        # s > 0: action 0 wins before p, action 1 after (flip at p)
        s, p = 12.0, 5.3
        for t in range(11):
            best = max((0, 1), key=lambda a: sigmoid_reward(t, a, s, p))
            assert best == (1 if t > p else 0)
        for t in range(11):
            best = max((0, 1), key=lambda a: sigmoid_reward(t, a, -s, p))
            assert best == (0 if t > p else 1)

    def test_steep_instance_oracle_total(self):
        s, p = 80.0, 5.3
        total = sum(
            max(sigmoid_reward(t, a, s, p) for a in (0, 1)) for t in range(11)
        )
        assert total >= 10.9  # near the ceiling of 11


class TestSigmoidMVA:
    def test_exact_match(self):
        # sig(=0.5) matched by level 2 of 4: reward 1
        assert sigmoidmva_reward(5, 2, 1.0, 5.0, 4) == pytest.approx(1.0)

    def test_maximal_miss(self):
        assert sigmoidmva_reward(10, 0, 1e6, 0.0, 4) == pytest.approx(0.0)

    def test_nearest_level_bound(self):
        # nearest grid level is within half a cell: reward >= 1 - 1/(2L)
        rng = derive_stream(400, 0)
        L = 4
        for _ in range(2000):
            s = rng.uniform(-100, 100)
            p = rng.normal(5.5, 2.75)
            t = int(rng.integers(0, 11))
            best = max(sigmoidmva_reward(t, a, s, p, L) for a in range(L + 1))
            assert best >= 1.0 - 1.0 / (2 * L)

    def test_reward_range_random_rollouts(self):
        env = SigmoidMVAEnv(11, 4)
        rng = derive_stream(401, 0)
        for episode in range(50):
            inst = sample_sigmoid_instance(rng, 11)
            env.reset(inst, SeedSpec(401, episode))
            done = False
            while not done:
                _, r, done = env.step(int(rng.integers(5)))
                assert 0.0 <= r <= 1.0


class TestDiscreteRewardRanges:
    def test_counting_rewards_in_zero_one(self):
        env = CountingEnv(5)
        rng = derive_stream(402, 0)
        env.reset((), SeedSpec(402, 0))
        done = False
        while not done:
            _, r, done = env.step(int(rng.integers(5)))
            assert r in (0.0, 1.0)

    def test_luby_rewards_plus_minus_one(self):
        env = LubyEnv(32)
        rng = derive_stream(403, 0)
        env.reset((), SeedSpec(403, 0))
        done = False
        while not done:
            _, r, done = env.step(int(rng.integers(6)))
            assert r in (-1.0, 1.0)

    def test_luby_optimal_rollout_scores_horizon(self):
        env = LubyEnv(32)
        env.reset((), SeedSpec(404, 0))
        total, t, done = 0.0, 0, False
        while not done:
            _, reward, done = env.step(luby_exponent(t + 1))
            total += reward
            t += 1
        assert total == 32.0


class TestSamplers:
    def test_inflection_mean(self):
        rng = derive_stream(500, 0)
        ps = [sample_sigmoid_instance(rng, 11)[1] for _ in range(10**5)]
        assert abs(float(np.mean(ps)) - 5.5) <= 0.05

    def test_scale_support(self):
        rng = derive_stream(501, 0)
        ss = [sample_sigmoid_instance(rng, 11)[0] for _ in range(10**5)]
        assert all(-100.0 < s < 100.0 for s in ss)
        negative_fraction = sum(s < 0 for s in ss) / len(ss)
        assert abs(negative_fraction - 0.5) <= 0.01

    def test_instance_set_ids_and_determinism(self):
        first = make_instance_set(derive_stream(502, 0), 11, 100)
        second = make_instance_set(derive_stream(502, 0), 11, 100)
        assert len(first) == 100 and all(len(inst) == 2 for inst in first)
        assert first == second

    def test_instance_set_empty_rejected(self):
        with pytest.raises(ContractError):
            make_instance_set(derive_stream(503, 0), 11, 0)


def left_to_right(rewards) -> float:
    """The rewards added in order from 0.0, as a rollout totals its steps."""
    total = 0.0
    for reward in rewards:
        total += reward
    return total


def _drawn_env(data, kind):
    horizon = data.draw(st.integers(1, 40))
    if kind == "fuzzy":
        return FuzzyEnv(horizon, data.draw(st.floats(-5.0, 5.0)), data.draw(st.floats(0.0, 5.0)))
    if kind == "sigmoidmva":
        return SigmoidMVAEnv(horizon, data.draw(st.integers(1, 8)))
    return ENVIRONMENTS[kind](horizon)


class TestPathRewards:
    """``path_rewards`` is ``reset`` followed by ``step``, in one call."""

    @pytest.mark.parametrize("kind", BENCHMARK_KINDS)
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_equal_the_step_rewards(self, kind, data):
        """Reward for reward, by repr, with and without a reward table on the
        instance, for actions given as ints, integral floats or numpy ints; a
        fuzzy path may end at its first 0 or run on past it. The caller's
        episode is left where it was."""
        env = _drawn_env(data, kind)
        instances = [()]
        if env.context_dim:
            instance = st.tuples(st.floats(-100.0, 100.0), st.floats(-50.0, 50.0))
            instances = data.draw(st.lists(instance, min_size=1, max_size=2))
        seeds = st.integers(0, 2**64 - 1)
        for _ in range(data.draw(st.integers(1, 4))):
            instance = data.draw(st.sampled_from(instances))
            if env.fixed_rewards and data.draw(st.booleans()):
                env.reward_table(instance)
            actions = data.draw(st.lists(st.integers(0, env.action_count - 1),
                                         min_size=env.horizon, max_size=env.horizon))
            if kind == "fuzzy" and 0 in actions and data.draw(st.booleans()):
                actions = actions[:actions.index(0) + 1]
            as_type = data.draw(st.sampled_from([int, float, np.int64]))
            actions = [as_type(a) for a in actions]
            master, stream = data.draw(seeds), data.draw(seeds)
            env.reset(instance, SeedSpec(master, stream))
            expected, done = [], False
            for action in actions:
                if not done:
                    _, reward, done = env.step(action)
                    expected.append(reward)
            other = data.draw(st.sampled_from(instances))  # the caller's episode
            env.reset(other, SeedSpec(0, 0))
            env.step(0)
            episode = (env._instance, env._t, env._done, env._history)
            rewards = env.path_rewards(actions, instance, master, stream)
            assert [repr(r) for r in rewards] == [repr(r) for r in expected]
            assert all(type(r) is float for r in rewards)
            assert (env._instance, env._t, env._done, env._history) == episode

    @pytest.mark.parametrize("kind", BENCHMARK_KINDS)
    @pytest.mark.parametrize("bad", ["-1", "action_count", "0.5", "None"])
    @pytest.mark.parametrize("at", ["first", "last"])
    @pytest.mark.parametrize("cold", [True, False], ids=["cold", "warm"])
    def test_refuses_what_step_refuses(self, kind, bad, at, cold):
        env = ENVIRONMENTS[kind]()
        action = {"-1": -1, "action_count": env.action_count, "0.5": 0.5, "None": None}[bad]
        instance = (3.0, 5.0) if env.context_dim else ()
        if not cold and env.fixed_rewards:
            env.reward_table(instance)
        path = [1] * env.horizon
        path[0 if at == "first" else -1] = action
        env.reset(instance, SeedSpec(0, 0))
        if at == "last":
            for _ in range(env.horizon - 1):
                env.step(1)
        with pytest.raises(ContractError, match="out of range"):
            env.step(action)
        with pytest.raises(ContractError, match="out of range"):
            env.path_rewards(path, instance, 0, 0)


class TestPathReturn:
    @pytest.mark.parametrize("kind", BENCHMARK_KINDS)
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_equals_the_rollout(self, kind, data):
        """``path_return`` gives the open-loop rollout's total bit for bit,
        also on an instance whose reward table is already filled; a fuzzy
        list may end at its first 0, as a rollout's actions do."""
        env = _drawn_env(data, kind)
        instances = [()]
        if env.context_dim:
            instance = st.tuples(st.floats(-100.0, 100.0), st.floats(-50.0, 50.0))
            instances = data.draw(st.lists(instance, min_size=1, max_size=2))
        seeds = st.integers(0, 2**64 - 1)
        for _ in range(data.draw(st.integers(1, 4))):
            instance = data.draw(st.sampled_from(instances))
            actions = data.draw(st.lists(st.integers(0, env.action_count - 1),
                                         min_size=env.horizon, max_size=env.horizon))
            if kind == "fuzzy" and 0 in actions and data.draw(st.booleans()):
                actions = actions[:actions.index(0) + 1]
            master, stream = data.draw(seeds), data.draw(seeds)
            expected = greedy_rollout(lambda obs: actions[obs.time_step], env, instance,
                                      SeedSpec(master, stream))
            assert repr(env.path_return(actions, instance, master, stream)) == repr(expected)

    @pytest.mark.parametrize("kind", BENCHMARK_KINDS)
    @pytest.mark.parametrize("bad", ["-1", "action_count", "0.5", "None"])
    def test_action_out_of_range_refused(self, kind, bad):
        """As ``step`` refuses it: a -1 would otherwise index a table row from its end,
        and 0.5 would play action 0 on Sigmoid."""
        env = ENVIRONMENTS[kind]()
        action = {"-1": -1, "action_count": env.action_count, "0.5": 0.5, "None": None}[bad]
        instance = ()
        if env.context_dim:
            instance = sample_sigmoid_instance(derive_stream(0, 0), env.horizon)
        env.reset(instance, SeedSpec(0, 0))
        with pytest.raises(ContractError, match="out of range"):
            env.step(action)
        with pytest.raises(ContractError, match="out of range"):
            greedy_rollout(lambda obs: action, env, instance, SeedSpec(0, 0))
        with pytest.raises(ContractError, match="out of range"):
            env.path_return([action] * env.horizon, instance, 0, 0)

    @pytest.mark.parametrize("kind", BENCHMARK_KINDS)
    def test_one_action_rule_for_every_scorer(self, kind):
        """``step``, a constant ``greedy_rollout`` and a whole-horizon ``path_return``
        all refuse a constant action or all accept it, with equal totals."""
        env = ENVIRONMENTS[kind]()
        instance = ()
        if env.context_dim:
            instance = sample_sigmoid_instance(derive_stream(0, 0), env.horizon)

        def verdict(score):
            try:
                return score()
            except ContractError:
                return ContractError

        n = env.action_count
        for action in [-1, *range(n), n, 0.5, 1.0, None]:
            env.reset(instance, SeedSpec(0, 0))
            stepped = verdict(lambda: env.step(action))
            rolled = verdict(lambda: greedy_rollout(lambda obs: action, env, instance,
                                                    SeedSpec(3, 1)))
            scored = verdict(lambda: env.path_return([action] * env.horizon, instance, 3, 1))
            listed = verdict(lambda: env.path_rewards([action] * env.horizon, instance, 3, 1))
            if stepped is ContractError:
                assert rolled is scored is listed is ContractError, action
            else:
                assert rolled is not ContractError, action
                assert repr(rolled) == repr(scored) == repr(left_to_right(listed)), action

    @pytest.mark.parametrize("kind", BENCHMARK_KINDS)
    @pytest.mark.parametrize("cold", [True, False], ids=["cold", "warm"])
    def test_one_instance_rule_for_every_scorer(self, kind, cold):
        """An instance whose length is not ``context_dim`` is refused with
        ``reset``'s error by ``reset``, a ``greedy_rollout``, ``path_return`` and
        ``path_rewards`` alike, whether or not the environment holds a table."""
        env = ENVIRONMENTS[kind]()
        if not cold and env.fixed_rewards:
            env.reward_table((3.0, 5.0) if env.context_dim else ())
        message = f"instance has {env.context_dim + 1} context parameters"
        wrong = (2.0,) * (env.context_dim + 1)
        for score in (lambda: env.reset(wrong, SeedSpec(0, 0)),
                      lambda: greedy_rollout(lambda obs: 1, env, wrong, SeedSpec(0, 0)),
                      lambda: env.path_return([1] * env.horizon, wrong, 0, 0),
                      lambda: env.path_rewards([1] * env.horizon, wrong, 0, 0)):
            with pytest.raises(ContractError, match=message):
                score()

    def test_every_noisy_benchmark_scores_its_own_paths(self):
        """The base ``path_return`` reads a noise-free reward table and takes only
        whole schedules, so a benchmark without ``fixed_rewards`` overrides it, and
        ``path_rewards`` too."""
        noisy = [cls for cls in ENVIRONMENTS.values() if not cls.fixed_rewards]
        assert noisy
        for cls in noisy:
            assert "path_return" in vars(cls) and "path_rewards" in vars(cls), cls.kind

    @pytest.mark.parametrize("env, actions", [
        (FuzzyEnv(20), [1] * 25),
        (FuzzyEnv(20), [1] * 20 + [0]),
        (LubyEnv(32), [0] * 5),
        (FuzzyEnv(20), [1, 1]),
        (FuzzyEnv(20), [0, 1, 1]),
        (FuzzyEnv(20), [1, 0, 1]),
    ], ids=["fuzzy-longer", "fuzzy-longer-ending-at-its-first-0", "luby-shorter",
            "fuzzy-shorter-without-0", "fuzzy-shorter-0-first", "fuzzy-shorter-on-after-0"])
    def test_path_no_rollout_takes_refused(self, env, actions):
        """A path longer than the horizon, or shorter and not ending at its first
        terminating action, sums an episode that cannot end where the path does:
        [1, 0, 1] would score as [1, 0]."""
        with pytest.raises(ContractError, match="ends no episode"):
            env.path_return(actions, (), 7, 3)

    @pytest.mark.parametrize("actions", [[1] * 20, [1, 1, 0], [0], [1, 0] + [1] * 18],
                             ids=["no-0", "ends-at-0", "only-0", "whole-schedule-with-0"])
    def test_fuzzy_paths_a_rollout_takes(self, actions):
        """A path ending at its first 0, or a whole schedule of the horizon's
        length (a rollout stops at its first 0), scores as its rollout, bit for bit."""
        env = FuzzyEnv(20)
        expected = greedy_rollout(lambda obs: actions[obs.time_step], env, (), SeedSpec(7, 3))
        assert repr(env.path_return(actions, (), 7, 3)) == repr(expected)

    def test_fixed_rewards_never_ask_for_termination(self):
        """Where no action terminates, ``step`` and the path check skip ``_terminates``:
        the check is a length comparison."""
        class Counted(LubyEnv):
            def _terminates(self, t, action):
                raise AssertionError("_terminates called on a fixed_rewards benchmark")

        env = Counted(32)
        assert env.path_return([0] * 32, (), 0, 0) == LubyEnv(32).path_return([0] * 32, (), 0, 0)
        with pytest.raises(ContractError, match="ends no episode"):
            env.path_return([0] * 5, (), 0, 0)

    @pytest.mark.parametrize("kind", BENCHMARK_KINDS)
    def test_scoring_leaves_the_callers_episode_alone(self, kind):
        """Building a reward table mid-episode leaves this episode where it was."""
        def episode(env, score_at):
            obs, done, steps = env.reset(instance, SeedSpec(5, 0)), False, []
            while not done:
                if obs.time_step == score_at:
                    env.path_return([0] * env.horizon, instance, 0, 0)
                obs, reward, done = env.step(1)
                steps.append((obs, reward, done))
            return steps

        env = ENVIRONMENTS[kind]()
        instance = (3.0, 5.0) if env.context_dim else ()
        assert episode(env, 1) == episode(ENVIRONMENTS[kind](), -1)
