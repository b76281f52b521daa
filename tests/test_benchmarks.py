"""Benchmark reward functions, samplers, and their oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algocontrol.benchmarks import (
    CountingEnv,
    FuzzyEnv,
    LubyEnv,
    SigmoidMVAEnv,
    counting_reward,
    luby_exponent,
    luby_value,
    make_instance_set,
    sample_sigmoid_instance,
    sigmoid,
    sigmoid_reward,
    sigmoidmva_reward,
)
from algocontrol.core import ContractError, SeedSpec, derive_stream
from oracles import luby_sequence_oracle


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
