"""Environment contract, seeding, and episode bookkeeping."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algocontrol.benchmarks import (
    CountingEnv,
    FuzzyEnv,
    LubyEnv,
    SigmoidEnv,
    SigmoidMVAEnv,
)
from algocontrol import core
from algocontrol.core import (
    CONTEXT_FREE,
    ContractError,
    InstanceContext,
    SeedSpec,
    derive_seed,
    derive_stream,
    greedy_rollout,
)


class TestDeriveStream:
    def test_same_pair_same_stream(self):
        a = derive_stream(42, 0).random(100)
        b = derive_stream(42, 0).random(100)
        assert np.array_equal(a, b)

    def test_distinct_stream_ids_differ(self):
        a = derive_stream(42, 0).random()
        b = derive_stream(42, 1).random()
        assert a != b

    def test_distinct_master_seeds_differ(self):
        a = derive_stream(42, 0).random(10)
        b = derive_stream(43, 0).random(10)
        assert not np.array_equal(a, b)

    def test_derive_seed_stable(self):
        # the mixing function is part of the file-format-level contract
        assert derive_seed(42, 0) == derive_seed(42, 0)
        assert 0 <= derive_seed(123456789, 987654321) < 2**64


class TestEnvSpec:
    def test_counting_spec(self):
        assert dataclasses.astuple(CountingEnv(5).spec) == (5, 5, 0, 0, 5)

    def test_luby_spec(self):
        assert dataclasses.astuple(LubyEnv(32).spec) == (6, 32, 0, 0, 5)

    def test_sigmoidmva_spec(self):
        assert dataclasses.astuple(SigmoidMVAEnv(11, 4).spec) == (5, 11, 2, 2, 0)

    def test_sigmoid_spec(self):
        assert dataclasses.astuple(SigmoidEnv(11).spec) == (2, 11, 2, 2, 0)

    def test_fuzzy_spec(self):
        assert dataclasses.astuple(FuzzyEnv(20).spec) == (2, 20, 0, 0, 5)


class TestResetContract:
    def test_luby_reset_padded_history(self):
        env = LubyEnv(32)
        obs = env.reset(CONTEXT_FREE, SeedSpec(1, 0))
        assert obs.time_step == 0
        assert obs.action_history == (env.pad_action,) * 5
        assert env.pad_action == 6  # outside the valid range {0..5}

    def test_sigmoid_reset_exposes_instance(self):
        env = SigmoidEnv(11)
        obs = env.reset(InstanceContext(0, (1.0, 5.0)), SeedSpec(1, 0))
        assert obs.time_step == 0
        assert obs.continuous_features == (1.0, 5.0)

    def test_context_dimension_mismatch(self):
        env = CountingEnv(5)
        with pytest.raises(ContractError):
            env.reset(InstanceContext(0, (1.0,)), SeedSpec(1, 0))


class TestStepContract:
    def test_counting_matching_action(self):
        env = CountingEnv(5)
        env.reset(CONTEXT_FREE, SeedSpec(1, 0))
        outcome = env.step(0)
        assert outcome.reward == 1.0
        assert not outcome.done

    def test_fuzzy_action_zero_terminates(self):
        env = FuzzyEnv(20)
        env.reset(CONTEXT_FREE, SeedSpec(1, 0))
        outcome = env.step(0)
        assert outcome.done
        assert outcome.reward == 0.0

    def test_action_out_of_range(self):
        env = LubyEnv(32)
        env.reset(CONTEXT_FREE, SeedSpec(1, 0))
        with pytest.raises(ContractError):
            env.step(6)

    def test_step_after_done(self):
        env = CountingEnv(2)
        env.reset(CONTEXT_FREE, SeedSpec(1, 0))
        env.step(0)
        env.step(1)
        with pytest.raises(ContractError):
            env.step(0)

    def test_step_before_reset(self):
        with pytest.raises(ContractError):
            CountingEnv(3).step(0)

    def test_time_step_increments(self):
        env = CountingEnv(5)
        obs = env.reset(CONTEXT_FREE, SeedSpec(1, 0))
        for expected_t in range(5):
            assert obs.time_step == expected_t
            obs = env.step(0).observation


def _random_policy(rng, action_count):
    return lambda obs: int(rng.integers(action_count))


def _traced_rollout(env, policy, instance, seed):
    """Total reward and trace of one greedy_rollout with a trace."""
    total = greedy_rollout(policy, env, instance, seed, record_trace=True)
    return total, env.trace


FIXED_LENGTH_ENVS = [
    (CountingEnv, (5,)),
    (LubyEnv, (32,)),
    (SigmoidEnv, (11,)),
    (SigmoidMVAEnv, (11, 4)),
]


class TestEpisodeTrace:
    @pytest.mark.parametrize("ctor,args", FIXED_LENGTH_ENVS)
    def test_fixed_episode_length(self, ctor, args):
        env = ctor(*args)
        instance = (
            InstanceContext(0, (3.0, 5.0)) if env.spec.context_dim else CONTEXT_FREE
        )
        rng = derive_stream(5, 1)
        _, trace = _traced_rollout(
            env, _random_policy(rng, env.spec.action_count), instance, SeedSpec(5, 2)
        )
        assert len(trace) == env.spec.horizon

    def test_total_reward_is_sum(self):
        env = FuzzyEnv(20)
        rng = derive_stream(6, 1)
        total, trace = _traced_rollout(env, _random_policy(rng, 2), CONTEXT_FREE, SeedSpec(6, 2))
        assert total == trace.total_reward == pytest.approx(
            sum(t[2] for t in trace.transitions), abs=0
        )

    def test_fuzzy_can_end_early(self):
        env = FuzzyEnv(20)
        total, trace = _traced_rollout(env, lambda obs: 0, CONTEXT_FREE, SeedSpec(7, 0))
        assert len(trace) == 1
        assert total == trace.total_reward == 0.0

    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_replay_bitwise_identical(self, seed, data):
        actions = data.draw(st.lists(st.integers(0, 1), min_size=20, max_size=20))
        first = self._run_fixed(seed, actions)
        second = self._run_fixed(seed, actions)
        assert first.transitions == second.transitions
        assert first.total_reward == second.total_reward

    @staticmethod
    def _run_fixed(seed, actions):
        env = FuzzyEnv(20)
        it = iter(actions)
        return _traced_rollout(env, lambda obs: next(it), CONTEXT_FREE, SeedSpec(seed, 0))[1]

    @pytest.mark.parametrize("ctor,args", FIXED_LENGTH_ENVS)
    def test_observation_dims_match_spec(self, ctor, args):
        env = ctor(*args)
        spec = env.spec
        instance = (
            InstanceContext(0, (-2.0, 6.0)) if spec.context_dim else CONTEXT_FREE
        )
        obs = env.reset(instance, SeedSpec(8, 0))
        while not env.done:
            assert len(obs.continuous_features) == spec.obs_continuous_dim
            assert len(obs.action_history) == spec.history_len
            assert obs.time_step <= spec.horizon
            obs = env.step(0).observation


class TestLazyStreams:
    @pytest.fixture
    def derivations(self, monkeypatch):
        calls = []
        real = core.derive_stream

        def counting(master_seed, stream_id):
            calls.append((master_seed, stream_id))
            return real(master_seed, stream_id)

        monkeypatch.setattr(core, "derive_stream", counting)
        return calls

    @pytest.mark.parametrize("ctor,args", FIXED_LENGTH_ENVS)
    def test_deterministic_rewards_derive_no_stream(self, ctor, args, derivations):
        env = ctor(*args)
        instance = InstanceContext(0, (3.0, 5.0)) if env.spec.context_dim else CONTEXT_FREE
        for episode in range(3):
            for seed in (SeedSpec(9, episode), None):
                env.reset(instance, seed)
                while not env.done:
                    env.step(episode % env.spec.action_count)
        assert derivations == []

    def test_fuzzy_rewards_match_eager_stream(self, derivations):
        env = FuzzyEnv(20)
        for stream in range(3):
            env.reset(CONTEXT_FREE, SeedSpec(31, stream))
            lazy = [env.step(1).reward for _ in range(20)]
            eager_rng = derive_stream(31, stream)
            eager = [1.0 + 2.0 * eager_rng.standard_normal() for _ in range(20)]
            assert lazy == eager
        assert derivations == [(31, 0), (31, 1), (31, 2)]

    def test_fuzzy_derives_on_first_draw_only(self, derivations):
        env = FuzzyEnv(20)
        env.reset(CONTEXT_FREE, SeedSpec(32, 0))
        env.step(0)  # terminates without drawing
        assert derivations == []
        env.reset(CONTEXT_FREE, None)
        first = env.step(1).reward
        assert first == 1.0 + 2.0 * derive_stream(0, 0).standard_normal()
        env.step(1)
        assert derivations == [(0, 0)]

    def test_generator_passed_in_is_used_as_is(self, derivations):
        rng = derive_stream(33, 0)
        twin = derive_stream(33, 0)
        env = FuzzyEnv(20)
        env.reset(CONTEXT_FREE, rng)
        rewards = [env.step(1).reward for _ in range(5)]
        assert rewards == [1.0 + 2.0 * twin.standard_normal() for _ in range(5)]
        assert rng.bit_generator.state == twin.bit_generator.state
        assert derivations == []
