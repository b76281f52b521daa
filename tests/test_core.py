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
    ContractError,
    Observation,
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
        assert dataclasses.astuple(CountingEnv(5).spec) == (5, 5, 0, 5)

    def test_luby_spec(self):
        assert dataclasses.astuple(LubyEnv(32).spec) == (6, 32, 0, 5)

    def test_sigmoidmva_spec(self):
        assert dataclasses.astuple(SigmoidMVAEnv(11, 4).spec) == (5, 11, 2, 0)

    def test_sigmoid_spec(self):
        assert dataclasses.astuple(SigmoidEnv(11).spec) == (2, 11, 2, 0)

    def test_fuzzy_spec(self):
        assert dataclasses.astuple(FuzzyEnv(20).spec) == (2, 20, 0, 5)


class TestResetContract:
    def test_luby_reset_padded_history(self):
        env = LubyEnv(32)
        obs = env.reset((), SeedSpec(1, 0))
        assert obs.time_step == 0
        assert obs.action_history == (env.pad_action,) * 5
        assert env.pad_action == 6  # outside the valid range {0..5}

    def test_sigmoid_reset_exposes_instance(self):
        env = SigmoidEnv(11)
        obs = env.reset((1.0, 5.0), SeedSpec(1, 0))
        assert obs.time_step == 0
        assert obs.continuous_features == (1.0, 5.0)

    def test_context_dimension_mismatch(self):
        env = CountingEnv(5)
        with pytest.raises(ContractError):
            env.reset((1.0,), SeedSpec(1, 0))


class TestStepContract:
    def test_counting_matching_action(self):
        env = CountingEnv(5)
        env.reset((), SeedSpec(1, 0))
        obs, reward, done = env.step(0)
        assert reward == 1.0
        assert not done
        assert obs.time_step == 1 and obs.action_history == (5, 5, 5, 5, 0)

    def test_fuzzy_action_zero_terminates(self):
        env = FuzzyEnv(20)
        env.reset((), SeedSpec(1, 0))
        _, reward, done = env.step(0)
        assert done
        assert reward == 0.0

    def test_action_out_of_range(self):
        env = LubyEnv(32)
        env.reset((), SeedSpec(1, 0))
        with pytest.raises(ContractError):
            env.step(6)

    def test_step_after_done(self):
        env = CountingEnv(2)
        env.reset((), SeedSpec(1, 0))
        env.step(0)
        env.step(1)
        with pytest.raises(ContractError):
            env.step(0)

    def test_step_before_reset(self):
        with pytest.raises(ContractError):
            CountingEnv(3).step(0)

    def test_time_step_increments(self):
        env = CountingEnv(5)
        obs = env.reset((), SeedSpec(1, 0))
        for expected_t in range(5):
            assert obs.time_step == expected_t
            obs, _, _ = env.step(0)

    def test_observation_keeps_its_defaults(self):
        obs = Observation(time_step=3)
        assert obs == (3, (), ()) and obs.continuous_features == () == obs.action_history

    @pytest.mark.parametrize("ctor,args", [(LubyEnv, (32,)), (SigmoidEnv, (11,))])
    def test_step_builds_one_observation(self, ctor, args):
        """The observation ``step`` returns is the one the trace keeps for
        the next step: one object per step, built once."""
        env = ctor(*args)
        env.reset((3.0, 5.0) if env.spec.context_dim else (), SeedSpec(2, 0), record_trace=True)
        returned = [env.step(0)[0] for _ in range(env.spec.horizon)]
        assert all(obs is env.trace[i + 1][0] for i, obs in enumerate(returned[:-1]))


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
            (3.0, 5.0) if env.spec.context_dim else ()
        )
        rng = derive_stream(5, 1)
        _, trace = _traced_rollout(
            env, _random_policy(rng, env.spec.action_count), instance, SeedSpec(5, 2)
        )
        assert len(trace) == env.spec.horizon

    def test_total_reward_is_sum(self):
        env = FuzzyEnv(20)
        rng = derive_stream(6, 1)
        total, trace = _traced_rollout(env, _random_policy(rng, 2), (), SeedSpec(6, 2))
        assert total == pytest.approx(sum(reward for _, _, reward in trace), abs=0)

    def test_fuzzy_can_end_early(self):
        env = FuzzyEnv(20)
        total, trace = _traced_rollout(env, lambda obs: 0, (), SeedSpec(7, 0))
        assert len(trace) == 1
        assert total == trace[0][2] == 0.0

    def test_trace_holds_each_pre_step_observation(self):
        env = CountingEnv(3)
        actions = iter((0, 2, 2))
        _, trace = _traced_rollout(env, lambda obs: next(actions), (), SeedSpec(7, 1))
        assert [(obs.time_step, obs.action_history[-1], a, r) for obs, a, r in trace] == [
            (0, 3, 0, 1.0),
            (1, 0, 2, 0.0),
            (2, 2, 2, 1.0),
        ]

    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_replay_bitwise_identical(self, seed, data):
        actions = data.draw(st.lists(st.integers(0, 1), min_size=20, max_size=20))
        first = self._run_fixed(seed, actions)
        second = self._run_fixed(seed, actions)
        assert first == second

    @staticmethod
    def _run_fixed(seed, actions):
        env = FuzzyEnv(20)
        it = iter(actions)
        return _traced_rollout(env, lambda obs: next(it), (), SeedSpec(seed, 0))

    @pytest.mark.parametrize("ctor,args", FIXED_LENGTH_ENVS)
    def test_observation_dims_match_spec(self, ctor, args):
        env = ctor(*args)
        spec = env.spec
        instance = (
            (-2.0, 6.0) if spec.context_dim else ()
        )
        obs, done = env.reset(instance, SeedSpec(8, 0)), False
        while not done:
            assert len(obs.continuous_features) == spec.context_dim
            assert len(obs.action_history) == spec.history_len
            assert obs.time_step <= spec.horizon
            obs, _, done = env.step(0)


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
        instance = (3.0, 5.0) if env.spec.context_dim else ()
        for episode in range(3):
            for seed in (SeedSpec(9, episode), None):
                env.reset(instance, seed)
                done = False
                while not done:
                    done = env.step(episode % env.spec.action_count)[2]
        assert derivations == []

    def test_fuzzy_rewards_match_eager_stream(self, derivations):
        env = FuzzyEnv(20)
        for stream in range(3):
            env.reset((), SeedSpec(31, stream))
            lazy = [env.step(1)[1] for _ in range(20)]
            eager_rng = derive_stream(31, stream)
            eager = [1.0 + 2.0 * eager_rng.standard_normal() for _ in range(20)]
            assert lazy == eager
        assert derivations == [(31, 0), (31, 1), (31, 2)]

    def test_fuzzy_derives_on_first_draw_only(self, derivations):
        env = FuzzyEnv(20)
        env.reset((), SeedSpec(32, 0))
        env.step(0)  # terminates without drawing
        assert derivations == []
        env.reset((), None)
        _, first, _ = env.step(1)
        assert first == 1.0 + 2.0 * derive_stream(0, 0).standard_normal()
        env.step(1)
        assert derivations == [(0, 0)]
