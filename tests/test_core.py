"""Environment contract, seeding, and episode bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algocontrol.benchmarks import (
    BENCHMARK_KINDS,
    ENVIRONMENTS,
    CountingEnv,
    FuzzyEnv,
    LubyEnv,
    SigmoidEnv,
    SigmoidMVAEnv,
)
from algocontrol import core
from algocontrol.core import (
    BLOCK,
    BlockStream,
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


# Bounds that stress numpy's 32-bit Lemire draw: no draw (1), small, about half
# the draws rejected (2**31 + 1), and the two largest 32-bit ranges.
LEMIRE_BOUNDS = (1, 2, 6, 2**31 + 1, 2**32 - 1, 2**32)
# Bounds at and above 2**32, the largest 32-bit one: above it numpy's 64-bit draw
# takes whole words and leaves a spare half in place. The smallest 64-bit range,
# about half the draws rejected (2**63 + 1), a power of two (2**63, the
# blackbox's base seed) and the two largest.
WIDE_BOUNDS = (2**32, 2**32 + 1, 2**63, 2**63 + 1, 2**64 - 1, 2**64)
# (draw, bound, repeat count): runs of one scalar draw, interleaved by the
# list; a "list" run is one integers(bound, size=count) draw.
DRAW_RUNS = st.one_of(
    st.tuples(st.just("random"), st.just(0), st.integers(1, 700)),
    st.tuples(st.just("integers"), st.sampled_from(LEMIRE_BOUNDS) | st.integers(1, 2**32),
              st.integers(1, 700)),
    st.tuples(st.just("integers"), st.sampled_from(WIDE_BOUNDS) | st.integers(2**32, 2**64),
              st.integers(1, 300)),
    st.tuples(st.just("list"), st.sampled_from(LEMIRE_BOUNDS + WIDE_BOUNDS)
              | st.integers(1, 2**32) | st.integers(2**32, 2**64), st.integers(0, 2 * BLOCK + 3)),
)


def numpy_draw(gen: np.random.Generator, n: int, size: int | None = None):
    """``gen.integers(n, size=size)``; a bound above 2**63 needs numpy's uint64
    dtype, which draws as int64 does."""
    return gen.integers(n, size=size, dtype=np.int64 if n <= 2**63 else np.uint64)


def assert_same_draws(block: BlockStream, gen: np.random.Generator, runs) -> None:
    for draw, n, count in runs:
        if draw == "list":
            values = block.integers(n, size=count)
            assert type(values) is list and all(type(v) is int for v in values)
            assert values == numpy_draw(gen, n, count).tolist()
            continue
        for _ in range(count):
            if draw == "random":
                assert block.random() == gen.random()
            else:
                value = block.integers(n)
                assert type(value) is int and value == numpy_draw(gen, n)


class TestBlockStream:
    """BlockStream(m, k) draws what derive_stream(m, k) draws, compared with the
    installed numpy: a change of numpy's streams fails here."""

    @settings(max_examples=60, deadline=None)
    @given(master=st.integers(0, 2**64 - 1), stream=st.integers(0, 2**64 - 1),
           runs=st.lists(DRAW_RUNS, max_size=12))
    def test_equals_generator_on_any_interleaving(self, master, stream, runs):
        assert_same_draws(BlockStream(master, stream), derive_stream(master, stream), runs)

    @pytest.mark.parametrize("n", LEMIRE_BOUNDS)
    def test_each_bound_across_blocks(self, n):
        runs = [("integers", n, 3 * BLOCK), ("random", 0, 5), ("integers", n, 7)]
        assert_same_draws(BlockStream(5, 6), derive_stream(5, 6), runs)

    @pytest.mark.parametrize("n", WIDE_BOUNDS)
    def test_each_wide_bound_across_blocks_keeps_the_spare(self, n):
        # One 32-bit draw leaves a spare half; above 2**32, whole-word draws
        # cross a block boundary without touching it, and the next 32-bit draw
        # takes it.
        runs = [("integers", 6, 1), ("integers", n, BLOCK + 3), ("integers", 6, 3),
                ("list", n, BLOCK + 1), ("list", 6, 3)]
        assert_same_draws(BlockStream(5, 7), derive_stream(5, 7), runs)

    def test_odd_32_bit_draws_straddle_a_block(self):
        # Word BLOCK - 1 serves two 32-bit draws; the third splits the next
        # block's first word and keeps its high half across the random() draws.
        runs = [("random", 0, BLOCK - 1), ("integers", 2**32, 3), ("random", 0, 2),
                ("integers", 2**32, 1), ("integers", 6, 5)]
        assert_same_draws(BlockStream(7, 8), derive_stream(7, 8), runs)

    @pytest.mark.parametrize("n", [6, 2**31 + 1])
    def test_odd_list_draws_leave_a_spare_across_a_block(self, n):
        # Two words are left in the block: a list of five takes them and the
        # low half of the next block's first word, whose high half the next
        # list starts with, after random() draws that leave it in place.
        runs = [("random", 0, BLOCK - 2), ("list", n, 5), ("random", 0, 3), ("list", n, 4),
                ("list", n, 2 * BLOCK + 1), ("integers", n, 3)]
        assert_same_draws(BlockStream(9, 10), derive_stream(9, 10), runs)

    def test_one_draws_nothing(self):
        block = BlockStream(3, 4)
        assert [block.integers(1) for _ in range(5)] == [0] * 5
        assert block.random() == derive_stream(3, 4).random()

    def test_list_of_one_draws_nothing(self):
        block, gen = BlockStream(3, 4), derive_stream(3, 4)
        assert block.integers(1, size=7) == [0] * 7 and block.integers(1, size=0) == []
        assert block.random() == gen.random()
        assert block.integers(6) == gen.integers(6)  # leaves a spare half-word
        assert block.integers(1, size=3) == [0] * 3
        assert block.integers(6) == gen.integers(6)

    @pytest.mark.parametrize("n", [0, -1, 2**64 + 1, 2.0, None])
    def test_bound_outside_1_to_2_64_refused(self, n):
        with pytest.raises(ContractError, match="2\\*\\*64"):
            BlockStream(1, 2).integers(n)
        with pytest.raises(ContractError, match="2\\*\\*64"):
            BlockStream(1, 2).integers(n, size=3)

    @pytest.mark.parametrize("size", [-1, 2.0, (2,)])
    def test_bad_size_refused(self, size):
        with pytest.raises(ContractError, match="size"):
            BlockStream(1, 2).integers(6, size=size)


def shape(env):
    """(action_count, horizon, context_dim, history_len) of ``env``."""
    return (env.action_count, env.horizon, env.context_dim, env.history_len)


class TestEnvSpec:
    def test_counting_spec(self):
        assert shape(CountingEnv(5)) == (5, 5, 0, 5)

    def test_luby_spec(self):
        assert shape(LubyEnv(32)) == (6, 32, 0, 5)

    def test_sigmoidmva_spec(self):
        assert shape(SigmoidMVAEnv(11, 4)) == (5, 11, 2, 0)

    def test_sigmoid_spec(self):
        assert shape(SigmoidEnv(11)) == (2, 11, 2, 0)

    def test_fuzzy_spec(self):
        assert shape(FuzzyEnv(20)) == (2, 20, 0, 5)


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

    @pytest.mark.parametrize("kind", BENCHMARK_KINDS)
    @pytest.mark.parametrize("first", ["1", "0"])
    def test_every_observation_is_the_named_tuple(self, kind, first):
        """``reset`` and each ``step`` give an ``Observation`` (not a bare tuple),
        field for field what the named constructor builds."""
        env = ENVIRONMENTS[kind]()
        n = env.action_count
        instance = (3.0, 5.0) if env.context_dim else ()
        obs, t, done = env.reset(instance, SeedSpec(7, 1)), 0, False
        history = [env.pad_action] * env.history_len
        while True:
            expected = Observation(time_step=t, continuous_features=instance,
                                   action_history=tuple(history))
            assert type(obs) is Observation
            assert obs.time_step == expected.time_step
            assert obs.continuous_features == expected.continuous_features
            assert obs.action_history == expected.action_history
            if done:
                break
            action = t % n if first == "0" else 1 + t % (n - 1)  # "0" ends a fuzzy episode
            obs, _, done = env.step(action)
            t, history = t + 1, (history + [action])[len(history) + 1 - env.history_len:]
        assert t == (1 if kind == "fuzzy" and first == "0" else env.horizon)

    @pytest.mark.parametrize("ctor,args", [(LubyEnv, (32,)), (SigmoidEnv, (11,))])
    def test_step_builds_one_observation(self, ctor, args):
        """The observation the policy chose each action on is the object the
        trace keeps for that step: one object per step, built once."""
        env, seen, trace = ctor(*args), [], []
        instance = (3.0, 5.0) if env.context_dim else ()
        greedy_rollout(lambda obs: seen.append(obs) or 0, env, instance, SeedSpec(2, 0), trace)
        assert len(trace) == len(seen) == env.horizon
        assert all(obs is step[0] for obs, step in zip(seen, trace))


def _random_policy(rng, action_count):
    return lambda obs: int(rng.integers(action_count))


def _traced_rollout(env, policy, instance, seed):
    """Total reward and trace of one greedy_rollout with a trace."""
    trace = []
    return greedy_rollout(policy, env, instance, seed, trace), trace


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
            (3.0, 5.0) if env.context_dim else ()
        )
        rng = derive_stream(5, 1)
        _, trace = _traced_rollout(
            env, _random_policy(rng, env.action_count), instance, SeedSpec(5, 2)
        )
        assert len(trace) == env.horizon

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
        instance = (
            (-2.0, 6.0) if env.context_dim else ()
        )
        obs, done = env.reset(instance, SeedSpec(8, 0)), False
        while not done:
            assert len(obs.continuous_features) == env.context_dim
            assert len(obs.action_history) == env.history_len
            assert obs.time_step <= env.horizon
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
        instance = (3.0, 5.0) if env.context_dim else ()
        for episode in range(3):
            for seed in (SeedSpec(9, episode), None):
                env.reset(instance, seed)
                done = False
                while not done:
                    done = env.step(episode % env.action_count)[2]
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
