"""Schedule search: random schedules, racing, and the optimizer loop."""

import itertools
import math

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
    luby_exponent,
)
from algocontrol.blackbox import (
    IncumbentRecord,
    blackbox_optimize,
    mutate_schedule,
    race,
    random_schedule,
)
from algocontrol.core import BlockStream, ContractError, SeedSpec, derive_stream, greedy_rollout


class TestRandomSchedule:
    def test_single_action_space(self):
        sched = random_schedule(BlockStream(0, 0), 5, 1)
        assert sched == (0, 0, 0, 0, 0)

    def test_uniform_entries(self):
        rng = BlockStream(1, 0)
        draws = [random_schedule(rng, 1, 4)[0] for _ in range(10**4)]
        counts = np.bincount(draws, minlength=4)
        assert np.all(np.abs(counts / 10**4 - 0.25) <= 0.02)

    def test_consecutive_draws_differ(self):
        rng = BlockStream(2, 0)
        a = random_schedule(rng, 20, 5)
        b = random_schedule(rng, 20, 5)
        assert a != b

    def test_zero_horizon_rejected(self):
        with pytest.raises(ContractError):
            random_schedule(BlockStream(3, 0), 0, 2)

    def test_python_ints_from_the_same_draws(self):
        sched = random_schedule(BlockStream(5, 0), 30, 6)
        mirror = derive_stream(5, 0).integers(6, size=30)
        assert sched == tuple(int(a) for a in mirror)
        assert all(type(a) is int for a in sched)


class TestMutateSchedule:
    def test_changes_exactly_one_position(self):
        rng = BlockStream(4, 0)
        base = random_schedule(rng, 10, 5)
        for _ in range(50):
            mutated = mutate_schedule(rng, base, 5)
            diffs = [i for i in range(10) if mutated[i] != base[i]]
            assert len(diffs) == 1

    def test_empty_schedule_rejected(self):
        with pytest.raises(ContractError):
            mutate_schedule(BlockStream(4, 1), (), 3)


class TestEvaluateSchedule:
    @staticmethod
    def _run(schedule, env):
        return env.path_return(schedule, (), 5, 0)

    def test_counting_optimum(self):
        assert self._run((0, 1, 2, 3, 4), CountingEnv(5)) == 5.0

    def test_counting_constant(self):
        assert self._run((0, 0, 0, 0, 0), CountingEnv(5)) == 1.0

    def test_luby_exponent_schedule(self):
        sched = tuple(luby_exponent(t) for t in range(1, 33))
        assert self._run(sched, LubyEnv(32)) == 32.0

    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            self._run((0, 1), CountingEnv(5))

    def test_open_loop_ignores_state(self):
        # the same schedule is applied verbatim whatever the instance
        env = SigmoidEnv(11)
        sched = random_schedule(BlockStream(8, 0), 11, 2)
        for params in ((5.0, 3.0), (-50.0, 8.0)):
            trace = []
            greedy_rollout(lambda obs: sched[obs.time_step], env, params, SeedSpec(8, 1), trace)
            applied = tuple(action for _, action, _ in trace)
            assert applied == sched


class TestRace:
    def test_deterministic_challenger_wins_after_one_run(self):
        env = CountingEnv(5)
        score = lambda schedule, run: env.path_return(schedule, (), 1, run)
        incumbent_sched = (0, 0, 0, 0, 0)
        incumbent = IncumbentRecord(
            incumbent_sched, [score(incumbent_sched, 0)]
        )
        winner, consumed = race((0, 1, 2, 3, 4), incumbent, score, 1, budget_left=1)
        assert winner.schedule == (0, 1, 2, 3, 4)
        assert winner.mean_reward == 5.0
        assert consumed == 1

    def test_identical_schedule_keeps_incumbent(self):
        env = FuzzyEnv(20)
        score = lambda schedule, run: env.path_return(schedule, (), 2, run)
        sched = (1,) * 20
        incumbent = IncumbentRecord(sched, [score(sched, r) for r in range(5)])
        winner, consumed = race(sched, incumbent, score, 5, budget_left=5)
        assert winner is incumbent  # paired seeds: equal means, no strict win
        assert consumed == 1

    def test_fuzzy_all_one_beats_early_stop(self):
        wins = 0
        for trial in range(100):
            env = FuzzyEnv(20)
            score = lambda schedule, run: env.path_return(schedule, (), 100 + trial, run)
            early_stop = (1, 1, 0) + (1,) * 17
            incumbent = IncumbentRecord(
                early_stop, [score(early_stop, r) for r in range(50)]
            )
            winner, _ = race((1,) * 20, incumbent, score, 50, budget_left=50)
            wins += winner.schedule == (1,) * 20
        assert wins >= 95

    def test_budget_abort_keeps_incumbent(self):
        env = FuzzyEnv(20)
        score = lambda schedule, run: env.path_return(schedule, (), 3, run)
        sched = (1,) * 20
        incumbent = IncumbentRecord(sched, [score(sched, r) for r in range(8)])
        strong = (1,) * 20
        winner, consumed = race(strong, incumbent, score, 8, budget_left=2)
        assert winner is incumbent
        assert consumed <= 2

    def test_incumbent_without_runs_rejected(self):
        env = CountingEnv(5)
        score = lambda schedule, run: env.path_return(schedule, (), 1, run)
        with pytest.raises(ContractError):
            race((0, 1, 2, 3, 4), IncumbentRecord((0, 0, 0, 0, 0)), score, 1, 1)


class TestBlackboxOptimize:
    def test_budget_one_returns_first_random_schedule(self):
        env = CountingEnv(5)
        # replicate the optimizer's draw order: pairing seed, then schedule
        mirror = BlockStream(9, 0)
        mirror.integers(2**63)
        probe = random_schedule(mirror, 5, 5)
        result = blackbox_optimize(env, [()], 1, BlockStream(9, 0))
        assert result.incumbent.schedule == probe
        assert result.episodes_consumed == 1
        assert len(result.best_so_far) == 1

    def test_counting_reaches_exhaustive_optimum(self):
        # enumeration oracle over all 5^5 open-loop schedules
        best_value = max(
            sum(1.0 for t, a in enumerate(actions) if a == t)
            for actions in itertools.product(range(5), repeat=5)
        )
        assert best_value == 5.0
        env = CountingEnv(5)
        result = blackbox_optimize(env, [()], 10**4, BlockStream(10, 0))
        assert result.incumbent.mean_reward == best_value
        assert result.incumbent.schedule == (0, 1, 2, 3, 4)

    def test_best_so_far_monotone_deterministic(self):
        env = LubyEnv(16)
        result = blackbox_optimize(env, [()], 2000, BlockStream(11, 0))
        curve = result.best_so_far
        assert len(curve) == 2000
        assert all(a <= b for a, b in zip(curve, curve[1:]))

    def test_best_so_far_monotone_stochastic(self):
        env = FuzzyEnv(10)
        result = blackbox_optimize(env, [()], 500, BlockStream(12, 0), max_runs=10)
        curve = result.best_so_far
        assert len(curve) == 500
        assert all(a <= b + 1e-12 for a, b in zip(curve, curve[1:]))

    def test_max_runs_must_be_positive(self):
        with pytest.raises(ContractError):
            blackbox_optimize(CountingEnv(5), [()], 10, BlockStream(14, 0), max_runs=0)

    @pytest.mark.parametrize("fraction", [-0.1, 1.5, math.nan, math.inf])
    def test_neighbor_fraction_range(self, fraction):
        with pytest.raises(ContractError):
            blackbox_optimize(CountingEnv(5), [()], 10, BlockStream(14, 1),
                              neighbor_fraction=fraction)

    def test_empty_instance_list_rejected(self):
        with pytest.raises(ContractError):
            blackbox_optimize(SigmoidEnv(11), [], 10, BlockStream(14, 2))
        with pytest.raises(ContractError):  # a context-free benchmark passes [()]
            blackbox_optimize(CountingEnv(5), [], 10, BlockStream(14, 2))
        with pytest.raises(ContractError):
            blackbox_optimize(CountingEnv(5), None, 10, BlockStream(14, 2))

    def test_stop_at_halts_early(self):
        env = CountingEnv(5)
        result = blackbox_optimize(env, [()], 10**4, BlockStream(13, 0), stop_at=5.0)
        assert result.incumbent.mean_reward == 5.0
        assert result.episodes_consumed < 10**4

    def test_instance_paired_runs(self):
        # run r scores every schedule on instances[r % n] with stream (base_seed, r)
        class Recording(SigmoidEnv):
            calls = []

            def path_return(self, actions, instance, master_seed, stream_id):
                self.calls.append((instance, master_seed, stream_id))
                return super().path_return(actions, instance, master_seed, stream_id)

        instances = [(10.0 + i, 5.0) for i in range(3)]
        base_seed = BlockStream(4, 0).integers(2**63)  # the optimizer's first draw
        blackbox_optimize(Recording(11), instances, 300, BlockStream(4, 0), max_runs=10)
        calls = Recording.calls
        assert {stream for _, _, stream in calls} == set(range(10))
        assert all(instance == instances[run % 3] and master == base_seed
                   for instance, master, run in calls)

    @pytest.mark.parametrize("max_runs", [1, 10])
    @pytest.mark.parametrize("env_class, args, instances", [
        (CountingEnv, (5,), [()]),
        (LubyEnv, (16,), [()]),
        (SigmoidEnv, (11,), [(30.0, 4.0), (-60.0, 7.5), (2.0, 5.0)]),
        (SigmoidMVAEnv, (11, 4), [(10.0, 5.0), (-5.0, 2.0)]),
        (FuzzyEnv, (8, 0.5, 1.5), [()]),
    ], ids=["counting", "luby", "sigmoid", "sigmoidmva", "fuzzy"])
    def test_one_path_return_per_consumed_episode(self, env_class, args, instances, max_runs):
        class Scored(env_class):
            calls = 0

            def path_return(self, *path):
                Scored.calls += 1
                return super().path_return(*path)

        result = blackbox_optimize(Scored(*args), instances, 250, BlockStream(23, max_runs),
                                   max_runs=max_runs)
        assert Scored.calls == result.episodes_consumed == 250


def _rolled_out(env_class):
    """The same benchmark scoring every schedule by a rollout: the
    reference for ``path_return``."""

    class RolledOut(env_class):
        def path_return(self, actions, instance, master_seed, stream_id):
            return greedy_rollout(lambda obs: actions[obs.time_step], self, instance,
                                  SeedSpec(master_seed, stream_id))

    return RolledOut


SIGMOID_INSTANCE = st.tuples(st.floats(-100.0, 100.0), st.floats(-1e3, 1e3))


@st.composite
def noise_free_cases(draw):
    """A noise-free benchmark, its evaluation instances ([()] when
    context-free) and a strategy for its schedules."""
    kind = draw(st.sampled_from(("counting", "luby", "sigmoid", "sigmoidmva")))
    horizon = draw(st.integers(1, 40))
    if kind == "counting":
        env = CountingEnv(horizon)
    elif kind == "luby":
        env = LubyEnv(horizon)
    elif kind == "sigmoid":
        env = SigmoidEnv(horizon)
    else:
        env = SigmoidMVAEnv(horizon, levels=draw(st.integers(1, 8)))
    instances = [()]
    if env.context_dim:
        instances = draw(st.lists(SIGMOID_INSTANCE, min_size=1, max_size=3))
    schedules = st.lists(st.integers(0, env.action_count - 1),
                         min_size=horizon, max_size=horizon).map(tuple)
    return env, instances, schedules


class TestRewardTable:
    def test_fixed_rewards_declared_by_benchmark(self):
        assert not FuzzyEnv(5).fixed_rewards
        for env in (CountingEnv(5), LubyEnv(8), SigmoidEnv(5), SigmoidMVAEnv(5)):
            assert env.fixed_rewards

    @given(case=noise_free_cases(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_noise_free_scores_equal_rollouts(self, case, data):
        env, instances, schedules = case
        for run in range(data.draw(st.integers(1, 6))):
            sched = data.draw(schedules)
            instance = instances[run % len(instances)]
            expected = greedy_rollout(lambda obs: sched[obs.time_step], env, instance,
                                      SeedSpec(7, run))
            assert env.path_return(sched, instance, 7, run) == expected

    @given(horizon=st.integers(1, 25), mean=st.floats(-5.0, 5.0),
           spread=st.floats(0.0, 5.0), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_fuzzy_scores_equal_rollouts(self, horizon, mean, spread, data):
        env = FuzzyEnv(horizon, mean=mean, spread=spread)
        schedules = st.lists(st.integers(0, 1), min_size=horizon, max_size=horizon)
        for run in range(data.draw(st.integers(1, 4))):
            sched = tuple(data.draw(schedules))
            expected = greedy_rollout(lambda obs: sched[obs.time_step], env, (),
                                      SeedSpec(11, run))
            assert env.path_return(sched, (), 11, run) == expected

    @pytest.mark.parametrize("env_class, args, instances, max_runs", [
        (CountingEnv, (5,), [()], 1),
        (LubyEnv, (16,), [()], 1),
        (SigmoidEnv, (11,), [(30.0, 4.0), (-60.0, 7.5), (2.0, 5.0)], 10),
        (SigmoidMVAEnv, (11, 4), [(10.0, 5.0), (-5.0, 2.0)], 10),
        (FuzzyEnv, (8, 0.5, 1.5), [()], 10),
    ], ids=["counting", "luby", "sigmoid", "sigmoidmva", "fuzzy"])
    def test_optimizer_matches_rollout_path(self, env_class, args, instances, max_runs):
        scored = blackbox_optimize(env_class(*args), instances, 600, BlockStream(20, 0),
                                   max_runs=max_runs)
        rolled = blackbox_optimize(_rolled_out(env_class)(*args), instances, 600,
                                   BlockStream(20, 0), max_runs=max_runs)
        assert scored == rolled

    def test_one_constant_action_rollout_per_action_and_instance(self):
        class StepCounter(SigmoidMVAEnv):
            steps = 0  # every step of env, the table fills included

            def step(self, action):
                StepCounter.steps += 1
                return super().step(action)

        env = StepCounter(11, levels=4)
        instances = [(30.0, 4.0), (-60.0, 7.5)]
        sched = random_schedule(BlockStream(21, 0), 11, 5)
        for run in range(10):
            env.path_return(sched, instances[run % len(instances)], 0, run)
        assert env.steps == len(instances) * 5 * 11


class TestTablePathContracts:
    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("env_class, bad", [
        (CountingEnv, (0, 1)),
        (CountingEnv, (0, 1, 2, 3, 4, 0)),
        (CountingEnv, (0, 1, -1, 3, 4)),
        (CountingEnv, (0, 1, 2, 3, 5)),
        (FuzzyEnv, (1, 1)),  # short, yet ends at no terminating action
        (FuzzyEnv, (1, 0, 2, 1, 1)),  # a rollout would end at the 0 before the 2
        (FuzzyEnv, (1, 1, 1, 1, -1)),
        (FuzzyEnv, (0, 1, 1, 1, 2)),
        (FuzzyEnv, (1, 0.5, 1, 1, 1)),  # a fractional float, as step refuses it
        # Whole schedules that the reward table's lookup refuses: a negative
        # action (a list row would read it from its end), action_count, a float.
        (LubyEnv, (-1, 1, 1, 1, 1)),
        (LubyEnv, (0, 1, 2, 1, -3)),
        (LubyEnv, (0, 1, 2, 3, 0)),  # LubyEnv(5) has 3 actions
        (LubyEnv, (0, 1.5, 2, 1, 0)),
        (SigmoidEnv, (1, 1, 1, 1, -1)),
        (SigmoidEnv, (0, 2, 1, 1, 1)),
        (SigmoidEnv, (0.5, 1, 1, 1, 1)),
        (SigmoidMVAEnv, (4, 3, -2, 1, 0)),
        (SigmoidMVAEnv, (0, 1, 2, 3, 5)),
        (SigmoidMVAEnv, (0, 1, 2, 2.5, 4)),
    ])
    def test_bad_schedule_rejected(self, env_class, bad, warm):
        """Refused with the table cold or warm, and the caller's episode (here
        after one step) is left where it was."""
        env = env_class(5)
        instance = (2.0, 3.0) if env.context_dim else ()
        env.reset(instance, SeedSpec(4, 0))
        env.step(1)
        episode = env._instance, env._t, env._done, env._history
        if warm:
            env.path_return((1, 1, 1, 1, 1), instance, 0, 0)
        with pytest.raises(ContractError):
            env.path_return(bad, instance, 0, 1)
        assert (env._instance, env._t, env._done, env._history) == episode

    def test_path_ending_at_its_first_termination_scores_its_rollout(self):
        expected = greedy_rollout(lambda obs: (1, 0)[obs.time_step], FuzzyEnv(5), (),
                                  SeedSpec(0, 1))
        assert FuzzyEnv(5).path_return((1, 0), (), 0, 1) == expected

    @pytest.mark.parametrize("env_class, max_runs", [(LubyEnv, 1), (FuzzyEnv, 3)])
    @pytest.mark.parametrize("budget", range(1, 8))
    def test_one_episode_per_score_cached_or_not(self, env_class, max_runs, budget):
        """The reward table the first score builds counts as no episode."""
        result = blackbox_optimize(env_class(16), [()], budget, BlockStream(22, budget),
                                   max_runs=max_runs)
        assert result.episodes_consumed == len(result.best_so_far) == budget
