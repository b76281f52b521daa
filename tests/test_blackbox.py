"""Schedule search: random schedules, racing, and the optimizer loop."""

import itertools

import numpy as np
import pytest

from algocontrol.benchmarks import CountingEnv, FuzzyEnv, LubyEnv, SigmoidEnv, luby_exponent
from algocontrol.blackbox import (
    IncumbentRecord,
    Schedule,
    ScheduleEvaluator,
    blackbox_optimize,
    mutate_schedule,
    race,
    random_schedule,
)
from algocontrol.core import ContractError, InstanceContext, derive_stream


class TestRandomSchedule:
    def test_single_action_space(self):
        sched = random_schedule(derive_stream(0, 0), 5, 1)
        assert sched.actions == (0, 0, 0, 0, 0)

    def test_uniform_entries(self):
        rng = derive_stream(1, 0)
        draws = [random_schedule(rng, 1, 4).actions[0] for _ in range(10**4)]
        counts = np.bincount(draws, minlength=4)
        assert np.all(np.abs(counts / 10**4 - 0.25) <= 0.02)

    def test_consecutive_draws_differ(self):
        rng = derive_stream(2, 0)
        a = random_schedule(rng, 20, 5)
        b = random_schedule(rng, 20, 5)
        assert a != b

    def test_zero_horizon_rejected(self):
        with pytest.raises(ContractError):
            random_schedule(derive_stream(3, 0), 0, 2)


class TestMutateSchedule:
    def test_changes_exactly_one_position(self):
        rng = derive_stream(4, 0)
        base = random_schedule(rng, 10, 5)
        for _ in range(50):
            mutated = mutate_schedule(rng, base, 5)
            diffs = [i for i in range(10) if mutated.actions[i] != base.actions[i]]
            assert len(diffs) == 1


class TestEvaluateSchedule:
    @staticmethod
    def _run(schedule, env):
        return ScheduleEvaluator(env, None, base_seed=5).run(schedule, 0)

    def test_counting_optimum(self):
        assert self._run(Schedule((0, 1, 2, 3, 4)), CountingEnv(5)) == 5.0

    def test_counting_constant(self):
        assert self._run(Schedule((0, 0, 0, 0, 0)), CountingEnv(5)) == 1.0

    def test_luby_exponent_schedule(self):
        sched = Schedule(tuple(luby_exponent(t) for t in range(1, 33)))
        assert self._run(sched, LubyEnv(32)) == 32.0

    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            self._run(Schedule((0, 1)), CountingEnv(5))

    def test_open_loop_ignores_state(self):
        # the same schedule is applied verbatim whatever the instance
        env = SigmoidEnv(11)
        sched = random_schedule(derive_stream(8, 0), 11, 2)
        for params in ((5.0, 3.0), (-50.0, 8.0)):
            env.reset(InstanceContext(0, params), derive_stream(8, 1), record_trace=True)
            for action in sched.actions:
                env.step(action)
            applied = tuple(tr[1] for tr in env.trace.transitions)
            assert applied == sched.actions


class TestRace:
    def test_deterministic_challenger_wins_after_one_run(self):
        env = CountingEnv(5)
        evaluator = ScheduleEvaluator(env, None, base_seed=1)
        incumbent_sched = Schedule((0, 0, 0, 0, 0))
        incumbent = IncumbentRecord(
            incumbent_sched, [evaluator.run(incumbent_sched, 0)]
        )
        winner, consumed = race(Schedule((0, 1, 2, 3, 4)), incumbent, evaluator, 1)
        assert winner.schedule.actions == (0, 1, 2, 3, 4)
        assert winner.mean_reward == 5.0
        assert consumed == 1

    def test_identical_schedule_keeps_incumbent(self):
        env = FuzzyEnv(20)
        evaluator = ScheduleEvaluator(env, None, base_seed=2)
        sched = Schedule((1,) * 20)
        incumbent = IncumbentRecord(sched, [evaluator.run(sched, r) for r in range(5)])
        winner, consumed = race(sched, incumbent, evaluator, 5)
        assert winner is incumbent  # paired seeds: equal means, no strict win
        assert consumed == 1

    def test_fuzzy_all_one_beats_early_stop(self):
        wins = 0
        for trial in range(100):
            env = FuzzyEnv(20)
            evaluator = ScheduleEvaluator(env, None, base_seed=100 + trial)
            early_stop = Schedule((1, 1, 0) + (1,) * 17)
            incumbent = IncumbentRecord(
                early_stop, [evaluator.run(early_stop, r) for r in range(50)]
            )
            winner, _ = race(Schedule((1,) * 20), incumbent, evaluator, 50)
            wins += winner.schedule.actions == (1,) * 20
        assert wins >= 95

    def test_budget_abort_keeps_incumbent(self):
        env = FuzzyEnv(20)
        evaluator = ScheduleEvaluator(env, None, base_seed=3)
        sched = Schedule((1,) * 20)
        incumbent = IncumbentRecord(sched, [evaluator.run(sched, r) for r in range(8)])
        strong = Schedule((1,) * 20)
        winner, consumed = race(strong, incumbent, evaluator, 8, budget_left=2)
        assert winner is incumbent
        assert consumed <= 2


class TestBlackboxOptimize:
    def test_budget_one_returns_first_random_schedule(self):
        env = CountingEnv(5)
        # replicate the optimizer's draw order: pairing seed, then schedule
        mirror = derive_stream(9, 0)
        mirror.integers(2**63)
        probe = random_schedule(mirror, 5, 5)
        result = blackbox_optimize(env, None, 1, derive_stream(9, 0))
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
        result = blackbox_optimize(env, None, 10**4, derive_stream(10, 0))
        assert result.incumbent.mean_reward == best_value
        assert result.incumbent.schedule.actions == (0, 1, 2, 3, 4)

    def test_best_so_far_monotone_deterministic(self):
        env = LubyEnv(16)
        result = blackbox_optimize(env, None, 2000, derive_stream(11, 0))
        curve = result.best_so_far
        assert len(curve) == 2000
        assert all(a <= b for a, b in zip(curve, curve[1:]))

    def test_best_so_far_monotone_stochastic(self):
        env = FuzzyEnv(10)
        result = blackbox_optimize(env, None, 500, derive_stream(12, 0), max_runs=10)
        curve = result.best_so_far
        assert len(curve) == 500
        assert all(a <= b + 1e-12 for a, b in zip(curve, curve[1:]))

    def test_max_runs_must_be_positive(self):
        with pytest.raises(ContractError):
            blackbox_optimize(CountingEnv(5), None, 10, derive_stream(14, 0), max_runs=0)

    def test_stop_at_halts_early(self):
        env = CountingEnv(5)
        result = blackbox_optimize(env, None, 10**4, derive_stream(13, 0), stop_at=5.0)
        assert result.incumbent.mean_reward == 5.0
        assert result.episodes_consumed < 10**4

    def test_instance_paired_runs(self):
        # with instances, run r always maps to the same instance
        env = SigmoidEnv(11)
        instances = [
            InstanceContext(i, (10.0 + i, 5.0)) for i in range(3)
        ]
        evaluator = ScheduleEvaluator(env, instances, base_seed=4)
        assert evaluator.instance_for_run(0) == instances[0]
        assert evaluator.instance_for_run(4) == instances[1]
