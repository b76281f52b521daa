"""Acceptance suite: one test per criterion, each printing a PASS line.

The heavy criteria run the full published protocol at a fixed master
seed (the whole pipeline is deterministic given the seed). Training
loops early-stop once a seed hits its target; that only shortens
runtime because a first hit is irrevocable and blackbox best-so-far
curves are monotone.
"""

import itertools
import time

import numpy as np

from algocontrol.agents import AgentHyperparams, q_update
from algocontrol.agents.dqn import _loss_into_grad
from algocontrol.benchmarks import (
    BenchmarkConfig,
    CountingEnv,
    LubyEnv,
    make_env,
    sample_sigmoid_instance,
    sigmoid_reward,
)
from algocontrol.blackbox import blackbox_optimize
from algocontrol.core import BlockStream, derive_stream
from algocontrol.harness import (
    BLACKBOX_STREAM,
    RUN_BASE,
    ExperimentConfig,
    _EvalSetup,
    curves_to_csv_rows,
    derive_seed,
    format_csv,
    run_experiment,
    smooth,
)
from oracles import (
    enumerate_counting_mdp,
    luby_sequence_oracle,
    random_gradcheck_case,
    value_iteration_oracle,
)

MASTER_SEED = 0
LUBY_TARGET_60PCT = 0.6 * 32 - 0.4 * 32  # 6.4 on the +-1 reward scale


def episodes_to_reach(bench, agent_kind, max_episodes, target, seed_index):
    """Train seed ``seed_index`` of the protocol with greedy evaluation after
    every episode, through the harness's own training loop, evaluation and
    streams; first episode whose evaluation reward reaches the target, or None."""
    cfg = ExperimentConfig(bench, agent_kind, hp=AgentHyperparams(alpha=1.0),
                           n_episodes=max_episodes, master_seed=MASTER_SEED).validated()
    run = _EvalSetup(cfg, seed_index)
    for episode in range(1, max_episodes + 1):
        run.train(episode)
        if run.evaluate(run.agent, run.env, episode) >= target:
            return episode
    return None


def test_criterion_1_counting_optimum():
    started = time.perf_counter()
    bench = BenchmarkConfig("counting", horizon=5)

    qlearn_hits = [
        episodes_to_reach(bench, "qlearn", 3000, 5.0, k) for k in range(25)
    ]
    qlearn_ok = sum(h is not None for h in qlearn_hits)

    urs_hits = [
        episodes_to_reach(bench, "urs", 30_000, 5.0, k) for k in range(25)
    ]
    urs_ok = sum(h is not None for h in urs_hits)

    # exhaustive oracle over all 5^5 open-loop schedules
    oracle_best = max(
        sum(1.0 for t, a in enumerate(actions) if a == t)
        for actions in itertools.product(range(5), repeat=5)
    )
    assert oracle_best == 5.0
    blackbox_ok = 0
    for k in range(25):
        env = CountingEnv(5)
        rng = BlockStream(derive_seed(MASTER_SEED, RUN_BASE + k), BLACKBOX_STREAM)
        result = blackbox_optimize(env, [()], 3500, rng, stop_at=oracle_best)
        blackbox_ok += result.incumbent.mean_reward >= oracle_best

    elapsed = time.perf_counter() - started
    print(
        f"\n[{'PASS' if qlearn_ok >= 20 else 'FAIL'}] criterion 1a: "
        f"eps-greedy optimum within 3000 episodes in {qlearn_ok}/25 seeds (need 20)"
    )
    print(
        f"[{'PASS' if urs_ok >= 20 else 'FAIL'}] criterion 1b: "
        f"URS optimum within 30000 episodes in {urs_ok}/25 seeds (need 20)"
    )
    print(
        f"[{'PASS' if blackbox_ok >= 20 else 'FAIL'}] criterion 1c: "
        f"blackbox certified optimum within 3500 episodes in {blackbox_ok}/25 seeds (need 20)"
    )
    print(
        f"[{'PASS' if elapsed < 120 else 'FAIL'}] criterion 1d: "
        f"runtime {elapsed:.0f}s < 120s"
    )
    assert qlearn_ok >= 20
    assert urs_ok >= 20
    assert blackbox_ok >= 20
    assert elapsed < 120


def test_criterion_2_luby_optimum():
    started = time.perf_counter()
    bench = BenchmarkConfig("luby", horizon=32)

    qlearn_hits = [
        episodes_to_reach(bench, "qlearn", 1000, 32.0, k) for k in range(25)
    ]
    qlearn_ok = sum(h is not None for h in qlearn_hits)

    blackbox_ok = 0
    for k in range(25):
        env = LubyEnv(32)
        rng = BlockStream(derive_seed(MASTER_SEED, RUN_BASE + k), BLACKBOX_STREAM)
        result = blackbox_optimize(
            env, [()], 100_000, rng, stop_at=LUBY_TARGET_60PCT
        )
        blackbox_ok += result.incumbent.mean_reward >= LUBY_TARGET_60PCT

    elapsed = time.perf_counter() - started
    print(
        f"\n[{'PASS' if qlearn_ok >= 20 else 'FAIL'}] criterion 2a: "
        f"eps-greedy Luby optimum within 1000 episodes in {qlearn_ok}/25 seeds (need 20)"
    )
    print(
        f"[{'PASS' if blackbox_ok >= 15 else 'FAIL'}] criterion 2b: "
        f"blackbox >= 60% correct within 1e5 episodes in {blackbox_ok}/25 seeds (need 15)"
    )
    print(
        f"[{'PASS' if elapsed < 900 else 'FAIL'}] criterion 2c: "
        f"runtime {elapsed:.0f}s < 900s"
    )
    assert qlearn_ok >= 20
    assert blackbox_ok >= 15
    assert elapsed < 900


def test_criterion_3_fuzzy_learning():
    cfg = ExperimentConfig(
        benchmark=BenchmarkConfig("fuzzy", horizon=20),
        agent_kind="qlearn",
        hp=AgentHyperparams(alpha=0.1),
        n_seeds=25,
        n_episodes=5000,
        master_seed=MASTER_SEED,
        workers=2,
    )
    curves = run_experiment(cfg)
    finals = [smooth(c.train_rewards, 10)[-1] for c in curves]
    ok = sum(f >= 18.0 for f in finals)
    print(
        f"\n[{'PASS' if ok >= 20 else 'FAIL'}] criterion 3: "
        f"fuzzy smoothed eval >= 18 at episode 5000 in {ok}/25 seeds "
        f"(min {min(finals):.2f})"
    )
    assert ok >= 20


def test_criterion_4_sigmoid_ceilings():
    horizon = 11
    n_instances = 10**4
    rng = derive_stream(MASTER_SEED, 9001)
    sig = np.empty((n_instances, horizon))
    for i in range(n_instances):
        inst = sample_sigmoid_instance(rng, horizon)
        for t in range(horizon):
            sig[i, t] = sigmoid_reward(t, 1, *inst)

    oracle_mean = float(np.maximum(sig, 1.0 - sig).sum(axis=1).mean())

    action_rng = derive_stream(MASTER_SEED, 9002)
    random_actions = action_rng.integers(2, size=(n_instances, horizon))
    random_mean = float(
        np.where(random_actions == 1, sig, 1.0 - sig).sum(axis=1).mean()
    )

    # expected value of a static schedule is linear in per-step means,
    # so each of the 1e5 schedules is scored exactly on all instances
    mean_if_one = sig.mean(axis=0)
    schedule_rng = derive_stream(MASTER_SEED, 9003)
    schedules = schedule_rng.integers(2, size=(10**5, horizon))
    static_values = schedules @ mean_if_one + (1 - schedules) @ (1.0 - mean_if_one)
    best_static = float(static_values.max())

    print(
        f"\n[{'PASS' if oracle_mean >= 10.5 else 'FAIL'}] criterion 4a: "
        f"oracle adaptive policy mean {oracle_mean:.3f} >= 10.5"
    )
    print(
        f"[{'PASS' if best_static <= 6.05 else 'FAIL'}] criterion 4b: "
        f"best of 1e5 static schedules {best_static:.3f} <= 6.05"
    )
    print(
        f"[{'PASS' if abs(random_mean - 5.5) <= 0.1 else 'FAIL'}] criterion 4c: "
        f"uniform-random policy mean {random_mean:.3f} = 5.5 +- 0.1"
    )
    assert oracle_mean >= 10.5
    assert best_static <= 6.05
    assert abs(random_mean - 5.5) <= 0.1


def test_criterion_5_dqn_generalization():
    started = time.perf_counter()
    base = dict(
        benchmark=BenchmarkConfig("sigmoid", horizon=11),
        n_seeds=25,
        n_episodes=30_000,
        master_seed=MASTER_SEED,
        instance_mode="fixed",
        n_train_instances=100,
        n_test_instances=100,
        test_eval_every=500,
        train_eval_every=500,  # desk-scale thinning of train-set eval
        workers=2,
    )
    dqn_cfg = ExperimentConfig(
        agent_kind="dqn", hp=AgentHyperparams(alpha=0.1), **base
    )
    dqn_curves = run_experiment(dqn_cfg)
    dqn_ok = sum(
        any(r >= 8.5 for _, r in c.test_points) for c in dqn_curves
    )

    tab_cfg = ExperimentConfig(
        agent_kind="qlearn", hp=AgentHyperparams(alpha=0.1), **base
    )
    tab_curves = run_experiment(tab_cfg)
    tab_max = max(max(r for _, r in c.test_points) for c in tab_curves)

    elapsed = time.perf_counter() - started
    print(
        f"\n[{'PASS' if dqn_ok >= 15 else 'FAIL'}] criterion 5a: "
        f"DQN test reward >= 8.5 within 3e4 episodes in {dqn_ok}/25 seeds (need 15)"
    )
    print(
        f"[{'PASS' if tab_max < 7.5 else 'FAIL'}] criterion 5b: "
        f"tabular test reward stays < 7.5 (max {tab_max:.2f})"
    )
    print(
        f"[{'PASS' if elapsed < 3600 else 'FAIL'}] criterion 5c: "
        f"runtime {elapsed:.0f}s < 3600s"
    )
    assert dqn_ok >= 15
    assert tab_max < 7.5
    assert elapsed < 3600


class TestCriterion6PropertySuites:
    def test_6a_luby_brute_force(self):
        from algocontrol.benchmarks import luby_value

        oracle = luby_sequence_oracle(1024)
        assert [luby_value(t) for t in range(1, 1025)] == oracle
        print("\n[PASS] criterion 6a: luby_value == doubling construction, t <= 1024")

    def test_6b_q_learning_equals_value_iteration(self):
        transitions = enumerate_counting_mdp(3)
        q_star, _ = value_iteration_oracle(transitions, 0.99)
        q = {}
        hp = AgentHyperparams(alpha=1.0, gamma=0.99)
        for _ in range(200):
            for (s, a), (r, s_next, done) in transitions.items():
                q_update(q, s, a, r, s_next, done, hp, 3)
        assert all(q[s][a] == value for (s, a), value in q_star.items())
        print("[PASS] criterion 6b: Q-learning sweeps == value iteration (exact)")

    def test_6c_gradients_match_finite_differences(self):
        rng = derive_stream(MASTER_SEED, 9100)
        hp = AgentHyperparams(alpha=1.0)
        step = 1e-5
        worst = 0.0
        for _ in range(100):
            net, target, batch = random_gradcheck_case(rng)
            _loss_into_grad(net, target, batch, hp)
            grad, theta = net.grad.copy(), net.theta
            for i in range(theta.size):
                saved = theta[i]
                theta[i] = saved + step
                up = _loss_into_grad(net, target, batch, hp)
                theta[i] = saved - step
                down = _loss_into_grad(net, target, batch, hp)
                theta[i] = saved
                fd = (up - down) / (2 * step)
                worst = max(worst, abs(fd - grad[i]) / max(abs(fd), abs(grad[i]), 1e-8))
        assert worst <= 1e-4
        print(f"[PASS] criterion 6c: DQN gradients vs FD, worst rel err {worst:.2e}")

    def test_6d_sigmoid_complementarity(self):
        rng = derive_stream(MASTER_SEED, 9200)
        worst = 0.0
        for _ in range(10**4):
            t = int(rng.integers(-10, 21))
            s = float(rng.uniform(-100, 100))
            p = float(rng.normal(5.5, 2.75))
            worst = max(
                worst,
                abs(sigmoid_reward(t, 0, s, p) + sigmoid_reward(t, 1, s, p) - 1.0),
            )
        assert worst <= 1e-12
        print(f"[PASS] criterion 6d: reward complementarity, worst dev {worst:.2e}")

    def test_6e_blackbox_monotonicity(self):
        for bench, budget, max_runs in ((BenchmarkConfig("luby", horizon=16), 2000, 1),
                                        (BenchmarkConfig("fuzzy", horizon=10), 500, 10)):
            env = make_env(bench)
            result = blackbox_optimize(
                env, [()], budget, BlockStream(MASTER_SEED, 9300), max_runs=max_runs
            )
            curve = result.best_so_far
            assert all(a <= b + 1e-12 for a, b in zip(curve, curve[1:]))
        print("[PASS] criterion 6e: blackbox best-so-far curves are monotone")

    def test_6f_csv_byte_identical(self):
        cfg = ExperimentConfig(
            benchmark=BenchmarkConfig("counting", horizon=5),
            agent_kind="qlearn",
            hp=AgentHyperparams(alpha=1.0),
            n_seeds=3,
            n_episodes=40,
            master_seed=MASTER_SEED,
        )
        first = format_csv(curves_to_csv_rows(cfg, run_experiment(cfg)))
        second = format_csv(curves_to_csv_rows(cfg, run_experiment(cfg)))
        assert first == second
        print("[PASS] criterion 6f: repeated runs give byte-identical CSV")
