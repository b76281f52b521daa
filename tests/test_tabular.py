"""Tabular learners: selection rules, updates, and the VI oracle."""

import copy
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from algocontrol.agents import (
    AgentHyperparams,
    DQNAgent,
    TabularAgent,
    load_snapshot,
    q_update,
    save_agent,
    state_key,
)
from algocontrol.benchmarks import CountingEnv, FuzzyEnv, LubyEnv
from algocontrol.cli import main
from algocontrol.core import BlockStream, ContractError, Observation, SeedSpec, derive_stream
from algocontrol.agents.tabular import greedy
from algocontrol.harness import run_training_episode
from oracles import enumerate_counting_mdp, step_training_episode, value_iteration_oracle

# chi-squared critical values at alpha = 0.01
CHI2_99 = {1: 6.635, 4: 13.277, 5: 15.086}


def chi2_uniform(counts):
    counts = np.asarray(counts, dtype=float)
    expected = counts.sum() / len(counts)
    return float(((counts - expected) ** 2 / expected).sum())


# An observation and its table key, for selection-rule tests.
OBS = Observation(time_step=0, action_history=(5,) * 5)
S = state_key(OBS)


def row_of(q, s, action_count):
    """The values of ``s`` in the Q rows ``q``; a state with no row reads as zeros."""
    return q.get(s, [0.0] * action_count)


def put(q, s, a, value, action_count):
    """Set one value of ``s``, creating its row of zeros if it has none."""
    q.setdefault(s, [0.0] * action_count)[a] = value


def draws(agent, rng, n):
    """``n`` training-time action choices of ``agent`` at OBS."""
    s = state_key(OBS)
    return [agent.select_action(s, rng) for _ in range(n)]


class TestUrsSelect:
    def test_single_action(self):
        rng = derive_stream(0, 0)
        assert draws(TabularAgent("urs", 1), rng, 20) == [0] * 20

    def test_uniform_frequencies(self):
        rng = derive_stream(1, 0)
        counts = np.bincount(draws(TabularAgent("urs", 5), rng, 10**5), minlength=5)
        assert np.all(np.abs(counts / 10**5 - 0.2) <= 0.01)

    def test_zero_actions_rejected(self):
        with pytest.raises(ContractError):
            TabularAgent("urs", 0)


class ReferenceTable:
    """Q-table keyed by (state, action): the layout rows replaced."""

    def __init__(self, action_count):
        self.action_count = action_count
        self.values = {}

    def get(self, s, a):
        return self.values.get((s, a), 0.0)

    def set(self, s, a, value):
        self.values[(s, a)] = value

    def row(self, s):
        return [self.values.get((s, a), 0.0) for a in range(self.action_count)]

    def argmax(self, s):
        row = self.row(s)
        best, best_a = row[0], 0
        for a in range(1, self.action_count):
            if row[a] > best:
                best, best_a = row[a], a
        return best_a

    def argmax_with_random_ties(self, rng, s):
        row = self.row(s)
        best = max(row)
        tied = [a for a in range(self.action_count) if row[a] == best]
        if len(tied) == 1:
            return tied[0]
        return tied[int(rng.integers(len(tied)))]

    def q_update(self, s, a, reward, s_next, done, hp):
        """The update as three table calls: max of the next row, get, set."""
        bootstrap = 0.0 if done else max(self.row(s_next))
        self.set(s, a, (1.0 - hp.alpha) * self.get(s, a)
                 + hp.alpha * (reward + hp.gamma * bootstrap))


_STATES = ["s0", "s1", (0, (), (1, 2))]
_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
    st.floats(-1e3, 1e3, allow_nan=False),
)
_OPS = st.one_of(
    st.tuples(st.just("set"), st.sampled_from(_STATES), st.integers(0, 5), _VALUES),
    st.tuples(st.sampled_from(["get", "row", "max", "argmax", "ties"]),
              st.sampled_from(_STATES), st.integers(0, 5)),
    st.tuples(st.just("copy")),
    st.tuples(st.just("update"), st.sampled_from(_STATES), st.integers(0, 5), _VALUES,
              st.sampled_from(_STATES), st.booleans(),
              st.sampled_from([1.0, 0.1]) | st.floats(1e-3, 1.0),
              st.sampled_from([0.99, 0.0, 1.0]) | st.floats(0.0, 1.0)),
)


class TestQTableMatchesPairTable:
    @given(action_count=st.integers(1, 6), ops=st.lists(_OPS, max_size=60),
           seed=st.integers(0, 2**32 - 1))
    @example(action_count=1, ops=[("ties", "s0", 0)] * 3, seed=11)  # rowless: no draw
    @example(action_count=6, ops=[("ties", "s0", 0)] * 3, seed=11)  # rowless: one draw of 6
    @settings(max_examples=200, deadline=None)
    def test_random_sequences(self, action_count, ops, seed):
        q, ref = {}, ReferenceTable(action_count)
        rng, ref_rng = derive_stream(seed, 0), derive_stream(seed, 0)
        # Training's stream: the same draws, served from blocks of raw words.
        block, block_ref = BlockStream(seed, 0), derive_stream(seed, 0)
        frozen = []  # (table, reference) pairs left behind by copy
        for op in ops:
            if op[0] == "copy":
                frozen.append((q, copy.deepcopy(ref)))
                q, ref = copy.deepcopy(q), copy.deepcopy(ref)
                continue
            name, s, a = op[0], op[1], op[2] % action_count
            if name == "set":
                put(q, s, a, op[3], action_count)
                ref.set(s, a, op[3])
            elif name == "update":
                reward, s_next, done, alpha, gamma = op[3:]
                hp = AgentHyperparams(alpha=alpha, gamma=gamma)
                assert q_update(q, [s] if done else [s, s_next], [a], [reward], hp,
                                action_count) is q
                ref.q_update(s, a, reward, s_next, done, hp)
                assert [repr(v) for v in q[s]] == [repr(v) for v in ref.row(s)]
            elif name == "get":
                assert repr(row_of(q, s, action_count)[a]) == repr(ref.get(s, a))
            elif name == "row":
                assert [repr(v) for v in row_of(q, s, action_count)] == [
                    repr(v) for v in ref.row(s)
                ]
            elif name == "max":
                assert repr(max(row_of(q, s, action_count))) == repr(max(ref.row(s)))
            elif name == "argmax":
                assert greedy(q, s) == ref.argmax(s)
            else:  # a gr agent's selection: epsilon 0 draws nothing before the tie-break
                agent = TabularAgent("gr", action_count)
                agent.q = q
                before = rng.bit_generator.state
                picked = agent.select_action(s, rng)
                assert picked == ref.argmax_with_random_ties(ref_rng, s)
                assert rng.bit_generator.state == ref_rng.bit_generator.state
                if ref.row(s).count(max(ref.row(s))) == 1:  # a unique maximum draws nothing
                    assert rng.bit_generator.state == before
                picked = agent.select_action(s, block)
                assert picked == ref.argmax_with_random_ties(block_ref, s)
                assert block.random() == block_ref.random()
        frozen.append((q, ref))
        for table, reference in frozen:  # copies share no row with later tables
            assert all(len(row) == action_count for row in table.values())
            for s in _STATES:
                row = row_of(table, s, action_count)
                assert [repr(row[a]) for a in range(action_count)] == [
                    repr(v) for v in reference.row(s)
                ]
                assert [repr(v) for v in row] == [repr(v) for v in reference.row(s)]


class TestGrSelect:
    def test_argmax(self):
        assert greedy({"s": [0.5, 0.9]}, "s") == 1

    def test_all_zero_tie_break(self):
        assert greedy({}, "s") == 0
        assert greedy({"s": [0.0] * 4}, "s") == 0

    def test_scale_invariance(self):
        row = [0.2, 0.7, 0.4]
        base = greedy({"s": row}, "s")
        scaled = greedy({"s": [10 * v for v in row]}, "s")
        assert base == scaled == 1


_ROW_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]) | st.floats(-10, 10, allow_nan=False)
_ROW_OPS = st.one_of(
    st.tuples(st.just("update"), st.sampled_from(_STATES), st.integers(0, 5), _ROW_VALUES,
              st.sampled_from(_STATES), st.booleans(), st.sampled_from([1.0, 0.5]),
              st.sampled_from([0.99, 0.0])),
    st.tuples(st.just("in place"), st.sampled_from(_STATES), st.integers(0, 5), _ROW_VALUES),
    st.tuples(st.sampled_from(["replace", "create"]), st.sampled_from(_STATES),
              st.lists(_ROW_VALUES, min_size=6, max_size=6)),
    st.tuples(st.sampled_from(["flip zeros", "delete"]), st.sampled_from(_STATES)),
    st.tuples(st.just("copy table")),
)


class CountingRow(list):
    """A Q row that counts the walks of it by its ``index`` calls: a walk takes
    ``max`` of the row, then looks it up."""

    walks = 0

    def index(self, value, *args):
        CountingRow.walks += 1
        return super().index(value, *args)


class TestGreedyPathHolds:
    """``greedy_path_holds`` compares a held path's rows with their values as last
    seen; it must answer as a full walk of ``greedy`` over the path does."""

    @staticmethod
    def _apply(agent, op, action_count):
        q, name = agent.q, op[0]
        if name == "update":
            s, a, reward, s_next, done, alpha, gamma = op[1:]
            q_update(q, [s] if done else [s, s_next], [a % action_count], [reward],
                     AgentHyperparams(alpha=alpha, gamma=gamma), action_count)
        elif name == "in place":
            if op[1] in q:
                q[op[1]][op[2] % action_count] = op[3]
        elif name == "replace" or (name == "create" and op[1] not in q):
            q[op[1]] = op[2][:action_count]
        elif name == "flip zeros":  # 0.0 <-> -0.0: equal values, other objects
            row = q.get(op[1], [])
            row[:] = [-v if v == 0.0 else v for v in row]
        elif name == "delete":
            q.pop(op[1], None)
        elif name == "copy table":
            agent.q = copy.deepcopy(q)

    @given(action_count=st.integers(1, 6),
           rows=st.dictionaries(st.sampled_from(_STATES),
                                st.lists(_ROW_VALUES, min_size=6, max_size=6)),
           keys=st.lists(st.sampled_from(_STATES), min_size=1, max_size=8),
           sequences=st.lists(st.lists(_ROW_OPS, max_size=6), max_size=8))
    @example(action_count=2, rows={"s0": [0.0, -0.0]}, keys=["s0"],
             sequences=[[("flip zeros", "s0")], [("in place", "s0", 1, 0.0)]])
    @example(action_count=2, rows={"s0": [0.0, 1.0]}, keys=["s0", "s1"],
             sequences=[[("delete", "s0")], [("create", "s1", [0.0, 2.0, 0, 0, 0, 0])]])
    @settings(max_examples=300, deadline=None)
    def test_equals_a_full_walk(self, action_count, rows, keys, sequences):
        agent = TabularAgent("qlearn", action_count)
        agent.q = {s: row[:action_count] for s, row in rows.items()}

        def hold():  # a rollout's record: the greedy actions and the rows they came from
            return [greedy(agent.q, s) for s in keys], agent.rows_seen(keys)

        actions, seen = hold()
        for ops in sequences:
            for op in ops:
                self._apply(agent, op, action_count)
            walked = all(greedy(agent.q, s) == a for s, a in zip(keys, actions))
            assert agent.greedy_path_holds(keys, actions, seen) == walked
            assert agent.greedy_path_holds(keys, actions, seen) == walked
            if walked:  # the copies are refreshed, and share no row with the table
                assert seen == [agent.q.get(s) for s in keys]
                assert not any(row is agent.q.get(s) for s, row in zip(keys, seen)
                               if row is not None)
            else:  # the harness rolls out again and holds the new path
                actions, seen = hold()

    def test_unchanged_rows_are_not_walked(self):
        agent = TabularAgent("qlearn", 3)
        keys = ["s0", "s1", "s0", "s2"]
        agent.q = {"s0": CountingRow([0.0, 2.0, 1.0]), "s1": CountingRow([-0.0, 0.0, 0.0])}
        actions, seen = [1, 0, 1, 0], agent.rows_seen(keys)
        CountingRow.walks = 0
        assert agent.greedy_path_holds(keys, actions, seen) and CountingRow.walks == 0
        agent.q["s0"][2] = 1.5  # the argmax holds: that row alone is walked, once
        assert agent.greedy_path_holds(keys, actions, seen) and CountingRow.walks == 2
        assert agent.greedy_path_holds(keys, actions, seen) and CountingRow.walks == 2
        agent.q["s1"][0] = 0.0  # -0.0 -> 0.0: an equal value, nothing to walk
        assert agent.greedy_path_holds(keys, actions, seen) and CountingRow.walks == 2
        agent.q["s1"][2] = 0.5  # the argmax moves
        assert not agent.greedy_path_holds(keys, actions, seen)


class TestPursSelect:
    def _agent(self, remaining, visits=None):
        """A PURS agent whose ledger holds one state, "s"."""
        agent = TabularAgent("purs", len(remaining))
        agent.visits["s"] = [1] * len(remaining) if visits is None else list(visits)
        agent.remaining["s"] = list(remaining)
        return agent

    def test_unvisited_action_takes_priority(self):
        agent = self._agent([10.0, 0.0], visits=[1, 0])
        rng = derive_stream(3, 0)
        assert all(agent.select_action("s", rng) == 1 for _ in range(50))

    def test_proportional_to_remaining_steps(self):
        agent = self._agent([10.0, 30.0])
        rng = derive_stream(4, 0)
        draws = np.bincount(
            [agent.select_action("s", rng) for _ in range(10**5)], minlength=2
        )
        assert abs(draws[0] / 10**5 - 0.25) <= 0.01
        assert abs(draws[1] / 10**5 - 0.75) <= 0.01

    def test_uniform_when_estimates_equal(self):
        agent = self._agent([7.0, 7.0, 7.0, 7.0, 7.0])
        rng = derive_stream(5, 0)
        counts = np.bincount(
            [agent.select_action("s", rng) for _ in range(10**5)], minlength=5
        )
        assert chi2_uniform(counts) < CHI2_99[4]

    def test_all_zero_falls_back_to_uniform(self):
        agent = self._agent([0.0, 0.0])
        rng = derive_stream(6, 0)
        counts = np.bincount(
            [agent.select_action("s", rng) for _ in range(10**4)], minlength=2
        )
        assert chi2_uniform(counts) < CHI2_99[1]

    def test_unseen_state_is_uniform(self):
        agent = TabularAgent("purs", 5)
        rng = derive_stream(7, 0)
        counts = np.bincount(
            [agent.select_action("unseen", rng) for _ in range(10**5)], minlength=5
        )
        assert chi2_uniform(counts) < CHI2_99[4]


class TestEpsGreedySelect:
    def test_epsilon_zero_matches_gr(self):
        rng = derive_stream(7, 0)
        value_rng = derive_stream(7, 1)
        for _ in range(100):
            agent = TabularAgent("gr", 4)
            agent.q[S] = [float(value_rng.normal()) for _ in range(4)]
            assert agent.select_action(state_key(OBS), rng) == greedy(agent.q, S)

    def test_epsilon_one_uniform_chi_squared(self):
        agent = TabularAgent("urs", 5)
        put(agent.q, S, 2, 10.0, 5)  # a clear argmax that must be ignored
        rng = derive_stream(8, 0)
        counts = np.bincount(draws(agent, rng, 10**5), minlength=5)
        assert chi2_uniform(counts) < CHI2_99[4]

    def test_argmax_frequency(self):
        agent = TabularAgent("qlearn", 5, hp=AgentHyperparams(epsilon=0.1))
        put(agent.q, S, 3, 1.0, 5)
        rng = derive_stream(9, 0)
        frequency = sum(a == 3 for a in draws(agent, rng, 10**5)) / 10**5
        assert abs(frequency - (0.9 + 0.1 / 5)) <= 0.01

    def test_invalid_epsilon(self):
        with pytest.raises(ContractError):
            AgentHyperparams(epsilon=1.5)


class TestQUpdate:
    def test_terminal_bootstrap(self):
        q = {}
        hp = AgentHyperparams(alpha=1.0)
        q_update(q, ["s"], [0], [1.0], hp, 2)
        assert q == {"s": [1.0, 0.0]}

    def test_direct_formula(self):
        q = {"s2": [0.0, 1.0]}
        hp = AgentHyperparams(alpha=1.0, gamma=0.99)
        q_update(q, ["s", "s2"], [0], [1.0], hp, 2)
        assert q["s"][0] == pytest.approx(1.99, abs=0)

    @pytest.mark.parametrize("reward, bootstrap", [
        (float("inf"), 0.0), (float("nan"), 0.0), (1e308, 1e308), (-1e308, -1e308),
    ], ids=["inf-reward", "nan-reward", "overflow", "negative-overflow"])
    def test_non_finite_value_is_refused_before_it_is_written(self, reward, bootstrap):
        q = {"s": [0.5, 0.25], "s2": [bootstrap, bootstrap]}
        hp = AgentHyperparams(alpha=1.0, gamma=0.99)
        with pytest.raises(ContractError, match=r"Q-value -?(inf|nan) of state 's', action 1 "
                                                r"is not finite"):
            q_update(q, ["s", "s2"], [1], [reward], hp, 2)
        assert q["s"] == [0.5, 0.25]

    def test_two_step_chain_converges_to_value_iteration(self):
        # chain: s0 -a-> s1 -a-> terminal; rewards 1 then 2 for action 0,
        # 0 then 0.5 for action 1
        rewards = {("s0", 0): 1.0, ("s0", 1): 0.0, ("s1", 0): 2.0, ("s1", 1): 0.5}
        gamma = 0.99
        # value-iteration oracle
        v1 = max(rewards[("s1", a)] for a in (0, 1))
        expected = {
            ("s1", a): rewards[("s1", a)] for a in (0, 1)
        } | {("s0", a): rewards[("s0", a)] + gamma * v1 for a in (0, 1)}
        q = {}
        hp = AgentHyperparams(alpha=1.0, gamma=gamma)
        for _ in range(200):
            for s, nxt, done in (("s0", "s1", False), ("s1", "t", True)):
                for a in (0, 1):
                    q_update(q, [s] if done else [s, nxt], [a], [rewards[(s, a)]], hp, 2)
        for (s, a), value in expected.items():
            assert q[s][a] == value


@st.composite
def segments(draw):
    """(action_count, pre-filled rows, states, actions, rewards) of 1 to 8
    transitions over three states, so states repeat and follow themselves; as
    many states as actions (the last transition ends the episode) or one more
    (the segment is cut off)."""
    action_count = draw(st.integers(1, 4))
    n = draw(st.integers(1, 8))
    rows = draw(st.dictionaries(st.sampled_from(_STATES),
                                st.lists(_VALUES, min_size=action_count,
                                         max_size=action_count)))
    states = draw(st.lists(st.sampled_from(_STATES), min_size=n, max_size=n + 1))
    actions = draw(st.lists(st.integers(0, action_count - 1), min_size=n, max_size=n))
    rewards = draw(st.lists(_VALUES, min_size=n, max_size=n))
    return action_count, rows, states, actions, rewards


class TestSegmentUpdate:
    """``q_update`` along a segment equals the one-step update applied to its
    transitions in order, and a refusal leaves the table as its docstring says."""

    @given(segment=segments(),
           alpha=st.sampled_from([0.0, 1.0, 0.5]) | st.floats(0.0, 1.0),
           gamma=st.sampled_from([0.0, 1.0, 0.99]) | st.floats(0.0, 1.0))
    @example(segment=(2, {}, ["s0", "s0", "s0"], [1, 0], [1.0, 2.0]), alpha=1.0, gamma=1.0)
    @example(segment=(2, {"s0": [-0.0, -0.0]}, ["s1", "s0", "s1"], [0, 1, 1],
                      [-0.0, -0.0, 0.5]), alpha=0.0, gamma=0.99)
    @example(segment=(1, {"s1": [3.0]}, ["s0", "s1", "s0", "s1"], [0, 0, 0], [1.0, -0.0, 0.0]),
             alpha=0.5, gamma=0.0)
    @settings(max_examples=300, deadline=None)
    def test_equals_one_step_updates_in_order(self, segment, alpha, gamma):
        action_count, rows, states, actions, rewards = segment
        hp = AgentHyperparams(gamma=gamma)
        hp.alpha = alpha  # 0 is outside the configured range; the update takes it as it is
        q, ref = {s: list(row) for s, row in rows.items()}, ReferenceTable(action_count)
        for s, row in rows.items():
            for a, value in enumerate(row):
                ref.set(s, a, value)
        assert q_update(q, states, actions, rewards, hp, action_count) is q
        for i, (s, a, reward) in enumerate(zip(states, actions, rewards)):
            done = i + 1 == len(states)
            ref.q_update(s, a, reward, None if done else states[i + 1], done, hp)
        assert list(q) == list(dict.fromkeys(s for s, _ in ref.values))  # rows made in order
        for s, row in q.items():
            assert [repr(v) for v in row] == [repr(v) for v in ref.row(s)]

    @pytest.mark.parametrize("cut_off", [False, True], ids=["terminal", "cut-off"])
    def test_a_non_finite_value_mid_segment_stops_the_segment_there(self, cut_off):
        q = {"s1": [0.5, 0.25], "s2": [1e308, 1e308]}
        hp = AgentHyperparams(alpha=1.0, gamma=0.99)
        states = ["s0", "s1", "s2", "s3"] + ["s4"] * cut_off
        with pytest.raises(ContractError, match=r"Q-value inf of state 's1', action 1 "
                                                r"is not finite"):
            q_update(q, states, [0, 1, 0, 1], [1.0, 1e308, 0.0, 0.0], hp, 2)
        assert list(q) == ["s1", "s2", "s0"]  # the earlier row is written, no later one made
        assert q == {"s0": [0.0 * 0.0 + 1.0 * (1.0 + 0.99 * 0.5), 0.0],
                     "s1": [0.5, 0.25], "s2": [1e308, 1e308]}

    @pytest.mark.parametrize("n_states, n_actions, n_rewards", [
        (0, 0, 0), (1, 0, 0), (2, 1, 0), (2, 1, 2), (0, 1, 1), (1, 2, 2), (4, 2, 2),
    ], ids=["empty", "no-action", "a-reward-short", "a-reward-over", "no-state",
            "a-state-short", "a-state-over"])
    def test_a_malformed_segment_is_refused_before_any_write(self, n_states, n_actions,
                                                             n_rewards):
        q = {"s1": [0.5, -0.0]}
        with pytest.raises(ContractError, match=f"a segment is 1 or more actions, a reward "
                                                f"each, and as many states or one more; got "
                                                f"{n_states} states, {n_actions} actions, "
                                                f"{n_rewards} rewards"):
            q_update(q, [f"s{i}" for i in range(n_states)], [1] * n_actions,
                     [1.0] * n_rewards, AgentHyperparams(alpha=1.0), 2)
        assert list(q) == ["s1"] and [repr(v) for v in q["s1"]] == ["0.5", "-0.0"]


class TestUpdateCallGranularity:
    """The per-layer counts that perfbench reads by name: a training episode
    makes one ``q_update`` call, which holds every update of the episode, and
    one ``select_action`` call per step."""

    def test_one_update_call_per_episode_one_selection_per_step(self, monkeypatch):
        from algocontrol.agents import tabular

        env = LubyEnv(32)
        agent, reference = (TabularAgent("qlearn", env.action_count,
                                         hp=AgentHyperparams(alpha=1.0)) for _ in range(2))
        rngs = [derive_stream(18, 0), derive_stream(18, 0)]
        for episode in range(2):
            step_training_episode(reference, env, (), SeedSpec(18, episode), rngs[0], rngs[0])
        run_training_episode(agent, env, (), SeedSpec(18, 0), rngs[1], rngs[1])
        first = copy.deepcopy(agent.q)
        real_update, real_select = tabular.q_update, TabularAgent.select_action
        updates, selections = [], []

        def update(q, states, actions, rewards, hp, action_count):
            before = copy.deepcopy(q)
            real_update(q, states, actions, rewards, hp, action_count)
            updates.append((before, len(actions), copy.deepcopy(q)))
            return q

        def select(self, s, rng):
            selections.append(s)
            return real_select(self, s, rng)

        monkeypatch.setattr(tabular, "q_update", update)
        monkeypatch.setattr(TabularAgent, "select_action", select)
        run_training_episode(agent, env, (), SeedSpec(18, 1), rngs[1], rngs[1])
        assert len(selections) == env.horizon == 32
        assert [n for _, n, _ in updates] == [32]  # one call, every step of the episode
        before, _, after = updates[0]
        assert before == first and after == agent.q == reference.q  # nothing outside it


class TestHyperparamRanges:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("dqn_lr", 0.0),
            ("dqn_lr", -1.0),
            ("dqn_lr", float("nan")),
            ("target_sync_every", 0),
            ("buffer_capacity", 0),
            ("batch_size", -3),
            ("eps_decay_fraction", 0.0),
            ("eps_decay_fraction", 1.01),
        ],
    )
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ContractError, match=field):
            AgentHyperparams(**{field: value})

    def test_range_edges_accepted(self):
        hp = AgentHyperparams(
            dqn_lr=1e-12, target_sync_every=1, buffer_capacity=1, batch_size=0,
            eps_decay_fraction=1.0,
        )
        assert hp.eps_decay_fraction == 1.0


def _purs_episodes(agent, episodes):
    """Feed each episode's (state, action) steps to a PURS agent."""
    rng = derive_stream(0, 0)
    for steps in episodes:
        agent.observe([s for s, _ in steps], [a for _, a in steps], [0.0] * len(steps))
        agent.end_episode(rng)


class TestRecordTransition:
    def test_first_visit(self):
        agent = TabularAgent("purs", 2)
        _purs_episodes(agent, [[("s", 0)] + [("x", 1)] * 4])
        assert agent.visits["s"] == [1, 0]
        assert agent.remaining["s"] == [4.0, 0.0]
        assert agent.visits["x"] == [0, 4]

    def test_running_mean(self):
        agent = TabularAgent("purs", 2)
        _purs_episodes(agent, [[("s", 0)] + [("x", 1)] * 3, [("s", 0), ("x", 1)]])
        assert agent.visits["s"][0] == 2
        assert agent.remaining["s"][0] == 2.0

    def test_mean_matches_batch_mean(self):
        # every step of an episode of length n visits ("s", 0), recording
        # n-1, n-2, ..., 0 remaining steps
        rng = derive_stream(11, 0)
        lengths = [int(n) for n in rng.integers(1, 200, size=200)]
        agent = TabularAgent("purs", 1)
        _purs_episodes(agent, [[("s", 0)] * n for n in lengths])
        steps = np.concatenate([np.arange(n)[::-1] for n in lengths])
        assert agent.visits["s"] == [len(steps)]
        assert abs(agent.remaining["s"][0] - float(steps.mean())) <= 1e-9


class TestValueIterationFixedPoint:
    def test_sweeps_reach_oracle_exactly(self):
        transitions = enumerate_counting_mdp(3)
        gamma = 0.99
        q_star, _ = value_iteration_oracle(transitions, gamma)
        q = {}
        hp = AgentHyperparams(alpha=1.0, gamma=gamma)
        for _ in range(200):
            for (s, a), (r, s_next, done) in transitions.items():
                q_update(q, [s] if done else [s, s_next], [a], [r], hp, 3)
        for (s, a), expected in q_star.items():
            assert q[s][a] == expected

    def test_greedy_policy_is_oracle_optimal(self):
        transitions = enumerate_counting_mdp(3)
        q = {}
        hp = AgentHyperparams(alpha=1.0, gamma=0.99)
        for _ in range(200):
            for (s, a), (r, s_next, done) in transitions.items():
                q_update(q, [s] if done else [s, s_next], [a], [r], hp, 3)
        env = CountingEnv(3)
        obs = env.reset((), SeedSpec(0, 0))
        total, done = 0.0, False
        while not done:
            obs, reward, done = env.step(greedy(q, state_key(obs)))
            total += reward
        assert total == 3.0


class TestTabularAgent:
    def _train(self, kind, episodes=50, horizon=3):
        env = CountingEnv(horizon)
        agent = TabularAgent(kind, horizon, hp=AgentHyperparams(alpha=1.0))
        rng = derive_stream(12, 0)
        for episode in range(episodes):
            run_training_episode(
                agent, env, (), SeedSpec(12, episode), rng, rng
            )
        return agent

    def test_urs_is_epsilon_one(self):
        assert TabularAgent("urs", 4).epsilon == 1.0

    def test_gr_is_epsilon_zero(self):
        assert TabularAgent("gr", 4).epsilon == 0.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ContractError):
            TabularAgent("sarsa", 4)

    def test_snapshot_immune_to_training(self):
        agent = self._train("qlearn", episodes=30)
        frozen = copy.deepcopy(agent.q)
        probe_states = list(agent.q)
        assert probe_states
        before = {s: greedy(frozen, s) for s in probe_states}
        before_rows = {s: list(frozen[s]) for s in probe_states}
        env = CountingEnv(3)
        rng = derive_stream(13, 0)
        for episode in range(100):
            run_training_episode(
                agent, env, (), SeedSpec(13, episode), rng, rng
            )
        assert agent.q != before_rows  # training went on
        assert {s: greedy(frozen, s) for s in probe_states} == before
        assert {s: list(frozen[s]) for s in frozen} == before_rows

    def test_context_free_key_is_the_plain_tuple(self):
        obs = Observation(4, (), (1, 2, 3, 0, 2))
        assert state_key(obs) == (4, (), (1, 2, 3, 0, 2))
        assert hash(state_key(obs)) == hash((4, (), (1, 2, 3, 0, 2)))

    def test_observation_keys_snapshot_like_plain_tuples(self, tmp_path):
        """Rows keyed by observations (a table built through ``step``) save to the
        bytes of the same rows keyed by plain tuples, and load back equal; the
        plain-tuple keys ``run_training_episode`` writes build that same table."""
        env = LubyEnv(32)
        agent, trained = (TabularAgent("qlearn", env.action_count, hp=AgentHyperparams(alpha=1.0))
                          for _ in range(2))
        rngs = [derive_stream(15, 0), derive_stream(15, 0)]
        for episode in range(20):
            step_training_episode(agent, env, (), SeedSpec(15, episode), rngs[0], rngs[0])
            run_training_episode(trained, env, (), SeedSpec(15, episode), rngs[1], rngs[1])
        assert all(type(s) is Observation for s in agent.q)
        assert all(type(s) is tuple for s in trained.q) and trained.q == agent.q
        plain = TabularAgent("qlearn", env.action_count)
        plain.q = {tuple(s): row for s, row in agent.q.items()}
        save_agent(agent, str(tmp_path / "obs.snap"))
        save_agent(plain, str(tmp_path / "tuple.snap"))
        save_agent(trained, str(tmp_path / "trained.snap"))
        assert (tmp_path / "obs.snap").read_bytes() == (tmp_path / "tuple.snap").read_bytes()
        assert (tmp_path / "trained.snap").read_bytes() == (tmp_path / "tuple.snap").read_bytes()
        assert load_snapshot(str(tmp_path / "obs.snap")).q == agent.q

    @pytest.mark.parametrize("n_states, n_actions, n_rewards", [
        (0, 0, 0), (3, 3, 2), (2, 2, 3), (2, 3, 3), (4, 3, 3), (0, 3, 3),
    ], ids=["empty", "a-reward-short", "a-reward-over", "a-state-short", "a-state-over",
            "no-state"])
    def test_a_malformed_episode_is_refused(self, n_states, n_actions, n_rewards):
        agent = TabularAgent("purs", 3)
        with pytest.raises(ContractError,
                           match="an episode is 1 or more states, an action and a reward each"):
            agent.observe([(t, (), ()) for t in range(n_states)], [0] * n_actions,
                          [1.0] * n_rewards)
        assert agent.q == {}
        agent.end_episode(derive_stream(17, 0))
        assert agent.visits == {}

    def test_untrained_policy_plays_action_zero(self):
        assert TabularAgent("qlearn", 5).greedy_action(OBS) == 0

    def test_purs_uniform_on_fixed_length_benchmark(self):
        # once every action is visited, equal remaining-step estimates
        # must yield uniform selection
        env = CountingEnv(3)
        agent = TabularAgent("purs", 3)
        rng = derive_stream(14, 0)
        for episode in range(200):
            run_training_episode(
                agent, env, (), SeedSpec(14, episode), rng, rng
            )
        start = state_key(env.reset((), SeedSpec(14, 999)))
        counts = np.bincount(
            [agent.select_action(start, rng) for _ in range(30000)],
            minlength=3,
        )
        expected = 10000.0
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 9.210  # chi-squared 0.99 quantile, df=2

    def test_purs_remaining_steps_on_fuzzy(self):
        # terminating action records zero remaining steps
        env = FuzzyEnv(10)
        agent = TabularAgent("purs", 2)
        rng = derive_stream(15, 0)
        for episode in range(100):
            run_training_episode(
                agent, env, (), SeedSpec(15, episode), rng, rng
            )
        start = state_key(env.reset((), SeedSpec(15, 999)))
        assert min(agent.visits[start]) > 0
        assert agent.remaining[start][0] == 0.0
        assert agent.remaining[start][1] > 0.0


class TestSnapshotRoundTrip:
    def test_tabular_roundtrip(self, tmp_path):
        env = CountingEnv(3)
        agent = TabularAgent("qlearn", 3, hp=AgentHyperparams(alpha=1.0))
        rng = derive_stream(16, 0)
        for episode in range(40):
            run_training_episode(
                agent, env, (), SeedSpec(16, episode), rng, rng
            )
        path = tmp_path / "agent.snap"
        save_agent(agent, str(path))
        loaded = load_snapshot(str(path))
        assert isinstance(loaded, TabularAgent) and loaded.kind == "qlearn"
        assert loaded.q == agent.q
        assert len(agent.q) > 0
        records = path.read_text().split("records ")[1].splitlines()
        assert int(records[0]) == len(agent.q) * 3 == len(records) - 1

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    def test_non_finite_value_is_refused_before_any_file(self, tmp_path, value):
        agent = TabularAgent("qlearn", 3)
        agent.q[(0, (), ())] = [0.5, value, 0.0]
        agent.q[(1, (), ())] = [1.0, 2.0, 3.0]
        path = tmp_path / "agent.snap"
        with pytest.raises(ContractError, match=rf"record 0\|\|\|1 is {value!r}, not finite"):
            save_agent(agent, str(path))
        assert not path.exists()

    def test_header_holds_no_episode_count(self, tmp_path):
        """No loader reads a training-episode count, so no snapshot holds one."""
        dqn = DQNAgent(action_count=2, horizon=11, context_dim=2, total_episodes=10,
                       rng=derive_stream(17, 0))
        dqn.episodes_trained = 7
        for agent in (TabularAgent("qlearn", 3), dqn):
            path = tmp_path / f"{agent.kind}.snap"
            save_agent(agent, str(path))
            keys = [line.split()[0] for line in path.read_text().splitlines()
                    if not line.startswith(("algocontrol-snapshot", "records "))
                    and "\t" not in line]
            assert "action_count" in keys and "episodes_trained" not in keys

    # A v1 file that stores only some actions of a state, as files
    # written before state rows did. Its episodes_trained line is skipped.
    PAIR_SNAPSHOT = (
        "algocontrol-snapshot v1\n"
        "agent qlearn\n"
        "action_count 3\n"
        "episodes_trained 7\n"
        "records 2\n"
        "0||3,3|1\t0.5\n"
        "1||3,1|2\t-2.0\n"
    )

    def test_loads_pair_records(self, tmp_path):
        path = tmp_path / "old.snap"
        path.write_text(self.PAIR_SNAPSHOT)
        q = load_snapshot(str(path)).q
        assert q == {(0, (), (3, 3)): [0.0, 0.5, 0.0], (1, (), (3, 1)): [0.0, 0.0, -2.0]}
        assert greedy(q, (1, (), (3, 1))) == 0

    def _rejects(self, tmp_path, text, match):
        path = tmp_path / "bad.snap"
        path.write_text(text)
        with pytest.raises(ContractError, match=match):
            load_snapshot(str(path))

    def test_non_numeric_record_count_names_line(self, tmp_path):
        text = self.PAIR_SNAPSHOT.replace("records 2", "records two")
        self._rejects(tmp_path, text, r"line 5: record count 'two'")

    def test_missing_action_count_named(self, tmp_path):
        text = self.PAIR_SNAPSHOT.replace("action_count 3\n", "")
        self._rejects(tmp_path, text, "no 'action_count' line")

    def test_unknown_record_name_names_line(self, tmp_path):
        agent = DQNAgent(
            action_count=2, horizon=11, context_dim=2, total_episodes=10,
            rng=derive_stream(17, 0),
        )
        path = tmp_path / "net.snap"
        save_agent(agent, str(path))
        lines = path.read_text().splitlines()
        first = next(i for i, line in enumerate(lines) if line.startswith("records ")) + 1
        lines[first] = "zz/000000\t1.0"
        self._rejects(tmp_path, "\n".join(lines) + "\n", rf"line {first + 1}: .*zz/000000")

    @pytest.mark.parametrize("record", ["0||3,3|3\t0.5", "0||3,3|-1\t0.5", "0|3,3|1\t0.5",
                                        "0||3,3|1\tnope", "0||3,3|1", "0||3,3|1\tnan",
                                        "0||3,3|1\t-inf"])
    def test_malformed_tabular_record_names_line(self, tmp_path, record):
        text = self.PAIR_SNAPSHOT.replace("1||3,1|2\t-2.0", record)
        self._rejects(tmp_path, text, "line 7: malformed record")

    @pytest.mark.parametrize("record", ["0||3,3|1\t0.7", "0||3,3|01\t0.5"])
    def test_repeated_tabular_record_names_line(self, tmp_path, capsys, record):
        text = self.PAIR_SNAPSHOT.replace("records 2", "records 3") + record + "\n"
        self._rejects(tmp_path, text, "line 8: repeated record")
        path = tmp_path / "bad.snap"
        assert main(["replay", str(path), "--benchmark", "counting", "--horizon", "3"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("E-RUNTIME: snapshot line 8: repeated")

    @pytest.mark.parametrize("surplus", [["0||3,3|1\t0.5", "garbage line"], ["garbage line"],
                                         [""]], ids=["repeated-record", "garbage", "blank"])
    def test_line_after_the_records_names_line(self, tmp_path, capsys, surplus):
        text = self.PAIR_SNAPSHOT + "".join(line + "\n" for line in surplus)
        message = f"snapshot line 8: {surplus[0]!r} follows the last record"
        self._rejects(tmp_path, text, re.escape(message))
        path = tmp_path / "bad.snap"
        assert main(["replay", str(path), "--benchmark", "counting", "--horizon", "3"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == [f"E-RUNTIME: {message}"]

    def test_non_utf8_snapshot_is_one_runtime_line(self, tmp_path, capsys):
        path = tmp_path / "bad.snap"
        path.write_bytes(self.PAIR_SNAPSHOT.encode().replace(b"agent qlearn", b"agent \xffqlearn"))
        with pytest.raises(ContractError, match=f"{path}: snapshot is not UTF-8 text"):
            load_snapshot(str(path))
        assert main(["replay", str(path), "--benchmark", "counting", "--horizon", "3"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"E-RUNTIME: {path}: ")

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.snap"
        path.write_text("not a snapshot\n")
        with pytest.raises(ContractError):
            load_snapshot(str(path))
