"""Per-layer tracing for the algocontrol benchmark.

Spans are recorded from the benchmark's own code: ``installed`` wraps
public functions and methods of the library under the names their
callers look them up by, and restores the originals on exit. Nothing
under ``src/`` is edited.

Fine-grained spans (one step, one action selection, one forward) are
far too many to keep one by one, so they are aggregated in memory per
(name, parent span name) as call count, total time and self time.
Coarse spans (seed run, evaluation checkpoint, race) are also kept one
record each, so their latency distribution can be reported and written
out when the run ends.
"""

from __future__ import annotations

import importlib
import math
import time
from contextlib import contextmanager

ROOT_SPAN = "<root>"

# (where the caller looks the name up, span name). Module-level
# functions are patched in the module that calls them: harness imports
# derive_stream, make_instance_set, sample_sigmoid_instance and
# blackbox_optimize by name, so those are patched in harness too.
HOOKS = (
    ("algocontrol.core:Environment.step", "core.step"),
    ("algocontrol.core:Environment.reset", "core.reset"),
    ("algocontrol.core:derive_stream", "core.derive_stream"),
    ("algocontrol.harness:derive_stream", "core.derive_stream"),
    ("algocontrol.benchmarks:counting_reward", "benchmarks.reward"),
    ("algocontrol.benchmarks:sigmoid_reward", "benchmarks.reward"),
    ("algocontrol.benchmarks:sigmoidmva_reward", "benchmarks.reward"),
    ("algocontrol.harness:make_instance_set", "benchmarks.instances"),
    ("algocontrol.harness:sample_sigmoid_instance", "benchmarks.instances"),
    ("algocontrol.benchmarks:sample_sigmoid_instance", "benchmarks.instances"),
    ("algocontrol.agents.tabular:TabularAgent.select_action", "agents.tabular.select"),
    ("algocontrol.agents.tabular:TabularAgent.observe", "agents.tabular.observe"),
    ("algocontrol.agents.tabular:TabularAgent.end_episode", "agents.tabular.end_episode"),
    ("algocontrol.agents.tabular:TabularAgent.greedy_action", "agents.tabular.greedy"),
    ("algocontrol.agents.tabular:q_update", "agents.tabular.q_update"),
    ("algocontrol.agents.tabular:state_key", "agents.tabular.state_key"),
    ("algocontrol.agents.dqn:DQNAgent.select_action", "agents.dqn.select"),
    ("algocontrol.agents.dqn:DQNAgent.greedy_action", "agents.dqn.greedy"),
    ("algocontrol.agents.dqn:DQNAgent.observe", "agents.dqn.observe"),
    ("algocontrol.agents.dqn:dqn_train_step", "agents.dqn.train_step"),
    ("algocontrol.agents.dqn:MLPQNet.forward", "agents.dqn.forward"),
    ("algocontrol.harness:train_and_evaluate", "harness.seed_run"),
    ("algocontrol.harness:run_training_episode", "harness.train_episode"),
    ("algocontrol.harness:greedy_rollout", "harness.rollout"),
    ("algocontrol.harness:_EvalSetup.evaluate", "harness.eval_checkpoint"),
    ("algocontrol.harness:evaluate_on_test_set", "harness.test_eval"),
    ("algocontrol.harness:blackbox_optimize", "blackbox.optimize"),
    ("algocontrol.blackbox:race", "blackbox.race"),
)

# Spans kept one record each, besides the aggregate.
COARSE = frozenset(
    {"harness.seed_run", "harness.eval_checkpoint", "harness.test_eval",
     "blackbox.optimize", "blackbox.race"}
)


def _count_rows(counters, args, result) -> None:
    obs = args[1]
    rows = len(obs) if getattr(obs, "ndim", 1) == 2 else 1
    counters["agents.dqn.forward.rows"] = counters.get("agents.dqn.forward.rows", 0) + rows


def _count_race(counters, args, result) -> None:
    winner, consumed = result
    promoted = winner is not args[1]
    counters["blackbox.promotions"] = counters.get("blackbox.promotions", 0) + promoted
    counters["blackbox.race_episodes"] = counters.get("blackbox.race_episodes", 0) + consumed


def _count_budget(counters, args, result) -> None:
    counters["blackbox.episodes"] = (
        counters.get("blackbox.episodes", 0) + result.episodes_consumed
    )


TALLIES = {
    "agents.dqn.forward": _count_rows,
    "blackbox.race": _count_race,
    "blackbox.optimize": _count_budget,
}


class Tracer:
    """Span stack plus per-(name, parent) aggregates; single-threaded."""

    def __init__(self, clock=time.perf_counter_ns) -> None:
        self.clock = clock
        self.stack: list[list] = [[ROOT_SPAN, 0]]  # [name, ns covered by children]
        self.agg: dict[tuple[str, str], list[int]] = {}  # -> [calls, total_ns, self_ns]
        self.counters: dict[str, int] = {}
        self.records: list[tuple[str, str, int, int]] = []  # coarse spans
        self.missing: list[str] = []

    def wrap(self, fn, name: str):
        """Return ``fn`` wrapped in a span called ``name``."""
        stack, agg, clock = self.stack, self.agg, self.clock
        records = self.records if name in COARSE else None
        tally = TALLIES.get(name)
        counters = self.counters

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[1] += duration
                key = (name, parent[0])
                entry = agg.get(key)
                if entry is None:
                    agg[key] = [1, duration, duration - frame[1]]
                else:
                    entry[0] += 1
                    entry[1] += duration
                    entry[2] += duration - frame[1]
                if records is not None:
                    records.append((name, parent[0], start, end))
            if tally is not None:
                tally(counters, args, result)
            return result

        return traced

    def calls(self, name: str) -> int:
        return sum(v[0] for (n, _), v in self.agg.items() if n == name)

    def total_s(self, name: str) -> float:
        return sum(v[1] for (n, _), v in self.agg.items() if n == name) * 1e-9

    def self_s(self, name: str) -> float:
        return sum(v[2] for (n, _), v in self.agg.items() if n == name) * 1e-9

    def durations_s(self, name: str) -> list[float]:
        return [(end - start) * 1e-9 for n, _, start, end in self.records if n == name]


def _resolve(target: str):
    """``module:Attr.attr`` -> (owner object, attribute name), or None."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


@contextmanager
def installed(tracer: Tracer):
    """Patch every hook with a span of ``tracer``; restore on exit.

    A target the library no longer has is listed in ``tracer.missing``
    and its metrics read 0, so a refactor that renames a function shows
    in the report instead of stopping the benchmark.
    """
    undo = []
    try:
        for target, name in HOOKS:
            found = _resolve(target)
            if found is None:
                tracer.missing.append(target)
                continue
            owner, attr = found
            own = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr)
            undo.append((owner, attr, own, getattr(owner, attr)))
            setattr(owner, attr, tracer.wrap(getattr(owner, attr), name))
        yield tracer
    finally:
        for owner, attr, own, original in reversed(undo):
            if own is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"could not restore {owner!r}.{attr}")


# Per-layer metrics in report order: name -> (unit, better).
PER_LAYER = {
    "core.step.calls": ("count", "lower"),
    "core.step.self_s": ("s", "lower"),
    "core.step.ns_per_call": ("ns", "lower"),
    "core.reset.calls": ("count", "lower"),
    "core.reset.self_s": ("s", "lower"),
    "core.derive_stream.calls": ("count", "lower"),
    "core.derive_stream.self_s": ("s", "lower"),
    "benchmarks.reward.calls": ("count", "lower"),
    "benchmarks.reward.self_s": ("s", "lower"),
    "benchmarks.instances.self_s": ("s", "lower"),
    "agents.tabular.select.calls": ("count", "lower"),
    "agents.tabular.select.self_s": ("s", "lower"),
    "agents.tabular.observe.self_s": ("s", "lower"),
    "agents.tabular.end_episode.self_s": ("s", "lower"),
    "agents.tabular.q_update.calls": ("count", "lower"),
    "agents.tabular.state_key.calls": ("count", "lower"),
    "agents.tabular.greedy.calls": ("count", "lower"),
    "agents.tabular.greedy.self_s": ("s", "lower"),
    "agents.dqn.select.calls": ("count", "lower"),
    "agents.dqn.select.self_s": ("s", "lower"),
    "agents.dqn.greedy.calls": ("count", "lower"),
    "agents.dqn.greedy.self_s": ("s", "lower"),
    "agents.dqn.observe.self_s": ("s", "lower"),
    "agents.dqn.train_step.calls": ("count", "lower"),
    "agents.dqn.train_step.self_s": ("s", "lower"),
    "agents.dqn.forward.calls": ("count", "lower"),
    "agents.dqn.forward.rows": ("count", "lower"),
    "agents.dqn.forward.rows_per_call": ("rows/call", "higher"),
    "agents.dqn.forward.self_s": ("s", "lower"),
    "harness.train_episode.calls": ("count", "lower"),
    "harness.train_episode.self_s": ("s", "lower"),
    "harness.rollout.calls": ("count", "lower"),
    "harness.rollout.self_s": ("s", "lower"),
    "harness.eval_s": ("s", "lower"),
    "harness.test_eval_s": ("s", "lower"),
    "harness.eval_share": ("ratio", "lower"),
    "harness.write_csv_s": ("s", "lower"),
    "blackbox.race.calls": ("count", "lower"),
    "blackbox.race.self_s": ("s", "lower"),
    "blackbox.episodes": ("count", "lower"),
    "blackbox.promotions": ("count", "higher"),
    "blackbox.promotion_ratio": ("ratio", "higher"),
    "blackbox.episodes_per_race": ("episodes/race", "lower"),
    "config.parse_s": ("s", "lower"),
    "trace_overhead": ("ratio", "lower"),
}

_CALLS = ("core.step", "core.reset", "core.derive_stream", "benchmarks.reward",
          "agents.tabular.select", "agents.tabular.q_update", "agents.tabular.state_key",
          "agents.tabular.greedy", "agents.dqn.select", "agents.dqn.greedy",
          "agents.dqn.train_step", "agents.dqn.forward", "harness.train_episode",
          "harness.rollout", "blackbox.race")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, wall_s: float, csv_s: float, parse_s: float) -> dict:
    """Per-layer values of one traced repeat, except ``trace_overhead``.

    ``wall_s`` is the traced ``run_experiment`` wall time, ``csv_s`` the
    time to format its CSV and ``parse_s`` the ``parse_config`` time.
    """
    out: dict[str, float] = {}
    for name in PER_LAYER:
        layer, _, kind = name.rpartition(".")
        if kind == "calls":
            out[name] = tracer.calls(layer)
        elif kind == "self_s":
            out[name] = tracer.self_s(layer)
    out["core.step.ns_per_call"] = _ratio(tracer.self_s("core.step") * 1e9,
                                          tracer.calls("core.step"))
    rows = tracer.counters.get("agents.dqn.forward.rows", 0)
    out["agents.dqn.forward.rows"] = rows
    out["agents.dqn.forward.rows_per_call"] = _ratio(rows, tracer.calls("agents.dqn.forward"))
    out["harness.eval_s"] = tracer.total_s("harness.eval_checkpoint")
    out["harness.test_eval_s"] = tracer.total_s("harness.test_eval")
    out["harness.eval_share"] = _ratio(
        out["harness.eval_s"] + out["harness.test_eval_s"], wall_s
    )
    out["harness.write_csv_s"] = csv_s
    races = tracer.calls("blackbox.race")
    out["blackbox.episodes"] = tracer.counters.get("blackbox.episodes", 0)
    out["blackbox.promotions"] = tracer.counters.get("blackbox.promotions", 0)
    out["blackbox.promotion_ratio"] = _ratio(out["blackbox.promotions"], races)
    out["blackbox.episodes_per_race"] = _ratio(
        tracer.counters.get("blackbox.race_episodes", 0), races
    )
    out["config.parse_s"] = parse_s
    return out


def self_shares(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Self time of every span name as a share of ``wall_s``, largest first."""
    names = {n for n, _ in tracer.agg}
    shares = {n: _ratio(tracer.self_s(n), wall_s) for n in names}
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99)


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(values: list[float], beyond: int = 10):
    """Highest of PERCENTILES with at least ``beyond`` samples above it.

    Returns ``(p, value)``, or None when even the median has fewer than
    ``beyond`` samples above it.
    """
    best = None
    for p in PERCENTILES:
        value = percentile(values, p) if values else 0.0
        if values and sum(v > value for v in values) >= beyond:
            best = (p, value)
    return best
