"""Self-tests of the benchmark's own helpers.

    python -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")

# Every workload and metric the benchmark was specified with.
SPECIFIED_WORKLOADS = {"fuzzy-qlearn", "sigmoid-dqn-fixed", "luby-blackbox", "luby-qlearn"}
SPECIFIED_END_TO_END = {"episodes_per_s", "setup_s", "peak_rss_mb"}
SPECIFIED_PER_LAYER = {
    "core.step.calls", "core.step.self_s", "core.step.ns_per_call",
    "core.reset.calls", "core.reset.self_s",
    "core.derive_stream.calls", "core.derive_stream.self_s",
    "benchmarks.reward.calls", "benchmarks.reward.self_s", "benchmarks.instances.self_s",
    "agents.tabular.select.calls", "agents.tabular.select.self_s",
    "agents.tabular.observe.self_s", "agents.tabular.end_episode.self_s",
    "agents.tabular.q_update.calls", "agents.tabular.state_key.calls",
    "agents.tabular.greedy.calls", "agents.tabular.greedy.self_s",
    "agents.dqn.select.calls", "agents.dqn.select.self_s",
    "agents.dqn.greedy.calls", "agents.dqn.greedy.self_s", "agents.dqn.observe.self_s",
    "agents.dqn.train_step.calls", "agents.dqn.train_step.self_s",
    "agents.dqn.forward.calls", "agents.dqn.forward.rows",
    "agents.dqn.forward.rows_per_call", "agents.dqn.forward.self_s",
    "harness.train_episode.calls", "harness.train_episode.self_s",
    "harness.rollout.calls", "harness.rollout.self_s",
    "harness.eval_s", "harness.test_eval_s", "harness.eval_share", "harness.write_csv_s",
    "blackbox.race.calls", "blackbox.race.self_s", "blackbox.episodes",
    "blackbox.promotions", "blackbox.promotion_ratio", "blackbox.episodes_per_race",
    "config.parse_s", "trace_overhead",
}

# Layers each workload was chosen to load, and layers it must leave alone.
LOADED = {
    "fuzzy-qlearn": ("core.reset.calls", "agents.tabular.greedy.calls", "harness.eval_s"),
    "sigmoid-dqn-fixed": ("agents.dqn.forward.calls", "agents.dqn.train_step.calls",
                          "benchmarks.reward.calls", "harness.test_eval_s"),
    "luby-blackbox": ("core.step.calls", "blackbox.race.calls", "blackbox.episodes"),
    "luby-qlearn": ("agents.tabular.select.calls", "agents.tabular.q_update.calls"),
}
IDLE = {
    "fuzzy-qlearn": ("agents.dqn.forward.calls", "blackbox.race.calls"),
    "sigmoid-dqn-fixed": ("agents.tabular.select.calls", "agents.tabular.state_key.calls",
                          "agents.tabular.greedy.calls", "blackbox.race.calls"),
    "luby-blackbox": ("agents.tabular.select.calls", "agents.tabular.state_key.calls",
                      "agents.tabular.greedy.calls", "agents.dqn.forward.calls",
                      "harness.train_episode.calls", "benchmarks.reward.calls"),
    "luby-qlearn": ("agents.dqn.forward.calls", "blackbox.race.calls"),
}


@pytest.fixture(scope="module")
def api():
    return run.load_api()


def benchmark_json() -> dict:
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def tiny_traced(api, workload: str, episodes: int) -> tuple[dict, str, tracing.Tracer]:
    """One traced repeat of a shortened workload: (layer metrics, CSV, tracer)."""
    config, harness = api
    cfg = config.parse_config(run.workload_text(workload, 3))
    cfg = dataclasses.replace(cfg, n_episodes=episodes, test_eval_every=episodes // 2,
                              train_eval_every=min(cfg.train_eval_every, episodes // 2))
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        curves = harness.run_experiment(cfg)
    csv = harness.format_csv(harness.curves_to_csv_rows(cfg, curves))
    return tracing.layer_metrics(tracer, 1.0, 0.0, 0.0), csv, tracer


class FakeClock:
    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


def test_self_time_with_nested_and_sibling_spans():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def leaf():
        clock.now += 5

    def inner():
        clock.now += 1
        traced_leaf()
        clock.now += 2

    def outer():
        clock.now += 10
        traced_inner()
        traced_inner()
        clock.now += 3

    traced_leaf = tracer.wrap(leaf, "leaf")
    traced_inner = tracer.wrap(inner, "inner")
    tracer.wrap(outer, "outer")()
    assert tracer.agg[("outer", tracing.ROOT_SPAN)] == [1, 29, 13]
    assert tracer.agg[("inner", "outer")] == [2, 16, 6]
    assert tracer.agg[("leaf", "inner")] == [2, 10, 10]
    assert tracer.stack == [[tracing.ROOT_SPAN, 29]]


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def boom():
        clock.now += 4
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap(boom, "boom")()
    assert tracer.agg[("boom", tracing.ROOT_SPAN)] == [1, 4, 4]
    assert len(tracer.stack) == 1


def test_percentile_rule():
    assert tracing.tail_percentile(list(range(1, 101))) == (90.0, 90)
    assert tracing.tail_percentile(list(range(1, 1001))) == (99.0, 990)
    assert tracing.tail_percentile(list(range(1, 21))) == (50.0, 10)
    assert tracing.tail_percentile(list(range(1, 20))) is None
    assert tracing.tail_percentile([1.0] * 500) is None  # nothing lies beyond a tie
    assert tracing.tail_percentile([]) is None


def test_host_slowdown_cancels_host_speed():
    ref = run.REFERENCE_S
    assert run.host_slowdown(ref, ref) == pytest.approx(1.0)
    # A host half as fast doubles a timing and the references around it.
    quiet_rate = 1000 / 0.5 * run.host_slowdown(ref, ref)
    slow_rate = 1000 / 1.0 * run.host_slowdown(2 * ref, 2 * ref)
    assert slow_rate == pytest.approx(quiet_rate)
    assert 0.4 / run.host_slowdown(1.5 * ref, 2.5 * ref) == pytest.approx(0.2)


def test_metric_and_workload_names_are_well_formed():
    spec = benchmark_json()
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(set(names)) == len(names)
    for name in names + list(run.END_TO_END) + list(tracing.PER_LAYER) + list(run.WORKLOADS):
        assert NAME.fullmatch(name) and len(name) <= 64, name


def test_benchmark_json_matches_the_code():
    spec = benchmark_json()
    # fuzzy-qlearn is run on request only: see README.md
    assert [w["name"] for w in spec["workloads"]] == [w for w in run.WORKLOADS if w != "fuzzy-qlearn"]
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.PER_LAYER


def test_every_specified_workload_and_metric_is_reported():
    assert set(run.WORKLOADS) == SPECIFIED_WORKLOADS
    assert set(run.END_TO_END) == SPECIFIED_END_TO_END
    assert set(tracing.PER_LAYER) == SPECIFIED_PER_LAYER
    for workload in run.WORKLOADS:
        assert (run.WORKLOAD_DIR / f"{workload}.ini").is_file()


@pytest.mark.parametrize("workload", sorted(SPECIFIED_WORKLOADS))
def test_each_workload_loads_its_layers(api, workload):
    metrics, csv, tracer = tiny_traced(api, workload, 40)
    assert tracer.missing == []
    assert set(metrics) == set(tracing.PER_LAYER) - {"trace_overhead"}
    for name in LOADED[workload]:
        assert metrics[name] > 0, name
    for name in IDLE[workload]:
        assert metrics[name] == 0, name


def test_tracing_restores_originals_and_leaves_results_alone(api):
    config, harness = api
    from algocontrol import core

    step = core.Environment.step
    _, traced_csv, _ = tiny_traced(api, "fuzzy-qlearn", 20)
    assert core.Environment.step is step
    cfg = config.parse_config(run.workload_text("fuzzy-qlearn", 3))
    cfg = dataclasses.replace(cfg, n_episodes=20, test_eval_every=10, train_eval_every=1)
    plain_csv = harness.format_csv(harness.curves_to_csv_rows(cfg, harness.run_experiment(cfg)))
    assert checks.digest(plain_csv) == checks.digest(traced_csv)


def test_output_check_catches_broken_results(api):
    config, harness = api
    cfg = config.parse_config(run.workload_text("luby-blackbox", 3))
    cfg = dataclasses.replace(cfg, n_episodes=30)
    csv = harness.format_csv(harness.curves_to_csv_rows(cfg, harness.run_experiment(cfg)))
    assert checks.seed_failures(csv, cfg) == {}
    lines = csv.splitlines(keepends=True)

    def with_reward(i: int, reward: str) -> str:
        cols = lines[i].split(",")
        cols[5] = reward
        return "".join(lines[:i] + [",".join(cols)] + lines[i + 1:])

    assert set(checks.seed_failures(with_reward(5, "nan"), cfg)) == {0}
    assert set(checks.seed_failures(with_reward(5, "33"), cfg)) == {0}  # luby total <= T
    assert set(checks.seed_failures(with_reward(30, "-32"), cfg)) == {0}  # curve decreases
    assert set(checks.seed_failures("".join(lines[:-1]), cfg)) == {1}  # grid incomplete
    assert set(checks.seed_failures("".join(lines[1:]), cfg)) == {0, 1}  # header lost


def test_expected_digest_is_tied_to_the_blas_kernel():
    recorded = {"meta": {"blas_core": "Haswell"}, "digests": {"w": {"0": "abc"}}}
    assert checks.expected_digest(recorded, "w", 0, False, "SkylakeX")[0] == "abc"
    assert checks.expected_digest(recorded, "w", 0, True, "Haswell")[0] == "abc"
    assert checks.expected_digest(recorded, "w", 0, True, "SkylakeX")[0] is None
    assert checks.expected_digest(recorded, "w", 1, False, "Haswell")[0] is None


def test_fails_without_a_result_outside_a_checkout(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "luby-qlearn", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
