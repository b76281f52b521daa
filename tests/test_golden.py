"""Golden result CSVs: every valid (benchmark, agent, instance mode).

Each file under ``golden/`` holds the exact bytes ``format_csv`` wrote
for its case at tiny scale (3 seeds x 60 episodes, fixed sets of 5
instances). A change meant to keep every number must keep these bytes;
a change that alters numbers on purpose regenerates them with

    PYTHONPATH=src python tests/test_golden.py --regenerate

and says why. DQN curves go through matrix products, which may round
differently on another BLAS kernel, so DQN files are compared only on
the kernel named in ``golden/meta.json``.
"""

from __future__ import annotations

import ctypes
import gc
import json
import sys
from functools import reduce
from operator import add
from pathlib import Path

import pytest

from algocontrol import harness
from algocontrol.agents import AGENT_KINDS
from algocontrol.benchmarks import BENCHMARK_KINDS, ENVIRONMENTS
from algocontrol.config import parse_config
from algocontrol.harness import (
    INSTANCE_MODES,
    ConfigError,
    curves_to_csv_rows,
    format_csv,
    run_experiment,
)
from oracles import optimal_rewards

GOLDEN = Path(__file__).parent / "golden"
META = GOLDEN / "meta.json"

CASE_TEMPLATE = """\
[benchmark]
kind = {benchmark}

[agent]
kind = {agent}

[harness]
episodes = 60
n_seeds = 3
seed = 0
instance_mode = {mode}
train_instances = 5
test_instances = 5
test_eval_every = 20
"""


def case_text(benchmark: str, agent: str, mode: str) -> str:
    return CASE_TEMPLATE.format(benchmark=benchmark, agent=agent, mode=mode)


def valid_cases() -> list[tuple[str, str, str]]:
    """Every (benchmark, agent, instance mode) the config accepts."""
    cases = []
    for benchmark in BENCHMARK_KINDS:
        for agent in AGENT_KINDS:
            for mode in INSTANCE_MODES:
                try:
                    parse_config(case_text(benchmark, agent, mode))
                except ConfigError:
                    continue
                cases.append((benchmark, agent, mode))
    return cases


def case_path(benchmark: str, agent: str, mode: str) -> Path:
    return GOLDEN / f"{benchmark}-{agent}-{mode}.csv"


def run_case(benchmark: str, agent: str, mode: str) -> str:
    cfg = parse_config(case_text(benchmark, agent, mode))
    return format_csv(curves_to_csv_rows(cfg, run_experiment(cfg)))


def blas_core() -> str | None:
    """Kernel name of the OpenBLAS library loaded by numpy, if any."""
    import numpy  # noqa: F401  (loads the BLAS library)

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", "")):
            corename = getattr(lib, f"{prefix}get_corename{suffix}", None)
            if corename is not None:
                corename.restype = ctypes.c_char_p
                return corename().decode()
    return None


CASES = valid_cases()


def test_golden_files_match_the_valid_cases():
    on_disk = sorted(p.name for p in GOLDEN.glob("*.csv"))
    assert on_disk == sorted(case_path(*case).name for case in CASES)


@pytest.mark.parametrize("case", CASES, ids=["-".join(c) for c in CASES])
def test_golden_csv_byte_identical(case):
    benchmark, agent, mode = case
    if agent == "dqn":
        recorded = json.loads(META.read_text())["blas_core"]
        running = blas_core()
        if running != recorded:
            pytest.skip(f"DQN golden recorded on BLAS kernel {recorded}, running on {running}")
    expected = case_path(*case).read_bytes()
    assert run_case(*case).encode("utf-8") == expected


@pytest.mark.parametrize("case", CASES, ids=["-".join(c) for c in CASES])
def test_a_run_leaves_no_cyclic_garbage(case):
    """A seed run makes no reference cycles, which is what lets
    ``train_and_evaluate`` pause the cyclic collector: run with the collector
    off, the case leaves nothing for ``gc.collect()`` to find."""
    cfg = parse_config(case_text(*case))
    collecting = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        run_experiment(cfg)
        assert gc.collect() == 0
    finally:
        if collecting:
            gc.enable()


def mean_optimum(env, instances) -> float:
    """The mean of the instances' optimal returns, added as a checkpoint adds
    its returns: each from 0.0, step by step, then over the instances from 0.0.
    Float addition and division are monotone, so no score of ``instances`` added
    in that order can exceed it."""
    return reduce(add, [reduce(add, optimal_rewards(env, i), 0.0) for i in instances],
                  0.0) / len(instances)


@pytest.mark.parametrize("case", [c for c in CASES if ENVIRONMENTS[c[0]].fixed_rewards],
                         ids="-".join)
def test_no_point_beats_the_optimum(case, monkeypatch):
    """Every train and test point of a golden run with fixed rewards, and every
    blackbox best-so-far value, is at most the mean optimum of the instances it
    evaluated: a scorer that counts a step twice shows here."""
    results = []
    real = harness.blackbox_optimize

    def spy(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(harness, "blackbox_optimize", spy)
    cfg = parse_config(case_text(*case)).validated()
    curves = run_experiment(cfg)
    for curve in curves:
        setup = harness._EvalSetup(cfg, curve.seed)
        env, instances = setup.env, setup.instances
        if cfg.agent_kind == "blackbox":
            # Run r of a race scores instances[r % n]; an incumbent holds the
            # first min(runs, episodes) runs and its mean is their sum / count.
            runs = min(cfg.benchmark.runs, cfg.n_episodes)
            optima = [reduce(add, optimal_rewards(env, instances[r % len(instances)]), 0.0)
                      for r in range(runs)]
            ceiling = sum(optima) / runs
            values = results[curve.seed].best_so_far
            assert len(values) == cfg.n_episodes
        else:
            ceiling, values = mean_optimum(env, instances), curve.train_rewards
        assert max(values) <= ceiling, curve.seed
        if curve.test_points:
            ceiling = mean_optimum(env, setup.test_set)
            assert max(value for _, value in curve.test_points) <= ceiling, curve.seed
        assert bool(curve.test_points) == (cfg.instance_mode == "fixed"
                                           and cfg.agent_kind != "blackbox")


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for old in GOLDEN.glob("*.csv"):
        old.unlink()
    for case in CASES:
        case_path(*case).write_bytes(run_case(*case).encode("utf-8"))
    META.write_text(json.dumps({"blas_core": blas_core()}, indent=2) + "\n")
    print(f"wrote {len(CASES)} golden CSVs to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --regenerate")
    regenerate()
