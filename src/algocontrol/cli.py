"""Command-line front end.

Subcommands: ``run`` (execute an experiment from a config file),
``bench-info`` (print a benchmark's static shape), ``report``
(summarize result CSVs as a table or as plot-ready series), ``replay``
(greedy rollout of a saved agent snapshot). ``run --save-agent``
snapshots the agent one seed of that run trained.

Exit codes: 0 success, 2 config error, 3 runtime error, 4 I/O error.
Errors print a single line with a greppable prefix (E-CONFIG, E-RUNTIME,
E-IO). The environment variable ``DACBENCH_SEED`` overrides the master
seed of any run.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys

import numpy as np

from .agents import DQNAgent, load_snapshot
from .benchmarks import BENCHMARK_KINDS, BenchmarkConfig, make_env
from .config import parse_config, render_config
from .core import ConfigError, ContractError, Instance, SeedSpec, greedy_rollout
from .harness import (
    CSV_HEADER,
    ExperimentConfig,
    SeedCurve,
    aggregate,
    curves_to_csv_rows,
    format_csv,
    run_experiment,
    smooth,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_IO = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one E-CONFIG line instead of usage text
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="algocontrol",
        description="Benchmarks and agents for per-timestep algorithm control.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment from a config file")
    run_p.add_argument("config", help="path to the experiment config")
    run_p.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override a config value (repeatable)",
    )
    run_p.add_argument("--output", default="", help="result CSV path")
    run_p.add_argument(
        "--save-agent",
        default="",
        metavar="PATH",
        help="snapshot the agent that seed --agent-seed of this run trained",
    )
    run_p.add_argument(
        "--agent-seed",
        type=int,
        default=0,
        help="seed index in [0, n_seeds) for --save-agent (default 0)",
    )
    run_p.add_argument("-v", "--verbose", action="store_true")

    info_p = sub.add_parser("bench-info", help="print a benchmark's static shape")
    info_p.add_argument("benchmark", choices=BENCHMARK_KINDS)
    info_p.add_argument("--horizon", type=int, default=0)
    info_p.add_argument("--levels", type=int, default=BenchmarkConfig.levels)

    report_p = sub.add_parser("report", help="summarize result CSVs")
    report_p.add_argument("csvs", nargs="+", help="result CSV paths")
    report_p.add_argument("--mode", choices=("table", "plotdata"), default="table")
    report_p.add_argument("--window", type=int, default=ExperimentConfig.smoothing_window)

    replay_p = sub.add_parser("replay", help="greedy rollout of a saved snapshot")
    replay_p.add_argument("snapshot", help="agent snapshot path")
    replay_p.add_argument("--benchmark", required=True, choices=BENCHMARK_KINDS)
    replay_p.add_argument("--horizon", type=int, default=0)
    replay_p.add_argument("--levels", type=int, default=BenchmarkConfig.levels)
    replay_p.add_argument(
        "--instance",
        default="",
        metavar="s=S,p=P",
        help="sigmoid-family instance parameters",
    )
    replay_p.add_argument("--seed", type=int, default=0)
    return parser


def _check_output_path(path: str) -> None:
    """Refuse, before any training, a path that cannot be written for want
    of its directory; creates and truncates nothing."""
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise OSError(f"cannot write {path}: directory {directory} does not exist")
    if os.path.isdir(path):
        raise OSError(f"cannot write {path}: it is a directory")


def _cmd_run(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise OSError(f"cannot read config {args.config}: {exc}") from exc
    overrides = list(args.overrides)
    if args.output:
        overrides.append(f"harness.output={args.output}")
    env_seed = os.environ.get("DACBENCH_SEED")
    if env_seed is not None:
        try:
            int(env_seed)
        except ValueError:
            raise ConfigError(f"DACBENCH_SEED must be an integer, got {env_seed!r}")
        overrides.append(f"harness.seed={env_seed}")
    cfg = parse_config(text, overrides)
    for path in (cfg.output_path, args.save_agent):
        if path:
            _check_output_path(path)
    if args.verbose:
        print(render_config(cfg), end="")
    curves = run_experiment(
        cfg, save_agent=(args.agent_seed, args.save_agent) if args.save_agent else None
    )
    # Summarised from the rows the CSV holds, the way ``report`` reads them.
    text = format_csv(curves_to_csv_rows(cfg, curves))
    rows = _result_rows("results", text.splitlines())
    agg = _series_by_agent(rows, cfg.smoothing_window)[cfg.agent_kind]
    print(
        f"{cfg.benchmark.kind}/{cfg.agent_kind}: episodes={cfg.n_episodes} "
        f"seeds={cfg.n_seeds} final_smoothed_mean={agg.mean[-1]:.6g} "
        f"se={agg.stderr[-1]:.6g}"
    )
    if cfg.output_path:
        try:
            with open(cfg.output_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise OSError(f"cannot write results to {cfg.output_path}: {exc}") from exc
        print(f"wrote {cfg.output_path}")
    if args.save_agent:
        print(f"wrote {args.save_agent}")
    return EXIT_OK


def _cmd_bench_info(args) -> int:
    bench = BenchmarkConfig(kind=args.benchmark, horizon=args.horizon, levels=args.levels)
    env = make_env(bench)
    print(f"benchmark: {bench.kind}")
    print(f"action_count: {env.action_count}")
    print(f"horizon: {env.horizon}")
    print(f"context_dim: {env.context_dim}")
    print(f"history_len: {env.history_len}")
    # fuzzy alone draws random rewards and ends episodes early
    print(f"stochastic_reward: {str(not env.fixed_rewards).lower()}")
    print(f"fixed_episode_length: {str(env.fixed_rewards).lower()}")
    return EXIT_OK


_COLUMNS = CSV_HEADER.split(",")


def _result_rows(path: str, lines) -> list[dict]:
    """The data rows of result CSV text ``lines`` read from ``path``."""
    try:
        reader = csv.reader(lines)
        header = next(reader, None)
        if header != _COLUMNS:
            raise ContractError(f"{path}: unexpected CSV columns {header}; expected {CSV_HEADER}")
        return [_result_row(path, reader.line_num, row) for row in reader]
    except (csv.Error, UnicodeDecodeError) as exc:
        raise ContractError(f"{path}: {exc}") from None


def _result_row(path: str, lineno: int, row: list[str]) -> dict:
    """One data row of a result CSV; a bad row raises ContractError
    naming its file and line."""
    try:
        if len(row) != len(_COLUMNS):
            raise ValueError(f"expected {len(_COLUMNS)} fields, got {len(row)}")
        if not all(field.isprintable() for field in row):  # messages quote fields
            raise ValueError(f"a field of {row!r} holds an unprintable character")
        reward = float(row[5])
        if not math.isfinite(reward):
            raise ValueError(f"eval_reward {row[5]!r} is not finite")
        if row[4] not in ("train", "test"):
            raise ValueError(f"phase {row[4]!r} is not train or test")
        if not (row[6].isascii() and row[6].isdigit()):
            raise ValueError(f"wall_time_ms {row[6]!r} is not a non-negative integer")
        return {
            "benchmark": row[0],
            "agent": row[1],
            "seed": int(row[2]),
            "episode": int(row[3]),
            "phase": row[4],
            "eval_reward": reward,
            "line": lineno,
        }
    except ValueError as exc:
        raise ContractError(f"{path} line {lineno}: {exc}") from None


def _series_by_agent(rows: list[dict], window: int):
    """Per-agent aggregated train curves: smooth per seed, then mean/SE."""
    agents: dict[str, dict[int, list[dict]]] = {}
    for row in sorted(rows, key=lambda r: (r["agent"], r["seed"], r["episode"])):
        if row["phase"] == "train":
            agents.setdefault(row["agent"], {}).setdefault(row["seed"], []).append(row)
    result = {}
    for agent, by_seed in agents.items():
        try:
            result[agent] = aggregate([
                SeedCurve(seed, [r["episode"] for r in seed_rows],
                          smooth([r["eval_reward"] for r in seed_rows], window))
                for seed, seed_rows in by_seed.items()
            ])
        except ContractError as exc:
            raise ContractError(f"agent {agent}: {exc}") from None
    return result


def _cmd_report(args) -> int:
    if args.window < 1:
        raise ConfigError(f"--window must be >= 1, got {args.window}")
    rows: list[dict] = []
    seen: set[tuple] = set()
    for path in args.csvs:
        try:
            with open(path, "r", encoding="utf-8", newline="") as fh:
                file_rows = _result_rows(path, fh)
        except OSError as exc:
            raise OSError(f"cannot read {path}: {exc}") from exc
        for row in file_rows:
            if rows and row["benchmark"] != rows[0]["benchmark"]:
                raise ContractError(
                    f"{path} line {row['line']}: benchmark {row['benchmark']}, but the "
                    f"rows before it are {rows[0]['benchmark']}; report one benchmark at a time"
                )
            key = (row["agent"], row["seed"], row["episode"], row["phase"])
            if key in seen:
                raise ContractError(
                    f"{path} line {row['line']}: duplicate row for agent {key[0]}, "
                    f"seed {key[1]}, episode {key[2]}, phase {key[3]}"
                )
            seen.add(key)
            rows.append(row)
    series = _series_by_agent(rows, args.window)
    if not series:
        raise ContractError("no train rows in the given CSVs")
    if args.mode == "table":
        for agent, agg in series.items():
            print(f"{agent}: {agg.mean[-1]:.3f} ± {agg.stderr[-1]:.3f}")
    else:
        for agent, agg in series.items():
            print(f"# agent {agent}")
            print("episode\tsmoothed_mean\tstderr")
            for episode, mean, se in zip(agg.episodes, agg.mean, agg.stderr):
                print(f"{episode}\t{mean:.6g}\t{se:.6g}")
    return EXIT_OK


def _parse_instance(text: str, bench: BenchmarkConfig) -> Instance:
    if not bench.has_instances:
        if text:
            raise ConfigError(f"benchmark {bench.kind!r} takes no instance parameters")
        return ()
    if not text:
        raise ConfigError(f"benchmark {bench.kind!r} needs --instance s=S,p=P")
    values: dict[str, float] = {}
    for part in text.split(","):
        key, sep, val = part.partition("=")
        key = key.strip().lower()
        if not sep or key not in ("s", "p"):
            raise ConfigError(f"bad instance spec {text!r}; expected s=S,p=P")
        if key in values:
            raise ConfigError(f"instance spec {text!r} sets {key} twice")
        try:
            values[key] = float(val)
        except ValueError:
            values[key] = math.nan
        if not math.isfinite(values[key]):
            raise ConfigError(f"instance parameter {key}={val!r} is not a finite number")
    if set(values) != {"s", "p"}:
        raise ConfigError(f"instance spec {text!r} must set both s and p")
    return (values["s"], values["p"])


def _cmd_replay(args) -> int:
    agent = load_snapshot(args.snapshot)
    bench = BenchmarkConfig(kind=args.benchmark, horizon=args.horizon, levels=args.levels)
    env = make_env(bench)
    if agent.action_count != env.action_count:
        raise ContractError(
            f"snapshot has {agent.action_count} actions but {bench.kind} expects "
            f"{env.action_count}"
        )
    if isinstance(agent, DQNAgent):
        expected = 1 + env.context_dim
        if agent.input_dim != expected:
            raise ContractError(
                f"snapshot input dim {agent.input_dim} != benchmark obs dim {expected}"
            )
        if agent.horizon != env.horizon:
            raise ContractError(
                f"snapshot horizon {agent.horizon} but {bench.kind} expects {env.horizon}"
            )
    instance, trace = _parse_instance(args.instance, bench), []
    try:
        with np.errstate(over="raise", invalid="raise"):
            total = greedy_rollout(
                agent.greedy_action, env, instance, SeedSpec(args.seed, 0), trace
            )
    except FloatingPointError as exc:
        raise ContractError(f"{args.snapshot}: a Q-value is not finite ({exc})") from None
    print(f"replay {agent.kind} on {bench.kind} (T={env.horizon})")
    for obs, action, reward in trace:
        features = ",".join(f"{v:g}" for v in obs.continuous_features)
        print(f"t={obs.time_step:3d} obs=[{features}] action={action} reward={reward:.6g}")
    print(f"total reward: {total:.6g}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    handlers = {"run": _cmd_run, "bench-info": _cmd_bench_info, "report": _cmd_report,
                "replay": _cmd_replay}
    try:
        args = _build_parser().parse_args(argv)
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"E-CONFIG: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"E-IO: {exc}", file=sys.stderr)
        return EXIT_IO
    except ContractError as exc:
        print(f"E-RUNTIME: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
