#!/usr/bin/env python3
"""Benchmark of algocontrol's experiment protocol, end to end and per layer.

Run one workload (the last line of output is the JSON result):

    python3 perfbench/run.py --workload fuzzy-qlearn --seed 0 --seconds 30 --trace 0

Run every workload, untraced and traced, and print a table:

    python3 perfbench/run.py --workload all --seed 0 --seconds 30

Re-record the output digests after a deliberate change of numbers:

    python3 perfbench/run.py --record-digests 0-63

Each workload is an INI file under ``workloads/``; the master seed comes
from ``--seed``. One repeat is ``parse_config`` -> ``run_experiment`` ->
``format_csv(curves_to_csv_rows(...))``, all through the public API of
the package under ``src/`` of this checkout. Repeats run until
``--seconds`` is used up and every timing is reported as a median.
See README.md beside this file.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing
from checks import DIGESTS_PATH, digest, expected_digest, load_digests, seed_failures

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_DIR = HERE / "workloads"
OUT_DIR = HERE / "out"

WORKLOADS = ("fuzzy-qlearn", "sigmoid-dqn-fixed", "luby-blackbox", "luby-qlearn")

# name -> (unit, better)
END_TO_END = {
    "episodes_per_s": ("episodes/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

SETUP_SAMPLES = 11
# No repeat starts after this; the whole run must end within 180 s.
HARD_LIMIT_S = 140.0

# Median time of reference_work() on the baseline host (README.md,
# "Host-speed reference"). Only ratios to it matter; it is never re-tuned.
REFERENCE_S = 0.14

SETUP_CODE = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from algocontrol.config import parse_config
parse_config(sys.argv[2]).validated()
print(repr(time.perf_counter() - start))
"""


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def pin_blas_threads() -> None:
    """One BLAS thread per process (never more than nproc); set before numpy loads."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def workload_text(name: str, seed: int) -> str:
    """The workload's INI text with the master seed appended."""
    path = WORKLOAD_DIR / f"{name}.ini"
    if not path.is_file():
        fail(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    return path.read_text(encoding="utf-8") + f"\n[harness]\nseed = {seed}\n"


def load_api():
    """Import ``algocontrol`` from this checkout's ``src/``, nowhere else."""
    if not (SRC / "algocontrol" / "__init__.py").is_file():
        fail(f"no algocontrol package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import algocontrol
    from algocontrol import config, harness

    if Path(algocontrol.__file__).resolve().parent != SRC / "algocontrol":
        fail(f"imported algocontrol from {algocontrol.__file__}, not from {SRC}")
    return config, harness


def measure_setup(text: str) -> tuple[list[float], list[float]]:
    """Import + parse_config + validated() times, each in a fresh interpreter.

    Returns the times corrected for host speed (see ``host_slowdown``) and
    as measured. The first child is a warm-up (it may compile bytecode)
    and is dropped.
    """
    corrected, raw = [], []
    ref_before = reference_work()
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), text],
            capture_output=True, text=True, timeout=60,
        )
        ref_after = reference_work()
        if proc.returncode != 0:
            fail(f"set-up child failed:\n{proc.stderr}")
        if i > 0:
            raw.append(float(proc.stdout.strip().splitlines()[-1]))
            corrected.append(raw[-1] / host_slowdown(ref_before, ref_after))
        ref_before = ref_after
    return corrected, raw


@dataclasses.dataclass
class Repeat:
    cfg: object
    csv: str
    wall_s: float  # run_experiment only
    parse_s: float
    csv_s: float


def run_once(config, harness, text: str) -> Repeat:
    t0 = time.perf_counter()
    cfg = config.parse_config(text)
    t1 = time.perf_counter()
    curves = harness.run_experiment(cfg)
    t2 = time.perf_counter()
    csv = harness.format_csv(harness.curves_to_csv_rows(cfg, curves))
    t3 = time.perf_counter()
    return Repeat(cfg, csv, t2 - t1, t1 - t0, t3 - t2)


def reference_work() -> float:
    """Seconds taken by a fixed mix of interpreter work and small numpy calls.

    It imports nothing from the package, so no change there can move it;
    it only tracks how fast the host runs this process right now.
    """
    import numpy as np

    start = time.perf_counter()
    weights = np.linspace(-1.0, 1.0, 64).reshape(8, 8)
    x = np.ones(8)
    table: dict[tuple[int, int], float] = {}
    for i in range(60000):
        key = (i % 13, i % 5)
        table[key] = table.get(key, 0.0) + float((weights @ x)[i % 8]) * 1e-9
    return time.perf_counter() - start


def host_slowdown(ref_before: float, ref_after: float) -> float:
    """How much slower the host ran around a timing than the baseline host.

    Dividing a time by it (or multiplying a rate) gives the value on a host
    that runs reference_work() in REFERENCE_S.
    """
    return (ref_before + ref_after) / (2.0 * REFERENCE_S)


def blas_info() -> dict:
    """BLAS library, its kernel and its thread count, read from the loaded library."""
    import numpy as np

    deps = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    info = {"name": deps.get("name"), "version": deps.get("version"),
            "core": None, "threads": None}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", "")):
            core = getattr(lib, f"{prefix}get_corename{suffix}", None)
            threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            if core is not None and threads is not None:
                core.restype = ctypes.c_char_p
                threads.restype = ctypes.c_int
                info["core"] = core().decode()
                info["threads"] = threads()
                return info
    return info


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() or None


def run_header(args, blas: dict, load_before) -> dict:
    import numpy as np

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
    }


class Runner:
    """Repeats of one workload at one seed, with the output check."""

    def __init__(self, api, workload: str, seed: int, blas_core: str | None) -> None:
        self.config, self.harness = api
        self.text = workload_text(workload, seed)
        self.cfg = self.config.parse_config(self.text)
        self.expected, self.digest_note = expected_digest(
            load_digests(), workload, seed, self.cfg.agent_kind == "dqn", blas_core
        )
        self.attempted = 0
        self.failed = 0
        self.reasons: dict[str, int] = {}

    def warm_up(self) -> None:
        """Untimed short run so lazy imports and first-call costs are paid."""
        small = dataclasses.replace(
            self.cfg, n_seeds=1, n_episodes=max(1, self.cfg.n_episodes // 10)
        )
        self.harness.run_experiment(small)

    def repeat(self, tracer=None) -> Repeat | None:
        """One checked repeat; None when it raised."""
        n = self.cfg.n_seeds
        self.attempted += n
        try:
            if tracer is None:
                rep = run_once(self.config, self.harness, self.text)
            else:
                with tracing.installed(tracer):
                    rep = run_once(self.config, self.harness, self.text)
        except Exception:  # a broken run is counted, reported and survived
            traceback.print_exc(file=sys.stderr)
            self._charge({s: "raised" for s in range(n)})
            return None
        failures = seed_failures(rep.csv, rep.cfg)
        sha = digest(rep.csv)
        if self.expected is None:
            # Unrecorded seed: every repeat, traced or not, must agree with the first.
            self.expected, self.digest_note = sha, self.digest_note + "; repeats compared"
        elif sha != self.expected:
            failures = {s: failures.get(s, "digest mismatch") for s in range(n)}
        self._charge(failures)
        return rep

    def _charge(self, failures: dict[int, str]) -> None:
        self.failed += len(failures)
        for reason in failures.values():
            self.reasons[reason] = self.reasons.get(reason, 0) + 1


def rounds(seconds: float, started: float):
    """Yield once per round until the next round would overrun ``seconds``."""
    deadline = time.perf_counter() + seconds
    while True:
        begun = time.perf_counter()
        yield
        now = time.perf_counter()
        if now + (now - begun) > deadline or now - started > HARD_LIMIT_S:
            return


def describe(values: list[float], unit: str) -> str:
    """Median, quartiles and the tail by the percentile rule."""
    text = f"n={len(values)} median={statistics.median(values):.6g} {unit}"
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        text += f" q1={q1:.6g} q3={q3:.6g}"
    tail = tracing.tail_percentile(values)
    text += f" p{tail[0]:g}={tail[1]:.6g}" if tail else " tail: too few samples"
    return text


def timed_run(args, runner: Runner, started: float) -> tuple[dict, list[str]]:
    reference_work()  # warm-up
    setup, raw_setup = measure_setup(runner.text)
    runner.warm_up()
    episodes = runner.cfg.n_seeds * runner.cfg.n_episodes
    rates, raw, refs = [], [], [reference_work()]
    for _ in rounds(args.seconds, started):
        rep = runner.repeat()
        refs.append(reference_work())
        if rep is not None:
            rates.append(episodes / rep.wall_s * host_slowdown(refs[-2], refs[-1]))
            raw.append(episodes / rep.wall_s)
    if not rates:
        fail("every repeat raised; no timing to report")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "episodes_per_s": statistics.median(rates),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_mb,
    }
    notes = [
        f"episodes_per_s: {describe(rates, 'episodes/s')}",
        f"uncorrected episodes_per_s: {describe(raw, 'episodes/s')}",
        f"reference_work: {describe(refs, 's')} (REFERENCE_S {REFERENCE_S:g} s)",
        f"setup_s: {describe(setup, 's')}",
        f"uncorrected setup_s: {describe(raw_setup, 's')}",
    ]
    return metrics, notes


def traced_run(args, runner: Runner, started: float) -> tuple[dict, list[str]]:
    runner.warm_up()
    plain, traced, layers = [], [], []
    last = None
    for _ in rounds(args.seconds, started):
        rep = runner.repeat()
        if rep is not None:
            plain.append(rep.wall_s)
        tracer = tracing.Tracer()
        rep = runner.repeat(tracer)
        if rep is not None:
            traced.append(rep.wall_s)
            layers.append(tracing.layer_metrics(tracer, rep.wall_s, rep.csv_s, rep.parse_s))
            last = (tracer, rep.wall_s)
    if not plain or not traced:
        fail("every repeat raised; no timing to report")
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    metrics["trace_overhead"] = statistics.median(traced) / statistics.median(plain) - 1.0
    tracer, wall = last
    notes = write_spans(tracer, args)
    if tracer.missing:
        notes.append(f"hooks not found (their metrics read 0): {', '.join(tracer.missing)}")
    shares = tracing.self_shares(tracer, wall)
    by_module: dict[str, float] = {}
    for name, share in shares.items():
        module = name.rpartition(".")[0]
        by_module[module] = by_module.get(module, 0.0) + share
    notes.append("self-time share of wall by module: " + ", ".join(
        f"{m} {s:.3f}" for m, s in sorted(by_module.items(), key=lambda kv: -kv[1])))
    notes.append("self-time share of wall by span: " + ", ".join(
        f"{n} {s:.3f}" for n, s in list(shares.items())[:8]))
    notes.append(f"traced pairs: {len(traced)}; plain wall {describe(plain, 's')}; "
                 f"traced wall {describe(traced, 's')}")
    return metrics, notes


def write_spans(tracer, args) -> list[str]:
    """Write the last traced repeat's coarse spans; summarize their durations."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv"
    origin = min((start for _, _, start, _ in tracer.records), default=0)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("name,parent,start_ns,end_ns\n")
        for name, parent, start, end in tracer.records:
            fh.write(f"{name},{parent},{start - origin},{end - origin}\n")
    notes = [f"coarse spans written to {path.relative_to(ROOT)}"]
    for name in sorted(tracing.COARSE):
        durations = tracer.durations_s(name)
        if durations:
            notes.append(f"span {name}: {describe(durations, 's')}")
    return notes


def run_workload(args) -> int:
    started = time.perf_counter()
    pin_blas_threads()
    load_before = os.getloadavg()
    api = load_api()  # fails early, before any work, outside a checkout
    blas = blas_info()
    runner = Runner(api, args.workload, args.seed, blas["core"])
    if args.trace:
        values, notes = traced_run(args, runner, started)
        units = {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
    else:
        values, notes = timed_run(args, runner, started)
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
    print("# header " + json.dumps(run_header(args, blas, load_before), sort_keys=True))
    print(f"# output check: {runner.digest_note}; "
          f"failed_frac {runner.failed / runner.attempted:.6g} "
          f"({runner.failed} of {runner.attempted} seed runs)"
          + (f"; reasons {runner.reasons}" if runner.reasons else ""))
    for note in notes:
        print(f"# {note}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in fresh processes, untraced then traced; one table."""
    status = 0
    results: dict[tuple[str, int], dict] = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
            lines = proc.stdout.strip().splitlines()
            for line in lines[:-1]:
                print(f"[{workload} trace={trace}] {line}")
            if proc.returncode != 0 or not lines:
                print(f"[{workload} trace={trace}] exited {proc.returncode}:\n{proc.stderr}")
                status = 1
                continue
            result = json.loads(lines[-1])
            results[(workload, trace)] = result
            if not result["correct"]:
                status = 1
    print()
    print(f"{'workload':<20} {'metric':<16} {'value':>14} unit")
    for workload in WORKLOADS:
        result = results.get((workload, 0))
        if result is None:
            continue
        for name, m in result["metrics"].items():
            print(f"{workload:<20} {name:<16} {m['value']:>14.6g} {m['unit']}")
        frac = result["failed"] / result["attempted"]
        print(f"{workload:<20} {'failed_frac':<16} {frac:>14.6g} ratio "
              f"({result['failed']} of {result['attempted']} seed runs)")
    print()
    print(f"{'per-layer metric':<36}" + "".join(f"{w:>19}" for w in WORKLOADS) + "  unit")
    for name, (unit, _) in tracing.PER_LAYER.items():
        row = ""
        for workload in WORKLOADS:
            result = results.get((workload, 1))
            row += f"{result['metrics'][name]['value']:>19.6g}" if result else f"{'-':>19}"
        print(f"{name:<36}{row}  {unit}")
    return status


def parse_seeds(spec: str) -> list[int]:
    seeds: list[int] = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def record_digests(spec: str) -> int:
    """Recompute and store the output digest of every workload at each seed."""
    pin_blas_threads()
    config, harness = load_api()
    import numpy as np

    table: dict[str, dict[str, str]] = {}
    for workload in WORKLOADS:
        table[workload] = {}
        for seed in parse_seeds(spec):
            rep = run_once(config, harness, workload_text(workload, seed))
            failures = seed_failures(rep.csv, rep.cfg)
            if failures:
                fail(f"{workload} seed {seed} breaks an invariant: {failures}")
            table[workload][str(seed)] = digest(rep.csv)
        print(f"{workload}: {len(table[workload])} digests", file=sys.stderr)
    meta = {
        "blas_core": blas_info()["core"],
        "numpy": np.__version__,
        "python": platform.python_version(),
        "src_sha256": source_digest(),
    }
    with open(DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "digests": table}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help=f"one of {', '.join(WORKLOADS)}, or 'all'")
    parser.add_argument("--seed", type=int, default=0, help="master seed of the workload")
    parser.add_argument("--seconds", type=float, default=10.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--record-digests", metavar="SEEDS",
                        help="re-record output digests for seeds such as 0-63")
    args = parser.parse_args(argv)
    if args.record_digests:
        return record_digests(args.record_digests)
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or 'all'")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
