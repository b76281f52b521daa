"""Output check for the benchmark's result CSVs.

Two layers: the sha256 of the whole ``format_csv`` text against a
digest recorded with the benchmark (``digests.json``), and invariants
that hold whatever the digest: the configured episode grid, finite
rewards inside each benchmark's analytic range, and monotone blackbox
curves. A failure is charged to the seed runs it concerns.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"


def digest(csv_text: str) -> str:
    return hashlib.sha256(csv_text.encode("utf-8")).hexdigest()


def reward_range(kind: str, horizon: int) -> tuple[float, float] | None:
    """Bounds of one episode's total reward, or None where unbounded."""
    if kind == "luby":
        return (-float(horizon), float(horizon))
    if kind in ("counting", "sigmoid", "sigmoidmva"):
        return (0.0, float(horizon))
    return None  # fuzzy: normal rewards, only finiteness is checked


def seed_failures(csv_text: str, cfg) -> dict[int, str]:
    """Seed runs whose rows break an invariant, with the first reason.

    A defect that cannot be pinned on one seed run (a bad header, an
    unknown seed, a malformed row) is charged to every seed run.
    """
    every = range(cfg.n_seeds)
    lines = csv_text.splitlines()
    if not lines or lines[0] != "benchmark,agent,seed,episode,phase,eval_reward,wall_time_ms":
        return {s: "bad CSV header" for s in every}
    bounds = reward_range(cfg.benchmark.kind, cfg.benchmark.resolved_horizon)
    seen: dict[int, dict[str, list[tuple[int, float]]]] = {
        s: {"train": [], "test": []} for s in every
    }
    failures: dict[int, str] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        cols = line.split(",")
        try:
            bench, agent, seed, episode, phase, reward = (
                cols[0], cols[1], int(cols[2]), int(cols[3]), cols[4], float(cols[5])
            )
        except (IndexError, ValueError):
            return {s: f"line {lineno}: malformed row" for s in every}
        if len(cols) != 7 or seed not in seen or phase not in ("train", "test"):
            return {s: f"line {lineno}: unexpected row {line!r}" for s in every}
        if bench != cfg.benchmark.kind or agent != cfg.agent_kind:
            failures.setdefault(seed, f"line {lineno}: wrong benchmark or agent")
        if not math.isfinite(reward):
            failures.setdefault(seed, f"line {lineno}: non-finite reward")
        elif bounds is not None and not bounds[0] <= reward <= bounds[1]:
            failures.setdefault(seed, f"line {lineno}: reward {reward} outside {bounds}")
        seen[seed][phase].append((episode, reward))

    n = cfg.n_episodes
    train_grid = list(range(cfg.train_eval_every, n + 1, cfg.train_eval_every))
    has_test = cfg.instance_mode == "fixed" and cfg.agent_kind != "blackbox"
    test_grid = list(range(cfg.test_eval_every, n + 1, cfg.test_eval_every)) if has_test else []
    for seed, phases in seen.items():
        if [e for e, _ in phases["train"]] != train_grid:
            failures.setdefault(seed, "train episodes differ from the configured grid")
        if [e for e, _ in phases["test"]] != test_grid:
            failures.setdefault(seed, "test episodes differ from the configured grid")
        if cfg.agent_kind == "blackbox":
            rewards = [r for _, r in phases["train"]]
            if any(b < a for a, b in zip(rewards, rewards[1:])):
                failures.setdefault(seed, "blackbox best-so-far curve decreases")
    return failures


def load_digests() -> dict:
    """``{"meta": {...}, "digests": {workload: {seed: sha256}}}``."""
    if not DIGESTS_PATH.exists():
        return {"meta": {}, "digests": {}}
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def expected_digest(recorded: dict, workload: str, seed: int,
                    uses_blas: bool, blas_core: str) -> tuple[str | None, str]:
    """The recorded digest to compare with, or None and the reason why not.

    Matrix products may round differently on another BLAS kernel, so a
    digest of a workload that uses the network is only compared on the
    kernel it was recorded on.
    """
    sha = recorded.get("digests", {}).get(workload, {}).get(str(seed))
    if sha is None:
        return None, f"no digest recorded for seed {seed}"
    recorded_core = recorded.get("meta", {}).get("blas_core")
    if uses_blas and recorded_core != blas_core:
        return None, f"recorded on BLAS core {recorded_core}, running on {blas_core}"
    return sha, "recorded digest"
