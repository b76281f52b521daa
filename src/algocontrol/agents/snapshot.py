"""Save/load of learned agent state.

Snapshots are plain text: a versioned header of ``key value`` metadata
lines, a ``records N`` line, then N tab-separated key/value records in
sorted key order. A reader skips header lines it does not use, such as
the ``episodes_trained`` line of older files. Q-tables store one record
per action of every stored state row, keyed ``state|action``; a reader
also accepts files that store only some actions of a state (the others
read as 0). Networks store one record per parameter element, each
required. Floats round-trip exactly via repr. Loading rebuilds the agent
itself, so a replay acts through the same ``greedy_action`` as training.
A malformed snapshot (a value that is not finite, a repeated record)
raises ContractError naming the line, as does a line after the last
record; a missing network element raises it naming the element.
"""

from __future__ import annotations

import math

import numpy as np

from ..core import ContractError
from .dqn import HIDDEN_UNITS, DQNAgent, MLPQNet
from .tabular import TabularAgent

FORMAT_TAG = "algocontrol-snapshot"
FORMAT_VERSION = 1


def _encode_state_key(key: tuple) -> str:
    t, continuous, history = key
    cont = ",".join(str(int(v)) for v in continuous)
    hist = ",".join(str(int(v)) for v in history)
    return f"{t}|{cont}|{hist}"

def _decode_state_key(text: str) -> tuple:
    t_part, cont_part, hist_part = text.split("|")
    cont = tuple(int(v) for v in cont_part.split(",")) if cont_part else ()
    hist = tuple(int(v) for v in hist_part.split(",")) if hist_part else ()
    return (int(t_part), cont, hist)


def _read_header(lines: list[str]) -> tuple[str, dict[str, str], int]:
    if not lines or not lines[0].startswith(FORMAT_TAG):
        raise ContractError("not an algocontrol snapshot")
    version = lines[0].split("v")[-1].strip()
    if version != str(FORMAT_VERSION):
        raise ContractError(f"unsupported snapshot version {version!r}")
    meta: dict[str, str] = {}
    i = 1
    while i < len(lines) and not lines[i].startswith("records "):
        key, _, value = lines[i].partition(" ")
        meta[key] = value.strip()
        i += 1
    if i == len(lines):
        raise ContractError("snapshot has no records section")
    agent_kind = meta.pop("agent", "")
    return agent_kind, meta, i


def _is_count(text: str) -> bool:
    return text.isascii() and text.isdigit()


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def _meta_int(meta: dict[str, str], key: str, default: int | None = None) -> int:
    """A positive integer header field; ``default`` when absent, if given."""
    text = meta.get(key)
    if text is None:
        if default is None:
            raise ContractError(f"snapshot header has no {key!r} line")
        return default
    if not _is_count(text) or int(text) < 1:
        raise ContractError(f"snapshot header line {key!r}: {text!r} is not a positive integer")
    return int(text)


def save_agent(agent, path: str) -> None:
    """Write a tabular or DQN agent to ``path``; records sort by key. A value
    that is not finite raises ContractError naming its record."""
    if isinstance(agent, TabularAgent):
        meta = {"action_count": str(agent.action_count)}
        records = [
            (f"{_encode_state_key(s)}|{a}", repr(v))
            for s, row in agent.q.items()
            for a, v in enumerate(row)
        ]
    elif isinstance(agent, DQNAgent):
        meta = {
            "action_count": str(agent.action_count),
            "horizon": str(agent.horizon),
            "input_dim": str(agent.input_dim),
            "hidden": str(agent.net.hidden),
            "context_scales": ",".join(repr(float(s)) for s in agent.context_scales),
        }
        records = [
            (f"{name}/{i:06d}", repr(float(v)))
            for name, array in zip(("w1", "b1", "w2", "b2"), agent.net.parameters())
            for i, v in enumerate(array.ravel())
        ]
    else:
        raise ContractError(f"cannot snapshot agent of type {type(agent).__name__}")
    records.sort()
    for key, value in records:  # before ``open``: a refused agent leaves no file
        if not math.isfinite(float(value)):
            raise ContractError(f"cannot save {path}: record {key} is {value}, not finite")
    lines = [f"{FORMAT_TAG} v{FORMAT_VERSION}", f"agent {agent.kind}"]
    lines += [f"{key} {meta[key]}" for key in sorted(meta)]
    lines.append(f"records {len(records)}")
    lines += [f"{key}\t{value}" for key, value in records]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_snapshot(path: str) -> TabularAgent | DQNAgent:
    """Rebuild the agent a snapshot holds, ready for ``greedy_action``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = fh.read().splitlines()
        except UnicodeDecodeError as exc:
            raise ContractError(f"{path}: snapshot is not UTF-8 text ({exc})") from None
    kind, meta, start = _read_header(lines)
    count_text = lines[start].partition(" ")[2].strip()
    if not _is_count(count_text):
        raise ContractError(
            f"snapshot line {start + 1}: record count {count_text!r} is not an integer"
        )
    n_records = int(count_text)
    end = start + 1 + n_records
    body = lines[start + 1 : end]
    if len(body) != n_records:
        raise ContractError(
            f"snapshot truncated: expected {n_records} records, found {len(body)}"
        )
    if end < len(lines):
        raise ContractError(f"snapshot line {end + 1}: {lines[end]!r} follows the last record")
    if kind in TabularAgent.KINDS:
        agent = TabularAgent(kind, _meta_int(meta, "action_count"))
        _read_records(body, start + 2, lambda key, value: _set_q(agent, key, value))
        return agent
    if kind == "dqn":
        input_dim = _meta_int(meta, "input_dim")
        action_count = _meta_int(meta, "action_count")
        hidden = _meta_int(meta, "hidden", HIDDEN_UNITS)
        net = MLPQNet(input_dim, action_count, hidden=hidden)  # NaN: no record has set it
        arrays = dict(zip(("w1", "b1", "w2", "b2"), (p.reshape(-1) for p in net.parameters())))
        _read_records(body, start + 2, lambda key, value: _set_param(arrays, key, value))
        unset = [f"{n}/{i:06d}" for n, a in arrays.items() for i in np.flatnonzero(np.isnan(a))]
        if unset:
            raise ContractError(f"snapshot has no record for {unset[0]}")
        scales_text = meta.get("context_scales", "")
        try:
            scales = tuple(_finite(s) for s in scales_text.split(",")) if scales_text else None
        except ValueError:
            raise ContractError(
                f"snapshot header line 'context_scales': {scales_text!r} is not a list of "
                "finite numbers"
            ) from None
        return DQNAgent(
            action_count=action_count,
            horizon=_meta_int(meta, "horizon"),
            context_dim=input_dim - 1,
            total_episodes=1,
            context_scales=scales,
            net=net,
        )
    raise ContractError(f"snapshot for unknown agent kind {kind!r}")


def _read_records(body: list[str], first_lineno: int, store) -> None:
    """Pass each ``key<TAB>value`` record to ``store(key, value)``, which returns
    the slot it set; a bad or repeated record raises ContractError naming its line."""
    seen = set()
    for lineno, line in enumerate(body, start=first_lineno):
        key_text, _, value_text = line.partition("\t")
        try:
            slot = store(key_text, _finite(value_text))
        except (ValueError, KeyError, IndexError):
            raise ContractError(f"snapshot line {lineno}: malformed record {line!r}") from None
        if slot in seen:
            raise ContractError(f"snapshot line {lineno}: repeated record {line!r}")
        seen.add(slot)


def _set_q(agent: TabularAgent, key_text: str, value: float) -> tuple:
    state_text, _, action_text = key_text.rpartition("|")
    state, action = _decode_state_key(state_text), int(action_text)
    if not 0 <= action < agent.action_count:
        raise IndexError(action)
    agent.q.setdefault(state, [0.0] * agent.action_count)[action] = value
    return state, action


def _set_param(arrays: dict[str, np.ndarray], key_text: str, value: float) -> tuple:
    name, _, index_text = key_text.partition("/")
    array = arrays[name]
    index = int(index_text)
    if not 0 <= index < len(array):
        raise IndexError(index)
    array[index] = value
    return name, index
