"""Save/load of learned agent state.

Snapshots are plain text: a versioned header of ``key value`` metadata
lines, a ``records N`` line, then N tab-separated key/value records in
sorted key order. Q-tables store one record per action of every stored
state row, keyed ``state|action``; a reader also accepts files that
store only some actions of a state (the others read as 0). Networks
store one record per parameter element. Floats round-trip exactly via
repr. Loading rebuilds the agent itself, so a replay acts through the
same ``greedy_action`` as training. A malformed snapshot raises
ContractError naming the line.
"""

from __future__ import annotations

import io
from typing import TextIO

import numpy as np

from ..core import ContractError
from .dqn import HIDDEN_UNITS, DQNAgent, MLPQNet
from .tabular import QTable, TabularAgent

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


def _write_header(out: TextIO, agent_kind: str, meta: dict[str, str]) -> None:
    out.write(f"{FORMAT_TAG} v{FORMAT_VERSION}\n")
    out.write(f"agent {agent_kind}\n")
    for key in sorted(meta):
        out.write(f"{key} {meta[key]}\n")


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


def save_tabular(agent: TabularAgent, out: TextIO) -> None:
    _write_header(
        out,
        agent.kind,
        {
            "action_count": str(agent.action_count),
            "episodes_trained": str(agent.episodes_trained),
        },
    )
    records = sorted(
        (f"{_encode_state_key(s)}|{a}", repr(v))
        for s, row in agent.q.rows.items()
        for a, v in enumerate(row)
    )
    out.write(f"records {len(records)}\n")
    for key, value in records:
        out.write(f"{key}\t{value}\n")


def save_dqn(agent: DQNAgent, out: TextIO) -> None:
    _write_header(
        out,
        agent.kind,
        {
            "action_count": str(agent.action_count),
            "horizon": str(agent.horizon),
            "input_dim": str(agent.input_dim),
            "hidden": str(agent.net.hidden),
            "context_scales": ",".join(repr(float(s)) for s in agent.context_scales),
            "episodes_trained": str(agent.episodes_trained),
        },
    )
    records: list[tuple[str, str]] = []
    for name, array in zip(("w1", "b1", "w2", "b2"), agent.net.parameters()):
        flat = array.ravel()
        for i, v in enumerate(flat):
            records.append((f"{name}/{i:06d}", repr(float(v))))
    records.sort()
    out.write(f"records {len(records)}\n")
    for key, value in records:
        out.write(f"{key}\t{value}\n")


def save_agent(agent, path: str) -> None:
    buf = io.StringIO()
    if isinstance(agent, TabularAgent):
        save_tabular(agent, buf)
    elif isinstance(agent, DQNAgent):
        save_dqn(agent, buf)
    else:
        raise ContractError(f"cannot snapshot agent of type {type(agent).__name__}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(buf.getvalue())


def load_snapshot(path: str) -> TabularAgent | DQNAgent:
    """Rebuild the agent a snapshot holds, ready for ``greedy_action``."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    kind, meta, start = _read_header(lines)
    count_text = lines[start].partition(" ")[2].strip()
    if not _is_count(count_text):
        raise ContractError(
            f"snapshot line {start + 1}: record count {count_text!r} is not an integer"
        )
    n_records = int(count_text)
    body = lines[start + 1 : start + 1 + n_records]
    if len(body) != n_records:
        raise ContractError(
            f"snapshot truncated: expected {n_records} records, found {len(body)}"
        )
    if kind in TabularAgent.KINDS:
        agent = TabularAgent(kind, _meta_int(meta, "action_count"))
        _read_records(body, start + 2, lambda key, value: _set_q(agent.q, key, value))
        return agent
    if kind == "dqn":
        input_dim = _meta_int(meta, "input_dim")
        action_count = _meta_int(meta, "action_count")
        hidden = _meta_int(meta, "hidden", HIDDEN_UNITS)
        arrays = {
            "w1": np.zeros(input_dim * hidden),
            "b1": np.zeros(hidden),
            "w2": np.zeros(hidden * action_count),
            "b2": np.zeros(action_count),
        }
        _read_records(body, start + 2, lambda key, value: _set_param(arrays, key, value))
        scales_text = meta.get("context_scales", "")
        try:
            scales = (
                tuple(float(s) for s in scales_text.split(","))
                if scales_text
                else (1.0,) * (input_dim - 1)
            )
        except ValueError:
            raise ContractError(
                f"snapshot header line 'context_scales': {scales_text!r} is not a list of numbers"
            ) from None
        agent = DQNAgent(
            action_count=action_count,
            horizon=_meta_int(meta, "horizon"),
            context_dim=input_dim - 1,
            total_episodes=1,
            context_scales=scales,
        )
        net = MLPQNet(input_dim, action_count, np.random.default_rng(0), hidden=hidden)
        net.w1 = arrays["w1"].reshape(input_dim, hidden)
        net.b1 = arrays["b1"]
        net.w2 = arrays["w2"].reshape(hidden, action_count)
        net.b2 = arrays["b2"]
        agent.net, agent.target_net = net, net.clone()
        return agent
    raise ContractError(f"snapshot for unknown agent kind {kind!r}")


def _read_records(body: list[str], first_lineno: int, store) -> None:
    """Pass each ``key<TAB>value`` record to ``store(key, value)``; a
    record that does not parse raises ContractError naming its line."""
    for lineno, line in enumerate(body, start=first_lineno):
        key_text, _, value_text = line.partition("\t")
        try:
            store(key_text, float(value_text))
        except (ValueError, KeyError, IndexError):
            raise ContractError(f"snapshot line {lineno}: malformed record {line!r}") from None


def _set_q(q: QTable, key_text: str, value: float) -> None:
    state_text, _, action_text = key_text.rpartition("|")
    action = int(action_text)
    if not 0 <= action < q.action_count:
        raise IndexError(action)
    q.set(_decode_state_key(state_text), action, value)


def _set_param(arrays: dict[str, np.ndarray], key_text: str, value: float) -> None:
    name, _, index_text = key_text.partition("/")
    array = arrays[name]
    index = int(index_text)
    if not 0 <= index < len(array):
        raise IndexError(index)
    array[index] = value
