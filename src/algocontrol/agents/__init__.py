"""Learners: tabular Q-learning family, context-oblivious baselines,
and a from-scratch double DQN."""

from .dqn import (
    DQNAgent,
    MLPQNet,
    ReplayBuffer,
    dqn_train_step,
)
from .snapshot import load_snapshot, save_agent
from .tabular import (
    AgentHyperparams,
    TabularAgent,
    q_update,
    state_key,
)

AGENT_KINDS = TabularAgent.KINDS + ("dqn", "blackbox")

__all__ = [
    "AGENT_KINDS",
    "AgentHyperparams",
    "DQNAgent",
    "MLPQNet",
    "ReplayBuffer",
    "TabularAgent",
    "dqn_train_step",
    "load_snapshot",
    "q_update",
    "save_agent",
    "state_key",
]
