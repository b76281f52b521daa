"""Learners: tabular Q-learning family, context-oblivious baselines,
and a from-scratch double DQN."""

from .dqn import (
    DQNAgent,
    MLPQNet,
    ReplayBuffer,
    dqn_epsilon,
    dqn_loss_and_grads,
    dqn_train_step,
    sync_target,
)
from .snapshot import load_snapshot, save_agent
from .tabular import (
    AgentHyperparams,
    QTable,
    TabularAgent,
    TransitionStats,
    purs_select,
    q_update,
    record_transition,
    state_key,
)

AGENT_KINDS = ("qlearn", "urs", "gr", "purs", "dqn", "blackbox")

__all__ = [
    "AGENT_KINDS",
    "AgentHyperparams",
    "DQNAgent",
    "MLPQNet",
    "QTable",
    "ReplayBuffer",
    "TabularAgent",
    "TransitionStats",
    "dqn_epsilon",
    "dqn_loss_and_grads",
    "dqn_train_step",
    "load_snapshot",
    "purs_select",
    "q_update",
    "record_transition",
    "save_agent",
    "state_key",
    "sync_target",
]
