"""Independent oracles shared by the unit and acceptance suites.

Each oracle deliberately recomputes its quantity by a different route
than the implementation under test: sequence construction by doubling,
dynamic programming by explicit enumeration, gradients by central
finite differences, training episodes through ``Environment.step``,
the best reward of a step from the benchmark's closed form.
"""

import numpy as np

from algocontrol.agents.dqn import MLPQNet
from algocontrol.agents.tabular import TabularAgent, q_update, state_key
from algocontrol.benchmarks import CountingEnv, sigmoid
from algocontrol.core import SeedSpec


def step_training_episode(agent, env, instance, seed, explore_rng, train_rng) -> float:
    """A training episode driven by ``Environment.step``, with each step's
    update applied before the next selection: the reference that
    ``run_training_episode``, which picks the whole path first, must equal,
    draw for draw and bit for bit. A tabular agent selects on the state key of
    each observation and ``q_update``s its table with each step as a segment of
    one transition, states ``[s, s_next]`` or, on the last step, ``[s]`` (PURS
    also records the step); the DQN selects on the observation, ``(t, instance,
    history)``, and writes one ring row per step, the per-step encoding of the
    observation and the next one."""
    select, step = agent.select_action, env.step
    obs = env.reset(instance, seed)
    total, done = 0.0, False
    while not done:
        if isinstance(agent, TabularAgent):
            s = state_key(obs)
            action = select(s, explore_rng)
            next_obs, reward, done = step(action)
            q_update(agent.q, [s] if done else [s, state_key(next_obs)], [action], [reward],
                     agent.hp, agent.action_count)
            if agent.kind == "purs":
                agent._episode.append((s, action))
        else:
            action = select(obs, explore_rng)
            next_obs, reward, done = step(action)
            agent.buffer.extend([_dqn_input(agent, obs)], [action], [reward],
                                [_dqn_input(agent, next_obs)], [done])
        total += reward
        obs = next_obs
    agent.end_episode(train_rng)
    return total


def _dqn_input(agent, obs) -> np.ndarray:
    """The DQN's input row for one observation: [t / T, *scaled features]."""
    return np.array([obs.time_step / agent.horizon,
                     *(np.asarray(obs.continuous_features) * agent.context_scales)])


def optimal_rewards(env, instance) -> list[float]:
    """The best reward of each step of an episode on ``instance``, from the
    benchmarks' closed forms: Counting plays t and Luby the exponents of its
    sequence, each paying 1.0; Sigmoid takes max(sig, 1 - sig), and SigmoidMVA
    its best level, 1 - |sig - a/L| at the level a/L closest to sig. Defined for
    the ``fixed_rewards`` benchmarks."""
    if env.kind in ("counting", "luby"):
        return [1.0] * env.horizon
    curve = [sigmoid(t, *instance) for t in range(env.horizon)]
    if env.kind == "sigmoid":
        return [max(v, 1.0 - v) for v in curve]
    levels = env.levels
    return [max(1.0 - abs(v - a / levels) for a in range(levels + 1)) for v in curve]


def luby_sequence_oracle(length: int) -> list[int]:
    """S(1) = [1]; S(k+1) = S(k) + S(k) + [2^k]; truncate to length."""
    seq = [1]
    k = 0
    while len(seq) < length:
        seq = seq + seq + [2 ** (k + 1)]
        k += 1
    return seq[:length]


def enumerate_counting_mdp(horizon: int) -> dict:
    """All (state, action) -> (reward, next_state, done) transitions of
    the Counting benchmark, collected by replaying action prefixes."""
    transitions = {}
    frontier = [()]
    for _ in range(horizon):
        next_frontier = []
        for prefix in frontier:
            for action in range(horizon):
                env = CountingEnv(horizon)
                obs = env.reset((), SeedSpec(0, 0))
                for past in prefix:
                    obs, _, _ = env.step(past)
                next_obs, reward, done = env.step(action)
                transitions[(state_key(obs), action)] = (reward, state_key(next_obs), done)
                if not done:
                    next_frontier.append(prefix + (action,))
        frontier = next_frontier
    return transitions


def value_iteration_oracle(transitions: dict, gamma: float) -> tuple[dict, dict]:
    """Exhaustive dynamic programming to the fixed point (DAG: a few
    sweeps suffice)."""
    q_star: dict = {}
    values: dict = {}
    for _ in range(10):
        for (s, a), (r, s_next, done) in transitions.items():
            bootstrap = 0.0 if done else values.get(s_next, 0.0)
            q_star[(s, a)] = r + gamma * bootstrap
        by_state: dict = {}
        for (s, a), v in q_star.items():
            by_state.setdefault(s, []).append(v)
        values = {s: max(vs) for s, vs in by_state.items()}
    return q_star, values


def random_gradcheck_case(rng: np.random.Generator, hidden: int = 5):
    """(net, target, batch), the batch an (obs, actions, rewards,
    next_obs, dones) tuple as a ``DQNGroup`` step takes, with ReLU
    preactivations and next-state argmax gaps bounded away from zero, so
    central finite differences never cross a non-differentiable point."""
    d, actions, batch_size = 3, 4, 6
    while True:
        net = MLPQNet(d, actions, rng, hidden=hidden)
        target = MLPQNet(d, actions, rng, hidden=hidden)
        batch = (
            rng.uniform(-2, 2, (batch_size, d)),  # obs
            rng.integers(actions, size=batch_size),  # actions
            rng.normal(size=batch_size),  # rewards
            rng.uniform(-2, 2, (batch_size, d)),  # next_obs
            (rng.random(batch_size) < 0.3).astype(float),  # dones
        )
        z1 = batch[0] @ net.w1 + net.b1
        next_q = _reference_forward(net, batch[3])  # training's next-state product
        top_two = np.sort(next_q, axis=1)[:, -2:]
        if np.min(np.abs(z1)) > 1e-3 and np.min(top_two[:, 1] - top_two[:, 0]) > 1e-3:
            return net, target, batch


def _reference_forward(net: MLPQNet, obs: np.ndarray) -> np.ndarray:
    """The network's two layers on a 2-D batch, computed without any of
    ``MLPQNet``'s own methods."""
    x = np.asarray(obs, dtype=float)
    h = np.maximum(x @ net.w1 + net.b1, 0.0)
    return h @ net.w2 + net.b2


def reference_loss_and_grads(net: MLPQNet, target_net: MLPQNet, batch: tuple, hp):
    """The double-DQN TD loss and its gradients with one fresh array per
    quantity: the reference for the SGD step's buffer-reusing form, which
    must match it bit for bit."""
    x, actions, rewards, next_obs, dones = batch
    n = x.shape[0]

    next_online = _reference_forward(net, next_obs)
    next_actions = np.argmax(next_online, axis=1)
    next_target = _reference_forward(target_net, next_obs)
    bootstrap = next_target[np.arange(n), next_actions]
    targets = rewards + hp.gamma * bootstrap * (1.0 - dones)

    z1 = x @ net.w1 + net.b1
    h = np.maximum(z1, 0.0)
    q = h @ net.w2 + net.b2
    chosen = q[np.arange(n), actions]

    diff = chosen - targets
    loss = float(np.mean(diff**2))

    dq = np.zeros_like(q)
    dq[np.arange(n), actions] = 2.0 * diff / n
    dw2 = h.T @ dq
    db2 = dq.sum(axis=0)
    dh = dq @ net.w2.T
    dh[z1 <= 0.0] = 0.0
    dw1 = np.ascontiguousarray(x).T @ dh
    db1 = dh.sum(axis=0)
    return loss, [dw1, db1, dw2, db2]


def reference_train_step(net: MLPQNet, target_net: MLPQNet, batch: tuple, hp) -> float:
    """One SGD step built from ``reference_loss_and_grads``."""
    loss, grads = reference_loss_and_grads(net, target_net, batch, hp)
    net.theta -= hp.dqn_lr * np.concatenate(grads, axis=None)
    return loss
