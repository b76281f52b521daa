"""Benchmarks and agents for the algorithm control problem: learning
per-timestep parameter policies for iterative algorithms, formulated as
a contextual MDP."""

from .benchmarks import (
    BenchmarkConfig,
    CountingEnv,
    FuzzyEnv,
    LubyEnv,
    SigmoidEnv,
    SigmoidInstance,
    SigmoidMVAEnv,
    counting_reward,
    luby_exponent,
    luby_value,
    make_env,
    make_instance_set,
    sample_sigmoid_instance,
    sigmoid,
    sigmoid_reward,
    sigmoidmva_reward,
)
from .blackbox import (
    IncumbentRecord,
    Schedule,
    blackbox_optimize,
    race,
    random_schedule,
)
from .core import (
    ActionId,
    ContractError,
    Environment,
    EnvSpec,
    EpisodeTrace,
    InstanceContext,
    Observation,
    SeedSpec,
    StepOutcome,
    derive_seed,
    derive_stream,
    greedy_rollout,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    aggregate,
    evaluate_on_test_set,
    run_experiment,
    smooth,
    train_and_evaluate,
    write_csv,
)

__version__ = "0.1.0"
