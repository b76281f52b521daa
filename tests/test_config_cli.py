"""Config parsing, rendering round-trips, and the CLI surface."""

from pathlib import Path

import pytest

from algocontrol.cli import main
from algocontrol.config import FIELDS, apply_overrides, parse_config, render_config
from algocontrol.harness import ConfigError
from test_golden import case_text, valid_cases

WORKLOADS = sorted((Path(__file__).parents[1] / "perfbench" / "workloads").glob("*.ini"))

MINIMAL = """\
[benchmark]
kind = counting

[agent]
kind = qlearn

[harness]
episodes = 1000
"""

FUZZY = """\
[benchmark]
kind = fuzzy
horizon = 20

[agent]
kind = qlearn

[harness]
episodes = 200
"""


# One value just outside each range AgentHyperparams checks.
BAD_HYPERPARAMS = [
    ("dqn_lr", "0"),
    ("dqn_lr", "-1"),
    ("target_sync_every", "0"),
    ("buffer_capacity", "0"),
    ("batch_size", "-3"),
    ("eps_decay_fraction", "0"),
    ("eps_decay_fraction", "1.5"),
]


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.n_seeds == 25
        assert cfg.hp.gamma == 0.99
        assert cfg.hp.epsilon == 0.1
        assert cfg.smoothing_window == 10
        assert cfg.benchmark.resolved_horizon == 5
        assert cfg.instance_mode == "none"
        assert cfg.eval_runs == 1

    def test_alpha_defaults_by_reward_noise(self):
        assert parse_config(MINIMAL).hp.alpha == 1.0
        assert parse_config(FUZZY).hp.alpha == 0.1

    def test_gamma_out_of_range(self):
        text = MINIMAL.replace("kind = qlearn", "kind = qlearn\ngamma = 1.5")
        with pytest.raises(ConfigError, match="gamma"):
            parse_config(text)

    @pytest.mark.parametrize("key,value", BAD_HYPERPARAMS)
    def test_hyperparameter_out_of_range(self, key, value):
        text = MINIMAL.replace("kind = qlearn", f"kind = qlearn\n{key} = {value}")
        with pytest.raises(ConfigError, match=key):
            parse_config(text)

    def test_unknown_key_names_line(self):
        text = MINIMAL + "turbo = on\n"
        with pytest.raises(ConfigError, match=r"line 9.*turbo"):
            parse_config(text)

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="episodes"):
            parse_config(MINIMAL.replace("episodes = 1000", ""))

    def test_type_error_names_key_and_line(self):
        text = MINIMAL.replace("episodes = 1000", "episodes = soon")
        with pytest.raises(ConfigError, match=r"line 8.*episodes.*int"):
            parse_config(text)

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match=r"line 1.*cluster"):
            parse_config("[cluster]\nnodes = 4\n" + MINIMAL)

    def test_override_n_seeds(self):
        cfg = parse_config(apply_overrides(MINIMAL, ["harness.n_seeds=3"]))
        assert cfg.n_seeds == 3

    def test_override_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            apply_overrides(MINIMAL, ["harness.nodes=4"])

    def test_roundtrip(self):
        for text in (MINIMAL, FUZZY):
            cfg = parse_config(text)
            assert parse_config(render_config(cfg)) == cfg

    def test_roundtrip_with_overrides(self):
        cfg = parse_config(
            apply_overrides(MINIMAL, ["harness.n_seeds=7", "agent.epsilon=0.2"])
        )
        assert parse_config(render_config(cfg)) == cfg

    @pytest.mark.parametrize("case", valid_cases(), ids="-".join)
    def test_roundtrip_every_valid_case(self, case):
        cfg = parse_config(case_text(*case))
        assert parse_config(render_config(cfg)) == cfg

    def test_roundtrip_every_workload(self):
        assert WORKLOADS
        for path in WORKLOADS:
            cfg = parse_config(path.read_text())
            assert parse_config(render_config(cfg)) == cfg, path.name

    def test_override_accepts_every_table_key(self):
        cfg = parse_config(MINIMAL)
        for section, key in FIELDS:
            text = apply_overrides(render_config(cfg), [f"{section}.{key}=x"])
            assert f"{key} = x" in text.split(f"[{section}]")[1].split("[")[0]

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_workers_out_of_range(self, value):
        with pytest.raises(ConfigError, match="workers"):
            parse_config(MINIMAL + f"workers = {value}\n")


class TestCliRun:
    def _write(self, tmp_path, text):
        path = tmp_path / "exp.ini"
        path.write_text(text)
        return str(path)

    def test_run_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "res.csv"
        config = self._write(
            tmp_path,
            MINIMAL.replace("episodes = 1000", "episodes = 5\nn_seeds = 2"),
        )
        code = main(["run", config, "--output", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "benchmark,agent,seed,episode,phase,eval_reward,wall_time_ms"
        assert len(lines) == 1 + 2 * 5

    def test_missing_config_is_io_error(self, capsys):
        assert main(["run", "/no/such/file.ini"]) == 4
        assert capsys.readouterr().err.startswith("E-IO:")

    def test_bad_config_exit_code(self, tmp_path, capsys):
        config = self._write(tmp_path, MINIMAL.replace("counting", "chess"))
        assert main(["run", config]) == 2
        assert capsys.readouterr().err.startswith("E-CONFIG:")

    @pytest.mark.parametrize("key,value", BAD_HYPERPARAMS)
    def test_bad_hyperparameter_is_one_config_line(self, tmp_path, capsys, key, value):
        config = self._write(
            tmp_path, MINIMAL.replace("kind = qlearn", f"kind = qlearn\n{key} = {value}")
        )
        assert main(["run", config]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("E-CONFIG:") and key in err[0]

    def test_bad_workers_is_one_config_line(self, tmp_path, capsys):
        config = self._write(tmp_path, MINIMAL + "workers = -5\n")
        assert main(["run", config]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("E-CONFIG:") and "workers" in err[0]

    def test_seed_env_var_changes_results(self, tmp_path, capsys, monkeypatch):
        config = self._write(
            tmp_path,
            MINIMAL.replace("episodes = 1000", "episodes = 5\nn_seeds = 1"),
        )
        main(["run", config, "-v"])
        base = capsys.readouterr().out
        monkeypatch.setenv("DACBENCH_SEED", "4242")
        main(["run", config, "-v"])
        overridden = capsys.readouterr().out
        assert "seed = 0" in base
        assert "seed = 4242" in overridden

    def test_bad_seed_env_var(self, tmp_path, capsys, monkeypatch):
        config = self._write(tmp_path, MINIMAL)
        monkeypatch.setenv("DACBENCH_SEED", "not-a-number")
        assert main(["run", config]) == 2


class TestCliBenchInfo:
    def test_luby_info(self, capsys):
        assert main(["bench-info", "luby", "--horizon", "32"]) == 0
        out = capsys.readouterr().out
        assert "action_count: 6" in out
        assert "horizon: 32" in out


class TestCliReport:
    CSV = (
        "benchmark,agent,seed,episode,phase,eval_reward,wall_time_ms\n"
        "counting,qlearn,0,1,train,5,0\n"
        "counting,qlearn,0,2,train,5,0\n"
        "counting,qlearn,1,1,train,5,0\n"
        "counting,qlearn,1,2,train,5,0\n"
    )

    def test_table_constant_five(self, tmp_path, capsys):
        path = tmp_path / "r.csv"
        path.write_text(self.CSV)
        assert main(["report", str(path), "--mode", "table"]) == 0
        assert "qlearn: 5.000 ± 0.000" in capsys.readouterr().out

    def test_plotdata_two_agents_share_grid(self, tmp_path, capsys):
        path = tmp_path / "r.csv"
        path.write_text(self.CSV + self.CSV.replace("qlearn", "urs").split("\n", 1)[1])
        assert main(["report", str(path), "--mode", "plotdata"]) == 0
        out = capsys.readouterr().out
        assert out.count("episode\tsmoothed_mean\tstderr") == 2
        assert "# agent qlearn" in out and "# agent urs" in out

    def test_report_deterministic(self, tmp_path, capsys):
        path = tmp_path / "r.csv"
        path.write_text(self.CSV)
        main(["report", str(path)])
        first = capsys.readouterr().out
        main(["report", str(path)])
        assert capsys.readouterr().out == first

    def test_empty_csv_rejected(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("benchmark,agent,seed,episode,phase,eval_reward,wall_time_ms\n")
        assert main(["report", str(path)]) == 3

    def test_schema_mismatch_lists_columns(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("foo,bar\n1,2\n")
        assert main(["report", str(path)]) == 3
        assert "foo" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "row,reason",
        [
            ("luby,qlearn,0", "expected 7 fields, got 3"),
            ("counting,qlearn,x,1,train,5,0", "'x'"),
            ("counting,qlearn,0,1,train,five,0", "'five'"),
            ("counting,qlearn,0,1,train,nan,0", "'nan' is not finite"),
            ("counting,qlearn,0,1,train,-inf,0", "'-inf' is not finite"),
        ],
    )
    def test_bad_row_is_one_runtime_line(self, tmp_path, capsys, row, reason):
        path = tmp_path / "r.csv"
        path.write_text(self.CSV + row + "\n")
        assert main(["report", str(path)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("E-RUNTIME:")
        assert f"{path} line 6:" in err[0] and reason in err[0]

    def test_undecodable_csv_is_one_runtime_line(self, tmp_path, capsys):
        path = tmp_path / "r.csv"
        path.write_bytes(self.CSV.encode() + b"counting,\xff\n")
        assert main(["report", str(path)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"E-RUNTIME: {path}:")

    def test_svg_emission(self, tmp_path, capsys):
        csv_path = tmp_path / "r.csv"
        csv_path.write_text(self.CSV)
        svg_path = tmp_path / "chart.svg"
        assert main(["report", str(csv_path), "--svg", str(svg_path)]) == 0
        svg = svg_path.read_text()
        assert svg.startswith("<svg") and "polyline" in svg


class TestCliReplay:
    def test_counting_oracle_snapshot(self, tmp_path, capsys):
        from algocontrol.agents import AgentHyperparams, TabularAgent, save_agent
        from algocontrol.benchmarks import CountingEnv
        from algocontrol.core import CONTEXT_FREE, SeedSpec
        from algocontrol.harness import run_training_episode, derive_stream

        env = CountingEnv(5)
        agent = TabularAgent("qlearn", 5, hp=AgentHyperparams(alpha=1.0))
        rng = derive_stream(21, 0)
        for episode in range(3000):
            run_training_episode(
                agent, env, CONTEXT_FREE, SeedSpec(21, episode), rng, rng
            )
        snap = tmp_path / "counting.snap"
        save_agent(agent, str(snap))
        assert main(["replay", str(snap), "--benchmark", "counting", "--horizon", "5"]) == 0
        out = capsys.readouterr().out
        assert "total reward: 5" in out

    def test_luby_oracle_snapshot(self, tmp_path, capsys):
        from algocontrol.agents import AgentHyperparams, TabularAgent, save_agent
        from algocontrol.benchmarks import LubyEnv, luby_exponent
        from algocontrol.core import CONTEXT_FREE, SeedSpec
        from algocontrol.harness import run_training_episode, derive_stream

        env = LubyEnv(32)
        agent = TabularAgent("qlearn", 6, hp=AgentHyperparams(alpha=1.0))
        rng = derive_stream(22, 0)
        for episode in range(2000):
            run_training_episode(
                agent, env, CONTEXT_FREE, SeedSpec(22, episode), rng, rng
            )
        snap = tmp_path / "luby.snap"
        save_agent(agent, str(snap))
        assert main(["replay", str(snap), "--benchmark", "luby", "--horizon", "32"]) == 0
        out = capsys.readouterr().out
        actions = [
            int(line.split("action=")[1].split()[0])
            for line in out.splitlines()
            if "action=" in line
        ]
        assert actions == [luby_exponent(t) for t in range(1, 33)]
        assert "total reward: 32" in out

    def test_sigmoid_instance_switch(self, tmp_path, capsys):
        # an oracle table for instance (s=1, p=5): switch from 0 to 1 at t=5
        from algocontrol.agents import AgentHyperparams, TabularAgent, save_agent
        from algocontrol.agents.tabular import state_key
        from algocontrol.benchmarks import SigmoidEnv, sigmoid_reward
        from algocontrol.core import InstanceContext, SeedSpec

        env = SigmoidEnv(11)
        agent = TabularAgent("qlearn", 2, hp=AgentHyperparams(alpha=1.0))
        instance = InstanceContext(0, (1.0, 5.0))
        obs = env.reset(instance, SeedSpec(0, 0))
        while not env.done:
            s = state_key(obs)
            for a in (0, 1):
                agent.q.set(s, a, sigmoid_reward(obs.time_step, a, 1.0, 5.0))
            obs = env.step(0).observation
        snap = tmp_path / "sig.snap"
        save_agent(agent, str(snap))
        assert (
            main(
                [
                    "replay",
                    str(snap),
                    "--benchmark",
                    "sigmoid",
                    "--horizon",
                    "11",
                    "--instance",
                    "s=1,p=5",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        actions = [
            int(line.split("action=")[1].split()[0])
            for line in out.splitlines()
            if "action=" in line
        ]
        assert actions[:6] == [0] * 6  # ties at t=5 go to action 0
        assert actions[6:] == [1] * 5

    def test_dimension_mismatch_exit_code(self, tmp_path, capsys):
        from algocontrol.agents import TabularAgent, save_agent

        agent = TabularAgent("qlearn", 5)
        snap = tmp_path / "c.snap"
        save_agent(agent, str(snap))
        assert main(["replay", str(snap), "--benchmark", "luby", "--horizon", "32"]) == 3
        assert "expects" in capsys.readouterr().err

    def test_dqn_horizon_mismatch_exit_code(self, tmp_path, capsys):
        from algocontrol.agents import DQNAgent, save_agent
        from algocontrol.core import derive_stream

        agent = DQNAgent(action_count=2, horizon=11, context_dim=2, total_episodes=10,
                         rng=derive_stream(23, 0))
        snap = tmp_path / "dqn.snap"
        save_agent(agent, str(snap))
        argv = ["replay", str(snap), "--benchmark", "sigmoid", "--instance", "s=1,p=5"]
        assert main(argv + ["--horizon", "12"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("E-RUNTIME:") and "horizon" in err[0]
        assert main(argv + ["--horizon", "11"]) == 0

    def test_dqn_replay_matches_agent_rollout(self, tmp_path, capsys):
        from algocontrol.agents import AgentHyperparams, save_agent
        from algocontrol.benchmarks import BenchmarkConfig, SigmoidEnv
        from algocontrol.core import InstanceContext, SeedSpec
        from algocontrol.harness import ExperimentConfig, greedy_rollout, train_agent

        cfg = ExperimentConfig(
            benchmark=BenchmarkConfig("sigmoid", horizon=11),
            agent_kind="dqn",
            hp=AgentHyperparams(alpha=0.1),
            n_seeds=1,
            n_episodes=200,
            master_seed=9,
            instance_mode="fixed",
            n_train_instances=10,
            n_test_instances=5,
        )
        agent = train_agent(cfg, 0)
        snap = tmp_path / "dqn.snap"
        save_agent(agent, str(snap))
        instance = InstanceContext(0, (12.0, 5.0))
        expected = greedy_rollout(
            agent.greedy_action, SigmoidEnv(11), instance, SeedSpec(0, 0)
        )
        assert (
            main(
                [
                    "replay",
                    str(snap),
                    "--benchmark",
                    "sigmoid",
                    "--horizon",
                    "11",
                    "--instance",
                    "s=12,p=5",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        total = float(out.strip().splitlines()[-1].split(":")[1])
        assert total == pytest.approx(expected, abs=1e-6)
