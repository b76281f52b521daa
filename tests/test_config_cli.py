"""Config parsing, rendering round-trips, and the CLI surface."""

import contextlib
import dataclasses
import io
import re
import string
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from algocontrol.agents import AGENT_KINDS, AgentHyperparams, DQNAgent, TabularAgent, save_agent
from algocontrol.benchmarks import BENCHMARK_KINDS, BenchmarkConfig, CountingEnv
from algocontrol.cli import main
from algocontrol.config import FIELDS, parse_config, render_config
from algocontrol.core import SeedSpec, derive_stream
from algocontrol.harness import (
    CSV_HEADER,
    INSTANCE_MODES,
    ConfigError,
    ExperimentConfig,
    curves_to_csv_rows,
    format_csv,
    run_experiment,
    run_training_episode,
)
from test_golden import case_path, case_text, valid_cases

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

SIGMOID = """\
[benchmark]
kind = sigmoid

[agent]
kind = qlearn

[harness]
episodes = 200
"""

# Every key at a value other than its default, the sigmoidmva-only levels too.
VARIANT = """\
[benchmark]
kind = sigmoidmva
horizon = 7
levels = 3

[agent]
kind = dqn
gamma = 0.9
epsilon = 0.2
alpha = 0.5
dqn_lr = 0.001
target_sync_every = 3
batch_size = 4
buffer_capacity = 100
eps_decay_fraction = 0.3

[harness]
episodes = 50
n_seeds = 3
seed = 9
instance_mode = fixed
train_instances = 4
test_instances = 2
eval_runs = 4
test_eval_every = 10
train_eval_every = 2
smoothing_window = 5
neighbor_fraction = 0.25
record_wall_time = true
workers = 2
output = variant.csv
"""

# One value outside each range AgentHyperparams and BenchmarkConfig check.
BAD_VALUES = [
    ("dqn_lr", "0"),
    ("dqn_lr", "-1"),
    ("dqn_lr", "inf"),
    ("target_sync_every", "0"),
    ("buffer_capacity", "0"),
    ("batch_size", "-3"),
    ("eps_decay_fraction", "0"),
    ("eps_decay_fraction", "1.5"),
    ("fuzzy_spread", "nan"),
    ("fuzzy_spread", "inf"),
    ("fuzzy_spread", "-1"),
    ("fuzzy_mean", "inf"),
    ("fuzzy_mean", "-inf"),
    ("fuzzy_mean", "nan"),
]


def with_value(key: str, value: str) -> str:
    """FUZZY with one key set in the section that holds it."""
    section = next(s for s, k in FIELDS if k == key)
    return FUZZY.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n")


def set_line(text: str, section: str, key: str, value: str) -> str:
    """``text`` with ``key = value`` in ``[section]``: the key's line edited,
    or a line added under the section header."""
    lines = text.splitlines()
    start = lines.index(f"[{section}]")
    end = next((i for i in range(start + 1, len(lines)) if lines[i].startswith("[")),
               len(lines))
    at = next((i for i in range(start + 1, end)
               if lines[i].partition("=")[0].strip() == key), None)
    if at is None:
        lines.insert(start + 1, f"{key} = {value}")
    else:
        lines[at] = f"{key} = {value}"
    return "\n".join(lines) + "\n"


def outcome(text: str, overrides=()):
    """The parsed config, or the message of the ConfigError it raises."""
    try:
        return parse_config(text, overrides)
    except ConfigError as exc:
        return str(exc)


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

    @pytest.mark.parametrize("kind", ["fuzzy", "sigmoid"])
    def test_library_config_renders_as_its_ini(self, kind):
        # the library resolves defaults (alpha 0.1 under noise) as the INI does
        library = ExperimentConfig(BenchmarkConfig(kind), "qlearn", n_episodes=200)
        text = {"fuzzy": FUZZY, "sigmoid": SIGMOID}[kind]
        assert render_config(library) == render_config(parse_config(text))
        assert library.validated() == parse_config(text)  # horizon resolved too
        assert "alpha = 0.1" in render_config(library)

    def test_gamma_out_of_range(self):
        text = MINIMAL.replace("kind = qlearn", "kind = qlearn\ngamma = 1.5")
        with pytest.raises(ConfigError, match="gamma"):
            parse_config(text)

    @pytest.mark.parametrize("key,value", BAD_VALUES)
    def test_hyperparameter_out_of_range(self, key, value):
        with pytest.raises(ConfigError, match=key):
            parse_config(with_value(key, value))

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

    def test_train_interval_may_span_the_run(self):
        cfg = parse_config(MINIMAL, ["harness.train_eval_every=1000"])
        assert cfg.train_eval_every == cfg.n_episodes

    def test_override_n_seeds(self):
        cfg = parse_config(MINIMAL, ["harness.n_seeds=3"])
        assert cfg.n_seeds == 3

    def test_override_unknown_key_rejected(self):
        for target in ("harness.nodes", "cluster.nodes"):
            with pytest.raises(ConfigError, match=rf"^--set {target}: unknown key$"):
                parse_config(MINIMAL, [f"{target}=4"])

    @pytest.mark.parametrize("override", ["harness.n_seeds", "n_seeds=3", "=3"])
    def test_malformed_override_rejected(self, override):
        with pytest.raises(ConfigError, match="must look like section.key=value"):
            parse_config(MINIMAL, [override])

    def test_overrides_apply_in_order_after_the_file(self):
        # a key set in the file and again by an override is no duplicate
        text = MINIMAL + "n_seeds = 4\n"
        assert parse_config(text).n_seeds == 4
        assert parse_config(text, ["harness.n_seeds=2"]).n_seeds == 2
        assert parse_config(text, ["harness.n_seeds=2", "harness.n_seeds=3"]).n_seeds == 3

    @pytest.mark.parametrize("value", ["2 ; x", "2 # x", "5\nseed=7"])
    def test_override_text_after_the_value_is_refused(self, value):
        with pytest.raises(ConfigError, match=r"^--set harness.n_seeds: .*expects int"):
            parse_config(MINIMAL, [f"harness.n_seeds={value}"])

    @pytest.mark.parametrize("extra,lineno", [("episodes = 30\n", 9),
                                              ("\n[harness]\nepisodes = 30\n", 11)],
                             ids=["one-block", "split-blocks"])
    def test_duplicate_key_names_both_lines(self, extra, lineno):
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL + extra)
        assert str(exc.value) == f"line {lineno}: harness.episodes is already set on line 8"

    def test_split_sections_merge(self):
        cfg = parse_config(MINIMAL + "\n[agent]\nepsilon = 0.2\n[harness]\nseed = 7\n")
        assert (cfg.hp.epsilon, cfg.master_seed, cfg.n_episodes) == (0.2, 7, 1000)

    def test_roundtrip(self):
        for text in (MINIMAL, FUZZY):
            cfg = parse_config(text)
            assert parse_config(render_config(cfg)) == cfg

    @pytest.mark.parametrize("output", ["res#1.csv", "a;b.csv", "x;#y#"])
    def test_roundtrip_keeps_comment_characters_inside_a_value(self, output):
        cfg = parse_config(MINIMAL, [f"harness.output={output}"])
        assert cfg.output_path == output
        assert parse_config(render_config(cfg)) == cfg

    def test_comment_after_whitespace_or_at_line_start(self):
        text = "# head\n; head\n" + MINIMAL.replace("= counting", "= counting # c\t;d")
        assert parse_config(text) == parse_config(MINIMAL)

    @pytest.mark.parametrize("output", ["a #b.csv", "a\t;b.csv", " a.csv", "a.csv\n"])
    def test_render_refuses_an_output_that_would_not_read_back(self, output):
        cfg = dataclasses.replace(parse_config(MINIMAL), output_path=output)
        with pytest.raises(ConfigError, match="harness.output .* would not read back"):
            render_config(cfg)

    def test_roundtrip_with_overrides(self):
        cfg = parse_config(MINIMAL, ["harness.n_seeds=7", "agent.epsilon=0.2"])
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
        for section, key in FIELDS:
            try:
                parse_config(MINIMAL, [f"{section}.{key}=x"])
            except ConfigError as exc:
                assert "unknown key" not in str(exc), (section, key)

    @pytest.mark.parametrize("section,key", sorted(FIELDS))
    def test_override_equals_the_edited_line(self, section, key):
        rendered = [render_config(parse_config(FUZZY, ["harness.output=fuzzy.csv"])),
                    render_config(parse_config(VARIANT))]
        values = [line.partition(" = ")[2]
                  for text in rendered
                  for line in text.split(f"[{section}]\n")[1].split("\n[")[0].splitlines()
                  if line.partition(" = ")[0] == key]
        assert values, "no fixture renders this key"
        for base in rendered:
            for value in values:
                assert outcome(base, [f"{section}.{key}={value}"]) == outcome(
                    set_line(base, section, key, value)
                ), (value, base)

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

    def test_run_writes_the_csv_it_formats_once(self, tmp_path, capsys, monkeypatch):
        from algocontrol import cli, harness

        texts = []

        def formatting(rows):
            texts.append(format_csv(rows))
            return texts[-1]

        for module in (cli, harness):
            monkeypatch.setattr(module, "format_csv", formatting)
        text = MINIMAL.replace("episodes = 1000", "episodes = 5\nn_seeds = 2")
        out = tmp_path / "res.csv"
        assert main(["run", self._write(tmp_path, text), "--output", str(out)]) == 0
        cfg = parse_config(text)
        assert out.read_text() == format_csv(curves_to_csv_rows(cfg, run_experiment(cfg)))
        assert texts == [out.read_text()]

    def test_failed_results_write_is_one_io_line(self, tmp_path, capsys, monkeypatch):
        from algocontrol import cli

        def refusing(path, mode="r", **kwargs):
            if mode == "w":
                raise PermissionError("denied")
            return open(path, mode, **kwargs)

        monkeypatch.setattr(cli, "open", refusing, raising=False)
        out = tmp_path / "res.csv"
        assert main(["run", self._write(tmp_path, TABULAR_RUN), "--output", str(out)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert err == [f"E-IO: cannot write results to {out}: denied"]

    def test_missing_config_is_io_error(self, capsys):
        assert main(["run", "/no/such/file.ini"]) == 4
        assert capsys.readouterr().err.startswith("E-IO:")

    def test_bad_config_exit_code(self, tmp_path, capsys):
        config = self._write(tmp_path, MINIMAL.replace("counting", "chess"))
        assert main(["run", config]) == 2
        assert capsys.readouterr().err.startswith("E-CONFIG:")

    @pytest.mark.parametrize("key,value", BAD_VALUES)
    def test_bad_hyperparameter_is_one_config_line(self, tmp_path, capsys, key, value):
        config = self._write(tmp_path, with_value(key, value))
        assert main(["run", config]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("E-CONFIG:") and key in err[0]

    def test_bad_workers_is_one_config_line(self, tmp_path, capsys):
        config = self._write(tmp_path, MINIMAL + "workers = -5\n")
        assert main(["run", config]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("E-CONFIG:") and "workers" in err[0]

    @pytest.mark.parametrize("flag", ["--output", "--save-agent"])
    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_path_fails_before_training(self, tmp_path, capsys, monkeypatch,
                                                   flag, where):
        from algocontrol import cli

        def no_training(*args, **kwargs):
            raise AssertionError(f"training started before {flag} was checked")

        monkeypatch.setattr(cli, "run_experiment", no_training)
        config = self._write(tmp_path, TABULAR_RUN)
        path = tmp_path / "missing" / "out" if where == "missing-dir" else tmp_path
        before = sorted(p.name for p in tmp_path.iterdir())
        assert main(["run", config, flag, str(path)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"E-IO: cannot write {path}:")
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    def test_unwritable_config_output_fails_before_training(self, tmp_path, capsys,
                                                            monkeypatch):
        from algocontrol import cli

        monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: pytest.fail("trained"))
        config = self._write(tmp_path, TABULAR_RUN + f"output = {tmp_path}/no/r.csv\n")
        assert main(["run", config]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("E-IO: cannot write")

    def test_train_interval_longer_than_the_run_is_one_config_line(self, tmp_path, capsys):
        config = self._write(tmp_path, MINIMAL)
        assert main(["run", config, "--set", "harness.train_eval_every=1001"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["E-CONFIG: harness.train_eval_every must be <= harness.episodes"]

    def test_output_path_is_verbatim(self, tmp_path, capsys):
        out = tmp_path / "res#1.csv"
        config = self._write(tmp_path, TABULAR_RUN)
        assert main(["run", config, "--output", str(out)]) == 0
        assert out.read_text().startswith(CSV_HEADER)
        assert not (tmp_path / "res").exists()

    def test_verbose_run_refuses_an_output_that_would_not_read_back(self, tmp_path, capsys,
                                                                   monkeypatch):
        from algocontrol import cli

        monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: pytest.fail("trained"))
        config = self._write(tmp_path, TABULAR_RUN)
        assert main(["run", config, "--output", str(tmp_path / "a #b.csv"), "-v"]) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert captured.out == "" and len(err) == 1
        assert err[0].startswith("E-CONFIG: harness.output = ") and "read back" in err[0]

    @pytest.mark.parametrize("key,override", [("n_seeds", "harness.n_seeds=2 ; x"),
                                              ("episodes", "harness.episodes=5\nseed=7")])
    def test_text_after_an_override_value_is_one_config_line(self, tmp_path, capsys,
                                                             monkeypatch, key, override):
        from algocontrol import cli

        monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: pytest.fail("trained"))
        config = self._write(tmp_path, MINIMAL)
        assert main(["run", config, "--set", override, "-v"]) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert captured.out == ""  # -v prints nothing: no config, with no seed, was made
        assert len(err) == 1 and err[0].startswith(f"E-CONFIG: --set harness.{key}: ")

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


TABULAR_RUN = MINIMAL.replace("episodes = 1000", "episodes = 30\nn_seeds = 2")

DQN_FIXED_RUN = """\
[benchmark]
kind = sigmoid
horizon = 11

[agent]
kind = dqn

[harness]
episodes = 40
n_seeds = 2
instance_mode = fixed
train_instances = 5
test_instances = 3
test_eval_every = 20
"""

BLACKBOX_RUN = MINIMAL.replace("kind = qlearn", "kind = blackbox").replace(
    "episodes = 1000", "episodes = 30\nn_seeds = 2"
)


class TestCliSaveAgent:
    """``run --save-agent PATH --agent-seed K`` snapshots the agent seed K
    of that same run trained; nothing is trained a second time."""

    @staticmethod
    def _run(tmp_path, text, *extra):
        config = tmp_path / "exp.ini"
        config.write_text(text)
        out = tmp_path / "res.csv"
        code = main(["run", str(config), "--output", str(out), *extra])
        return code, config, out

    @pytest.fixture
    def episodes(self, monkeypatch):
        """Every training episode run in this process."""
        from algocontrol import harness

        calls = []
        original = harness.run_training_episode

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(harness, "run_training_episode", counted)
        return calls

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("text", [TABULAR_RUN, DQN_FIXED_RUN], ids=["qlearn", "dqn-fixed"])
    def test_snapshot_reproduces_the_seeds_last_train_point(self, tmp_path, capsys, text,
                                                            workers):
        from algocontrol import harness
        from algocontrol.agents import load_snapshot

        snap = tmp_path / "agent.snap"
        code, config, out = self._run(
            tmp_path, text + f"workers = {workers}\n", "--save-agent", str(snap),
            "--agent-seed", "1",
        )
        assert code == 0
        cfg = parse_config(config.read_text()).validated()
        run = harness._EvalSetup(cfg, 1)
        replayed = run.evaluate(load_snapshot(str(snap)), run.env, cfg.n_episodes)
        assert replayed == harness.train_and_evaluate(cfg, [1])[0].train_rewards[-1]
        prefix = f"{cfg.benchmark.kind},{cfg.agent_kind},1,{cfg.n_episodes},train,"
        assert [line for line in out.read_text().splitlines() if line.startswith(prefix)] == [
            f"{prefix}{replayed:.6g},0"
        ]

    def test_trains_each_seed_once(self, tmp_path, capsys, episodes):
        snap = tmp_path / "agent.snap"
        code, _, _ = self._run(tmp_path, TABULAR_RUN, "--save-agent", str(snap),
                               "--agent-seed", "1")
        assert code == 0 and snap.exists()
        assert len(episodes) == 2 * 30

    @pytest.mark.parametrize("seed", ["2", "7", "-3"])
    def test_agent_seed_outside_the_run_is_one_config_line(self, tmp_path, capsys, episodes,
                                                          seed):
        snap = tmp_path / "agent.snap"
        code, _, out = self._run(tmp_path, TABULAR_RUN, "--save-agent", str(snap),
                                 "--agent-seed", seed)
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("E-CONFIG:") and f"agent seed {seed}" in err[0]
        assert episodes == [] and not out.exists() and not snap.exists()

    def test_blackbox_is_one_config_line(self, tmp_path, capsys, monkeypatch):
        from algocontrol import harness

        def no_race(*args, **kwargs):
            raise AssertionError("the blackbox ran before --save-agent was checked")

        monkeypatch.setattr(harness, "blackbox_optimize", no_race)
        snap = tmp_path / "agent.snap"
        code, _, out = self._run(tmp_path, BLACKBOX_RUN, "--save-agent", str(snap))
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("E-CONFIG:") and "blackbox" in err[0]
        assert not out.exists() and not snap.exists()

    def test_non_finite_q_value_leaves_no_snapshot(self, tmp_path, capsys):
        """A fuzzy mean of 1e308 overflows the Q-table to inf: the Q-table
        refuses the value, and the run ends in one runtime line naming the
        Q-value, its state and its action; no snapshot file is created."""
        text = ("[benchmark]\nkind = fuzzy\nfuzzy_mean = 1e308\n\n[agent]\nkind = qlearn\n\n"
                "[harness]\nepisodes = 20\nn_seeds = 1\n")
        snap = tmp_path / "snap.txt"
        code, _, out = self._run(tmp_path, text, "--save-agent", str(snap))
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert re.fullmatch(r"E-RUNTIME: Q-value inf of state .+, action \d is not finite", err[0])
        assert not snap.exists() and not out.exists()


class TestCliBenchInfo:
    def test_luby_info(self, capsys):
        assert main(["bench-info", "luby", "--horizon", "32"]) == 0
        out = capsys.readouterr().out
        assert "action_count: 6" in out
        assert "horizon: 32" in out

    # at each benchmark's default horizon and levels
    INFO = {
        "counting": "benchmark: counting\naction_count: 5\nhorizon: 5\ncontext_dim: 0\n"
                    "history_len: 5\nstochastic_reward: false\nfixed_episode_length: true\n",
        "fuzzy": "benchmark: fuzzy\naction_count: 2\nhorizon: 20\ncontext_dim: 0\n"
                 "history_len: 5\nstochastic_reward: true\nfixed_episode_length: false\n",
        "luby": "benchmark: luby\naction_count: 6\nhorizon: 32\ncontext_dim: 0\n"
                "history_len: 5\nstochastic_reward: false\nfixed_episode_length: true\n",
        "sigmoid": "benchmark: sigmoid\naction_count: 2\nhorizon: 11\ncontext_dim: 2\n"
                   "history_len: 0\nstochastic_reward: false\nfixed_episode_length: true\n",
        "sigmoidmva": "benchmark: sigmoidmva\naction_count: 5\nhorizon: 11\ncontext_dim: 2\n"
                      "history_len: 0\nstochastic_reward: false\nfixed_episode_length: true\n",
    }

    @pytest.mark.parametrize("kind", BENCHMARK_KINDS)
    def test_default_info_text(self, capsys, kind):
        assert main(["bench-info", kind]) == 0
        assert capsys.readouterr().out == self.INFO[kind]


@pytest.mark.parametrize(
    "argv,name",
    [
        (["report", "{csv}", "--window", "0"], "window"),
        (["bench-info", "luby", "--horizon", "-1"], "horizon"),
        (["bench-info", "sigmoidmva", "--levels", "0"], "levels"),
        (["replay", "{snap}", "--benchmark", "counting", "--horizon", "-1"], "horizon"),
        (["replay", "{snap}", "--benchmark", "sigmoid", "--instance", "s=nan,p=5"], "s="),
        (["replay", "{snap}", "--benchmark", "sigmoid", "--instance", "s=1,p=inf"], "p="),
        (["replay", "{snap}", "--benchmark", "sigmoid", "--instance", "s=1,s=50,p=3"],
         "sets s twice"),
        (["run", "{csv}", "--set", "-x"], "--set"),
        (["bench-info", "nope"], "nope"),
    ],
    ids=["report-window", "bench-info-horizon", "bench-info-levels", "replay-horizon",
         "replay-nan-instance", "replay-inf-instance", "replay-repeated-instance-key",
         "run-set-without-value",
         "bench-info-unknown-kind"],
)
def test_bad_command_line_value_is_one_config_line(tmp_path, capsys, argv, name):
    csv_path = tmp_path / "r.csv"
    csv_path.write_text(TestCliReport.CSV)
    snap = tmp_path / "agent.snap"
    save_agent(TabularAgent("qlearn", 2), str(snap))
    argv = [arg.format(csv=csv_path, snap=snap) for arg in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("E-CONFIG:") and name in err[0]


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

    def test_test_rows_only_is_one_runtime_line(self, tmp_path, capsys):
        path = tmp_path / "r.csv"
        path.write_text(self.CSV.replace("train", "test"))
        assert main(["report", str(path)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == ["E-RUNTIME: no train rows in the given CSVs"]

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
            ("counting,qlearn\x1d,0,1,train,5,0", "unprintable character"),
            ("counting,qlearn,0,3,tset,5,0", "phase 'tset' is not train or test"),
            ("counting,qlearn,0,3,train,5,abc", "wall_time_ms 'abc' is not a non-negative"),
            ("counting,qlearn,0,3,train,5,-1", "wall_time_ms '-1' is not a non-negative"),
            ("counting,qlearn,0,3,train,5,1.5", "wall_time_ms '1.5' is not a non-negative"),
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

    def test_repeated_file_is_one_runtime_line(self, tmp_path, capsys):
        path = tmp_path / "r.csv"
        path.write_text(self.CSV)
        assert main(["report", str(path), str(path), "--mode", "plotdata"]) == 3
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert captured.out == ""
        assert err == [
            f"E-RUNTIME: {path} line 2: duplicate row for agent qlearn, seed 0, episode 1, "
            "phase train"
        ]

    def test_repeated_row_is_one_runtime_line(self, tmp_path, capsys):
        path = tmp_path / "r.csv"
        path.write_text(self.CSV + "counting,qlearn,1,1,train,4,0\n")
        assert main(["report", str(path)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"E-RUNTIME: {path} line 6: duplicate row")

    def test_two_benchmarks_is_one_runtime_line(self, capsys):
        luby, counting = (str(case_path(b, "qlearn", "none")) for b in ("luby", "counting"))
        assert main(["report", luby, counting]) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"E-RUNTIME: {counting} line 2: benchmark counting, but the rows before it are "
            "luby; report one benchmark at a time"
        ]

    def test_two_benchmarks_on_disjoint_seeds_are_refused(self, tmp_path, capsys):
        header, *rows = self.CSV.splitlines()
        luby, counting = tmp_path / "luby.csv", tmp_path / "counting.csv"
        luby.write_text("\n".join([header] + [r.replace("counting", "luby") for r in rows[:2]]))
        counting.write_text("\n".join([header] + rows[2:]))
        assert main(["report", str(luby), str(counting)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"E-RUNTIME: {counting} line 2: benchmark")

    @pytest.fixture
    def luby_run(self, tmp_path, capsys):
        """A luby qlearn run of 3 seeds x 60 episodes: its result line and CSV."""
        config, out = tmp_path / "luby.ini", tmp_path / "luby.csv"
        config.write_text(MINIMAL.replace("kind = counting", "kind = luby").replace(
            "episodes = 1000", "episodes = 60\nn_seeds = 3"))
        assert main(["run", str(config), "--output", str(out)]) == 0
        return capsys.readouterr().out.splitlines()[0], out

    def test_run_and_report_print_the_same_mean_and_se(self, luby_run, capsys):
        line, out = luby_run
        mean, se = (field.split("=")[1] for field in line.split()[-2:])
        window = str(ExperimentConfig.smoothing_window)
        assert main(["report", str(out), "--mode", "plotdata", "--window", window]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == f"60\t{mean}\t{se}"
        assert main(["report", str(out)]) == 0  # the default window is smoothing_window
        assert capsys.readouterr().out == f"qlearn: {float(mean):.3f} ± {float(se):.3f}\n"

    def test_ragged_seeds_are_named_with_their_row_counts(self, luby_run, capsys):
        _, out = luby_run
        lines = out.read_text().splitlines(keepends=True)
        out.write_text("".join(r for r in lines if not r.startswith("luby,qlearn,1,60,train,")))
        assert main(["report", str(out)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "E-RUNTIME: agent qlearn: seeds differ in train rows: seed 0 has 60, "
            "seed 1 has 59, seed 2 has 60"
        ]

    def test_different_episode_grids_name_agent_seeds_and_episode(self, tmp_path, capsys):
        path = tmp_path / "r.csv"
        path.write_text(
            "benchmark,agent,seed,episode,phase,eval_reward,wall_time_ms\n"
            "luby,qlearn,0,1,train,5,0\n"
            "luby,qlearn,0,2,train,5,0\n"
            "luby,qlearn,1,1,train,5,0\n"
            "luby,qlearn,1,3,train,5,0\n"
        )
        assert main(["report", str(path)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "E-RUNTIME: agent qlearn: seed 0 has train episode 2 where seed 1 has 3"
        ]

    def test_same_episode_in_both_phases_is_kept(self, tmp_path, capsys):
        path = tmp_path / "r.csv"
        path.write_text(self.CSV + "counting,qlearn,0,2,test,4,0\n")
        assert main(["report", str(path)]) == 0

    def test_every_golden_file_reads(self, capsys):
        paths = sorted(case_path(*valid_cases()[0]).parent.glob("*.csv"))
        assert paths
        for path in paths:
            assert main(["report", str(path)]) == 0, path


class TestCliReplay:
    def test_counting_oracle_snapshot(self, tmp_path, capsys):
        from algocontrol.agents import AgentHyperparams, TabularAgent, save_agent
        from algocontrol.benchmarks import CountingEnv
        from algocontrol.core import SeedSpec
        from algocontrol.harness import run_training_episode, derive_stream

        env = CountingEnv(5)
        agent = TabularAgent("qlearn", 5, hp=AgentHyperparams(alpha=1.0))
        rng = derive_stream(21, 0)
        for episode in range(3000):
            run_training_episode(
                agent, env, (), SeedSpec(21, episode), rng, rng
            )
        snap = tmp_path / "counting.snap"
        save_agent(agent, str(snap))
        assert main(["replay", str(snap), "--benchmark", "counting", "--horizon", "5"]) == 0
        out = capsys.readouterr().out
        assert "total reward: 5" in out

    def test_luby_oracle_snapshot(self, tmp_path, capsys):
        from algocontrol.agents import AgentHyperparams, TabularAgent, save_agent
        from algocontrol.benchmarks import LubyEnv, luby_exponent
        from algocontrol.core import SeedSpec
        from algocontrol.harness import run_training_episode, derive_stream

        env = LubyEnv(32)
        agent = TabularAgent("qlearn", 6, hp=AgentHyperparams(alpha=1.0))
        rng = derive_stream(22, 0)
        for episode in range(2000):
            run_training_episode(
                agent, env, (), SeedSpec(22, episode), rng, rng
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
        from algocontrol.core import SeedSpec

        env = SigmoidEnv(11)
        agent = TabularAgent("qlearn", 2, hp=AgentHyperparams(alpha=1.0))
        instance = (1.0, 5.0)
        obs, done = env.reset(instance, SeedSpec(0, 0)), False
        while not done:
            s = state_key(obs)
            agent.q[s] = [sigmoid_reward(obs.time_step, a, 1.0, 5.0) for a in (0, 1)]
            obs, _, done = env.step(0)
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

    @pytest.mark.parametrize("edit, message", [
        # 65.5 TiB of training batch: the allocation fails before any page is touched.
        (("horizon 11", "horizon 1000000000000"),
         "snapshot header line 'horizon': 1000000000000 steps do not fit in memory"),
        # 43.7 TiB of parameters: the first one missing is named before any is built.
        (("hidden 50", "hidden 1000000000000"), "snapshot has no record for w1/000150"),
    ], ids=["horizon", "hidden"])
    def test_dqn_header_sized_beyond_memory_is_one_runtime_line(self, tmp_path, capsys, edit,
                                                              message):
        agent = DQNAgent(action_count=2, horizon=11, context_dim=2, total_episodes=10,
                         rng=derive_stream(23, 0))
        snap = tmp_path / "dqn.snap"
        save_agent(agent, str(snap))
        snap.write_text(snap.read_text(encoding="utf-8").replace(*edit), encoding="utf-8")
        argv = ["replay", str(snap), "--benchmark", "sigmoid", "--instance", "s=1,p=5"]
        assert main(argv) == 3
        assert capsys.readouterr().err.splitlines() == [f"E-RUNTIME: {message}"]

    def test_dqn_overflowing_q_value_is_one_runtime_line(self, tmp_path, capsys):
        agent = DQNAgent(action_count=2, horizon=11, context_dim=2, total_episodes=10,
                         rng=derive_stream(26, 0))
        agent.net.w1[:] = 1e200  # finite weights whose Q-values overflow
        agent.net.w2[:] = 1e200
        snap = tmp_path / "dqn.snap"
        save_agent(agent, str(snap))
        argv = ["replay", str(snap), "--benchmark", "sigmoid", "--instance", "s=1,p=5"]
        assert main(argv) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"E-RUNTIME: {snap}: a Q-value is not finite")

    def test_dqn_replay_matches_agent_rollout(self, tmp_path, capsys, monkeypatch):
        from algocontrol import harness
        from algocontrol.agents import AgentHyperparams
        from algocontrol.benchmarks import BenchmarkConfig, SigmoidEnv
        from algocontrol.core import SeedSpec
        from algocontrol.harness import ExperimentConfig, greedy_rollout, run_experiment

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
        agents = []
        make_agent = harness._make_agent
        monkeypatch.setattr(
            harness, "_make_agent", lambda *args: agents.append(make_agent(*args)) or agents[-1]
        )
        snap = tmp_path / "dqn.snap"
        run_experiment(cfg, save_agent=(0, str(snap)))
        (agent,) = agents
        instance = (12.0, 5.0)
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


@st.composite
def corrupted(draw, data: bytes) -> bytes:
    """``data`` cut short, or with one or two single-byte edits (flip,
    drop, insert); edits favour the first 200 bytes, where the headers are."""
    buf = bytearray(data)
    if draw(st.booleans()):
        return bytes(buf[: draw(st.integers(0, len(buf) - 1))])
    for _ in range(draw(st.integers(1, 2))):
        i = draw(st.one_of(st.integers(0, 199), st.integers(0, len(buf) - 1))) % len(buf)
        edit = draw(st.sampled_from(("flip", "drop", "insert")))
        if edit == "flip":
            buf[i] ^= draw(st.integers(1, 255))
        elif edit == "drop":
            del buf[i]
        else:
            buf.insert(i, draw(st.integers(0, 255)))
    return bytes(buf)


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """Valid bytes of a tabular snapshot, a DQN snapshot and a result CSV."""
    tmp = tmp_path_factory.mktemp("valid")
    tabular = TabularAgent("qlearn", 5, hp=AgentHyperparams(alpha=1.0))
    rng = derive_stream(24, 0)
    for episode in range(30):
        run_training_episode(tabular, CountingEnv(5), (), SeedSpec(24, episode), rng, rng)
    dqn = DQNAgent(action_count=2, horizon=11, context_dim=2, total_episodes=10,
                   rng=derive_stream(25, 0))
    for name, agent in (("tabular", tabular), ("dqn", dqn)):
        save_agent(agent, str(tmp / name))
    return {
        "tabular": (tmp / "tabular").read_bytes(),
        "dqn": (tmp / "dqn").read_bytes(),
        "csv": case_path("sigmoid", "dqn", "fixed").read_bytes(),
    }


FUZZ_SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def run_cli(argv, codes=(0, 3, 4)):
    """Run the CLI and check that it ends in one of ``codes`` and in no
    stderr (exit 0) or exactly one ``E-`` line, never a traceback."""
    err = io.StringIO()
    # A warning would reach the terminal as more stderr lines.
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    assert code in codes
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == []
    else:
        assert len(lines) == 1 and lines[0].startswith("E-"), lines


class TestCorruptedInputs:
    """A corrupted snapshot or result CSV ends in exit 0, 3 or 4, and in
    no stderr or exactly one ``E-`` line, never a traceback."""

    ARGS = {
        "tabular": ["--benchmark", "counting", "--horizon", "5"],
        "dqn": ["--benchmark", "sigmoid", "--horizon", "11", "--instance", "s=1,p=5"],
    }

    @pytest.mark.parametrize("kind", ["tabular", "dqn"])
    @FUZZ_SETTINGS
    @given(data=st.data())
    def test_replay(self, kind, valid_inputs, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / f"fuzz-{kind}.snap"
        path.write_bytes(data.draw(corrupted(valid_inputs[kind])))
        run_cli(["replay", str(path)] + self.ARGS[kind])

    @FUZZ_SETTINGS
    @given(data=st.data(), mode=st.sampled_from(("table", "plotdata")),
           copies=st.integers(1, 2))
    def test_report(self, valid_inputs, tmp_path_factory, data, mode, copies):
        path = tmp_path_factory.getbasetemp() / "fuzz.csv"
        path.write_bytes(data.draw(corrupted(valid_inputs["csv"])))
        run_cli(["report"] + [str(path)] * copies + ["--mode", mode])


TINY = """\
[benchmark]
kind = counting
horizon = 3

[agent]
kind = qlearn

[harness]
episodes = 2
n_seeds = 1
"""
# Keys that size a run take values <= 3 or text that is no number, and
# workers never asks for more than two processes, so every example is small.
SIZING_KEYS = ("episodes", "n_seeds", "train_instances", "test_instances", "eval_runs",
               "horizon")
# Text with no digit: no int() or float() reading of it can size a run.
NOT_A_NUMBER = st.text(alphabet=string.ascii_letters + " .,-+_=#;[]", max_size=8)

SECTION_NAMES = st.sampled_from(("benchmark", "agent", "harness")) | NOT_A_NUMBER
CHOICES = {
    ("benchmark", "kind"): BENCHMARK_KINDS,
    ("agent", "kind"): AGENT_KINDS,
    ("harness", "instance_mode"): ("",) + INSTANCE_MODES,
}


def one_in(n: int):
    """True about once in ``n`` draws (hypothesis favours small integers)."""
    return st.sampled_from([False] * (n - 1) + [True])


@st.composite
def config_value(draw, section: str, key: str, output_paths: tuple[str, ...]) -> str:
    """A value for ``key``: mostly of its type, in or out of range; one in
    ten is text that is no number."""
    if key == "output":  # a path the test owns, or one in a missing directory
        return draw(st.sampled_from(output_paths))
    if draw(one_in(10)):
        return draw(NOT_A_NUMBER)
    if key in SIZING_KEYS:
        return str(draw(st.integers(-2, 3)))
    if key == "workers":
        return str(draw(st.integers(max_value=0) | st.sampled_from((1, 2))))
    if (section, key) in CHOICES:
        return draw(st.sampled_from(CHOICES[section, key]))
    kind = FIELDS[section, key][1].type if (section, key) in FIELDS else "str"
    if kind == "int":
        return str(draw(st.integers() if key == "seed" else st.integers(-2, 50)))
    if kind == "float":
        if draw(one_in(4)):
            return repr(draw(st.floats() | st.sampled_from((1e400, -0.0))))
        return repr(draw(st.floats(0, 1)))
    if kind == "bool":
        return draw(st.sampled_from(("true", "false", "yes", "off", "2")))
    return draw(NOT_A_NUMBER)


@st.composite
def key_and_value(draw, output_paths):
    """A key of the config table (seven in eight) or made-up section and key."""
    if draw(one_in(8)):
        section, key = draw(SECTION_NAMES), draw(NOT_A_NUMBER)
    else:
        section, key = draw(st.sampled_from(sorted(FIELDS)))
    return section, key, draw(config_value(section, key, output_paths))


@st.composite
def mutated_config(draw, output_paths):
    """TINY with up to three edits (a key line, mostly under its own section;
    a section header; a line dropped; a line of text), and up to three
    ``--set`` overrides, one in sixteen of them malformed."""
    lines = TINY.splitlines()
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(("key", "key", "key", "section", "drop", "text")))
        at = draw(st.integers(0, len(lines)))
        if edit == "key":
            section, key, value = draw(key_and_value(output_paths))
            if f"[{section}]" in lines and not draw(one_in(8)):
                at = lines.index(f"[{section}]") + 1
            lines.insert(at, f"{key} = {value}")
        elif edit == "section":
            lines.insert(at, f"[{draw(SECTION_NAMES)}]")
        elif edit == "drop" and at < len(lines):
            del lines[at]
        else:
            lines.insert(at, draw(NOT_A_NUMBER))
    overrides = []
    for _ in range(draw(st.integers(0, 3))):
        section, key, value = draw(key_and_value(output_paths))
        override = draw(NOT_A_NUMBER) if draw(one_in(16)) else f"{section}.{key}={value}"
        overrides += ["--set", override]
    return "\n".join(lines) + "\n", overrides


@FUZZ_SETTINGS
@given(data=st.data())
def test_mutated_config_is_one_error_line(tmp_path_factory, data):
    """A mutated config or ``--set`` override ends in exit 0, 2, 3 or 4,
    and in no stderr or exactly one ``E-`` line, never a traceback."""
    tmp = tmp_path_factory.getbasetemp() / "fuzz-config"
    tmp.mkdir(exist_ok=True)
    outputs = ("", str(tmp / "out.csv"), str(tmp / "missing" / "out.csv"))
    text, overrides = data.draw(mutated_config(outputs))
    path = tmp / "fuzz.ini"
    path.write_text(text, encoding="utf-8")
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("DACBENCH_SEED", raising=False)
        mp.chdir(tmp)  # a stray relative output path lands here
        run_cli(["run", str(path)] + overrides, codes=(0, 2, 3, 4))
