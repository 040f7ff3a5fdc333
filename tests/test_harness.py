"""Harness: presets, config resolution, batch outputs, parallel invariance."""

from __future__ import annotations

import concurrent.futures
import csv
import dataclasses
import datetime
import filecmp
import functools
import hashlib
import json
import logging
import multiprocessing
import os
import platform
import shutil
import subprocess
import sys
import threading
import typing
from pathlib import Path

import numpy
import pytest
import yaml

from bondflow import (
    ConfigError,
    DecisionState,
    DesireQuery,
    ExperimentConfig,
    PromptTemplate,
    ProviderHardFailure,
    ProviderKind,
    rebuild_tables,
    resolve_config,
    resolve_preset,
    run_batch,
    simulation_seed,
)
from bondflow.agents import AgentConfig, CeaseRule
from bondflow.decision import BernoulliProvider, LiveLLMProvider, ProviderConfig
from bondflow.harness import (
    CONFIG_ECHO,
    DECISIONS_CSV,
    JOURNAL_DIR,
    LIFECYCLE_CSV,
    MANIFEST_JSON,
    SERIES_CSV,
    SUMMARIES_CSV,
    TABLE_FILES,
    TRADES_CSV,
    config_hash,
    config_to_dict,
    load_output_dir,
    shipped_aversion_corpus,
)
from bondflow import decision, engine, harness
from bondflow.landscape import LandscapeConfig
from bondflow.metrics import summarize_simulation, yes_ratio_series
from bondflow.seeding import STREAM_PROVIDER, substream
from gateway import GatewayStub
from util import mini_config, run_mini

# -- presets ---------------------------------------------------------------


def test_exp1_preset_shape():
    cfg = resolve_preset("exp1")
    assert cfg.provider.kind is ProviderKind.BERNOULLI
    assert cfg.provider.bernoulli_p == 0.5
    assert cfg.landscape.availability_p == 0.20
    assert cfg.n_simulations == 200
    assert cfg.master_seed == 42
    assert cfg.max_steps == 1500
    assert cfg.agents.cease_rule is CeaseRule.BOTH_EXHAUSTED


def test_exp2_preset_shape():
    cfg = resolve_preset("exp2")
    assert cfg.provider.kind is ProviderKind.REPLAY
    assert cfg.provider.prompt_template is PromptTemplate.AVERSION2
    assert cfg.provider.replay_path == str(shipped_aversion_corpus())
    assert Path(cfg.provider.replay_path).exists()
    assert cfg.landscape.availability_p == 0.20
    assert cfg.n_simulations == 200


def test_exp3_preset_shape():
    cfg = resolve_preset("exp3")
    assert cfg.provider.kind is ProviderKind.SYNTHETIC_BURSTY
    assert cfg.provider.prompt_template is PromptTemplate.TIMELINESS
    assert cfg.provider.burst_stay_yes == pytest.approx(0.656)
    assert cfg.provider.burst_stay_no == pytest.approx(0.544)
    assert cfg.landscape.availability_p == 0.40
    assert cfg.n_simulations == 150


def test_shipped_fixture_paths_exist():
    assert Path(shipped_aversion_corpus()).exists()


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError):
        resolve_preset("exp9")


# -- overrides and locks -----------------------------------------------------


def test_override_beats_preset():
    cfg = resolve_preset("exp1", {"landscape.availability_p": 0.3, "master_seed": 7})
    assert cfg.landscape.availability_p == 0.3
    assert cfg.master_seed == 7
    # Untouched fields keep their preset values.
    assert cfg.provider.bernoulli_p == 0.5


def test_enum_overrides_accept_values():
    cfg = resolve_preset(
        "exp2", {"provider.prompt_template": "aversion3", "agents.cease_rule": "either_exhausted"}
    )
    assert cfg.provider.prompt_template is PromptTemplate.AVERSION3
    assert cfg.agents.cease_rule is CeaseRule.EITHER_EXHAUSTED


@pytest.mark.parametrize(
    ("preset", "overrides"),
    [
        ("exp1", {"provider.prompt_template": "aversion1"}),
        ("exp1", {"provider.kind": "llm"}),
        ("exp1", {"provider.replay_path": "x.jsonl"}),
        ("exp2", {"provider.bernoulli_p": 0.9}),
        ("exp2", {"provider.kind": "bernoulli"}),
        ("exp2", {"provider.prompt_template": "timeliness"}),
        ("exp3", {"provider.kind": "bernoulli"}),
        ("exp3", {"provider.prompt_template": "aversion2"}),
    ],
)
def test_contradictory_overrides_rejected(preset, overrides):
    with pytest.raises(ConfigError):
        resolve_preset(preset, overrides)


@pytest.mark.parametrize(
    "overrides",
    [
        {"landscape.bond_mu": float("nan")},
        {"landscape.cash_sigma": float("nan")},
        {"landscape.max_bonds": float("nan")},
        {"landscape.max_cash": float("inf")},
        {"agents.cost_min": float("nan")},
        {"agents.cost_max": float("nan")},
        {"agents.init_bonds_min": float("nan")},
        {"agents.init_cash_max": float("nan")},
        {"interbank_runway_steps": float("nan")},
    ],
)
def test_non_finite_parameters_rejected(overrides):
    # Each would pass a check written as `x < bound`: a NaN holding runs to a
    # tree whose summaries the tables command rejects, NaN cost rates abort
    # every sim.
    with pytest.raises(ConfigError):
        resolve_preset("exp1", overrides)


def test_exp2_allows_live_kind():
    cfg = resolve_preset("exp2", {"provider.kind": "llm"})
    assert cfg.provider.kind is ProviderKind.LIVE_LLM


def test_exp3_allows_replay_kind(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text("", encoding="utf-8")
    cfg = resolve_preset(
        "exp3", {"provider.kind": "replay", "provider.replay_path": str(path)}
    )
    assert cfg.provider.kind is ProviderKind.REPLAY


def test_unknown_override_key_rejected():
    with pytest.raises(ConfigError):
        resolve_preset("exp1", {"landscape.gravity": 9.8})
    with pytest.raises(ConfigError):
        resolve_preset("exp1", {"wormholes": True})


def test_preset_cannot_be_overridden(tmp_path):
    # A preset comes from the preset name or a config file's preset: key only.
    with pytest.raises(ConfigError, match="preset"):
        resolve_preset("exp1", {"preset": "exp3"})
    path = tmp_path / "c.yaml"
    path.write_text(yaml.safe_dump({"preset": "exp1"}), encoding="utf-8")
    with pytest.raises(ConfigError, match="preset"):
        resolve_config(str(path), {"preset": "exp3"})


def test_pins_hold_on_values_not_on_keys():
    # Restating a pinned field at the preset's own value is no contradiction.
    cfg = resolve_preset(
        "exp1",
        {"provider.prompt_template": "timeliness", "provider.replay_path": None,
         "provider.burst_stay_yes": 0.656, "provider.kind": "bernoulli"},
    )
    assert cfg == resolve_preset("exp1")
    assert resolve_preset("exp3", {"provider.bernoulli_p": 0.5}) == resolve_preset("exp3")


@pytest.mark.parametrize(
    "overrides",
    [
        {"n_simulations": "ten"},
        {"n_simulations": None},
        {"master_seed": True},  # a bool is not an int
        {"journal": 1},
        {"landscape.grid_width": None},
        {"landscape.availability_p": "0.3"},
        {"provider.kind": 3},
        {"landscape": None},
    ],
)
def test_wrongly_typed_values_rejected(overrides):
    # Refused for its type, before any bounds row sees it.
    with pytest.raises(ConfigError, match="must be ") as refused:
        resolve_preset("exp1", overrides)
    if "journal" in overrides:  # a field that may be None names null among its types
        assert "journal must be bool or null, got 1" in str(refused.value)


def test_int_for_float_field_kept_unconverted():
    # Converting would change the bytes of an echo that holds the int.
    cfg = resolve_preset("exp1", {"interbank_runway_steps": 2, "journal": None})
    assert type(cfg.interbank_runway_steps) is int
    assert cfg.journal is None


# -- config files -------------------------------------------------------------


def test_config_file_with_preset_base(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text(
        yaml.safe_dump(
            {"preset": "exp1", "n_simulations": 3, "landscape": {"availability_p": 0.25}}
        ),
        encoding="utf-8",
    )
    cfg = resolve_config(str(path))
    assert cfg.preset == "exp1"
    assert cfg.n_simulations == 3
    assert cfg.landscape.availability_p == 0.25
    # CLI-style overrides outrank the file.
    cfg = resolve_config(str(path), {"n_simulations": 5})
    assert cfg.n_simulations == 5


def test_config_file_without_preset(tmp_path):
    path = tmp_path / "standalone.yaml"
    path.write_text(
        yaml.safe_dump(
            {
                "master_seed": 9,
                "n_simulations": 2,
                "max_steps": 30,
                "landscape": {"grid_width": 8, "grid_height": 8},
                "agents": {"cease_rule": "either_exhausted"},
                "provider": {"kind": "bernoulli", "bernoulli_p": 0.25},
            }
        ),
        encoding="utf-8",
    )
    cfg = resolve_config(str(path))
    assert cfg.preset is None
    assert cfg.landscape.grid_width == 8
    assert cfg.agents.cease_rule is CeaseRule.EITHER_EXHAUSTED
    assert cfg.provider.bernoulli_p == 0.25


def test_resolve_config_dispatches(tmp_path):
    assert resolve_config("exp1").preset == "exp1"
    path = tmp_path / "c.yaml"
    path.write_text(yaml.safe_dump({"preset": "exp3"}), encoding="utf-8")
    assert resolve_config(str(path)).preset == "exp3"
    # An empty file is a config of defaults.
    path.write_text("", encoding="utf-8")
    assert resolve_config(str(path)) == ExperimentConfig()
    with pytest.raises(ConfigError, match="neither a preset .* nor a config file"):
        resolve_config("no_such_preset_or_file")


def test_config_hash_tracks_experiment_not_execution():
    base = mini_config()
    assert config_hash(base) == config_hash(mini_config())

    import dataclasses

    relocated = dataclasses.replace(base, output_dir="elsewhere", parallelism=4)
    assert config_hash(relocated) == config_hash(base)

    reseeded = dataclasses.replace(base, master_seed=base.master_seed + 1)
    assert config_hash(reseeded) != config_hash(base)

    echo = config_to_dict(base)
    assert "parallelism" not in echo and "output_dir" not in echo


# -- config bounds -------------------------------------------------------------

# Each numeric field of each config is set to each probe in turn. A 5x5 grid
# keeps the batches quick; the overflow holes the probes look for do not need
# a larger one.
_PROBES = (float("nan"), float("inf"), float("-inf"), -1, 0, 1e308, True, None, "1")
_PROBE_BASE = ExperimentConfig(
    landscape=LandscapeConfig(grid_width=5, grid_height=5), n_simulations=2, max_steps=20
)
_LIVE_FIELDS = ("temperature", "max_retries", "timeout_s", "rate_limit_rps")
_CONFIGS = {
    "landscape.": LandscapeConfig, "agents.": AgentConfig, "provider.": ProviderConfig, "": ExperimentConfig,
}


def _numeric_fields(cls):
    hints = typing.get_type_hints(cls)
    return [f.name for f in dataclasses.fields(cls) if hints[f.name] in (int, float)]


def test_every_numeric_config_field_has_a_bounds_row():
    # Each config's module holds its bounds table: one row per numeric field, no more.
    for cls in _CONFIGS.values():
        assert set(sys.modules[cls.__module__]._BOUNDS) == set(_numeric_fields(cls)), cls.__name__


def _probe_config(key, value):
    section, _, name = key.rpartition(".")
    if not section:
        return dataclasses.replace(_PROBE_BASE, **{name: value})
    probed = dataclasses.replace(getattr(_PROBE_BASE, section), **{name: value})
    return dataclasses.replace(_PROBE_BASE, **{section: probed})


@pytest.mark.parametrize(
    "key", [prefix + name for prefix, cls in _CONFIGS.items() for name in _numeric_fields(cls)]
)
def test_every_numeric_config_field_is_refused_or_runs(tmp_path, monkeypatch, key):
    # A value is a ConfigError when the config is built, or it runs: a 2-sim
    # batch to manifest ok whose tables rebuild byte for byte and whose echo
    # loads back to the same config, and, for a live-provider field, two
    # gateway decisions that are yes or no.
    monkeypatch.setenv("TEST_GATEWAY_TOKEN", "tok")
    name = key.rpartition(".")[2]
    for i, value in enumerate(_PROBES):
        try:
            cfg = _probe_config(key, value)
        except ConfigError:
            continue
        if name in _LIVE_FIELDS:
            with GatewayStub([]) as stub:
                # A high rate, so that the second request need not wait.
                live = ProviderConfig(
                    kind=ProviderKind.LIVE_LLM, endpoint_url=stub.url, token_env="TEST_GATEWAY_TOKEN",
                    rate_limit_rps=10_000.0,
                )
                provider = LiveLLMProvider(dataclasses.replace(live, **{name: value}))
                queries = [DesireQuery(0, 0, 0, (1, 1), 1.0, 1.0, seq) for seq in (0, 1)]
                states = {provider.decide(q).state for q in queries}
            assert states <= {DecisionState.YES, DecisionState.NO}, (key, value, states)
        if name.startswith("burst_stay"):
            bursty = ProviderConfig(kind=ProviderKind.SYNTHETIC_BURSTY, **{name: value})
            cfg = dataclasses.replace(cfg, provider=bursty)
        out = tmp_path / str(i)
        result = run_batch(dataclasses.replace(cfg, output_dir=str(out)))
        manifest = json.loads((out / MANIFEST_JSON).read_text(encoding="utf-8"))
        assert result.ok and manifest["status"] == "ok", (key, value, manifest)
        tables = {path: path.read_bytes() for path in out.glob("stats_*")}
        rebuild_tables(out)
        assert {path: path.read_bytes() for path in tables} == tables, (key, value)
        assert config_to_dict(resolve_config(str(out / CONFIG_ECHO))) == config_to_dict(cfg), (key, value)


@pytest.mark.parametrize("name", ["breadth_min", "breadth_max"])
def test_breadth_stops_at_what_rng_integers_takes(name):
    # ``rng.integers(breadth_min, breadth_max + 1)`` takes int64 ends: the
    # largest int64 runs to ok, and the next int is refused when resolved.
    def agents(value):
        # breadth_max is raised with breadth_min, so that min <= max holds.
        return dataclasses.replace(_PROBE_BASE.agents, **{"breadth_max": value, name: value})

    largest = 2**63 - 1
    assert run_batch(dataclasses.replace(_PROBE_BASE, agents=agents(largest))).ok
    with pytest.raises(ConfigError, match=name):
        agents(largest + 1)


def test_grid_stops_at_the_largest_base_a_contact_pick_draws_from():
    # Resolved only: a batch on a grid this size would allocate gigabytes.
    for width, height in ((1 << 16, 1 << 16), (1 << 32, 1)):
        assert resolve_preset("exp1", {"landscape.grid_width": width, "landscape.grid_height": height})
        with pytest.raises(ConfigError, match="2\\*\\*32"):
            resolve_preset("exp1", {"landscape.grid_width": width + 1, "landscape.grid_height": height})


@pytest.mark.parametrize(
    "overrides",
    [
        # Tall and wide grids, whose product overflows alone.
        {"landscape.max_bonds": 1e305, "landscape.grid_width": 1, "landscape.grid_height": 2000},
        {"landscape.max_bonds": 1e305, "landscape.grid_width": 2000, "landscape.grid_height": 1},
        # The clients' total is a float, the agents' total overflows it.
        {"landscape.max_bonds": 1e306, "agents.init_bonds_max": 1e308, "agents.n_agents": 1},
        # Int caps and endowments, past any float.
        {"landscape.max_cash": 10**305, "landscape.grid_width": 2000, "landscape.grid_height": 1},
        {"agents.init_cash_max": 10**308},
    ],
)
def test_worst_case_totals_must_be_floats(overrides):
    with pytest.raises(ConfigError, match="worst-case total"):
        resolve_preset("exp1", {"landscape.grid_width": 10, "landscape.grid_height": 10, **overrides})


# -- batch outputs -------------------------------------------------------------


def test_batch_writes_complete_tree(mini_batch):
    out = mini_batch.output_dir
    expected = {
        TRADES_CSV, DECISIONS_CSV, LIFECYCLE_CSV, SUMMARIES_CSV, SERIES_CSV,
        CONFIG_ECHO, MANIFEST_JSON, JOURNAL_DIR,
    }
    for kind in TABLE_FILES.values():
        expected.update(kind)
    assert {p.name for p in out.iterdir()} == expected
    journals = sorted((out / JOURNAL_DIR).iterdir())
    assert [p.name for p in journals] == [f"sim_{i:04d}.jsonl" for i in range(4)]


def test_batch_csv_schemas(mini_batch):
    out = mini_batch.output_dir

    def header(name):
        with open(out / name, encoding="utf-8", newline="") as fh:
            return next(csv.reader(fh))

    assert header(TRADES_CSV) == [
        "sim_id", "step", "mm_id", "counterparty_kind", "counterparty",
        "direction", "bond_qty", "cash_qty",
    ]
    assert header(DECISIONS_CSV) == [
        "sim_id", "seq", "step", "mm_id", "x", "y", "state", "provider",
    ]
    assert header(LIFECYCLE_CSV) == [
        "sim_id", "mm_id", "ceased_at_step", "breadth", "bond_rate", "cash_rate",
    ]
    with open(out / LIFECYCLE_CSV, encoding="utf-8", newline="") as fh:
        assert sum(1 for _ in csv.DictReader(fh)) == 4 * 4  # sims x agents
    assert header(SUMMARIES_CSV) == [
        "sim_id", "terminal_step", "terminal_reason", "steps_executed", "max_life",
        "mm_client_bond_pct", "mm_client_cash_pct", "interbank_bond_pct", "interbank_cash_pct",
        "contacts", "decision_requests", "yes_count", "no_count", "error_count",
        "trade_count", "interbank_trade_count", "initial_client_bonds", "initial_client_cash",
    ]


def test_manifest_contents(mini_batch):
    text = (mini_batch.output_dir / MANIFEST_JSON).read_text("utf-8")
    assert text.endswith("}\n")
    manifest = json.loads(text)
    assert manifest["status"] == "ok"
    assert manifest["n_simulations"] == 4
    assert manifest["master_seed"] == 1234
    assert manifest["provider_kind"] == "bernoulli"
    assert manifest["preset"] == "exp1"
    assert manifest["completed"] == 4
    assert manifest["aborted"] == [] and manifest["skipped"] == []
    assert manifest["config_sha256"] == config_hash(mini_batch.config)
    assert manifest["output_dir"] == str(mini_batch.output_dir)
    started = datetime.datetime.fromisoformat(manifest["started_at"])
    finished = datetime.datetime.fromisoformat(manifest["finished_at"])
    assert started.tzinfo is not None and started <= finished


def test_manifest_records_the_versions_the_bytes_depend_on(mini_batch):
    # The manifest names the interpreter, the libraries and the SIMD features
    # numpy dispatches on, so a tree whose bytes moved says what ran it.
    manifest = json.loads((mini_batch.output_dir / MANIFEST_JSON).read_text("utf-8"))
    assert manifest["python_version"] == platform.python_version()
    assert manifest["numpy_version"] == numpy.__version__
    assert manifest["pyyaml_version"] == yaml.__version__
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as reported
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__ as reported
    features = manifest["numpy_cpu_features"]
    assert all(type(name) is str for name in features) and features == sorted(features)
    assert features == sorted(name for name, enabled in reported.items() if enabled)


def test_config_echo_round_trips(mini_batch):
    echoed = yaml.safe_load((mini_batch.output_dir / CONFIG_ECHO).read_text("utf-8"))
    assert echoed == config_to_dict(mini_batch.config)


def test_load_output_dir_round_trips(mini_batch):
    summaries, states = load_output_dir(str(mini_batch.output_dir))
    assert summaries == mini_batch.summaries
    assert states == [
        o.state for r in mini_batch.results for _, o in r.decisions
    ]
    with pytest.raises(ConfigError):
        load_output_dir(mini_batch.output_dir / "nope")


def test_rebuild_tables_matches_first_pass(mini_batch, tmp_path):
    out = mini_batch.output_dir
    before = {
        name: (out / name).read_bytes()
        for kind in TABLE_FILES.values()
        for name in kind
    }
    rebuild_tables(out)
    after = {name: (out / name).read_bytes() for name in before}
    assert after == before  # recount pipeline reproduces the live pipeline
    # A window given explicitly is used, and checked as the config's is.
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    assert "Rolling 3 Requests (%)" in rebuild_tables(copy, window=3)["yes_ratio"]
    with pytest.raises(ConfigError, match="from the window argument"):
        rebuild_tables(copy, window=0)


def test_parallel_batches_are_byte_identical(tmp_path, monkeypatch):
    # The pool is chosen by parallelism alone: a one-sim batch runs there too.
    pools = []

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    for n_simulations in (4, 1):
        serial_dir = tmp_path / f"serial{n_simulations}"
        pooled_dir = tmp_path / f"pooled{n_simulations}"
        serial = run_batch(dataclasses.replace(mini_config(serial_dir), n_simulations=n_simulations))
        pooled = run_batch(
            resolve_preset(
                "exp1",
                {
                    "n_simulations": n_simulations,
                    "max_steps": 60,
                    "master_seed": 1234,
                    "output_dir": str(pooled_dir),
                    "parallelism": 2,
                },
            )
        )
        assert len(serial.summaries) == n_simulations
        assert serial.summaries == pooled.summaries
        # Results come back pickled; a NamedTuple equals a plain tuple,
        # so the record types are checked too.
        assert pooled.results == serial.results
        assert all(type(t) is engine.TradeRecord for r in pooled.results for t in r.trades)
        assert all(type(q) is DesireQuery for r in pooled.results for q, _ in r.decisions)
        names = sorted(
            p.relative_to(serial_dir).as_posix() for p in serial_dir.rglob("*") if p.is_file()
        )
        pooled_names = sorted(
            p.relative_to(pooled_dir).as_posix() for p in pooled_dir.rglob("*") if p.is_file()
        )
        assert names == pooled_names
        for name in names:
            if name == MANIFEST_JSON:  # timestamps and worker count differ by design
                continue
            assert filecmp.cmp(serial_dir / name, pooled_dir / name, shallow=False), name
    assert pools == [2, 2]


@pytest.mark.parametrize("parallelism", [1, 2], ids=["serial", "pooled"])
def test_a_batch_decodes_its_results_on_first_read(monkeypatch, parallelism):
    # Every sim's result comes back as the bytes its worker pickled, serial
    # or pooled. The batch decodes none of them until .results is read, then
    # each once, into the results the sims give when run directly.
    decoded = []
    unpickle = engine._unpickle_result

    @functools.wraps(unpickle)  # so a worker's pickle still names engine._unpickle_result
    def counted(*args):
        decoded.append(args[-1]["sim_id"])
        return unpickle(*args)

    monkeypatch.setattr(engine, "_unpickle_result", counted)
    cfg = resolve_preset("exp3", {"n_simulations": 4, "max_steps": 40, "parallelism": parallelism})
    batch = run_batch(cfg)
    assert batch.ok and batch.skipped == []
    assert decoded == []
    first = list(batch.results)
    assert sorted(decoded) == [0, 1, 2, 3]
    second = batch.results
    assert len(decoded) == 4
    assert all(a is b for a, b in zip(first, second, strict=True))
    direct = []
    for sim_id in range(cfg.n_simulations):
        seed = simulation_seed(cfg.master_seed, sim_id)
        provider = decision.build_provider(cfg.provider, seed)
        sim = engine.Simulation(
            sim_id, seed, cfg.landscape, cfg.agents, provider,
            max_steps=cfg.max_steps, interbank_runway_steps=cfg.interbank_runway_steps,
        )
        direct.append(sim.run())
    # A NamedTuple equals a plain tuple, so the record types are checked too.
    assert second == direct
    assert all(type(t) is engine.TradeRecord for r in second for t in r.trades)
    assert all(type(q) is DesireQuery for r in second for q, _ in r.decisions)
    assert batch.summaries == [summarize_simulation(r) for r in direct]
    states = [o.state for r in direct for _, o in r.decisions]
    assert states and batch.series == yes_ratio_series(states, cfg.rolling_window)


def test_encoded_trade_quantities_keep_their_sign(mini_batch):
    # A leg's two quantities share one formatted string only when they are
    # one float object: 0.0 == -0.0, but each keeps its sign in trades.csv.
    mm = engine.CounterpartyKind.MARKET_MAKER
    legs = [engine.TradeRecord(3, 0, mm, 1, None, 0.0, -0.0), engine.TradeRecord(3, 0, mm, 1, None, 0.5, 0.5)]
    result = dataclasses.replace(mini_batch.results[0], trades=legs)
    trades = harness._encode_rows(result, None, None)[0]
    assert trades == "0,3,0,mm,1,,0.0,-0.0\n0,3,0,mm,1,,0.5,0.5\n"


def test_only_a_batch_that_writes_a_tree_encodes_journals(tmp_path, monkeypatch):
    # Every journal line hashes its prompt once; a batch without an output
    # directory encodes no journal, so it hashes none.
    calls = []
    prompt_hash = decision.prompt_hash

    def counted(prompt):
        calls.append(prompt)
        return prompt_hash(prompt)

    monkeypatch.setattr(decision, "prompt_hash", counted)
    cfg = resolve_preset("exp3", {"n_simulations": 2})
    assert cfg.journal_enabled()
    run_batch(cfg)
    assert calls == []
    written = run_batch(dataclasses.replace(cfg, output_dir=str(tmp_path)))
    assert len(calls) == sum(len(r.decisions) for r in written.results) > 0
    assert not hasattr(written.results[0], "journal")


def test_live_thread_pool_batch_matches_serial(tmp_path, monkeypatch):
    # A live batch at parallelism 2 runs its sims on a thread pool. Every
    # reply is Yes, so its logs must equal the serial batch's. Journals
    # carry wall-clock latency and are left out.
    monkeypatch.setenv("TEST_GATEWAY_TOKEN", "tok")
    threads = set()
    run_one = harness._run_one_task

    def traced(task):
        threads.add(threading.current_thread().name)
        return run_one(task)

    monkeypatch.setattr(harness, "_run_one_task", traced)
    logs = []
    with GatewayStub([]) as stub:
        for parallelism in (1, 2):
            out = tmp_path / f"p{parallelism}"
            result = run_batch(resolve_preset("exp3", {
                "n_simulations": 3,
                "max_steps": 30,
                "parallelism": parallelism,
                "output_dir": str(out),
                "provider.kind": "llm",
                "provider.endpoint_url": stub.url,
                "provider.token_env": "TEST_GATEWAY_TOKEN",
                "provider.rate_limit_rps": 10_000.0,
            }))
            assert result.ok
            logs.append({name: (out / name).read_bytes() for name in (SUMMARIES_CSV, TRADES_CSV, DECISIONS_CSV)})
    assert stub.requests
    assert threading.current_thread().name in threads and len(threads) > 1
    assert logs[0] == logs[1]


def test_abort_starts_no_more_sims(monkeypatch):
    # The gateway refuses every request: sim 0 aborts, and the pool cancels
    # the sims no worker has started instead of running and dropping them.
    monkeypatch.setenv("TEST_GATEWAY_TOKEN", "tok")
    with GatewayStub([(401, {})] * 40) as stub:
        result = run_batch(resolve_preset("exp3", {
            "n_simulations": 40,
            "max_steps": 30,
            "parallelism": 2,
            "provider.kind": "llm",
            "provider.endpoint_url": stub.url,
            "provider.token_env": "TEST_GATEWAY_TOKEN",
            "provider.max_retries": 0,
            "provider.rate_limit_rps": 10_000.0,
        }))
    assert [sim_id for sim_id, _ in result.aborted] == [0]
    assert result.skipped == list(range(1, 40))
    assert len(stub.requests) < 10


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork", reason="the patched method reaches workers only by fork"
)
def test_unexpected_exception_in_a_pooled_sim_is_partial(tmp_path, monkeypatch, caplog):
    # 16 sims at parallelism 2 run in chunks of two, so sim 3 shares a chunk
    # with sim 2. The batch still keeps sims 0-2, names sim 3 as the one that
    # raised, with the worker's traceback in its log record, and skips the rest.
    run = engine.Simulation.run

    def broken_in_sim_3(self):
        if self.sim_id == 3:
            raise ValueError("bad state")
        return run(self)

    monkeypatch.setattr(engine.Simulation, "run", broken_in_sim_3)
    out = tmp_path / "pooled"
    result = run_batch(resolve_preset("exp1", {
        "n_simulations": 16, "max_steps": 5, "parallelism": 2, "output_dir": str(out),
    }))
    assert result.aborted == [(3, "ValueError: bad state")]
    assert result.skipped == list(range(4, 16))
    assert [r.sim_id for r in result.results] == [0, 1, 2]
    manifest = json.loads((out / MANIFEST_JSON).read_text(encoding="utf-8"))
    assert manifest["status"] == "partial" and manifest["completed"] == 3
    aborts = [r for r in caplog.records if r.levelno == logging.ERROR and " aborted: " in r.getMessage()]
    assert [r.getMessage().split("\n")[0] for r in aborts] == ["simulation 3 aborted: ValueError: bad state"]
    assert "in broken_in_sim_3" in caplog.text and "ValueError: bad state" in caplog.text


# sha256 of decisions.csv then trades.csv for exp1 on a 200x200 grid (2 sims,
# 300-step cap, master seed 42), recorded from the full-grid roll that drew
# every cell's availability and direction each step. Lazy lookups must
# reproduce it on any grid shape, not only on the goldens' 50x50.
GRID200_EXP1_SHA256 = "315ad3906045fdad5c0f8a00f7a0c435481cc4046d8132e6bb0c5d0e1007092c"


def test_grid200_exp1_bytes_pinned(tmp_path):
    out = tmp_path / "grid200"
    run_batch(
        resolve_preset(
            "exp1",
            {
                "landscape.grid_width": 200,
                "landscape.grid_height": 200,
                "n_simulations": 2,
                "max_steps": 300,
                "master_seed": 42,
                "output_dir": str(out),
            },
        )
    )
    digest = hashlib.sha256()
    for name in (DECISIONS_CSV, TRADES_CSV):
        digest.update((out / name).read_bytes())
    assert digest.hexdigest() == GRID200_EXP1_SHA256


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in root.rglob("*")
        if p.is_file() and p.name != MANIFEST_JSON
    }


# sha256 of every file but the manifest for a small journaled exp3 batch and a
# small exp2 replay batch, recorded before the summary tally, the table
# renderer and the lifecycle/summaries writers were each merged into one. A
# mismatch means an output byte changed.
PINNED_TREES = {
    "exp3-journal": ("exp3", {"n_simulations": 3, "max_steps": 80, "master_seed": 42}),
    "exp2-replay": ("exp2", {"n_simulations": 3}),
}
PINNED_TREE_SHA256 = {
    "exp3-journal": {
        "decisions.csv": "44421cbbb33f55a1e948264112c9f0f6ada03129dc9ef41f854724cf11e0145a",
        "journals/sim_0000.jsonl": "2e6ce4ab829a8c3034ebe96898a4cef82bc1061bf7538ee0c90fdbde48a88971",
        "journals/sim_0001.jsonl": "adac55c861d14394281291f3ca9e0029cd348d826d079faefa741a4e7b3e8f42",
        "journals/sim_0002.jsonl": "cbaad61725622f4208d433cb5308f5eaba237717ef94b9a96576c311d575c760",
        "lifecycle.csv": "828b9cd9f8a896775ca7458e66803bf48fdcfe7d066d4e0d40f595123eeeccd7",
        "resolved_config.yaml": "929aca4e250c64bf755429941eedf4193841ea92111a4ee1b3316edc826b1d5b",
        "stats_client.csv": "f8e54d6a06c7f14f825d50388f9f202f46ef3e83d5fdbb5eabf81535cd7aa653",
        "stats_client.txt": "d6866fa3ea087c10dcdb4dbd731cce85f1dc261dcfb5ecc41b7fd274eccc1c2c",
        "stats_full.csv": "2b8247ad408f09b5bddca8fe0cc9b679341a6ce5d7841692d3928529a59b08c7",
        "stats_full.txt": "0d8640ef61230bd82ec49ed7531b739cc348c07f32de98484b675445650cf7c2",
        "stats_yes_ratio.csv": "3ce4b5efac9e9e8591948eb4678b4ccfd8cd0c2bb9c63132ee31ddf10210dca6",
        "stats_yes_ratio.txt": "14703291b03e6d7fd32d906150a7d434b8f91e49a1c964400733a2159f716441",
        "summaries.csv": "ee9f89e18aec1837ebe9b964021e5ba8832758560d623bf7847f7bdb67b00905",
        "trades.csv": "b6d99141948645046b75a731801e7279314245edde3c9df231af8017df61f826",
        "yes_ratio_series.csv": "e350e3a09235e7e5a60d29d4e591cec4892a367aff4c5ce5a1e0b4aca2dcf045",
    },
    "exp2-replay": {
        "decisions.csv": "acb2eac996dfef600298650060844fb81e32ea2714527bb700dbc8aba6250553",
        "lifecycle.csv": "a6ce42f15196573c20c138db086a37fd6f27dafebae29f1943093008f01956f9",
        "resolved_config.yaml": "8791abbff10d0f7bbe8862644334c68ac01238b275a8ec2e97f56e5775b8df43",
        "stats_client.csv": "bdd5948b1ad1278406316bd4731347a542c16970b703900e860b6fcbe1091a24",
        "stats_client.txt": "e514371bfe0dc60dde76e16fd5da2f38cf2e71d616ba1f5e8c7a8559b4fe20a1",
        "stats_full.csv": "17ba4cd72eb31d568bc5f0fc30affea52f29ce2ac22fef83c0d2eb8c22741ef1",
        "stats_full.txt": "8905dcba69fb2ee518535cab19cc5ae93529e38d4a55ca46ebb750f465957d04",
        "stats_yes_ratio.csv": "3965dffae4fa4e56b98e61350527a96dfb388c5c9b99752165df4996b8b417a8",
        "stats_yes_ratio.txt": "08578b3a73c750b1ec0b3b42d8922b3f7665bb2d1c0c14676ad1234881e14aa8",
        "summaries.csv": "b4903f304a4576bc33af786de68941e401a2720e0c694db4afd82164cf66bedc",
        "trades.csv": "2b6ff1ad76cc2ab37b8f9561129d91346080d0d192ad4cc6c12a5d771bd3db25",
        "yes_ratio_series.csv": "205ef6494d6536c0428f39e692d9c26bac1fe48bce8d953c0913151d5cd8a132",
    },
}


@pytest.mark.parametrize("name", sorted(PINNED_TREES))
def test_whole_tree_bytes_pinned(tmp_path, name):
    preset, overrides = PINNED_TREES[name]
    out = tmp_path / name
    run_batch(resolve_preset(preset, {**overrides, "output_dir": str(out)}))
    digests = {path: hashlib.sha256(data).hexdigest() for path, data in tree_bytes(out).items()}
    assert digests == PINNED_TREE_SHA256[name]


@pytest.mark.parametrize(
    "second_run",
    [{}, {"journal": False, "landscape.availability_p": 0.0}],
    ids=["fewer-sims", "no-journal-no-decisions"],
)
def test_rerun_into_same_dir_leaves_no_stale_files(tmp_path, second_run):
    def exp3(n_simulations, out, extra):
        overrides = {"n_simulations": n_simulations, "max_steps": 60, "output_dir": str(out)}
        return resolve_preset("exp3", {**overrides, **extra})

    reused, fresh = tmp_path / "reused", tmp_path / "fresh"
    run_batch(exp3(6, reused, {}))
    assert len(list((reused / JOURNAL_DIR).glob("*.jsonl"))) == 6
    run_batch(exp3(2, reused, second_run))
    run_batch(exp3(2, fresh, second_run))
    assert tree_bytes(reused) == tree_bytes(fresh)
    assert not [p.name for p in reused.rglob(f"*{harness._PARTIAL}")]
    if second_run:  # no decision, so no series and no yes-ratio table, nor after a rebuild
        assert not (fresh / SERIES_CSV).exists()
        assert "yes_ratio" not in rebuild_tables(fresh) and not (fresh / TABLE_FILES["yes_ratio"][0]).exists()


class FailsOnDecision(BernoulliProvider):
    """A coin flip that fails hard on its ``n``-th decision (0-based)."""

    def __init__(self, n, rng):
        super().__init__(0.5, rng)
        self.left = n

    def decide(self, q):
        if self.left == 0:
            raise ProviderHardFailure("gateway gone")
        self.left -= 1
        return super().decide(q)


def test_aborted_batch_keeps_what_ran(tmp_path, monkeypatch):
    # A serial batch builds its sims' providers in sim order: sim 1's fails
    # hard on its sixth decision, so no later sim builds one.
    providers = iter([lambda rng: BernoulliProvider(0.5, rng), lambda rng: FailsOnDecision(5, rng)])
    monkeypatch.setattr(
        harness, "build_provider",
        lambda config, seed, replay_slice=None: next(providers)(substream(seed, STREAM_PROVIDER)),
    )
    out = tmp_path / "partial"
    result = run_batch(mini_config(out))
    assert result.aborted == [(1, "gateway gone")]
    assert result.skipped == [2, 3]
    assert not result.ok
    manifest = json.loads((out / MANIFEST_JSON).read_text("utf-8"))
    assert manifest["status"] == "partial"
    assert manifest["aborted"] == [{"sim_id": 1, "reason": "gateway gone"}]
    with open(out / SUMMARIES_CSV, encoding="utf-8", newline="") as fh:
        assert [row["sim_id"] for row in csv.DictReader(fh)] == ["0"]
    with open(out / DECISIONS_CSV, encoding="utf-8", newline="") as fh:
        sim1 = [row["seq"] for row in csv.DictReader(fh) if row["sim_id"] == "1"]
    assert sim1 == ["0", "1", "2", "3", "4"]  # the decisions made before the failure


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork", reason="the patched builder reaches workers only by fork"
)
def test_a_pooled_sim_aborted_by_its_result_writes_the_serial_tree(tmp_path, monkeypatch):
    # Sim 2's provider fails hard on its sixth decision, in a worker as in the
    # serial batch. Both keep its five decisions, in the logs, its journal and
    # the series, and skip sims 3-5: the trees are equal.
    cfg = resolve_preset("exp3", {"n_simulations": 6, "max_steps": 60})
    doomed = simulation_seed(cfg.master_seed, 2)
    build = harness.build_provider

    def failing_in_sim_2(config, seed, replay_slice=None):
        if seed == doomed:
            return FailsOnDecision(5, substream(seed, STREAM_PROVIDER))
        return build(config, seed, replay_slice)

    monkeypatch.setattr(harness, "build_provider", failing_in_sim_2)
    trees = []
    for parallelism in (1, 2):
        out = tmp_path / f"p{parallelism}"
        result = run_batch(dataclasses.replace(cfg, parallelism=parallelism, output_dir=str(out)))
        assert result.aborted == [(2, "gateway gone")] and result.skipped == [3, 4, 5]
        assert json.loads((out / MANIFEST_JSON).read_text("utf-8"))["status"] == "partial"
        trees.append(tree_bytes(out))
    serial, pooled = trees
    assert pooled == serial
    decisions = serial[DECISIONS_CSV].decode().splitlines()[1:]
    assert sum(row.startswith("2,") for row in decisions) == 5 and "journals/sim_0002.jsonl" in serial
    assert len(serial[SERIES_CSV].decode().splitlines()) == len(decisions) + 1


def test_failure_after_a_sim_ran_leaves_nothing_of_it(tmp_path, monkeypatch):
    # Sim 1 runs to its end, then encoding its rows raises: the sim is
    # aborted like one that raised mid-run, and none of its files is written.
    encode = harness._encode_rows

    def broken_for_sim_1(r, summary, template):
        if r.sim_id == 1:
            raise OSError("encoder broke")
        return encode(r, summary, template)

    monkeypatch.setattr(harness, "_encode_rows", broken_for_sim_1)
    out = tmp_path / "partial"
    result = run_batch(resolve_preset("exp3", {"n_simulations": 3, "max_steps": 30, "output_dir": str(out)}))
    assert result.aborted == [(1, "OSError: encoder broke")]
    assert [r.sim_id for r in result.results] == [0]
    assert result.skipped == [2]
    assert json.loads((out / MANIFEST_JSON).read_text("utf-8"))["status"] == "partial"
    for name in (TRADES_CSV, DECISIONS_CSV, LIFECYCLE_CSV, SUMMARIES_CSV):
        with open(out / name, encoding="utf-8", newline="") as fh:
            assert {row["sim_id"] for row in csv.DictReader(fh)} <= {"0"}, name
    assert (out / JOURNAL_DIR / "sim_0000.jsonl").exists()
    assert not (out / JOURNAL_DIR / "sim_0001.jsonl").exists()


@pytest.mark.parametrize("broken_step", ["yes_ratio_series", "write_tables"])
def test_failure_outside_the_sims_keeps_their_rows(tmp_path, monkeypatch, mini_batch, broken_step):
    # An exception after the sims, before or while the tables are written,
    # propagates. Before it does, every finished sim's files and the config
    # echo are in place, and the manifest says the batch failed and why.
    def broken(*args):
        raise OSError("disk full\nsecond line")

    monkeypatch.setattr(harness, broken_step, broken)
    out = tmp_path / "failed"
    with pytest.raises(OSError, match="disk full"):
        run_batch(mini_config(out))
    manifest = json.loads((out / MANIFEST_JSON).read_text("utf-8"))
    assert manifest["status"] == "failed"
    assert manifest["error"] == "OSError: disk full"
    assert manifest["completed"] == 4 and manifest["skipped"] == []
    journals = [f"{JOURNAL_DIR}/sim_{i:04d}.jsonl" for i in range(4)]
    assert sorted(p.relative_to(out).as_posix() for p in (out / JOURNAL_DIR).iterdir()) == journals
    for name in (TRADES_CSV, DECISIONS_CSV, LIFECYCLE_CSV, SUMMARIES_CSV, CONFIG_ECHO, *journals):
        assert (out / name).read_bytes() == (mini_batch.output_dir / name).read_bytes(), name
    assert not [p.name for p in out.rglob(f"*{harness._PARTIAL}")]
    if broken_step == "yes_ratio_series":  # a batch that writes no tree raises it as it is
        with pytest.raises(OSError, match="disk full"):
            run_batch(mini_config())


def test_failure_while_the_logs_are_published_fails_the_manifest(tmp_path, monkeypatch):
    # The logs are moved into place before the manifest is written, so an
    # error there propagates and the manifest names it.
    def broken(out):
        raise OSError("rename refused\nsecond line")

    monkeypatch.setattr(harness, "_publish_logs", broken)
    out = tmp_path / "failed"
    with pytest.raises(OSError, match="rename refused"):
        run_batch(mini_config(out))
    manifest = json.loads((out / MANIFEST_JSON).read_text("utf-8"))
    assert manifest["status"] == "failed"
    assert manifest["error"] == "OSError: rename refused"
    assert manifest["completed"] == 4 and manifest["skipped"] == []
    assert not (out / SERIES_CSV).exists()  # nothing after the sims ran


def test_interrupt_between_sims_keeps_the_finished_ones(tmp_path, monkeypatch, mini_batch):
    # An interrupt in the middle of a batch, as sim 2 is due: sims 0 and 1
    # are in the logs and their journals are written, the manifest says
    # failed, and sims 2 and 3 are skipped.
    run_one = harness._run_one_task
    out = tmp_path / "interrupted"

    def interrupted(task):
        if task[1] == 2:
            # A log is under its final name only once the sims end.
            assert not (out / SUMMARIES_CSV).exists()
            raise KeyboardInterrupt
        return run_one(task)

    monkeypatch.setattr(harness, "_run_one_task", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_batch(mini_config(out))
    manifest = json.loads((out / MANIFEST_JSON).read_text("utf-8"))
    assert manifest["status"] == "failed" and manifest["error"].startswith("KeyboardInterrupt")
    assert manifest["completed"] == 2 and manifest["skipped"] == [2, 3]
    for name in (TRADES_CSV, DECISIONS_CSV, LIFECYCLE_CSV, SUMMARIES_CSV):
        lines = (mini_batch.output_dir / name).read_text("utf-8").splitlines(keepends=True)
        kept = [line for i, line in enumerate(lines) if i == 0 or line.split(",", 1)[0] in ("0", "1")]
        assert (out / name).read_text("utf-8") == "".join(kept), name
    journals = [f"{JOURNAL_DIR}/sim_0000.jsonl", f"{JOURNAL_DIR}/sim_0001.jsonl"]
    assert sorted(p.relative_to(out).as_posix() for p in (out / JOURNAL_DIR).iterdir()) == journals
    for name in (CONFIG_ECHO, *journals):
        assert (out / name).read_bytes() == (mini_batch.output_dir / name).read_bytes(), name
    assert not [p.name for p in out.rglob(f"*{harness._PARTIAL}")]


def test_exp2_preset_runs_trade_free(tmp_path):
    cfg = resolve_preset("exp2", {"output_dir": str(tmp_path / "exp2")})
    result = run_batch(cfg)
    assert result.ok
    assert all(s.trade_count == 0 for s in result.summaries)
    assert all(s.yes_count == 0 for s in result.summaries)
    # Replay batches do not journal by default: nothing new was recorded.
    assert not (tmp_path / "exp2" / JOURNAL_DIR).exists()


def test_replay_shortfall_is_a_config_error(tmp_path):
    # 200 slices for 201 sims: no sim runs, and no tree is written.
    out = tmp_path / "short"
    cfg = resolve_preset(
        "exp2",
        {"n_simulations": 201, "provider.replay_path": shipped_aversion_corpus(), "output_dir": str(out)},
    )
    with pytest.raises(ConfigError, match="200 simulation slices for 201 simulations"):
        run_batch(cfg)
    assert not out.exists()


def test_journal_capture_enables_round_trip(tmp_path):
    out = tmp_path / "capture"
    cfg = resolve_preset(
        "exp1",
        {
            "n_simulations": 2,
            "max_steps": 40,
            "master_seed": 77,
            "output_dir": str(out),
            "journal": True,
        },
    )
    first = run_batch(cfg)
    corpus = tmp_path / "corpus.jsonl"
    with open(corpus, "w", encoding="utf-8") as fh:
        for name in sorted((out / JOURNAL_DIR).glob("*.jsonl")):
            fh.write(name.read_text(encoding="utf-8"))

    replay_cfg = resolve_preset(
        "exp2",
        {
            "n_simulations": 2,
            "max_steps": 40,
            "master_seed": 77,
            "provider.replay_path": str(corpus),
            "provider.prompt_template": "aversion2",
        },
    )
    # The journal was recorded under the timeliness template; replaying it
    # under exp2's template must flag every record as a prompt mismatch.
    mismatched = run_batch(replay_cfg)
    assert all(s.error_count == s.decision_requests for s in mismatched.summaries)


def test_replay_tree_does_not_depend_on_the_corpus_location(tmp_path):
    # The echo names the corpus by its sha256; its path is an execution
    # field, kept in the manifest only.
    corpus = Path(shipped_aversion_corpus()).read_bytes()
    trees = []
    for where in ("a", "b/deeper"):
        path = tmp_path / where / "corpus.jsonl"
        path.parent.mkdir(parents=True)
        path.write_bytes(corpus)
        out = tmp_path / where / "out"
        run_batch(resolve_preset(
            "exp2",
            {"n_simulations": 3, "provider.replay_path": str(path), "output_dir": str(out)},
        ))
        manifest = json.loads((out / MANIFEST_JSON).read_text("utf-8"))
        assert manifest["replay_path"] == str(path)
        trees.append({
            p.relative_to(out).as_posix(): p.read_bytes()
            for p in out.rglob("*")
            if p.is_file() and p.name != MANIFEST_JSON
        })
    assert trees[0] == trees[1]
    provider = yaml.safe_load(trees[0][CONFIG_ECHO])["provider"]
    assert "replay_path" not in provider
    assert provider["replay_sha256"] == hashlib.sha256(corpus).hexdigest()


def test_unreadable_replay_path_fails_before_the_sims(tmp_path):
    # Even a provider that never replays names its corpus in the echo.
    cfg = resolve_preset(
        "exp3",
        {"provider.replay_path": str(tmp_path / "missing.jsonl"), "output_dir": str(tmp_path / "out")},
    )
    with pytest.raises(ConfigError, match="replay corpus"):
        run_batch(cfg)
    assert not (tmp_path / "out").exists()


def test_exp2_batch_opens_its_corpus_twice(tmp_path):
    # Once for the config echo's sha256, once to read the journal.
    corpus = shipped_aversion_corpus()
    cfg = resolve_preset("exp2", {"n_simulations": 3, "output_dir": str(tmp_path / "out")})
    opens = []
    counting = [True]

    def hook(event, args):
        if counting[0] and event == "open" and args[0] == corpus:
            opens.append(args[1])

    sys.addaudithook(hook)  # an audit hook cannot be removed; it goes idle below
    try:
        run_batch(cfg)
    finally:
        counting[0] = False
    assert len(opens) == 2


def test_build_fixtures_reproduces_shipped_corpora(tmp_path):
    # The script runs from an uninstalled checkout (-I: no PYTHONPATH, no
    # script directory on sys.path) and rebuilds every shipped fixture byte
    # for byte; the aversion corpus is recorded one Simulation(...).run() per sim.
    repo = Path(__file__).resolve().parent.parent
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    run = subprocess.run(
        [sys.executable, "-I", str(repo / "scripts" / "build_fixtures.py"), "--out", str(tmp_path)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    shipped = repo / "src" / "bondflow" / "data" / "fixtures"
    names = sorted(p.name for p in shipped.iterdir())
    assert names == ["aversion_replay.jsonl", "reply_fixtures.json"]
    for name in names:
        assert (tmp_path / name).read_bytes() == (shipped / name).read_bytes(), name


def test_a_batch_and_a_rebuild_never_import_numpy_ma(tmp_path):
    # np.percentile imports numpy.ma on its first call in a process (15-22 ms);
    # nothing a run or a table rebuild does may pull it back in. A fresh
    # interpreter, because this test process may have imported it already.
    # numpy 1.x imports numpy.ma with numpy itself, so there the run and the
    # rebuild can only leave it as they found it; numpy 2.x loads it lazily.
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from bondflow import rebuild_tables, resolve_preset, run_batch\n"
        "before = 'numpy.ma' in sys.modules\n"
        "out = sys.argv[1]\n"
        "run_batch(resolve_preset('exp3', {'n_simulations': 3, 'max_steps': 40, 'output_dir': out}))\n"
        "rebuild_tables(out)\n"
        "print(np.__version__.split('.')[0], before, 'numpy.ma' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "out")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "out" / "summaries.csv").is_file()
    major, before, after = run.stdout.split()
    assert after == before
    if int(major) >= 2:
        assert before == "False"
