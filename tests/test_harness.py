"""Harness: presets, config resolution, batch outputs, parallel invariance."""

from __future__ import annotations

import csv
import dataclasses
import filecmp
import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest
import yaml

from bondflow import (
    AgentConfig,
    BernoulliProvider,
    CeaseRule,
    ConfigError,
    DecisionState,
    ExperimentConfig,
    LandscapeConfig,
    PromptTemplate,
    ProviderConfig,
    ProviderHardFailure,
    ProviderKind,
    load_config_file,
    rebuild_tables,
    resolve_config,
    resolve_preset,
    run_batch,
)
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
    shipped_timeliness_fixture,
)
from bondflow import harness
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
    assert Path(shipped_timeliness_fixture()).exists()


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
        load_config_file(path, {"preset": "exp3"})


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
    with pytest.raises(ConfigError):
        resolve_preset("exp1", overrides)


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
    cfg = load_config_file(path)
    assert cfg.preset == "exp1"
    assert cfg.n_simulations == 3
    assert cfg.landscape.availability_p == 0.25
    # CLI-style overrides outrank the file.
    cfg = load_config_file(path, {"n_simulations": 5})
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
    cfg = load_config_file(path)
    assert cfg.preset is None
    assert cfg.landscape.grid_width == 8
    assert cfg.agents.cease_rule is CeaseRule.EITHER_EXHAUSTED
    assert cfg.provider.bernoulli_p == 0.25


def test_resolve_config_dispatches(tmp_path):
    assert resolve_config("exp1").preset == "exp1"
    path = tmp_path / "c.yaml"
    path.write_text(yaml.safe_dump({"preset": "exp3"}), encoding="utf-8")
    assert resolve_config(str(path)).preset == "exp3"
    with pytest.raises(ConfigError):
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


@pytest.mark.parametrize(
    ("valid", "bad"),
    [
        (LandscapeConfig(), {"availability_p": 1.5}),
        (AgentConfig(), {"breadth_min": 0}),
        (ProviderConfig(), {"bernoulli_p": -0.1}),
        (ExperimentConfig(), {"n_simulations": 0}),
    ],
    ids=["landscape", "agents", "provider", "experiment"],
)
def test_configs_check_themselves_on_construction(valid, bad):
    # A config that exists is valid, including one made by replace.
    with pytest.raises(ConfigError):
        dataclasses.replace(valid, **bad)


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
    manifest = json.loads((mini_batch.output_dir / MANIFEST_JSON).read_text("utf-8"))
    assert manifest["status"] == "ok"
    assert manifest["n_simulations"] == 4
    assert manifest["master_seed"] == 1234
    assert manifest["provider_kind"] == "bernoulli"
    assert manifest["preset"] == "exp1"
    assert manifest["completed"] == 4
    assert manifest["aborted"] == [] and manifest["skipped"] == []
    assert manifest["config_sha256"] == config_hash(mini_batch.config)
    assert manifest["output_dir"] == str(mini_batch.output_dir)


def test_config_echo_round_trips(mini_batch):
    echoed = yaml.safe_load((mini_batch.output_dir / CONFIG_ECHO).read_text("utf-8"))
    assert echoed == config_to_dict(mini_batch.config)


def test_load_output_dir_round_trips(mini_batch):
    summaries, states = load_output_dir(mini_batch.output_dir)
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


def test_parallel_batches_are_byte_identical(tmp_path):
    serial_dir = tmp_path / "serial"
    pooled_dir = tmp_path / "pooled"
    serial = run_batch(mini_config(serial_dir))
    pooled = run_batch(
        resolve_preset(
            "exp1",
            {
                "n_simulations": 4,
                "max_steps": 60,
                "master_seed": 1234,
                "output_dir": str(pooled_dir),
                "parallelism": 2,
            },
        )
    )
    assert serial.summaries == pooled.summaries
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


def test_live_thread_pool_batch_matches_serial(tmp_path, monkeypatch):
    # A live batch at parallelism 2 runs its sims on a thread pool. Every
    # reply is Yes, so its logs must equal the serial batch's. Journals
    # carry wall-clock latency and are left out.
    monkeypatch.setenv("TEST_GATEWAY_TOKEN", "tok")
    threads = set()
    run_one = harness._run_one_task

    def traced(task, provider=None):
        threads.add(threading.current_thread().name)
        return run_one(task, provider)

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


class FailsOnDecision(BernoulliProvider):
    """A coin flip that fails hard on its ``n``-th decision (0-based)."""

    def __init__(self, n):
        super().__init__(0.5)
        self.left = n

    def decide(self, q, rng):
        if self.left == 0:
            raise ProviderHardFailure("gateway gone")
        self.left -= 1
        return super().decide(q, rng)


def test_aborted_batch_keeps_what_ran(tmp_path):
    out = tmp_path / "partial"
    result = run_batch(
        mini_config(out),
        provider_factory=lambda sim_id: FailsOnDecision(5) if sim_id == 1 else BernoulliProvider(0.5),
    )
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


def test_exp2_preset_runs_trade_free(tmp_path):
    cfg = resolve_preset("exp2", {"output_dir": str(tmp_path / "exp2")})
    result = run_batch(cfg)
    assert result.ok
    assert all(s.trade_count == 0 for s in result.summaries)
    assert all(s.yes_count == 0 for s in result.summaries)
    # Replay batches do not journal by default: nothing new was recorded.
    assert not (tmp_path / "exp2" / JOURNAL_DIR).exists()


def test_replay_shortfall_pads_with_error_journals(tmp_path, caplog):
    import logging

    corpus = shipped_aversion_corpus()
    cfg = resolve_preset(
        "exp2",
        {"n_simulations": 201, "provider.replay_path": str(corpus)},
    )
    with caplog.at_level(logging.WARNING):
        result = run_batch(cfg)
    assert "201" in caplog.text
    assert len(result.summaries) == 201
    extra = result.summaries[-1]
    assert extra.yes_count == 0
    assert extra.error_count == extra.decision_requests  # nothing to replay


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
    # for byte; the aversion corpus goes through run_batch(provider_factory=...).
    repo = Path(__file__).resolve().parent.parent
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    run = subprocess.run(
        [sys.executable, "-I", str(repo / "scripts" / "build_fixtures.py"), "--out", str(tmp_path)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    shipped = repo / "src" / "bondflow" / "data" / "fixtures"
    names = sorted(p.name for p in shipped.iterdir())
    assert names == ["aversion_replay.jsonl", "reply_fixtures.json", "timeliness_10k.jsonl"]
    for name in names:
        assert (tmp_path / name).read_bytes() == (shipped / name).read_bytes(), name
