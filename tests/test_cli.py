"""Command-line interface: exit codes, output trees, replay round trip."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import yaml

from bondflow import load_config_file, resolve_preset, run_batch
from bondflow.cli import (
    EXIT_CONFIG_ERROR,
    EXIT_OK,
    EXIT_PARTIAL_BATCH,
    EXIT_PROVIDER_FAILURE,
    main,
)
from bondflow.harness import (
    CONFIG_ECHO,
    JOURNAL_DIR,
    MANIFEST_JSON,
    SUMMARIES_CSV,
    TABLE_FILES,
    config_hash,
)
from gateway import GatewayStub


def test_run_preset_writes_outputs(tmp_path, capsys):
    out = tmp_path / "exp1-run"
    rc = main(
        ["run", "exp1", "--sims", "2", "--seed", "7", "--out", str(out)]
    )
    assert rc == EXIT_OK
    assert (out / SUMMARIES_CSV).exists()
    assert (out / MANIFEST_JSON).exists()
    stdout = capsys.readouterr().out
    assert "2 simulations complete" in stdout
    assert str(out) in stdout


def test_run_unknown_source_is_config_error(tmp_path, capsys):
    rc = main(["run", "exp9", "--out", str(tmp_path / "x")])
    assert rc == EXIT_CONFIG_ERROR


def test_run_bad_override_is_config_error(tmp_path):
    rc = main(
        ["run", "exp1", "--availability", "1.5", "--out", str(tmp_path / "x")]
    )
    assert rc == EXIT_CONFIG_ERROR


def test_run_live_without_token_is_provider_failure(tmp_path, monkeypatch):
    monkeypatch.delenv("OPENAI_API_KEY", raising=False)
    rc = main(
        ["run", "exp2", "--live", "--sims", "1", "--out", str(tmp_path / "x")]
    )
    assert rc == EXIT_PROVIDER_FAILURE


def test_live_rejection_mid_batch_is_partial(tmp_path, monkeypatch):
    # The gateway refuses the first request: sim 0 aborts, sim 1 is skipped.
    monkeypatch.setenv("TEST_GATEWAY_TOKEN", "tok")
    with GatewayStub([(401, {})]) as stub:
        path = tmp_path / "live.yaml"
        path.write_text(
            yaml.safe_dump({
                "preset": "exp2",
                "n_simulations": 2,
                "max_steps": 40,
                "provider": {
                    "endpoint_url": stub.url,
                    "token_env": "TEST_GATEWAY_TOKEN",
                    "max_retries": 0,
                    "rate_limit_rps": 10_000.0,
                },
            }),
            encoding="utf-8",
        )
        out = tmp_path / "x"
        rc = main(["run", str(path), "--live", "--out", str(out)])
    assert rc == EXIT_PARTIAL_BATCH
    assert len(stub.requests) == 1
    manifest = json.loads((out / MANIFEST_JSON).read_text(encoding="utf-8"))
    assert manifest["status"] == "partial" and manifest["skipped"] == [1]


@pytest.mark.parametrize(
    "text",
    ["n_simulations: ten\n", "landscape: {grid_width: null}\n", "n_simulations: null\n"],
)
def test_wrongly_typed_config_file_is_config_error(tmp_path, text):
    path = tmp_path / "bad.yaml"
    path.write_text(text, encoding="utf-8")
    assert main(["run", str(path), "--out", str(tmp_path / "x")]) == EXIT_CONFIG_ERROR


def test_live_flag_conflicts_with_locked_preset(tmp_path):
    # exp1 pins its provider to the coin flip; --live must be refused.
    rc = main(["run", "exp1", "--live", "--out", str(tmp_path / "x")])
    assert rc == EXIT_CONFIG_ERROR


def test_tables_command_reprints_tables(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["run", "exp1", "--sims", "2", "--seed", "3", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    rc = main(["tables", str(out)])
    assert rc == EXIT_OK
    stdout = capsys.readouterr().out
    assert "MaxLife" in stdout
    assert "Yes/No Ratio (%)" in stdout


def test_tables_command_keeps_the_runs_rolling_window(tmp_path):
    cfg_path = tmp_path / "w5.yaml"
    cfg_path.write_text(
        "preset: exp3\nn_simulations: 3\nmax_steps: 60\nrolling_window: 5\n", encoding="utf-8"
    )
    out = tmp_path / "run"
    assert main(["run", str(cfg_path), "--out", str(out)]) == EXIT_OK
    names = [name for pair in TABLE_FILES.values() for name in pair]
    before = {name: (out / name).read_bytes() for name in names}
    assert b"Rolling 5 Requests (%)" in before["stats_yes_ratio.csv"]
    assert main(["tables", str(out)]) == EXIT_OK
    assert {name: (out / name).read_bytes() for name in names} == before
    # Without its config echo a tree does not say which window it used.
    (out / CONFIG_ECHO).unlink()
    assert main(["tables", str(out)]) == EXIT_CONFIG_ERROR


def test_tables_on_missing_dir_is_config_error(tmp_path):
    assert main(["tables", str(tmp_path / "void")]) == EXIT_CONFIG_ERROR


def replay_config_file(tmp_path, sims, seed):
    path = tmp_path / "replay-config.yaml"
    path.write_text(
        yaml.safe_dump({"preset": "exp1", "n_simulations": sims, "master_seed": seed}),
        encoding="utf-8",
    )
    return path


def test_replay_round_trip_reproduces_run(tmp_path):
    first_out = tmp_path / "live-ish"
    rc = main(
        ["run", "exp1", "--sims", "2", "--seed", "11", "--out", str(first_out)]
    )
    assert rc == EXIT_OK

    corpus = tmp_path / "corpus.jsonl"
    with open(corpus, "w", encoding="utf-8") as fh:
        for name in sorted((first_out / JOURNAL_DIR).glob("*.jsonl")):
            fh.write(name.read_text(encoding="utf-8"))

    config = replay_config_file(tmp_path, sims=2, seed=11)
    replay_out = tmp_path / "replayed"
    rc = main(["replay", str(corpus), str(config), "--out", str(replay_out)])
    assert rc == EXIT_OK

    first = (first_out / SUMMARIES_CSV).read_text(encoding="utf-8")
    second = (replay_out / SUMMARIES_CSV).read_text(encoding="utf-8")
    assert first == second  # bit-exact rerun of the recorded batch

    manifest = json.loads((replay_out / MANIFEST_JSON).read_text(encoding="utf-8"))
    assert manifest["provider_kind"] == "replay"
    assert manifest["n_simulations"] == 2


def test_replay_pads_short_corpus_with_error_journals(tmp_path):
    # A 1-slice corpus under a 3-sim config: the extra sims replay empty
    # journals (every request an Error) and the run still exits cleanly.
    first_out = tmp_path / "first"
    assert main(["run", "exp1", "--sims", "1", "--seed", "5", "--out", str(first_out)]) == EXIT_OK
    corpus = next((first_out / JOURNAL_DIR).glob("*.jsonl"))
    config = replay_config_file(tmp_path, sims=3, seed=5)
    replay_out = tmp_path / "replayed"
    rc = main(["replay", str(corpus), str(config), "--out", str(replay_out)])
    assert rc == EXIT_OK


def test_missing_required_args_exit_nonzero():
    with pytest.raises(SystemExit):
        main(["run"])  # argparse exits on missing source


@pytest.mark.parametrize("preset", ["exp1", "exp2", "exp3"])
def test_config_echo_loads_back(tmp_path, preset):
    # A run's resolved_config.yaml is a config for run and replay: it
    # restates every pinned field at its preset's value, and exp2's names
    # its replay corpus by sha256.
    out = tmp_path / "run"
    cfg = resolve_preset(preset, {"n_simulations": 2, "max_steps": 60, "output_dir": str(out)})
    run_batch(cfg)
    echo = out / CONFIG_ECHO
    assert config_hash(load_config_file(echo)) == config_hash(cfg)

    rerun_out = tmp_path / "rerun"
    assert main(["run", str(echo), "--out", str(rerun_out)]) == EXIT_OK
    assert (rerun_out / SUMMARIES_CSV).read_bytes() == (out / SUMMARIES_CSV).read_bytes()

    corpus = tmp_path / "corpus.jsonl"
    if cfg.journal_enabled():
        corpus.write_text(
            "".join(p.read_text(encoding="utf-8") for p in sorted((out / JOURNAL_DIR).glob("*.jsonl"))),
            encoding="utf-8",
        )
    else:  # a replay run journals nothing: replay its own corpus
        corpus = Path(cfg.provider.replay_path)
    replay_out = tmp_path / "replayed"
    assert main(["replay", str(corpus), str(echo), "--out", str(replay_out)]) == EXIT_OK
    assert (replay_out / SUMMARIES_CSV).read_bytes() == (out / SUMMARIES_CSV).read_bytes()


def test_echo_replay_sha256_must_match_the_corpus(tmp_path):
    out = tmp_path / "run"
    run_batch(resolve_preset("exp2", {"n_simulations": 1, "max_steps": 20, "output_dir": str(out)}))
    echo = yaml.safe_load((out / CONFIG_ECHO).read_text(encoding="utf-8"))
    sha = echo["provider"]["replay_sha256"]

    echo["provider"]["replay_sha256"] = sha[::-1]
    tampered = tmp_path / "tampered.yaml"
    tampered.write_text(yaml.safe_dump(echo), encoding="utf-8")
    assert main(["run", str(tampered), "--out", str(tmp_path / "x")]) == EXIT_CONFIG_ERROR

    # A sha256 with no corpus path to check it against is rejected too.
    pathless = tmp_path / "pathless.yaml"
    pathless.write_text(yaml.safe_dump({"provider": {"replay_sha256": sha}}), encoding="utf-8")
    assert main(["run", str(pathless), "--out", str(tmp_path / "y")]) == EXIT_CONFIG_ERROR
    assert not (tmp_path / "x").exists() and not (tmp_path / "y").exists()
