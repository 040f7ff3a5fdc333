"""Command-line interface: exit codes, output trees, replay round trip."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from bondflow.cli import (
    EXIT_CONFIG_ERROR,
    EXIT_OK,
    EXIT_PROVIDER_FAILURE,
    main,
)
from bondflow.harness import CONFIG_ECHO, JOURNAL_DIR, MANIFEST_JSON, SUMMARIES_CSV, TABLE_FILES


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
    import yaml

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
