"""Command-line interface: exit codes, output trees, replay round trip."""

from __future__ import annotations

import csv
import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import yaml

from bondflow import engine, resolve_config, resolve_preset, run_batch
from bondflow.cli import (
    EXIT_CONFIG_ERROR,
    EXIT_OK,
    EXIT_PARTIAL_BATCH,
    EXIT_PROVIDER_FAILURE,
    main,
)
from bondflow.harness import (
    CONFIG_ECHO,
    DECISIONS_CSV,
    JOURNAL_DIR,
    MANIFEST_JSON,
    SUMMARIES_CSV,
    TABLE_FILES,
    config_hash,
    shipped_aversion_corpus,
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
    assert not (tmp_path / "x").exists()  # refused before any file is written


def test_live_rejection_mid_batch_is_partial(tmp_path, monkeypatch, caplog):
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
    # The aborted sim is logged once, by the harness, not again by the CLI.
    aborts = [r for r in caplog.records if r.levelno == logging.ERROR and " aborted: " in r.getMessage()]
    assert [r.getMessage().split(":")[0] for r in aborts] == ["simulation 0 aborted"]
    assert "1 simulations skipped after abort" in caplog.text


def test_conservation_drift_aborts_the_sim(tmp_path, monkeypatch, caplog):
    # Costs that burn resources but report nothing consumed break the
    # closed-system law; the end-of-run audit aborts sim 0, sim 1 is skipped.
    apply_costs = engine.apply_costs

    def under_reported(mm, step, rule):
        apply_costs(mm, step, rule)
        return 0.0, 0.0

    monkeypatch.setattr(engine, "apply_costs", under_reported)
    out = tmp_path / "x"
    rc = main(["run", "exp1", "--sims", "2", "--out", str(out)])
    assert rc == EXIT_PARTIAL_BATCH
    manifest = json.loads((out / MANIFEST_JSON).read_text(encoding="utf-8"))
    assert manifest["status"] == "partial" and manifest["skipped"] == [1]
    assert manifest["aborted"][0]["sim_id"] == 0
    assert manifest["aborted"][0]["reason"].startswith("conservation drift ")
    aborts = [r for r in caplog.records if r.levelno == logging.ERROR and " aborted: " in r.getMessage()]
    assert [r.getMessage().split(":")[0] for r in aborts] == ["simulation 0 aborted"]
    # When the last sim aborts, none is skipped, and the CLI says nothing of skipped sims.
    caplog.clear()
    assert main(["run", "exp1", "--sims", "1", "--out", str(tmp_path / "y")]) == EXIT_PARTIAL_BATCH
    assert "skipped" not in caplog.text
    # No sim completed, so there is nothing to tabulate.
    assert main(["tables", str(tmp_path / "y")]) == EXIT_CONFIG_ERROR
    assert "holds no completed simulations" in caplog.text


def test_unexpected_exception_aborts_the_sim(tmp_path, monkeypatch, caplog):
    # A bug inside sim 1 (not a provider failure) aborts that sim alone:
    # sim 0's rows are written, sim 2 is skipped, and the manifest says why.
    apply_costs = engine.apply_costs
    sims_started = 0

    def broken_in_sim_1(mm, step, rule):
        nonlocal sims_started
        if step == 0 and mm.id == 0:
            sims_started += 1
        if sims_started == 2:
            raise RuntimeError("cost model broke\nsecond line")
        return apply_costs(mm, step, rule)

    monkeypatch.setattr(engine, "apply_costs", broken_in_sim_1)
    out = tmp_path / "x"
    rc = main(["run", "exp1", "--sims", "3", "--out", str(out)])
    assert rc == EXIT_PARTIAL_BATCH
    manifest = json.loads((out / MANIFEST_JSON).read_text(encoding="utf-8"))
    assert manifest["status"] == "partial" and manifest["completed"] == 1
    assert manifest["aborted"] == [{"sim_id": 1, "reason": "RuntimeError: cost model broke"}]
    assert manifest["skipped"] == [2]
    summary_rows = (out / SUMMARIES_CSV).read_text(encoding="utf-8").splitlines()[1:]
    assert [row.split(",")[0] for row in summary_rows] == ["0"]
    aborts = [r for r in caplog.records if r.levelno == logging.ERROR and " aborted: " in r.getMessage()]
    assert len(aborts) == 1
    # The message's first line names the sim and why; the rest is the
    # traceback the worker raised, as the worker wrote it.
    first, _, shown = aborts[0].getMessage().partition("\n")
    assert first == "simulation 1 aborted: RuntimeError: cost model broke"
    assert shown.startswith("Traceback (most recent call last):")
    assert shown.endswith("\nRuntimeError: cost model broke\nsecond line")


@pytest.mark.parametrize(
    "text",
    [
        "n_simulations: ten\n", "landscape: {grid_width: null}\n", "n_simulations: null\n",
        # Out of range where an unchecked bound would overflow: exp(mu - 6*sigma),
        # and the arithmetic std/mean squared.
        "landscape: {bond_mu: 1.0e+308}\n",
        "landscape: {lognormal_params: arithmetic, bond_mu: 1, bond_sigma: 1.0e+200}\n",
        # Not UTF-8 text at all.
        b"n_simulations: 2\n# \xff\n",
        # Not YAML, not a mapping, an unknown enum value, a replay with no corpus.
        "n_simulations: [2\n", "- n_simulations\n- 2\n", "provider: {kind: pigeon}\n",
        "provider: {kind: replay}\n",
    ],
)
def test_wrongly_typed_config_file_is_config_error(tmp_path, capfd, caplog, text):
    path = tmp_path / "bad.yaml"
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    assert main(["run", str(path), "--out", str(tmp_path / "x")]) == EXIT_CONFIG_ERROR
    assert "Traceback" not in capfd.readouterr().err
    if isinstance(text, bytes):
        assert f"cannot read config file {path}" in caplog.text


def test_default_out_dirs_and_the_provider_and_parallel_flags(tmp_path, monkeypatch, capsys):
    # With no --out, a run writes under runs/<preset> or runs/<config file stem>,
    # and a replay adds -replay to the name.
    monkeypatch.chdir(tmp_path)
    assert main(["run", "exp1", "--sims", "2"]) == EXIT_OK
    Path("small.yaml").write_text("n_simulations: 2\nmax_steps: 20\n", encoding="utf-8")
    assert main(["run", "small.yaml", "--provider", "bursty", "--parallel", "2"]) == EXIT_OK
    assert main(["replay", shipped_aversion_corpus(), "exp2"]) == EXIT_OK
    runs = Path("runs")
    assert sorted(p.name for p in runs.iterdir()) == ["exp1", "exp2-replay", "small"]
    assert all((runs / name / SUMMARIES_CSV).exists() for name in ("exp1", "exp2-replay", "small"))
    # The file leaves the provider at the coin flip, so its echo's kind comes from --provider.
    assert resolve_config(str(runs / "small" / CONFIG_ECHO)).provider.kind.value == "bursty"
    assert json.loads((runs / "small" / MANIFEST_JSON).read_text(encoding="utf-8"))["parallelism"] == 2
    assert f"outputs written to {Path('runs') / 'exp2-replay'}" in capsys.readouterr().out
    # An output_dir in the config file stands when --out is not given.
    Path("aimed.yaml").write_text("n_simulations: 1\nmax_steps: 5\noutput_dir: aimed-out\n", encoding="utf-8")
    assert main(["run", "aimed.yaml"]) == EXIT_OK
    assert (Path("aimed-out") / SUMMARIES_CSV).exists() and not (runs / "aimed").exists()


@pytest.mark.parametrize("under", [False, True], ids=["a-file", "under-a-file"])
def test_run_into_an_out_that_cannot_be_a_directory_is_config_error(tmp_path, caplog, under):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n", encoding="utf-8")
    out = taken / "sub" if under else taken
    assert main(["run", "exp1", "--sims", "2", "--out", str(out)]) == EXIT_CONFIG_ERROR
    assert f"configuration error: output directory {out} cannot be made" in caplog.text
    # Nothing was written.
    assert taken.read_text(encoding="utf-8") == "not a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


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


@pytest.mark.parametrize(
    "name, pattern, repl, where",
    [
        (DECISIONS_CSV, rb",(yes|no|error),(?=bernoulli\n)", b",maybe,", f"{DECISIONS_CSV}, line 2"),
        (SUMMARIES_CSV, rb"\n0,", b"\nzero,", f"{SUMMARIES_CSV}, line 2"),
        (SUMMARIES_CSV, rb"\bterminal_reason\b", b"terminal_cause", f"{SUMMARIES_CSV}, line 2"),
        # The 6th cell, mm_client_bond_pct: quartiles need finite values.
        (SUMMARIES_CSV, rb"(\n0(?:,[^,\n]*){4},)[^,\n]+", rb"\1nan", f"{SUMMARIES_CSV}, line 2"),
        (SUMMARIES_CSV, rb"(\n0(?:,[^,\n]*){4},)[^,\n]+", rb"\1inf", f"{SUMMARIES_CSV}, line 2"),
        (DECISIONS_CSV, rb"bernoulli\n", b"bernoulli,extra\n", f"{DECISIONS_CSV}, line 2"),
        (DECISIONS_CSV, rb",bernoulli\n", b"\n", f"{DECISIONS_CSV}, line 2"),
        (CONFIG_ECHO, rb"rolling_window: \d+", b"rolling_window: 0", CONFIG_ECHO),
        (CONFIG_ECHO, rb"rolling_window: \d+", b"rolling_window: 2.5", CONFIG_ECHO),
        # A log that is not UTF-8 text.
        (SUMMARIES_CSV, rb"\n0,", b"\n\xff,", SUMMARIES_CSV),
        (DECISIONS_CSV, rb"\n0,", b"\n\xff,", DECISIONS_CSV),
    ],
    ids=[
        "unknown-state", "non-integer-cell", "missing-column", "nan-cell", "inf-cell", "extra-cell",
        "missing-cell", "window-0", "window-float", "summaries-not-utf8", "decisions-not-utf8",
    ],
)
def test_tables_on_malformed_tree_is_config_error(tmp_path, name, pattern, repl, where):
    # The installed entry point, in a process of its own: the error is
    # reported on stderr as a configuration error, never as a traceback.
    out = tmp_path / "run"
    assert main(["run", "exp1", "--sims", "2", "--seed", "3", "--out", str(out)]) == EXIT_OK
    path = out / name
    data, n = re.subn(pattern, repl, path.read_bytes(), count=1)
    assert n == 1
    path.write_bytes(data)
    assert_tables_is_config_error(out, out / where)


def assert_tables_is_config_error(out, where):
    """``bondflow tables out`` in a process of its own: exit 1, naming ``where``, no traceback."""
    src = Path(__file__).resolve().parent.parent / "src"
    run = subprocess.run(
        [sys.executable, "-m", "bondflow.cli", "tables", str(out)],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == EXIT_CONFIG_ERROR, run.stderr
    assert re.search(r"^ERROR \S+: configuration error", run.stderr, re.M), run.stderr
    assert str(where) in run.stderr
    assert "Traceback" not in run.stderr


@pytest.mark.parametrize("name", [SUMMARIES_CSV, DECISIONS_CSV])
def test_tables_on_a_log_that_is_a_directory_is_config_error(tmp_path, name):
    out = tmp_path / "run"
    assert main(["run", "exp1", "--sims", "2", "--seed", "3", "--out", str(out)]) == EXIT_OK
    (out / name).unlink()
    (out / name).mkdir()
    assert_tables_is_config_error(out, out / name)


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


def test_replay_of_a_corpus_short_of_slices_is_config_error(tmp_path, caplog):
    # Sims 1 and 4 make no decision and write empty journals, so the
    # concatenated corpus splits into 4 slices for 6 sims: exit 1, no tree.
    sparse = {"preset": "exp3", "n_simulations": 6, "max_steps": 2, "master_seed": 5}
    sparse["landscape"] = {"availability_p": 0.1}
    config = tmp_path / "sparse.yaml"
    config.write_text(yaml.safe_dump(sparse), encoding="utf-8")
    first_out = tmp_path / "first"
    assert main(["run", str(config), "--out", str(first_out)]) == EXIT_OK
    journals = sorted((first_out / JOURNAL_DIR).glob("*.jsonl"))
    assert [len(p.read_text(encoding="utf-8").splitlines()) for p in journals] == [1, 0, 2, 2, 0, 1]
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(p.read_text(encoding="utf-8") for p in journals), encoding="utf-8")
    replay_out = tmp_path / "replayed"
    rc = main(["replay", str(corpus), str(first_out / CONFIG_ECHO), "--out", str(replay_out)])
    assert rc == EXIT_CONFIG_ERROR
    assert not replay_out.exists()
    errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
    assert any("4 simulation slices for 6 simulations" in m for m in errors)


@pytest.mark.parametrize(
    "bad_line",
    [
        b'{"seq":1,"prompt_hash":7,"state":"maybe","raw":"","latency_ms":null}',
        b'{"seq":1,"prompt_hash":7,"sta',
        b'{"seq":1,"prompt_hash":7,"state":"no","raw":"\xff","latency_ms":null}',
        b'{"seq":null,"prompt_hash":7,"state":"no","raw":"","latency_ms":null}',
        b'{"seq":1,"prompt_hash":null,"state":"no","raw":"","latency_ms":null}',
        b'{"seq":1,"prompt_hash":7,"state":"no","raw":"","latency_ms":"slow"}',
    ],
    ids=["unknown-state", "truncated", "not-utf8", "seq-null", "hash-null", "latency-text"],
)
def test_malformed_journal_line_is_config_error(tmp_path, caplog, bad_line):
    corpus = tmp_path / "corpus.jsonl"
    good = b'{"seq":0,"prompt_hash":7,"state":"no","raw":"No","latency_ms":null}'
    corpus.write_bytes(good + b"\n" + bad_line + b"\n")
    config = replay_config_file(tmp_path, sims=1, seed=5)
    out = tmp_path / "replayed"
    rc = main(["replay", str(corpus), str(config), "--out", str(out)])
    assert rc == EXIT_CONFIG_ERROR
    assert not out.exists()
    errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
    assert any(f"{corpus}, line 2: malformed journal record" in m for m in errors)


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
    assert config_hash(resolve_config(str(echo))) == config_hash(cfg)
    # Every decision in the tree was made by the provider its echo names.
    kind = yaml.safe_load(echo.read_text(encoding="utf-8"))["provider"]["kind"]
    assert json.loads((out / MANIFEST_JSON).read_text(encoding="utf-8"))["provider_kind"] == kind
    with open(out / DECISIONS_CSV, encoding="utf-8", newline="") as fh:
        assert {row["provider"] for row in csv.DictReader(fh)} == {kind}

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


@pytest.mark.parametrize("live", [True, False], ids=["live", "journaled-replay"])
def test_recorded_journal_replays_with_its_echo(tmp_path, monkeypatch, live):
    # An exp2 echo names the corpus its run read (the preset's), not the
    # journal the run wrote: replaying that journal with the echo works.
    monkeypatch.setenv("TEST_GATEWAY_TOKEN", "tok")
    with GatewayStub([]) as stub:
        config = {"preset": "exp2", "n_simulations": 1, "max_steps": 40}
        if live:
            config["provider"] = {
                "endpoint_url": stub.url,
                "token_env": "TEST_GATEWAY_TOKEN",
                "rate_limit_rps": 10_000.0,
            }
        else:
            config["journal"] = True
        path = tmp_path / "recorded.yaml"
        path.write_text(yaml.safe_dump(config), encoding="utf-8")
        out = tmp_path / "run"
        assert main(["run", str(path), *(["--live"] if live else []), "--out", str(out)]) == EXIT_OK
    assert bool(stub.requests) is live
    journal = out / JOURNAL_DIR / "sim_0000.jsonl"
    replayed = tmp_path / "replayed"
    assert main(["replay", str(journal), str(out / CONFIG_ECHO), "--out", str(replayed)]) == EXIT_OK
    assert (replayed / SUMMARIES_CSV).read_bytes() == (out / SUMMARIES_CSV).read_bytes()


def test_echo_replay_sha256_must_match_the_corpus(tmp_path, caplog):
    out = tmp_path / "run"
    run_batch(resolve_preset("exp2", {"n_simulations": 1, "max_steps": 20, "output_dir": str(out)}))
    echo = yaml.safe_load((out / CONFIG_ECHO).read_text(encoding="utf-8"))
    sha = echo["provider"]["replay_sha256"]

    echo["provider"]["replay_sha256"] = sha[::-1]
    tampered = tmp_path / "tampered.yaml"
    tampered.write_text(yaml.safe_dump(echo), encoding="utf-8")
    assert main(["run", str(tampered), "--out", str(tmp_path / "x")]) == EXIT_CONFIG_ERROR
    assert f"sha256 of the replay corpus ({shipped_aversion_corpus()})" in caplog.text

    # A sha256 with no corpus path to check it against is rejected too.
    pathless = tmp_path / "pathless.yaml"
    pathless.write_text(yaml.safe_dump({"provider": {"replay_sha256": sha}}), encoding="utf-8")
    assert main(["run", str(pathless), "--out", str(tmp_path / "y")]) == EXIT_CONFIG_ERROR
    assert "sha256 of the replay corpus (none given)" in caplog.text
    assert not (tmp_path / "x").exists() and not (tmp_path / "y").exists()

    # Replay also checks the echo's sha256 against the corpus it is given:
    # an exp2 run on a copy of the corpus with one more trailing newline
    # replays from its echo and that copy.
    copy = tmp_path / "copy.jsonl"
    copy.write_bytes(Path(shipped_aversion_corpus()).read_bytes() + b"\n")
    copy_out = tmp_path / "copy-run"
    run_batch(resolve_preset("exp2", {
        "n_simulations": 1, "max_steps": 20, "provider.replay_path": str(copy), "output_dir": str(copy_out),
    }))
    copy_echo = str(copy_out / CONFIG_ECHO)
    replayed = tmp_path / "copy-replayed"
    assert main(["replay", str(copy), copy_echo, "--out", str(replayed)]) == EXIT_OK
    assert (replayed / SUMMARIES_CSV).read_bytes() == (copy_out / SUMMARIES_CSV).read_bytes()
    # The shipped corpus, also the preset's, does not have this echo's sha256.
    assert main(["replay", shipped_aversion_corpus(), copy_echo, "--out", str(tmp_path / "z")]) == EXIT_CONFIG_ERROR
    assert not (tmp_path / "z").exists()
