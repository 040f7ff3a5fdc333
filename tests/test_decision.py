"""Decision layer: normalization, prompts, providers, journals, live gateway."""

from __future__ import annotations

import json
import logging
import re
import time
from importlib import resources
from types import SimpleNamespace

import numpy as np
import pytest

from bondflow import (
    ConfigError,
    DecisionOutcome,
    DecisionState,
    DesireQuery,
    PromptTemplate,
    ProviderHardFailure,
    ProviderKind,
    build_provider,
    read_journal,
    split_journal,
)
from bondflow import decision
from bondflow.decision import (
    BernoulliProvider,
    LiveLLMProvider,
    ProviderConfig,
    ReplayProvider,
    SyntheticBurstyProvider,
    journal_line,
    normalize_response,
    parse_journal_line,
    prompt_hash,
    render_prompt,
)
from bondflow.prompts import compile_template, load_template
from bondflow.seeding import substream
from gateway import YES_PAYLOAD, GatewayStub


def make_query(seq=0, step=0, mm_id=0, pos=(3, 7), bonds=20.32, cash=4.62, sim_id=0):
    return DesireQuery(
        sim_id=sim_id,
        step=step,
        mm_id=mm_id,
        client_position=pos,
        client_bonds=bonds,
        client_cash=cash,
        sequence_no=seq,
    )


# -- normalization -----------------------------------------------------


def load_reply_fixtures():
    path = resources.files("bondflow").joinpath("data/fixtures/reply_fixtures.json")
    return json.loads(path.read_text(encoding="utf-8"))["replies"]


def test_shipped_reply_fixtures_normalize_as_recorded():
    fixtures = load_reply_fixtures()
    assert len(fixtures) == 5
    assert [f["expected"] for f in fixtures] == ["yes", "error", "error", "error", "error"]
    for fixture in fixtures:
        got = normalize_response(fixture["raw"])
        assert got is DecisionState(fixture["expected"]), fixture["name"]


@pytest.mark.parametrize(
    ("raw", "expected"),
    [
        ("yes", DecisionState.YES),
        ("Yes", DecisionState.YES),
        ("YES", DecisionState.YES),
        ("  yes!! ", DecisionState.YES),
        ('"Yes."', DecisionState.YES),
        ("“Yes”, absolutely", DecisionState.YES),
        ("Yes, I want to trade with this market maker right now.", DecisionState.YES),
        ("no", DecisionState.NO),
        ("No.", DecisionState.NO),
        ("NO WAY", DecisionState.NO),
        ("*No* - not today", DecisionState.NO),
        ("", DecisionState.ERROR),
        ("   ", DecisionState.ERROR),
        ("0", DecisionState.ERROR),
        ("0 (not trade right now)", DecisionState.ERROR),
        ("yesterday was fine", DecisionState.ERROR),
        ("nope", DecisionState.ERROR),
        ("I do not want to trade with this market maker right now.", DecisionState.ERROR),
        ("Maybe", DecisionState.ERROR),
        ("é yes", DecisionState.ERROR),
    ],
)
def test_normalization_edge_cases(raw, expected):
    assert normalize_response(raw) is expected


# -- prompt rendering --------------------------------------------------


def test_render_prompt_timeliness_exact():
    q = make_query()
    rendered = render_prompt(PromptTemplate.TIMELINESS, q)
    # Independent construction: str.format on the raw template text, with
    # the documented float formatting (two decimals) applied by hand.
    template = load_template(PromptTemplate.TIMELINESS)
    expected = template.format(client_bonds="20.32", client_cash="4.62", x="3", y="7")
    assert rendered == expected
    assert "{" not in rendered and "}" not in rendered


def test_render_prompt_formats_whole_floats_with_decimals():
    q = make_query(bonds=10.0, cash=3.0, pos=(0, 49))
    rendered = render_prompt(PromptTemplate.TIMELINESS, q)
    assert "10.00" in rendered
    assert "3.00" in rendered


def test_render_prompt_aversion_variants():
    q = make_query()
    fixed = render_prompt(PromptTemplate.AVERSION1, q)
    assert fixed == load_template(PromptTemplate.AVERSION1)  # no placeholders
    for template in (PromptTemplate.AVERSION2, PromptTemplate.AVERSION3):
        rendered = render_prompt(template, q)
        assert "20.32" in rendered and "4.62" in rendered
        assert "{" not in rendered


def regex_render(text, bonds, cash, x, y):
    """Oracle: per-call regex substitution of the six known placeholders."""
    values = {
        "client_bonds": f"{bonds:.2f}",
        "client_cash": f"{cash:.2f}",
        "bonds": f"{bonds:.2f}",
        "cash": f"{cash:.2f}",
        "x": str(int(x)),
        "y": str(int(y)),
    }
    return re.sub(
        r"\{(client_bonds|client_cash|bonds|cash|x|y)\}", lambda m: values[m.group(1)], text
    )


@pytest.mark.parametrize("template", list(PromptTemplate))
def test_compiled_renderer_matches_regex_oracle(template):
    text = load_template(template)
    holdings = (0.0, 0.005, 0.015, 1.5, 1e6, 123456.789)
    positions = ((0, 0), (3, 7), (49, 0), (0, 49), (199, 123))
    for bonds in holdings:
        for cash in holdings:
            for pos in positions:
                q = make_query(pos=pos, bonds=bonds, cash=cash)
                assert render_prompt(template, q) == regex_render(text, bonds, cash, *pos)


def test_compile_template_passes_unknown_braces_through():
    text = "a {foo} b, open { here, close } here, {x}/{y} {bonds}|{cash} {{client_bonds}} 5% of %(b)s"
    rendered = compile_template(text) % {"b": 1.5, "c": 0.005, "x": 3, "y": 7}
    assert rendered == regex_render(text, 1.5, 0.005, 3, 7)
    assert rendered == "a {foo} b, open { here, close } here, 3/7 1.50|0.01 {1.50} 5% of %(b)s"
    assert compile_template("{foo} { }") % {} == "{foo} { }"


def test_templates_load_once_and_nonempty():
    for template in PromptTemplate:
        text = load_template(template)
        assert text
        assert load_template(template) is text  # cached


# -- scripted providers ------------------------------------------------


def test_bernoulli_extremes_and_frequency():
    always = BernoulliProvider(1.0, substream(1, 4))
    never = BernoulliProvider(0.0, substream(2, 4))
    q = make_query()
    assert all(always.decide(q).state is DecisionState.YES for _ in range(50))
    assert all(never.decide(q).state is DecisionState.NO for _ in range(50))

    p = 0.5
    n = 100_000
    coin = BernoulliProvider(p, substream(3, 4))
    yes = sum(coin.decide(q).state is DecisionState.YES for _ in range(n))
    sigma = (p * (1 - p) / n) ** 0.5
    assert abs(yes / n - p) < 3 * sigma

    outcome = coin.decide(q)
    assert outcome.provider is ProviderKind.BERNOULLI
    assert outcome.raw_text == ""
    assert outcome.latency_ms is None


def test_bernoulli_rejects_bad_p():
    with pytest.raises(ConfigError):
        ProviderConfig(kind=ProviderKind.BERNOULLI, bernoulli_p=1.5)


def test_scripted_providers_check_ranges_when_built_directly():
    # Library code may build a provider without a ProviderConfig.
    with pytest.raises(ConfigError, match="bernoulli_p"):
        BernoulliProvider(1.5, substream(1, 4))
    with pytest.raises(ConfigError, match="burst_stay_yes"):
        SyntheticBurstyProvider(1.0, 0.5, substream(1, 4))
    with pytest.raises(ConfigError, match="burst_stay_no"):
        SyntheticBurstyProvider(0.5, 1.0, substream(1, 4))


def test_bursty_stationary_distribution():
    provider = SyntheticBurstyProvider(0.656, 0.544, substream(2, 4))
    expected = (1 - 0.544) / ((1 - 0.656) + (1 - 0.544))
    assert provider.stationary_yes == pytest.approx(expected)
    assert provider.stationary_yes == pytest.approx(0.57)

    q = make_query()
    n = 100_000
    yes = sum(provider.decide(q).state is DecisionState.YES for _ in range(n))
    assert yes / n == pytest.approx(expected, abs=0.01)


def test_bursty_transition_frequencies():
    provider = SyntheticBurstyProvider(0.656, 0.544, substream(3, 4))
    q = make_query()
    states = [provider.decide(q).state for _ in range(100_000)]
    yy = yn = ny = nn = 0
    for prev, cur in zip(states, states[1:]):
        if prev is DecisionState.YES:
            yy += cur is DecisionState.YES
            yn += cur is DecisionState.NO
        else:
            ny += cur is DecisionState.YES
            nn += cur is DecisionState.NO
    assert yy / (yy + yn) == pytest.approx(0.656, abs=0.01)
    assert nn / (nn + ny) == pytest.approx(0.544, abs=0.01)


def test_bursty_is_deterministic_per_stream():
    q = make_query()
    a = SyntheticBurstyProvider(0.656, 0.544, substream(4, 4)).decide(q).state
    runs = []
    for _ in range(2):
        provider = SyntheticBurstyProvider(0.656, 0.544, substream(5, 4))
        runs.append([provider.decide(q).state for _ in range(200)])
    assert runs[0] == runs[1]
    assert a in (DecisionState.YES, DecisionState.NO)  # smoke: single-draw path works too


# -- journals and replay -----------------------------------------------


def outcome_of(state, raw, latency=250):
    return DecisionOutcome(
        state=state, raw_text=raw, provider=ProviderKind.LIVE_LLM, latency_ms=latency
    )


def journal_append(path, q, outcome, template=PromptTemplate.TIMELINESS):
    with open(path, "a", encoding="utf-8", newline="") as fh:
        fh.write(journal_line(q, outcome, template))


def test_journal_line_format_and_parse():
    q = make_query(seq=5, bonds=1.5, cash=0.25)
    outcome = outcome_of(DecisionState.YES, "Yes — let's trade ✓")
    line = journal_line(q, outcome, PromptTemplate.TIMELINESS)
    assert line.endswith("\n")
    payload = json.loads(line)
    assert set(payload) == {"seq", "prompt_hash", "state", "raw", "latency_ms"}
    assert payload["seq"] == 5
    assert payload["state"] == "yes"
    assert payload["raw"] == "Yes — let's trade ✓"
    assert payload["prompt_hash"] == prompt_hash(
        render_prompt(PromptTemplate.TIMELINESS, q)
    )
    record = parse_journal_line(line)
    assert record.seq == 5
    assert record.state is DecisionState.YES
    assert record.latency_ms == 250


@pytest.mark.parametrize(
    "raw",
    ["", "Yes", "Yes — ✓", 'say "no" \\ maybe', "a\nb\tc\x01d", "line\u2028sep"],
)
def test_journal_line_matches_json_dumps_oracle(raw):
    q = make_query(seq=17, pos=(12, 0), bonds=0.015, cash=123456.789)
    expected_hash = prompt_hash(render_prompt(PromptTemplate.TIMELINESS, q))
    for state in DecisionState:
        for latency in (None, 0, 250):
            record = {
                "seq": 17,
                "prompt_hash": expected_hash,
                "state": state.value,
                "raw": raw,
                "latency_ms": latency,
            }
            expected = json.dumps(record, ensure_ascii=False, separators=(",", ":")) + "\n"
            line = journal_line(q, outcome_of(state, raw, latency), PromptTemplate.TIMELINESS)
            assert line == expected


def test_journal_append_and_read_roundtrip(tmp_path):
    path = tmp_path / "journal.jsonl"
    states = [DecisionState.YES, DecisionState.NO, DecisionState.ERROR]
    for i, state in enumerate(states):
        journal_append(path, make_query(seq=i), outcome_of(state, state.value))
    records = read_journal(path)
    assert [r.state for r in records] == states
    assert [r.seq for r in records] == [0, 1, 2]


def test_split_journal_on_seq_reset(tmp_path):
    path = tmp_path / "corpus.jsonl"
    for seq in (0, 1, 2, 0, 1, 0):
        journal_append(path, make_query(seq=seq), outcome_of(DecisionState.NO, "No"))
    # Blank lines are skipped.
    path.write_text(path.read_text(encoding="utf-8").replace("\n", "\n\n", 1) + "\n", encoding="utf-8")
    records = read_journal(path)
    assert [len(s) for s in split_journal(records)] == [3, 2, 1]
    # A corpus whose first record is not a seq 0 still opens a slice with it.
    assert [len(s) for s in split_journal(records[1:])] == [2, 2, 1]


def test_replay_reproduces_recorded_stream(tmp_path):
    queries = [make_query(seq=i, bonds=1.0 + i) for i in range(3)]
    outcomes = [
        outcome_of(DecisionState.YES, "Yes"),
        outcome_of(DecisionState.NO, "No"),
        outcome_of(DecisionState.ERROR, "hmm", latency=900),
    ]
    path = tmp_path / "journal.jsonl"
    for q, o in zip(queries, outcomes):
        journal_append(path, q, o, template=PromptTemplate.TIMELINESS)

    provider = ReplayProvider(read_journal(path), PromptTemplate.TIMELINESS)
    for q, o in zip(queries, outcomes):
        got = provider.decide(q)
        assert got.state is o.state
        assert got.raw_text == o.raw_text
        assert got.latency_ms == o.latency_ms
        assert got.provider is ProviderKind.REPLAY

    # Exhausted journal: every further query is an error with empty raw.
    extra = provider.decide(make_query(seq=3))
    assert extra.state is DecisionState.ERROR
    assert extra.raw_text == ""


def test_replay_flags_prompt_mismatch(tmp_path):
    q = make_query(seq=0, bonds=2.0)
    path = tmp_path / "journal.jsonl"
    journal_append(path, q, outcome_of(DecisionState.YES, "Yes"))
    provider = ReplayProvider(read_journal(path), PromptTemplate.TIMELINESS)
    tampered = make_query(seq=0, bonds=3.0)  # different prompt, same seq
    got = provider.decide(tampered)
    assert got.state is DecisionState.ERROR
    assert got.raw_text == "Yes"  # recorded raw kept for the audit trail


def test_build_provider_dispatch(tmp_path):
    # Each provider names its kind.
    for kind, cls in (
        (ProviderKind.BERNOULLI, BernoulliProvider), (ProviderKind.SYNTHETIC_BURSTY, SyntheticBurstyProvider),
    ):
        provider = build_provider(ProviderConfig(kind=kind), 7)
        assert isinstance(provider, cls) and provider.kind is kind
    path = tmp_path / "j.jsonl"
    journal_append(path, make_query(), outcome_of(DecisionState.NO, "No"))
    replay = build_provider(
        ProviderConfig(kind=ProviderKind.REPLAY, replay_path=str(path)),
        7,
        replay_records=read_journal(path),
    )
    assert isinstance(replay, ReplayProvider) and replay.kind is ProviderKind.REPLAY
    with pytest.raises(ConfigError):  # a replay provider needs its records
        build_provider(ProviderConfig(kind=ProviderKind.REPLAY, replay_path=str(path)), 7)


# -- live gateway ------------------------------------------------------

def live_config(url, **kwargs):
    defaults = dict(
        kind=ProviderKind.LIVE_LLM,
        endpoint_url=url,
        model_name="test-model",
        temperature=0.7,
        max_retries=1,
        token_env="TEST_GATEWAY_TOKEN",
        timeout_s=5.0,
        rate_limit_rps=10_000.0,
    )
    defaults.update(kwargs)
    return ProviderConfig(**defaults)


@pytest.fixture()
def gateway_token(monkeypatch):
    monkeypatch.setenv("TEST_GATEWAY_TOKEN", "tok-123-secret")
    return "tok-123-secret"


def test_live_wire_format(gateway_token, monkeypatch):
    # The request starts at 10 s and its reply comes 42.1 ms later.
    clock = iter([10.0, 10.0421])
    monkeypatch.setattr(decision, "time", SimpleNamespace(
        monotonic=time.monotonic, sleep=time.sleep, perf_counter=lambda: next(clock),
    ))
    with GatewayStub([(200, {"choices": [{"message": {"content": "No thanks"}}]})]) as stub:
        provider = LiveLLMProvider(live_config(stub.url))
        q = make_query()
        outcome = provider.decide(q)
    assert outcome.state is DecisionState.NO
    assert outcome.raw_text == "No thanks"
    assert outcome.latency_ms == 42
    body = stub.requests[0]
    assert body["model"] == "test-model"
    assert body["temperature"] == 0.7
    assert body["messages"] == [
        {"role": "user", "content": render_prompt(PromptTemplate.TIMELINESS, q)}
    ]
    assert stub.headers[0]["Authorization"] == f"Bearer {gateway_token}"


@pytest.mark.parametrize("transient", [500, 503, 429])
def test_live_retries_transient_then_succeeds(gateway_token, transient):
    with GatewayStub([(transient, {}), (200, YES_PAYLOAD)]) as stub:
        provider = LiveLLMProvider(live_config(stub.url))
        outcome = provider.decide(make_query())
    assert outcome.state is DecisionState.YES
    assert len(stub.requests) == 2


def test_live_exhausted_retries_is_error_outcome(gateway_token):
    with GatewayStub([(500, {}), (500, {})]) as stub:
        provider = LiveLLMProvider(live_config(stub.url, max_retries=1))
        outcome = provider.decide(make_query())
    assert outcome.state is DecisionState.ERROR
    assert outcome.raw_text == ""
    assert len(stub.requests) == 2


def test_live_connection_refused_is_error_outcome(gateway_token):
    provider = LiveLLMProvider(
        live_config("http://127.0.0.1:1/v1/chat/completions", max_retries=0, timeout_s=0.5)
    )
    outcome = provider.decide(make_query())
    assert outcome.state is DecisionState.ERROR


@pytest.mark.parametrize("status", [401, 403, 404])
def test_live_rejections_are_hard_failures(gateway_token, status):
    with GatewayStub([(status, {})]) as stub:
        provider = LiveLLMProvider(live_config(stub.url))
        with pytest.raises(ProviderHardFailure, match=f"gateway returned HTTP {status}"):
            provider.decide(make_query())


@pytest.mark.parametrize(
    "payload",
    [{"nope": 1}, {"choices": []}, {"choices": [{"message": {"content": 7}}]}, b"not json"],
)
def test_live_malformed_reply_is_hard_failure(gateway_token, payload):
    with GatewayStub([(200, payload)]) as stub:
        provider = LiveLLMProvider(live_config(stub.url))
        with pytest.raises(ProviderHardFailure):
            provider.decide(make_query())


@pytest.mark.parametrize(
    "name, value",
    [
        (name, value) for name in ("timeout_s", "rate_limit_rps") for value in (0.0, -1.0, float("nan"))
    ] + [
        ("timeout_s", 1e12), ("timeout_s", float("inf")), ("rate_limit_rps", 1e-12),
        ("temperature", float("nan")), ("temperature", -1.0), ("temperature", float("inf")),
    ],
)
def test_live_plumbing_must_be_positive(name, value):
    # A zero or NaN timeout would reach requests, which raises ValueError
    # inside decide: not a transport error, so the sim would abort as a bug.
    # A timeout or a request spacing (1/rate_limit_rps) past about 9.2e9 s
    # overflows socket.settimeout or time.sleep the same way. A NaN or
    # infinite temperature is no JSON number, so every request would fail.
    with pytest.raises(ConfigError, match=name):
        live_config("http://127.0.0.1:9/v1", **{name: value})


def test_live_missing_token_fails_fast(monkeypatch):
    monkeypatch.delenv("TEST_GATEWAY_TOKEN", raising=False)
    with pytest.raises(ProviderHardFailure):
        LiveLLMProvider(live_config("http://127.0.0.1:9/v1"))
    monkeypatch.setenv("TEST_GATEWAY_TOKEN", "")
    with pytest.raises(ProviderHardFailure):
        LiveLLMProvider(live_config("http://127.0.0.1:9/v1"))


def test_live_token_never_logged_or_journaled(gateway_token, caplog, tmp_path):
    with caplog.at_level(logging.DEBUG):
        with GatewayStub([(500, {}), (200, YES_PAYLOAD)]) as stub:
            provider = LiveLLMProvider(live_config(stub.url))
            q = make_query()
            outcome = provider.decide(q)
    assert gateway_token not in caplog.text
    path = tmp_path / "journal.jsonl"
    journal_append(path, q, outcome)
    assert gateway_token not in path.read_text(encoding="utf-8")


def test_live_rate_limiter_shared_per_endpoint():
    from bondflow.decision import _shared_rate_limiter

    a = _shared_rate_limiter("http://example.invalid/x", 4.0)
    b = _shared_rate_limiter("http://example.invalid/x", 4.0)
    c = _shared_rate_limiter("http://example.invalid/x", 8.0)
    d = _shared_rate_limiter("http://example.invalid/y", 4.0)
    assert a is b
    assert a is not c and a is not d


def test_live_rate_limiter_spaces_requests(gateway_token, monkeypatch):
    now = [100.0]
    slept: list[float] = []
    monkeypatch.setattr(decision, "time", SimpleNamespace(
        monotonic=lambda: now[0], sleep=slept.append, perf_counter=time.perf_counter,
    ))
    limiter = decision._RateLimiter(2.0)
    for _ in range(3):  # at once: the 2nd waits 0.5 s, the 3rd 1 s
        limiter.acquire()
    now[0] = 101.5  # the 4th comes when its turn is due: no wait
    limiter.acquire()
    assert slept == [0.5, 1.0]
    # A live provider waits its turn before each request.
    with GatewayStub([]) as stub:
        provider = LiveLLMProvider(live_config(stub.url, rate_limit_rps=2.0))
        provider.decide(make_query())
        provider.decide(make_query())
    assert slept == [0.5, 1.0, 0.5]


def test_journal_files_are_utf8(tmp_path):
    path = tmp_path / "j.jsonl"
    journal_append(
        path, make_query(), outcome_of(DecisionState.ERROR, "ne želim — こんにちは")
    )
    raw = path.read_bytes().decode("utf-8")
    assert "ne želim — こんにちは" in raw
    assert read_journal(path)[0].raw == "ne želim — こんにちは"
