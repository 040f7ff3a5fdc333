"""The trade-desire decision layer.

When a market maker calls a client, something has to answer the question
"do you want to trade right now?". That something is a decision provider:

- bernoulli: an independent coin flip per query.
- llm: a live chat-completion gateway call, with the client's holdings and
  position injected into a prompt template.
- replay: a recorded journal played back, with prompt-hash verification,
  so live sessions rerun bit-exactly offline.
- bursty: a two-state Markov chain producing persistent runs of Yes/No,
  calibrated to mimic the live gateway's serial correlation without the
  network.

Replies normalize into three states: Yes, No, or Error. Only a leading
yes/no token counts; verbose hedging is Error. The engine treats Error as
no-trade but metrics tally it separately.

Every decision can be journaled as line-delimited JSON carrying a stable
64-bit hash of the rendered prompt, which is what makes replay
verification possible.
"""

from __future__ import annotations

import hashlib
import json
import logging
import re
import threading
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import ConfigError, ProviderHardFailure
from .prompts import PromptTemplate, render_template
from .seeding import BufferedUniforms

logger = logging.getLogger(__name__)

DEFAULT_ENDPOINT_URL = "https://api.openai.com/v1/chat/completions"
DEFAULT_MODEL_NAME = "gpt-4o-mini-2024-07-18"
DEFAULT_TOKEN_ENV = "OPENAI_API_KEY"


class DecisionState(Enum):
    YES = "yes"
    NO = "no"
    ERROR = "error"


class ProviderKind(Enum):
    BERNOULLI = "bernoulli"
    LIVE_LLM = "llm"
    REPLAY = "replay"
    SYNTHETIC_BURSTY = "bursty"


@dataclass(frozen=True)
class DesireQuery:
    """One 'do you want to trade?' question put to one client."""

    sim_id: int
    step: int
    mm_id: int
    client_position: tuple[int, int]
    client_bonds: float
    client_cash: float
    sequence_no: int


@dataclass(frozen=True)
class DecisionOutcome:
    state: DecisionState
    raw_text: str
    provider: ProviderKind
    latency_ms: int | None = None


@dataclass(frozen=True)
class ProviderConfig:
    kind: ProviderKind = ProviderKind.BERNOULLI
    bernoulli_p: float = 0.5
    prompt_template: PromptTemplate = PromptTemplate.TIMELINESS
    endpoint_url: str = DEFAULT_ENDPOINT_URL
    model_name: str = DEFAULT_MODEL_NAME
    temperature: float = 1.0
    max_retries: int = 1
    replay_path: str | None = None
    burst_stay_yes: float = 0.656
    burst_stay_no: float = 0.544
    # Plumbing: name of the env var holding the bearer token (the token
    # itself never appears in config, journals, or logs), request timeout,
    # and the process-wide request-rate ceiling for live runs.
    token_env: str = DEFAULT_TOKEN_ENV
    timeout_s: float = 30.0
    rate_limit_rps: float = 4.0

    def __post_init__(self) -> None:
        if self.kind is ProviderKind.BERNOULLI:
            if not 0.0 <= self.bernoulli_p <= 1.0:
                raise ConfigError("bernoulli_p must lie in [0, 1]")
        elif self.kind is ProviderKind.SYNTHETIC_BURSTY:
            for name, p in (("burst_stay_yes", self.burst_stay_yes), ("burst_stay_no", self.burst_stay_no)):
                if not 0.0 < p < 1.0:
                    raise ConfigError(f"{name} must lie in (0, 1)")
        elif self.kind is ProviderKind.REPLAY:
            if not self.replay_path:
                raise ConfigError("replay provider requires replay_path")
        elif self.kind is ProviderKind.LIVE_LLM:
            if not self.endpoint_url:
                raise ConfigError("llm provider requires endpoint_url")
            if not self.model_name:
                raise ConfigError("llm provider requires model_name")
            if self.max_retries < 0:
                raise ConfigError("max_retries must be >= 0")
            if self.rate_limit_rps <= 0:
                raise ConfigError("rate_limit_rps must be > 0")


# --------------------------------------------------------------------------
# Normalization and prompt identity


_LEADING_JUNK = "\"'`“”‘’«»‘’.,:;!?*()[]{}<>-–—/\\|~_=+#@$%^& \t\r\n\f\v"
_LEAD_TOKEN = re.compile(r"[a-z]+")


def normalize_response(raw: str) -> DecisionState:
    """Map a free-text reply onto {Yes, No, Error}.

    Lowercase, strip leading whitespace/punctuation/quotes, then look at
    the first alphabetic token: exactly "yes" means Yes, exactly "no"
    means No, anything else (including "yesterday", "not", digits, empty)
    is Error. Pure, total, idempotent over its own output vocabulary.
    """
    text = raw.lower().lstrip(_LEADING_JUNK)
    match = _LEAD_TOKEN.match(text)
    if match is None:
        return DecisionState.ERROR
    token = match.group(0)
    if token == "yes":
        return DecisionState.YES
    if token == "no":
        return DecisionState.NO
    return DecisionState.ERROR


def render_prompt(template: PromptTemplate, q: DesireQuery) -> str:
    """Render the template with this query's injection values."""
    x, y = q.client_position
    return render_template(
        template, client_bonds=q.client_bonds, client_cash=q.client_cash, x=x, y=y
    )


def prompt_hash(prompt: str) -> int:
    """Stable unsigned 64-bit identity of a rendered prompt."""
    return int.from_bytes(hashlib.blake2b(prompt.encode("utf-8"), digest_size=8).digest(), "big")


# --------------------------------------------------------------------------
# Journal


@dataclass(frozen=True)
class JournalRecord:
    seq: int
    prompt_hash: int
    state: DecisionState
    raw: str
    latency_ms: int | None


def journal_line(q: DesireQuery, outcome: DecisionOutcome, template: PromptTemplate) -> str:
    """One UTF-8 JSON line for a decision, newline-terminated.

    Written field by field in a fixed order; the bytes equal
    ``json.dumps(record, ensure_ascii=False, separators=(",", ":"))``.
    """
    raw = json.dumps(outcome.raw_text, ensure_ascii=False) if outcome.raw_text else '""'
    latency = "null" if outcome.latency_ms is None else int(outcome.latency_ms)
    return (
        f'{{"seq":{q.sequence_no},"prompt_hash":{prompt_hash(render_prompt(template, q))},'
        f'"state":"{outcome.state.value}","raw":{raw},"latency_ms":{latency}}}\n'
    )


def parse_journal_line(line: str) -> JournalRecord:
    obj = json.loads(line)
    latency = obj.get("latency_ms")
    return JournalRecord(
        seq=int(obj["seq"]),
        prompt_hash=int(obj["prompt_hash"]),
        state=DecisionState(obj["state"]),
        raw=str(obj.get("raw", "")),
        latency_ms=None if latency is None else int(latency),
    )


def read_journal(path: Path | str) -> list[JournalRecord]:
    records: list[JournalRecord] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(parse_journal_line(line))
    return records


def split_journal(records: list[JournalRecord]) -> list[list[JournalRecord]]:
    """Split a concatenated multi-simulation journal at seq==0 boundaries."""
    slices: list[list[JournalRecord]] = []
    for rec in records:
        if rec.seq == 0 or not slices:
            slices.append([])
        slices[-1].append(rec)
    return slices


# --------------------------------------------------------------------------
# Providers


class DecisionProvider:
    """Base: one provider instance serves one simulation, sequentially.

    ``decide`` receives the simulation's provider stream as a plain
    ``np.random.Generator``, the same object on every call, and is its
    only consumer.
    """

    kind: ProviderKind
    _uniforms: BufferedUniforms | None = None

    def decide(self, q: DesireQuery, rng: np.random.Generator) -> DecisionOutcome:
        raise NotImplementedError

    def _uniform(self, rng: np.random.Generator) -> float:
        """The next ``rng.random()``, read ahead in blocks.

        The read-ahead is dropped, and reading starts afresh, whenever a
        different generator is passed.
        """
        uniforms = self._uniforms
        if uniforms is None or uniforms.rng is not rng:
            uniforms = self._uniforms = BufferedUniforms(rng)
        return uniforms.random()


# Coin-flip and bursty providers carry no reply text or latency, so every
# decision they make is one of two shared, immutable outcomes.
_BERNOULLI_YES = DecisionOutcome(DecisionState.YES, "", ProviderKind.BERNOULLI)
_BERNOULLI_NO = DecisionOutcome(DecisionState.NO, "", ProviderKind.BERNOULLI)
_BURSTY_YES = DecisionOutcome(DecisionState.YES, "", ProviderKind.SYNTHETIC_BURSTY)
_BURSTY_NO = DecisionOutcome(DecisionState.NO, "", ProviderKind.SYNTHETIC_BURSTY)


class BernoulliProvider(DecisionProvider):
    kind = ProviderKind.BERNOULLI

    def __init__(self, p: float) -> None:
        if not 0.0 <= p <= 1.0:
            raise ConfigError("bernoulli_p must lie in [0, 1]")
        self.p = p

    def decide(self, q: DesireQuery, rng: np.random.Generator) -> DecisionOutcome:
        return _BERNOULLI_YES if self._uniform(rng) < self.p else _BERNOULLI_NO


class SyntheticBurstyProvider(DecisionProvider):
    """Two-state Markov chain over {Yes, No}: emit current state, then transition.

    The initial state is drawn from the stationary distribution on the
    first decide() call, using the same provider RNG stream, so long-run
    frequencies are unbiased from the first sample.
    """

    kind = ProviderKind.SYNTHETIC_BURSTY

    def __init__(self, stay_yes: float, stay_no: float) -> None:
        for name, p in (("burst_stay_yes", stay_yes), ("burst_stay_no", stay_no)):
            if not 0.0 < p < 1.0:
                raise ConfigError(f"{name} must lie in (0, 1)")
        self.stay_yes = stay_yes
        self.stay_no = stay_no
        self._state: DecisionState | None = None

    @property
    def stationary_yes(self) -> float:
        flip_yes = 1.0 - self.stay_yes
        flip_no = 1.0 - self.stay_no
        return flip_no / (flip_yes + flip_no)

    def decide(self, q: DesireQuery, rng: np.random.Generator) -> DecisionOutcome:
        if self._state is None:
            self._state = (
                DecisionState.YES if self._uniform(rng) < self.stationary_yes else DecisionState.NO
            )
        emitted = self._state
        stay = self.stay_yes if emitted is DecisionState.YES else self.stay_no
        if self._uniform(rng) >= stay:
            self._state = (
                DecisionState.NO if emitted is DecisionState.YES else DecisionState.YES
            )
        return _BURSTY_YES if emitted is DecisionState.YES else _BURSTY_NO


class ReplayProvider(DecisionProvider):
    """Plays a recorded journal back against the live query stream.

    Each query re-renders its prompt and checks the stable hash against
    the recorded one; a mismatch (diverged config, tampered journal) or an
    exhausted journal yields Error for that query rather than a crash, so
    a replay degrades loudly in the tallies instead of silently trading.
    """

    kind = ProviderKind.REPLAY

    def __init__(self, records: list[JournalRecord], template: PromptTemplate) -> None:
        self.records = records
        self.template = template
        self._cursor = 0

    def decide(self, q: DesireQuery, rng: np.random.Generator) -> DecisionOutcome:
        if self._cursor >= len(self.records):
            return DecisionOutcome(state=DecisionState.ERROR, raw_text="", provider=self.kind)
        rec = self.records[self._cursor]
        self._cursor += 1
        expected = prompt_hash(render_prompt(self.template, q))
        if rec.prompt_hash != expected:
            return DecisionOutcome(state=DecisionState.ERROR, raw_text=rec.raw, provider=self.kind)
        return DecisionOutcome(
            state=rec.state, raw_text=rec.raw, provider=self.kind, latency_ms=rec.latency_ms
        )


class _RateLimiter:
    """Process-wide minimum spacing between requests (thread-safe)."""

    def __init__(self, rps: float) -> None:
        self.min_interval = 1.0 / rps
        self._lock = threading.Lock()
        self._next_at = 0.0

    def acquire(self) -> None:
        with self._lock:
            now = time.monotonic()
            wait = self._next_at - now
            self._next_at = max(now, self._next_at) + self.min_interval
        if wait > 0:
            time.sleep(wait)


_rate_limiters: dict[tuple[str, float], _RateLimiter] = {}
_rate_limiters_lock = threading.Lock()


def _shared_rate_limiter(endpoint: str, rps: float) -> _RateLimiter:
    with _rate_limiters_lock:
        key = (endpoint, rps)
        if key not in _rate_limiters:
            _rate_limiters[key] = _RateLimiter(rps)
        return _rate_limiters[key]


class LiveLLMProvider(DecisionProvider):
    """One chat-completion request per decision.

    Transport trouble (connection errors, timeouts, 429/5xx) is retried up
    to max_retries and then recorded as an Error outcome. Credential
    rejections and malformed replies are hard failures: they abort the
    batch rather than silently degrade a live experiment.

    The bearer token is read from the configured environment variable at
    construction (fail-fast) and is never logged or journaled.
    """

    kind = ProviderKind.LIVE_LLM

    def __init__(self, cfg: ProviderConfig) -> None:
        import os

        import requests

        token = os.environ.get(cfg.token_env, "")
        if not token:
            raise ProviderHardFailure(
                f"live llm provider needs a bearer token in ${cfg.token_env} (unset or empty)"
            )
        self.cfg = cfg
        self._headers = {"Authorization": f"Bearer {token}"}
        self._session = requests.Session()
        self._limiter = _shared_rate_limiter(cfg.endpoint_url, cfg.rate_limit_rps)

    def decide(self, q: DesireQuery, rng: np.random.Generator) -> DecisionOutcome:
        import requests

        prompt = render_prompt(self.cfg.prompt_template, q)
        body = {
            "model": self.cfg.model_name,
            "temperature": self.cfg.temperature,
            "messages": [{"role": "user", "content": prompt}],
        }
        attempts = self.cfg.max_retries + 1
        for attempt in range(attempts):
            self._limiter.acquire()
            started = time.perf_counter()
            try:
                resp = self._session.post(
                    self.cfg.endpoint_url,
                    json=body,
                    headers=self._headers,
                    timeout=self.cfg.timeout_s,
                )
            except requests.RequestException as exc:
                logger.warning(
                    "gateway transport failure (seq %d, attempt %d/%d): %s",
                    q.sequence_no, attempt + 1, attempts, type(exc).__name__,
                )
                continue
            latency_ms = max(0, int(round((time.perf_counter() - started) * 1000.0)))
            if resp.status_code in (401, 403):
                raise ProviderHardFailure(
                    f"gateway rejected credentials (HTTP {resp.status_code})"
                )
            if resp.status_code == 429 or resp.status_code >= 500:
                logger.warning(
                    "gateway transient HTTP %d (seq %d, attempt %d/%d)",
                    resp.status_code, q.sequence_no, attempt + 1, attempts,
                )
                continue
            if resp.status_code != 200:
                raise ProviderHardFailure(f"gateway returned HTTP {resp.status_code}")
            try:
                payload = resp.json()
                raw = payload["choices"][0]["message"]["content"]
            except (ValueError, LookupError, TypeError) as exc:
                raise ProviderHardFailure(f"malformed gateway reply: {exc}") from exc
            if not isinstance(raw, str):
                raise ProviderHardFailure("malformed gateway reply: content is not text")
            return DecisionOutcome(
                state=normalize_response(raw),
                raw_text=raw,
                provider=self.kind,
                latency_ms=latency_ms,
            )
        return DecisionOutcome(state=DecisionState.ERROR, raw_text="", provider=self.kind)


def build_provider(
    cfg: ProviderConfig, replay_records: list[JournalRecord] | None = None
) -> DecisionProvider:
    """Instantiate the provider for one simulation.

    A replay provider needs ``replay_records``, this simulation's slice of
    the recorded corpus (the harness splits a concatenated corpus across
    simulations).
    """
    if cfg.kind is ProviderKind.BERNOULLI:
        return BernoulliProvider(cfg.bernoulli_p)
    if cfg.kind is ProviderKind.SYNTHETIC_BURSTY:
        return SyntheticBurstyProvider(cfg.burst_stay_yes, cfg.burst_stay_no)
    if cfg.kind is ProviderKind.REPLAY:
        if replay_records is None:
            raise ConfigError("a replay provider needs its simulation's journal records")
        return ReplayProvider(replay_records, cfg.prompt_template)
    return LiveLLMProvider(cfg)
