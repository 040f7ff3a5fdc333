#!/usr/bin/env python3
"""Regenerate the fixture corpora shipped as bondflow package data.

Produces, under src/bondflow/data/fixtures/:

- reply_fixtures.json: free-text replies with their expected normalized
  states, used by the normalization test suite.
- aversion_replay.jsonl: a recorded decision corpus for the exp2 preset
  (seed 42). Each of the preset's sims runs through ``Simulation(...).run()``,
  as README "Library use" runs one sim, against a deterministic scripted
  emitter of averse replies (drawn from the reply fixtures plus terse
  refusals); each sim's journal, ``journal_line`` over its decisions, is
  written in sim order.
  Because refusals never mutate the landscape, the replayed exp2 batch
  issues byte-for-byte the same query stream, so the corpus covers its
  demand exactly.

Deterministic: rerunning this script reproduces identical files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from bondflow import (  # noqa: E402
    DecisionOutcome,
    DecisionProvider,
    DecisionState,
    DesireQuery,
    ProviderKind,
    Simulation,
    resolve_preset,
    simulation_seed,
)
from bondflow.decision import journal_line, normalize_response  # noqa: E402
from bondflow.engine import CounterpartyKind  # noqa: E402
from bondflow.seeding import STREAM_PROVIDER, substream  # noqa: E402

FIXTURE_DIR = REPO / "src" / "bondflow" / "data" / "fixtures"

# Free-text replies paired with the state the normalizer must produce.
# The five "example_*" entries are the recorded gateway outputs shipped as
# normalization fixtures; the first is the lone affirmative.
REPLY_FIXTURES = [
    {
        "name": "example_1",
        "expected": "yes",
        "raw": (
            "Yes, I want to trade with this market maker right now.Based on the information "
            "provided i would decide to trade with this market maker the client has a "
            "significant number of bonds and some cash available which suggests that they are "
            "in a position to either buy more bonds or sell existing ones trading could "
            "potentially enhance their investment position or utilize their cash more "
            "effectively"
        ),
    },
    {
        "name": "example_2",
        "expected": "error",
        "raw": (
            " Consider the following factors: \n"
            "1 current bond and cash position you have 743 bonds and 357 in cash assess "
            "whether you want to increase or decrease your bond holdings or your cash \n"
            "2 market conditions if the current bond prices are favorable you might want to "
            "buy more bonds conversely if prices are high selling might be an option \n"
            "3 market makers offer consider what the market maker is offering are their "
            "prices attractive for buying or selling bonds \n"
            "4 strategy align your decision with your overall investment strategy are you "
            "looking to hold longterm trade for shortterm profit or maintain liquidity\n"
            "ultimately the decision to trade will depend on your current market outlook "
            "financial situation and the specifics of the market makers offer if the "
            "conditions seem favorable and align with your strategy it may be worth engaging "
            "in a trade if not it might be best to hold off"
        ),
    },
    {
        "name": "example_3",
        "expected": "error",
        "raw": (
            "Given the client's current position with 20.32 bonds and 4.62 cash, I would want "
            "to evaluate several factors before deciding whether to trade with the market "
            "maker. This includes the current market conditions, the bid-ask spread, and the "
            "potential opportunities for profit or loss. However, without specific market "
            "details, I cannot make an informed decision. Therefore, in the absence of "
            "further information I will not trade with the market maker right now."
        ),
    },
    {
        "name": "example_4",
        "expected": "error",
        "raw": "I do not want to trade with this market maker right now.",
    },
    {
        "name": "example_5",
        "expected": "error",
        "raw": (
            "Based on the information provided, it seems that the client holds a certain "
            "amount of bonds and cash. However, without additional context regarding the "
            "current market conditions, the pricing offered by the market maker, the "
            "strategies, or the desired outcomes, it's difficult to make a definitive "
            "decision. If the market maker's offer is favorable and aligns with the client's "
            "trading goals, it might be advantageous to trade. Conversely, if the offer is "
            "not attractive or if the market conditions are unfavorable, it may be wise to "
            "refrain from trading at this time. Given the information I have, my decision "
            "would be I want to trade with this market maker right now"
        ),
    },
]

TERSE_REFUSALS = [
    "No",
    "no",
    "No.",
    "No, not right now.",
    "No - the client prefers to wait.",
    "no thank you",
    "No, I do not want to trade with this market maker right now.",
]
OTHER_REFUSALS = [
    "0 (not trade right now)",
    "Not at this time.",
    "I would prefer to hold off for now.",
]


class ScriptedAverseProvider(DecisionProvider):
    """Deterministic stand-in for a live averse session: never says yes."""

    kind = ProviderKind.LIVE_LLM

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        verbose = [f["raw"] for f in REPLY_FIXTURES if f["expected"] != "yes"]
        self.pool = TERSE_REFUSALS + OTHER_REFUSALS + verbose
        self.weights = np.array(
            [0.7 / len(TERSE_REFUSALS)] * len(TERSE_REFUSALS)
            + [0.3 / (len(self.pool) - len(TERSE_REFUSALS))]
            * (len(self.pool) - len(TERSE_REFUSALS))
        )

    def decide(self, q: DesireQuery) -> DecisionOutcome:
        raw = self.pool[int(self.rng.choice(len(self.pool), p=self.weights))]
        state = normalize_response(raw)
        assert state is not DecisionState.YES, raw
        return DecisionOutcome(
            state=state, raw_text=raw, provider=self.kind, latency_ms=int(self.rng.integers(180, 900))
        )


def build_reply_fixtures(out: Path) -> None:
    path = out / "reply_fixtures.json"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump({"replies": REPLY_FIXTURES}, fh, ensure_ascii=False, indent=2)
        fh.write("\n")
    print(f"wrote {path} ({len(REPLY_FIXTURES)} replies)")


def build_aversion_corpus(out: Path) -> None:
    cfg = resolve_preset("exp2")
    corpus_path = out / "aversion_replay.jsonl"
    total = steps = 0
    with open(corpus_path, "w", encoding="utf-8", newline="") as fh:
        for sim_id in range(cfg.n_simulations):
            seed = simulation_seed(cfg.master_seed, sim_id)
            result = Simulation(
                sim_id,
                seed,
                cfg.landscape,
                cfg.agents,
                ScriptedAverseProvider(substream(seed, STREAM_PROVIDER)),
                max_steps=cfg.max_steps,
                interbank_runway_steps=cfg.interbank_runway_steps,
            ).run()
            assert not result.aborted, (sim_id, result.abort_reason)
            assert all(t.counterparty_kind is not CounterpartyKind.CLIENT for t in result.trades)
            total += len(result.decisions)
            steps += result.terminal_step
            fh.writelines(journal_line(q, o, cfg.provider.prompt_template) for q, o in result.decisions)
    print(
        f"wrote {corpus_path} ({total} records over {cfg.n_simulations} simulations; "
        f"mean terminal step {steps / cfg.n_simulations:.1f})"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", type=Path, default=FIXTURE_DIR, help="fixture output directory"
    )
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    build_reply_fixtures(args.out)
    build_aversion_corpus(args.out)


if __name__ == "__main__":
    main()
