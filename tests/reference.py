"""A deliberately naive reference engine, for differential tests.

It follows the step order in ``bondflow.engine``'s docstring with the
plainest code that gives the same bytes: every step rolls the whole grid
(``rng.random(2 * n)``), a contact is a scalar ``rng.integers`` pick over an
explicit list of the base's cells, the coin-flip and bursty providers make
scalar draws, clients' holdings are two flat per-cell lists, and every agent
and log row is a plain dict. It shares only the config types, the seed
derivation and the market makers' initial draws with the package; the
holdings sampler and the step loop are its own. After every step it checks
the closed-system law on the holdings. Each sim's summary row is tallied
from its own log rows, in log order.

``reference_tables(cfg)`` renders a batch's ``trades.csv``, ``decisions.csv``,
``lifecycle.csv`` and ``summaries.csv`` as ``run_batch`` would write them,
and, for a batch that keeps a journal, each sim's ``journals/sim_NNNN.jsonl``: one
``json.dumps`` line per decision, hashing the prompt that ``str.format``
renders from the shipped template text. A sim that made no decision gets
an empty journal.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from importlib import resources

import numpy as np

from bondflow.agents import CeaseRule, init_market_makers
from bondflow.decision import ProviderKind
from bondflow.harness import ExperimentConfig
from bondflow.seeding import (
    STREAM_AGENT_INIT,
    STREAM_CONTACT_SELECTION,
    STREAM_LANDSCAPE_INIT,
    STREAM_PROVIDER,
    STREAM_STEP_ROLLS,
    simulation_seed,
    substream,
)

TRADE_FIELDS = ["sim_id", "step", "mm_id", "counterparty_kind", "counterparty", "direction", "bond_qty", "cash_qty"]
DECISION_FIELDS = ["sim_id", "seq", "step", "mm_id", "x", "y", "state", "provider"]
LIFECYCLE_FIELDS = ["sim_id", "mm_id", "ceased_at_step", "breadth", "bond_rate", "cash_rate"]
SUMMARY_FIELDS = [
    "sim_id", "terminal_step", "terminal_reason", "steps_executed", "max_life",
    "mm_client_bond_pct", "mm_client_cash_pct", "interbank_bond_pct", "interbank_cash_pct",
    "contacts", "decision_requests", "yes_count", "no_count", "error_count",
    "trade_count", "interbank_trade_count", "initial_client_bonds", "initial_client_cash",
]

CONSERVATION_TOLERANCE = 1e-9


def sample_truncated_lognormal(mu, sigma, cap, rng, size):
    """The holdings sampler's oracle: a pending-index rejection loop.

    Every round draws one normal per pending cell, in ascending cell order,
    and keeps the draws at or below the cap. ``bondflow.landscape`` must
    give the same bytes.
    """
    out = np.empty(size, dtype=np.float64)
    pending = np.arange(size)
    while pending.size:
        draws = np.exp(rng.normal(mu, sigma, size=pending.size))
        ok = draws <= cap
        out[pending[ok]] = draws[ok]
        pending = pending[~ok]
    return out


def _coin_flip(p):
    def decide(rng):
        return "yes" if rng.random() < p else "no"

    return decide


def _bursty(stay_yes, stay_no):
    chain = {"state": None}
    flip_yes, flip_no = 1.0 - stay_yes, 1.0 - stay_no
    stationary_yes = flip_no / (flip_yes + flip_no)

    def decide(rng):
        if chain["state"] is None:
            chain["state"] = "yes" if rng.random() < stationary_yes else "no"
        emitted = chain["state"]
        if rng.random() >= (stay_yes if emitted == "yes" else stay_no):
            chain["state"] = "no" if emitted == "yes" else "yes"
        return emitted

    return decide


def _prompt_hash(text, bonds, cash, x, y):
    """blake2b-64 of template *text*, its placeholders filled by ``str.format``."""
    b, c = f"{bonds:.2f}", f"{cash:.2f}"
    prompt = text.format(client_bonds=b, client_cash=c, bonds=b, cash=c, x=x, y=y)
    return int.from_bytes(hashlib.blake2b(prompt.encode("utf-8"), digest_size=8).digest(), "big")


def _check_conservation(holdings, mms, consumed, initial):
    for key in ("bonds", "cash"):
        now = sum(holdings[key]) + sum(mm[key] for mm in mms) + consumed[key]
        drift = abs(now - initial[key]) / max(initial[key], 1e-12)
        assert drift <= CONSERVATION_TOLERANCE, f"reference lost {key}: relative drift {drift:.3e}"


def _summary(sim_id, steps, contacts, trades, decisions, lifecycle, initial_client):
    """One sim's summary row, tallied from its own trade, decision and lifecycle rows in log order."""
    terminal_step = max(0, steps - 1)
    volume = {(kind, key): 0.0 for kind in ("client", "mm") for key in ("bond_qty", "cash_qty")}
    for row in trades:
        for key in ("bond_qty", "cash_qty"):
            volume[row["counterparty_kind"], key] += row[key]

    def client_pct(key, resource):
        total = initial_client[resource]
        return min(100.0, 100.0 * volume["client", key] / total) if total > 0.0 else 0.0

    def interbank_pct(key):
        total = volume["client", key] + volume["mm", key]
        return 100.0 * volume["mm", key] / total if total > 0.0 else 0.0

    states = [row["state"] for row in decisions]
    ceased = [row["ceased_at_step"] for row in lifecycle]
    kinds = [row["counterparty_kind"] for row in trades]
    return {
        "sim_id": sim_id,
        "terminal_step": terminal_step,
        "terminal_reason": "step_limit" if None in ceased else "all_ceased",
        "steps_executed": steps,
        "max_life": max(terminal_step if c is None else c for c in ceased),
        "mm_client_bond_pct": client_pct("bond_qty", "bonds"),
        "mm_client_cash_pct": client_pct("cash_qty", "cash"),
        "interbank_bond_pct": interbank_pct("bond_qty"),
        "interbank_cash_pct": interbank_pct("cash_qty"),
        "contacts": contacts,
        "decision_requests": len(states),
        "yes_count": states.count("yes"),
        "no_count": states.count("no"),
        "error_count": states.count("error"),
        "trade_count": kinds.count("client"),
        "interbank_trade_count": kinds.count("mm"),
        "initial_client_bonds": initial_client["bonds"],
        "initial_client_cash": initial_client["cash"],
    }


def run_reference(cfg: ExperimentConfig, sim_id: int) -> tuple[list[dict], list[dict], list[dict], dict, list[dict]]:
    """One simulation's (trade, decision, lifecycle) rows, its summary row and its journal, as dicts in log order."""
    land, prov = cfg.landscape, cfg.provider
    seed = simulation_seed(cfg.master_seed, sim_id)
    w, h = land.grid_width, land.grid_height
    n = w * h

    init = substream(seed, STREAM_LANDSCAPE_INIT)
    bonds = sample_truncated_lognormal(*land.bond_normal_params(), land.max_bonds, init, n)
    cash = sample_truncated_lognormal(*land.cash_normal_params(), land.max_cash, init, n)
    # Each client's holdings, by cell i = y*w + x; the summary's initial totals are numpy sums.
    holdings = {"bonds": bonds.tolist(), "cash": cash.tolist()}
    initial_client = {"bonds": float(bonds.sum()), "cash": float(cash.sum())}

    mms = []
    for agent in init_market_makers(cfg.agents, (w, h), substream(seed, STREAM_AGENT_INIT)):
        r = agent.breadth // 2
        ax, ay = agent.anchor
        xs = [x for x in range(ax - r, ax + r + 1) if 0 <= x < w]
        ys = [y for y in range(ay - r, ay + r + 1) if 0 <= y < h]
        mms.append({
            "id": agent.id, "bonds": agent.bonds_acc, "cash": agent.cash_acc,
            "bond_rate": agent.bond_rate, "cash_rate": agent.cash_rate, "breadth": agent.breadth,
            "cells": [(x, y) for y in ys for x in xs], "ceased": None,
        })

    rolls = substream(seed, STREAM_STEP_ROLLS)
    contact = substream(seed, STREAM_CONTACT_SELECTION)
    provider_rng = substream(seed, STREAM_PROVIDER)
    if prov.kind is ProviderKind.BERNOULLI:
        decide = _coin_flip(prov.bernoulli_p)
    elif prov.kind is ProviderKind.SYNTHETIC_BURSTY:
        decide = _bursty(prov.burst_stay_yes, prov.burst_stay_no)
    else:
        raise ValueError(f"the reference engine has no {prov.kind.value} provider")
    prompts = resources.files("bondflow").joinpath("data", "prompts")
    template = prompts.joinpath(f"{prov.prompt_template.value}.txt").read_text(encoding="utf-8")
    either = cfg.agents.cease_rule is CeaseRule.EITHER_EXHAUSTED
    runway = cfg.interbank_runway_steps

    initial = {key: sum(holdings[key]) + sum(mm[key] for mm in mms) for key in ("bonds", "cash")}
    consumed = {"bonds": 0.0, "cash": 0.0}
    trades: list[dict] = []
    decisions: list[dict] = []
    journal: list[dict] = []
    client_bonds, client_cash = holdings["bonds"], holdings["cash"]
    contacts = 0

    def trade(step, mm, kind, counterparty, direction, bond_qty, cash_qty):
        trades.append({
            "sim_id": sim_id, "step": step, "mm_id": mm["id"], "counterparty_kind": kind,
            "counterparty": counterparty, "direction": direction,
            "bond_qty": bond_qty, "cash_qty": cash_qty,
        })

    step = 0
    while step < cfg.max_steps and any(mm["ceased"] is None for mm in mms):
        u = rolls.random(2 * n)
        live = [mm for mm in mms if mm["ceased"] is None]
        contacts += len(live)

        # Contacts: one phone call per live market maker, in id order.
        for mm in live:
            x, y = mm["cells"][int(contact.integers(len(mm["cells"])))]
            i = y * w + x
            if not u[i] < land.availability_p:
                continue
            state = decide(provider_rng)
            journal.append({
                "seq": len(decisions),
                "prompt_hash": _prompt_hash(template, client_bonds[i], client_cash[i], x, y),
                "state": state, "raw": "", "latency_ms": None,
            })
            decisions.append({
                "sim_id": sim_id, "seq": len(decisions), "step": step, "mm_id": mm["id"],
                "x": x, "y": y, "state": state, "provider": prov.kind.value,
            })
            if state != "yes":
                continue
            if u[n + i] < land.direction_p:
                # Sell: the client unloads every bond; the MM pays what it can, up to par.
                bond_qty = client_bonds[i]
                cash_qty = min(mm["cash"], bond_qty)
                if bond_qty <= 0.0 and cash_qty <= 0.0:
                    continue
                client_bonds[i] -= bond_qty
                client_cash[i] += cash_qty
                mm["bonds"] += bond_qty
                mm["cash"] -= cash_qty
                trade(step, mm, "client", f"{x}:{y}", "sell", bond_qty, cash_qty)
            else:
                # Buy: a par swap, capped by the client's cash and the MM's bonds.
                qty = min(client_cash[i], mm["bonds"])
                if qty <= 0.0:
                    continue
                client_bonds[i] += qty
                client_cash[i] -= qty
                mm["bonds"] -= qty
                mm["cash"] += qty
                trade(step, mm, "client", f"{x}:{y}", "buy", qty, qty)

        # Interbank: each needy MM sells bonds at par to the cash-richest peer.
        if len(live) >= 2:
            for mm in live:
                if mm["cash"] / mm["cash_rate"] >= runway:
                    continue
                # max() keeps the first of equal peers: ties go to the lowest id.
                buyer = max((p for p in live if p is not mm), key=lambda p: p["cash"])
                qty = min(mm["bonds"], buyer["cash"], runway * mm["cash_rate"] - mm["cash"])
                if qty <= 0.0:
                    continue
                mm["bonds"] -= qty
                mm["cash"] += qty
                buyer["bonds"] += qty
                buyer["cash"] -= qty
                trade(step, mm, "mm", buyer["id"], "", qty, qty)

        # Costs, then the cease rule.
        for mm in live:
            consumed["bonds"] += min(mm["bond_rate"], mm["bonds"])
            consumed["cash"] += min(mm["cash_rate"], mm["cash"])
            mm["bonds"] = max(0.0, mm["bonds"] - mm["bond_rate"])
            mm["cash"] = max(0.0, mm["cash"] - mm["cash_rate"])
            empty = [mm["bonds"] <= 0.0, mm["cash"] <= 0.0]
            if any(empty) if either else all(empty):
                mm["ceased"] = step

        step += 1
        _check_conservation(holdings, mms, consumed, initial)

    lifecycle = [
        {
            "sim_id": sim_id, "mm_id": mm["id"], "ceased_at_step": mm["ceased"],
            "breadth": mm["breadth"], "bond_rate": mm["bond_rate"], "cash_rate": mm["cash_rate"],
        }
        for mm in mms
    ]
    summary = _summary(sim_id, step, contacts, trades, decisions, lifecycle, initial_client)
    return trades, decisions, lifecycle, summary, journal


def _render(fields: list[str], rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fields, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def reference_tables(cfg: ExperimentConfig) -> dict[str, str]:
    """The batch's four log CSV texts and, if it keeps a journal, each sim's journal, keyed by path."""
    trades: list[dict] = []
    decisions: list[dict] = []
    lifecycle: list[dict] = []
    summaries: list[dict] = []
    journals: dict[str, str] = {}
    for sim_id in range(cfg.n_simulations):
        sim_trades, sim_decisions, sim_lifecycle, summary, journal = run_reference(cfg, sim_id)
        trades += sim_trades
        decisions += sim_decisions
        lifecycle += sim_lifecycle
        summaries.append(summary)
        if cfg.journal_enabled():
            lines = [json.dumps(record, ensure_ascii=False, separators=(",", ":")) + "\n" for record in journal]
            journals[f"journals/sim_{sim_id:04d}.jsonl"] = "".join(lines)
    return {
        "trades.csv": _render(TRADE_FIELDS, trades),
        "decisions.csv": _render(DECISION_FIELDS, decisions),
        "lifecycle.csv": _render(LIFECYCLE_FIELDS, lifecycle),
        "summaries.csv": _render(SUMMARY_FIELDS, summaries),
        **journals,
    }
