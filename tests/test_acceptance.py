"""Acceptance gate: one test per shipped guarantee, each printing PASS/FAIL.

Each test exercises a whole-artifact behavior at its stated tolerance and
time budget. They are numbered; run with `pytest tests/test_acceptance.py -v`
(add -s to see the PASS lines for passing criteria too).

Criterion 3 checks the coin-flip (exp1) vs bursty (exp3) separation that
the pinned trade mechanics determine. No trade leg lowers a market maker's
bonds + cash (a client sell pays at most par, a buy and an interbank leg
swap at par), and metabolism is the only sink. So the bursty batch, which
gets more yes answers per contact, trades more and lives at least as long.
That reverses the source study's finding, which the test's name still
records; docs/decisions/criterion-3.md holds the analysis and the seeds
checked.
"""

from __future__ import annotations

import filecmp
import json
import math
import time
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from bondflow import (
    BatchResult,
    DecisionState,
    DesireQuery,
    ExperimentConfig,
    ProviderKind,
    read_journal,
    resolve_preset,
    run_batch,
    yes_ratio_series,
)
from bondflow.agents import AgentConfig, CeaseRule
from bondflow.decision import SyntheticBurstyProvider, normalize_response
from bondflow.engine import TerminalReason
from bondflow.harness import MANIFEST_JSON, TABLE_FILES, shipped_aversion_corpus
from bondflow.landscape import Direction
from bondflow.metrics import (
    CLIENT_TABLE_COLUMNS,
    FULL_TABLE_COLUMNS,
    YES_RATIO_TABLE_COLUMNS,
    series_stats,
)
from bondflow.seeding import substream
from util import GOLDEN_DIR, run_mini


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}", flush=True)
    assert passed, f"{criterion}: {detail}"


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def exp2_batch():
    return timed(lambda: run_batch(resolve_preset("exp2")))


@pytest.fixture(scope="module")
def exp1_50():
    return run_batch(resolve_preset("exp1", {"n_simulations": 50}))


@pytest.fixture(scope="module")
def exp3_50():
    return run_batch(resolve_preset("exp3", {"n_simulations": 50}))


def test_criterion_1_aversion_batch_never_trades(exp2_batch):
    result, elapsed = exp2_batch
    trade_free = sum(1 for s in result.summaries if s.trade_count == 0)
    n = len(result.summaries)
    passed = result.ok and n == 200 and trade_free == n and elapsed < 10.0
    report(
        "criterion-1 zero client trades under recorded aversion",
        passed,
        f"{trade_free}/{n} simulations trade-free in {elapsed:.2f}s",
    )


def test_criterion_2_collapse_timing_matches_metabolic_oracle(exp2_batch):
    result, elapsed = exp2_batch
    start = time.perf_counter()
    batch_mean = float(np.mean([s.terminal_step for s in result.summaries]))

    # Independent oracle: no engine code. 1e5 societies of n_agents whose
    # per-resource lifetime is ceil(initial / rate); the society's last
    # executed step index is max over agents (shipped default: an agent
    # works until BOTH resources are gone).
    cfg = AgentConfig()
    rng = np.random.default_rng(20_240)
    shape = (100_000, cfg.n_agents)
    life_b = np.ceil(
        rng.uniform(cfg.init_bonds_min, cfg.init_bonds_max, shape)
        / rng.uniform(cfg.cost_min, cfg.cost_max, shape)
    )
    life_c = np.ceil(
        rng.uniform(cfg.init_cash_min, cfg.init_cash_max, shape)
        / rng.uniform(cfg.cost_min, cfg.cost_max, shape)
    )
    if cfg.cease_rule is CeaseRule.BOTH_EXHAUSTED:
        per_agent = np.maximum(life_b, life_c)
    else:
        per_agent = np.minimum(life_b, life_c)
    oracle_mean = float(per_agent.max(axis=1).mean()) - 1.0  # steps -> last index
    elapsed += time.perf_counter() - start

    # The oracle ignores the interbank channel, which converts spare bond
    # runway into cash runway and shortens max-lifetimes slightly; the
    # documented tolerance between the two means is 5 steps.
    passed = (
        15.0 <= batch_mean <= 40.0
        and 15.0 <= oracle_mean <= 40.0
        and abs(batch_mean - oracle_mean) <= 5.0
        and elapsed < 30.0
    )
    report(
        "criterion-2 collapse timing within the metabolic oracle band",
        passed,
        f"batch mean {batch_mean:.2f}, oracle mean {oracle_mean:.2f}, "
        f"band [15, 40], in {elapsed:.2f}s",
    )


def yes_per_contact(cfg: ExperimentConfig) -> float:
    """Expected yes answers per contact: availability times the provider's yes rate."""
    provider = cfg.provider
    if provider.kind is ProviderKind.BERNOULLI:
        yes = provider.bernoulli_p
    else:
        assert provider.kind is ProviderKind.SYNTHETIC_BURSTY, provider.kind
        yes = SyntheticBurstyProvider(
            provider.burst_stay_yes, provider.burst_stay_no, np.random.default_rng(0)
        ).stationary_yes
    return cfg.landscape.availability_p * yes


def no_leg_drains_market_makers(batch: BatchResult) -> bool:
    """Client sells pay at most par; client buys and interbank legs swap at par."""
    return all(
        t.cash_qty <= t.bond_qty
        if t.client_direction is Direction.SELL
        else t.cash_qty == t.bond_qty
        for r in batch.results
        for t in r.trades
    )


def criterion_3(coin: BatchResult, bursty: BatchResult) -> tuple[bool, str]:
    """Premise, lifetime and bond-trading checks of the bursty batch against the coin-flip one."""
    premise = no_leg_drains_market_makers(coin) and no_leg_drains_market_makers(bursty)
    life_c, life_b = (float(np.median([s.max_life for s in b.summaries])) for b in (coin, bursty))
    capped_c, capped_b = (
        sum(s.terminal_reason is TerminalReason.STEP_LIMIT for s in b.summaries)
        for b in (coin, bursty)
    )
    bond_c, bond_b = (
        float(np.mean([s.mm_client_bond_pct for s in b.summaries])) for b in (coin, bursty)
    )
    rate_ratio = yes_per_contact(bursty.config) / yes_per_contact(coin.config)
    passed = (
        premise
        and life_b >= life_c
        and capped_b >= capped_c
        and bond_b >= rate_ratio * bond_c
    )
    detail = (
        f"no leg drains an MM: {premise}; median max_life {life_b:.0f} vs {life_c:.0f} "
        f"(need >=), step-limit sims {capped_b} vs {capped_c} (need >=), "
        f"mean bond trading {bond_b:.2f}% vs {bond_c:.2f}% "
        f"(need >= {rate_ratio:.3f}x, the yes-per-contact ratio)"
    )
    return passed, detail


def test_criterion_3_coinflip_outlives_bursty_tenfold(exp1_50, exp3_50):
    """The bursty batch trades more and lives at least as long as the coin-flip batch.

    The name records the source study's requirement (coin-flip outlives
    bursty tenfold), which the pinned trade mechanics reverse: no trade leg
    lowers an MM's bonds + cash, and exp3 gets more yes answers per contact
    than exp1. See docs/decisions/criterion-3.md.
    """
    start = time.perf_counter()
    passed, detail = criterion_3(exp1_50, exp3_50)
    elapsed = time.perf_counter() - start
    report(
        "criterion-3 bursty batch trades more and lives at least as long as coin-flip",
        passed,
        f"{detail}; comparison took {elapsed:.2f}s after the batch runs",
    )


def test_criterion_3_check_rejects_swapped_batches(exp1_50, exp3_50):
    passed, detail = criterion_3(exp3_50, exp1_50)
    assert not passed, f"criterion 3 passes with the batches swapped: {detail}"


def test_criterion_4_bursty_chain_ratio_statistics():
    """exp3's bursty chain, at its configured stays, over 10,000 decisions.

    The bounds follow from the two stays alone (Kemeny & Snell, Finite
    Markov Chains, 1960): the stationary yes rate pi, the lag-1
    autocorrelation lam = s_yes + s_no - 1, and their standard errors over
    n states. The lag-1 clause is what tells the chain from a coin flip at
    the same yes rate, whose lag-1 is 0.
    """
    provider_cfg = resolve_preset("exp3").provider
    s_yes, s_no = provider_cfg.burst_stay_yes, provider_cfg.burst_stay_no
    n = 10_000
    pi = (1 - s_no) / ((1 - s_yes) + (1 - s_no))
    lam = s_yes + s_no - 1
    yes_se = math.sqrt(pi * (1 - pi) * (1 + lam) / ((1 - lam) * n))
    lag1_se = math.sqrt((1 - lam**2) / n)

    def compute():
        provider = SyntheticBurstyProvider(s_yes, s_no, substream(20240, 0))
        q = DesireQuery(
            sim_id=0, step=0, mm_id=0, client_position=(0, 0),
            client_bonds=1.0, client_cash=1.0, sequence_no=0,
        )
        states = [provider.decide(q).state for _ in range(n)]
        series = yes_ratio_series(states, window=10)
        roll = series_stats(series.rolling)
        yes_fraction = series.yes_count / (series.yes_count + series.no_count)
        dev = [(state is DecisionState.YES) - yes_fraction for state in states]
        lag1 = sum(a * b for a, b in zip(dev, dev[1:])) / sum(d * d for d in dev)
        return yes_fraction, roll, lag1

    (yes_fraction, roll, lag1), elapsed = timed(compute)
    yes_lo, yes_hi = pi - 4 * yes_se, pi + 4 * yes_se
    lag1_lo, lag1_hi = lam - 4 * lag1_se, lam + 4 * lag1_se
    passed = (
        yes_lo <= yes_fraction <= yes_hi
        and 0.11 <= roll.std <= 0.21
        and roll.min == 0.0
        and roll.max == 1.0
        and lag1_lo <= lag1 <= lag1_hi
        and elapsed < 5.0
    )
    report(
        "criterion-4 bursty chain ratio statistics",
        passed,
        f"yes fraction {yes_fraction:.4f} in [{yes_lo:.4f}, {yes_hi:.4f}], rolling std "
        f"{roll.std:.4f} in [0.11, 0.21], rolling min {roll.min} / max {roll.max}, lag-1 "
        f"{lag1:.4f} in [{lag1_lo:.4f}, {lag1_hi:.4f}], in {elapsed:.2f}s",
    )


def test_criterion_5_conservation_across_random_configs():
    from bondflow import Simulation, build_provider, simulation_seed
    from bondflow.decision import ProviderConfig
    from bondflow.landscape import LandscapeConfig

    def run_suite():
        rng = np.random.default_rng(777)
        worst = 0.0
        for case in range(20):
            landscape = LandscapeConfig(
                grid_width=int(rng.integers(4, 21)),
                grid_height=int(rng.integers(4, 21)),
                availability_p=float(rng.uniform(0.1, 0.9)),
                direction_p=float(rng.uniform(0.3, 0.7)),
            )
            agents = AgentConfig(
                n_agents=int(rng.integers(2, 7)),
                cease_rule=(
                    CeaseRule.BOTH_EXHAUSTED if case % 2 else CeaseRule.EITHER_EXHAUSTED
                ),
            )
            seed = simulation_seed(10_000 + case, case)
            sim = Simulation(
                case,
                seed,
                landscape,
                agents,
                build_provider(ProviderConfig(bernoulli_p=float(rng.uniform(0.2, 0.9))), seed),
                max_steps=200,
            )
            while sim.any_active() and sim.step_no < sim.max_steps:
                sim.step()
                worst = max(worst, *sim.conservation_errors())
                if worst > 1e-9:
                    return worst
        return worst

    worst, elapsed = timed(run_suite)
    passed = worst <= 1e-9 and elapsed < 60.0
    report(
        "criterion-5 closed-system conservation after every step",
        passed,
        f"worst relative drift {worst:.3e} over 20 configs x 200 steps in {elapsed:.1f}s",
    )


def test_criterion_6_byte_identical_replay_trees(tmp_path):
    def run_tree(name, parallelism):
        out = tmp_path / name
        overrides = {
            "n_simulations": 30,
            "output_dir": str(out),
            "parallelism": parallelism,
        }
        result = run_batch(resolve_preset("exp2", overrides))
        assert result.ok
        return out

    first = run_tree("first", 1)
    second = run_tree("second", 1)
    fanned = run_tree("fanned", 4)

    def tree_diff(a: Path, b: Path) -> list[str]:
        names_a = sorted(p.relative_to(a).as_posix() for p in a.rglob("*") if p.is_file())
        names_b = sorted(p.relative_to(b).as_posix() for p in b.rglob("*") if p.is_file())
        if names_a != names_b:
            return ["<file lists differ>"]
        return [
            name
            for name in names_a
            if name != MANIFEST_JSON and not filecmp.cmp(a / name, b / name, shallow=False)
        ]

    rerun_diff = tree_diff(first, second)
    parallel_diff = tree_diff(first, fanned)
    passed = rerun_diff == [] and parallel_diff == []
    report(
        "criterion-6 byte-identical output trees (rerun and parallelism 1 vs 4)",
        passed,
        f"rerun diffs {rerun_diff}, parallel diffs {parallel_diff} "
        f"(manifest timestamps excluded by design)",
    )


def test_criterion_7_normalization_fixtures_and_corpus_aversion():
    fixtures = json.loads(
        resources.files("bondflow")
        .joinpath("data/fixtures/reply_fixtures.json")
        .read_text(encoding="utf-8")
    )["replies"]
    mismatches = [
        f["name"]
        for f in fixtures
        if normalize_response(f["raw"]) is not DecisionState(f["expected"])
    ]
    by_name = {f["name"]: f["expected"] for f in fixtures}
    expectations_ok = (
        by_name["example_1"] == "yes"
        and by_name["example_2"] == "error"
        and by_name["example_4"] == "error"  # leading token "I", strict prefix rule
    )
    corpus = read_journal(shipped_aversion_corpus())
    yes_replies = [
        r.seq for r in corpus
        if r.state is DecisionState.YES or normalize_response(r.raw) is DecisionState.YES
    ]
    passed = mismatches == [] and expectations_ok and yes_replies == [] and len(corpus) > 0
    report(
        "criterion-7 reply fixtures normalize as recorded; corpus is 100% averse",
        passed,
        f"fixture mismatches {mismatches}, corpus replies {len(corpus)}, "
        f"affirmative corpus replies {len(yes_replies)}",
    )


def test_criterion_8_request_rate_matches_availability(exp1_50):
    cfg = resolve_preset("exp1")
    p = cfg.landscape.availability_p
    contacts = sum(s.contacts for s in exp1_50.summaries)
    requests = sum(s.decision_requests for s in exp1_50.summaries)
    ratio = requests / contacts
    bound = 3.0 * math.sqrt(p * (1.0 - p) / contacts)
    passed = abs(ratio - p) <= bound
    report(
        "criterion-8 one decision request per available contact slot",
        passed,
        f"{requests} requests over {contacts} active-MM steps: rate {ratio:.5f} "
        f"vs availability {p} (3-sigma bound {bound:.5f})",
    )


def test_criterion_9_table_schema_golden_files(tmp_path):
    from bondflow import rebuild_tables

    out = tmp_path / "tables"
    run_mini(out)

    diffs = []
    for csv_name, txt_name in TABLE_FILES.values():
        for name in (csv_name, txt_name):
            if not filecmp.cmp(GOLDEN_DIR / name, out / name, shallow=False):
                diffs.append(name)

    # The recount path (the `tables` command) must rewrite identical bytes.
    rebuild_tables(out)
    for csv_name, txt_name in TABLE_FILES.values():
        for name in (csv_name, txt_name):
            if not filecmp.cmp(GOLDEN_DIR / name, out / name, shallow=False):
                diffs.append(f"rebuilt:{name}")

    headers = {
        "stats_full.csv": ",".join(FULL_TABLE_COLUMNS),
        "stats_client.csv": ",".join(CLIENT_TABLE_COLUMNS),
        "stats_yes_ratio.csv": ",".join(YES_RATIO_TABLE_COLUMNS),
    }
    schema_ok = all(
        (out / name).read_text(encoding="utf-8").splitlines()[0] == header
        for name, header in headers.items()
    )
    passed = diffs == [] and schema_ok
    report(
        "criterion-9 stats tables match the golden files and schema",
        passed,
        f"diffs {diffs}, schema ok {schema_ok}",
    )
