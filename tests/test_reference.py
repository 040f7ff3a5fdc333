"""Differential test: ``run_batch`` against the naive engine in ``reference.py``.

A seeded generator (criterion 5's, with its ranges widened to the edges)
draws a few hundred configs; for each, the trades, decisions, lifecycle and
summaries logs that ``run_batch`` writes must equal the reference engine's
byte for byte. Every other config keeps a journal, under each of the four prompt
templates in turn, and each sim's ``journals/sim_NNNN.jsonl`` must equal
the reference's too. Every tenth config with at least two sims runs again
at parallelism 2, and its tree must equal the serial one, manifest
excluded. A failure names the first config and log line that differ, so
the case can be rerun and shrunk by hand.
"""

from __future__ import annotations

import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from bondflow.agents import AgentConfig, CeaseRule
from bondflow.decision import ProviderConfig, ProviderKind
from bondflow.harness import JOURNAL_DIR, MANIFEST_JSON, ExperimentConfig, run_batch
from bondflow.landscape import LandscapeConfig
from bondflow.prompts import PromptTemplate
from reference import reference_tables

N_CONFIGS = 300
POOL_EVERY = 10
TIME_BUDGET_S = 10.0


def _edge_or_uniform(rng, edges, lo, hi):
    """One of ``edges`` half the time, else uniform in [lo, hi)."""
    if rng.random() < 0.5:
        return float(edges[int(rng.integers(len(edges)))])
    return float(rng.uniform(lo, hi))


def random_config(rng: np.random.Generator, case: int) -> ExperimentConfig:
    width = int(rng.choice([1, 60, int(rng.integers(1, 61))]))
    height = int(rng.choice([1, 40, int(rng.integers(1, 41))]))
    breadth_max = int(rng.integers(1, max(width, height) + 1))
    landscape = LandscapeConfig(
        grid_width=width,
        grid_height=height,
        availability_p=_edge_or_uniform(rng, [0.0, 1.0], 0.0, 1.0),
        direction_p=_edge_or_uniform(rng, [0.0, 1.0], 0.0, 1.0),
    )

    regime = case % 3
    if regime == 0:  # the default metabolism, at random rates
        cost_min = float(rng.uniform(0.05, 0.5))
        costs = dict(cost_min=cost_min, cost_max=cost_min + float(rng.uniform(0.0, 0.5)))
    elif regime == 1:  # costs that burn the largest endowment within 3 steps
        cost = float(rng.uniform(5.0 / 3.0, 6.0))
        costs = dict(cost_min=cost, cost_max=cost)
    else:  # equal endowments and rates, so interbank buyers tie on cash
        cost = float(rng.uniform(0.1, 0.5))
        cash = float(rng.uniform(1.0, 5.0))
        costs = dict(cost_min=cost, cost_max=cost, init_cash_min=cash, init_cash_max=cash)
    agents = AgentConfig(
        n_agents=int(rng.integers(1, 10)),
        breadth_min=int(rng.integers(1, breadth_max + 1)),
        breadth_max=breadth_max,
        cease_rule=CeaseRule.BOTH_EXHAUSTED if case % 2 else CeaseRule.EITHER_EXHAUSTED,
        **costs,
    )

    # Journaled configs (the even cases) take each template in turn; no draw picks it.
    template = list(PromptTemplate)[case // 2 % len(PromptTemplate)]
    if rng.random() < 0.5:
        provider = ProviderConfig(
            kind=ProviderKind.BERNOULLI, bernoulli_p=_edge_or_uniform(rng, [0.0, 1.0], 0.0, 1.0),
            prompt_template=template,
        )
    else:
        provider = ProviderConfig(
            kind=ProviderKind.SYNTHETIC_BURSTY,
            burst_stay_yes=float(rng.uniform(0.05, 0.95)),
            burst_stay_no=float(rng.uniform(0.05, 0.95)),
            prompt_template=template,
        )
    return ExperimentConfig(
        landscape=landscape,
        agents=agents,
        provider=provider,
        max_steps=int(rng.integers(0, 81)),
        n_simulations=int(rng.integers(1, 4)),
        master_seed=int(rng.integers(0, 2**31)),
        interbank_runway_steps=_edge_or_uniform(rng, [0.0, 50.0, 3.0], 0.0, 10.0),
        journal=case % 2 == 0,
    )


def _tree(out: Path) -> dict[str, bytes]:
    """Every file of an output tree but its manifest, by relative path."""
    return {
        str(path.relative_to(out)): path.read_bytes()
        for path in sorted(out.rglob("*"))
        if path.is_file() and path.name != MANIFEST_JSON
    }


def _differing(a: dict[str, bytes], b: dict[str, bytes]) -> list[str]:
    return sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))


def _first_difference(expected: str, actual: str) -> str:
    for no, (want, got) in enumerate(zip(expected.splitlines(), actual.splitlines()), start=1):
        if want != got:
            return f"line {no}: reference {want!r}, run_batch {got!r}"
    return f"reference has {len(expected.splitlines())} lines, run_batch {len(actual.splitlines())}"


def test_run_batch_matches_reference_engine(tmp_path):
    rng = np.random.default_rng(5)
    started = time.perf_counter()
    pooled_runs = 0
    for case in range(N_CONFIGS):
        cfg = random_config(rng, case)
        out = tmp_path / f"case{case:03d}"
        run_batch(replace(cfg, output_dir=str(out)))
        reference = reference_tables(cfg)
        journals = {path.relative_to(out).as_posix() for path in out.glob(f"{JOURNAL_DIR}/*")}
        assert journals == {name for name in reference if name.startswith(f"{JOURNAL_DIR}/")}, f"case {case}\n{cfg}"
        for name, expected in reference.items():
            actual = (out / name).read_text(encoding="utf-8")
            assert actual == expected, f"case {case}, {name}, {_first_difference(expected, actual)}\n{cfg}"
        if case % POOL_EVERY == 0 and cfg.n_simulations >= 2:
            pooled = tmp_path / f"case{case:03d}-par2"
            run_batch(replace(cfg, output_dir=str(pooled), parallelism=2))
            serial, parallel = _tree(out), _tree(pooled)
            assert serial == parallel, f"case {case}, parallelism 2 differs in {_differing(serial, parallel)}\n{cfg}"
            pooled_runs += 1
    elapsed = time.perf_counter() - started
    assert pooled_runs > 0
    assert elapsed < TIME_BUDGET_S, f"{N_CONFIGS} configs took {elapsed:.1f}s"
