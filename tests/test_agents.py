"""Market makers: initialization ranges, client bases, metabolism, cease rules."""

from __future__ import annotations

import math

import pytest

from bondflow import ConfigError
from bondflow.agents import (
    AgentConfig,
    CeaseRule,
    MarketMakerState,
    apply_costs,
    base_rect,
    init_market_makers,
)
from bondflow.seeding import substream


def mm(bonds, cash, bond_rate=0.3, cash_rate=0.3, breadth=1, anchor=(0, 0), mm_id=0):
    return MarketMakerState(
        id=mm_id,
        bonds_acc=bonds,
        cash_acc=cash,
        bond_rate=bond_rate,
        cash_rate=cash_rate,
        breadth=breadth,
        anchor=anchor,
    )


def client_base(agent, grid_dims):
    """Oracle: every grid cell within Chebyshev radius floor(breadth/2) of the anchor, row-major."""
    width, height = grid_dims
    radius = agent.breadth // 2
    ax, ay = agent.anchor
    return [
        (x, y)
        for y in range(max(0, ay - radius), min(height - 1, ay + radius) + 1)
        for x in range(max(0, ax - radius), min(width - 1, ax + radius) + 1)
    ]


# -- initialization ----------------------------------------------------


def test_init_respects_config_ranges():
    cfg = AgentConfig()
    agents = init_market_makers(cfg, (50, 50), substream(1, 1))
    assert [a.id for a in agents] == [0, 1, 2, 3]
    for a in agents:
        assert cfg.init_bonds_min <= a.bonds_acc <= cfg.init_bonds_max
        assert cfg.init_cash_min <= a.cash_acc <= cfg.init_cash_max
        assert cfg.cost_min <= a.bond_rate <= cfg.cost_max
        assert cfg.cost_min <= a.cash_rate <= cfg.cost_max
        assert cfg.breadth_min <= a.breadth <= cfg.breadth_max
        assert 0 <= a.anchor[0] < 50 and 0 <= a.anchor[1] < 50
        assert a.ceased_at_step is None
        # Plain Python numbers, not numpy scalars, for the engine's arithmetic and the logs.
        assert {type(v) for v in (a.bonds_acc, a.cash_acc, a.bond_rate, a.cash_rate)} == {float}
        assert {type(v) for v in (a.breadth, *a.anchor)} == {int}


def test_init_breadth_bounds_inclusive():
    cfg = AgentConfig(n_agents=200, breadth_min=2, breadth_max=3)
    agents = init_market_makers(cfg, (10, 10), substream(2, 1))
    breadths = {a.breadth for a in agents}
    assert breadths == {2, 3}


def test_init_deterministic():
    cfg = AgentConfig()
    a = init_market_makers(cfg, (50, 50), substream(3, 1))
    b = init_market_makers(cfg, (50, 50), substream(3, 1))
    assert a == b


def test_config_validation():
    with pytest.raises(ConfigError):
        AgentConfig(n_agents=0)
    with pytest.raises(ConfigError):
        AgentConfig(cost_min=0.5, cost_max=0.1)
    with pytest.raises(ConfigError):
        AgentConfig(cost_min=0.0)
    with pytest.raises(ConfigError):
        AgentConfig(breadth_min=0, breadth_max=3)
    with pytest.raises(ConfigError, match="init_cash_min"):  # endowments are not negative
        AgentConfig(init_cash_min=-1.0)


# -- client bases ------------------------------------------------------


def test_base_breadth_one_is_anchor_only():
    assert client_base(mm(1, 1, breadth=1, anchor=(7, 9)), (50, 50)) == [(7, 9)]


def test_base_full_breadth_covers_grid():
    base = client_base(mm(1, 1, breadth=50, anchor=(25, 25)), (50, 50))
    assert len(base) == 2500
    assert base[0] == (0, 0) and base[-1] == (49, 49)


def test_base_clips_at_edges_row_major():
    base = client_base(mm(1, 1, breadth=5, anchor=(0, 0)), (50, 50))
    assert base == [(x, y) for y in range(3) for x in range(3)]


def test_base_interior_square():
    base = client_base(mm(1, 1, breadth=5, anchor=(10, 20)), (50, 50))
    assert len(base) == 25
    assert all(max(abs(x - 10), abs(y - 20)) <= 2 for x, y in base)


def test_base_even_breadth_radius():
    # radius = floor(breadth / 2): breadth 4 -> radius 2, same as breadth 5.
    base4 = client_base(mm(1, 1, breadth=4, anchor=(10, 20)), (50, 50))
    base5 = client_base(mm(1, 1, breadth=5, anchor=(10, 20)), (50, 50))
    assert base4 == base5


@pytest.mark.parametrize("breadth", [1, 4, 5, 50])
@pytest.mark.parametrize(
    "anchor", [(0, 0), (49, 0), (49, 29), (0, 29), (25, 0), (0, 14), (49, 14), (25, 29), (25, 14)]
)
def test_rect_pick_matches_client_base(anchor, breadth):
    """Corner, edge and interior anchors: the k-th pick is the k-th base cell."""
    agent = mm(1, 1, breadth=breadth, anchor=anchor)
    dims = (50, 30)
    rect = base_rect(agent, dims)
    base = client_base(agent, dims)
    assert rect.size == len(base)
    assert [rect.cell(k) for k in range(rect.size)] == base


# -- metabolism and cease rules ----------------------------------------


def test_apply_costs_normal_consumption():
    agent = mm(5.0, 5.0)
    consumed_b, consumed_c = apply_costs(agent, 0, CeaseRule.EITHER_EXHAUSTED)
    assert (consumed_b, consumed_c) == (0.3, 0.3)
    assert agent.bonds_acc == pytest.approx(4.7)
    assert agent.cash_acc == pytest.approx(4.7)
    assert agent.ceased_at_step is None


def test_apply_costs_floor_and_either_rule():
    agent = mm(0.2, 4.0)
    consumed_b, consumed_c = apply_costs(agent, 6, CeaseRule.EITHER_EXHAUSTED)
    assert consumed_b == pytest.approx(0.2)  # only what was left
    assert consumed_c == pytest.approx(0.3)
    assert agent.bonds_acc == 0.0
    assert agent.ceased_at_step == 6


def test_apply_costs_floor_and_both_rule():
    agent = mm(0.2, 4.0)
    apply_costs(agent, 6, CeaseRule.BOTH_EXHAUSTED)
    assert agent.bonds_acc == 0.0
    assert agent.ceased_at_step is None


def test_cease_check_semantics():
    # Zero cost rates: apply_costs burns nothing and only applies the rule.
    either, both = CeaseRule.EITHER_EXHAUSTED, CeaseRule.BOTH_EXHAUSTED

    agent = mm(0.0, 3.2, bond_rate=0.0, cash_rate=0.0)
    apply_costs(agent, 4, either)
    assert agent.ceased_at_step == 4

    agent = mm(0.0, 3.2, bond_rate=0.0, cash_rate=0.0)
    apply_costs(agent, 4, both)
    assert agent.ceased_at_step is None

    agent = mm(0.0, 0.0, bond_rate=0.0, cash_rate=0.0)
    apply_costs(agent, 9, both)
    assert agent.ceased_at_step == 9

    agent = mm(0.1, 5.0, bond_rate=0.0, cash_rate=0.0)
    apply_costs(agent, 0, either)
    assert agent.ceased_at_step is None


def test_scalar_lifetime_matches_ceiling_formula():
    # Oracle: with no trading, a resource with r_0 at rate m survives
    # ceil(r_0 / m) steps. Either = min of the two, Both = max.
    rng = substream(4, 1)
    for _ in range(200):
        b0 = float(rng.uniform(0.05, 8.0))
        c0 = float(rng.uniform(0.05, 8.0))
        rb = float(rng.uniform(0.1, 0.5))
        rc = float(rng.uniform(0.1, 0.5))
        life_b = math.ceil(b0 / rb)
        life_c = math.ceil(c0 / rc)
        for rule, expected in (
            (CeaseRule.EITHER_EXHAUSTED, min(life_b, life_c)),
            (CeaseRule.BOTH_EXHAUSTED, max(life_b, life_c)),
        ):
            agent = mm(b0, c0, rb, rc)
            steps = 0
            while agent.ceased_at_step is None:
                apply_costs(agent, steps, rule)
                steps += 1
                assert steps < 1000
            assert steps == expected, (b0, c0, rb, rc, rule)
            assert agent.ceased_at_step == expected - 1
