"""Client landscape: truncated sampling oracles, per-step rolls, trades."""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np
import pytest

from bondflow import (
    ConfigError,
    Direction,
    LandscapeConfig,
    LognormalParams,
    init_landscape,
    sample_truncated_lognormal,
    substream,
)
from bondflow.landscape import arithmetic_to_underlying

_ND = NormalDist()


def truncated_lognormal_quantile(mu: float, sigma: float, cap: float, q: float) -> float:
    """Independent closed-form quantile of exp(N(mu, sigma^2)) | <= cap."""
    p_cap = _ND.cdf((math.log(cap) - mu) / sigma)
    return math.exp(mu + sigma * _ND.inv_cdf(q * p_cap))


def test_sampler_degenerate_sigma_pins_location():
    rng = substream(1, 0)
    draws = sample_truncated_lognormal(0.0, 1e-12, 10.0, rng, size=1000)
    assert np.all(np.abs(draws - 1.0) < 1e-9)


def test_sampler_median_matches_truncated_oracle():
    rng = substream(2, 0)
    draws = sample_truncated_lognormal(2.5, 1.0, 100.0, rng, size=1_000_000)
    expected = truncated_lognormal_quantile(2.5, 1.0, 100.0, 0.5)
    # exp(2.5) = 12.18 untruncated; the cap at 100 drags the median down a bit.
    assert expected == pytest.approx(11.92, abs=0.02)
    assert float(np.median(draws)) == pytest.approx(expected, abs=0.08)
    assert draws.max() <= 100.0
    assert draws.min() > 0.0


def test_sampler_no_atom_at_cap_and_correct_tail_mass():
    # Clamping would pile ~11% of the cash distribution onto the cap value.
    rng = substream(3, 0)
    mu, sigma, cap = 1.0, 0.5, 5.0
    draws = sample_truncated_lognormal(mu, sigma, cap, rng, size=500_000)
    assert np.count_nonzero(draws == cap) == 0
    # CDF of the truncated law at the untruncated median exp(mu):
    p_cap = _ND.cdf((math.log(cap) - mu) / sigma)
    expected = 0.5 / p_cap
    observed = float(np.mean(draws <= math.exp(mu)))
    assert observed == pytest.approx(expected, abs=0.004)


def test_sampler_rejects_impossible_cap():
    rng = substream(5, 0)
    # exp(mu - 6 sigma) = exp(-3.5) ~ 0.0302; a cap below that must refuse.
    with pytest.raises(ConfigError):
        sample_truncated_lognormal(2.5, 1.0, 0.02, rng, size=1)
    with pytest.raises(ConfigError):
        sample_truncated_lognormal(1.0, -1.0, 5.0, rng, size=1)
    with pytest.raises(ConfigError):
        sample_truncated_lognormal(1.0, 0.5, 0.0, rng, size=1)


def test_arithmetic_parameterization_conversion():
    # Round-trip: a lognormal with underlying (mu, sigma) has arithmetic
    # mean exp(mu + sigma^2/2); converting that back must recover (mu, sigma).
    mu, sigma = 2.5, 1.0
    mean = math.exp(mu + sigma**2 / 2)
    std = mean * math.sqrt(math.exp(sigma**2) - 1.0)
    got_mu, got_sigma = arithmetic_to_underlying(mean, std)
    assert got_mu == pytest.approx(mu, rel=1e-12)
    assert got_sigma == pytest.approx(sigma, rel=1e-12)

    cfg = LandscapeConfig(
        bond_mu=mean, bond_sigma=std, lognormal_params=LognormalParams.ARITHMETIC
    )
    got = cfg.bond_normal_params()
    assert got[0] == pytest.approx(mu, rel=1e-12)
    assert got[1] == pytest.approx(sigma, rel=1e-12)

    with pytest.raises(ConfigError):
        arithmetic_to_underlying(-1.0, 1.0)


def test_init_landscape_populates_every_cell():
    cfg = LandscapeConfig()
    grid = init_landscape(cfg, substream(6, 0))
    assert grid.shape == (50, 50)
    assert grid.n_cells == 2500
    assert grid.bonds.shape == (50, 50)
    assert np.all(grid.bonds > 0) and np.all(grid.bonds <= cfg.max_bonds)
    assert np.all(grid.cash > 0) and np.all(grid.cash <= cfg.max_cash)


def test_init_landscape_bitwise_deterministic():
    cfg = LandscapeConfig()
    a = init_landscape(cfg, substream(7, 0))
    b = init_landscape(cfg, substream(7, 0))
    assert np.array_equal(a.bonds, b.bonds)
    assert np.array_equal(a.cash, b.cash)


def test_one_by_one_grid():
    cfg = LandscapeConfig(grid_width=1, grid_height=1)
    grid = init_landscape(cfg, substream(8, 0))
    assert grid.n_cells == 1
    assert grid.bonds.shape == (1, 1)
    assert 0 < grid.bonds[0, 0] <= cfg.max_bonds


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        LandscapeConfig(grid_width=0)
    with pytest.raises(ConfigError):
        LandscapeConfig(availability_p=1.5)
    with pytest.raises(ConfigError):
        LandscapeConfig(max_bonds=0.0)
    with pytest.raises(ConfigError):
        LandscapeConfig(bond_sigma=0.0)


def all_cells(grid):
    w, h = grid.shape
    return [(x, y) for y in range(h) for x in range(w)]


def test_roll_step_state_extremes():
    grid = init_landscape(LandscapeConfig(availability_p=0.0), substream(9, 0))
    grid.begin_step(substream(9, 1))
    assert not any(grid.is_available(x, y) for x, y in all_cells(grid))

    grid = init_landscape(LandscapeConfig(availability_p=1.0), substream(9, 2))
    grid.begin_step(substream(9, 3))
    assert all(grid.is_available(x, y) for x, y in all_cells(grid))


def test_roll_step_state_frequencies():
    cfg = LandscapeConfig(availability_p=0.2, direction_p=0.5)
    grid = init_landscape(cfg, substream(10, 0))
    rng = substream(10, 1)
    cells = all_cells(grid)
    avail = sell = 0
    rounds = 400
    for _ in range(rounds):
        grid.begin_step(rng)
        avail += sum(grid.is_available(x, y) for x, y in cells)
        sell += sum(grid.direction_at(x, y) is Direction.SELL for x, y in cells)
    n = rounds * grid.n_cells
    assert avail / n == pytest.approx(0.2, abs=0.005)
    assert sell / n == pytest.approx(0.5, abs=0.005)


def test_cell_direction_mapping():
    for direction_p, expected in ((0.0, Direction.BUY), (1.0, Direction.SELL)):
        grid = init_landscape(LandscapeConfig(direction_p=direction_p), substream(12, 0))
        grid.begin_step(substream(12, 1))
        assert {grid.direction_at(x, y) for x, y in all_cells(grid)} == {expected}


@pytest.mark.parametrize("width, height", [(1, 1), (3, 2), (50, 50), (200, 200)])
def test_step_lookups_match_full_grid_draws(width, height):
    """Lazy lookups read exactly the draws of a full-grid roll on the same stream.

    The reference draws both grids every step, availability then direction,
    from an identically seeded generator. Lookups come out of order, repeat
    within a step, mix availability-first and direction-first, and one step
    has none at all, so every jump (forward, backward, skip-ahead) is used.
    """
    cfg = LandscapeConfig(grid_width=width, grid_height=height, availability_p=0.3, direction_p=0.6)
    grid = init_landscape(cfg, substream(16, 0))
    rng, reference = substream(16, 1), substream(16, 1)
    picker = np.random.default_rng(16)
    corners = [(width - 1, height - 1), (0, 0)]
    for step in range(6):
        grid.begin_step(rng)
        available = reference.random((height, width)) < cfg.availability_p
        sell = reference.random((height, width)) < cfg.direction_p
        if step == 2:
            continue
        picks = [(int(i) % width, int(i) // width) for i in picker.integers(width * height, size=12)]
        cells = corners + picks + picks[::-2]
        for k, (x, y) in enumerate(cells):
            expected_direction = Direction.SELL if sell[y, x] else Direction.BUY
            if k % 3 == 0:
                assert grid.direction_at(x, y) is expected_direction
            assert grid.is_available(x, y) == available[y, x]
            assert grid.direction_at(x, y) is expected_direction


def test_apply_trade_updates_and_guards():
    grid = init_landscape(LandscapeConfig(), substream(13, 0))
    b0, c0 = grid.bonds[2, 1], grid.cash[2, 1]
    grid.apply_trade(1, 2, -b0, 3.0)
    assert grid.bonds[2, 1] == 0.0
    assert grid.cash[2, 1] == pytest.approx(c0 + 3.0)
    # Tiny negative residue floors to exactly zero; a real overdraft raises.
    grid.apply_trade(1, 2, 1e-13, 0.0)
    grid.apply_trade(1, 2, -(grid.bonds[2, 1] + 1e-13), 0.0)
    assert grid.bonds[2, 1] == 0.0
    with pytest.raises(AssertionError):
        grid.apply_trade(1, 2, -1.0, 0.0)


def test_totals_sum_everything():
    grid = init_landscape(LandscapeConfig(grid_width=3, grid_height=2), substream(14, 0))
    tb, tc = grid.totals()
    assert tb == pytest.approx(float(grid.bonds.sum()))
    assert tc == pytest.approx(float(grid.cash.sum()))
