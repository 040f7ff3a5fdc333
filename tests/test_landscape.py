"""Client landscape: truncated sampling oracles, per-step rolls, trades."""

from __future__ import annotations

import math
import sys
from statistics import NormalDist

import numpy as np
import pytest

from bondflow import ConfigError, resolve_preset
from bondflow.landscape import (
    Direction,
    Landscape,
    LandscapeConfig,
    LognormalParams,
    arithmetic_to_underlying,
    check_truncation,
    sample_truncated_lognormal,
)
from bondflow.seeding import substream
from reference import sample_truncated_lognormal as oracle_sampler

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


_BOND = (2.5, 1.0, 100.0)
_CASH = (1.0, 0.5, 5.0)


@pytest.mark.parametrize("width, height", [(1, 1), (3, 2), (50, 50), (200, 200)])
@pytest.mark.parametrize(
    "bond, cash",
    [
        (_BOND, _CASH),
        # cap = exp(mu): about half of every round is redrawn.
        ((2.5, 1.0, math.exp(2.5)), (1.0, 0.5, math.exp(1.0))),
        # cap = exp(mu - 2 sigma): about 98% redrawn, hundreds of rounds.
        ((2.5, 1.0, math.exp(0.5)), (1.0, 0.5, math.exp(0.0))),
    ],
    ids=["defaults", "half-rejected", "mostly-rejected"],
)
def test_sampler_bytes_equal_the_pending_index_oracle(width, height, bond, cash):
    # Bonds then cash from one generator, as Landscape draws them, so the
    # second call also checks where the first one left the stream.
    n = width * height
    for seed in (0, 1, 42, 2024):
        fast, slow = substream(seed, 0), substream(seed, 0)
        for mu, sigma, cap in (bond, cash):
            got = sample_truncated_lognormal(mu, sigma, cap, fast, size=n)
            want = oracle_sampler(mu, sigma, cap, slow, n)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert fast.bit_generator.state == slow.bit_generator.state


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

    for moments in ((-1.0, 1.0), (0.0, 1.0), (1.0, 0.0), (1.0, -1.0)):
        with pytest.raises(ConfigError):
            arithmetic_to_underlying(*moments)


def test_landscape_populates_every_cell():
    cfg = LandscapeConfig()
    grid = Landscape(cfg, substream(6, 0), substream(6, 1))
    assert grid.shape == (50, 50)
    assert grid.n_cells == 2500
    assert grid.bonds.shape == (50, 50)
    assert np.all(grid.bonds > 0) and np.all(grid.bonds <= cfg.max_bonds)
    assert np.all(grid.cash > 0) and np.all(grid.cash <= cfg.max_cash)


def test_landscape_bitwise_deterministic():
    cfg = LandscapeConfig()
    a = Landscape(cfg, substream(7, 0), substream(7, 1))
    b = Landscape(cfg, substream(7, 0), substream(7, 1))
    assert np.array_equal(a.bonds, b.bonds)
    assert np.array_equal(a.cash, b.cash)


def test_one_by_one_grid():
    cfg = LandscapeConfig(grid_width=1, grid_height=1)
    grid = Landscape(cfg, substream(8, 0), substream(8, 1))
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


def test_infeasible_truncation_is_rejected_when_the_config_is_built():
    # exp(cash_mu - 6*cash_sigma) = exp(-2) ~ 0.135: a 0.01 cash cap could never be sampled.
    with pytest.raises(ConfigError, match="truncation cap"):
        resolve_preset("exp1", {"landscape.max_cash": 0.01})
    with pytest.raises(ConfigError):  # an arithmetic mean must be > 0
        LandscapeConfig(bond_mu=-1.0, lognormal_params=LognormalParams.ARITHMETIC)
    # exp(mu + 6*sigma) must be a float: exp(1200) is not.
    with pytest.raises(ConfigError, match="truncation cap"):
        LandscapeConfig(bond_mu=0.0, bond_sigma=200.0, max_bonds=1e300)
    # Each bound, tested directly: a sigma of 0 fails; a cap of exactly
    # exp(mu - 6*sigma), and an exp(mu + 6*sigma) of exactly the largest float, pass.
    with pytest.raises(ConfigError, match="truncation cap"):
        check_truncation(0.0, 0.0, 1.0)
    check_truncation(6.0, 1.0, 1.0)
    largest = math.log(sys.float_info.max)
    assert (largest - 6.0) + 6.0 == largest
    check_truncation(largest - 6.0, 1.0, 1e308)


def all_cells(grid):
    w, h = grid.shape
    return [(x, y) for y in range(h) for x in range(w)]


def test_step_lookups_at_availability_extremes():
    grid = Landscape(LandscapeConfig(availability_p=0.0), substream(9, 0), substream(9, 1))
    grid.begin_step()
    assert not any(grid.is_available(x, y) for x, y in all_cells(grid))

    grid = Landscape(LandscapeConfig(availability_p=1.0), substream(9, 2), substream(9, 3))
    grid.begin_step()
    assert all(grid.is_available(x, y) for x, y in all_cells(grid))


def test_step_lookup_frequencies():
    cfg = LandscapeConfig(availability_p=0.2, direction_p=0.5)
    grid = Landscape(cfg, substream(10, 0), substream(10, 1))
    cells = all_cells(grid)
    avail = sell = 0
    rounds = 400
    for _ in range(rounds):
        grid.begin_step()
        avail += sum(grid.is_available(x, y) for x, y in cells)
        sell += sum(grid.direction_at(x, y) is Direction.SELL for x, y in cells)
    n = rounds * grid.n_cells
    assert avail / n == pytest.approx(0.2, abs=0.005)
    assert sell / n == pytest.approx(0.5, abs=0.005)


def test_cell_direction_mapping():
    for direction_p, expected in ((0.0, Direction.BUY), (1.0, Direction.SELL)):
        grid = Landscape(LandscapeConfig(direction_p=direction_p), substream(12, 0), substream(12, 1))
        grid.begin_step()
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
    grid = Landscape(cfg, substream(16, 0), substream(16, 1))
    reference = substream(16, 1)
    picker = np.random.default_rng(16)
    corners = [(width - 1, height - 1), (0, 0)]
    for step in range(6):
        grid.begin_step()
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


def seam_offsets(n_cells):
    """Both block ends, and the offsets around every seam of the two-level table.

    Offset k reads ``hi[k // R]`` after ``lo[k % R]``, with ``R = isqrt(2n) + 1``.
    """
    block = 2 * n_cells
    radix = math.isqrt(block) + 1
    offsets = {0, block - 1}
    for q in range(1, (block - 1) // radix + 1):
        offsets.update(radix * q + d for d in (-1, 0, 1))
    offsets.update(range(radix * ((block - 1) // radix), block))  # all of the last q
    return sorted(o for o in offsets if 0 <= o < block)


# (1, 1) and (3, 2) are the smallest blocks; 2n = 36 is a perfect square
# (R = 7, so the last q holds one offset); 200 x 200 is the benchmark's
# largest grid.
@pytest.mark.parametrize("width, height", [(1, 1), (3, 2), (6, 3), (200, 200)])
def test_jump_table_lookups_equal_numpy_draws(width, height):
    """Every lookup returns the exact float a full ``random(2n)`` block holds.

    Offsets hit both block ends and every seam of the table, forward, then
    backward, then repeated; step 1 looks nothing up, so step 2 must still
    start 2n draws after step 1's block.
    """
    cfg = LandscapeConfig(grid_width=width, grid_height=height)
    grid = Landscape(cfg, substream(21, 0), substream(21, 1))
    reference = substream(21, 1)
    n = grid.n_cells
    offsets = seam_offsets(n)
    for step in range(4):
        grid.begin_step()
        block = reference.random(2 * n)
        if step == 1:
            continue
        for k in offsets + offsets[::-1] + offsets[:5] * 2:
            assert grid._draw(k) == block[k], (step, k)
        # The public lookups read the same draws.
        for k in offsets:
            i = k % n
            x, y = i % width, i // width
            if k < n:
                assert grid.is_available(x, y) == (block[k] < cfg.availability_p)
            else:
                assert grid.direction_at(x, y) is (Direction.SELL if block[k] < cfg.direction_p else Direction.BUY)


def test_jump_table_stays_exact_over_a_long_run():
    # 1600 steps of a 3 x 2 grid: the whole-block jump is applied 1599 times.
    grid = Landscape(LandscapeConfig(grid_width=3, grid_height=2), substream(22, 0), substream(22, 1))
    reference = substream(22, 1)
    for step in range(1600):
        grid.begin_step()
        block = reference.random(12)
        if step % 7 == 3:
            continue
        for k in (step % 12, 11, 0, (5 * step) % 12):
            assert grid._draw(k) == block[k], (step, k)


def test_building_a_landscape_leaves_the_rolls_generator_alone_and_keeps_none():
    rolls = substream(23, 1)
    state = rolls.bit_generator.state
    grid = Landscape(LandscapeConfig(grid_width=4, grid_height=5), substream(23, 0), rolls)
    # The state is read, never written, and no generator is kept: after
    # set-up, nothing can draw from the step-rolls stream.
    assert rolls.bit_generator.state == state
    assert not [name for name, value in vars(grid).items() if isinstance(value, np.random.Generator)]
    reference = substream(23, 1)
    for _ in range(3):
        grid.begin_step()
        block = reference.random(40)
        assert [grid._draw(k) for k in (39, 0, 20)] == [block[39], block[0], block[20]]
    assert rolls.bit_generator.state == state


def test_step_lookups_need_a_pcg64_generator():
    mt19937 = np.random.Generator(np.random.MT19937(24))
    with pytest.raises(TypeError, match="PCG64"):
        Landscape(LandscapeConfig(grid_width=2, grid_height=2), substream(24, 0), mt19937)


def test_apply_trade_updates_and_guards():
    grid = Landscape(LandscapeConfig(), substream(13, 0), substream(13, 1))
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
    # The same for cash; a residue of exactly -1e-12 still floors to zero.
    with pytest.raises(AssertionError):
        grid.apply_trade(1, 2, 0.0, -(grid.cash[2, 1] + 1.0))
    grid.apply_trade(1, 2, 0.0, -grid.cash[2, 1])
    grid.apply_trade(1, 2, -1e-12, -1e-12)
    assert grid.bonds[2, 1] == 0.0 and grid.cash[2, 1] == 0.0


def test_totals_sum_everything():
    grid = Landscape(LandscapeConfig(grid_width=3, grid_height=2), substream(14, 0), substream(14, 1))
    tb, tc = grid.totals()
    assert tb == pytest.approx(float(grid.bonds.sum()))
    assert tc == pytest.approx(float(grid.cash.sum()))
