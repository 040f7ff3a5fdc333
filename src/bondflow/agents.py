"""Market-maker agents: resource metabolism, client bases, lifecycle.

A market maker holds two resource accumulations (bonds and cash), burns a
fixed amount of each per step as business cost, serves a square
neighborhood of clients around a random anchor, and ceases operations when
its resources run out. An agent is live while its ``ceased_at_step`` is
None; the cease rule sets it to the step the agent ceased at. The rule is
configurable:

- EITHER_EXHAUSTED: dead as soon as one resource hits zero.
- BOTH_EXHAUSTED (default): dead only when both are zero.

The default is BOTH_EXHAUSTED because a no-trading society of four default
agents then collapses on average in the mid-20s of steps, the regime the
default experiments are calibrated around; see the acceptance tests. The
stricter rule collapses societies roughly twice as fast and is kept as a
switch.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError, bounds_table, check_bounds


class CeaseRule(Enum):
    EITHER_EXHAUSTED = "either_exhausted"
    BOTH_EXHAUSTED = "both_exhausted"


_BOUNDS = bounds_table({
    "n_agents": "int [1, inf)",
    # ``rng.integers(breadth_min, breadth_max + 1)`` takes int64 ends.
    "breadth_min": f"int [1, {2**63 - 1}]", "breadth_max": f"int [1, {2**63 - 1}]",
    # Any finite cost is valid: one as large as 1e308 runs, its agent ceasing at once.
    "cost_min": "(0, inf)", "cost_max": "(0, inf)",
    # Endowments are not negative.
    "init_bonds_min": "[0, inf)", "init_bonds_max": "[0, inf)",
    "init_cash_min": "[0, inf)", "init_cash_max": "[0, inf)",
})


@dataclass(frozen=True)
class AgentConfig:
    n_agents: int = 4
    cost_min: float = 0.1
    cost_max: float = 0.5
    init_bonds_min: float = 1.0
    init_bonds_max: float = 5.0
    init_cash_min: float = 1.0
    init_cash_max: float = 5.0
    breadth_min: int = 1
    breadth_max: int = 50
    cease_rule: CeaseRule = CeaseRule.BOTH_EXHAUSTED

    def __post_init__(self) -> None:
        check_bounds(_BOUNDS, self)
        for name in ("cost", "init_bonds", "init_cash", "breadth"):
            lo, hi = getattr(self, f"{name}_min"), getattr(self, f"{name}_max")
            if not lo <= hi:
                raise ConfigError(f"{name} range must have min <= max, got [{lo}, {hi}]")


@dataclass
class MarketMakerState:
    id: int
    bonds_acc: float
    cash_acc: float
    bond_rate: float
    cash_rate: float
    breadth: int
    anchor: tuple[int, int]
    ceased_at_step: int | None = None  # None while the agent is live


def init_market_makers(
    cfg: AgentConfig, grid_dims: tuple[int, int], rng: np.random.Generator
) -> list[MarketMakerState]:
    """Draw n_agents fresh, live agents.

    Per-agent draw order is fixed (bonds, cash, bond rate, cash rate,
    breadth, anchor x, anchor y) so seeds reproduce exactly.
    """
    width, height = grid_dims
    agents: list[MarketMakerState] = []
    for i in range(cfg.n_agents):
        # A scalar uniform draw is a Python float; a scalar integers draw is a numpy int.
        bonds = rng.uniform(cfg.init_bonds_min, cfg.init_bonds_max)
        cash = rng.uniform(cfg.init_cash_min, cfg.init_cash_max)
        bond_rate = rng.uniform(cfg.cost_min, cfg.cost_max)
        cash_rate = rng.uniform(cfg.cost_min, cfg.cost_max)
        breadth = int(rng.integers(cfg.breadth_min, cfg.breadth_max + 1))
        anchor = (int(rng.integers(0, width)), int(rng.integers(0, height)))
        agents.append(
            MarketMakerState(
                id=i,
                bonds_acc=bonds,
                cash_acc=cash,
                bond_rate=bond_rate,
                cash_rate=cash_rate,
                breadth=breadth,
                anchor=anchor,
            )
        )
    return agents


@dataclass(frozen=True, slots=True)
class BaseRect:
    """An agent's client base: the grid cells from (x_lo, y_lo), width x height."""

    x_lo: int
    y_lo: int
    width: int
    height: int

    @property
    def size(self) -> int:
        return self.width * self.height

    def cell(self, k: int) -> tuple[int, int]:
        """The k-th cell of the base in row-major order, 0 <= k < size."""
        return self.x_lo + k % self.width, self.y_lo + k // self.width


def base_rect(mm: MarketMakerState, grid_dims: tuple[int, int]) -> BaseRect:
    """Cells within Chebyshev radius floor(breadth/2) of the anchor.

    Clipped to the grid, so a corner anchor serves a smaller base; never
    empty. Immutable over the agent's life - callers may cache it.
    """
    width, height = grid_dims
    radius = mm.breadth // 2
    ax, ay = mm.anchor
    x_lo, x_hi = max(0, ax - radius), min(width - 1, ax + radius)
    y_lo, y_hi = max(0, ay - radius), min(height - 1, ay + radius)
    return BaseRect(x_lo, y_lo, x_hi - x_lo + 1, y_hi - y_lo + 1)


def apply_costs(mm: MarketMakerState, step: int, rule: CeaseRule) -> tuple[float, float]:
    """Burn one step of business costs, then apply the cease rule.

    Returns (bonds consumed, cash consumed) - consumption is
    min(rate, accumulation), which the engine tallies so the closed-system
    law can be checked. An agent the rule kills gets ``ceased_at_step = step``.
    """
    consumed_b = min(mm.bond_rate, mm.bonds_acc)
    consumed_c = min(mm.cash_rate, mm.cash_acc)
    mm.bonds_acc = max(0.0, mm.bonds_acc - mm.bond_rate)
    mm.cash_acc = max(0.0, mm.cash_acc - mm.cash_rate)
    if rule is CeaseRule.EITHER_EXHAUSTED:
        dead = mm.bonds_acc <= 0.0 or mm.cash_acc <= 0.0
    else:
        dead = mm.bonds_acc <= 0.0 and mm.cash_acc <= 0.0
    if dead:
        mm.ceased_at_step = step
    return consumed_b, consumed_c
