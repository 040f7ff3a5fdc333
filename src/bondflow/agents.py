"""Market-maker agents: resource metabolism, client bases, lifecycle.

A market maker holds two resource accumulations (bonds and cash), burns a
fixed amount of each per step as business cost, serves a square
neighborhood of clients around a random anchor, and ceases operations when
its resources run out. The cease rule is configurable:

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

from .errors import ConfigError


class CeaseRule(Enum):
    EITHER_EXHAUSTED = "either_exhausted"
    BOTH_EXHAUSTED = "both_exhausted"


class AgentStatus(Enum):
    ACTIVE = "active"
    CEASED = "ceased"


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
        if self.n_agents < 1:
            raise ConfigError("n_agents must be >= 1")
        ranges = [
            ("cost", self.cost_min, self.cost_max),
            ("init_bonds", self.init_bonds_min, self.init_bonds_max),
            ("init_cash", self.init_cash_min, self.init_cash_max),
            ("breadth", self.breadth_min, self.breadth_max),
        ]
        for name, lo, hi in ranges:
            if lo > hi:
                raise ConfigError(f"{name} range has min > max")
        if self.cost_min <= 0:
            raise ConfigError("cost rates must be > 0")
        if self.breadth_min < 1:
            raise ConfigError("breadth must be >= 1")


@dataclass
class MarketMakerState:
    id: int
    bonds_acc: float
    cash_acc: float
    bond_rate: float
    cash_rate: float
    breadth: int
    anchor: tuple[int, int]
    status: AgentStatus = AgentStatus.ACTIVE
    ceased_at_step: int | None = None

    @property
    def active(self) -> bool:
        return self.status is AgentStatus.ACTIVE


def init_market_makers(
    cfg: AgentConfig, grid_dims: tuple[int, int], rng: np.random.Generator
) -> list[MarketMakerState]:
    """Draw n_agents fresh Active agents.

    Per-agent draw order is fixed (bonds, cash, bond rate, cash rate,
    breadth, anchor x, anchor y) so seeds reproduce exactly.
    """
    width, height = grid_dims
    agents: list[MarketMakerState] = []
    for i in range(cfg.n_agents):
        bonds = float(rng.uniform(cfg.init_bonds_min, cfg.init_bonds_max))
        cash = float(rng.uniform(cfg.init_cash_min, cfg.init_cash_max))
        bond_rate = float(rng.uniform(cfg.cost_min, cfg.cost_max))
        cash_rate = float(rng.uniform(cfg.cost_min, cfg.cost_max))
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


def client_base(mm: MarketMakerState, grid_dims: tuple[int, int]) -> list[tuple[int, int]]:
    """Every cell of the agent's base (``base_rect``), in row-major order."""
    r = base_rect(mm, grid_dims)
    return [
        (x, y) for y in range(r.y_lo, r.y_lo + r.height) for x in range(r.x_lo, r.x_lo + r.width)
    ]


def cease_check(mm: MarketMakerState, step: int, rule: CeaseRule) -> bool:
    """Apply the cease rule; on cease, stamp status and step. Returns whether ceased."""
    if rule is CeaseRule.EITHER_EXHAUSTED:
        dead = mm.bonds_acc <= 0.0 or mm.cash_acc <= 0.0
    else:
        dead = mm.bonds_acc <= 0.0 and mm.cash_acc <= 0.0
    if dead:
        mm.status = AgentStatus.CEASED
        mm.ceased_at_step = step
    return dead


def apply_costs(mm: MarketMakerState, step: int, rule: CeaseRule) -> tuple[float, float, bool]:
    """Burn one step of business costs, then run the cease check.

    Returns (bonds consumed, cash consumed, ceased) - consumption is
    min(rate, accumulation), which the engine tallies so the closed-system
    law can be checked.
    """
    consumed_b = min(mm.bond_rate, mm.bonds_acc)
    consumed_c = min(mm.cash_rate, mm.cash_acc)
    mm.bonds_acc = max(0.0, mm.bonds_acc - mm.bond_rate)
    mm.cash_acc = max(0.0, mm.cash_acc - mm.cash_rate)
    ceased = cease_check(mm, step, rule)
    return consumed_b, consumed_c, ceased
