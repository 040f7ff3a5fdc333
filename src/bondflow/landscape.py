"""Client landscape: a fixed grid of bond/cash holders.

Each grid cell is one client with immutable position, mutable bond and cash
holdings, and per-step stochastic state: whether the client answers the
phone this step (availability) and which side it would trade (direction).
Step state is drawn lazily, only for the cells a market maker phones, yet
exactly as if the whole grid were drawn every step (see ``Landscape``).
Whether the client actually wants to trade is resolved by the decision
layer, not here.

Holdings are initialized from truncated log-normal distributions using
rejection sampling, so there is no probability atom at the cap. The system
is closed: nothing here creates or destroys bonds or cash after
initialization; only trades (in the engine) move holdings around.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError


class Direction(Enum):
    """Side a client would take if it traded this step."""

    BUY = "buy"
    SELL = "sell"


class LognormalParams(Enum):
    """How (mu, sigma) in the config are interpreted."""

    UNDERLYING = "underlying"  # parameters of the underlying normal
    ARITHMETIC = "arithmetic"  # arithmetic mean/std of the log-normal itself


@dataclass(frozen=True)
class LandscapeConfig:
    grid_width: int = 50
    grid_height: int = 50
    bond_mu: float = 2.5
    bond_sigma: float = 1.0
    cash_mu: float = 1.0
    cash_sigma: float = 0.5
    max_bonds: float = 100.0
    max_cash: float = 5.0
    availability_p: float = 0.20
    direction_p: float = 0.5
    lognormal_params: LognormalParams = LognormalParams.UNDERLYING

    def __post_init__(self) -> None:
        if self.grid_width < 1 or self.grid_height < 1:
            raise ConfigError("grid dimensions must be positive integers")
        if self.bond_sigma <= 0 or self.cash_sigma <= 0:
            raise ConfigError("log-normal sigmas must be > 0")
        if self.max_bonds <= 0 or self.max_cash <= 0:
            raise ConfigError("truncation caps must be > 0")
        if not 0.0 <= self.availability_p <= 1.0:
            raise ConfigError("availability_p must lie in [0, 1]")
        if not 0.0 <= self.direction_p <= 1.0:
            raise ConfigError("direction_p must lie in [0, 1]")

    def bond_normal_params(self) -> tuple[float, float]:
        return self._resolve(self.bond_mu, self.bond_sigma)

    def cash_normal_params(self) -> tuple[float, float]:
        return self._resolve(self.cash_mu, self.cash_sigma)

    def _resolve(self, mu: float, sigma: float) -> tuple[float, float]:
        if self.lognormal_params is LognormalParams.UNDERLYING:
            return mu, sigma
        return arithmetic_to_underlying(mu, sigma)


def arithmetic_to_underlying(mean: float, std: float) -> tuple[float, float]:
    """Convert arithmetic mean/std of a log-normal to its normal (mu, sigma)."""
    if mean <= 0 or std <= 0:
        raise ConfigError("arithmetic log-normal moments must be > 0")
    sigma_sq = math.log(1.0 + (std / mean) ** 2)
    mu = math.log(mean) - sigma_sq / 2.0
    return mu, math.sqrt(sigma_sq)


def sample_truncated_lognormal(
    mu: float,
    sigma: float,
    cap: float,
    rng: np.random.Generator,
    size: int,
) -> np.ndarray:
    """``size`` draws of exp(Normal(mu, sigma^2)) conditioned on being <= cap.

    Rejection re-draw, never clamping, so the density has no atom at the
    cap. Refuses configurations where acceptance is practically impossible.
    """
    if sigma <= 0:
        raise ConfigError("sigma must be > 0")
    if cap <= 0:
        raise ConfigError("cap must be > 0")
    if cap < math.exp(mu - 6.0 * sigma):
        raise ConfigError(
            f"cap {cap} is below exp(mu - 6*sigma) = {math.exp(mu - 6.0 * sigma):.6g}; "
            "rejection sampling would practically never terminate"
        )
    out = np.empty(size, dtype=np.float64)
    pending = np.arange(size)
    while pending.size:
        draws = np.exp(rng.normal(mu, sigma, size=pending.size))
        ok = draws <= cap
        out[pending[ok]] = draws[ok]
        pending = pending[~ok]
    return out


class Landscape:
    """The client grid plus its per-step stochastic state.

    Holdings are array-backed (row-major, indexed [y, x]); single-writer per
    simulation.

    Step state lives on the step-rolls stream, whose layout is fixed: step
    ``s`` of an ``n``-cell grid owns the ``2n`` draws from ``2n*s``, cell
    ``i = y*W + x`` drawing availability at ``i`` and direction at ``n + i``
    of that block (one 64-bit output per ``float64``, C order). A lookup
    jumps straight to its draw with the PCG64 ``advance`` (relative, mod
    2**128, so backward too), so a step costs O(lookups), repeat lookups
    of a cell within a step read the same draw, and the bytes match a
    generator that drew both full grids every step.
    """

    def __init__(self, cfg: LandscapeConfig, rng: np.random.Generator) -> None:
        self.cfg = cfg
        h, w = cfg.grid_height, cfg.grid_width
        n = h * w
        bmu, bsig = cfg.bond_normal_params()
        cmu, csig = cfg.cash_normal_params()
        # Fixed draw order: all bonds, then all cash.
        self.bonds = sample_truncated_lognormal(bmu, bsig, cfg.max_bonds, rng, size=n).reshape(h, w)
        self.cash = sample_truncated_lognormal(cmu, csig, cfg.max_cash, rng, size=n).reshape(h, w)
        self._rng: np.random.Generator | None = None  # step-rolls stream, set by begin_step
        self._cursor = 0  # offset of the stream's next draw within the step's block

    @property
    def shape(self) -> tuple[int, int]:
        """(width, height)."""
        return self.cfg.grid_width, self.cfg.grid_height

    @property
    def n_cells(self) -> int:
        return self.cfg.grid_width * self.cfg.grid_height

    def begin_step(self, rng: np.random.Generator) -> None:
        """Open the next step's draw block on *rng*.

        Skips whatever the previous step left unread, so each step starts
        ``2n`` draws after the one before, whichever cells were looked up.
        """
        if self._rng is not None:
            self._rng.bit_generator.advance(2 * self.n_cells - self._cursor)
        self._rng = rng
        self._cursor = 0

    def _draw(self, offset: int) -> float:
        """The uniform at *offset* in the current step's draw block."""
        if offset != self._cursor:
            self._rng.bit_generator.advance(offset - self._cursor)
        self._cursor = offset + 1
        return self._rng.random()

    def is_available(self, x: int, y: int) -> bool:
        """Whether the client at (x, y) answers the phone this step."""
        return self._draw(y * self.cfg.grid_width + x) < self.cfg.availability_p

    def direction_at(self, x: int, y: int) -> Direction:
        """The side the client at (x, y) would take if it traded this step."""
        i = y * self.cfg.grid_width + x
        return Direction.SELL if self._draw(self.n_cells + i) < self.cfg.direction_p else Direction.BUY

    def apply_trade(self, x: int, y: int, bond_delta: float, cash_delta: float) -> None:
        """Apply a settled trade's deltas to a client; holdings stay >= 0."""
        nb = self.bonds[y, x] + bond_delta
        nc = self.cash[y, x] + cash_delta
        if nb < -1e-12 or nc < -1e-12:
            raise AssertionError(f"client holdings driven negative at ({x}, {y})")
        self.bonds[y, x] = max(nb, 0.0)
        self.cash[y, x] = max(nc, 0.0)

    def totals(self) -> tuple[float, float]:
        """(total bonds, total cash), summed in a fixed order."""
        return float(self.bonds.sum()), float(self.cash.sum())


def init_landscape(cfg: LandscapeConfig, rng: np.random.Generator) -> Landscape:
    """Build a fresh landscape; step state is drawn once a step begins."""
    return Landscape(cfg, rng)
