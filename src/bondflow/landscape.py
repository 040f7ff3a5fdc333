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

import functools
import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError, bounds_table, check_bounds


class Direction(Enum):
    """Side a client would take if it traded this step."""

    BUY = "buy"
    SELL = "sell"


class LognormalParams(Enum):
    """How (mu, sigma) in the config are interpreted."""

    UNDERLYING = "underlying"  # parameters of the underlying normal
    ARITHMETIC = "arithmetic"  # arithmetic mean/std of the log-normal itself


# Under ``arithmetic`` the mu and sigma fields are a mean and a std, which
# ``arithmetic_to_underlying`` also requires to be > 0.
_BOUNDS = bounds_table({
    "grid_width": "int [1, inf)", "grid_height": "int [1, inf)",
    "bond_mu": "(-inf, inf)", "bond_sigma": "(0, inf)", "max_bonds": "(0, inf)",
    "cash_mu": "(-inf, inf)", "cash_sigma": "(0, inf)", "max_cash": "(0, inf)",
    "availability_p": "[0, 1]", "direction_p": "[0, 1]",
})
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


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
        check_bounds(_BOUNDS, self)
        check_truncation(*self.bond_normal_params(), self.max_bonds)
        check_truncation(*self.cash_normal_params(), self.max_cash)

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
    try:
        sigma_sq = math.log(1.0 + (std / mean) ** 2)
    except OverflowError:
        raise ConfigError(f"arithmetic log-normal std/mean {std / mean:g} overflows its variance") from None
    mu = math.log(mean) - sigma_sq / 2.0
    return mu, math.sqrt(sigma_sq)


def check_truncation(mu: float, sigma: float, cap: float) -> None:
    """Refuse an exp(Normal(mu, sigma^2)) truncated at ``cap`` that cannot be sampled.

    sigma and cap must be > 0, and the cap at least exp(mu - 6*sigma): below
    that, rejection sampling would practically never accept a draw. And
    exp(mu + 6*sigma) must be a float, or draws overflow. Tested in log
    space, so that no bound overflows; a NaN fails.
    """
    if not (sigma > 0 and cap > 0 and mu - 6.0 * sigma <= math.log(cap) and mu + 6.0 * sigma <= _LOG_FLOAT_MAX):
        raise ConfigError(
            f"log-normal mu {mu}, sigma {sigma} with truncation cap {cap} cannot be sampled: sigma and the cap "
            "must be > 0, the cap at least exp(mu - 6*sigma) and exp(mu + 6*sigma) a float"
        )


def sample_truncated_lognormal(
    mu: float,
    sigma: float,
    cap: float,
    rng: np.random.Generator,
    size: int,
) -> np.ndarray:
    """``size`` draws of exp(Normal(mu, sigma^2)) conditioned on being <= cap.

    Rejection re-draw, never clamping, so the density has no atom at the
    cap. Refuses configurations where acceptance is practically impossible
    (``check_truncation``).

    Draw order, which fixes every output byte: the first round draws one
    normal per cell, in cell order, straight into the output; each later
    round draws one normal per cell still above the cap, in ascending cell
    order, until none is left. ``tests/reference.py`` keeps the plain
    pending-index loop as the oracle for this order.
    """
    check_truncation(mu, sigma, cap)
    out = rng.normal(mu, sigma, size=size)
    np.exp(out, out=out)
    pending = np.flatnonzero(out > cap)
    while pending.size:
        draws = np.exp(rng.normal(mu, sigma, size=pending.size))
        ok = draws <= cap
        out[pending[ok]] = draws[ok]
        pending = pending[~ok]
    return out


# PCG64 (O'Neill, HMC-CS-2014-0905): a 128-bit LCG, state <- M*state + inc.
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
_MASK64 = (1 << 64) - 1


def _then(first: tuple[int, int], second: tuple[int, int]) -> tuple[int, int]:
    """The jump ``first`` followed by ``second``; a jump ``(a, c)`` maps state to ``a*state + c*inc``."""
    (a1, c1), (a2, c2) = first, second
    return a1 * a2 & _MASK128, (a2 * c1 + c2) & _MASK128


@functools.lru_cache(maxsize=32)
def _jump_table(block: int) -> tuple[int, list[tuple[int, int]], list[tuple[int, int]], tuple[int, int]]:
    """The seed-free jump table of a ``block``-draw step: ``(R, lo, hi, whole)``.

    A jump ``(a, c)`` of ``k`` PCG64 steps maps ``state`` to ``a*state +
    c*inc (mod 2**128)``, with ``a = M**k`` and ``c = M**(k-1) + ... + 1``.
    ``lo[r]`` jumps ``r + 1`` steps for ``r < R``, ``hi[q]`` jumps ``R*q``
    steps for ``R*q < block``, and ``whole`` jumps ``block`` steps.
    """
    radix = math.isqrt(block) + 1
    one = (_PCG64_MULTIPLIER, 1)
    lo = [one]
    while len(lo) < radix:
        lo.append(_then(lo[-1], one))
    hi = [(1, 0)]
    while radix * len(hi) < block:
        hi.append(_then(hi[-1], lo[-1]))
    # block = R*q + (r + 1) for the last q and some r < R.
    return radix, lo, hi, _then(hi[-1], lo[block - 1 - radix * (len(hi) - 1)])


class Landscape:
    """The client grid plus its per-step stochastic state.

    Holdings are array-backed (row-major, indexed [y, x]); single-writer per
    simulation.

    Step state lives on the step-rolls stream, whose layout is fixed: step
    ``s`` of an ``n``-cell grid owns the ``2n`` draws from ``2n*s``, cell
    ``i = y*W + x`` drawing availability at ``i`` and direction at ``n + i``
    of that block (one 64-bit output per ``float64``, C order). A step
    costs O(lookups), a repeat lookup of a cell within a step reads the
    same draw, and the bytes match a generator that drew both full grids
    every step.

    Lookups run PCG64 (M. O'Neill, "PCG", HMC-CS-2014-0905) in pure Python
    with the closed-form jump-ahead of F. Brown ("Random Number Generation
    with Arbitrary Strides", Trans. Am. Nucl. Soc. 1994): ``k`` steps take
    ``state`` to ``M**k*state + (M**(k-1) + ... + 1)*inc (mod 2**128)``.
    The draw at block offset ``k = R*q + r``, with ``R = isqrt(2n) + 1``,
    is the state ``hi[q](lo[r](base))``, where ``lo[r]`` jumps ``r + 1``
    steps and ``hi[q]`` jumps ``R*q``: about ``2*sqrt(2n)`` entries, whose
    multipliers and ``inc`` coefficients are cached per block size for the
    process; only the products with ``inc`` are formed per landscape. The
    output is XSL-RR of that state, and the uniform ``(u64 >> 11)*2**-53``,
    as numpy's ``random()``. Each ``begin_step`` moves ``base`` by one
    whole-block jump.

    The step-rolls generator, *rolls*, is the stream's one consumer (see
    ``seeding``): its ``(state, inc)`` is read once, here, and the landscape
    keeps no generator, so nothing can draw from the stream after set-up.
    """

    def __init__(self, cfg: LandscapeConfig, rng: np.random.Generator, rolls: np.random.Generator) -> None:
        bitgen = rolls.bit_generator
        if not isinstance(bitgen, np.random.PCG64):
            raise TypeError(f"step lookups need a PCG64 generator, not {type(bitgen).__name__}")
        self.cfg = cfg
        h, w = cfg.grid_height, cfg.grid_width
        n = h * w
        bmu, bsig = cfg.bond_normal_params()
        cmu, csig = cfg.cash_normal_params()
        # Fixed draw order: all bonds, then all cash.
        self.bonds = sample_truncated_lognormal(bmu, bsig, cfg.max_bonds, rng, size=n).reshape(h, w)
        self.cash = sample_truncated_lognormal(cmu, csig, cfg.max_cash, rng, size=n).reshape(h, w)
        # Jump table with its inc products for *rolls*; see the class docstring.
        pcg = bitgen.state["state"]
        inc = pcg["inc"]
        self._radix, lo, hi, (a, c) = _jump_table(2 * n)
        self._lo = [(a_, c_ * inc & _MASK128) for a_, c_ in lo]
        self._hi = [(a_, c_ * inc & _MASK128) for a_, c_ in hi]
        self._whole = (a, c * inc & _MASK128)
        # PCG64 states just before the current step's block and the next one's.
        self._base = self._next = pcg["state"]

    @property
    def shape(self) -> tuple[int, int]:
        """(width, height)."""
        return self.cfg.grid_width, self.cfg.grid_height

    @property
    def n_cells(self) -> int:
        return self.cfg.grid_width * self.cfg.grid_height

    def begin_step(self) -> None:
        """Open the next step's draw block: ``2n`` draws after the last, whichever cells were looked up."""
        a, c = self._whole
        self._base, self._next = self._next, (a * self._next + c) & _MASK128

    def _draw(self, offset: int) -> float:
        """The uniform at *offset* in the current step's draw block."""
        q, r = divmod(offset, self._radix)
        lo_a, lo_c = self._lo[r]
        hi_a, hi_c = self._hi[q]
        s = (hi_a * ((lo_a * self._base + lo_c) & _MASK128) + hi_c) & _MASK128
        # XSL-RR: the xor of the halves, rotated right by the top 6 bits.
        x = ((s >> 64) ^ s) & _MASK64
        rot = s >> 122
        return ((((x >> rot) | (x << (64 - rot))) & _MASK64) >> 11) * 2**-53

    def is_available(self, x: int, y: int) -> bool:
        """Whether the client at (x, y) answers the phone this step."""
        return self._draw(y * self.cfg.grid_width + x) < self.cfg.availability_p

    def direction_at(self, x: int, y: int) -> Direction:
        """The side the client at (x, y) would take if it traded this step."""
        i = y * self.cfg.grid_width + x
        return Direction.SELL if self._draw(self.n_cells + i) < self.cfg.direction_p else Direction.BUY

    def holdings(self, x: int, y: int) -> tuple[float, float]:
        """(bonds, cash) held by the client at (x, y)."""
        return float(self.bonds[y, x]), float(self.cash[y, x])

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

