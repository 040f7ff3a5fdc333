"""The simulation engine: one society, stepped to collapse or the cap.

Fixed per-step order, documented and load-bearing for replayability:

1. Open the step's block of the step-rolls stream (see ``Landscape``):
   every client's availability and direction for this step, drawn only
   for the clients that are phoned.
2. Each live market maker (``ceased_at_step`` None), in id order, phones
   exactly one uniformly chosen client from its base. Unavailable client:
   contact ends, no decision. Available: one desire query to the
   provider, kept as one (query, outcome) record. Yes: the MM MUST trade
   (servicing obligation), sized by the client's direction. The engine
   encodes nothing: the records are the run's output, and any journal
   is encoded from them after the run (``decision.journal_line``).
3. Interbank rebalancing: cash-poor MMs sell bonds at par to the
   richest-cash peer, at most one trade per needy MM per step.
4. Business costs burn each live MM's resources; the cease rule runs.
   This is the only phase that ceases an MM, so the list of live MMs
   taken when the step opens serves phases 2 to 4.
5. The step counter increments.

Trades never create or destroy value: the engine tracks exactly how much
each resource the cost metabolism consumed, so clients + MMs + consumed ==
initial totals holds at every step. The engine audits it once, when a run
ends: a relative drift above ``CONSERVATION_TOLERANCE`` aborts the run. The
tests also check ``conservation_errors()`` after every step.

Each random stream has one consumer, which takes its generator when it is
built. The contact stream is read ahead in blocks, and the coin-flip and
bursty providers read the provider stream the same way, with every draw
equal to the scalar numpy call (see ``seeding``); ``build_provider`` gives
them that stream, so the engine never holds it. The step-rolls generator
goes to the landscape; it reads the generator's ``(state, inc)`` there and
computes each looked-up draw from them (see ``Landscape``).

A run is strictly single-threaded; batch parallelism lives in the harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from typing import NamedTuple

from .agents import (
    AgentConfig,
    CeaseRule,
    MarketMakerState,
    apply_costs,
    base_rect,
    init_market_makers,
)
from .decision import (
    DecisionOutcome,
    DecisionProvider,
    DecisionState,
    DesireQuery,
)
from .errors import ProviderHardFailure
from .landscape import Direction, Landscape, LandscapeConfig
from .seeding import (
    STREAM_AGENT_INIT,
    STREAM_CONTACT_SELECTION,
    STREAM_LANDSCAPE_INIT,
    STREAM_STEP_ROLLS,
    BufferedIntegers,
    substream,
)

DEFAULT_MAX_STEPS = 1500
DEFAULT_INTERBANK_RUNWAY_STEPS = 3.0
# Largest relative drift of either resource that a finished run may show.
CONSERVATION_TOLERANCE = 1e-9


class TerminalReason(Enum):
    ALL_CEASED = "all_ceased"
    STEP_LIMIT = "step_limit"


class CounterpartyKind(Enum):
    CLIENT = "client"
    MARKET_MAKER = "mm"


class TradeRecord(NamedTuple):
    """One settled trade leg: a client trade or an interbank sale."""

    step: int
    mm_id: int
    counterparty_kind: CounterpartyKind
    counterparty: tuple[int, int] | int  # client position or partner mm_id
    client_direction: Direction | None  # None for interbank legs
    bond_qty: float
    cash_qty: float


@dataclass
class SimulationResult:
    """Final state bundle of one run - everything metrics needs."""

    sim_id: int
    seed: int
    terminal_reason: TerminalReason | None  # None if aborted
    steps_executed: int
    contacts: int
    mms: list[MarketMakerState]
    trades: list[TradeRecord]
    decisions: list[tuple[DesireQuery, DecisionOutcome]]
    initial_client_bonds: float
    initial_client_cash: float
    initial_mm_bonds: float
    initial_mm_cash: float
    consumed_bonds: float
    consumed_cash: float
    abort_reason: str | None = None  # None unless the run aborted

    @property
    def terminal_step(self) -> int:
        """Index of the last executed step (0 if none ran)."""
        return max(0, self.steps_executed - 1)

    @property
    def aborted(self) -> bool:
        return self.abort_reason is not None

    def __reduce__(self) -> tuple:
        """Pickle the trades and the queries as columns, not one record at a time.

        A record pickled alone costs a Python-level ``__getnewargs__`` call
        to dump and a ``__new__`` call to load; columns of plain values pickle
        in C. The outcomes go as a list, so the shared outcome objects of the
        scripted providers are memoized. Every batch, serial or pooled, pickles
        each result; it keeps the bytes and decodes them on first read of ``results``.
        """
        state = dict(vars(self))
        trades = state.pop("trades")
        decisions = state.pop("decisions")
        queries = tuple(zip(*(q for q, _ in decisions)))
        return _unpickle_result, (tuple(zip(*trades)), queries, [o for _, o in decisions], state)


def _unpickle_result(
    trade_columns: tuple[tuple, ...],
    query_columns: tuple[tuple, ...],
    outcomes: list[DecisionOutcome],
    state: dict,
) -> SimulationResult:
    """The ``SimulationResult`` that ``SimulationResult.__reduce__`` took apart."""
    new = tuple.__new__
    trades = list(map(new, repeat(TradeRecord), zip(*trade_columns)))
    queries = map(new, repeat(DesireQuery), zip(*query_columns))
    return SimulationResult(trades=trades, decisions=list(zip(queries, outcomes)), **state)


class Simulation:
    def __init__(
        self,
        sim_id: int,
        seed: int,
        landscape_cfg: LandscapeConfig,
        agent_cfg: AgentConfig,
        provider: DecisionProvider,
        *,
        max_steps: int = DEFAULT_MAX_STEPS,
        interbank_runway_steps: float = DEFAULT_INTERBANK_RUNWAY_STEPS,
    ) -> None:
        self.sim_id = sim_id
        self.seed = seed
        self.provider = provider
        self.max_steps = max_steps
        self.interbank_runway_steps = interbank_runway_steps
        self.cease_rule: CeaseRule = agent_cfg.cease_rule

        # Named substreams: provider draws never perturb landscape draws.
        # The contact pick is the contact stream's one consumer, so it reads ahead.
        self._contact_draws = BufferedIntegers(substream(seed, STREAM_CONTACT_SELECTION))

        self.grid = Landscape(
            landscape_cfg, substream(seed, STREAM_LANDSCAPE_INIT), substream(seed, STREAM_STEP_ROLLS)
        )
        dims = self.grid.shape
        self.mms: list[MarketMakerState] = init_market_makers(
            agent_cfg, dims, substream(seed, STREAM_AGENT_INIT)
        )
        # Bases are immutable: each MM's (size, row-major cell decoder), computed once.
        self._bases = [(b.size, b.cell) for b in (base_rect(mm, dims) for mm in self.mms)]

        self.step_no = 0
        self.contacts = 0
        self.trades: list[TradeRecord] = []
        self.decisions: list[tuple[DesireQuery, DecisionOutcome]] = []

        self.initial_client_bonds, self.initial_client_cash = self.grid.totals()
        self.initial_mm_bonds = sum(mm.bonds_acc for mm in self.mms)
        self.initial_mm_cash = sum(mm.cash_acc for mm in self.mms)
        self.consumed_bonds = 0.0
        self.consumed_cash = 0.0

    # -- step phases --------------------------------------------------

    def any_active(self) -> bool:
        return any(mm.ceased_at_step is None for mm in self.mms)

    def step(self) -> None:
        """Execute one full round; see the module docstring for the order."""
        active = [mm for mm in self.mms if mm.ceased_at_step is None]
        assert active, "step() on a fully ceased society"
        assert self.step_no < self.max_steps, "step() past max_steps"

        self.grid.begin_step()

        for mm in active:
            self._contact_client(mm)
        self.contacts += len(active)

        self._interbank_rebalance(active)

        for mm in active:
            consumed_b, consumed_c = apply_costs(mm, self.step_no, self.cease_rule)
            self.consumed_bonds += consumed_b
            self.consumed_cash += consumed_c

        self.step_no += 1

    def _contact_client(self, mm: MarketMakerState) -> None:
        """One call: pick a client, maybe ask, maybe trade."""
        size, cell = self._bases[mm.id]
        x, y = cell(self._contact_draws.integers(size))
        if not self.grid.is_available(x, y):
            return
        bonds, cash = self.grid.holdings(x, y)
        # Records are built by position on the hot path: half the cost of keywords.
        query = DesireQuery(self.sim_id, self.step_no, mm.id, (x, y), bonds, cash, len(self.decisions))
        outcome = self.provider.decide(query)
        self.decisions.append((query, outcome))
        if outcome.state is not DecisionState.YES:
            return
        record = self._execute_client_trade(mm, query, self.grid.direction_at(x, y))
        if record is not None:
            self.trades.append(record)

    def _execute_client_trade(
        self, mm: MarketMakerState, query: DesireQuery, direction: Direction
    ) -> TradeRecord | None:
        """Obligated trade with the queried client, sized from its query; None if zero-quantity.

        Sell: the client unloads its FULL bond holding; the MM pays what
        cash it can, capped at par value. Buy: par swap capped by both the
        client's cash and the MM's bond inventory.
        """
        x, y = query.client_position
        if direction is Direction.SELL:
            bond_qty = query.client_bonds
            cash_qty = min(mm.cash_acc, bond_qty)
            if bond_qty <= 0.0:
                return None
            self.grid.apply_trade(x, y, -bond_qty, cash_qty)
            mm.bonds_acc += bond_qty
            mm.cash_acc -= cash_qty
        else:
            qty = min(query.client_cash, mm.bonds_acc)
            if qty <= 0.0:
                return None
            bond_qty = cash_qty = qty
            self.grid.apply_trade(x, y, qty, -qty)
            mm.bonds_acc -= qty
            mm.cash_acc += qty
        return TradeRecord(self.step_no, mm.id, CounterpartyKind.CLIENT, (x, y), direction, bond_qty, cash_qty)

    def _interbank_rebalance(self, active: list[MarketMakerState]) -> None:
        """Cash-poor MMs sell bonds at par to the richest-cash peer.

        Needy = cash runway (cash / cash rate) below the configured
        threshold. Processed in id order; the buyer is re-picked per needy
        MM (ties to the lowest id); at most one trade per needy MM per
        step; zero-quantity outcomes are skipped. ``active`` is the step's
        list of live MMs, in id order. Trades are appended to ``trades``.
        """
        if len(active) < 2:
            return
        for mm in active:
            runway = mm.cash_acc / mm.cash_rate
            if runway >= self.interbank_runway_steps:
                continue
            # Richest peer; ``active`` is in id order, so ties go to the lowest id.
            buyer = None
            for p in active:
                if p is not mm and (buyer is None or p.cash_acc > buyer.cash_acc):
                    buyer = p
            need = self.interbank_runway_steps * mm.cash_rate - mm.cash_acc
            qty = min(mm.bonds_acc, buyer.cash_acc, need)
            if qty <= 0.0:
                continue
            mm.bonds_acc -= qty
            mm.cash_acc += qty
            buyer.bonds_acc += qty
            buyer.cash_acc -= qty
            self.trades.append(
                TradeRecord(self.step_no, mm.id, CounterpartyKind.MARKET_MAKER, buyer.id, None, qty, qty)
            )

    # -- whole-run API -------------------------------------------------

    def run(self) -> SimulationResult:
        """Step until all MMs cease or the cap; a hard failure or a conservation drift aborts."""
        abort_reason: str | None = None
        try:
            while self.any_active() and self.step_no < self.max_steps:
                self.step()
        except ProviderHardFailure as exc:
            abort_reason = str(exc)
        else:
            err_b, err_c = self.conservation_errors()
            # Written so that a NaN drift fails it too.
            if not (err_b <= CONSERVATION_TOLERANCE and err_c <= CONSERVATION_TOLERANCE):
                abort_reason = (
                    f"conservation drift bonds {err_b:.3e} cash {err_c:.3e} exceeds {CONSERVATION_TOLERANCE:g}"
                )
        reason = None
        if abort_reason is None:
            reason = TerminalReason.STEP_LIMIT if self.any_active() else TerminalReason.ALL_CEASED
        return SimulationResult(
            sim_id=self.sim_id,
            seed=self.seed,
            terminal_reason=reason,
            steps_executed=self.step_no,
            contacts=self.contacts,
            mms=self.mms,
            trades=self.trades,
            decisions=self.decisions,
            initial_client_bonds=self.initial_client_bonds,
            initial_client_cash=self.initial_client_cash,
            initial_mm_bonds=self.initial_mm_bonds,
            initial_mm_cash=self.initial_mm_cash,
            consumed_bonds=self.consumed_bonds,
            consumed_cash=self.consumed_cash,
            abort_reason=abort_reason,
        )

    def conservation_errors(self) -> tuple[float, float]:
        """Relative drift of (bonds, cash) vs the closed-system law."""
        grid_b, grid_c = self.grid.totals()
        mm_b = sum(mm.bonds_acc for mm in self.mms)
        mm_c = sum(mm.cash_acc for mm in self.mms)
        init_b = self.initial_client_bonds + self.initial_mm_bonds
        init_c = self.initial_client_cash + self.initial_mm_cash
        err_b = abs(grid_b + mm_b + self.consumed_bonds - init_b) / max(init_b, 1e-12)
        err_c = abs(grid_c + mm_c + self.consumed_cash - init_c) / max(init_c, 1e-12)
        return err_b, err_c
