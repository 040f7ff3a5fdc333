"""The simulation engine: one society, stepped to collapse or the cap.

Fixed per-step order, documented and load-bearing for replayability:

1. Open the step's block of the step-rolls stream (see ``Landscape``):
   every client's availability and direction for this step, drawn only
   for the clients that are phoned.
2. Each Active market maker, in id order, phones exactly one uniformly
   chosen client from its base. Unavailable client: contact ends, no
   decision. Available: one desire query to the provider, kept as one
   (query, outcome) record. Yes: the MM MUST trade (servicing
   obligation), sized by the client's direction. Nothing is encoded here:
   a journaled run encodes its journal from the records once, when the
   run ends.
3. Interbank rebalancing: cash-poor MMs sell bonds at par to the
   richest-cash peer, at most one trade per needy MM per step.
4. Business costs burn each Active MM's resources; the cease rule runs.
   This is the only phase that changes an MM's status, so the list of
   Active MMs taken when the step opens serves phases 2 to 4.
5. The step counter increments.

Trades never create or destroy value: the engine tracks exactly how much
each resource the cost metabolism consumed, so clients + MMs + consumed ==
initial totals holds at every step. The engine does not audit it while it
runs: the tests check ``conservation_errors()`` after every step, and the
benchmark checks each finished run's final totals.

Each random stream has one consumer. The contact stream is read ahead in
blocks and the built-in providers read theirs the same way, with every
draw equal to the scalar numpy call (see ``seeding``); the engine hands
the provider its own ``np.random.Generator`` and draws nothing else from
it.

A run is strictly single-threaded; batch parallelism lives in the harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

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
    journal_line,
)
from .errors import ProviderHardFailure
from .landscape import Direction, Landscape, LandscapeConfig, init_landscape
from .prompts import PromptTemplate
from .seeding import (
    STREAM_AGENT_INIT,
    STREAM_CONTACT_SELECTION,
    STREAM_LANDSCAPE_INIT,
    STREAM_PROVIDER,
    STREAM_STEP_ROLLS,
    BufferedIntegers,
    substream,
)

DEFAULT_MAX_STEPS = 1500
DEFAULT_INTERBANK_RUNWAY_STEPS = 3.0


class TerminalReason(Enum):
    ALL_CEASED = "all_ceased"
    STEP_LIMIT = "step_limit"


class CounterpartyKind(Enum):
    CLIENT = "client"
    MARKET_MAKER = "mm"


@dataclass(frozen=True)
class TradeRecord:
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
    terminal_step: int
    terminal_reason: TerminalReason | None
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
    journal: str | None = None  # JSONL encoding of ``decisions``, if journaled
    aborted: bool = False
    abort_reason: str | None = None


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
        journal_template: PromptTemplate | None = None,
    ) -> None:
        """``journal_template`` is the template whose prompts the journal hashes; None keeps none."""
        self.sim_id = sim_id
        self.seed = seed
        self.provider = provider
        self.max_steps = max_steps
        self.interbank_runway_steps = interbank_runway_steps
        self.cease_rule: CeaseRule = agent_cfg.cease_rule
        self.journal_template = journal_template

        # Named substreams: provider draws never perturb landscape draws.
        # The contact pick is the contact stream's one consumer, so it reads ahead.
        self._rng_rolls = substream(seed, STREAM_STEP_ROLLS)
        self._contact_draws = BufferedIntegers(substream(seed, STREAM_CONTACT_SELECTION))
        self._rng_provider = substream(seed, STREAM_PROVIDER)

        self.grid: Landscape = init_landscape(landscape_cfg, substream(seed, STREAM_LANDSCAPE_INIT))
        dims = self.grid.shape
        self.mms: list[MarketMakerState] = init_market_makers(
            agent_cfg, dims, substream(seed, STREAM_AGENT_INIT)
        )
        # Bases are immutable; compute once.
        self._bases = [base_rect(mm, dims) for mm in self.mms]

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
        return any(mm.active for mm in self.mms)

    def step(self) -> None:
        """Execute one full round; see the module docstring for the order."""
        active = [mm for mm in self.mms if mm.active]
        assert active, "step() on a fully ceased society"
        assert self.step_no < self.max_steps, "step() past max_steps"

        self.grid.begin_step(self._rng_rolls)

        for mm in active:
            self._contact_client(mm)
        self.contacts += len(active)

        self._interbank_rebalance(active)

        for mm in active:
            consumed_b, consumed_c, _ = apply_costs(mm, self.step_no, self.cease_rule)
            self.consumed_bonds += consumed_b
            self.consumed_cash += consumed_c

        self.step_no += 1

    def _contact_client(self, mm: MarketMakerState) -> None:
        """One call: pick a client, maybe ask, maybe trade."""
        base = self._bases[mm.id]
        x, y = base.cell(self._contact_draws.integers(base.size))
        if not self.grid.is_available(x, y):
            return
        query = DesireQuery(
            sim_id=self.sim_id,
            step=self.step_no,
            mm_id=mm.id,
            client_position=(x, y),
            client_bonds=float(self.grid.bonds[y, x]),
            client_cash=float(self.grid.cash[y, x]),
            sequence_no=len(self.decisions),
        )
        outcome = self.provider.decide(query, self._rng_provider)
        self.decisions.append((query, outcome))
        if outcome.state is not DecisionState.YES:
            return
        record = self._execute_client_trade(mm, x, y, self.grid.direction_at(x, y))
        if record is not None:
            self.trades.append(record)

    def _execute_client_trade(
        self, mm: MarketMakerState, x: int, y: int, direction: Direction
    ) -> TradeRecord | None:
        """Obligated trade with the client at (x, y); None if zero-quantity.

        Sell: the client unloads its FULL bond holding; the MM pays what
        cash it can, capped at par value. Buy: par swap capped by both the
        client's cash and the MM's bond inventory.
        """
        if direction is Direction.SELL:
            bond_qty = float(self.grid.bonds[y, x])
            cash_qty = min(mm.cash_acc, bond_qty)
            if bond_qty <= 0.0 and cash_qty <= 0.0:
                return None
            self.grid.apply_trade(x, y, -bond_qty, cash_qty)
            mm.bonds_acc += bond_qty
            mm.cash_acc -= cash_qty
        else:
            qty = min(float(self.grid.cash[y, x]), mm.bonds_acc)
            if qty <= 0.0:
                return None
            bond_qty = cash_qty = qty
            self.grid.apply_trade(x, y, qty, -qty)
            mm.bonds_acc -= qty
            mm.cash_acc += qty
        return TradeRecord(
            step=self.step_no,
            mm_id=mm.id,
            counterparty_kind=CounterpartyKind.CLIENT,
            counterparty=(x, y),
            client_direction=direction,
            bond_qty=bond_qty,
            cash_qty=cash_qty,
        )

    def _interbank_rebalance(self, active: list[MarketMakerState]) -> None:
        """Cash-poor MMs sell bonds at par to the richest-cash peer.

        Needy = cash runway (cash / cash rate) below the configured
        threshold. Processed in id order; the buyer is re-picked per needy
        MM (ties to the lowest id); at most one trade per needy MM per
        step; zero-quantity outcomes are skipped. ``active`` is the step's
        list of Active MMs, in id order. Trades are appended to ``trades``.
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
            record = TradeRecord(
                step=self.step_no,
                mm_id=mm.id,
                counterparty_kind=CounterpartyKind.MARKET_MAKER,
                counterparty=buyer.id,
                client_direction=None,
                bond_qty=qty,
                cash_qty=qty,
            )
            self.trades.append(record)

    # -- whole-run API -------------------------------------------------

    def run(self) -> SimulationResult:
        """Step until all MMs cease or the cap; hard failures flush partial logs."""
        aborted = False
        abort_reason: str | None = None
        try:
            while self.any_active() and self.step_no < self.max_steps:
                self.step()
        except ProviderHardFailure as exc:
            aborted = True
            abort_reason = str(exc)
        if aborted:
            reason = None
        elif not self.any_active():
            reason = TerminalReason.ALL_CEASED
        else:
            reason = TerminalReason.STEP_LIMIT
        template = self.journal_template
        journal = None
        if template is not None:
            journal = "".join([journal_line(q, o, template) for q, o in self.decisions])
        return SimulationResult(
            sim_id=self.sim_id,
            seed=self.seed,
            terminal_step=self.terminal_step,
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
            journal=journal,
            aborted=aborted,
            abort_reason=abort_reason,
        )

    @property
    def terminal_step(self) -> int:
        """Index of the last executed step (0 if none ran yet)."""
        return max(0, self.step_no - 1)

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
