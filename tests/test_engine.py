"""Engine: trade mechanics, step ordering effects, conservation, determinism."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from bondflow import (
    DecisionProvider, DecisionState, DesireQuery, PromptTemplate, ProviderHardFailure, Simulation, simulation_seed,
)
from bondflow.agents import AgentConfig, CeaseRule
from bondflow.decision import (
    BernoulliProvider, LiveLLMProvider, ProviderConfig, ProviderKind, ReplayProvider, journal_line, parse_journal_line,
)
from bondflow.engine import CounterpartyKind, TerminalReason, TradeRecord
from bondflow.landscape import Direction, LandscapeConfig
from bondflow.seeding import STREAM_PROVIDER, substream
from gateway import GatewayStub

SMALL_LANDSCAPE = LandscapeConfig(grid_width=6, grid_height=6)


def coin(p, seed):
    """The coin flip a batch builds for the sim with this seed."""
    return BernoulliProvider(p, substream(seed, STREAM_PROVIDER))


def make_sim(
    provider=None,
    *,
    p=1.0,
    seed=11,
    landscape=SMALL_LANDSCAPE,
    agents=None,
    max_steps=50,
    runway=3.0,
):
    return Simulation(
        0,
        simulation_seed(seed, 0),
        landscape,
        agents or AgentConfig(),
        provider or coin(p, simulation_seed(seed, 0)),
        max_steps=max_steps,
        interbank_runway_steps=runway,
    )


class ExplodingProvider(DecisionProvider):
    """Fails the test if the engine consults it."""

    def decide(self, q):
        raise AssertionError("provider consulted when no client was available")


def set_client(sim, x, y, bonds, cash):
    sim.grid.bonds[y, x] = bonds
    sim.grid.cash[y, x] = cash


def client_trade(sim, mm, x, y, direction):
    """The obligated trade after a yes from the client at (x, y)."""
    bonds, cash = sim.grid.holdings(x, y)
    query = DesireQuery(
        step=sim.step_no, mm_id=mm.id, client_position=(x, y),
        client_bonds=bonds, client_cash=cash, sequence_no=len(sim.decisions),
    )
    return sim._execute_client_trade(mm, query, direction)


# -- the documented trade examples, executed exactly --------------------


def test_sell_full_unload_with_capped_cash_leg():
    sim = make_sim()
    mm = sim.mms[0]
    mm.bonds_acc, mm.cash_acc = 3.0, 4.0
    set_client(sim, 2, 2, bonds=10.0, cash=2.0)

    record = client_trade(sim, mm, 2, 2, Direction.SELL)

    assert record is not None
    assert record.bond_qty == pytest.approx(10.0)
    assert record.cash_qty == pytest.approx(4.0)  # all the cash the MM had
    assert sim.grid.bonds[2, 2] == pytest.approx(0.0)
    assert sim.grid.cash[2, 2] == pytest.approx(6.0)
    assert mm.bonds_acc == pytest.approx(13.0)
    assert mm.cash_acc == pytest.approx(0.0)
    assert record.counterparty_kind is CounterpartyKind.CLIENT
    assert record.counterparty == (2, 2)
    assert record.client_direction is Direction.SELL


def test_buy_par_swap_capped_by_inventory():
    sim = make_sim()
    mm = sim.mms[0]
    mm.bonds_acc, mm.cash_acc = 2.0, 1.0
    set_client(sim, 1, 3, bonds=0.0, cash=3.0)

    record = client_trade(sim, mm, 1, 3, Direction.BUY)

    assert record is not None
    assert record.bond_qty == pytest.approx(2.0)
    assert record.cash_qty == pytest.approx(2.0)
    assert sim.grid.bonds[3, 1] == pytest.approx(2.0)
    assert sim.grid.cash[3, 1] == pytest.approx(1.0)
    assert mm.bonds_acc == pytest.approx(0.0)
    assert mm.cash_acc == pytest.approx(3.0)


def test_zero_quantity_trades_record_nothing():
    sim = make_sim()
    mm = sim.mms[0]

    # Buy with a cashless client: nothing moves, nothing recorded.
    mm.bonds_acc, mm.cash_acc = 5.0, 5.0
    set_client(sim, 0, 0, bonds=4.0, cash=0.0)
    assert client_trade(sim, mm, 0, 0, Direction.BUY) is None

    # Sell with a bondless client and a cashless MM: nothing to record.
    mm.cash_acc = 0.0
    set_client(sim, 0, 1, bonds=0.0, cash=2.0)
    assert client_trade(sim, mm, 0, 1, Direction.SELL) is None


def test_sell_records_even_when_mm_cannot_pay():
    # The bond leg still moves: obligation first, payment best-effort.
    sim = make_sim()
    mm = sim.mms[0]
    mm.bonds_acc, mm.cash_acc = 1.0, 0.0
    set_client(sim, 4, 4, bonds=2.5, cash=1.0)
    record = client_trade(sim, mm, 4, 4, Direction.SELL)
    assert record is not None
    assert record.bond_qty == pytest.approx(2.5)
    assert record.cash_qty == 0.0
    assert sim.grid.cash[4, 4] == pytest.approx(1.0)


# -- interbank rebalancing ----------------------------------------------


def arm_mms(sim, rows):
    """rows: (bonds, cash, cash_rate) per MM, in id order."""
    for mm, (bonds, cash, cash_rate) in zip(sim.mms, rows):
        mm.bonds_acc, mm.cash_acc, mm.cash_rate = bonds, cash, cash_rate


def rebalance(sim):
    """One interbank phase over the Active MMs; returns the trades it made."""
    before = len(sim.trades)
    sim._interbank_rebalance([mm for mm in sim.mms if mm.ceased_at_step is None])
    return sim.trades[before:]


def test_interbank_tops_up_to_runway():
    sim = make_sim(agents=AgentConfig(n_agents=2))
    arm_mms(sim, [(10.0, 0.1, 0.3), (1.0, 8.0, 0.2)])

    records = rebalance(sim)

    assert len(records) == 1
    rec = records[0]
    # Needs 3 * 0.3 - 0.1 = 0.8 cash; sells 0.8 bonds at par.
    assert rec.bond_qty == pytest.approx(0.8)
    assert rec.cash_qty == pytest.approx(0.8)
    assert rec.mm_id == 0 and rec.counterparty == 1
    assert rec.counterparty_kind is CounterpartyKind.MARKET_MAKER
    assert rec.client_direction is None
    seller, buyer = sim.mms
    assert seller.bonds_acc == pytest.approx(9.2)
    assert seller.cash_acc == pytest.approx(0.9)
    assert buyer.bonds_acc == pytest.approx(1.8)
    assert buyer.cash_acc == pytest.approx(7.2)


def test_interbank_picks_richest_buyer_lowest_id_tie():
    sim = make_sim(agents=AgentConfig(n_agents=4))
    arm_mms(sim, [(5.0, 0.0, 0.3), (0.0, 4.0, 0.3), (0.0, 6.0, 0.3), (0.0, 6.0, 0.3)])
    records = rebalance(sim)
    assert len(records) == 1
    assert records[0].counterparty == 2  # richest; tie broken to the lower id


def test_interbank_needy_richest_sells_to_next_richest():
    # MM 2 holds the most cash but burns it fastest (runway 9 / 4 < 3), so it
    # sells to the richest of the others; MMs 1 and 3 tie, and 1 wins.
    sim = make_sim(agents=AgentConfig(n_agents=4))
    arm_mms(sim, [(0.0, 2.0, 0.3), (0.0, 6.0, 0.3), (5.0, 9.0, 4.0), (0.0, 6.0, 0.3)])
    records = rebalance(sim)
    assert len(records) == 1
    rec = records[0]
    assert (rec.mm_id, rec.counterparty) == (2, 1)
    assert rec.bond_qty == pytest.approx(3.0)  # need 3 * 4 - 9
    assert sim.mms[1].cash_acc == pytest.approx(3.0)
    assert sim.mms[3].cash_acc == 6.0


def test_interbank_caps_at_buyer_cash_and_seller_bonds():
    sim = make_sim(agents=AgentConfig(n_agents=2))
    arm_mms(sim, [(10.0, 0.0, 1.0), (0.0, 1.2, 0.2)])  # need 3.0, buyer holds 1.2
    records = rebalance(sim)
    assert records[0].cash_qty == pytest.approx(1.2)

    sim = make_sim(agents=AgentConfig(n_agents=2))
    arm_mms(sim, [(0.4, 0.0, 1.0), (0.0, 9.0, 0.2)])  # need 3.0, seller holds 0.4 bonds
    records = rebalance(sim)
    assert records[0].bond_qty == pytest.approx(0.4)


def test_interbank_skips_untriggered_and_bondless():
    sim = make_sim(agents=AgentConfig(n_agents=2))
    arm_mms(sim, [(10.0, 5.0, 0.3), (10.0, 5.0, 0.3)])  # runways comfortably above 3
    assert rebalance(sim) == []

    sim = make_sim(agents=AgentConfig(n_agents=2))
    arm_mms(sim, [(0.0, 0.1, 0.3), (1.0, 8.0, 0.2)])  # needy but nothing to sell
    assert rebalance(sim) == []


def test_interbank_needs_two_active_mms():
    sim = make_sim(agents=AgentConfig(n_agents=2))
    arm_mms(sim, [(10.0, 0.0, 0.3), (1.0, 8.0, 0.2)])
    sim.mms[1].ceased_at_step = 0
    assert rebalance(sim) == []


# -- step-level behavior ------------------------------------------------


def test_unavailable_clients_are_never_asked():
    landscape = LandscapeConfig(grid_width=6, grid_height=6, availability_p=0.0)
    sim = make_sim(ExplodingProvider(), landscape=landscape, max_steps=10)
    for _ in range(10):
        sim.step()
    assert sim.decisions == []
    # Attempts are still counted: one per active MM per step, where an MM
    # ceasing at step s was still active for steps 0..s inclusive.
    expected = sum(
        10 if mm.ceased_at_step is None else min(10, mm.ceased_at_step + 1)
        for mm in sim.mms
    )
    assert sim.contacts == expected
    assert sim.contacts > 0


def test_every_decision_comes_from_an_available_active_slot():
    landscape = LandscapeConfig(grid_width=6, grid_height=6, availability_p=0.5)
    result = Simulation(
        0, simulation_seed(21, 0), landscape, AgentConfig(), coin(0.5, simulation_seed(21, 0)),
        max_steps=60,
    ).run()
    ceased_at = {mm.id: mm.ceased_at_step for mm in result.mms}
    for q, outcome in result.decisions:
        stamp = ceased_at[q.mm_id]
        assert stamp is None or q.step <= stamp  # no posthumous contacts
    # Sequence numbers are a gapless 0..n-1 run in decision order.
    assert [q.sequence_no for q, _ in result.decisions] == list(
        range(len(result.decisions))
    )


def test_yes_obligates_a_trade_attempt():
    # Every client-leg trade pairs with a YES decision for the same
    # (mm, step, cell); every YES without a trade had nothing to move.
    result = Simulation(
        0, simulation_seed(22, 0), SMALL_LANDSCAPE, AgentConfig(), coin(1.0, simulation_seed(22, 0)),
        max_steps=40,
    ).run()
    yes_keys = {
        (q.mm_id, q.step, q.client_position)
        for q, o in result.decisions
        if o.state is DecisionState.YES
    }
    client_trades = [
        t for t in result.trades if t.counterparty_kind is CounterpartyKind.CLIENT
    ]
    assert client_trades, "expected at least one client trade in this setup"
    for t in client_trades:
        assert (t.mm_id, t.step, t.counterparty) in yes_keys
        assert t.bond_qty > 0.0 or t.cash_qty > 0.0


def test_conservation_holds_after_every_step():
    for seed in (31, 32):
        sim = make_sim(
            p=0.7,
            seed=seed,
            landscape=LandscapeConfig(grid_width=10, grid_height=10, availability_p=0.6),
            max_steps=100,
        )
        while sim.any_active() and sim.step_no < sim.max_steps:
            sim.step()
            bond_err, cash_err = sim.conservation_errors()
            assert bond_err <= 1e-9
            assert cash_err <= 1e-9


def test_a_nan_holding_fails_the_conservation_audit():
    # `nan > tolerance` is False, and max((0.0, nan)) is 0.0: each drift is
    # checked on its own with `<=`, which a NaN fails. Each case leaves the
    # other resource as it was, so only one of them drifts.
    idle = LandscapeConfig(grid_width=6, grid_height=6, availability_p=0.0)
    for x, y, resource in [(0, 0, 0), (2, 3, 1)]:
        sim = make_sim(landscape=idle)
        holdings = list(sim.grid.holdings(x, y))
        holdings[resource] = float("nan")
        set_client(sim, x, y, *holdings)
        result = sim.run()
        assert result.aborted and result.terminal_reason is None
        assert result.abort_reason.startswith("conservation drift "), result.abort_reason
        assert "nan" in result.abort_reason


@pytest.mark.parametrize(
    "landscape, agents",
    [
        ({"bond_mu": -1000.0}, {"init_bonds_min": 0.0, "init_bonds_max": 0.0}),
        ({"cash_mu": -1000.0}, {"init_cash_min": 0.0, "init_cash_max": 0.0}),
    ],
    ids=["no-bonds", "no-cash"],
)
def test_a_society_holding_none_of_a_resource_passes_the_conservation_audit(landscape, agents):
    # Every client's holding underflows to 0.0 and no agent holds any: the
    # audit's relative drift must not divide by a zero total.
    sim = make_sim(
        landscape=LandscapeConfig(grid_width=6, grid_height=6, **landscape), agents=AgentConfig(**agents)
    )
    assert 0.0 in sim.grid.totals()
    result = sim.run()
    assert not result.aborted and result.terminal_reason is not None


def test_run_is_deterministic():
    def once():
        return Simulation(
            3, simulation_seed(33, 3), SMALL_LANDSCAPE, AgentConfig(),
            coin(0.5, simulation_seed(33, 3)), max_steps=80,
        ).run()

    a, b = once(), once()
    assert a.terminal_step == b.terminal_step
    assert a.trades == b.trades
    assert [o.state for _, o in a.decisions] == [o.state for _, o in b.decisions]
    assert a.consumed_bonds == b.consumed_bonds
    assert a.consumed_cash == b.consumed_cash


def test_all_refusals_collapse_in_metabolic_time():
    # With every request refused there is no client flow; society lifetime
    # is set by metabolism alone (plus interbank shuffling).
    terminals = []
    for i in range(20):
        result = Simulation(
            i, simulation_seed(44, i), LandscapeConfig(), AgentConfig(),
            coin(0.0, simulation_seed(44, i)), max_steps=200,
        ).run()
        assert result.terminal_reason is TerminalReason.ALL_CEASED
        assert all(
            t.counterparty_kind is CounterpartyKind.MARKET_MAKER for t in result.trades
        )
        terminals.append(result.terminal_step)
    mean = sum(terminals) / len(terminals)
    assert 15.0 <= mean <= 40.0


def test_max_steps_zero_and_step_limit_reason():
    result = Simulation(
        0, simulation_seed(55, 0), SMALL_LANDSCAPE, AgentConfig(), coin(0.5, simulation_seed(55, 0)),
        max_steps=0,
    ).run()
    assert result.steps_executed == 0
    assert result.terminal_step == 0
    assert result.terminal_reason is TerminalReason.STEP_LIMIT
    assert result.trades == [] and result.decisions == []

    capped = Simulation(
        0, simulation_seed(56, 0), SMALL_LANDSCAPE, AgentConfig(), coin(0.5, simulation_seed(56, 0)),
        max_steps=5,
    ).run()
    if capped.terminal_reason is TerminalReason.STEP_LIMIT:
        assert capped.steps_executed == 5
        assert capped.terminal_step == 4


def test_terminal_step_is_last_executed_index():
    result = Simulation(
        0, simulation_seed(57, 0), LandscapeConfig(grid_width=4, grid_height=4),
        AgentConfig(), coin(0.0, simulation_seed(57, 0)), max_steps=300,
    ).run()
    assert result.terminal_reason is TerminalReason.ALL_CEASED
    last_cease = max(mm.ceased_at_step for mm in result.mms)
    assert result.terminal_step == last_cease
    assert result.steps_executed == last_cease + 1


def test_initial_totals_snapshot():
    sim = make_sim()
    tb, tc = sim.grid.totals()
    assert sim.initial_client_bonds == tb
    assert sim.initial_client_cash == tc
    assert sim.initial_mm_bonds == pytest.approx(sum(m.bonds_acc for m in sim.mms))
    assert sim.initial_mm_cash == pytest.approx(sum(m.cash_acc for m in sim.mms))


def test_contact_selection_uniform_over_base():
    # One MM with a 3x3 base: contact frequencies even out across cells.
    landscape = LandscapeConfig(grid_width=3, grid_height=3, availability_p=1.0)
    # Breadth 50 on a 3x3 grid clips to the full grid for any anchor.
    agents = AgentConfig(n_agents=1, breadth_min=50, breadth_max=50)
    sim = make_sim(
        p=0.0, seed=58, landscape=landscape, agents=agents,
        max_steps=20_000,
    )
    sim.mms[0].bonds_acc = sim.mms[0].cash_acc = 10_000.0  # outlive the sampling
    counts = np.zeros(9)
    base = {pos: i for i, pos in enumerate([(x, y) for y in range(3) for x in range(3)])}
    for _ in range(9_000):
        sim.step()
    for q, _ in sim.decisions:
        counts[base[q.client_position]] += 1
    freq = counts / counts.sum()
    assert np.all(np.abs(freq - 1 / 9) < 0.02)


# -- the per-event records ---------------------------------------------


@pytest.mark.parametrize(
    "record_type, fields, values",
    [
        (
            DesireQuery,
            ("step", "mm_id", "client_position", "client_bonds", "client_cash", "sequence_no"),
            (7, 1, (4, 5), 12.5, 0.75, 9),
        ),
        (
            TradeRecord,
            ("step", "mm_id", "counterparty_kind", "counterparty", "client_direction", "bond_qty", "cash_qty"),
            (7, 1, CounterpartyKind.CLIENT, (4, 5), Direction.SELL, 12.5, 0.75),
        ),
    ],
)
def test_event_records_are_immutable_tuples(record_type, fields, values):
    # The field order is the one the records had as frozen dataclasses.
    assert record_type._fields == fields
    by_position = record_type(*values)
    by_keyword = record_type(**dict(zip(fields, values)))
    assert by_position == by_keyword == values
    with pytest.raises(AttributeError):
        by_position.step = 0
    # Results cross the process pool pickled.
    assert pickle.loads(pickle.dumps(by_keyword)) == by_keyword
    assert type(pickle.loads(pickle.dumps(by_keyword))) is record_type


class FailsAfter(BernoulliProvider):
    """A coin flip that fails hard after ``n`` decisions."""

    def __init__(self, n):
        super().__init__(0.5, substream(simulation_seed(11, 0), STREAM_PROVIDER))
        self.left = n

    def decide(self, q):
        if self.left == 0:
            raise ProviderHardFailure("gateway gone")
        self.left -= 1
        return super().decide(q)


def test_results_round_trip_through_pickle(monkeypatch):
    # Every batch hands each result back pickled, its trades and queries as
    # columns. Every kind of result must come back equal, with its records
    # typed: a NamedTuple compares equal to a plain tuple. A live result's
    # outcomes carry reply text and a latency, which no scripted one does.
    timeliness = PromptTemplate.TIMELINESS

    def journal(result):
        return [journal_line(q, o, timeliness) for q, o in result.decisions]

    journaled = make_sim(p=0.5).run()
    records = [parse_journal_line(line) for line in journal(journaled)]
    idle = LandscapeConfig(grid_width=6, grid_height=6, availability_p=0.0)
    cases = {
        "coin flip": make_sim(p=0.5).run(),
        "no trades, no decisions": make_sim(landscape=idle, agents=AgentConfig(n_agents=1)).run(),
        "aborted": make_sim(FailsAfter(5)).run(),
        "replay": make_sim(ReplayProvider(records, timeliness)).run(),
    }
    monkeypatch.setenv("TEST_GATEWAY_TOKEN", "tok-123-secret")
    replies = [(200, {"choices": [{"message": {"content": text}}]}) for text in ("No thanks", "Yes!", "Maybe")]
    with GatewayStub(replies) as stub:
        live = ProviderConfig(
            kind=ProviderKind.LIVE_LLM, endpoint_url=stub.url, model_name="test-model",
            token_env="TEST_GATEWAY_TOKEN", timeout_s=5.0, rate_limit_rps=10_000.0,
        )
        cases["live"] = make_sim(LiveLLMProvider(live), max_steps=10).run()
    assert {o.state for _, o in cases["live"].decisions} == set(DecisionState)
    assert all(o.raw_text and o.latency_ms is not None for _, o in cases["live"].decisions)
    assert cases["coin flip"].trades
    assert cases["no trades, no decisions"].trades == cases["no trades, no decisions"].decisions == []
    assert cases["aborted"].aborted and len(cases["aborted"].decisions) == 5
    replay = cases["replay"]
    assert journal(replay) == journal(journaled) and replay.trades == journaled.trades
    assert len({id(o) for _, o in replay.decisions}) == len(replay.decisions)
    for name, result in cases.items():
        back = pickle.loads(pickle.dumps(result))
        assert back == result, name
        assert all(type(t) is TradeRecord for t in back.trades), name
        assert all(type(q) is DesireQuery for q, _ in back.decisions), name
    # The coin flip's two shared outcomes are pickled once each.
    back = pickle.loads(pickle.dumps(cases["coin flip"]))
    assert len({id(o) for _, o in back.decisions}) == 2
