"""Metrics: per-run summaries, batch statistics, ratio series, recounting."""

from __future__ import annotations

import array
import csv
import dataclasses
import tracemalloc
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest

from bondflow import (
    DecisionOutcome,
    DecisionState,
    SimulationResult,
    yes_ratio_series,
)
from bondflow.agents import MarketMakerState
from bondflow.engine import CounterpartyKind, TerminalReason, TradeRecord
from bondflow.landscape import Direction
from bondflow.metrics import (
    CLIENT_TABLE_COLUMNS,
    CLIENT_TABLE_ROWS,
    FULL_TABLE_COLUMNS,
    FULL_TABLE_ROWS,
    YES_RATIO_TABLE_COLUMNS,
    YES_RATIO_TABLE_ROWS,
    SimulationSummary,
    _percentile,
    aggregate_batch,
    recount_simulation,
    render_client_stats_table,
    render_full_stats_table,
    render_yes_ratio_table,
    series_stats,
    summarize_simulation,
)

Y, N, E = DecisionState.YES, DecisionState.NO, DecisionState.ERROR


def _mk_mm(mm_id, ceased_at):
    return MarketMakerState(
        id=mm_id, bonds_acc=1.0, cash_acc=1.0, bond_rate=0.2, cash_rate=0.2,
        breadth=3, anchor=(0, 0), ceased_at_step=ceased_at,
    )


def client_trade(step, bond_qty, cash_qty, mm_id=0, direction=Direction.SELL):
    return TradeRecord(
        step=step, mm_id=mm_id, counterparty_kind=CounterpartyKind.CLIENT,
        counterparty=(0, 0), client_direction=direction,
        bond_qty=bond_qty, cash_qty=cash_qty,
    )


def ib_trade(step, qty, mm_id=0, buyer=1):
    return TradeRecord(
        step=step, mm_id=mm_id, counterparty_kind=CounterpartyKind.MARKET_MAKER,
        counterparty=buyer, client_direction=None, bond_qty=qty, cash_qty=qty,
    )


def decision(state):
    from bondflow import DesireQuery

    q = DesireQuery(
        step=0, mm_id=0, client_position=(0, 0),
        client_bonds=1.0, client_cash=1.0, sequence_no=0,
    )
    return (q, DecisionOutcome(state=state, raw_text=""))


def make_result(
    *, mms, trades=(), decisions=(), steps_executed=21,
    terminal_reason=TerminalReason.ALL_CEASED, initial_client_bonds=100.0,
    initial_client_cash=50.0, contacts=40,
):
    return SimulationResult(
        sim_id=0,
        seed=1,
        terminal_reason=terminal_reason,
        steps_executed=steps_executed,
        contacts=contacts,
        mms=list(mms),
        trades=list(trades),
        decisions=list(decisions),
        initial_client_bonds=initial_client_bonds,
        initial_client_cash=initial_client_cash,
        initial_mm_bonds=10.0,
        initial_mm_cash=10.0,
        consumed_bonds=0.0,
        consumed_cash=0.0,
        abort_reason=None,
    )


# -- per-simulation summary ---------------------------------------------


def test_max_life_mixes_ceased_stamps_and_survivors():
    # One MM ceased at 7, one survived to the terminal step.
    result = make_result(mms=[_mk_mm(0, 7), _mk_mm(1, None)])
    assert summarize_simulation(result).max_life == 20

    result = make_result(mms=[_mk_mm(0, 7), _mk_mm(1, 4)], steps_executed=8)
    assert summarize_simulation(result).max_life == 7


def test_max_life_zero_when_nothing_ran():
    result = make_result(
        mms=[_mk_mm(0, None)], steps_executed=0,
        terminal_reason=TerminalReason.STEP_LIMIT,
    )
    assert summarize_simulation(result).max_life == 0


def test_client_volume_percentages():
    trades = [client_trade(1, 60.0, 10.0), client_trade(2, 30.0, 5.0)]
    summary = summarize_simulation(
        make_result(mms=[_mk_mm(0, 3)], trades=trades,
                    initial_client_bonds=100.0, initial_client_cash=50.0)
    )
    assert summary.mm_client_bond_pct == pytest.approx(90.0)
    assert summary.mm_client_cash_pct == pytest.approx(30.0)
    assert summary.trade_count == 2
    assert summary.interbank_trade_count == 0


def test_client_percentage_clamps_at_100():
    # Re-traded volume can exceed the initial stock; the share is capped.
    trades = [client_trade(1, 150.0, 80.0)]
    summary = summarize_simulation(
        make_result(mms=[_mk_mm(0, 3)], trades=trades,
                    initial_client_bonds=100.0, initial_client_cash=50.0)
    )
    assert summary.mm_client_bond_pct == 100.0
    assert summary.mm_client_cash_pct == 100.0


def test_interbank_share_of_total_volume():
    trades = [client_trade(1, 90.0, 45.0), ib_trade(2, 10.0), ib_trade(3, 5.0)]
    summary = summarize_simulation(make_result(mms=[_mk_mm(0, 3)], trades=trades))
    assert summary.interbank_bond_pct == pytest.approx(100.0 * 15.0 / 105.0)
    assert summary.interbank_cash_pct == pytest.approx(100.0 * 15.0 / 60.0)
    assert summary.interbank_trade_count == 2


def test_zero_denominators_are_zero_percent():
    summary = summarize_simulation(
        make_result(mms=[_mk_mm(0, 3)], trades=[],
                    initial_client_bonds=0.0, initial_client_cash=0.0)
    )
    assert summary.mm_client_bond_pct == 0.0
    assert summary.interbank_bond_pct == 0.0


def test_decision_tallies():
    decisions = [decision(Y), decision(Y), decision(N), decision(E)]
    summary = summarize_simulation(make_result(mms=[_mk_mm(0, 3)], decisions=decisions))
    assert summary.decision_requests == 4
    assert (summary.yes_count, summary.no_count, summary.error_count) == (2, 1, 1)


# -- batch aggregation ---------------------------------------------------


def summaries_with_max_life(values):
    out = []
    for i, v in enumerate(values):
        result = make_result(mms=[_mk_mm(0, v)], steps_executed=v + 1)
        summary = summarize_simulation(result)
        assert summary.max_life == v
        out.append(summary)
    return out


def test_aggregate_percentiles_are_linear_interpolation():
    batch = aggregate_batch(summaries_with_max_life([10, 20, 30, 40]))
    stat = batch.metrics["max_life"]
    assert stat.mean == pytest.approx(25.0)
    assert stat.p25 == pytest.approx(17.5)
    assert stat.p50 == pytest.approx(25.0)
    assert stat.p75 == pytest.approx(32.5)
    assert stat.max == 40.0
    # Population std, not sample std.
    assert stat.std == pytest.approx(float(np.std([10, 20, 30, 40])))
    # Plain floats, not numpy scalars.
    assert {type(v) for v in dataclasses.astuple(stat)} == {float}


def _summary_like_values(rng, n):
    """n values of the kinds a batch summary column holds."""
    kind = rng.integers(4)
    if kind == 0:  # step counts: integer-valued, with many ties
        return rng.integers(0, max(2, n // 3), size=n).astype(np.float64)
    if kind == 1:  # percentages pinned at the ends
        return rng.choice([0.0, 100.0, 50.0, 12.5], size=n)
    if kind == 2:  # values spread over nine decades
        return 10.0 ** rng.uniform(-6.0, 3.0, size=n)
    mixed = 10.0 ** rng.uniform(-6.0, 3.0, size=n)
    mixed[rng.random(n) < 0.3] = 0.0
    mixed[rng.random(n) < 0.1] = 100.0
    mixed[rng.random(n) < 0.2] = rng.integers(0, 300)
    return mixed


def test_percentile_helper_is_bit_identical_to_numpy():
    rng = np.random.default_rng(18)
    sizes = [*range(1, 65), 150, 199, 200, 257, 400]
    for n in sizes:
        for _ in range(12):
            xs = _summary_like_values(rng, n)
            ordered = sorted(xs.tolist())
            for q in (25, 50, 75):
                got = _percentile(ordered, q)
                want = float(np.percentile(xs, q))
                assert type(got) is float
                assert np.float64(got).tobytes() == np.float64(want).tobytes(), (n, q, xs)


def test_aggregate_single_summary():
    batch = aggregate_batch(summaries_with_max_life([12]))
    stat = batch.metrics["max_life"]
    assert stat.std == 0.0
    assert stat.p25 == stat.p50 == stat.p75 == stat.max == 12.0
    assert batch.n_simulations == 1


def test_aggregate_rejects_empty():
    with pytest.raises(ValueError):
        aggregate_batch([])


def test_cap_count_counts_step_limited_runs():
    capped = summarize_simulation(make_result(
        mms=[_mk_mm(0, None)], terminal_reason=TerminalReason.STEP_LIMIT,
        steps_executed=60,
    ))
    done = summarize_simulation(make_result(mms=[_mk_mm(0, 5)], steps_executed=6))
    # An uneven batch too: in an even one, counting the other runs gives the same count.
    for summaries, n_capped in (([capped, done], 1), ([capped, capped, done], 2)):
        assert aggregate_batch(summaries).cap_count == n_capped


# -- yes-ratio series -----------------------------------------------------


def test_rolling_all_yes_is_exactly_one():
    series = yes_ratio_series([Y] * 10, window=10)
    assert list(series.rolling) == [1.0]
    assert series.rolling[0] == 1.0  # exact, not 0.999...
    assert series.cumulative[-1] == 1.0
    assert type(series.yes_count) is int and series.yes_count == 10
    # The smallest window is one decision; a smaller one is refused.
    assert list(yes_ratio_series([Y], window=1).rolling) == [1.0]
    # A stream shorter than its window has no rolling ratio.
    assert list(yes_ratio_series([Y] * 5, window=6).rolling) == []
    with pytest.raises(ValueError, match="window"):
        yes_ratio_series([Y], window=0)


def test_rolling_alternating_is_exactly_half():
    states = [Y, N] * 10
    series = yes_ratio_series(states, window=10)
    assert len(series.rolling) == 11
    assert all(v == 0.5 for v in series.rolling)


def test_errors_are_excluded_from_both_series():
    series = yes_ratio_series([Y, E, N, Y], window=2)
    assert list(series.positions) == [0, 2, 3]
    assert list(series.cumulative) == [1.0, 0.5, pytest.approx(2 / 3)]
    assert list(series.rolling) == [0.5, 0.5]
    assert series.error_count == 1
    assert series.yes_count == 2
    assert series.no_count == 1


def test_short_stream_has_no_rolling_values():
    series = yes_ratio_series([Y] * 5, window=10)
    assert list(series.rolling) == []
    assert len(series.cumulative) == 5


def test_empty_and_all_error_streams():
    assert list(yes_ratio_series([], window=10).cumulative) == []
    series = yes_ratio_series([E, E], window=10)
    assert list(series.cumulative) == []
    assert series.error_count == 2


def test_window_sums_match_bruteforce():
    rng = np.random.default_rng(5)
    states = [(Y, N, E)[i] for i in rng.choice(3, size=500, p=[0.5, 0.35, 0.15])]
    flags = [1 if s is Y else 0 for s in states if s is not E]
    k, yes = len(flags), sum(flags)
    # Both ratios are exact integer counts divided once, as Python divides them.
    for window in (1, 10, k + 1):
        series = yes_ratio_series(states, window=window)
        assert list(series.positions) == [i for i, s in enumerate(states) if s is not E]
        assert list(series.cumulative) == [sum(flags[: i + 1]) / (i + 1) for i in range(k)]
        assert list(series.rolling) == [sum(flags[i : i + window]) / window for i in range(k - window + 1)]
        assert (series.yes_count, series.no_count, series.error_count) == (yes, k - yes, len(states) - k)


def _list_series(states, window):
    """The series as lists of boxed numbers, the form the arrays replaced: the bits oracle."""
    positions = [i for i, s in enumerate(states) if s is not E]
    yes_after = list(accumulate((states[i] is Y for i in positions), initial=0))
    k = len(positions)
    cumulative = [yes_after[j] / j for j in range(1, k + 1)]
    rolling = [(yes_after[j] - yes_after[j - window]) / window for j in range(window, k + 1)]
    return positions, cumulative, rolling, (yes_after[-1], k - yes_after[-1], len(states) - k)


def test_series_bits_match_the_list_form():
    def hexes(values):
        return list(map(float.hex, values))

    rng = np.random.default_rng(34)
    # The empty stream, streams around and below each window, and long ones.
    lengths = [0, 1, 2, 9, 10, 11, 20, 21, *rng.integers(22, 20_001, size=2).tolist(), 20_000]
    for error_share in (0.0, 0.3, 1.0):
        p = [0.55 * (1 - error_share), 0.45 * (1 - error_share), error_share]
        for n in lengths:
            states = [(Y, N, E)[i] for i in rng.choice(3, size=n, p=p)]
            for window in (1, 3, 10, 20):
                positions, cumulative, rolling, counts = _list_series(states, window)
                series = yes_ratio_series(states, window=window)
                assert list(series.positions) == positions
                assert hexes(series.cumulative) == hexes(cumulative)
                assert hexes(series.rolling) == hexes(rolling)
                assert (series.yes_count, series.no_count, series.error_count) == counts
                for column, oracle in ((series.cumulative, cumulative), (series.rolling, rolling)):
                    assert hexes(dataclasses.astuple(series_stats(column))) == hexes(
                        dataclasses.astuple(series_stats(oracle))
                    )


def test_series_holds_8_byte_arrays_not_boxed_numbers():
    rng = np.random.default_rng(34)
    states = [(Y, N, E)[i] for i in rng.choice(3, size=15_000, p=[0.5, 0.35, 0.15])]
    # tracemalloc counts bytes, not pages, so the bounds do not move with the machine.
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        series = yes_ratio_series(states, window=10)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # On this stream the arrays hold 21 B per state and peak at 28 B; lists held 86 and peaked at 120.
    assert (peak - before) / len(states) <= 48
    assert (held - before) / len(states) <= 32
    for column in (series.positions, series.cumulative, series.rolling):
        assert isinstance(column, array.array) and column.itemsize == 8


def test_series_stats_population_std():
    stats = series_stats([0.0, 0.5, 1.0])
    assert stats.mean == pytest.approx(0.5)
    assert stats.std == pytest.approx((1 / 6) ** 0.5)
    assert stats.min == 0.0
    assert stats.max == 1.0
    assert {type(v) for v in dataclasses.astuple(stats)} == {float}  # not numpy scalars
    # A series with no value (no full rolling window) has all-zero stats.
    assert dataclasses.astuple(series_stats([])) == (0.0, 0.0, 0.0, 0.0)


# -- recounting from the CSV logs -----------------------------------------


def read_rows(path: Path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def test_recount_matches_summaries_exactly(mini_batch):
    out = mini_batch.output_dir
    trade_rows = read_rows(out / "trades.csv")
    decision_rows = read_rows(out / "decisions.csv")
    lifecycle_rows = read_rows(out / "lifecycle.csv")
    summary_rows = read_rows(out / "summaries.csv")
    assert len(summary_rows) == len(mini_batch.summaries)

    for original, row in zip(mini_batch.summaries, summary_rows):
        rebuilt = recount_simulation(
            trade_rows,
            decision_rows,
            lifecycle_rows,
            sim_id=int(row["sim_id"]),
            terminal_reason=original.terminal_reason,
            steps_executed=int(row["steps_executed"]),
            initial_client_bonds=float(row["initial_client_bonds"]),
            initial_client_cash=float(row["initial_client_cash"]),
        )
        assert rebuilt == original  # exact equality, floats included


def test_summary_field_names_cover_dataclass():
    from bondflow.harness import _SUMMARY_CELLS

    fields = dataclasses.fields(SimulationSummary)
    names = [f.name for f in fields]
    assert names[0] == "sim_id"
    assert "max_life" in names and "interbank_cash_pct" in names
    # Every field has a writer and a parser, so summaries.csv covers the whole dataclass.
    assert all(f.type in _SUMMARY_CELLS for f in fields)


# -- table rendering -------------------------------------------------------


def batch_for_tables():
    return aggregate_batch(summaries_with_max_life([10, 20, 30, 40]))


def test_full_table_schema():
    csv_text, pretty = render_full_stats_table(batch_for_tables())
    lines = csv_text.splitlines()
    assert lines[0] == ",".join(FULL_TABLE_COLUMNS)
    assert [line.split(",")[0] for line in lines[1:]] == FULL_TABLE_ROWS
    assert len(lines) == 1 + len(FULL_TABLE_ROWS)
    assert pretty.splitlines()[0].split("  ")[0].strip() == "Statistic"


def test_client_table_schema():
    csv_text, _ = render_client_stats_table(batch_for_tables())
    lines = csv_text.splitlines()
    assert lines[0] == ",".join(CLIENT_TABLE_COLUMNS)
    assert [line.split(",")[0] for line in lines[1:]] == CLIENT_TABLE_ROWS


def test_yes_ratio_table_schema_and_values():
    states = [Y] * 6 + [N] * 4 + [Y, N] * 5
    series = yes_ratio_series(states, window=10)
    csv_text, pretty = render_yes_ratio_table(series)
    lines = csv_text.splitlines()
    assert lines[0] == ",".join(YES_RATIO_TABLE_COLUMNS)
    assert [line.split(",")[0] for line in lines[1:]] == YES_RATIO_TABLE_ROWS
    # Values are percentages of the ratio series.
    mean_pct = float(lines[1].split(",")[1])
    assert mean_pct == pytest.approx(100 * sum(series.cumulative) / len(series.cumulative), abs=0.01)
    assert "Rolling 10 Requests (%)" in pretty


def test_yes_ratio_table_names_its_window():
    series = yes_ratio_series([Y, N, Y, Y, N, N, Y], window=5)
    csv_text, pretty = render_yes_ratio_table(series)
    assert csv_text.splitlines()[0] == "Statistic,Yes/No Ratio (%),Rolling 5 Requests (%)"
    assert "Rolling 5 Requests (%)" in pretty.splitlines()[0]
    # Rolling stats over the three full windows: 3/5, 2/5, 3/5.
    assert csv_text.splitlines()[1].split(",")[2] == "53.3333"


def test_full_table_statistic_values_trace_to_batch():
    batch = batch_for_tables()
    csv_text, _ = render_full_stats_table(batch)
    row = csv_text.splitlines()[1].split(",")
    assert row[0] == "mean"
    assert float(row[1]) == pytest.approx(batch.metrics["max_life"].mean)
