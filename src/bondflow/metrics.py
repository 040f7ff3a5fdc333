"""Statistics over completed runs: summaries, batch tables, ratio series.

Everything here is a pure function over logs. Two properties matter:

- Recount equivalence: every summary field is recomputable from the raw
  CSV logs. ``summarize_simulation`` (the in-memory result) and
  ``recount_simulation`` (parsed CSV rows) feed one tally the same trade
  legs and decision states in the same order, and CSV floats round-trip
  through shortest-repr formatting, so the recount matches the summary
  EXACTLY. Since the tally is shared, the recount's exact-equality test
  checks that the logs carry every input it needs.
- Ratio arithmetic: both yes ratios, cumulative and rolling, are integer
  counts divided once, so an all-yes window is exactly 1.0 and an all-no
  window exactly 0.0 (float convolution would give 0.9999999999999999).

Error outcomes are excluded from both ratio series (yes/(yes+no)
semantics) and tallied separately.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import astuple, dataclass
from itertools import accumulate
from typing import Iterable, Mapping, Sequence

import numpy as np

from .decision import DecisionState
from .engine import CounterpartyKind, SimulationResult, TerminalReason

DEFAULT_ROLLING_WINDOW = 10

# Columns and row labels of the three emitted tables. The shapes mirror
# the reporting tables this package exists to reproduce; golden tests pin
# them.
FULL_TABLE_COLUMNS = [
    "Statistic",
    "MaxLife",
    "MM-to-Client Bond Trading (%)",
    "MM-to-Client Cash Trading (%)",
    "MM-2-MM Bonds (%)",
    "MM-2-MM Cash (%)",
]
FULL_TABLE_ROWS = ["mean", "std", "25%", "50%", "75%", "max"]
CLIENT_TABLE_COLUMNS = [
    "Statistic",
    "Max Life Agents",
    "MM-to-Client Bond Trading (%)",
    "MM-to-Client Cash Trading (%)",
]
CLIENT_TABLE_ROWS = ["Mean", "Std", "25%", "50%", "75%", "Max"]
# At the default window; render_yes_ratio_table names the series' own window.
YES_RATIO_TABLE_COLUMNS = ["Statistic", "Yes/No Ratio (%)", f"Rolling {DEFAULT_ROLLING_WINDOW} Requests (%)"]
YES_RATIO_TABLE_ROWS = ["Mean", "Std Dev", "Min", "Max"]


@dataclass(frozen=True)
class SimulationSummary:
    sim_id: int
    terminal_step: int
    terminal_reason: TerminalReason | None
    steps_executed: int
    max_life: int
    mm_client_bond_pct: float
    mm_client_cash_pct: float
    interbank_bond_pct: float
    interbank_cash_pct: float
    contacts: int
    decision_requests: int
    yes_count: int
    no_count: int
    error_count: int
    trade_count: int  # client legs only
    interbank_trade_count: int
    initial_client_bonds: float
    initial_client_cash: float


@dataclass(frozen=True)
class StatRow:
    mean: float
    std: float
    p25: float
    p50: float
    p75: float
    max: float


@dataclass(frozen=True)
class BatchSummary:
    n_simulations: int
    metrics: Mapping[str, StatRow]
    cap_count: int  # simulations with an MM still alive at the step cap


@dataclass(frozen=True)
class SeriesStats:
    mean: float
    std: float
    min: float
    max: float


@dataclass(frozen=True)
class YesRatioSeries:
    """Cumulative and rolling yes/(yes+no) ratios over a decision stream.

    positions[i] is the index of the i-th non-error outcome in the input
    stream. rolling[i] covers the window ending at positions[i+window-1].
    """

    window: int
    positions: list[int]
    cumulative: list[float]
    rolling: list[float]
    yes_count: int
    no_count: int
    error_count: int


def _client_pct(volume: float, initial_total: float) -> float:
    if initial_total <= 0.0:
        return 0.0
    return min(100.0, 100.0 * volume / initial_total)


def _share_pct(part: float, total: float) -> float:
    if total <= 0.0:
        return 0.0
    return 100.0 * part / total


def _tally(
    legs: Iterable[tuple[bool, float, float]],
    states: Iterable[DecisionState],
    *,
    sim_id: int,
    terminal_reason: TerminalReason | None,
    steps_executed: int,
    contacts: int,
    initial_client_bonds: float,
    initial_client_cash: float,
) -> SimulationSummary:
    """The summary count both the in-memory and the recount path use.

    Trade legs are (is_client, bond_qty, cash_qty) and, like the decision
    states, come in log order. The keyword fields are echoed into the
    summary. ``max_life`` is the terminal step: a run ends at the step its
    last MM ceases, or at the step cap with an MM alive.
    """
    terminal_step = max(0, steps_executed - 1)  # as SimulationResult.terminal_step
    client_bond_vol = client_cash_vol = 0.0
    ib_bond_vol = ib_cash_vol = 0.0
    trade_count = interbank_trade_count = 0
    for is_client, bond_qty, cash_qty in legs:
        if is_client:
            client_bond_vol += bond_qty
            client_cash_vol += cash_qty
            trade_count += 1
        else:
            ib_bond_vol += bond_qty
            ib_cash_vol += cash_qty
            interbank_trade_count += 1
    counts = Counter(states)
    requests = sum(counts.values())
    yes, no = counts[DecisionState.YES], counts[DecisionState.NO]
    return SimulationSummary(
        sim_id=sim_id,
        terminal_step=terminal_step,
        terminal_reason=terminal_reason,
        steps_executed=steps_executed,
        max_life=terminal_step,
        mm_client_bond_pct=_client_pct(client_bond_vol, initial_client_bonds),
        mm_client_cash_pct=_client_pct(client_cash_vol, initial_client_cash),
        interbank_bond_pct=_share_pct(ib_bond_vol, client_bond_vol + ib_bond_vol),
        interbank_cash_pct=_share_pct(ib_cash_vol, client_cash_vol + ib_cash_vol),
        contacts=contacts,
        decision_requests=requests,
        yes_count=yes,
        no_count=no,
        error_count=requests - yes - no,
        trade_count=trade_count,
        interbank_trade_count=interbank_trade_count,
        initial_client_bonds=initial_client_bonds,
        initial_client_cash=initial_client_cash,
    )


def summarize_simulation(result: SimulationResult) -> SimulationSummary:
    """All per-run metrics from the final state bundle."""
    client = CounterpartyKind.CLIENT
    return _tally(
        ((t.counterparty_kind is client, t.bond_qty, t.cash_qty) for t in result.trades),
        (outcome.state for _, outcome in result.decisions),
        sim_id=result.sim_id,
        terminal_reason=result.terminal_reason,
        steps_executed=result.steps_executed,
        contacts=result.contacts,
        initial_client_bonds=result.initial_client_bonds,
        initial_client_cash=result.initial_client_cash,
    )


BATCH_METRIC_FIELDS = (
    "max_life",
    "mm_client_bond_pct",
    "mm_client_cash_pct",
    "interbank_bond_pct",
    "interbank_cash_pct",
)


def _percentile(ordered: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of ascending ``ordered``, as ``np.percentile`` gives it.

    numpy's default linear method (Hyndman and Fan's method 7), with the
    same float operations: like numpy, it interpolates down from the upper
    neighbour when the fraction is at least 0.5, so the result is
    bit-identical. The values must be finite, as ``summarize_simulation``
    makes them and as ``summaries.csv`` is checked on reading: a NaN has no
    place in a Python sort. A ``-0.0`` tied with a ``0.0`` may come out with
    the other sign than numpy's; ``summarize_simulation`` never makes one.
    """
    n = len(ordered)
    v = (n - 1) * (q / 100)
    if v >= n - 1:
        return ordered[-1]
    lo = int(v)
    t = v - lo
    a, b = ordered[lo], ordered[lo + 1]
    d = b - a
    return b - d * (1 - t) if t >= 0.5 else a + d * t


def aggregate_batch(summaries: Sequence[SimulationSummary]) -> BatchSummary:
    """Mean/std/quartiles/max per metric; population std.

    The quartiles use numpy's linear method, computed without numpy's
    percentile path (whose first call imports ``numpy.ma``).
    """
    if not summaries:
        raise ValueError("aggregate_batch needs at least one summary")
    metrics: dict[str, StatRow] = {}
    for name in BATCH_METRIC_FIELDS:
        xs = np.array([getattr(s, name) for s in summaries], dtype=np.float64)
        ordered = sorted(xs.tolist())
        metrics[name] = StatRow(
            mean=float(xs.mean()),
            std=float(xs.std()),
            p25=_percentile(ordered, 25),
            p50=_percentile(ordered, 50),
            p75=_percentile(ordered, 75),
            max=float(xs.max()),
        )
    cap_count = sum(1 for s in summaries if s.terminal_reason is TerminalReason.STEP_LIMIT)
    return BatchSummary(n_simulations=len(summaries), metrics=metrics, cap_count=cap_count)


def yes_ratio_series(
    states: Sequence[DecisionState], window: int = DEFAULT_ROLLING_WINDOW
) -> YesRatioSeries:
    """Cumulative and rolling yes ratios over an ordered decision stream.

    ``yes_after[j]`` counts the yes outcomes among the first ``j`` non-errors;
    each ratio is such a count divided once by an int. Python's int/int division
    rounds the exact quotient, as numpy's int64 division does for counts below
    2**53, so every float equals numpy's.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    yes_state, error = DecisionState.YES, DecisionState.ERROR
    positions = [i for i, s in enumerate(states) if s is not error]
    yes_after = list(accumulate((states[i] is yes_state for i in positions), initial=0))
    k = len(positions)
    yes = yes_after[-1]
    cumulative = [yes_after[j] / j for j in range(1, k + 1)]
    rolling = [(yes_after[j] - yes_after[j - window]) / window for j in range(window, k + 1)]
    return YesRatioSeries(window, positions, cumulative, rolling, yes, k - yes, len(states) - k)


def series_stats(values: Sequence[float]) -> SeriesStats:
    if not values:
        return SeriesStats(0.0, 0.0, 0.0, 0.0)
    xs = np.asarray(values, dtype=np.float64)
    return SeriesStats(
        mean=float(xs.mean()), std=float(xs.std()), min=float(xs.min()), max=float(xs.max())
    )


# --------------------------------------------------------------------------
# Recount: summaries rebuilt from the raw CSV logs


def recount_simulation(
    trade_rows: Iterable[Mapping[str, str]],
    decision_rows: Iterable[Mapping[str, str]],
    lifecycle_rows: Iterable[Mapping[str, str]],
    *,
    sim_id: int,
    terminal_reason: TerminalReason | None,
    steps_executed: int,
    initial_client_bonds: float,
    initial_client_cash: float,
) -> SimulationSummary:
    """Rebuild a SimulationSummary from parsed CSV log rows.

    Row iterables must be in file order (which is append order) so that
    float summation reproduces the original exactly. The scalar run facts
    (terminal reason, steps executed, denominators) are echoed inputs from
    the summaries log; everything else is recounted. Contacts are one per
    active MM per executed step.
    """

    def own(rows: Iterable[Mapping[str, str]]) -> Iterable[Mapping[str, str]]:
        return (row for row in rows if int(row["sim_id"]) == sim_id)

    client = CounterpartyKind.CLIENT.value
    cease_steps = [
        int(raw) if (raw := row["ceased_at_step"].strip()) else None for row in own(lifecycle_rows)
    ]
    contacts = sum(
        sum(1 for c in cease_steps if c is None or c >= s) for s in range(steps_executed)
    )
    return _tally(
        (
            (row["counterparty_kind"] == client, float(row["bond_qty"]), float(row["cash_qty"]))
            for row in own(trade_rows)
        ),
        (DecisionState(row["state"]) for row in own(decision_rows)),
        sim_id=sim_id,
        terminal_reason=terminal_reason,
        steps_executed=steps_executed,
        contacts=contacts,
        initial_client_bonds=initial_client_bonds,
        initial_client_cash=initial_client_cash,
    )


# --------------------------------------------------------------------------
# Table rendering


def _format_value(v: float) -> str:
    return f"{v:.6g}"


def _render_csv(columns: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Plain joined cells: each is a constant label or a ``%.6g`` number, so none needs quoting."""
    return "".join(",".join(row) + "\n" for row in [columns, *rows])


def _render_pretty(columns: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    table = [list(columns)] + [list(r) for r in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(columns))]
    lines = []
    for idx, row in enumerate(table):
        cells = [
            row[i].ljust(widths[i]) if i == 0 else row[i].rjust(widths[i])
            for i in range(len(row))
        ]
        lines.append("  ".join(cells).rstrip())
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def _render_table(
    columns: Sequence[str],
    row_labels: Sequence[str],
    stats: Sequence[StatRow | SeriesStats],
    scale: float = 1.0,
) -> tuple[str, str]:
    """One column per stats record, one row per field in field order (csv, pretty)."""
    rows = [
        [label, *(_format_value(scale * v) for v in values)]
        for label, values in zip(row_labels, zip(*map(astuple, stats)), strict=True)
    ]
    return _render_csv(columns, rows), _render_pretty(columns, rows)


def render_full_stats_table(batch: BatchSummary) -> tuple[str, str]:
    """Table of MaxLife plus client and interbank volume shares (csv, pretty)."""
    stats = [batch.metrics[m] for m in BATCH_METRIC_FIELDS]
    return _render_table(FULL_TABLE_COLUMNS, FULL_TABLE_ROWS, stats)


def render_client_stats_table(batch: BatchSummary) -> tuple[str, str]:
    """Table of MaxLife plus client volume shares only (csv, pretty)."""
    stats = [batch.metrics[m] for m in ("max_life", "mm_client_bond_pct", "mm_client_cash_pct")]
    return _render_table(CLIENT_TABLE_COLUMNS, CLIENT_TABLE_ROWS, stats)


def render_yes_ratio_table(series: YesRatioSeries) -> tuple[str, str]:
    """Table of cumulative vs rolling ratio statistics, in percent (csv, pretty)."""
    columns = [*YES_RATIO_TABLE_COLUMNS[:2], f"Rolling {series.window} Requests (%)"]
    stats = [series_stats(series.cumulative), series_stats(series.rolling)]
    return _render_table(columns, YES_RATIO_TABLE_ROWS, stats, scale=100.0)
