"""Exception types shared across the package, and the bounds tables that configs check."""

from __future__ import annotations

import math
from typing import Any


class ConfigError(ValueError):
    """Raised for invalid, contradictory, or unusable configuration."""


# A parsed bounds table: each field's closed float ends, whether it takes only ints, and its row.
Bounds = dict[str, tuple[float, float, bool, str]]


def bounds_table(rows: dict[str, str]) -> Bounds:
    """A bounds table, parsed once: one row per numeric field, giving its interval.

    A row reads ``"[0, 1]"``, ``"(0, 1)"``, ``"[1, inf)"`` or ``"[0, inf]"``.
    An open end excludes its value, so an open ``inf)`` end means finite,
    and a NaN fails every row. Every row takes only an int or a float,
    never a bool, a None or a string. A row starting ``int`` takes only an
    int, and its finite ends are read as ints, so that an end such as
    2**63 - 1, which no float holds, is exact.
    """
    table: Bounds = {}
    for name, row in rows.items():
        interval = row.removeprefix("int ")
        exact = int if interval != row else float
        lo, hi = (float(end) if "inf" in end else exact(end) for end in interval[1:-1].split(","))
        # An open end is the closed end one float inward: (0, inf) is [5e-324, 1.8e308].
        lo = math.nextafter(lo, math.inf) if interval[0] == "(" else lo
        hi = math.nextafter(hi, -math.inf) if interval[-1] == ")" else hi
        table[name] = lo, hi, interval != row, row
    return table


def check_bounds(table: Bounds, config: Any) -> None:
    """Refuse a config with a field outside its row of *table*."""
    for name in table:
        check_bound(table, name, getattr(config, name))


def check_bound(table: Bounds, name: str, value: Any) -> None:
    """Refuse a *value* of field *name* that lies outside its row of *table*."""
    lo, hi, integral, row = table[name]
    if type(value) not in ((int,) if integral else (int, float)) or not lo <= value <= hi:
        raise ConfigError(f"{name} must lie in {row}, got {value!r}")


class ProviderHardFailure(RuntimeError):
    """Raised when a decision provider fails in a way retries cannot fix.

    Examples: rejected credentials, a structurally malformed gateway reply.
    A hard failure aborts the batch after partial logs are flushed; it is
    never silently converted into decision outcomes.
    """
