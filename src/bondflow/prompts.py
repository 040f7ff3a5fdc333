"""Prompt templates and rendering.

The four templates ship as plain-text package data and are treated as
frozen functional inputs: their wording is part of the experiment, so they
are loaded byte-for-byte, never reflowed or reformatted. Placeholders use
single-brace names; the timeliness template says {client_bonds} and
{client_cash} while the aversion templates say {bonds} and {cash}, and the
renderer accepts both spellings. Floats render with two decimals, grid
coordinates as plain integers.

Each template is compiled once into a ``%`` format string over a mapping,
so rendering is a single ``%`` operation.
"""

from __future__ import annotations

import re
from enum import Enum
from functools import lru_cache
from importlib import resources


class PromptTemplate(Enum):
    TIMELINESS = "timeliness"
    AVERSION1 = "aversion1"
    AVERSION2 = "aversion2"
    AVERSION3 = "aversion3"


# Placeholder name -> the ``%`` conversion it compiles to.
_FORMAT_FIELDS = {
    "client_bonds": "%(b).2f",
    "client_cash": "%(c).2f",
    "bonds": "%(b).2f",
    "cash": "%(c).2f",
    "x": "%(x)d",
    "y": "%(y)d",
}
_PLACEHOLDER = re.compile(r"\{(" + "|".join(_FORMAT_FIELDS) + r")\}")


@lru_cache(maxsize=None)
def load_template(template: PromptTemplate) -> str:
    """Raw template text, exactly as shipped."""
    ref = resources.files("bondflow").joinpath("data", "prompts", f"{template.value}.txt")
    return ref.read_text(encoding="utf-8")


def compile_template(text: str) -> str:
    """Turn template text into a ``%`` format string over a mapping of b, c, x and y.

    Known placeholders become conversions; every literal ``%`` is doubled,
    and every other brace is left as it is, so unknown brace expressions
    render unchanged rather than erroring, since template text is data, not
    code.
    """
    parts = _PLACEHOLDER.split(text)  # literal, name, literal, name, ..., literal
    return "".join(_FORMAT_FIELDS[part] if i % 2 else part.replace("%", "%%") for i, part in enumerate(parts))


@lru_cache(maxsize=None)
def _compiled(template: PromptTemplate) -> str:
    return compile_template(load_template(template))


def render_template(
    template: PromptTemplate,
    *,
    client_bonds: float,
    client_cash: float,
    x: int,
    y: int,
) -> str:
    """Substitute a client's holdings and position into the template."""
    return _compiled(template) % {"b": client_bonds, "c": client_cash, "x": x, "y": y}
