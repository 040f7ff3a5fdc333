"""bondflow: a deterministic simulator of a bilateral bond-dealing society.

A fixed grid of clients holds bonds and cash; a handful of market-maker
agents with two-resource running costs phone clients, ask whether they
want to trade right now (by coin flip, live language-model call, recorded
replay, or a calibrated bursty synthetic), and are obligated to fill
whatever the client wants. Societies run until every market maker's
resources are exhausted or a step cap is hit; the harness batches seeded
runs and emits summary tables.
"""

from __future__ import annotations

from .agents import (
    AgentConfig,
    AgentStatus,
    BaseRect,
    CeaseRule,
    MarketMakerState,
    apply_costs,
    base_rect,
    cease_check,
    client_base,
    init_market_makers,
)
from .decision import (
    BernoulliProvider,
    DecisionOutcome,
    DecisionProvider,
    DecisionState,
    DesireQuery,
    JournalRecord,
    LiveLLMProvider,
    ProviderConfig,
    ProviderKind,
    ReplayProvider,
    SyntheticBurstyProvider,
    build_provider,
    normalize_response,
    prompt_hash,
    read_journal,
    render_prompt,
    split_journal,
)
from .engine import (
    CounterpartyKind,
    Simulation,
    SimulationResult,
    TerminalReason,
    TradeRecord,
)
from .errors import ConfigError, ProviderHardFailure
from .harness import (
    BatchResult,
    ExperimentConfig,
    load_config_file,
    rebuild_tables,
    resolve_config,
    resolve_preset,
    run_batch,
)
from .landscape import (
    Direction,
    Landscape,
    LandscapeConfig,
    LognormalParams,
    init_landscape,
    sample_truncated_lognormal,
)
from .metrics import (
    BatchSummary,
    SimulationSummary,
    YesRatioSeries,
    aggregate_batch,
    recount_simulation,
    summarize_simulation,
    yes_ratio_series,
)
from .prompts import PromptTemplate, load_template, render_template
from .seeding import simulation_seed, stable_hash64, substream

__version__ = "0.1.0"

__all__ = [
    "AgentConfig",
    "AgentStatus",
    "BaseRect",
    "BatchResult",
    "BatchSummary",
    "BernoulliProvider",
    "CeaseRule",
    "ConfigError",
    "CounterpartyKind",
    "DecisionOutcome",
    "DecisionProvider",
    "DecisionState",
    "DesireQuery",
    "Direction",
    "ExperimentConfig",
    "JournalRecord",
    "Landscape",
    "LandscapeConfig",
    "LiveLLMProvider",
    "LognormalParams",
    "MarketMakerState",
    "PromptTemplate",
    "ProviderConfig",
    "ProviderHardFailure",
    "ProviderKind",
    "ReplayProvider",
    "Simulation",
    "SimulationResult",
    "SimulationSummary",
    "SyntheticBurstyProvider",
    "TerminalReason",
    "TradeRecord",
    "YesRatioSeries",
    "aggregate_batch",
    "apply_costs",
    "base_rect",
    "build_provider",
    "cease_check",
    "client_base",
    "init_landscape",
    "init_market_makers",
    "load_config_file",
    "load_template",
    "normalize_response",
    "prompt_hash",
    "read_journal",
    "rebuild_tables",
    "recount_simulation",
    "render_prompt",
    "render_template",
    "resolve_config",
    "resolve_preset",
    "run_batch",
    "sample_truncated_lognormal",
    "simulation_seed",
    "split_journal",
    "stable_hash64",
    "substream",
    "summarize_simulation",
    "yes_ratio_series",
]
