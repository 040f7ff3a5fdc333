"""bondflow: a deterministic simulator of a bilateral bond-dealing society.

A fixed grid of clients holds bonds and cash; a handful of market-maker
agents with two-resource running costs phone clients, ask whether they
want to trade right now (by coin flip, live language-model call, recorded
replay, or a calibrated bursty synthetic), and are obligated to fill
whatever the client wants. Societies run until every market maker's
resources are exhausted or a step cap is hit; the harness batches seeded
runs and emits summary tables.

The package root exports the library API that README "Library use" lists;
everything else is imported from its own module.
"""

from __future__ import annotations

from .decision import (
    DecisionOutcome,
    DecisionProvider,
    DecisionState,
    DesireQuery,
    ProviderKind,
    build_provider,
    read_journal,
    split_journal,
)
from .engine import Simulation, SimulationResult
from .errors import ConfigError, ProviderHardFailure
from .harness import (
    BatchResult,
    ExperimentConfig,
    rebuild_tables,
    resolve_config,
    resolve_preset,
    run_batch,
)
from .metrics import yes_ratio_series
from .prompts import PromptTemplate
from .seeding import simulation_seed

__version__ = "0.1.0"

__all__ = [
    "BatchResult",
    "ConfigError",
    "DecisionOutcome",
    "DecisionProvider",
    "DecisionState",
    "DesireQuery",
    "ExperimentConfig",
    "PromptTemplate",
    "ProviderHardFailure",
    "ProviderKind",
    "Simulation",
    "SimulationResult",
    "build_provider",
    "read_journal",
    "rebuild_tables",
    "resolve_config",
    "resolve_preset",
    "run_batch",
    "simulation_seed",
    "split_journal",
    "yes_ratio_series",
]
