"""Experiment harness: presets, config resolution, batch execution, outputs.

Three presets mirror the study this package reproduces:

- exp1: Bernoulli coin-flip desire (p=0.5), availability 0.20, 200 runs.
- exp2: an aversion-prompt society, availability 0.20, 200 runs. Offline
  by default, replaying the recorded corpus shipped with the package; a
  live gateway run is opt-in.
- exp3: a timeliness-prompt society, availability 0.40, 150 runs. Offline
  by default via the calibrated bursty provider; live is opt-in.

Config precedence: CLI flags > config file > preset. A preset also pins
the values of the fields that define it (exp1 IS the coin-flip experiment,
so another prompt template is a contradiction, not an override). Pins are
checked on the resolved values, so restating a pinned field at its preset's
value is fine, and a run's own ``resolved_config.yaml`` loads back. The
preset itself comes only from the preset name or a config file's
``preset:`` key; it cannot be overridden. Every value is checked against
its field's type, and None fits only a field whose default is None. Each
config checks its own values when it is built.

Batches are deterministic: per-sim seeds derive from the master seed, all
output files are written in sim order with fixed formatting, and the
parallelism degree never changes a byte of output. The manifest is the
single file carrying wall-clock data, so determinism checks compare trees
excluding it. A batch writes its config echo before the sims, and the
manifest's ``config_sha256`` is that echo's hash. Each sim's files (its rows
of the four logs and its journal) are written as it finishes, so a batch that
fails keeps every sim it finished; only the series, the tables and the
manifest wait for the last sim.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import dataclasses
import datetime as _dt
import enum
import functools
import hashlib
import itertools
import json
import logging
import math
import os
import pickle
import platform
import shutil
import traceback
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Mapping, get_args, get_type_hints

import numpy
import yaml
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_features__

from .agents import AgentConfig
from .decision import (
    DecisionState,
    JournalRecord,
    LiveLLMProvider,
    ProviderConfig,
    ProviderKind,
    build_provider,
    journal_line,
    read_journal,
    split_journal,
)
from .engine import (
    DEFAULT_INTERBANK_RUNWAY_STEPS,
    DEFAULT_MAX_STEPS,
    CounterpartyKind,
    Simulation,
    SimulationResult,
    TerminalReason,
)
from .errors import ConfigError, ProviderHardFailure, bounds_table, check_bound, check_bounds
from .landscape import LandscapeConfig
from .metrics import (
    DEFAULT_ROLLING_WINDOW,
    BatchSummary,
    SimulationSummary,
    YesRatioSeries,
    aggregate_batch,
    render_client_stats_table,
    render_full_stats_table,
    render_yes_ratio_table,
    summarize_simulation,
    yes_ratio_series,
)
from .prompts import PromptTemplate
from .seeding import simulation_seed

logger = logging.getLogger(__name__)

TRADES_CSV = "trades.csv"
DECISIONS_CSV = "decisions.csv"
LIFECYCLE_CSV = "lifecycle.csv"
SUMMARIES_CSV = "summaries.csv"
SERIES_CSV = "yes_ratio_series.csv"
MANIFEST_JSON = "manifest.json"
CONFIG_ECHO = "resolved_config.yaml"
JOURNAL_DIR = "journals"
TABLE_FILES = {
    "full": ("stats_full.csv", "stats_full.txt"),
    "client": ("stats_client.csv", "stats_client.txt"),
    "yes_ratio": ("stats_yes_ratio.csv", "stats_yes_ratio.txt"),
}


def shipped_aversion_corpus() -> str:
    """Path of the recorded aversion-reply corpus shipped as package data."""
    return str(resources.files("bondflow").joinpath("data", "fixtures", "aversion_replay.jsonl"))


_BOUNDS = bounds_table({
    "max_steps": "int [0, inf)", "n_simulations": "int [1, inf)", "master_seed": "int [-inf, inf]",
    "parallelism": "int [1, inf)", "rolling_window": "int [1, inf)",
    # inf is valid: a needy market maker always tops up fully.
    "interbank_runway_steps": "[0, inf]",
})


@dataclass(frozen=True)
class ExperimentConfig:
    landscape: LandscapeConfig = field(default_factory=LandscapeConfig)
    agents: AgentConfig = field(default_factory=AgentConfig)
    provider: ProviderConfig = field(default_factory=ProviderConfig)
    max_steps: int = DEFAULT_MAX_STEPS
    n_simulations: int = 200
    master_seed: int = 42
    output_dir: str | None = None
    parallelism: int = 1
    interbank_runway_steps: float = DEFAULT_INTERBANK_RUNWAY_STEPS
    rolling_window: int = DEFAULT_ROLLING_WINDOW
    journal: bool | None = None  # None = journal unless replaying
    preset: str | None = None

    def __post_init__(self) -> None:
        check_bounds(_BOUNDS, self)
        grid, agents = self.landscape, self.agents
        # A base can span the grid, and a contact pick draws below at most 2**32 (``BufferedIntegers``).
        if grid.grid_width * grid.grid_height > 1 << 32:
            raise ConfigError(f"a {grid.grid_width}x{grid.grid_height} grid has more than 2**32 cells")
        # Every client at its cap and every agent at its largest endowment: the totals must be finite.
        for name in ("bonds", "cash"):
            worst = float(getattr(grid, f"max_{name}")) * grid.grid_width * grid.grid_height
            if not math.isfinite(worst + float(getattr(agents, f"init_{name}_max")) * agents.n_agents):
                raise ConfigError(f"the worst-case total of {name}, every holder at its cap, overflows a float")

    def journal_enabled(self) -> bool:
        if self.journal is not None:
            return self.journal
        return self.provider.kind is not ProviderKind.REPLAY


# --------------------------------------------------------------------------
# Presets and config resolution


# Each preset: its values over the config defaults, as dotted keys, and its
# pins: the values each pinned field may take. A pin is checked on the
# resolved value, so restating a pinned field at the preset's value is fine.
_PRESETS: dict[str, tuple[dict[str, Any], dict[str, set[Any]]]] = {
    "exp1": (
        {
            "landscape.availability_p": 0.20,
            "provider.kind": ProviderKind.BERNOULLI,
            "provider.bernoulli_p": 0.5,
            "n_simulations": 200,
        },
        {
            "provider.kind": {ProviderKind.BERNOULLI},
            "provider.prompt_template": {PromptTemplate.TIMELINESS},
            "provider.replay_path": {None},
            "provider.burst_stay_yes": {ProviderConfig.burst_stay_yes},
            "provider.burst_stay_no": {ProviderConfig.burst_stay_no},
        },
    ),
    "exp2": (
        {
            "landscape.availability_p": 0.20,
            "provider.kind": ProviderKind.REPLAY,
            "provider.replay_path": shipped_aversion_corpus(),
            "provider.prompt_template": PromptTemplate.AVERSION2,
            "n_simulations": 200,
        },
        {
            "provider.kind": {ProviderKind.REPLAY, ProviderKind.LIVE_LLM},
            "provider.prompt_template": {
                PromptTemplate.AVERSION1, PromptTemplate.AVERSION2, PromptTemplate.AVERSION3,
            },
            "provider.bernoulli_p": {ProviderConfig.bernoulli_p},
            "provider.burst_stay_yes": {ProviderConfig.burst_stay_yes},
            "provider.burst_stay_no": {ProviderConfig.burst_stay_no},
        },
    ),
    "exp3": (
        {
            "landscape.availability_p": 0.40,
            "provider.kind": ProviderKind.SYNTHETIC_BURSTY,
            "provider.prompt_template": PromptTemplate.TIMELINESS,
            "n_simulations": 150,
        },
        {
            "provider.kind": {
                ProviderKind.SYNTHETIC_BURSTY, ProviderKind.REPLAY, ProviderKind.LIVE_LLM,
            },
            "provider.prompt_template": {PromptTemplate.TIMELINESS},
            "provider.bernoulli_p": {ProviderConfig.bernoulli_p},
        },
    ),
}
PRESET_NAMES = tuple(_PRESETS)

_SECTIONS = ("landscape", "agents", "provider")


def _field_types(cls: type, prefix: str = "") -> dict[str, tuple[type, ...]]:
    """The types each config field may hold, by dotted key."""
    types: dict[str, tuple[type, ...]] = {}
    for name, hint in get_type_hints(cls).items():
        if dataclasses.is_dataclass(hint):
            types.update(_field_types(hint, f"{name}."))
        else:
            types[prefix + name] = get_args(hint) or (hint,)
    return types


_FIELD_TYPES = _field_types(ExperimentConfig)


def _coerce(key: str, value: Any) -> Any:
    """``value`` checked against the field's type.

    An enum field takes a member or its value. A float field takes an int,
    kept unconverted so an echo keeps its bytes; a bool is not an int. None
    fits only a field whose default is None.
    """
    if key not in _FIELD_TYPES:
        raise ConfigError(f"unknown config key {key!r}")
    for t in _FIELD_TYPES[key]:
        if type(value) is t or (t is float and type(value) is int):
            return value
        if issubclass(t, enum.Enum) and isinstance(value, str):
            try:
                return t(value)
            except ValueError:
                raise ConfigError(f"invalid value {value!r} for {key}") from None
    expected = " or ".join("null" if t is type(None) else t.__name__ for t in _FIELD_TYPES[key])
    raise ConfigError(f"{key} must be {expected}, got {value!r}")


def _apply_updates(
    cfg: ExperimentConfig, *layers: Mapping[str, Any]
) -> tuple[ExperimentConfig, str | None]:
    """Apply layers of updates in order, a later layer winning.

    A key is dotted (``provider.kind``) or names a whole section with a
    mapping, as a config file writes it. ``provider.replay_sha256``, which
    an echo writes in place of the corpus path, is returned beside the
    config, for ``_resolve`` to check.
    """
    flat: dict[str, Any] = {}
    for layer in layers:
        for key, value in layer.items():
            if key == "preset":
                raise ConfigError("preset cannot be overridden; name it as the source or in a config file")
            if key in _SECTIONS:
                if not isinstance(value, Mapping):
                    raise ConfigError(f"config section {key!r} must be a mapping")
                flat.update((f"{key}.{leaf}", leaf_value) for leaf, leaf_value in value.items())
            else:
                flat[key] = value
    replay_sha256 = flat.pop("provider.replay_sha256", None)
    updates: dict[str, dict[str, Any]] = {}
    for key, value in flat.items():
        value = _coerce(key, value)
        section, _, leaf = key.rpartition(".")
        updates.setdefault(section, {})[leaf] = value
    top = updates.pop("", {})
    for section, values in updates.items():
        top[section] = replace(getattr(cfg, section), **values)
    return replace(cfg, **top), replay_sha256


def _resolve(
    preset: str | None, *layers: Mapping[str, Any], replay_path: str | None = None
) -> ExperimentConfig:
    """Defaults, then the preset's values, then each layer; pins checked.

    A ``replay_path`` then makes the config replay that corpus, past the
    pins. An echo's ``provider.replay_sha256`` names the corpus its run
    read: it must be the sha256 of the resolved ``provider.replay_path``
    or of the ``replay_path`` given. So a run's echo replays the corpus
    that run read, and any journal it recorded.
    """
    if preset is not None and preset not in PRESET_NAMES:
        raise ConfigError(f"unknown preset {preset!r} (expected one of {', '.join(PRESET_NAMES)})")
    values, pins = _PRESETS[preset] if preset else ({}, {})
    cfg, replay_sha256 = _apply_updates(ExperimentConfig(preset=preset), values, *layers)
    for key, allowed in pins.items():
        value = functools.reduce(getattr, key.split("."), cfg)
        if value not in allowed:
            shown = ", ".join(sorted(str(getattr(v, "value", v)) for v in allowed))
            raise ConfigError(
                f"preset {preset} pins {key} to {{{shown}}}; "
                f"{getattr(value, 'value', value)!r} contradicts the preset"
            )
    corpora = [path for path in (replay_path, cfg.provider.replay_path) if path is not None]
    if replay_sha256 is not None and not any(_file_sha256(path) == replay_sha256 for path in corpora):
        shown = " or ".join(corpora) or "none given"
        raise ConfigError(f"provider.replay_sha256 is not the sha256 of the replay corpus ({shown})")
    if replay_path is not None:
        cfg = replace(cfg, provider=replace(cfg.provider, kind=ProviderKind.REPLAY, replay_path=replay_path))
    return cfg


def resolve_preset(
    name: str, overrides: Mapping[str, Any] | None = None
) -> ExperimentConfig:
    """Preset base plus explicit dotted-key overrides, pin-checked."""
    return _resolve(name, overrides or {})


def resolve_config(
    source: str, overrides: Mapping[str, Any] | None = None, *, replay_path: str | None = None
) -> ExperimentConfig:
    """Resolve a CLI source argument: a preset name or a config-file path.

    A config file is a YAML mapping, optionally naming its ``preset:``.
    Precedence: overrides (CLI) > file values > preset values.
    ``replay_path`` is the replay command's corpus: the config replays it,
    whatever the preset pins.
    """
    if source in PRESET_NAMES:
        return _resolve(source, overrides or {}, replay_path=replay_path)
    if not Path(source).exists():
        raise ConfigError(f"{source!r} is neither a preset ({', '.join(PRESET_NAMES)}) nor a config file")
    try:
        data = yaml.safe_load(Path(source).read_text(encoding="utf-8")) or {}
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {source}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {source}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {source} must contain a mapping")
    return _resolve(data.pop("preset", None), data, overrides or {}, replay_path=replay_path)


# Fields that affect how a batch executes but not a single numeric output.
# They live in the manifest, not the config echo, so output trees stay
# byte-identical across parallelism degrees and directory choices. The
# replay corpus is one of them by location only: the echo names it by the
# sha256 of its bytes (``provider.replay_sha256``) instead of its path.
_EXECUTION_FIELDS = ("parallelism", "output_dir")


def config_to_dict(cfg: ExperimentConfig) -> dict[str, Any]:
    """Plain-type dict mirror of the config (enums by value), YAML/JSON-safe.

    Execution fields are left out; a set ``provider.replay_path`` becomes
    ``provider.replay_sha256``, which reads the corpus (ConfigError if it
    cannot be read).
    """

    def scrub(obj: Any) -> Any:
        if dataclasses.is_dataclass(obj):
            return {f.name: scrub(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
        if isinstance(obj, enum.Enum):
            return obj.value
        return obj

    data = scrub(cfg)
    for name in _EXECUTION_FIELDS:
        del data[name]
    provider = data["provider"]
    if provider["replay_path"] is not None:
        provider["replay_sha256"] = _file_sha256(provider.pop("replay_path"))
    return data


def _file_sha256(path: str) -> str:
    """sha256 of a file, read in chunks."""
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            while chunk := fh.read(1 << 16):
                digest.update(chunk)
    except OSError as exc:
        raise ConfigError(f"cannot read replay corpus: {exc}") from exc
    return digest.hexdigest()


def _echo_hash(echo: Mapping[str, Any]) -> str:
    """sha256 of a config echo's canonical JSON."""
    canon = json.dumps(echo, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def config_hash(cfg: ExperimentConfig) -> str:
    """Content hash of the resolved config; changes iff any field changes."""
    return _echo_hash(config_to_dict(cfg))


# --------------------------------------------------------------------------
# Batch execution


# One simulation of a batch: (config, sim_id, its replay slice or None).
_Task = tuple[ExperimentConfig, int, list[JournalRecord] | None]
# What a worker hands back for every sim, however it ended, serial or pooled:
# (sim_id, pickled result, summary, decision states, rows and journal if the
# batch writes a tree, abort reason, worker traceback). A sim that finished
# has no reason, one aborted by its result no summary, and one that raised
# only its reason and traceback.
_SimDone = tuple[int, bytes | None, SimulationSummary | None, list[DecisionState] | None,
                 tuple[str, str, str, str, str | None] | None, str | None, str | None]

def _finite_float(raw: str) -> float:
    """A summaries.csv float cell; a run never writes NaN or an infinity."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {raw!r}")
    return value


# summaries.csv cell (format, parse), keyed by each SimulationSummary field's
# annotation. Summary floats are Python floats, so repr is their shortest form.
_SUMMARY_CELLS: dict[str, tuple[Callable[[Any], str], Callable[[str], Any]]] = {
    "int": (str, int),
    "float": (repr, _finite_float),
    "TerminalReason | None": (lambda reason: reason.value, TerminalReason),
}
_SUMMARY_FORMATS = [(f.name, _SUMMARY_CELLS[f.type][0]) for f in dataclasses.fields(SimulationSummary)]

# The logs every sim appends to, with their headers, in the order of the
# rows ``_encode_rows`` returns.
_LOG_HEADERS = {
    TRADES_CSV: "sim_id,step,mm_id,counterparty_kind,counterparty,direction,bond_qty,cash_qty\n",
    DECISIONS_CSV: "sim_id,seq,step,mm_id,x,y,state,provider\n",
    LIFECYCLE_CSV: "sim_id,mm_id,ceased_at_step,breadth,bond_rate,cash_rate\n",
    SUMMARIES_CSV: ",".join(name for name, _ in _SUMMARY_FORMATS) + "\n",
}
# A log is appended to under this suffix and moved into place when the sims end.
_PARTIAL = ".partial"


def _one_line(exc: BaseException) -> str:
    """``"<Type>: <first line of the message>"``."""
    return f"{type(exc).__name__}: {(str(exc).splitlines() or [''])[0]}"


def _run_one_task(task: _Task) -> _SimDone:
    """Every batch's entry point, serial or pooled; must stay module-level and picklable.

    Runs one sim of the batch with the configured provider, summarizes it
    and, if the batch writes a tree, encodes its log rows and its journal.
    So a pooled batch does all of a sim's work in the worker, and the
    parent only appends; a batch without a tree encodes nothing. The result
    comes back pickled, so no batch holds a live result until ``results``
    is read.

    Each sim, even in a pooled chunk, comes back as one ``_SimDone``. A bug
    (any exception but ``ProviderHardFailure``) is returned, not raised, with
    its traceback as text: a traceback object does not pickle.
    """
    cfg, sim_id, replay_slice = task
    seed = simulation_seed(cfg.master_seed, sim_id)
    try:
        result = Simulation(
            sim_id,
            seed,
            cfg.landscape,
            cfg.agents,
            build_provider(cfg.provider, seed, replay_slice),
            max_steps=cfg.max_steps,
            interbank_runway_steps=cfg.interbank_runway_steps,
        ).run()
        summary = None if result.aborted else summarize_simulation(result)
        template = cfg.provider.prompt_template if cfg.journal_enabled() else None
        rows = _encode_rows(result, summary, template) if cfg.output_dir else None
        encoded = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
        return sim_id, encoded, summary, [o.state for _, o in result.decisions], rows, result.abort_reason, None
    except ProviderHardFailure:
        raise  # outside a run (building its provider): the whole batch fails
    except Exception as exc:
        return sim_id, None, None, None, None, _one_line(exc), traceback.format_exc().rstrip()


def _encode_rows(
    r: SimulationResult, summary: SimulationSummary | None, template: PromptTemplate | None
) -> tuple[str, str, str, str, str | None]:
    """One sim's trades, decisions, lifecycle and summary rows, as CSV text, and its journal.

    An aborted sim has no summary, so it has no summary row. With no
    ``template`` (a batch that keeps no journal) the journal is None.

    Every float formatted with repr is a Python float, whose repr is what
    str(float(x)) gives; no field can need csv quoting. A trade leg whose
    two quantities are one float object (an interbank leg, a client buy)
    formats it once; identity, not equality, so 0.0 and -0.0 stay apart.
    An enum's value is read as ``_value_``, which runs no Python-level hash.
    """
    sid, client = r.sim_id, CounterpartyKind.CLIENT
    trades = []
    for step, mm_id, kind, counterparty, direction, bond_qty, cash_qty in r.trades:
        bond = repr(bond_qty)
        cash = bond if cash_qty is bond_qty else repr(cash_qty)
        if kind is client:
            x, y = counterparty
            trades.append(f"{sid},{step},{mm_id},client,{x}:{y},{direction._value_},{bond},{cash}\n")
        else:
            trades.append(f"{sid},{step},{mm_id},mm,{counterparty},,{bond},{cash}\n")
    decisions = [
        f"{q_sim},{seq},{step},{mm_id},{x},{y},{o.state._value_},{o.provider._value_}\n"
        for (q_sim, step, mm_id, (x, y), _, _, seq), o in r.decisions
    ]
    lifecycle = [
        f"{sid},{mm.id},{'' if mm.ceased_at_step is None else mm.ceased_at_step},"
        f"{mm.breadth},{mm.bond_rate!r},{mm.cash_rate!r}\n"
        for mm in r.mms
    ]
    summary_row = ""
    if summary is not None:
        summary_row = ",".join(fmt(getattr(summary, name)) for name, fmt in _SUMMARY_FORMATS) + "\n"
    journal = None if template is None else "".join([journal_line(q, o, template) for q, o in r.decisions])
    return "".join(trades), "".join(decisions), "".join(lifecycle), summary_row, journal


@dataclass
class BatchResult:
    """A batch as far as it ran, filled in as its sims finish; every batch decodes its results on first read."""

    config: ExperimentConfig
    summaries: list[SimulationSummary] = field(default_factory=list)
    batch: BatchSummary | None = None
    series: YesRatioSeries | None = None
    aborted: list[tuple[int, str]] = field(default_factory=list)
    output_dir: Path | None = None
    _results: list[SimulationResult | bytes] = field(default_factory=list, repr=False)

    @property
    def results(self) -> list[SimulationResult]:
        """Each sim's result that ran, in sim order; the first read decodes them all."""
        self._results[:] = [pickle.loads(r) if type(r) is bytes else r for r in self._results]
        return self._results

    @property
    def skipped(self) -> list[int]:
        """The sims never run: after the first abort, or after the last result."""
        handled = self.aborted[0][0] + 1 if self.aborted else len(self._results)
        return list(range(handled, self.config.n_simulations))

    @property
    def ok(self) -> bool:
        return not self.aborted


def run_batch(cfg: ExperimentConfig) -> BatchResult:
    """Run the whole batch and (if output_dir is set) write the artifact tree.

    The config echo is built once, before the sims, so an unreadable
    replay corpus fails the batch before any sim runs, as does one with
    fewer simulation slices than sims. The echo is written, and
    ``journals/`` made, before the first sim.

    Each sim's rows of the four logs are appended, in sim order, as it
    finishes, and its journal is written then. The first sim that aborts
    ends the batch, with manifest status ``partial``; the later sims are
    skipped. A sim whose result says it aborted (a hard provider failure
    mid-run, conservation drift) keeps its rows up to the failure and its
    journal, but no ``summaries.csv`` row; one that raised an exception
    other than ``ProviderHardFailure`` (recorded as ``"<Type>: <message>"``)
    leaves nothing. An exception outside every sim propagates, after the
    logs finished so far are moved into place. The manifest is written
    last, however the batch ends (status ``failed`` and a one-line
    ``error`` if an exception ended it); ``finished_at`` is when.

    Every sim runs the configured provider. A custom provider runs one sim
    at a time through ``Simulation(...).run()``.
    """
    out_dir = Path(cfg.output_dir) if cfg.output_dir else None
    echo = config_to_dict(cfg) if out_dir is not None else None

    replay_slices: list[list[JournalRecord]] | None = None
    if cfg.provider.kind is ProviderKind.REPLAY:
        try:
            corpus = read_journal(cfg.provider.replay_path)
        except OSError as exc:
            raise ConfigError(f"cannot read replay corpus: {exc}") from exc
        replay_slices = split_journal(corpus)
        if len(replay_slices) < cfg.n_simulations:
            raise ConfigError(
                f"replay corpus {cfg.provider.replay_path} holds {len(replay_slices)} simulation slices "
                f"for {cfg.n_simulations} simulations (a simulation that made no decision leaves no slice)"
            )
    if cfg.provider.kind is ProviderKind.LIVE_LLM:
        LiveLLMProvider(cfg.provider)  # fail fast on missing credentials

    tasks: list[_Task] = [
        (cfg, i, None if replay_slices is None else replay_slices[i]) for i in range(cfg.n_simulations)
    ]

    batch = BatchResult(cfg, output_dir=out_dir)
    started_at = _dt.datetime.now(_dt.timezone.utc)
    if out_dir is not None:
        _clear_tree(out_dir)
        with open(out_dir / CONFIG_ECHO, "w", encoding="utf-8", newline="") as fh:
            yaml.safe_dump(echo, fh, sort_keys=True, default_flow_style=False)
        if cfg.journal_enabled():
            (out_dir / JOURNAL_DIR).mkdir()
    with contextlib.ExitStack() as tree:
        if out_dir is not None:
            # Runs last, however the batch ends; an exception goes on as it is.
            tree.push(lambda _, exc, __: _write_manifest(batch, echo, started_at, exc and _one_line(exc)))
        with contextlib.ExitStack() as stack:
            logs = []
            pooled_states: list[DecisionState] = []  # in (sim_id, seq) order, over everything logged
            if out_dir is not None:
                # Runs once every log is closed, however the sims end.
                stack.callback(_publish_logs, out_dir)
                for name, header in _LOG_HEADERS.items():
                    fh = stack.enter_context(open(out_dir / (name + _PARTIAL), "w", encoding="utf-8", newline=""))
                    fh.write(header)
                    logs.append(fh)
            if cfg.parallelism <= 1:
                runs = map(_run_one_task, tasks)
            else:
                # Threads for live runs, so the request-rate limiter is really
                # shared across concurrent sims; processes otherwise. Threads
                # ignore chunksize.
                executor = (
                    concurrent.futures.ThreadPoolExecutor
                    if cfg.provider.kind is ProviderKind.LIVE_LLM
                    else concurrent.futures.ProcessPoolExecutor
                )
                pool = stack.enter_context(executor(max_workers=cfg.parallelism))
                # Leaving early (an abort) cancels the sims no worker has started.
                stack.callback(pool.shutdown, cancel_futures=True)
                chunk = max(1, cfg.n_simulations // (cfg.parallelism * 4))
                runs = pool.map(_run_one_task, tasks, chunksize=chunk)
            for sim_id, result, summary, states, rows, reason, raised in runs:
                if result is not None:
                    batch._results.append(result)
                    pooled_states += states
                if rows is not None:
                    *log_rows, journal = rows
                    for fh, text in zip(logs, log_rows):
                        fh.write(text)
                    if journal is not None:
                        path = out_dir / JOURNAL_DIR / f"sim_{sim_id:04d}.jsonl"
                        path.write_text(journal, encoding="utf-8", newline="")
                if reason is not None:
                    batch.aborted.append((sim_id, reason))
                    logger.error("simulation %d aborted: %s%s", sim_id, reason, "\n" + raised if raised else "")
                    break
                batch.summaries.append(summary)

        if batch.summaries:
            batch.batch = aggregate_batch(batch.summaries)
        if pooled_states:
            batch.series = yes_ratio_series(pooled_states, cfg.rolling_window)
        if out_dir is not None:
            write_outputs(batch)
    return batch


# --------------------------------------------------------------------------
# Output assembly


# Every artifact a run writes at the top of its tree.
_ARTIFACTS = (
    *_LOG_HEADERS,
    SERIES_CSV,
    CONFIG_ECHO,
    MANIFEST_JSON,
    *(name for pair in TABLE_FILES.values() for name in pair),
)


def _clear_tree(out: Path) -> None:
    """Make ``out`` and drop every artifact an earlier run left there.

    Other files in the directory are left alone. So a rerun into the same
    directory leaves no earlier run's artifacts, whether it ends or fails.
    An ``out`` that is, or lies under, a file is a ``ConfigError``.
    """
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise ConfigError(f"output directory {out} cannot be made: {exc}") from exc
    if (out / JOURNAL_DIR).exists():
        shutil.rmtree(out / JOURNAL_DIR)
    for name in _ARTIFACTS:
        (out / name).unlink(missing_ok=True)


def _publish_logs(out: Path) -> None:
    """Move each log appended so far into place."""
    for name in _LOG_HEADERS:
        with contextlib.suppress(FileNotFoundError):
            os.replace(out / (name + _PARTIAL), out / name)


def write_outputs(batch: BatchResult) -> None:
    """Write a batch's series and tables; its per-sim files are in place."""
    assert batch.output_dir is not None
    out = batch.output_dir

    if batch.series is not None:
        series = batch.series
        rows = zip(series.positions, series.cumulative)
        # A rolling ratio is an integer count divided once (never -0.0), so
        # the series holds few distinct values: each is formatted once.
        rolling = {r: repr(r) for r in set(series.rolling)}
        with open(out / SERIES_CSV, "w", encoding="utf-8", newline="") as fh:
            fh.write("seq,cumulative,rolling\n")
            # The rows before the first full window have no rolling ratio.
            fh.writelines(f"{pos},{c!r},\n" for pos, c in itertools.islice(rows, series.window - 1))
            fh.writelines(f"{pos},{c!r},{rolling[r]}\n" for (pos, c), r in zip(rows, series.rolling))

    write_tables(out, batch.batch, batch.series)


def _write_manifest(batch: BatchResult, echo: dict[str, Any], started_at: _dt.datetime, error: str | None) -> None:
    """The run's metadata; ``echo`` is hashed for ``config_sha256``, ``error`` names what failed the batch."""
    cfg = batch.config
    manifest = {
        "schema_version": 1,
        "started_at": started_at.isoformat(),
        "finished_at": _dt.datetime.now(_dt.timezone.utc).isoformat(),
        "master_seed": cfg.master_seed,
        "provider_kind": cfg.provider.kind.value,
        "preset": cfg.preset,
        "n_simulations": cfg.n_simulations,
        "parallelism": cfg.parallelism,
        "output_dir": str(batch.output_dir),
        "replay_path": cfg.provider.replay_path,
        "completed": len(batch.summaries),
        "aborted": [{"sim_id": sid, "reason": reason} for sid, reason in batch.aborted],
        "skipped": batch.skipped,
        "config_sha256": _echo_hash(echo),
        "status": "failed" if error else "ok" if batch.ok else "partial",
        "error": error,
        "python_version": platform.python_version(),
        "numpy_version": numpy.__version__,
        "pyyaml_version": yaml.__version__,
        "numpy_cpu_features": sorted(name for name, enabled in __cpu_features__.items() if enabled),
    }
    with open(batch.output_dir / MANIFEST_JSON, "w", encoding="utf-8", newline="") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_tables(
    out: Path, summary: BatchSummary | None, series: YesRatioSeries | None
) -> dict[str, str]:
    """Emit each stats table there is data for as CSV and pretty text.

    Returns the pretty text of each written table keyed by table kind.
    """
    rendered: dict[str, tuple[str, str]] = {}
    if summary is not None:
        rendered["full"] = render_full_stats_table(summary)
        rendered["client"] = render_client_stats_table(summary)
    if series is not None:
        rendered["yes_ratio"] = render_yes_ratio_table(series)
    for kind, (csv_text, pretty) in rendered.items():
        csv_name, txt_name = TABLE_FILES[kind]
        (out / csv_name).write_text(csv_text, encoding="utf-8")
        (out / txt_name).write_text(pretty, encoding="utf-8")
    return {kind: pretty for kind, (_, pretty) in rendered.items()}


# --------------------------------------------------------------------------
# Rebuilding tables from a finished output tree (the `tables` command)


def _parse_summary_row(row: Mapping[str, str]) -> SimulationSummary:
    return SimulationSummary(
        **{f.name: _SUMMARY_CELLS[f.type][1](row[f.name]) for f in dataclasses.fields(SimulationSummary)}
    )


def _read_rows(path: Path, parse: Callable[[Mapping[str, str]], Any]) -> list[Any]:
    """Each data row of a CSV log, parsed; an unreadable log or a malformed row is a ``ConfigError``."""
    import csv

    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            rows = []
            for row in reader:
                try:
                    if None in row or None in row.values():
                        raise ValueError("the row and the header have different numbers of cells")
                    rows.append(parse(row))
                except (ValueError, LookupError, TypeError) as exc:
                    reason = f"{type(exc).__name__}: {exc}"
                    raise ConfigError(f"{path}, line {reader.line_num}: malformed row ({reason})") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    return rows


def load_output_dir(out: Path | str) -> tuple[list[SimulationSummary], list[DecisionState]]:
    """Summaries and the pooled decision stream from a finished output tree."""
    out = Path(out)
    summaries = _read_rows(out / SUMMARIES_CSV, _parse_summary_row)
    return summaries, _read_rows(out / DECISIONS_CSV, lambda row: DecisionState(row["state"]))


def rebuild_tables(out: Path | str, window: int | None = None) -> dict[str, str]:
    """Recompute and rewrite the stats tables from a run's CSV logs.

    ``window`` defaults to the run's own rolling window, read from its
    config echo. Returns the pretty text of each table keyed by table kind.
    """
    out = Path(out)
    summaries, states = load_output_dir(out)
    if not summaries:
        raise ConfigError(f"{out} holds no completed simulations to tabulate")
    source: Path | str = "the window argument"
    try:
        if window is None:
            source = out / CONFIG_ECHO
            window = yaml.safe_load(source.read_text(encoding="utf-8"))["rolling_window"]
        check_bound(_BOUNDS, "rolling_window", window)
    except (OSError, yaml.YAMLError, TypeError, KeyError, ValueError) as exc:
        raise ConfigError(f"no usable rolling window from {source}: {exc}") from exc
    series = yes_ratio_series(states, window) if states else None
    return write_tables(out, aggregate_batch(summaries), series)
