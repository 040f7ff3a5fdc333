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
excluding it. A batch builds its config echo once, before the sims, and the
manifest's ``config_sha256`` is that echo's hash.
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
import shutil
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Mapping, get_args, get_type_hints

import yaml

from .agents import AgentConfig
from .decision import (
    DecisionProvider,
    DecisionState,
    JournalRecord,
    ProviderConfig,
    ProviderKind,
    build_provider,
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
from .errors import ConfigError
from .landscape import Direction, LandscapeConfig
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


def shipped_timeliness_fixture() -> str:
    """Path of the 10k-decision bursty fixture shipped as package data."""
    return str(resources.files("bondflow").joinpath("data", "fixtures", "timeliness_10k.jsonl"))


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
        if self.n_simulations < 1:
            raise ConfigError("n_simulations must be >= 1")
        if self.parallelism < 1:
            raise ConfigError("parallelism must be >= 1")
        if self.max_steps < 0:
            raise ConfigError("max_steps must be >= 0")
        if self.interbank_runway_steps < 0:
            raise ConfigError("interbank_runway_steps must be >= 0")
        if self.rolling_window < 1:
            raise ConfigError("rolling_window must be >= 1")

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


def _apply_updates(cfg: ExperimentConfig, *layers: Mapping[str, Any]) -> ExperimentConfig:
    """Apply layers of updates in order, a later layer winning.

    A key is dotted (``provider.kind``) or names a whole section with a
    mapping, as a config file writes it. ``provider.replay_sha256``, which
    an echo writes in place of the corpus path, is accepted only when it is
    the sha256 of the resolved ``provider.replay_path``, and then dropped.
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
    cfg = replace(cfg, **top)
    if replay_sha256 is not None:
        path = cfg.provider.replay_path
        if path is None or _file_sha256(path) != replay_sha256:
            raise ConfigError(f"provider.replay_sha256 is not the sha256 of the replay corpus ({path})")
    return cfg


def _resolve(preset: str | None, *layers: Mapping[str, Any]) -> ExperimentConfig:
    """Defaults, then the preset's values, then each layer; pins checked."""
    if preset is not None and preset not in PRESET_NAMES:
        raise ConfigError(f"unknown preset {preset!r} (expected one of {', '.join(PRESET_NAMES)})")
    values, pins = _PRESETS[preset] if preset else ({}, {})
    cfg = _apply_updates(ExperimentConfig(preset=preset), values, *layers)
    for key, allowed in pins.items():
        value = functools.reduce(getattr, key.split("."), cfg)
        if value not in allowed:
            shown = ", ".join(sorted(str(getattr(v, "value", v)) for v in allowed))
            raise ConfigError(
                f"preset {preset} pins {key} to {{{shown}}}; "
                f"{getattr(value, 'value', value)!r} contradicts the preset"
            )
    return cfg


def resolve_preset(
    name: str, overrides: Mapping[str, Any] | None = None
) -> ExperimentConfig:
    """Preset base plus explicit dotted-key overrides, pin-checked."""
    return _resolve(name, overrides or {})


def load_config_file(path: Path | str, overrides: Mapping[str, Any] | None = None) -> ExperimentConfig:
    """Config from a YAML document, optionally based on a preset.

    Precedence: overrides (CLI) > file values > preset values.
    """
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = yaml.safe_load(raw) or {}
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must contain a mapping")
    return _resolve(data.pop("preset", None), data, overrides or {})


def resolve_config(source: str, overrides: Mapping[str, Any] | None = None) -> ExperimentConfig:
    """Resolve a CLI source argument: a preset name or a config-file path."""
    if source in PRESET_NAMES:
        return resolve_preset(source, overrides)
    if Path(source).exists():
        return load_config_file(source, overrides)
    raise ConfigError(f"{source!r} is neither a preset ({', '.join(PRESET_NAMES)}) nor a config file")


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
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
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
    """sha256 of a file, read in chunks: the echo is written at peak memory."""
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


def _run_one_task(task: _Task, provider: DecisionProvider | None = None) -> SimulationResult:
    """Worker entry point; must stay module-level and picklable.

    Builds the configured provider unless one is injected.
    """
    cfg, sim_id, replay_slice = task
    if provider is None:
        provider = build_provider(cfg.provider, replay_slice)
    return Simulation(
        sim_id,
        simulation_seed(cfg.master_seed, sim_id),
        cfg.landscape,
        cfg.agents,
        provider,
        max_steps=cfg.max_steps,
        interbank_runway_steps=cfg.interbank_runway_steps,
        journal_template=cfg.provider.prompt_template if cfg.journal_enabled() else None,
    ).run()


@dataclass
class BatchResult:
    config: ExperimentConfig
    results: list[SimulationResult]
    summaries: list[SimulationSummary]
    batch: BatchSummary | None
    series: YesRatioSeries | None
    aborted: list[tuple[int, str]]
    skipped: list[int]
    output_dir: Path | None

    @property
    def ok(self) -> bool:
        return not self.aborted and not self.skipped


ProviderFactory = Callable[[int], DecisionProvider]


def run_batch(
    cfg: ExperimentConfig,
    *,
    provider_factory: ProviderFactory | None = None,
) -> BatchResult:
    """Run the whole batch and (if output_dir is set) write the artifact tree.

    The config echo is built once, before the sims, so an unreadable
    replay corpus fails the batch before any sim runs.

    provider_factory injects a custom provider per sim_id (testing and
    fixture capture); it bypasses the configured provider kind but keeps
    every other contract (journaling, seeding, outputs) intact.
    """
    out_dir = Path(cfg.output_dir) if cfg.output_dir else None
    echo = config_to_dict(cfg) if out_dir is not None else None

    replay_slices: list[list[JournalRecord]] | None = None
    if provider_factory is None and cfg.provider.kind is ProviderKind.REPLAY:
        try:
            corpus = read_journal(cfg.provider.replay_path)
        except OSError as exc:
            raise ConfigError(f"cannot read replay corpus: {exc}") from exc
        replay_slices = split_journal(corpus)
        if len(replay_slices) < cfg.n_simulations:
            logger.warning(
                "replay corpus holds %d simulation slices for %d simulations; "
                "extra simulations will replay empty journals (all Error)",
                len(replay_slices), cfg.n_simulations,
            )
    if provider_factory is None and cfg.provider.kind is ProviderKind.LIVE_LLM:
        build_provider(cfg.provider)  # fail fast on missing credentials

    tasks: list[_Task] = []
    for i in range(cfg.n_simulations):
        replay_slice: list[JournalRecord] | None = None
        if replay_slices is not None:
            replay_slice = replay_slices[i] if i < len(replay_slices) else []
        tasks.append((cfg, i, replay_slice))

    results: list[SimulationResult] = []
    aborted: list[tuple[int, str]] = []
    started_at = _dt.datetime.now(_dt.timezone.utc)
    with contextlib.ExitStack() as stack:
        if provider_factory is not None or cfg.parallelism <= 1 or cfg.n_simulations == 1:
            runs = (
                _run_one_task(task, provider_factory(task[1]) if provider_factory is not None else None)
                for task in tasks
            )
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
            chunk = max(1, cfg.n_simulations // (cfg.parallelism * 4))
            runs = pool.map(_run_one_task, tasks, chunksize=chunk)
        for result in runs:
            results.append(result)
            if result.aborted:
                aborted.append((result.sim_id, result.abort_reason or "unknown"))
                logger.error("simulation %d aborted: %s", result.sim_id, result.abort_reason)
                break
    finished_at = _dt.datetime.now(_dt.timezone.utc)
    skipped = list(range(len(results), cfg.n_simulations))

    completed = [r for r in results if not r.aborted]
    summaries = [summarize_simulation(r) for r in completed]
    batch = aggregate_batch(summaries) if summaries else None

    # Pooled decision stream in (sim_id, seq) order, over everything logged.
    pooled_states: list[DecisionState] = []
    for r in results:
        pooled_states.extend(outcome.state for _, outcome in r.decisions)
    series = yes_ratio_series(pooled_states, cfg.rolling_window) if pooled_states else None

    batch_result = BatchResult(
        config=cfg,
        results=results,
        summaries=summaries,
        batch=batch,
        series=series,
        aborted=aborted,
        skipped=skipped,
        output_dir=out_dir,
    )
    if out_dir is not None:
        write_outputs(batch_result, echo, started_at, finished_at)
    return batch_result


# --------------------------------------------------------------------------
# Output assembly


# summaries.csv cell (format, parse), keyed by each SimulationSummary field's
# annotation. Summary floats are Python floats, so repr is their shortest form.
_SUMMARY_CELLS: dict[str, tuple[Callable[[Any], str], Callable[[str], Any]]] = {
    "int": (str, int),
    "float": (repr, float),
    "TerminalReason | None": (
        lambda reason: reason.value if reason else "",
        lambda raw: TerminalReason(raw) if raw else None,
    ),
}


def write_outputs(
    batch: BatchResult,
    echo: dict[str, Any],
    started_at: _dt.datetime,
    finished_at: _dt.datetime,
) -> None:
    """Write the full artifact tree for a finished batch.

    ``echo`` is ``config_to_dict(batch.config)``, written as the config echo
    and hashed for the manifest's ``config_sha256``.
    """
    assert batch.output_dir is not None
    out = batch.output_dir
    out.mkdir(parents=True, exist_ok=True)
    cfg = batch.config

    # A rerun into the same directory must leave no earlier run's artifacts:
    # drop the ones this run will not rewrite.
    if (out / JOURNAL_DIR).exists():
        shutil.rmtree(out / JOURNAL_DIR)
    stale: list[str] = []
    if batch.batch is None:
        stale += [*TABLE_FILES["full"], *TABLE_FILES["client"]]
    if batch.series is None:
        stale += [SERIES_CSV, *TABLE_FILES["yes_ratio"]]
    for name in stale:
        (out / name).unlink(missing_ok=True)

    # trades, decisions and the series are the bulk of the tree. Their rows
    # are f-strings streamed to the file one at a time, so memory stays flat.
    # Every float formatted with !r is a Python float, whose repr is what
    # str(float(x)) gives; no field can need csv quoting.
    value = {e: e.value for enum_cls in (Direction, DecisionState, ProviderKind) for e in enum_cls}
    with open(out / TRADES_CSV, "w", encoding="utf-8", newline="") as fh:
        fh.write("sim_id,step,mm_id,counterparty_kind,counterparty,direction,bond_qty,cash_qty\n")
        for r in batch.results:
            fh.writelines(
                f"{r.sim_id},{t.step},{t.mm_id},client,{t.counterparty[0]}:{t.counterparty[1]},"
                f"{value[t.client_direction]},{t.bond_qty!r},{t.cash_qty!r}\n"
                if t.counterparty_kind is CounterpartyKind.CLIENT
                else f"{r.sim_id},{t.step},{t.mm_id},mm,{t.counterparty},,{t.bond_qty!r},{t.cash_qty!r}\n"
                for t in r.trades
            )

    with open(out / DECISIONS_CSV, "w", encoding="utf-8", newline="") as fh:
        fh.write("sim_id,seq,step,mm_id,x,y,state,provider\n")
        for r in batch.results:
            fh.writelines(
                f"{q.sim_id},{q.sequence_no},{q.step},{q.mm_id},{q.client_position[0]},"
                f"{q.client_position[1]},{value[o.state]},{value[o.provider]}\n"
                for q, o in r.decisions
            )

    with open(out / LIFECYCLE_CSV, "w", encoding="utf-8", newline="") as fh:
        fh.write("sim_id,mm_id,ceased_at_step,breadth,bond_rate,cash_rate\n")
        for r in batch.results:
            fh.writelines(
                f"{r.sim_id},{mm.id},{'' if mm.ceased_at_step is None else mm.ceased_at_step},"
                f"{mm.breadth},{mm.bond_rate!r},{mm.cash_rate!r}\n"
                for mm in r.mms
            )

    cells = [(f.name, _SUMMARY_CELLS[f.type][0]) for f in dataclasses.fields(SimulationSummary)]
    with open(out / SUMMARIES_CSV, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(name for name, _ in cells) + "\n")
        fh.writelines(
            ",".join(fmt(getattr(s, name)) for name, fmt in cells) + "\n" for s in batch.summaries
        )

    if batch.series is not None:
        series = batch.series
        rows = zip(series.positions, series.cumulative)
        with open(out / SERIES_CSV, "w", encoding="utf-8", newline="") as fh:
            fh.write("seq,cumulative,rolling\n")
            # The rows before the first full window have no rolling ratio.
            fh.writelines(f"{pos},{c!r},\n" for pos, c in itertools.islice(rows, series.window - 1))
            fh.writelines(f"{pos},{c!r},{r!r}\n" for (pos, c), r in zip(rows, series.rolling))

    write_tables(out, batch.batch, batch.series)

    with open(out / CONFIG_ECHO, "w", encoding="utf-8", newline="") as fh:
        yaml.safe_dump(echo, fh, sort_keys=True, default_flow_style=False)

    if cfg.journal_enabled():
        jdir = out / JOURNAL_DIR
        jdir.mkdir(exist_ok=True)
        for r in batch.results:
            if r.journal is None:
                continue
            with open(jdir / f"sim_{r.sim_id:04d}.jsonl", "w", encoding="utf-8", newline="") as fh:
                fh.write(r.journal)

    manifest = {
        "schema_version": 1,
        "started_at": started_at.isoformat(),
        "finished_at": finished_at.isoformat(),
        "master_seed": cfg.master_seed,
        "provider_kind": cfg.provider.kind.value,
        "preset": cfg.preset,
        "n_simulations": cfg.n_simulations,
        "parallelism": cfg.parallelism,
        "output_dir": str(out),
        "replay_path": cfg.provider.replay_path,
        "completed": len(batch.summaries),
        "aborted": [{"sim_id": sid, "reason": reason} for sid, reason in batch.aborted],
        "skipped": batch.skipped,
        "config_sha256": _echo_hash(echo),
        "status": "ok" if batch.ok else "partial",
    }
    with open(out / MANIFEST_JSON, "w", encoding="utf-8", newline="") as fh:
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


def load_output_dir(out: Path | str) -> tuple[list[SimulationSummary], list[DecisionState]]:
    """Summaries and the pooled decision stream from a finished output tree."""
    import csv

    out = Path(out)
    summaries_path = out / SUMMARIES_CSV
    decisions_path = out / DECISIONS_CSV
    if not summaries_path.exists():
        raise ConfigError(f"{out} does not look like a batch output directory ({SUMMARIES_CSV} missing)")
    with open(summaries_path, encoding="utf-8", newline="") as fh:
        summaries = [_parse_summary_row(row) for row in csv.DictReader(fh)]
    states: list[DecisionState] = []
    if decisions_path.exists():
        with open(decisions_path, encoding="utf-8", newline="") as fh:
            states = [DecisionState(row["state"]) for row in csv.DictReader(fh)]
    return summaries, states


def rebuild_tables(out: Path | str, window: int | None = None) -> dict[str, str]:
    """Recompute and rewrite the stats tables from a run's CSV logs.

    ``window`` defaults to the run's own rolling window, read from its
    config echo. Returns the pretty text of each table keyed by table kind.
    """
    out = Path(out)
    summaries, states = load_output_dir(out)
    if not summaries:
        raise ConfigError(f"{out} holds no completed simulations to tabulate")
    if window is None:
        echo = out / CONFIG_ECHO
        try:
            window = int(yaml.safe_load(echo.read_text(encoding="utf-8"))["rolling_window"])
        except (OSError, yaml.YAMLError, TypeError, KeyError, ValueError) as exc:
            raise ConfigError(f"cannot read the rolling window from {echo}: {exc}") from exc
    series = yes_ratio_series(states, window) if states else None
    return write_tables(out, aggregate_batch(summaries), series)
