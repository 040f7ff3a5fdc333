"""Command-line interface.

Subcommands:

- run <preset|config-file>: execute a batch of simulations.
- replay <journal> <config>: rerun a recorded decision journal offline
  under the given config (bit-exact against the original run).
- tables <output-dir>: recompute the three stats tables from a finished
  run's CSV logs and print them.

Exit codes: 0 success, 1 configuration error, 2 provider hard failure,
3 partial batch (some simulations aborted or were skipped).
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any

from .decision import ProviderKind
from .errors import ConfigError, ProviderHardFailure
from .harness import PRESET_NAMES, rebuild_tables, resolve_config, run_batch

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG_ERROR = 1
EXIT_PROVIDER_FAILURE = 2
EXIT_PARTIAL_BATCH = 3

_PROVIDER_CHOICES = [k.value for k in ProviderKind]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bondflow",
        description="Deterministic simulator of a bilateral bond-dealing society.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a batch of simulations")
    run_p.add_argument(
        "source",
        help=f"preset name ({', '.join(PRESET_NAMES)}) or path to a YAML config file",
    )
    run_p.add_argument("--sims", type=int, default=None, help="number of simulations")
    run_p.add_argument("--seed", type=int, default=None, help="master seed")
    run_p.add_argument(
        "--provider", choices=_PROVIDER_CHOICES, default=None, help="decision provider kind"
    )
    run_p.add_argument(
        "--availability", type=float, default=None, help="client availability probability"
    )
    run_p.add_argument("--out", default=None, help="output directory (default runs/<source>)")
    run_p.add_argument("--parallel", type=int, default=None, help="worker count")
    run_p.add_argument(
        "--live",
        action="store_true",
        help="use the live gateway provider (reads the bearer token from the configured env var)",
    )
    run_p.set_defaults(func=_cmd_run)

    replay_p = sub.add_parser("replay", help="rerun a recorded decision journal offline")
    replay_p.add_argument("journal", help="path to a recorded decision journal (.jsonl)")
    replay_p.add_argument("config", help="preset name or config file the journal was recorded under")
    replay_p.add_argument("--out", default=None, help="output directory")
    replay_p.add_argument("--parallel", type=int, default=None, help="worker count")
    replay_p.set_defaults(func=_cmd_replay)

    tables_p = sub.add_parser("tables", help="recompute stats tables from a finished run")
    tables_p.add_argument("output_dir", help="output directory of a finished run")
    tables_p.set_defaults(func=_cmd_tables)

    return parser


def _default_out_name(source: str) -> str:
    name = source if source in PRESET_NAMES else Path(source).stem
    return str(Path("runs") / name)


def _report_batch(result) -> int:
    n = len(result.summaries)
    if result.batch is not None:
        life = result.batch.metrics["max_life"]
        print(
            f"{n} simulations complete; max_life mean {life.mean:.1f}, "
            f"median {life.p50:.1f}, max {life.max:.0f}; "
            f"{result.batch.cap_count} reached the step cap"
        )
    if result.output_dir is not None:
        print(f"outputs written to {result.output_dir}")
    if not result.ok:
        for sim_id, reason in result.aborted:
            logger.error("simulation %d aborted: %s", sim_id, reason)
        if result.skipped:
            logger.error("%d simulations skipped after abort", len(result.skipped))
        return EXIT_PARTIAL_BATCH
    return EXIT_OK


def _cmd_run(args: argparse.Namespace) -> int:
    overrides: dict[str, Any] = {}
    if args.sims is not None:
        overrides["n_simulations"] = args.sims
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.availability is not None:
        overrides["landscape.availability_p"] = args.availability
    if args.out is not None:
        overrides["output_dir"] = args.out
    if args.parallel is not None:
        overrides["parallelism"] = args.parallel
    if args.live:
        overrides["provider.kind"] = ProviderKind.LIVE_LLM
    elif args.provider is not None:
        overrides["provider.kind"] = ProviderKind(args.provider)

    cfg = resolve_config(args.source, overrides)
    if cfg.output_dir is None:
        cfg = replace(cfg, output_dir=_default_out_name(args.source))
    result = run_batch(cfg)
    return _report_batch(result)


def _cmd_replay(args: argparse.Namespace) -> int:
    overrides: dict[str, Any] = {}
    if args.out is not None:
        overrides["output_dir"] = args.out
    if args.parallel is not None:
        overrides["parallelism"] = args.parallel
    cfg = resolve_config(args.config, overrides)
    # The replay command's semantics ARE replay, so the provider swap here
    # is not an override contradiction - it bypasses the preset's pins.
    cfg = replace(cfg, provider=replace(cfg.provider, kind=ProviderKind.REPLAY, replay_path=args.journal))
    if cfg.output_dir is None:
        cfg = replace(cfg, output_dir=_default_out_name(args.config) + "-replay")
    result = run_batch(cfg)
    return _report_batch(result)


def _cmd_tables(args: argparse.Namespace) -> int:
    pretty = rebuild_tables(args.output_dir)
    for kind in ("full", "client", "yes_ratio"):
        if kind in pretty:
            print(pretty[kind])
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=logging.INFO, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        logger.error("configuration error: %s", exc)
        return EXIT_CONFIG_ERROR
    except ProviderHardFailure as exc:
        logger.error("provider hard failure: %s", exc)
        return EXIT_PROVIDER_FAILURE


if __name__ == "__main__":
    sys.exit(main())
