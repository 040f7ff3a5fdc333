#!/usr/bin/env python3
"""Mutation gate: every mutant in the table must be killed by its tests.

A mutant is one exact text replacement in one file under ``src/bondflow``,
plus the pytest node ids that must catch it. The script copies ``src/``,
``tests/``, ``scripts/``, ``README.md`` and ``pyproject.toml`` to a temporary
directory once and checks that the named tests pass there; if they do not,
it prints their pytest output. Then, for each mutant in turn, it applies the
replacement, runs the mutant's tests against the copy in a fresh
interpreter, and restores the file. One mutant runs at a time, because
``tests/test_reference.py`` times itself and must fail only on its bytes.

The old text must occur exactly once in its file, so a refactor that moves
or rewrites it fails the gate until the table is updated in the same change.

    python3 scripts/mutants.py

A mutant is killed only if pytest's short summary names a failed or
erroring test other than the wall-time check of ``tests/test_reference.py``,
or if its run hits the wall-time limit (``killed (timeout)``). Any other
failure (that time check alone, a crash, an import error outside a test
module) says nothing about the mutant: it prints as ``UNCLEAR`` with its
first failure line.

Exit status: 0 if every mutant is killed; 1 if one survives or is unclear,
if its old text does not occur exactly once, or if the tests fail without
a mutant.

Sweep mode finds the code no test constrains; it is not part of the gate:

    python3 scripts/mutants.py --sweep [MODULE ...]

It makes mutants of every module under ``src/bondflow`` (or of the named
ones) with the operators of ``sweep_mutants``, deletions first, and runs each
against the module's own test files (``SWEEP_TESTS``) with ``-x``. Every
survivor, unclear ones included, is run again against all of ``tests/``.
The mutants neither run kills are printed with the old and new text the
gate table takes. Exit status:
0 once the sweep has run, 1 if a module's tests fail without a mutant.

Every run, gate or sweep, has a wall-time limit and an address-space cap,
since a mutant may loop for ever or allocate without end.

Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "scripts", "README.md", "pyproject.toml")


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to src/bondflow
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repo root


MUTANTS = (
    # Conservation: the closed-system audit and what it adds up.
    Mutant(
        "conservation audit skipped",
        "engine.py",
        "            if not (err_b <= CONSERVATION_TOLERANCE and err_c <= CONSERVATION_TOLERANCE):",
        "            if False:",
        ("tests/test_engine.py::test_a_nan_holding_fails_the_conservation_audit",),
    ),
    Mutant(
        "conservation audit as max(errors) > tol, which a NaN passes",
        "engine.py",
        "            if not (err_b <= CONSERVATION_TOLERANCE and err_c <= CONSERVATION_TOLERANCE):",
        "            if max(err_b, err_c) > CONSERVATION_TOLERANCE:",
        ("tests/test_engine.py::test_a_nan_holding_fails_the_conservation_audit",),
    ),
    Mutant(
        "bond consumption tallied as the full rate",
        "agents.py",
        "    consumed_b = min(mm.bond_rate, mm.bonds_acc)",
        "    consumed_b = mm.bond_rate",
        ("tests/test_engine.py::test_conservation_holds_after_every_step",),
    ),
    # Trade mechanics the reference engine pins.
    Mutant(
        "cease rule's and/or swapped",
        "agents.py",
        "        dead = mm.bonds_acc <= 0.0 or mm.cash_acc <= 0.0",
        "        dead = mm.bonds_acc <= 0.0 and mm.cash_acc <= 0.0",
        ("tests/test_agents.py",),
    ),
    Mutant(
        "interbank ties go to the highest id",
        "engine.py",
        "if p is not mm and (buyer is None or p.cash_acc > buyer.cash_acc):",
        "if p is not mm and (buyer is None or p.cash_acc >= buyer.cash_acc):",
        ("tests/test_reference.py",),
    ),
    # Seed -> bytes: the bit-exact decoders and every stream's draw order.
    Mutant(
        "Lemire's rejection threshold off by one",
        "seeding.py",
        "            if low >= n or low >= ((1 << 32) - n) % n:",
        "            if low >= n or low > ((1 << 32) - n) % n:",
        (
            "tests/test_seeding.py::test_block_refill_in_the_middle_of_a_rejection_loop",
            "tests/test_seeding.py::test_buffered_integers_match_scalar_numpy_on_a_million_mixed_bounds",
        ),
    ),
    Mutant(
        "read-ahead drops each block's last value",
        "seeding.py",
        "        yield from block().tolist()",
        "        yield from block().tolist()[:-1]",
        (
            "tests/test_seeding.py::test_buffered_uniforms_match_scalar_random",
            "tests/test_seeding.py::test_block_refill_in_the_middle_of_a_rejection_loop",
        ),
    ),
    Mutant(
        "word split yields each output's high half first",
        "seeding.py",
        'raw().astype("<u8", copy=False).view("<u4")',
        'raw().astype(">u8", copy=False).view(">u4")',
        ("tests/test_seeding.py::test_block_refill_in_the_middle_of_a_rejection_loop",),
    ),
    Mutant(
        "jump table's whole-block offset off by one",
        "landscape.py",
        "_then(hi[-1], lo[block - 1 - radix * (len(hi) - 1)])",
        "_then(hi[-1], lo[block - 2 - radix * (len(hi) - 1)])",
        ("tests/test_landscape.py::test_step_lookups_match_full_grid_draws",),
    ),
    Mutant(
        "landscape draws cash before bonds",
        "landscape.py",
        "        self.bonds = sample_truncated_lognormal(bmu, bsig, cfg.max_bonds, rng, size=n).reshape(h, w)\n"
        "        self.cash = sample_truncated_lognormal(cmu, csig, cfg.max_cash, rng, size=n).reshape(h, w)\n",
        "        self.cash = sample_truncated_lognormal(cmu, csig, cfg.max_cash, rng, size=n).reshape(h, w)\n"
        "        self.bonds = sample_truncated_lognormal(bmu, bsig, cfg.max_bonds, rng, size=n).reshape(h, w)\n",
        ("tests/test_harness.py::test_whole_tree_bytes_pinned",),
    ),
    Mutant(
        "sampler redraws capped cells in descending order",
        "landscape.py",
        "    pending = np.flatnonzero(out > cap)",
        "    pending = np.flatnonzero(out > cap)[::-1]",
        ("tests/test_landscape.py::test_sampler_bytes_equal_the_pending_index_oracle",),
    ),
    Mutant(
        "bursty chain draws a transition before its initial state",
        "decision.py",
        "        self._state = DecisionState.YES if self._random() < self.stationary_yes else DecisionState.NO",
        "        self._random()\n"
        "        self._state = DecisionState.YES if self._random() < self.stationary_yes else DecisionState.NO",
        ("tests/test_seeding.py::test_provider_uniforms_match_scalar_random",),
    ),
    Mutant(
        "the bursty chain forgets its state",
        "decision.py",
        "        stay = self.stay_yes if emitted is DecisionState.YES else self.stay_no",
        "        stay = self.stationary_yes if emitted is DecisionState.YES else 1.0 - self.stationary_yes",
        ("tests/test_acceptance.py::test_criterion_4_bursty_chain_ratio_statistics",),
    ),
    Mutant(
        "build_provider reads the contact-selection stream",
        "decision.py",
        "from .seeding import STREAM_PROVIDER, buffered_uniforms, substream",
        "from .seeding import STREAM_CONTACT_SELECTION as STREAM_PROVIDER, buffered_uniforms, substream",
        ("tests/test_harness.py::test_whole_tree_bytes_pinned",),
    ),
    Mutant(
        "pool runs the sims in reverse order",
        "harness.py",
        "                runs = pool.map(_run_one_task, tasks, chunksize=chunk)",
        "                runs = pool.map(_run_one_task, tasks[::-1], chunksize=chunk)",
        ("tests/test_reference.py",),
    ),
    # Output encoding and aggregation, bit for bit.
    Mutant(
        "_percentile interpolates from the lower neighbour",
        "metrics.py",
        "    return b - d * (1 - t) if t >= 0.5 else a + d * t",
        "    return a + d * t",
        ("tests/test_metrics.py::test_percentile_helper_is_bit_identical_to_numpy",),
    ),
    Mutant(
        "a sim's terminal step is at least 1",
        "metrics.py",
        "    terminal_step = max(0, steps_executed - 1)",
        "    terminal_step = max(1, steps_executed - 1)",
        ("tests/test_reference.py",),
    ),
    Mutant(
        "cap_count counts the runs that stopped before the cap",
        "metrics.py",
        "s.terminal_reason is TerminalReason.STEP_LIMIT)",
        "s.terminal_reason is not TerminalReason.STEP_LIMIT)",
        ("tests/test_metrics.py::test_cap_count_counts_step_limited_runs",),
    ),
    Mutant(
        "trade-leg encoder compares quantities with == instead of is",
        "harness.py",
        "        cash = bond if cash_qty is bond_qty else repr(cash_qty)",
        "        cash = bond if cash_qty == bond_qty else repr(cash_qty)",
        ("tests/test_harness.py::test_encoded_trade_quantities_keep_their_sign",),
    ),
    Mutant(
        "pickled results come back as plain tuples",
        "engine.py",
        "    trades = list(map(new, repeat(TradeRecord), zip(*trade_columns)))",
        "    trades = list(zip(*trade_columns))",
        ("tests/test_engine.py::test_results_round_trip_through_pickle",),
    ),
    Mutant(
        "a result comes back live",
        "harness.py",
        "        encoded = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)\n",
        "        encoded = result\n",
        ("tests/test_harness.py::test_a_batch_decodes_its_results_on_first_read",),
    ),
    Mutant(
        "a sim's states are left out of the series",
        "harness.py",
        "summary, [o.state for _, o in result.decisions], rows",
        "summary, [], rows",
        ("tests/test_harness.py::test_a_batch_decodes_its_results_on_first_read",),
    ),
    # The journal, which replay reads back.
    Mutant(
        "journal writes each decision's step as its seq",
        "decision.py",
        '{{"seq":{q.sequence_no},',
        '{{"seq":{q.step},',
        ("tests/test_reference.py",),
    ),
    # Hash-verified replay.
    Mutant(
        "replay hash check skipped",
        "decision.py",
        "        if rec.prompt_hash != expected:",
        "        if False:",
        ("tests/test_decision.py::test_replay_flags_prompt_mismatch",),
    ),
    Mutant(
        "replay reads past the end of its journal",
        "decision.py",
        "        if self._cursor >= len(self.records):",
        "        if self._cursor > len(self.records):",
        ("tests/test_decision.py::test_replay_reproduces_recorded_stream",),
    ),
    # The strict yes/no/error rule.
    Mutant(
        "a reply starting with 'yes...' counts as yes",
        "decision.py",
        '    if token == "yes":',
        '    if token.startswith("yes"):',
        ("tests/test_decision.py::test_normalization_edge_cases",),
    ),
    Mutant(
        "a reply starting with 'no...' counts as no",
        "decision.py",
        '    if token == "no":',
        '    if token.startswith("no"):',
        ("tests/test_decision.py::test_normalization_edge_cases",),
    ),
    # Failure paths of the output tree.
    Mutant(
        "logs are not moved into place when the sims end",
        "harness.py",
        "                stack.callback(_publish_logs, out_dir)",
        "                pass",
        ("tests/test_harness.py::test_failure_outside_the_sims_keeps_their_rows",),
    ),
    Mutant(
        "logs are appended under their final names",
        "harness.py",
        '_PARTIAL = ".partial"',
        '_PARTIAL = ""',
        ("tests/test_harness.py::test_interrupt_between_sims_keeps_the_finished_ones",),
    ),
    # Found by the sweep (--sweep): each mutant survived every test, until the
    # test it names here was written or given one more input.
    Mutant(
        "the package has no version", "__init__.py",
        "__version__ = \"0.1.0\"\n", "",
        ("tests/test_surface.py::test_package_root_exports_exactly_the_api",),
    ),
    Mutant(
        "an agent's breadth and anchor are numpy ints", "agents.py",
        "breadth = int(rng.integers(cfg.breadth_min, cfg.breadth_max + 1))\n"
        "        anchor = (int(rng.integers(0, width)), int(rng.integers(0, height)))",
        "breadth = rng.integers(cfg.breadth_min, cfg.breadth_max + 1)\n"
        "        anchor = (rng.integers(0, width), rng.integers(0, height))",
        ("tests/test_agents.py::test_init_respects_config_ranges",),
    ),
    Mutant(
        "--parallel is ignored", "cli.py",
        "        overrides[\"parallelism\"] = args.parallel\n", "        pass\n",
        ("tests/test_cli.py::test_default_out_dirs_and_the_provider_and_parallel_flags",),
    ),
    Mutant(
        "--provider is ignored", "cli.py",
        "        overrides[\"provider.kind\"] = ProviderKind(args.provider)\n", "        pass\n",
        ("tests/test_cli.py::test_default_out_dirs_and_the_provider_and_parallel_flags",),
    ),
    Mutant(
        "no default output directory", "cli.py",
        "    if cfg.output_dir is None:\n", "    if False:\n",
        ("tests/test_cli.py::test_default_out_dirs_and_the_provider_and_parallel_flags",),
    ),
    Mutant(
        "the default output directory keeps a config file's suffix", "cli.py",
        "Path(\"runs\") / Path(source).stem)", "Path(\"runs\") / source)",
        ("tests/test_cli.py::test_default_out_dirs_and_the_provider_and_parallel_flags",),
    ),
    Mutant(
        "a replay's default output directory has no -replay suffix", "cli.py",
        "suffix = \"\" if replay_path is None else \"-replay\"", "suffix = \"\"",
        ("tests/test_cli.py::test_default_out_dirs_and_the_provider_and_parallel_flags",),
    ),
    Mutant(
        "skipped sims go unreported", "cli.py",
        "        if result.skipped:\n", "        if False:\n",
        ("tests/test_cli.py::test_live_rejection_mid_batch_is_partial",),
    ),
    Mutant(
        "a partial batch with no skipped sim reports 0 skipped", "cli.py",
        "        if result.skipped:\n", "        if True:\n",
        ("tests/test_cli.py::test_conservation_drift_aborts_the_sim",),
    ),
    Mutant(
        "a config file's output_dir is dropped when --out is not given", "cli.py",
        "    if args.out is not None:\n", "    if True:\n",
        ("tests/test_cli.py::test_default_out_dirs_and_the_provider_and_parallel_flags",),
    ),
    Mutant(
        "a replay provider needs no corpus path", "decision.py",
        "            if not getattr(self, name):\n", "            if False:\n",
        ("tests/test_cli.py::test_wrongly_typed_config_file_is_config_error",),
    ),
    Mutant(
        "a journal's seq, prompt hash and latency are not checked to be ints", "decision.py",
        "        seq=int(obj[\"seq\"]),\n"
        "        prompt_hash=int(obj[\"prompt_hash\"]),\n"
        "        state=DecisionState(obj[\"state\"]),\n"
        "        raw=str(obj.get(\"raw\", \"\")),\n"
        "        latency_ms=None if latency is None else int(latency),\n",
        "        seq=obj[\"seq\"],\n"
        "        prompt_hash=obj[\"prompt_hash\"],\n"
        "        state=DecisionState(obj[\"state\"]),\n"
        "        raw=str(obj.get(\"raw\", \"\")),\n"
        "        latency_ms=None if latency is None else latency,\n",
        ("tests/test_cli.py::test_malformed_journal_line_is_config_error",),
    ),
    Mutant(
        "a blank journal line is a malformed record", "decision.py",
        "                if line:\n", "                if True:\n",
        ("tests/test_decision.py::test_split_journal_on_seq_reset",),
    ),
    Mutant(
        "a corpus not starting at seq 0 has no first slice", "decision.py",
        "        if rec.seq == 0 or not slices:\n", "        if rec.seq == 0:\n",
        ("tests/test_decision.py::test_split_journal_on_seq_reset",),
    ),
    Mutant(
        "the coin-flip provider names no kind", "decision.py",
        "    kind = ProviderKind.BERNOULLI\n", "    pass\n",
        ("tests/test_decision.py::test_build_provider_dispatch",),
    ),
    Mutant(
        "the bursty provider names no kind", "decision.py",
        "    kind = ProviderKind.SYNTHETIC_BURSTY\n", "    pass\n",
        ("tests/test_decision.py::test_build_provider_dispatch",),
    ),
    Mutant(
        "a bursty provider built directly skips its burst_stay_no row", "decision.py",
        "        check_bound(_BOUNDS, \"burst_stay_no\", stay_no)\n", "        pass\n",
        ("tests/test_decision.py::test_scripted_providers_check_ranges_when_built_directly",),
    ),
    Mutant(
        "the rate limiter spaces requests from now, not from the last turn", "decision.py",
        "self._next_at = max(now, self._next_at) + self.min_interval", "self._next_at = now + self.min_interval",
        ("tests/test_decision.py::test_live_rate_limiter_spaces_requests",),
    ),
    Mutant(
        "the rate limiter sleeps 0 s when a turn is due", "decision.py",
        "        if wait > 0:\n", "        if wait >= 0:\n",
        ("tests/test_decision.py::test_live_rate_limiter_spaces_requests",),
    ),
    Mutant(
        "the rate limiter never sleeps", "decision.py",
        "            time.sleep(wait)\n", "            pass\n",
        ("tests/test_decision.py::test_live_rate_limiter_spaces_requests",),
    ),
    Mutant(
        "a live request does not wait its turn", "decision.py",
        "            self._limiter.acquire()\n", "            pass\n",
        ("tests/test_decision.py::test_live_rate_limiter_spaces_requests",),
    ),
    Mutant(
        "a live decision's latency is in seconds", "decision.py",
        "started) * 1000.0)", "started) / 1000.0)",
        ("tests/test_decision.py::test_live_wire_format",),
    ),
    Mutant(
        "a non-200 reply is parsed as a reply", "decision.py",
        "            if resp.status_code != 200:\n", "            if False:\n",
        ("tests/test_decision.py::test_live_rejections_are_hard_failures",),
    ),
    Mutant(
        "conservation audit checks cash only", "engine.py",
        "if not (err_b <= CONSERVATION_TOLERANCE and err_c <= CONSERVATION_TOLERANCE):",
        "if not (err_c <= CONSERVATION_TOLERANCE):",
        ("tests/test_engine.py::test_a_nan_holding_fails_the_conservation_audit",),
    ),
    Mutant(
        "conservation audit fails only when both resources drift", "engine.py",
        "if not (err_b <= CONSERVATION_TOLERANCE and err_c <= CONSERVATION_TOLERANCE):",
        "if not (err_b <= CONSERVATION_TOLERANCE or err_c <= CONSERVATION_TOLERANCE):",
        ("tests/test_engine.py::test_a_nan_holding_fails_the_conservation_audit",),
    ),
    Mutant(
        "conservation audit divides by a zero total", "engine.py",
        "/ max(init_b, 1e-12)\n"
        "        err_c = abs(grid_c + mm_c + self.consumed_cash - init_c) / max(init_c, 1e-12)",
        "/ init_b\n"
        "        err_c = abs(grid_c + mm_c + self.consumed_cash - init_c) / init_c",
        ("tests/test_engine.py::test_a_society_holding_none_of_a_resource_passes_the_conservation_audit",),
    ),
    Mutant(
        "worst-case client total divides by the grid height", "harness.py",
        "* grid.grid_width * grid.grid_height", "* grid.grid_width / grid.grid_height",
        ("tests/test_harness.py::test_worst_case_totals_must_be_floats",),
    ),
    Mutant(
        "worst-case totals summed as ints", "harness.py",
        "worst = float(getattr(grid, f\"max_{name}\"))", "worst = getattr(grid, f\"max_{name}\")",
        ("tests/test_harness.py::test_worst_case_totals_must_be_floats",),
    ),
    Mutant(
        "worst-case totals subtract the agents' endowments", "harness.py",
        "math.isfinite(worst + float(", "math.isfinite(worst - float(",
        ("tests/test_harness.py::test_worst_case_totals_must_be_floats",),
    ),
    Mutant(
        "a float field takes any type", "harness.py",
        "(t is float and type(value) is int)", "(t is float)",
        ("tests/test_harness.py::test_wrongly_typed_values_rejected",),
    ),
    Mutant(
        "an enum field calls its enum on any value", "harness.py",
        "if issubclass(t, enum.Enum) and isinstance(value, str):", "if issubclass(t, enum.Enum):",
        ("tests/test_harness.py::test_wrongly_typed_values_rejected",),
    ),
    Mutant(
        "a type error names no null", "harness.py",
        "\"null\" if t is type(None) else t.__name__", "t.__name__",
        ("tests/test_harness.py::test_wrongly_typed_values_rejected",),
    ),
    Mutant(
        "a sha256 mismatch names no corpus", "harness.py",
        "shown = \" or \".join(corpora) or \"none given\"", "shown = \"none given\"",
        ("tests/test_cli.py::test_echo_replay_sha256_must_match_the_corpus",),
    ),
    Mutant(
        "an unknown source is reported as an unreadable file", "harness.py",
        "    if not Path(source).exists():\n", "    if False:\n",
        ("tests/test_harness.py::test_resolve_config_dispatches",),
    ),
    Mutant(
        "an empty config file is refused", "harness.py",
        ".read_text(encoding=\"utf-8\")) or {}", ".read_text(encoding=\"utf-8\"))",
        ("tests/test_harness.py::test_resolve_config_dispatches",),
    ),
    Mutant(
        "a config file need not hold a mapping", "harness.py",
        "    if not isinstance(data, dict):\n", "    if False:\n",
        ("tests/test_cli.py::test_wrongly_typed_config_file_is_config_error",),
    ),
    Mutant(
        "the abort log drops the worker's traceback", "harness.py",
        "reason, \"\\n\" + raised if raised else \"\")", "reason, \"\")",
        ("tests/test_cli.py::test_unexpected_exception_aborts_the_sim",),
    ),
    Mutant(
        "a raised sim's empty result is kept", "harness.py",
        "                if result is not None:\n", "                if True:\n",
        ("tests/test_cli.py::test_unexpected_exception_aborts_the_sim",),
    ),
    Mutant(
        "a live batch without a token writes a tree first", "harness.py",
        "        LiveLLMProvider(cfg.provider)  # fail fast on missing credentials\n", "        pass\n",
        ("tests/test_cli.py::test_run_live_without_token_is_provider_failure",),
    ),
    Mutant(
        "a batch with no decision writes a series", "harness.py",
        "        if pooled_states:\n", "        if True:\n",
        ("tests/test_harness.py::test_rerun_into_same_dir_leaves_no_stale_files",),
    ),
    Mutant(
        "a batch without a tree writes a manifest", "harness.py",
        "        if out_dir is not None:\n            # Runs last, however the batch ends",
        "        if True:\n            # Runs last, however the batch ends",
        ("tests/test_harness.py::test_failure_outside_the_sims_keeps_their_rows",),
    ),
    Mutant(
        "the manifest's exit swallows the batch's exception", "harness.py",
        "started_at, exc and _one_line(exc)))", "started_at, exc and _one_line(exc)) or True)",
        ("tests/test_harness.py::test_failure_outside_the_sims_keeps_their_rows",),
    ),
    Mutant(
        "the manifest has no final newline", "harness.py",
        "        fh.write(\"\\n\")\n", "        pass\n",
        ("tests/test_harness.py::test_manifest_contents",),
    ),
    Mutant(
        "a row short of cells is read", "harness.py",
        "if None in row or None in row.values():", "if None in row:",
        ("tests/test_cli.py::test_tables_on_malformed_tree_is_config_error",),
    ),
    Mutant(
        "load_output_dir takes only a Path", "harness.py",
        "    out = Path(out)\n    summaries = _read_rows(", "    summaries = _read_rows(",
        ("tests/test_harness.py::test_load_output_dir_round_trips",),
    ),
    Mutant(
        "tables on a tree of no completed sim", "harness.py",
        "    if not summaries:\n", "    if False:\n",
        ("tests/test_cli.py::test_conservation_drift_aborts_the_sim",),
    ),
    Mutant(
        "an explicit window's error names no source", "harness.py",
        "    source: Path | str = \"the window argument\"\n", "",
        ("tests/test_harness.py::test_rebuild_tables_matches_first_pass",),
    ),
    Mutant(
        "an explicit window is ignored", "harness.py",
        "        if window is None:\n", "        if True:\n",
        ("tests/test_harness.py::test_rebuild_tables_matches_first_pass",),
    ),
    Mutant(
        "a rebuild of a tree with no decision writes a yes-ratio table", "harness.py",
        "yes_ratio_series(states, window) if states else None", "yes_ratio_series(states, window)",
        ("tests/test_harness.py::test_rerun_into_same_dir_leaves_no_stale_files",),
    ),
    Mutant(
        "arithmetic moments accept a zero std", "landscape.py",
        "    if mean <= 0 or std <= 0:\n", "    if mean <= 0:\n",
        ("tests/test_landscape.py::test_arithmetic_parameterization_conversion",),
    ),
    Mutant(
        "arithmetic moments accept a zero mean", "landscape.py",
        "    if mean <= 0 or std <= 0:\n", "    if mean < 0 or std <= 0:\n",
        ("tests/test_landscape.py::test_arithmetic_parameterization_conversion",),
    ),
    Mutant(
        "truncation accepts a zero sigma", "landscape.py",
        "if not (sigma > 0 and cap > 0", "if not (sigma >= 0 and cap > 0",
        ("tests/test_landscape.py::test_infeasible_truncation_is_rejected_when_the_config_is_built",),
    ),
    Mutant(
        "truncation refuses a cap of exactly exp(mu - 6*sigma)", "landscape.py",
        "mu - 6.0 * sigma <= math.log(cap)", "mu - 6.0 * sigma < math.log(cap)",
        ("tests/test_landscape.py::test_infeasible_truncation_is_rejected_when_the_config_is_built",),
    ),
    Mutant(
        "truncation lets exp(mu + 6*sigma) overflow", "landscape.py",
        "mu + 6.0 * sigma <= _LOG_FLOAT_MAX", "mu - 6.0 * sigma <= _LOG_FLOAT_MAX",
        ("tests/test_landscape.py::test_infeasible_truncation_is_rejected_when_the_config_is_built",),
    ),
    Mutant(
        "truncation refuses exp(mu + 6*sigma) of exactly the largest float", "landscape.py",
        "mu + 6.0 * sigma <= _LOG_FLOAT_MAX", "mu + 6.0 * sigma < _LOG_FLOAT_MAX",
        ("tests/test_landscape.py::test_infeasible_truncation_is_rejected_when_the_config_is_built",),
    ),
    Mutant(
        "a client's cash may go negative", "landscape.py",
        "        if nb < -1e-12 or nc < -1e-12:\n", "        if nb < -1e-12:\n",
        ("tests/test_landscape.py::test_apply_trade_updates_and_guards",),
    ),
    Mutant(
        "a residue of exactly -1e-12 raises", "landscape.py",
        "        if nb < -1e-12 or nc < -1e-12:\n", "        if nb <= -1e-12 or nc <= -1e-12:\n",
        ("tests/test_landscape.py::test_apply_trade_updates_and_guards",),
    ),
    Mutant(
        "a client's negative cash residue is kept", "landscape.py",
        "        self.cash[y, x] = max(nc, 0.0)\n", "        self.cash[y, x] = nc\n",
        ("tests/test_landscape.py::test_apply_trade_updates_and_guards",),
    ),
    Mutant(
        "a batch's mean, std and max are numpy scalars", "metrics.py",
        "            mean=float(xs.mean()),\n"
        "            std=float(xs.std()),\n"
        "            p25=_percentile(ordered, 25),\n"
        "            p50=_percentile(ordered, 50),\n"
        "            p75=_percentile(ordered, 75),\n"
        "            max=float(xs.max()),\n",
        "            mean=xs.mean(),\n"
        "            std=xs.std(),\n"
        "            p25=_percentile(ordered, 25),\n"
        "            p50=_percentile(ordered, 50),\n"
        "            p75=_percentile(ordered, 75),\n"
        "            max=xs.max(),\n",
        ("tests/test_metrics.py::test_aggregate_percentiles_are_linear_interpolation",),
    ),
    Mutant(
        "a rolling window of 0 is taken", "metrics.py",
        "    if window < 1:\n", "    if False:\n",
        ("tests/test_metrics.py::test_rolling_all_yes_is_exactly_one",),
    ),
    Mutant(
        "a rolling window of 1 is refused", "metrics.py",
        "    if window < 1:\n", "    if window <= 1:\n",
        ("tests/test_metrics.py::test_rolling_all_yes_is_exactly_one",),
    ),
    Mutant(
        "the first rolling window starts one outcome early", "metrics.py",
        "for j in range(window, k + 1)]", "for j in range(window - 1, k + 1)]",
        ("tests/test_metrics.py::test_rolling_all_yes_is_exactly_one",),
    ),
    Mutant(
        "errors enter the cumulative ratio's denominator", "metrics.py",
        "    cumulative = [yes_after[j] / j for j in range(1, k + 1)]\n",
        "    cumulative = [yes_after[j] / (positions[j - 1] + 1) for j in range(1, k + 1)]\n",
        ("tests/test_metrics.py::test_errors_are_excluded_from_both_series",),
    ),
    Mutant(
        "an empty series' stats come from numpy", "metrics.py",
        "    if not values:\n", "    if False:\n",
        ("tests/test_metrics.py::test_series_stats_population_std",),
    ),
    Mutant(
        "a series' stats are numpy scalars", "metrics.py",
        "        mean=float(xs.mean()), std=float(xs.std()), min=float(xs.min()), max=float(xs.max())\n",
        "        mean=xs.mean(), std=xs.std(), min=xs.min(), max=xs.max()\n",
        ("tests/test_metrics.py::test_series_stats_population_std",),
    ),
)


def apply(path: Path, mutant: Mutant) -> str:
    """Write the mutant into *path*; return the original text. Raises ValueError unless old occurs once."""
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"old text occurs {count} times in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    return text


def copy_tree(root: Path) -> None:
    """Copy what the tests need into *root*."""
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    for name in COPIED:
        src = REPO / name
        if src.is_dir():
            shutil.copytree(src, root / name, ignore=ignore)
        else:
            shutil.copy2(src, root / name)


# A run's address-space cap, passed to pytest's interpreter before it imports anything.
MEMORY_CAP = 3 << 30
_CAPPED_PYTEST = (
    "import resource, sys; cap = int(sys.argv.pop(1)); resource.setrlimit(resource.RLIMIT_AS, (cap, cap)); "
    "import pytest; sys.exit(pytest.main(sys.argv[1:]))"
)


def run_tests(root: Path, tests: tuple[str, ...], timeout: float) -> tuple[int | None, str]:
    """Pytest's exit status for *tests* against the copy at *root* (None if it timed out), and its output.

    The run gets ``MEMORY_CAP``, and one that takes longer than *timeout*
    seconds is stopped. The tests run in their own process group, which is
    killed when they end, so no pool worker outlives them. Pytest's plugins
    are not autoloaded: no test uses one, and importing them took 1.2 s of a
    1.9 s run on a 2-vCPU VM. The output is 1000 columns wide, so the short
    summary never cuts a failure's message.
    """
    env = {
        **os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1",
        "PYTEST_DISABLE_PLUGIN_AUTOLOAD": "1", "COLUMNS": "1000",
    }
    cmd = [sys.executable, "-c", _CAPPED_PYTEST, str(MEMORY_CAP), "-q", "-x", "-p", "no:cacheprovider", *tests]
    proc = subprocess.Popen(
        cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, start_new_session=True
    )
    timed_out = False
    try:
        output, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        output, timed_out = f"timed out after {timeout:.0f}s", True
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    return None if timed_out else proc.returncode, output


# The short-summary line of tests/test_reference.py's wall-time check: it
# fails when the machine is slow, whatever the mutant.
_TIME_CHECK = re.compile(r"FAILED tests/test_reference\.py::\S+ - AssertionError: \d+ configs took ")


def verdict(status: int | None, output: str) -> tuple[str, str]:
    """``(word, detail)`` for a mutant's run: ``SURVIVED``, ``killed``, ``killed (timeout)`` or ``UNCLEAR``.

    An unclear run's detail is its first failure line.
    """
    if status == 0:
        return "SURVIVED", ""
    if status is None:
        return "killed (timeout)", ""
    failures = [line for line in output.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    if any(not _TIME_CHECK.match(line) for line in failures):
        return "killed", ""
    lines = failures or [line for line in output.splitlines() if line.strip()][-1:]
    return "UNCLEAR", lines[0] if lines else f"pytest exit status {status} and no output"


# --------------------------------------------------------------------------
# Sweep: generated mutants, to find what no test constrains


# Each module's own test files, fastest first, for the sweep's first run.
SWEEP_TESTS = {
    "__init__.py": ("tests/test_surface.py",),
    "agents.py": ("tests/test_agents.py", "tests/test_engine.py"),
    "cli.py": ("tests/test_cli.py",),
    "decision.py": ("tests/test_decision.py",),
    "engine.py": ("tests/test_engine.py", "tests/test_reference.py"),
    "errors.py": ("tests/test_agents.py", "tests/test_landscape.py", "tests/test_harness.py"),
    "harness.py": ("tests/test_harness.py", "tests/test_cli.py"),
    "landscape.py": ("tests/test_landscape.py",),
    "metrics.py": ("tests/test_metrics.py",),
    "prompts.py": ("tests/test_decision.py",),
    "seeding.py": ("tests/test_seeding.py",),
}
_SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Is: "is", ast.IsNot: "is not", ast.In: "in", ast.NotIn: "not in",
    ast.And: "and", ast.Or: "or", ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
}
# Each flipped operator: a comparison to its neighbour or its negation, and/or, +/-, */.
_FLIPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.And: ast.Or, ast.Or: ast.And, ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
}
_UNWRAPPED = ("int", "float", "min", "max")


def _kept(node: ast.AST) -> bool:
    """Whether the sweep leaves *node* and all it holds alone: a docstring or safety code."""
    if isinstance(node, (ast.Raise, ast.Assert)):
        return True
    value = getattr(node, "value", None) if isinstance(node, ast.Expr) else None
    if isinstance(value, ast.Constant):
        return isinstance(value.value, str)
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Attribute):
        owner = value.func.value
        return isinstance(owner, ast.Name) and owner.id in ("logger", "logging")
    return False


def _flip(op: ast.AST) -> tuple[str, ast.AST]:
    flipped = _FLIPS[type(op)]
    return f"{_SYMBOLS[type(op)]} -> {_SYMBOLS[flipped]}", flipped()


def _variants(node: ast.AST) -> Iterator[tuple[ast.AST, str, ast.AST]]:
    """Each (target, label, replacement) of *node*: deletions first, then flips."""
    if isinstance(node, ast.stmt) and not isinstance(node, (ast.Pass, ast.Import, ast.ImportFrom)):
        yield node, "statement -> pass", ast.Pass()
    if isinstance(node, ast.BoolOp):
        for i in range(len(node.values)):
            rest = node.values[:i] + node.values[i + 1 :]
            kept = rest[0] if len(rest) == 1 else ast.BoolOp(node.op, rest)
            yield node, f"drop operand {i + 1} of {_SYMBOLS[type(node.op)]}", kept
    if isinstance(node, (ast.If, ast.IfExp)):
        for value in (True, False):
            yield node.test, f"if test -> {value}", ast.Constant(value)
    if (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in _UNWRAPPED
        and not node.keywords and not any(isinstance(a, ast.Starred) for a in node.args)
    ):
        for i, arg in enumerate(node.args):
            yield node, f"{node.func.id}(...) -> argument {i + 1}", arg
    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            if type(op) in _FLIPS:
                label, flipped = _flip(op)
                ops = [*node.ops[:i], flipped, *node.ops[i + 1 :]]
                yield node, label, ast.Compare(node.left, ops, node.comparators)
    if isinstance(node, ast.BoolOp):
        label, flipped = _flip(node.op)
        yield node, label, ast.BoolOp(flipped, node.values)
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in _FLIPS:
        label, flipped = _flip(node.op)
        fields = {name: getattr(node, name) for name in node._fields}
        yield node, label, type(node)(**{**fields, "op": flipped})


def _slots(tree: ast.AST) -> dict[int, tuple[ast.AST, str, int | None]]:
    """Where each node sits: ``id(node) -> (parent, field, index or None)``."""
    slots = {}
    for parent in ast.walk(tree):
        for name, value in ast.iter_fields(parent):
            for index, child in enumerate(value) if isinstance(value, list) else [(None, value)]:
                if isinstance(child, ast.AST):
                    slots[id(child)] = parent, name, index
    return slots


def _put(slot: tuple[ast.AST, str, int | None], node: ast.AST) -> None:
    parent, name, index = slot
    if index is None:
        setattr(parent, name, node)
    else:
        getattr(parent, name)[index] = node


def _walk_unkept(node: ast.AST) -> Iterator[ast.AST]:
    """*node* and its descendants, skipping every subtree ``_kept`` leaves alone."""
    if _kept(node):
        return
    yield node
    for child in ast.iter_child_nodes(node):
        yield from _walk_unkept(child)


def sweep_mutants(file: str, text: str) -> tuple[list[Mutant], int]:
    """The sweep's mutants of module *file* (source *text*), and how many variants could not be spliced.

    Each variant replaces the source span of one node, so the rest of the
    file keeps its bytes; the mutated file must parse to exactly the
    mutated tree, or the variant is dropped. A mutant's old text is the
    lines around the span, widened until they occur once, as the gate
    table needs.
    """
    tree = ast.parse(text)
    slots = _slots(tree)
    starts = [0]
    for line in text.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    mutants: list[Mutant] = []
    unspliced = 0
    for node in list(_walk_unkept(tree)):
        for target, label, replacement in _variants(node):
            first = target
            if isinstance(target, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and target.decorator_list:
                first = target.decorator_list[0]
            start = starts[first.lineno - 1] + first.col_offset - (first is not target)
            end = starts[target.end_lineno - 1] + target.end_col_offset
            if isinstance(target, ast.stmt):
                # A deleted ``elif`` branch leaves an empty ``else``.
                new = "else: pass" if text.startswith("elif", start) else ast.unparse(replacement)
            else:
                new = f"({ast.unparse(replacement)})"
            slot = slots[id(target)]
            _put(slot, replacement)
            expected = ast.dump(tree)
            _put(slot, target)
            mutated = text[:start] + new + text[end:]
            try:
                spliced = ast.dump(ast.parse(mutated))
            except SyntaxError:
                spliced = None
            if spliced != expected:
                unspliced += 1
                continue
            a, b = first.lineno - 1, target.end_lineno  # the lines [a, b) hold the span
            while text.count(text[starts[a] : starts[b]]) != 1:  # the whole file occurs once
                a, b = max(a - 1, 0), min(b + 1, len(starts) - 1)
            lo, hi = starts[a], starts[b]
            delta = len(mutated) - len(text)
            name = f"{file}:{target.lineno} {label}"
            mutants.append(Mutant(name, file, text[lo:hi], mutated[lo : hi + delta], SWEEP_TESTS[file]))
    return mutants, unspliced


def _run_each(
    mutants: Iterable[Mutant], root: Path, timeout: float, tests: tuple[str, ...] | None = None
) -> Iterator[tuple[Mutant, str, str, float]]:
    """Each mutant, in order, with the verdict of *tests* (its own if None) and the seconds taken.

    A mutant whose old text does not occur once is ``STALE``, with the reason.
    """
    for mutant in mutants:
        t0 = time.perf_counter()
        path = root / "src" / "bondflow" / mutant.file
        try:
            original = apply(path, mutant)
        except ValueError as exc:
            yield mutant, "STALE", str(exc), 0.0
            continue
        try:
            word, detail = verdict(*run_tests(root, tests or mutant.tests, timeout))
        finally:
            path.write_text(original, encoding="utf-8")
        yield mutant, word, detail, time.perf_counter() - t0


def _report(mutant: Mutant, word: str, detail: str, seconds: float) -> str:
    return f"{word:9s} {mutant.name}" + (f": {detail}" if detail else f" ({seconds:.1f}s)")


def _limit(root: Path, tests: tuple[str, ...]) -> float | None:
    """A mutant run's wall-time limit from the unmutated run of *tests*; None if they fail there."""
    t0 = time.perf_counter()
    status, output = run_tests(root, tests, timeout=3600)  # a backstop only: this is the unmutated code
    if status != 0:
        print(f"the tests fail on the unmutated copy:\n{output}")
        return None
    return 3 * (time.perf_counter() - t0) + 30


def sweep(modules: list[str]) -> int:
    started = time.perf_counter()
    survivors: list[Mutant] = []
    with tempfile.TemporaryDirectory(prefix="bondflow-mutants-") as tmp:
        root = Path(tmp)
        copy_tree(root)
        for module in modules:
            t0 = time.perf_counter()
            text = (REPO / "src" / "bondflow" / module).read_text(encoding="utf-8")
            mutants, unspliced = sweep_mutants(module, text)
            limit = _limit(root, SWEEP_TESTS[module])
            if limit is None:
                return 1
            alive = [run for run in _run_each(mutants, root, limit) if not run[1].startswith("killed")]
            survivors += [mutant for mutant, *_ in alive]
            print(
                f"{module}: {len(mutants)} mutants, {len(alive)} not killed by {' '.join(SWEEP_TESTS[module])} "
                f"({unspliced} not spliced, {time.perf_counter() - t0:.0f}s)",
                *(f"  {_report(*run)}" for run in alive),
                sep="\n",
                flush=True,
            )
        final: list[tuple[Mutant, str, str, float]] = []
        if survivors:
            limit = _limit(root, ("tests",))
            if limit is None:
                return 1
            runs = _run_each(survivors, root, limit, ("tests",))
            final = [run for run in runs if not run[1].startswith("killed")]
    print(f"\n{len(final)} of {len(survivors)} are not killed by all of tests/ either:")
    for mutant, word, detail, seconds in final:
        print(f"\n{_report(mutant, word, detail, seconds)}\n  old: {mutant.old!r}\n  new: {mutant.new!r}")
    print(f"\nsweep of {len(modules)} modules took {time.perf_counter() - started:.0f}s")
    return 0


def gate() -> int:
    failures = 0
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="bondflow-mutants-") as tmp:
        root = Path(tmp)
        copy_tree(root)
        # A mutant is killed only if its tests pass without it.
        limit = _limit(root, tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests)))
        if limit is None:
            return 1
        for run in _run_each(MUTANTS, root, limit):
            print(_report(*run), flush=True)
            failures += not run[1].startswith("killed")  # it survived, is stale or is unclear
    print(f"{len(MUTANTS) - failures}/{len(MUTANTS)} mutants killed in {time.perf_counter() - started:.0f}s")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run the mutation gate, or sweep src/ for surviving mutants.")
    parser.add_argument("--sweep", nargs="*", metavar="MODULE", help="sweep these modules (default: all)")
    args = parser.parse_args(argv)
    if args.sweep is None:
        return gate()
    modules = args.sweep or sorted(SWEEP_TESTS)
    unknown = sorted(set(modules) - set(SWEEP_TESTS))
    if unknown:
        parser.error(f"no such module: {', '.join(unknown)}")
    return sweep(modules)


if __name__ == "__main__":
    sys.exit(main())
