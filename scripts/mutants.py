#!/usr/bin/env python3
"""Mutation gate: every mutant in the table must be killed by its tests.

A mutant is one exact text replacement in one file under ``src/bondflow``,
plus the pytest node ids that must catch it. The script copies ``src/``,
``tests/``, ``scripts/``, ``README.md`` and ``pyproject.toml`` to a temporary
directory once and checks that the named tests pass there. Then, for each
mutant, it applies the replacement, runs the mutant's tests against the copy
in a fresh interpreter, and restores the file.

The old text must occur exactly once in its file, so a refactor that moves
or rewrites it fails the gate until the table is updated in the same change.

    python3 scripts/mutants.py

Exit status: 0 if every mutant is killed; 1 if one survives, if its old
text does not occur exactly once, or if the tests fail without a mutant.
Standard library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
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
)


def apply(path: Path, mutant: Mutant) -> str:
    """Write the mutant into *path*; return the original text. Raises ValueError unless old occurs once."""
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"old text occurs {count} times in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    return text


def run_tests(root: Path, tests: tuple[str, ...]) -> bool:
    """Whether *tests* pass against the copy at *root*."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    done = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    return done.returncode == 0


def main() -> int:
    failures = 0
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="bondflow-mutants-") as tmp:
        root = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
        for name in COPIED:
            src = REPO / name
            if src.is_dir():
                shutil.copytree(src, root / name, ignore=ignore)
            else:
                shutil.copy2(src, root / name)
        # A mutant is killed only if its tests pass without it.
        if not run_tests(root, tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))):
            print("the mutants' tests fail on the unmutated copy")
            return 1
        for mutant in MUTANTS:
            path = root / "src" / "bondflow" / mutant.file
            t0 = time.perf_counter()
            try:
                original = apply(path, mutant)
            except ValueError as exc:
                print(f"STALE     {mutant.name}: {exc}")
                failures += 1
                continue
            try:
                survived = run_tests(root, mutant.tests)
            finally:
                path.write_text(original, encoding="utf-8")
            print(f"{'SURVIVED' if survived else 'killed':9s} {mutant.name} ({time.perf_counter() - t0:.1f}s)")
            failures += survived
    print(f"{len(MUTANTS) - failures}/{len(MUTANTS)} mutants killed in {time.perf_counter() - started:.0f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
