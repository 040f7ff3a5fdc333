"""Correctness checks run on every measured batch, outside the timed region.

Each check returns the ids of the sims it failed (or all sims, for a
batch-level check), with a reason, so the orchestrator can report the share
of sims that failed.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Any

CONSERVATION_RTOL = 1e-9


def conservation_failures(results: list[Any]) -> list[tuple[int, str]]:
    """Closed-system law recomputed from each result's trade legs.

    Final client holdings are the initial totals plus every client trade
    leg; with the market makers' holdings and what costs consumed they must
    add up to the initial totals of the whole system.
    """
    failures = []
    for r in results:
        client_b, client_c = r.initial_client_bonds, r.initial_client_cash
        for t in r.trades:
            if t.counterparty_kind.value != "client":
                continue
            if t.client_direction.value == "sell":
                client_b -= t.bond_qty
                client_c += t.cash_qty
            else:
                client_b += t.bond_qty
                client_c -= t.cash_qty
        init_b = r.initial_client_bonds + r.initial_mm_bonds
        init_c = r.initial_client_cash + r.initial_mm_cash
        final_b = client_b + sum(mm.bonds_acc for mm in r.mms) + r.consumed_bonds
        final_c = client_c + sum(mm.cash_acc for mm in r.mms) + r.consumed_cash
        err_b = abs(final_b - init_b) / max(init_b, 1e-12)
        err_c = abs(final_c - init_c) / max(init_c, 1e-12)
        if err_b > CONSERVATION_RTOL or err_c > CONSERVATION_RTOL:
            failures.append((r.sim_id, f"conservation drift bonds {err_b:.3e} cash {err_c:.3e}"))
    return failures


def tables_rebuild_identically(bondflow: Any, out: Path, window: int) -> bool:
    """``rebuild_tables`` must reproduce the three table files byte for byte."""
    names = [name for pair in bondflow.harness.TABLE_FILES.values() for name in pair]
    before = {name: (out / name).read_bytes() if (out / name).exists() else None for name in names}
    bondflow.rebuild_tables(out, window)
    after = {name: (out / name).read_bytes() if (out / name).exists() else None for name in names}
    return before == after


def no_error_failures(results: list[Any]) -> list[tuple[int, str]]:
    failures = []
    for r in results:
        errors = sum(1 for _, o in r.decisions if o.state.value == "error")
        if errors:
            failures.append((r.sim_id, f"{errors} error decisions"))
    return failures


def replay_failures(bondflow: Any, cfg: Any, results: list[Any]) -> list[tuple[int, str]]:
    """Each sim must replay its recorded corpus slice: same states, same prompt hashes."""
    from bondflow.decision import prompt_hash, render_prompt

    slices = bondflow.split_journal(bondflow.read_journal(cfg.provider.replay_path))
    template = cfg.provider.prompt_template
    failures = []
    for r in results:
        recorded = slices[r.sim_id] if r.sim_id < len(slices) else []
        if len(recorded) != len(r.decisions):
            failures.append((r.sim_id, f"replayed {len(r.decisions)} decisions of {len(recorded)} recorded"))
            continue
        for rec, (q, o) in zip(recorded, r.decisions):
            if o.state is not rec.state or prompt_hash(render_prompt(template, q)) != rec.prompt_hash:
                failures.append((r.sim_id, f"replay diverged at seq {q.sequence_no}"))
                break
    return failures


def tree_digest(out: Path) -> str:
    """sha256 over every file of an output tree except the manifest."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        rel = path.relative_to(out).as_posix()
        if rel == "manifest.json":
            continue
        h.update(rel.encode("utf-8") + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()
