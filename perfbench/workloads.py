"""The benchmark's workloads: preset-shaped batches driven through the public API.

Each workload is a preset plus the overrides that give it its shape. A
measured run executes a sequence of batches of ``n_simulations`` sims;
batch ``j`` of a run with seed ``s`` uses master seed
``s + j * BATCH_SEED_STRIDE``, so one seed always gives one input sequence
and a run averages over many distinct sims rather than repeating one batch.

exp2-replay is the exception: the shipped aversion corpus holds exactly 200
recorded slices and replays only at master seed 42 (at any other seed every
decision fails its prompt-hash check and becomes ``error``). Its seed is
therefore pinned, and it is lengthened by repeating the batch.

This module is stdlib-only: the orchestrator imports it without importing
bondflow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

BATCH_SEED_STRIDE = 1_000_000


@dataclass(frozen=True)
class Workload:
    preset: str
    n_simulations: int
    default_seed: int
    overrides: dict[str, Any] = field(default_factory=dict)
    parallelism: int = 1
    # None: the run's seed is used; otherwise every batch uses this master seed.
    pinned_seed: int | None = None
    # "no_errors": every decision must be yes/no. "replay": every sim must
    # replay its recorded corpus slice exactly, hash-verified.
    decision_check: str = "no_errors"
    # Re-run the first batch serially and require a byte-identical tree.
    serial_reference: bool = False

    def master_seed(self, seed: int, batch_index: int) -> int:
        if self.pinned_seed is not None:
            return self.pinned_seed
        return seed + batch_index * BATCH_SEED_STRIDE


EXP3 = {"journal": True}

WORKLOADS: dict[str, Workload] = {
    "exp3-journal": Workload("exp3", n_simulations=10, default_seed=42, overrides=EXP3),
    # Capped at 300 steps: a fifth of the sims collapse within a few dozen
    # steps and the rest run to the cap, so one run must cover many sims for
    # its wall time to be steady across seeds; at the preset's 1500-step cap
    # a run covers about 35. The per-step cost, and so the roll's share, is
    # the same at either cap.
    "exp1-grid200": Workload(
        "exp1",
        n_simulations=16,
        default_seed=42,
        overrides={"landscape.grid_width": 200, "landscape.grid_height": 200, "max_steps": 300},
    ),
    "exp2-replay": Workload(
        "exp2", n_simulations=200, default_seed=42, pinned_seed=42, decision_check="replay"
    ),
    "exp3-par2": Workload(
        "exp3",
        n_simulations=10,
        default_seed=42,
        overrides=EXP3,
        parallelism=2,
        serial_reference=True,
    ),
}
