"""One measured batch in a fresh process; prints one JSON line on stdout.

    python3 perfbench/batch.py --workload NAME --master-seed N --out DIR
                               [--traced] [--serial-reference]

Set-up time runs from just before ``import bondflow`` until ``run_batch`` is
called, so it covers the package and CLI imports and config resolution.
Wall time is the ``run_batch`` call, output writing included. The
correctness checks run after the clock stops and after tracing is removed.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import (  # noqa: E402
    conservation_failures,
    no_error_failures,
    replay_failures,
    tables_rebuild_identically,
    tree_digest,
)
from workloads import WORKLOADS  # noqa: E402


def peak_rss_mb() -> float:
    """Peak resident set of this process or any waited-for child, in MiB."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--master-seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--serial-reference", action="store_true")
    args = parser.parse_args()
    wl = WORKLOADS[args.workload]
    out = Path(args.out)

    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import bondflow
    import bondflow.cli  # noqa: F401  (a CLI user pays this import too)

    overrides = dict(
        wl.overrides,
        n_simulations=wl.n_simulations,
        master_seed=args.master_seed,
        parallelism=wl.parallelism,
        output_dir=str(out),
    )
    cfg = bondflow.resolve_preset(wl.preset, overrides)
    setup_s = time.perf_counter() - t0

    src = (ROOT / "src").resolve()
    if src not in Path(bondflow.__file__).resolve().parents:
        raise SystemExit(f"imported bondflow from {bondflow.__file__}, not from {src}")

    tracer = None
    if args.traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(bondflow)
    t1 = time.perf_counter_ns()
    batch = bondflow.run_batch(cfg)
    wall_ns = time.perf_counter_ns() - t1
    rss = peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()

    results = batch.results
    failures: list[tuple[int, str]] = []
    failures += [(sid, f"aborted: {why}") for sid, why in batch.aborted]
    failures += [(sid, "skipped") for sid in batch.skipped]
    failures += conservation_failures(results)
    if wl.decision_check == "replay":
        failures += replay_failures(bondflow, cfg, results)
    else:
        failures += no_error_failures(results)
    digest = tree_digest(out)
    if not tables_rebuild_identically(bondflow, out, cfg.rolling_window):
        failures += [(i, "rebuild_tables output differs") for i in range(cfg.n_simulations)]

    record = {
        "setup_s": setup_s,
        "wall_s": wall_ns / 1e9,
        "steps": sum(r.steps_executed for r in results),
        "decisions": sum(len(r.decisions) for r in results),
        "peak_rss_mb": rss,
        "sims": cfg.n_simulations,
        "failed_sims": len({sid for sid, _ in failures}),
        "failures": [f"sim {sid}: {why}" for sid, why in failures[:5]],
        "digest": digest,
    }
    if tracer is not None:
        record["layers"], record["counts"] = tracer.layer_metrics(batch, wall_ns, out)
    shutil.rmtree(out)

    if args.serial_reference:
        # Determinism: the same batch run serially must give the same tree.
        ref_cfg = bondflow.resolve_preset(wl.preset, dict(overrides, parallelism=1))
        bondflow.run_batch(ref_cfg)
        record["serial_digest"] = tree_digest(out)
        shutil.rmtree(out)
        if record["serial_digest"] != digest:
            record["failed_sims"] = cfg.n_simulations
            record["failures"].append("output tree differs from the serial run of the same batch")

    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
