"""bondflow batch benchmark.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout. Each measured batch runs in a fresh
process (``perfbench/batch.py``) that imports bondflow from ``src/``,
resolves the workload's preset and calls ``run_batch``. Batches repeat
until ``--seconds`` have passed.

With ``--trace 0`` the end-to-end metrics are reported (tracing off). With
``--trace 1`` the runs alternate untraced and traced batches of the run's
first input and report the per-layer metrics, plus the tracing overhead
(traced minus untraced wall time). Every batch is checked for correctness;
the last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, where attempted and
failed count simulations. See perfbench/README.md for the workloads and
what each per-layer metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, Workload  # noqa: E402

DIGESTS = HERE / "digests.json"
SCRATCH = ROOT / ".perfbench_runs"
BATCH_TIMEOUT_S = 60
MIN_BATCHES = 3

# Metric names and units come from the benchmark definition at the checkout root.
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


class BatchError(RuntimeError):
    pass


def run_batch_process(name: str, master_seed: int, *, traced: bool, serial_reference: bool) -> dict:
    out = SCRATCH / f"{name}-{master_seed}"
    cmd = [
        sys.executable,
        str(HERE / "batch.py"),
        "--workload", name,
        "--master-seed", str(master_seed),
        "--out", str(out),
    ]
    if traced:
        cmd.append("--traced")
    if serial_reference:
        cmd.append("--serial-reference")
    # Its own session, so a hung batch is killed together with its pool workers.
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, stderr = proc.communicate(timeout=BATCH_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BatchError(f"{name} batch at master seed {master_seed} exceeded {BATCH_TIMEOUT_S}s") from exc
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if proc.returncode != 0:
        raise BatchError(f"{name} batch at master seed {master_seed} exited {proc.returncode}:\n{stderr[-2000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def recorded_digest(wl: Workload, master_seed: int) -> str | None:
    if not DIGESTS.exists():
        return None
    entry = json.loads(DIGESTS.read_text(encoding="utf-8")).get(wl.preset)
    if entry and entry["master_seed"] == master_seed and entry["n_simulations"] == wl.n_simulations:
        return entry["tree_sha256"]
    return None


def end_to_end(batches: list[dict]) -> dict[str, float]:
    """End-to-end metrics over the run's batches.

    Batches of one run have distinct inputs, and on exp1-grid200 about a
    third of the sims collapse within a few hundred steps while the rest run
    to the 1500-step cap, so one batch's work varies widely. Wall time and
    rates therefore average over every sim of the run (mean batch wall time,
    totals over total time); set-up time and peak RSS do not depend on the
    input and are medians over the batch processes.
    """
    wall = sum(b["wall_s"] for b in batches)
    return {
        "wall_s": wall / len(batches),
        "steps_per_s": sum(b["steps"] for b in batches) / wall,
        "decisions_per_s": sum(b["decisions"] for b in batches) / wall,
        "setup_s": statistics.median(b["setup_s"] for b in batches),
        "peak_rss_mb": statistics.median(b["peak_rss_mb"] for b in batches),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics and the names of exact counts that did not repeat.

    Every traced batch runs the same input, so its counts must be identical;
    timings are medians over the traced batches.
    """
    counts = traced[0]["counts"]
    unrepeated = sorted({k for b in traced[1:] for k in counts if b["counts"].get(k) != counts[k]})
    metrics = dict(counts)
    for key in traced[0]["layers"]:
        metrics[key] = statistics.median(b["layers"][key] for b in traced)
    metrics["trace.overhead_s"] = statistics.median(b["wall_s"] for b in traced) - statistics.median(
        b["wall_s"] for b in plain
    )
    return metrics, unrepeated


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[bool, int, int, dict]:
    """Measure one workload; returns (correct, sims attempted, sims failed, metrics)."""
    wl = WORKLOADS[name]
    plain: list[dict] = []
    traced: list[dict] = []
    start = time.monotonic()

    def done() -> bool:
        if time.monotonic() - start < seconds:
            return False
        return len(plain) >= 2 and len(traced) >= 2 if trace else len(plain) >= MIN_BATCHES

    j = 0
    while not done():
        use_trace = trace and j % 2 == 1
        # Traced runs repeat the first input so their counts must repeat exactly.
        master_seed = wl.master_seed(seed, 0 if trace else j)
        batch = run_batch_process(
            name, master_seed, traced=use_trace, serial_reference=wl.serial_reference and j == 0
        )
        (traced if use_trace else plain).append(batch)
        j += 1

    batches = plain + traced
    attempted = sum(b["sims"] for b in batches)
    failed = sum(b["failed_sims"] for b in batches)
    correct = failed == 0
    first_seed = wl.master_seed(seed, 0)
    print(f"{name}: seed {seed} (batch 0 master seed {first_seed}), {len(plain)} untraced and "
          f"{len(traced)} traced batches of {wl.n_simulations} sims at parallelism {wl.parallelism}")
    for b in batches:
        for line in b["failures"]:
            print(f"  FAILED {line}")
    print(f"  failed_share {failed / attempted:.6g} ({failed}/{attempted} sims)")

    digest = plain[0]["digest"]
    expected = recorded_digest(wl, first_seed)
    note = "no digest recorded for this input"
    if expected is not None:
        note = "matches the recorded digest" if expected == digest else (
            "DIFFERS from the recorded digest: the output stream changed"
        )
    print(f"  tree digest (batch 0, manifest excluded) {digest}: {note}")
    if "serial_digest" in plain[0]:
        same = plain[0]["serial_digest"] == digest
        print(f"  parallel vs serial tree: {'identical' if same else 'DIFFERENT'}")

    if trace:
        metrics, unrepeated = per_layer(plain, traced)
        if unrepeated:
            print(f"  FAILED counts differ between traced batches of one input: {', '.join(unrepeated)}")
            correct = False
        units = PER_LAYER_UNITS
    else:
        metrics, units = end_to_end(plain), END_TO_END_UNITS
    if set(metrics) != set(units):
        raise BatchError(f"reported metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    for key, unit in units.items():
        print(f"  {key:<36} {metrics[key]:.6g} {unit}")
    return correct, attempted, failed, {k: {"value": metrics[k], "unit": u} for k, u in units.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="bondflow batch benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None, help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=25.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bondflow" / "__init__.py").is_file():
        print(f"perfbench: no bondflow source tree under {ROOT / 'src'}; nothing to measure", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for name in names:
            seed = WORKLOADS[name].default_seed if args.seed is None else args.seed
            ok, n, bad, wl_metrics = run_workload(name, seed, args.seconds, bool(args.trace))
            correct, attempted, failed = correct and ok, attempted + n, failed + bad
            if len(names) == 1:
                metrics = wl_metrics
            else:
                metrics.update({f"{name}/{k}": v for k, v in wl_metrics.items()})
    except BatchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
