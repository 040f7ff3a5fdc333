"""Per-layer tracing from outside the program.

The tracer replaces names where bondflow looks them up (module globals that
a caller resolves at call time, and class attributes) with timing wrappers,
and restores them on ``uninstall``. Nothing inside ``src/`` changes. A name
that no longer exists is skipped, so a call site a later change removes
reports 0 calls instead of failing.

Spans are aggregated in memory per name (total ns and call count); the
engine step additionally keeps every duration for its percentiles.

Under a process pool the workers are forked with the wrappers in place, but
what they record stays in the workers. Only parent-side spans (the harness
and metrics layers) come back, which is what the parallel workload reports.
"""

from __future__ import annotations

import pickle
import statistics
import time
from pathlib import Path
from typing import Any, Callable


class _Stat:
    __slots__ = ("ns", "calls")

    def __init__(self) -> None:
        self.ns = 0
        self.calls = 0


# (module, name looked up there, span name)
_MODULE_SPANS = (
    ("engine", "apply_costs", "agents.apply_costs"),
    ("engine", "client_base", "agents.client_base"),
    ("engine", "init_market_makers", "agents.init_market_makers"),
    ("engine", "init_landscape", "landscape.init"),
    ("engine", "journal_line", "decision.journal_line"),
    ("engine", "substream", "seeding.substream"),
    ("decision", "render_template", "prompts.render_template"),
    ("decision", "prompt_hash", "decision.prompt_hash"),
    ("harness", "read_journal", "decision.read_journal"),
    ("harness", "summarize_simulation", "metrics.summarize_simulation"),
    ("harness", "aggregate_batch", "metrics.aggregate_batch"),
    ("harness", "yes_ratio_series", "metrics.yes_ratio_series"),
    ("harness", "write_outputs", "harness.write_outputs"),
)

# (module, class, method, span name)
_METHOD_SPANS = (
    ("landscape", "Landscape", "roll_step_state", "landscape.roll_step_state"),
    ("engine", "Simulation", "__init__", "engine.Simulation.init"),
    ("engine", "Simulation", "step", "engine.step"),
)

_DECIDE_KINDS = (
    ("BernoulliProvider", "bernoulli"),
    ("SyntheticBurstyProvider", "bursty"),
    ("ReplayProvider", "replay"),
)

# Spans called from inside a step; the rest of the step is contact
# bookkeeping plus interbank rebalancing.
_STEP_CHILDREN = (
    "landscape.roll_step_state",
    "decision.decide",
    "decision.journal_line",
    "agents.apply_costs",
)

# Spans run after the sims, in the parent process.
_POST_PROCESSING = (
    "metrics.summarize_simulation",
    "metrics.aggregate_batch",
    "metrics.yes_ratio_series",
    "harness.write_outputs",
)


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, _Stat] = {}
        self.step_ns: list[int] = []
        self.prompt_hashes: set[int] = set()
        self.cells_rolled = 0
        self.records_read = 0
        self._undo: list[tuple[Any, str, Any]] = []

    def _stat(self, span: str) -> _Stat:
        return self.stats.setdefault(span, _Stat())

    def _wrap(
        self,
        owner: Any,
        attr: str,
        spans: tuple[str, ...],
        after: Callable[[tuple, Any, int], None] | None = None,
    ) -> None:
        orig = vars(owner).get(attr)
        if orig is None:
            return
        stats = [self._stat(s) for s in spans]
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                dt = clock() - t0
                for st in stats:
                    st.ns += dt
                    st.calls += 1
            if after is not None:
                after(args, result, dt)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def install(self, bondflow: Any) -> None:
        mods = {name: getattr(bondflow, name, None) for name in ("engine", "decision", "harness", "landscape")}
        after = {
            "decision.prompt_hash": lambda a, r, dt: self.prompt_hashes.add(r),
            "decision.read_journal": self._note_records,
            "landscape.roll_step_state": self._note_roll,
            "engine.step": lambda a, r, dt: self.step_ns.append(dt),
        }
        for mod, name, span in _MODULE_SPANS:
            if mods[mod] is not None:
                self._wrap(mods[mod], name, (span,), after.get(span))
        for mod, cls_name, method, span in _METHOD_SPANS:
            cls = getattr(mods[mod], cls_name, None)
            if cls is not None:
                self._wrap(cls, method, (span,), after.get(span))
        for cls_name, kind in _DECIDE_KINDS:
            cls = getattr(mods["decision"], cls_name, None)
            if cls is not None:
                self._wrap(cls, "decide", ("decision.decide", f"decision.decide.{kind}"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def _note_records(self, args: tuple, result: Any, dt: int) -> None:
        self.records_read += len(result)

    def _note_roll(self, args: tuple, result: Any, dt: int) -> None:
        cfg = args[0].cfg
        self.cells_rolled += cfg.grid_width * cfg.grid_height

    def ns(self, span: str) -> int:
        st = self.stats.get(span)
        return st.ns if st else 0

    def calls(self, span: str) -> int:
        st = self.stats.get(span)
        return st.calls if st else 0

    def layer_metrics(self, batch: Any, wall_ns: int, out_dir: Path) -> tuple[dict, dict]:
        """(timings, exact counts) for one traced batch.

        Counts are deterministic for a given commit and input, so the caller
        checks that they repeat across batches of one seed.
        """
        results = batch.results
        contacts = sum(r.contacts for r in results)
        decisions = sum(len(r.decisions) for r in results)
        errors = sum(1 for r in results for _, o in r.decisions if o.state.value == "error")
        steps = sorted(self.step_ns)
        out_bytes = journal_bytes = 0
        for path in out_dir.rglob("*"):
            if path.is_file() and path.name != "manifest.json":
                size = path.stat().st_size
                out_bytes += size
                if path.relative_to(out_dir).parts[0] == "journals":
                    journal_bytes += size
        counts = {
            "landscape.roll_step_state.calls": self.calls("landscape.roll_step_state"),
            "landscape.cells_rolled": self.cells_rolled,
            "seeding.substream.calls": self.calls("seeding.substream"),
            "engine.step.calls": self.calls("engine.step"),
            "engine.contacts": contacts,
            "agents.apply_costs.calls": self.calls("agents.apply_costs"),
            "decision.decide.calls": self.calls("decision.decide"),
            "decision.journal_line.calls": self.calls("decision.journal_line"),
            "decision.prompt_hash.calls": self.calls("decision.prompt_hash"),
            "decision.prompt_hash.unique": len(self.prompt_hashes),
            "prompts.render_template.calls": self.calls("prompts.render_template"),
            "decision.records_read": self.records_read,
            "harness.out_bytes": out_bytes,
            "harness.out_bytes.journals": journal_bytes,
            "harness.ipc_bytes": sum(len(pickle.dumps(r)) for r in results),
        }
        for _, kind in _DECIDE_KINDS:
            counts[f"decision.decide.calls.{kind}"] = self.calls(f"decision.decide.{kind}")
        step_ns = self.ns("engine.step")
        step_children_ns = sum(self.ns(s) for s in _STEP_CHILDREN)
        hash_calls = self.calls("decision.prompt_hash")
        timings = {
            "landscape.roll_step_state.ns": self.ns("landscape.roll_step_state"),
            "landscape.roll_useful_ratio": contacts / self.cells_rolled if self.cells_rolled else 0.0,
            "landscape.init.ns": self.ns("landscape.init"),
            "seeding.substream.ns": self.ns("seeding.substream"),
            "agents.init_market_makers.ns": self.ns("agents.init_market_makers"),
            "agents.client_base.ns": self.ns("agents.client_base"),
            "engine.Simulation.init.ns": self.ns("engine.Simulation.init"),
            "engine.step.ns.p50": statistics.median(steps) if steps else 0,
            "engine.step.ns.p99": steps[min(len(steps) - 1, int(0.99 * len(steps)))] if steps else 0,
            "engine.step.self_ns": step_ns - step_children_ns if step_ns else 0,
            "agents.apply_costs.ns": self.ns("agents.apply_costs"),
            "decision.decide.ns": self.ns("decision.decide"),
            "decision.journal_line.ns": self.ns("decision.journal_line"),
            "decision.prompt_hash.ns": self.ns("decision.prompt_hash"),
            "decision.prompt_hash.unique_ratio": len(self.prompt_hashes) / hash_calls if hash_calls else 0.0,
            "prompts.render_template.ns": self.ns("prompts.render_template"),
            "decision.read_journal.ns": self.ns("decision.read_journal"),
            "decision.error_share": errors / decisions if decisions else 0.0,
            "metrics.summarize_simulation.ns": self.ns("metrics.summarize_simulation"),
            "metrics.aggregate_batch.ns": self.ns("metrics.aggregate_batch"),
            "metrics.yes_ratio_series.ns": self.ns("metrics.yes_ratio_series"),
            "harness.write_outputs.ns": self.ns("harness.write_outputs"),
            "harness.sim_phase.ns": wall_ns - sum(self.ns(s) for s in _POST_PROCESSING),
        }
        return timings, counts
