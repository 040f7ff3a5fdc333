"""The package root exports the documented library API, and nothing else."""

from __future__ import annotations

import inspect
import re
from pathlib import Path

import bondflow

README = Path(__file__).resolve().parent.parent / "README.md"
PYPROJECT = README.parent / "pyproject.toml"

# README "Library use", the names perfbench reads from the package root, and
# the types a custom ``decide(q)`` needs. Everything else is imported
# from its own module.
ROOT_API = [
    "BatchResult",
    "ConfigError",
    "DecisionOutcome",
    "DecisionProvider",
    "DecisionState",
    "DesireQuery",
    "ExperimentConfig",
    "PromptTemplate",
    "ProviderHardFailure",
    "ProviderKind",
    "Simulation",
    "SimulationResult",
    "build_provider",
    "read_journal",
    "rebuild_tables",
    "resolve_config",
    "resolve_preset",
    "run_batch",
    "simulation_seed",
    "split_journal",
    "yes_ratio_series",
]


def test_package_root_exports_exactly_the_api():
    assert sorted(bondflow.__all__) == ROOT_API
    assert all(hasattr(bondflow, name) for name in ROOT_API)
    # The package's version is the one it is built under.
    built = re.search(r'^version = "(.*)"$', PYPROJECT.read_text(encoding="utf-8"), re.M)
    assert built and bondflow.__version__ == built.group(1)


def test_readme_and_the_root_api_agree():
    readme = README.read_text(encoding="utf-8")
    library_use = readme.split("## Library use", 1)[1].split("\n## ", 1)[0]
    # Every exported name is listed there...
    assert [name for name in ROOT_API if f"`{name}`" not in library_use] == []
    # ...and every ``bf.<name>`` in a README code block is exported.
    code = "".join(re.findall(r"```python\n(.*?)```", readme, re.S))
    used = set(re.findall(r"\bbf\.(\w+)", code))
    assert used and used <= set(ROOT_API), sorted(used - set(ROOT_API))


def test_readme_builds_one_sim_as_the_harness_does():
    # README's one-sim example says it is what the batch harness does for
    # each sim, so its ``bf.Simulation(...)`` call names every keyword-only
    # parameter, each from the config.
    readme = README.read_text(encoding="utf-8")
    call = re.search(r"bf\.Simulation\((.*?)\n\)", readme, re.S)
    assert call, "README has no bf.Simulation( call"
    named = set(re.findall(r"(\w+)=cfg\.\1\b", call.group(1)))
    params = inspect.signature(bondflow.Simulation.__init__).parameters.values()
    keyword_only = {p.name for p in params if p.kind is inspect.Parameter.KEYWORD_ONLY}
    assert keyword_only and sorted(keyword_only - named) == []
