"""Canaries: one test per input from outside the repository that reaches the bytes.

The contract fixes a run's output bytes for a (config, seed, provider), but
those bytes also pass through numpy and pyyaml. A release of either may change
a method's output (NEP 19 lets numpy change a ``Generator`` method's algorithm
in a feature release; only the bit generators' raw streams are fixed). Each
canary pins a few values of one such input, so that a change shows here, with
the input and the files it reaches named, and not only as an anonymous sha256
mismatch in the byte pins of ``tests/test_harness.py``.
"""

from __future__ import annotations

import math

import numpy as np
import yaml

from bondflow import ProviderKind
from bondflow.seeding import STREAM_LANDSCAPE_INIT, STREAM_PROVIDER, substream

# Every file of a run's tree but the manifest; the byte pins that hash them.
TREE = (
    "trades.csv, decisions.csv, lifecycle.csv, summaries.csv, yes_ratio_series.csv, "
    "the stats tables and the journals, so the goldens, the whole-tree pins, the 200x200 "
    "pin, the shipped aversion corpus and the perfbench digests"
)


def test_generator_normal_canary():
    draws = np.random.default_rng(20240).normal(2.5, 1.0, size=3)
    assert [v.hex() for v in draws] == [
        "0x1.c2179c46d6728p+0", "0x1.25b70f6695336p+1", "0x1.7c65235ead5afp+0",
    ], (
        "numpy's Generator.normal changed: landscape.sample_truncated_lognormal draws every "
        f"client holding with it, and the holdings reach {TREE}"
    )


def test_generator_uniform_canary():
    rng = np.random.default_rng(20240)
    assert [rng.uniform(1.0, 5.0).hex() for _ in range(3)] == [
        "0x1.163e27434657fp+1", "0x1.03877288a9626p+2", "0x1.be3c1d6c8ec11p+1",
    ], (
        "numpy's Generator.uniform changed: agents.init_market_makers draws each market "
        f"maker's holdings and cost rates with it, which reach {TREE}"
    )


def test_generator_integers_canary():
    rng = np.random.default_rng(20240)
    assert [int(rng.integers(1, 51)), int(rng.integers(0, 50)), int(rng.integers(0, 50))] == [
        32, 14, 33,
    ], (
        "numpy's Generator.integers changed: agents.init_market_makers draws each market "
        f"maker's breadth and anchor cell with it, which reach {TREE}"
    )


def test_substream_seeding_canary():
    streams = (STREAM_LANDSCAPE_INIT, STREAM_PROVIDER)
    states = [substream(42, k).bit_generator.state["state"] for k in streams]
    assert states == [
        {"state": 274674114334540486603088602300644985544,
         "inc": 332724090758049132448979897138935081983},
        {"state": 321089841771030997676453394333783305337,
         "inc": 299187462342578702843609589580865774183},
    ], (
        "numpy's SeedSequence or PCG64 seeding changed: seeding.substream derives every "
        f"random stream of a sim from it, so every draw moves, and with them {TREE}"
    )


def test_yaml_emitter_canary():
    echo = {
        "landscape": {"availability_p": 0.1, "max_bonds": 1e16},
        "master_seed": 42,
        "provider": {
            "kind": ProviderKind.SYNTHETIC_BURSTY.value, "temperature": 1e-05, "timeout_s": math.inf,
        },
    }
    # The call harness.run_batch makes to write resolved_config.yaml.
    assert yaml.safe_dump(echo, sort_keys=True, default_flow_style=False) == (
        "landscape:\n"
        "  availability_p: 0.1\n"
        "  max_bonds: 1.0e+16\n"
        "master_seed: 42\n"
        "provider:\n"
        "  kind: bursty\n"
        "  temperature: 1.0e-05\n"
        "  timeout_s: .inf\n"
    ), (
        "pyyaml's emitter changed: it writes resolved_config.yaml, which every whole-tree pin "
        "and the perfbench digests hash, and which `bondflow tables` and `bondflow replay` read back"
    )


def test_numpy_exp_canary():
    # Inputs on which numpy's AVX-512 exp kernel and its AVX2 and baseline
    # kernels differ by one ulp; the pinned values are the AVX-512 kernel's.
    x = np.array([float.fromhex(h) for h in (
        "0x1.54f7062087e76p+1", "0x1.08cca6a5451cbp+1", "0x1.0e61f2a015f37p+1", "0x1.387552b58f750p+1",
    )])
    assert [v.hex() for v in np.exp(x)] == [
        "0x1.cb37bdc233cebp+3", "0x1.fa8d835e6acc7p+2", "0x1.08918656e591cp+3", "0x1.6f88bff903e59p+3",
    ], (
        "numpy's float64 exp differs from its AVX-512 kernel (ROADMAP item 13: the bytes depend "
        "on the CPU's SIMD dispatch): landscape.sample_truncated_lognormal puts every client "
        "holding through np.exp, and the logs write holdings with repr, so three byte pins "
        "fail with this canary: test_grid200_exp1_bytes_pinned and "
        "test_whole_tree_bytes_pinned[exp2-replay] and [exp3-journal] in tests/test_harness.py"
    )
