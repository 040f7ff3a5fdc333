"""Seed derivation, substreams, and the buffered draws checked against numpy."""

from __future__ import annotations

import numpy as np
import pytest

from bondflow import DesireQuery, Simulation, build_provider, resolve_preset, simulation_seed
from bondflow.decision import BernoulliProvider, SyntheticBurstyProvider
from bondflow.seeding import (
    BLOCK,
    STREAM_AGENT_INIT,
    STREAM_CONTACT_SELECTION,
    STREAM_LANDSCAPE_INIT,
    STREAM_PROVIDER,
    STREAM_STEP_ROLLS,
    BufferedIntegers,
    buffered_uniforms,
    stable_hash64,
    substream,
)


def test_stable_hash64_frozen_values():
    # Frozen so a refactor that silently changes derivation is caught: these
    # values pin every journal, seed, and output byte produced so far.
    assert stable_hash64("sim", 42, 0) == 16037379353353072825
    assert stable_hash64("sim", 42, 1) == 18015208542731717044
    assert stable_hash64("a", "b") == 16700642292405854599


def test_stable_hash64_range_and_determinism():
    vals = [stable_hash64("x", i) for i in range(500)]
    assert vals == [stable_hash64("x", i) for i in range(500)]
    assert all(0 <= v < 2**64 for v in vals)
    assert len(set(vals)) == 500


def test_stable_hash64_field_separation():
    # ("a", "b") must differ from ("ab",): fields are delimited, not glued.
    assert stable_hash64("a", "b") != stable_hash64("ab")
    assert stable_hash64("a", "b") == 16700642292405854599
    assert stable_hash64("ab") == 15099593414697941432


def test_simulation_seed_matches_hash_and_is_frozen():
    assert simulation_seed(42, 0) == stable_hash64("sim", 42, 0)
    assert simulation_seed(1234, 3) == 15103088109941775571
    seeds = {simulation_seed(42, i) for i in range(1000)}
    assert len(seeds) == 1000


def test_substream_determinism_and_independence():
    seed = simulation_seed(42, 0)
    streams = [
        STREAM_LANDSCAPE_INIT,
        STREAM_AGENT_INIT,
        STREAM_STEP_ROLLS,
        STREAM_CONTACT_SELECTION,
        STREAM_PROVIDER,
    ]
    assert streams == [0, 1, 2, 3, 4]
    draws = {s: substream(seed, s).random(8).tolist() for s in streams}
    # Re-derived generators reproduce the exact draws...
    for s in streams:
        assert substream(seed, s).random(8).tolist() == draws[s]
    # ...and no two streams share a sequence.
    seen = [tuple(v) for v in draws.values()]
    assert len(set(seen)) == len(seen)


def test_substream_returns_numpy_generator():
    rng = substream(7, 0)
    assert isinstance(rng, np.random.Generator)


# -- buffered draws: bit-exact against scalar numpy ---------------------------

HEAVY_BOUNDS = [2**31 + 1, 2**32 - 1, 2**32]  # rejection near 1/2, or none at all


def assert_integers_match(seed, bounds):
    """Each buffered draw equals scalar ``integers`` on an identically seeded generator."""
    buffered = BufferedIntegers(np.random.default_rng(seed))
    reference = np.random.default_rng(seed)
    for i, n in enumerate(bounds):
        got, want = buffered.integers(n), int(reference.integers(n))
        assert got == want, f"draw {i}, bound {n}: {got} != {want}"


def test_buffered_integers_match_scalar_numpy_on_a_million_mixed_bounds():
    picker = np.random.default_rng(2019)
    small = picker.integers(1, 2602, size=500_000)  # client-base sizes, 1 included
    large = picker.integers(2, 2**32 + 1, size=500_000)
    bounds = np.where(picker.random(500_000) < 0.5, small, large).tolist()
    # 2**31 first: a power of two has threshold 0, so a low word of exactly 0
    # (half of all draws) tells ">=" from ">" before 2**32 could loop forever.
    special = [2**31] * 40 + [1, 2, 3, 40, 1, 1, *HEAVY_BOUNDS] * 50_000
    assert_integers_match(11, special + bounds)


def test_bound_one_reads_nothing():
    buffered = BufferedIntegers(np.random.default_rng(3))
    reference = np.random.default_rng(3)
    assert [buffered.integers(1) for _ in range(5)] == [0] * 5
    # The next draws still start at the stream's first word.
    assert [buffered.integers(2**32 - 1) for _ in range(3)] == [
        int(reference.integers(2**32 - 1)) for _ in range(3)
    ]


def test_block_refill_in_the_middle_of_a_rejection_loop():
    """A heavy bound rejects the last two words of the first block.

    Bound 2 never rejects, so 2*BLOCK - 2 such draws leave exactly two words
    of the first block; the seed is picked so that the heavy draw rejects
    both and finds its value in the next block.
    """
    n = 2**31 + 1
    threshold = (2**32 - n) % n
    words_per_block = 2 * BLOCK

    def rejected(word):
        return (word * n) & 0xFFFFFFFF < threshold

    for seed in range(1000):
        raw = np.random.default_rng(seed).bit_generator.random_raw(BLOCK).tolist()
        last = [raw[-1] & 0xFFFFFFFF, raw[-1] >> 32]  # low half first
        if all(rejected(w) for w in last):
            break
    else:
        pytest.fail("no seed below 1000 rejects both last words")
    assert_integers_match(seed, [2] * (words_per_block - 2) + [n] + [2, n, 40] * 1000)


def test_buffered_integers_refuse_bounds_numpy_draws_differently():
    buffered = BufferedIntegers(np.random.default_rng(0))
    for n in (0, 2**32 + 1):
        with pytest.raises(ValueError):
            buffered.integers(n)


def test_buffered_uniforms_match_scalar_random():
    draw = buffered_uniforms(np.random.default_rng(8))
    reference = np.random.default_rng(8)
    draws = 3 * BLOCK + 17
    assert [draw() for _ in range(draws)] == [reference.random() for _ in range(draws)]


def test_provider_uniforms_match_scalar_random():
    """Built-in providers decide on exactly the scalar ``random()`` sequence."""
    q = DesireQuery(0, 0, 0, (0, 0), 1.0, 1.0, 0)
    draws = 2 * BLOCK + 5

    coin, reference = BernoulliProvider(0.37, np.random.default_rng(21)), np.random.default_rng(21)
    got = [coin.decide(q).state.value for _ in range(draws)]
    assert got == ["yes" if reference.random() < 0.37 else "no" for _ in range(draws)]

    # Bursty: a stationary draw when built, then one transition draw per decision.
    bursty, reference = SyntheticBurstyProvider(0.656, 0.544, np.random.default_rng(22)), np.random.default_rng(22)
    got = [bursty.decide(q).state.value for _ in range(draws)]
    state = "yes" if reference.random() < bursty.stationary_yes else "no"
    want = []
    for _ in range(draws):
        want.append(state)
        stay = bursty.stay_yes if state == "yes" else bursty.stay_no
        if reference.random() >= stay:
            state = "no" if state == "yes" else "yes"
    assert got == want


def test_a_bursty_simulation_holds_no_generator():
    # Every stream's consumer takes its generator when it is built; neither
    # the sim nor anything it holds directly keeps one to hand out or draw from.
    cfg = resolve_preset("exp3")
    seed = simulation_seed(cfg.master_seed, 0)
    sim = Simulation(0, seed, cfg.landscape, cfg.agents, build_provider(cfg.provider, seed), max_steps=5)
    assert isinstance(sim.provider, SyntheticBurstyProvider)
    held = [*vars(sim).values(), *vars(sim.provider).values(), *vars(sim.grid).values()]
    assert not [v for v in held if isinstance(v, np.random.Generator)]
    # The provider's first draw, its initial state, was taken from the provider substream.
    first = substream(seed, STREAM_PROVIDER).random()
    assert (sim.provider._state.value == "yes") == (first < sim.provider.stationary_yes)
