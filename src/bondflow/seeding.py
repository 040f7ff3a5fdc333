"""Deterministic seed derivation.

Every random draw in a simulation comes from a named substream of a
per-simulation seed, which is itself derived from the batch master seed and
the simulation index by a stable cryptographic hash. Nothing depends on
process count, wall clock, or Python's hash randomization. The bytes do
depend on numpy, though: on its SIMD ``exp`` kernel, which rounds some
holdings an ulp apart on CPUs with and without AVX-512 (ROADMAP item 13),
and on the ``Generator`` methods and the seeding that
``tests/test_canaries.py`` pins.

Hot streams are read ahead in blocks (``BufferedIntegers``,
``buffered_uniforms``): one private generator hands out a numpy block value
by value, then draws the next. Each draw equals the scalar numpy call it
replaces, bit for bit, but the numpy generator runs ahead of what has been
handed out. That is invisible only under the one-consumer contract: a
buffered generator is read through its reader alone, by one consumer, for
its whole life. Drawing from it directly, or through a second reader, gets
values the scalar sequence would have handed out later. So each consumer
takes its generator when it is built: the engine's contact pick, and the
coin-flip and bursty providers (``decision.build_provider``). A reader
holds a Python generator, so it cannot be pickled. Nothing pickles one:
providers and sims are built in the process that runs them, and a
``SimulationResult`` holds no reader.

The step-rolls stream goes further under the same contract: its
consumer, ``landscape.Landscape``, reads the generator's PCG64 ``(state,
inc)`` when it is built and computes every draw from them, keeping no
generator (see ``Landscape`` for the jump-ahead and its table).
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable, Iterator
from functools import partial

import numpy as np

# Named substreams of a simulation seed. Keeping consumers separate means
# e.g. swapping the decision provider never perturbs landscape sampling.
STREAM_LANDSCAPE_INIT = 0
STREAM_AGENT_INIT = 1
STREAM_STEP_ROLLS = 2
STREAM_CONTACT_SELECTION = 3
STREAM_PROVIDER = 4


def stable_hash64(*parts: object) -> int:
    """Collapse *parts* into a stable unsigned 64-bit integer.

    Unlike ``hash()``, the result is identical across processes and runs.
    Parts are joined with a separator byte so ("ab", "c") != ("a", "bc").
    """
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(str(part).encode("utf-8"))
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "big")


def simulation_seed(master_seed: int, sim_id: int) -> int:
    """Seed for one simulation within a batch."""
    return stable_hash64("sim", master_seed, sim_id)


def substream(seed: int, stream: int) -> np.random.Generator:
    """A PCG64 generator for one named substream of *seed*."""
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


_WORD_MASK = 0xFFFFFFFF
BLOCK = 256  # 64-bit outputs read per refill


def _read_ahead(block: Callable[[], np.ndarray]) -> Iterator:
    """Every value of one ``block()``, then of the next, for ever."""
    while True:
        yield from block().tolist()


class BufferedIntegers:
    """Scalar ``rng.integers(n)`` for ``1 <= n <= 2**32``, read ahead in blocks.

    numpy draws a bounded integer below ``2**32`` from the bit generator's
    32-bit output, which splits each 64-bit PCG64 output into its low half,
    then its high half. It applies Lemire's multiply-shift (D. Lemire,
    "Fast Random Integer Generation in an Interval", ACM TOMACS 2019):
    ``(u32 * n) >> 32``, rejecting while the low word of the product is
    below ``(2**32 - n) % n``; ``n == 1`` reads nothing. This decodes the
    same halves from ``random_raw`` blocks, so every value and every
    rejection matches the scalar call on a fresh generator. One consumer
    only (see the module docstring).
    """

    def __init__(self, rng: np.random.Generator) -> None:
        raw = partial(rng.bit_generator.random_raw, BLOCK)
        # Little-endian 64-bit outputs read as 32-bit words: each output's low half, then its high half.
        self._word = _read_ahead(lambda: raw().astype("<u8", copy=False).view("<u4")).__next__

    def integers(self, n: int) -> int:
        if n == 1:
            return 0
        if not 1 < n <= 1 << 32:
            raise ValueError(f"bound {n} outside [1, 2**32]")
        word = self._word
        while True:
            m = word() * n
            low = m & _WORD_MASK
            # Only a low word below n can fall under the threshold.
            if low >= n or low >= ((1 << 32) - n) % n:
                return m >> 32


def buffered_uniforms(rng: np.random.Generator) -> Callable[[], float]:
    """Scalar ``rng.random()``, read ahead in blocks.

    ``rng.random(k)`` hands out exactly the values of k scalar calls, so
    each block continues the scalar sequence. One consumer only (see the
    module docstring).
    """
    return _read_ahead(partial(rng.random, BLOCK)).__next__
