"""Seeded random-stream management.

The paper reruns every simulation with multiple seeds and averages (§4.3).
:class:`RandomStreams` hands out independent, reproducible
``numpy.random.Generator`` streams keyed by name so that, e.g., traffic
generation and adaptive-routing tie-breaks do not perturb each other when
one component is reconfigured.
"""

from __future__ import annotations

import numpy as np


class RandomStreams:
    """A family of named, independent random generators from one root seed."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the generator for ``name``."""
        gen = self._streams.get(name)
        if gen is None:
            # Independent child streams derived from (root seed, name).
            seq = np.random.SeedSequence(self.seed, spawn_key=(stable_hash(name),))
            gen = np.random.default_rng(seq)
            self._streams[name] = gen
        return gen

    def spawn(self, offset: int) -> "RandomStreams":
        """A new family for repetition ``offset`` of the same experiment."""
        return RandomStreams(self.seed + offset)


def seeded_generator(seed: int = 0) -> np.random.Generator:
    """The one sanctioned way to build a standalone seeded ``Generator``.

    Components that cannot be handed a :class:`RandomStreams` (or that must
    stay bit-compatible with the historical ``np.random.default_rng(seed)``
    defaults) call this instead of reaching for ``numpy.random`` directly.
    ``tests/test_determinism_sources.py`` refuses ``np.random.*`` calls
    everywhere outside this module, and ``random`` imports everywhere, so
    every random draw in the simulator is traceable to an explicit seed.
    """
    return np.random.default_rng(seed)


def stable_hash(name: str) -> int:
    """Deterministic 32-bit FNV-1a hash of a string.

    Python's builtin ``hash()`` is salted per process (PYTHONHASHSEED), so
    it must never feed stream derivation, congestion signatures, or any
    other value that influences simulation behaviour;
    ``tests/test_determinism_sources.py`` refuses every call to it under
    ``src/repro``.  Use this helper instead.
    """
    value = 2166136261
    for byte in name.encode("utf-8"):
        value = ((value ^ byte) * 16777619) & 0xFFFFFFFF
    return value
