"""Deterministic seed derivation for graphs and trials.

Everything random in this package flows through :func:`rng_for`, which maps a
tuple of integers (e.g. ``(master_seed, trial)`` or ``(graph_seed, round)``)
to an independent ``numpy.random.Generator``. The mapping is a fixed
splitmix64 chain, so sequences are reproducible across runs and platforms and
disjoint streams can be handed to concurrent trials without coordination.

:func:`mix_seed` is the one seed check: a part that is not an integer
(:func:`errors._is_integer`) raises :class:`RangeError`. A part is read
modulo 2**64, so a negative seed is valid.
"""

from __future__ import annotations

import numpy as np

from .errors import RangeError, _is_integer

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One splitmix64 scrambling step (Steele et al.), a stable 64-bit mix."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def mix_seed(*parts: int) -> int:
    """Fold integer parts into a single 64-bit seed, order-sensitively."""
    acc = 0x243F6A8885A308D3  # pi fraction, fixed starting state
    for part in parts:
        if not _is_integer(part):
            raise RangeError(f"seed part {part!r} is not an integer")
        acc = splitmix64(acc ^ (int(part) & _MASK64))
    return acc


def rng_for(*parts: int) -> np.random.Generator:
    """Independent generator for the stream identified by ``parts``."""
    return np.random.Generator(np.random.PCG64(mix_seed(*parts)))
