"""Deterministic seed derivation for graphs, trials and rounds.

Everything random in this package flows through :func:`rng_for`, which maps a
tuple of integers (e.g. ``(master_seed, trial, round)``) to an independent
``numpy.random.Generator``. The mapping is a fixed splitmix64 chain, so
sequences are reproducible across runs and platforms and disjoint streams can
be handed to concurrent trials without coordination.

Building a ``Generator`` costs far more than a stalled round's draws, so the
trial loop does not call :func:`rng_for` per round. :func:`round_states`
derives, for a block of rounds at once, the exact PCG64 state that
``rng_for(master_seed, i, t)`` starts in, and the loop resets one reused
``Generator`` to it before each round. Only the seeding is restated; the
draws are numpy's own, so they are the same as from a fresh :func:`rng_for`.
``tests/test_seeds.py`` compares the states with :func:`rng_for`'s, so a numpy
change to SeedSequence or PCG64 seeding fails there rather than shifting
records.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1


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
        acc = splitmix64(acc ^ (int(part) & _MASK64))
    return acc


def rng_for(*parts: int) -> np.random.Generator:
    """Independent generator for the stream identified by ``parts``."""
    return np.random.Generator(np.random.PCG64(mix_seed(*parts)))


# -- batched round states --------------------------------------------------------
#
# numpy's SeedSequence (pool of four 32-bit words) and PCG64 seeding, restated
# on arrays. Each hashmix call multiplies by the next power of its multiplier,
# so the constants form two fixed sequences.


def _powers(init: int, mult: int, count: int) -> np.ndarray:
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return np.array(out, dtype=np.uint32)[:, None]


_HASH_A = _powers(0x43B0D7E5, 0x931E8875, 16)  # mix_entropy's hashmix constants
_HASH_B = _powers(0x8B51F9DD, 0x58F38DED, 8)  # generate_state's constants
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG_DEFAULT_MULTIPLIER_128


def _hashmix(rows: np.ndarray, consts: np.ndarray, k: int) -> np.ndarray:
    """Hash row r of ``rows`` with the (k + r)-th constant of ``consts``."""
    value = (rows ^ consts[k : k + len(rows)]) * consts[k + 1 : k + 1 + len(rows)]
    return value ^ (value >> np.uint32(16))


def _splitmix64_array(x: np.ndarray) -> np.ndarray:
    """:func:`splitmix64` elementwise on a uint64 array."""
    x = x + np.uint64(0x9E3779B97F4A7C15)
    z = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _seed_sequence_words(seed: np.ndarray) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` as row s of the result,
    for every s in the 1-D uint64 array ``seed``."""
    # A seed below 2^32 has one entropy word; the pool hashes missing words
    # as 0, so two words always give the same pool.
    entropy = np.zeros((4, len(seed)), dtype=np.uint32)
    entropy[0] = seed & np.uint64(0xFFFFFFFF)
    entropy[1] = seed >> np.uint64(32)
    pool = _hashmix(entropy, _HASH_A, 0)
    k = 4
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        mixed = _MIX_L * pool[dst] - _MIX_R * _hashmix(pool[[src] * 3], _HASH_A, k)
        pool[dst] = mixed ^ (mixed >> np.uint32(16))
        k += 3
    words = _hashmix(pool[[0, 1, 2, 3] * 2], _HASH_B, 0)
    return np.ascontiguousarray(words.T).astype("<u4").view("<u8").astype(np.uint64)


def round_states(master_seed: int, trials: Sequence[int], start: int, stop: int) -> list[list[dict]]:
    """``rng_for(master_seed, i, t).bit_generator.state`` for each i in ``trials``
    (rows) and each round t in ``[start, stop)`` (columns).
    """
    prefix = np.array([[mix_seed(master_seed, i)] for i in trials], dtype=np.uint64)
    seed = _splitmix64_array(prefix ^ np.arange(start, stop, dtype=np.uint64))
    words = _seed_sequence_words(seed.ravel()).tolist()
    states = []
    for s_hi, s_lo, i_hi, i_lo in words:
        # pcg_setseq_128_srandom_r: two LCG steps from state 0
        inc = ((i_hi << 65) | (i_lo << 1) | 1) & _MASK128
        state = ((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc & _MASK128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0})
    width = stop - start
    return [states[r * width : (r + 1) * width] for r in range(len(trials))]
