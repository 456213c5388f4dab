"""Deterministic seed derivation for graphs, trials and rounds.

Everything random in this package flows through :func:`rng_for`, which maps a
tuple of integers (e.g. ``(master_seed, trial, round)``) to an independent
``numpy.random.Generator``. The mapping is a fixed splitmix64 chain, so
sequences are reproducible across runs and platforms and disjoint streams can
be handed to concurrent trials without coordination.

Building a ``Generator`` costs far more than a stalled round's draws, so the
trial loop does not call :func:`rng_for` per round. :func:`round_states`
derives, for a block of rounds at once, the exact PCG64 state that
``rng_for(master_seed, i, t)`` starts in, as 128-bit integers held in uint64
limbs. The loop resets one reused ``Generator`` to such a state before each
round it steps. For the rounds of a stalled trial, :class:`StreamBatch` goes
further: it computes the first outputs of many round streams at once by PCG64
jump-ahead and maps them to the draws ``Generator.integers`` and
``Generator.random`` would make, so a round can be read off its draws without
running it. Every draw is the same as from a fresh :func:`rng_for`;
``tests/test_seeds.py`` compares the two, so a numpy change to SeedSequence,
PCG64 seeding or its bounded-integer sampler fails there rather than shifting
records.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass

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


# -- 128-bit PCG64 arithmetic on limbs -----------------------------------------
#
# A 128-bit integer is a (hi, lo) pair of uint64 arrays; uint64 products wrap,
# so these are exact mod 2^128 under numpy broadcasting.


def _add128(a, b):
    lo = a[1] + b[1]
    return a[0] + b[0] + (lo < a[1]), lo


def _mul128(a, b):
    """(a * b) mod 2^128: the full 64 x 64 product of the low limbs from
    32-bit halves, plus the cross terms, which only reach the high limb."""
    a0, a1 = a[1] & 0xFFFFFFFF, a[1] >> 32
    b0, b1 = b[1] & 0xFFFFFFFF, b[1] >> 32
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> 32) + (p01 & 0xFFFFFFFF) + (p10 & 0xFFFFFFFF)
    hi = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32) + a[0] * b[1] + a[1] * b[0]
    return hi, a[1] * b[1]


def _limbs(values) -> tuple[np.ndarray, np.ndarray]:
    return (
        np.array([v >> 64 for v in values], dtype=np.uint64),
        np.array([v & _MASK64 for v in values], dtype=np.uint64),
    )


@functools.cache
def _jumps(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Row 0: M^j, row 1: M^(j-1) + ... + M + 1, for j = 1..count, as limbs.
    The j-th PCG64 state after s is M^j s + (M^(j-1) + ... + 1) inc."""
    mult, offset = [], []
    m, c = 1, 0
    for _ in range(count):
        m, c = m * _PCG_MULT & _MASK128, (c * _PCG_MULT + 1) & _MASK128
        mult.append(m)
        offset.append(c)
    hi, lo = _limbs(mult + offset)
    hi.flags.writeable = lo.flags.writeable = False  # shared by every caller
    return hi.reshape(2, 1, count), lo.reshape(2, 1, count)


@dataclass(frozen=True)
class RoundStates:
    """PCG64 start states of round streams: row = trial, column = round.

    ``limbs`` has shape (trials, rounds, 4): the 128-bit state and increment
    as uint64 limbs (state hi, state lo, inc hi, inc lo).
    """

    limbs: np.ndarray

    def bit_generator_state(self, row: int, col: int) -> dict:
        """The ``bit_generator.state`` that stream (row, col) starts in."""
        s_hi, s_lo, i_hi, i_lo = self.limbs[row, col].tolist()
        return {
            "bit_generator": "PCG64",
            "state": {"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo},
            "has_uint32": 0,
            "uinteger": 0,
        }

    def streams(self, row: int, start: int) -> StreamBatch:
        """Row ``row``'s streams from column ``start`` on, drawn in lockstep."""
        return StreamBatch(self.limbs[row, start:])


def round_states(master_seed: int, trials: Sequence[int], start: int, stop: int) -> RoundStates:
    """The states ``rng_for(master_seed, i, t)`` starts in, for each i in
    ``trials`` (rows) and each round t in ``[start, stop)`` (columns).
    """
    prefix = np.array([[mix_seed(master_seed, i)] for i in trials], dtype=np.uint64)
    seed = _splitmix64_array(prefix ^ np.arange(start, stop, dtype=np.uint64))
    words = _seed_sequence_words(seed.ravel()).reshape(seed.shape + (4,))
    initstate, initseq = (words[..., 0], words[..., 1]), (words[..., 2], words[..., 3])
    # pcg_setseq_128_srandom_r: inc = initseq << 1 | 1, then two LCG steps from 0
    inc = (initseq[0] << 1 | initseq[1] >> 63, initseq[1] << 1 | 1)
    state = _add128(_mul128(_add128(initstate, inc), _limbs([_PCG_MULT])), inc)
    return RoundStates(np.stack([*state, *inc], axis=-1))


class StreamBatch:
    """R PCG64 streams drawn in lockstep, each as a ``Generator`` reset to its
    start state would draw it.

    It stands in for the ``Generator`` that R independent draws of one round
    take their randomness from: a request for ``size`` values takes
    ``size / R`` of them from each stream, and stream r's values fill the r-th
    block of the result in C order. Draws are computed, not sampled: the j-th
    64-bit output is the XSL-RR output of the j-th state, reached by jump-ahead.

    ``integers`` follows numpy's 32-bit Lemire path: each 64-bit output gives
    its low half, then its high half, and a half left over waits for the next
    ``integers`` call (``random`` does not consume it). Where the sampler would
    reject a draw and redraw, the stream's ``redrawn`` flag is set and its
    later values are not the ``Generator``'s. Ranges of 2^32 or more are not
    emulated; they flag every stream.
    """

    def __init__(self, limbs: np.ndarray):
        # from (R, 4) rows of RoundStates.limbs: hi and lo limbs of shape
        # (2, R, 1), the start states in row 0 and the increments in row 1
        self._start = (limbs[:, 0::2].T[:, :, None], limbs[:, 1::2].T[:, :, None])
        self.rows = len(limbs)
        self.redrawn = np.zeros(self.rows, dtype=bool)
        self._used = 0
        self._half: np.ndarray | None = None

    def _per_stream(self, size) -> int:
        return int(np.prod(size)) // self.rows

    def random_raw(self, count: int) -> np.ndarray:
        """The next ``count`` 64-bit outputs of every stream, shape (R, count)."""
        stop = self._used + count
        # a power-of-two table length keeps the cache to a few entries
        jump = _jumps(1 << max(stop - 1, 0).bit_length())
        terms = _mul128(self._start, tuple(limb[..., self._used : stop] for limb in jump))
        hi, lo = _add128((terms[0][0], terms[1][0]), (terms[0][1], terms[1][1]))
        self._used = stop
        # XSL-RR: hi ^ lo rotated right by the state's top six bits
        x, rot = hi ^ lo, hi >> 58
        return x >> rot | x << (-rot & 63)

    def integers(self, m: int, size) -> np.ndarray:
        """``Generator.integers(m, size=size)`` for each stream."""
        k = self._per_stream(size)
        if m == 1 or k == 0:
            return np.zeros(size, dtype=np.int64)  # numpy draws nothing here
        if m > 0xFFFFFFFF:
            self.redrawn[:] = True
            return np.zeros(size, dtype=np.int64)
        carried = [] if self._half is None else [self._half[:, None]]
        fresh = k - len(carried)
        raw = self.random_raw((fresh + 1) // 2)
        halves = np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=2).reshape(self.rows, -1)
        self._half = halves[:, -1] if fresh % 2 else None
        words = np.concatenate(carried + [halves[:, :fresh]], axis=1)
        scaled = words * np.uint64(m)
        # numpy redraws while the low word is below (2^32 - m) mod m
        self.redrawn |= ((scaled & 0xFFFFFFFF) < (1 << 32) % m).any(axis=1)
        return (scaled >> 32).astype(np.int64).reshape(size)

    def random(self, size) -> np.ndarray:
        """``Generator.random(size)`` for each stream."""
        raw = self.random_raw(self._per_stream(size))
        return ((raw >> 11) * (1.0 / 9007199254740992.0)).reshape(size)
