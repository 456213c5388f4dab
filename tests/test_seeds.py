"""The seed contract: splitmix64 / mix_seed golden values and batched round states.

``round_states`` restates numpy's SeedSequence and PCG64 seeding; these tests
compare it with ``rng_for`` itself, so a numpy release that changed either
derivation would fail here before any record moved.
"""

from __future__ import annotations

import numpy as np
import pytest

from gossipsim.harness import ROUND_BLOCK
from gossipsim.seeds import mix_seed, rng_for, round_states, splitmix64

MASTER_SEEDS = (0, 1, -1, 2**32 - 1, 2**32, 2**63, 2**64 - 1)
TRIALS = (0, 1, 39, 2**40)


def test_splitmix64_golden():
    # 0xE220A8397B1DCDAF is the first output of the reference splitmix64
    # generator seeded with 0.
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(1) == 0x910A2DEC89025CC1
    assert splitmix64(2**64 - 1) == 0xE4D971771B652C20


@pytest.mark.parametrize(
    "parts, expected",
    [
        ((), 0x243F6A8885A308D3),
        ((0,), 0x2CB0F69F4ABEA221),
        ((21,), 0x4289F03138921464),
        ((-1,), 0x4E68389F0748AA13),
        ((2**64 - 1,), 0x4E68389F0748AA13),
        ((7, 3), 0x417D3CF3769DC815),
        ((0, 0, 0), 0xEA23449128F3064A),
        ((21, 39, 499), 0xCEB1F8E928AAEDEB),
        ((-5, 2**40, 63), 0xD28185FDEE8E8849),
    ],
)
def test_mix_seed_golden(parts, expected):
    assert mix_seed(*parts) == expected


@pytest.mark.parametrize("master", MASTER_SEEDS)
def test_round_states_equal_rng_for(master):
    rows = round_states(master, TRIALS, 0, 201)
    assert len(rows) == len(TRIALS)
    for trial, row in zip(TRIALS, rows):
        assert len(row) == 201
        for t, state in enumerate(row):
            assert state == rng_for(master, trial, t).bit_generator.state


@pytest.mark.parametrize(
    "start, stop",
    [(ROUND_BLOCK - 1, ROUND_BLOCK + 2), (ROUND_BLOCK, 2 * ROUND_BLOCK), (137, 138), (5, 5)],
)
def test_round_states_window_matches_full_range(start, stop):
    full = round_states(-1, TRIALS, 0, 2 * ROUND_BLOCK + 10)
    window = round_states(-1, TRIALS, start, stop)
    assert window == [row[start:stop] for row in full]


@pytest.mark.parametrize("master", (0, -1, 2**64 - 1))
def test_draws_after_reset_equal_a_fresh_generator(master):
    reused = np.random.Generator(np.random.PCG64(0))
    for trial in TRIALS:
        for t, state in enumerate(round_states(master, [trial], 60, 70)[0], start=60):
            # leave a buffered 32-bit half behind so the reset has to clear it
            reused.integers(7, size=33)
            reused.bit_generator.state = state
            fresh = rng_for(master, trial, t)
            assert np.array_equal(reused.integers(1023, size=32), fresh.integers(1023, size=32))
            assert np.array_equal(reused.random(32), fresh.random(32))
            assert np.array_equal(reused.integers(2**40, size=32), fresh.integers(2**40, size=32))
