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
    states = round_states(master, TRIALS, 0, 201)
    assert [len(row) for row in states] == [201] * len(TRIALS)
    for row, trial in enumerate(TRIALS):
        for t in range(201):
            assert states[row][t] == rng_for(master, trial, t).bit_generator.state


@pytest.mark.parametrize(
    "start, stop",
    [(ROUND_BLOCK - 1, ROUND_BLOCK + 2), (ROUND_BLOCK, 2 * ROUND_BLOCK), (137, 138), (5, 5)],
)
def test_round_states_window_matches_full_range(start, stop):
    full = round_states(-1, TRIALS, 0, 2 * ROUND_BLOCK + 10)
    window = round_states(-1, TRIALS, start, stop)
    assert [len(row) for row in window] == [stop - start] * len(TRIALS)
    for row in range(len(TRIALS)):
        for col in range(stop - start):
            assert window[row][col] == full[row][start + col]


@pytest.mark.parametrize("master", (0, -1, 2**64 - 1))
def test_draws_after_reset_equal_a_fresh_generator(master):
    reused = np.random.Generator(np.random.PCG64(0))
    for trial in TRIALS:
        states = round_states(master, [trial], 60, 70)
        for t in range(60, 70):
            # leave a buffered 32-bit half behind so the reset has to clear it
            reused.integers(7, size=33)
            reused.bit_generator.state = states[0][t - 60]
            fresh = rng_for(master, trial, t)
            assert np.array_equal(reused.integers(1023, size=32), fresh.integers(1023, size=32))
            assert np.array_equal(reused.random(32), fresh.random(32))
            assert np.array_equal(reused.integers(2**40, size=32), fresh.integers(2**40, size=32))


# -- draws after a reset -----------------------------------------------------------
#
# The mask engine resets one reused Generator to each round's state and lets
# ``step`` draw from it; each test below makes the draws of one round kind and
# compares them with a fresh rng_for generator on the same round stream.


def reset_rounds(master, rounds=12):
    """Per trial and round, a reused Generator reset to its ``round_states``
    entry, and the fresh generator it stands in for. Before each reset the
    reused generator is left holding a buffered 32-bit half."""
    reused = np.random.Generator(np.random.PCG64(0))
    states = round_states(master, TRIALS, 0, rounds)
    for row, trial in enumerate(TRIALS):
        for t in range(rounds):
            reused.integers(7, size=33)
            reused.bit_generator.state = states[row][t]
            yield reused, rng_for(master, trial, t)


@pytest.mark.parametrize("master", MASTER_SEEDS)
def test_reset_outputs_equal_random_raw(master):
    for reused, fresh in reset_rounds(master):
        for k in (5, 0, 70):
            assert np.array_equal(reused.bit_generator.random_raw(k), fresh.bit_generator.random_raw(k))


@pytest.mark.parametrize("m", [1, 2, 7, 1023, 65535])
@pytest.mark.parametrize("master", MASTER_SEEDS)
def test_reset_bounded_integers_equal_generator_integers(master, m):
    for reused, fresh in reset_rounds(master):
        for k in (3, 4, 1, 0, 5):
            assert np.array_equal(reused.integers(m, size=k), fresh.integers(m, size=k))


@pytest.mark.parametrize("master", MASTER_SEEDS)
def test_reset_draws_through_the_rejection_zone(master):
    # At m = 2^31 + 1 about half of all 32-bit words fall in Lemire's
    # rejection zone, so about three rounds in four redraw.
    m, rounds = 2**31 + 1, 40
    redrawn = dict.fromkeys(TRIALS, 0)
    for t, (reused, fresh) in enumerate(reset_rounds(master, rounds)):
        one_word = rng_for(master, TRIALS[t // rounds], t % rounds)
        one_word.bit_generator.random_raw(1)
        assert np.array_equal(reused.integers(m, size=2), fresh.integers(m, size=2))
        after, one = fresh.bit_generator.state, one_word.bit_generator.state
        redrawn[TRIALS[t // rounds]] += (after["state"], after["has_uint32"]) != (one["state"], one["has_uint32"])
    # rounds that stop at one 64-bit word and rounds that redraw both occur
    assert all(0 < count < rounds for count in redrawn.values())


@pytest.mark.parametrize("master", MASTER_SEEDS)
def test_reset_coins_equal_generator_random(master):
    for reused, fresh in reset_rounds(master):
        for k in (1, 6, 0, 3):
            assert np.array_equal(reused.random(k), fresh.random(k))


@pytest.mark.parametrize("master", (0, -1, 2**64 - 1))
@pytest.mark.parametrize("push, pull", [(3, 4), (5, 5), (1, 1), (1, 2), (4, 3)])
def test_buffered_half_carries_from_push_into_pull_draws(master, push, pull):
    # A PUSH-PULL round draws push targets, push coins, pull sources, pull
    # coins; after an odd push count the pull sources start with the high
    # half that the push targets left buffered, which random() skips over.
    for reused, fresh in reset_rounds(master):
        for draw in (
            lambda g: g.integers(1023, size=push),
            lambda g: g.random(push),
            lambda g: g.integers(7, size=pull),
            lambda g: g.random(pull),
        ):
            assert np.array_equal(draw(reused), draw(fresh))


def test_reset_ranges_past_32_bits_equal_generator_integers():
    for reused, fresh in reset_rounds(3, rounds=8):
        assert np.array_equal(reused.integers(2**32, size=2), fresh.integers(2**32, size=2))
        assert np.array_equal(reused.integers(2**40, size=3), fresh.integers(2**40, size=3))
