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
    assert states.limbs.shape == (len(TRIALS), 201, 4)
    for row, trial in enumerate(TRIALS):
        for t in range(201):
            assert states.bit_generator_state(row, t) == rng_for(master, trial, t).bit_generator.state


@pytest.mark.parametrize(
    "start, stop",
    [(ROUND_BLOCK - 1, ROUND_BLOCK + 2), (ROUND_BLOCK, 2 * ROUND_BLOCK), (137, 138), (5, 5)],
)
def test_round_states_window_matches_full_range(start, stop):
    full = round_states(-1, TRIALS, 0, 2 * ROUND_BLOCK + 10)
    window = round_states(-1, TRIALS, start, stop)
    assert window.limbs.shape == (len(TRIALS), stop - start, 4)
    for row in range(len(TRIALS)):
        for col in range(stop - start):
            assert window.bit_generator_state(row, col) == full.bit_generator_state(row, start + col)


@pytest.mark.parametrize("master", (0, -1, 2**64 - 1))
def test_draws_after_reset_equal_a_fresh_generator(master):
    reused = np.random.Generator(np.random.PCG64(0))
    for trial in TRIALS:
        states = round_states(master, [trial], 60, 70)
        for t in range(60, 70):
            # leave a buffered 32-bit half behind so the reset has to clear it
            reused.integers(7, size=33)
            reused.bit_generator.state = states.bit_generator_state(0, t - 60)
            fresh = rng_for(master, trial, t)
            assert np.array_equal(reused.integers(1023, size=32), fresh.integers(1023, size=32))
            assert np.array_equal(reused.random(32), fresh.random(32))
            assert np.array_equal(reused.integers(2**40, size=32), fresh.integers(2**40, size=32))


# -- batched draws ---------------------------------------------------------------
#
# StreamBatch computes the draws of many reset Generators at once; each test
# compares it with fresh rng_for generators on the same round streams.


def batches(master, rounds=12):
    """Per trial, a StreamBatch over rounds [0, rounds) and the fresh generators
    it stands in for."""
    states = round_states(master, TRIALS, 0, rounds)
    for row, trial in enumerate(TRIALS):
        yield states.streams(row, 0), [rng_for(master, trial, t) for t in range(rounds)]


@pytest.mark.parametrize("master", MASTER_SEEDS)
def test_batched_outputs_equal_random_raw(master):
    for batch, fresh in batches(master):
        got = np.hstack([batch.random_raw(5), batch.random_raw(0), batch.random_raw(70)])
        assert np.array_equal(got, [g.bit_generator.random_raw(75) for g in fresh])


@pytest.mark.parametrize("m", [1, 2, 7, 1023, 65535])
@pytest.mark.parametrize("master", MASTER_SEEDS)
def test_bounded_integers_equal_generator_integers(master, m):
    for batch, fresh in batches(master):
        for k in (3, 4, 1, 0, 5):
            got = batch.integers(m, size=len(fresh) * k).reshape(len(fresh), k)
            assert np.array_equal(got, [g.integers(m, size=k) for g in fresh])
        assert not batch.redrawn.any()


@pytest.mark.parametrize("master", MASTER_SEEDS)
def test_rejection_zone_is_flagged_exactly(master):
    # At m = 2^31 + 1 about half of all 32-bit words fall in Lemire's
    # rejection zone, so about three rounds in four redraw.
    m, rounds = 2**31 + 1, 40
    states = round_states(master, TRIALS, 0, rounds)
    for row, trial in enumerate(TRIALS):
        batch = states.streams(row, 0)
        got = batch.integers(m, size=rounds * 2).reshape(rounds, 2)
        assert 0 < batch.redrawn.sum() < rounds
        for t in range(rounds):
            fresh, one_word = rng_for(master, trial, t), rng_for(master, trial, t)
            expected = fresh.integers(m, size=2)
            one_word.bit_generator.random_raw(1)
            # flagged exactly when numpy drew more than the one 64-bit word
            after, one = fresh.bit_generator.state, one_word.bit_generator.state
            redrew = (after["state"], after["has_uint32"]) != (one["state"], one["has_uint32"])
            assert batch.redrawn[t] == redrew
            if not redrew:
                assert np.array_equal(got[t], expected)


@pytest.mark.parametrize("master", MASTER_SEEDS)
def test_coins_equal_generator_random(master):
    for batch, fresh in batches(master):
        for k in (1, 6, 0, 3):
            got = batch.random((len(fresh), k))
            assert np.array_equal(got, [g.random(k) for g in fresh])


@pytest.mark.parametrize("master", (0, -1, 2**64 - 1))
@pytest.mark.parametrize("push, pull", [(3, 4), (5, 5), (1, 1), (1, 2), (4, 3)])
def test_buffered_half_carries_from_push_into_pull_draws(master, push, pull):
    # A PUSH-PULL round draws push targets, push coins, pull sources, pull
    # coins; after an odd push count the pull sources start with the high
    # half that the push targets left buffered, which random() skips over.
    for batch, fresh in batches(master):
        rows = len(fresh)
        got = [
            batch.integers(1023, size=rows * push).reshape(rows, push),
            batch.random((rows, push)),
            batch.integers(7, size=rows * pull).reshape(rows, pull),
            batch.random((rows, pull)),
        ]
        expected = [
            [g.integers(1023, size=push) for g in fresh],
            [g.random(push) for g in fresh],
            [g.integers(7, size=pull) for g in fresh],
            [g.random(pull) for g in fresh],
        ]
        for a, b in zip(got, expected):
            assert np.array_equal(a, b)


def test_ranges_past_32_bits_prove_nothing():
    batch = round_states(3, TRIALS, 0, 8).streams(1, 0)
    batch.integers(2**32, size=8 * 2)
    assert batch.redrawn.all()
