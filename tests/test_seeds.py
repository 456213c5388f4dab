"""The seed contract: splitmix64 / mix_seed golden values and the trial streams.

Trial i of an experiment draws everything from ``rng_for(master_seed, i)``,
and its record's ``seed`` is ``mix_seed(master_seed, i)``. The golden words
below pin numpy's SeedSequence and PCG64 seeding, so a numpy release that
changed either derivation would fail here before any record moved.
"""

from __future__ import annotations

import numpy as np
import pytest

from gossipsim.seeds import mix_seed, rng_for, splitmix64

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


@pytest.mark.parametrize(
    "part, same",
    [(-1, 2**64 - 1), (2**64, 0), (-(2**63), 2**63), (2**70 + 5, 5)],
)
def test_mix_seed_reads_parts_mod_2_64(part, same):
    assert mix_seed(part) == mix_seed(same)
    assert mix_seed(3, part, 4) == mix_seed(3, same, 4)


@pytest.mark.parametrize("trial", TRIALS)
@pytest.mark.parametrize("master", MASTER_SEEDS)
def test_rng_for_replays_from_the_record_seed(master, trial):
    # a record's trial replays on Generator(PCG64(record.seed)) alone
    replay = np.random.Generator(np.random.PCG64(mix_seed(master, trial)))
    rng = rng_for(master, trial)
    assert rng.bit_generator.state == replay.bit_generator.state
    assert np.array_equal(rng.integers(1023, size=33), replay.integers(1023, size=33))
    assert np.array_equal(rng.random(8), replay.random(8))


@pytest.mark.parametrize(
    "master, words",
    [
        (0, (0x57AF1A7EE99C095B, 0xFC51D5F52D326406, 0x5207081A8820D50D)),
        (1, (0x29849DB0DAD4C836, 0xC91D57829A7A3B12, 0xF8B8D9832771B444)),
        (-1, (0xC7978761E89F25BD, 0x84FB41FE144A0B0C, 0xF45EC21B3172476C)),
        (2**32 - 1, (0x2D4B2AC1DBA8A35D, 0xDB45B4DC97C5F89A, 0x6894472BFA6583ED)),
        (2**32, (0x6677E98D274D2EEE, 0x36FA425EE8ECCB2F, 0x8C1803FF0BFDB074)),
        (2**63, (0x6B4A873EE2CE2426, 0xA17A12CCFC98C2F5, 0x8DD6DC6CB2E07F78)),
        (2**64 - 1, (0xC7978761E89F25BD, 0x84FB41FE144A0B0C, 0xF45EC21B3172476C)),
    ],
)
def test_rng_for_golden_words(master, words):
    assert tuple(int(w) for w in rng_for(master, 0).bit_generator.random_raw(3)) == words


@pytest.mark.parametrize("master", MASTER_SEEDS)
def test_trial_streams_are_distinct(master):
    firsts = {int(rng_for(master, i).bit_generator.random_raw()) for i in range(256)}
    assert len(firsts) == 256
