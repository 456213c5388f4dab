from __future__ import annotations

import math
import pickle
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gossipsim.credibility import (
    Additive,
    Constant,
    Multiplicative,
    PowerLaw,
    Table,
    format_credibility,
    parse_credibility,
)
from gossipsim.errors import RangeError


def test_power_law_starts_at_one():
    assert PowerLaw(1.0).value_at(0) == 1.0
    assert PowerLaw(2.0).value_at(0) == 1.0


def test_additive_point():
    assert Additive(0.25).value_at(2) == pytest.approx(0.5)


def test_multiplicative_point():
    assert Multiplicative(0.5).value_at(3) == pytest.approx(0.125)


def test_additive_hits_zero_from_ceiling():
    for alpha in (0.25, 0.3, 0.013):
        cred = Additive(alpha)
        t0 = math.ceil(1.0 / alpha)
        assert cred.value_at(t0) == 0.0
        assert cred.value_at(t0 + 5) == 0.0
        assert cred.value_at(t0 - 1) >= 0.0


@given(st.floats(0.01, 0.99), st.integers(0, 200))
def test_monotone_families_never_increase(alpha, t):
    for cred in (PowerLaw(alpha), Additive(alpha), Multiplicative(alpha)):
        assert cred.value_at(t + 1) <= cred.value_at(t)
        assert 0.0 <= cred.value_at(t) <= 1.0


@given(st.floats(0.0, 1.0), st.integers(0, 1000))
def test_constant_is_invariant(q, t):
    assert Constant(q).value_at(t) == q


def test_constant_coerces_q_to_float():
    cred = Constant(1)
    assert type(cred.q) is float and type(cred.value_at(3)) is float
    assert cred.first(2).tolist() == [cred.value_at(0), cred.value_at(1)] == [1.0, 1.0]
    assert format_credibility(cred) == "const:1"


SCHEDULES = [Constant(0.3), PowerLaw(0.5), PowerLaw(2.0), Additive(0.01), Additive(0.19999999999999998),
             Multiplicative(0.01), Multiplicative(0.5), Table((1.0, 0.9, 0.5), tail=0.1), Table((0.25,))]
each_schedule = pytest.mark.parametrize("cred", SCHEDULES, ids=format_credibility)


@each_schedule
def test_first_is_value_at_bit_for_bit(cred):
    cred = replace(cred)  # a fresh instance, with nothing read yet
    # a vectorised np.power differs from ** in the last ulp at some rounds
    # for power:2 and mult:0.01, so every value must come from value_at
    rounds = 10_000
    q = cred.first(rounds)
    assert q.dtype == np.float64 and q.shape == (rounds,)
    assert [x.hex() for x in q.tolist()] == [float(cred.value_at(t)).hex() for t in range(rounds)]
    for k in (0, 1, 2, 101):
        assert cred.first(k).tobytes() == q[:k].tobytes()


@each_schedule
def test_first_computes_each_round_once(cred, monkeypatch):
    cred = replace(cred)
    computed = []
    value_at = type(cred).value_at

    def counting_value_at(self, t):
        computed.append(t)
        return value_at(self, t)

    monkeypatch.setattr(type(cred), "value_at", counting_value_at)
    done = 0
    for rounds in (10, 600, 5, 9_000, 0, -3):
        want = [x.hex() for x in replace(cred).first(rounds).tolist()]
        computed.clear()
        q = cred.first(rounds)
        assert computed == list(range(done, max(rounds, done)))
        assert [x.hex() for x in q.tolist()] == want and len(want) == max(rounds, 0)
        done = max(rounds, done)


@each_schedule
def test_first_hands_out_read_only_arrays(cred):
    cred = replace(cred)
    for rounds in (0, 5, 600, 3):
        q = cred.first(rounds)
        assert not q.flags.writeable
        with pytest.raises(ValueError):
            q[:1] = 0.5


@each_schedule
def test_kept_rounds_leave_identity_and_text_alone(cred):
    cred, fresh = replace(cred), replace(cred)
    cred.first(700)
    assert cred == fresh and hash(cred) == hash(fresh)
    assert astuple(cred) == astuple(fresh) and repr(cred) == repr(fresh)
    assert format_credibility(cred) == format_credibility(fresh)
    assert pickle.dumps(cred) == pickle.dumps(fresh)
    back = pickle.loads(pickle.dumps(cred))
    assert back == cred and back.first(700).tobytes() == cred.first(700).tobytes()
    assert not back.first(700).flags.writeable


def test_table_tail_defaults_to_last_value():
    cred = Table((1.0, 0.9, 0.5))
    assert cred.value_at(1) == 0.9
    assert cred.value_at(17) == 0.5
    assert Table((1.0, 0.9, 0.5), tail=0.1).value_at(17) == 0.1


def test_sup_from():
    assert Multiplicative(0.5).sup_from(3) == pytest.approx(0.125)
    assert Table((0.1, 0.9, 0.2), tail=0.3).sup_from(1) == 0.9
    assert Table((0.1, 0.9, 0.2), tail=0.3).sup_from(2) == 0.3


def test_validation():
    with pytest.raises(RangeError):
        Constant(1.5)
    with pytest.raises(RangeError):
        PowerLaw(0.0)
    with pytest.raises(RangeError):
        Additive(1.0)
    with pytest.raises(RangeError):
        Multiplicative(0.0)
    with pytest.raises(RangeError):
        Table(())
    with pytest.raises(RangeError):
        Table((0.5, 1.2))


@pytest.mark.parametrize(
    "text,expected",
    [
        ("const:0.5", Constant(0.5)),
        ("power:1.0", PowerLaw(1.0)),
        ("add:0.01", Additive(0.01)),
        ("mult:0.02", Multiplicative(0.02)),
        ("table:1,0.9,0.5;tail=0.1", Table((1.0, 0.9, 0.5), tail=0.1)),
        # values that the 6-digit {:g} text would round
        ("mult:0.045084220027780106", Multiplicative(0.5 / math.log(65536))),
        ("const:0.123456789", Constant(0.123456789)),
        ("table:0.9999999,0.5;tail=1e-7", Table((0.9999999, 0.5), tail=1e-7)),
        ("add:0.19999999999999998", Additive(0.19999999999999998)),
    ],
)
def test_parse_and_format_roundtrip(text, expected):
    cred = parse_credibility(text)
    assert cred == expected
    assert parse_credibility(format_credibility(cred)) == cred


def test_parse_rejects_garbage():
    for text in ("const", "exp:0.5", "const:zebra", "table:1;tip=0.1"):
        with pytest.raises(RangeError):
            parse_credibility(text)


@pytest.mark.parametrize("text", ["const:nan", "power:nan", "add:nan", "mult:nan", "table:nan", "table:0.5;tail=nan"])
def test_parse_rejects_nan_parameters(text):
    with pytest.raises(RangeError, match="must be"):
        parse_credibility(text)


def _check_tail_and_constant_phase(cred, t):
    window = sum(cred.value_at(s) for s in range(t, t + 201))
    # the relative slack absorbs rounding in the closed-form series
    assert window <= cred.tail_sum_bound(t) * (1.0 + 1e-12)
    const = cred.constant_from()
    if const is not None:
        start, value = const
        assert all(cred.value_at(s) == value for s in range(start, start + 50))


@given(st.floats(0.0, 1.0), st.integers(0, 1000))
def test_constant_tail_and_constant_phase(q, t):
    _check_tail_and_constant_phase(Constant(q), t)


@given(st.floats(0.05, 20.0), st.integers(0, 10_000))
def test_power_law_tail_and_constant_phase(alpha, t):
    _check_tail_and_constant_phase(PowerLaw(alpha), t)


@given(st.floats(0.001, 0.99), st.integers(0, 2000))
@example(0.19999999999999998, 0)  # 1 - 5 * alpha rounds to 1.1e-16, not 0
def test_additive_tail_and_constant_phase(alpha, t):
    _check_tail_and_constant_phase(Additive(alpha), t)


# t stays small enough that the leading term is a normal float
@given(st.floats(0.001, 0.99), st.integers(0, 100))
def test_multiplicative_tail_and_constant_phase(alpha, t):
    _check_tail_and_constant_phase(Multiplicative(alpha), t)


@given(
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=300),
    st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
    st.integers(0, 400),
)
def test_table_tail_and_constant_phase(values, tail, t):
    _check_tail_and_constant_phase(Table(tuple(values), tail), t)
