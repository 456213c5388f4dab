"""Credibility functions q(t): the per-round transmission acceptance probability.

Five families are supported. Constant keeps q fixed; the power-law family is
``(t + 1) ** -alpha``; the additive family is ``max(1 - t * alpha, 0)``; the
multiplicative family is ``(1 - alpha) ** t``; and Table holds explicit
per-round values with a tail value for rounds past the list (credibility does
not need to be monotone, so Table can express arbitrary schedules).

Each family also has a compact textual form used by the CLI and config files:
``const:0.5``, ``power:1.0``, ``add:0.01``, ``mult:0.02`` and
``table:1,0.9,0.5;tail=0.1``.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field

import numpy as np

from .errors import RangeError, _check_unit

__all__ = [
    "Constant",
    "PowerLaw",
    "Additive",
    "Multiplicative",
    "Table",
    "Credibility",
    "parse_credibility",
    "format_credibility",
]


# rounds of q(t) computed per Python list when a schedule reads further
_FILL_BLOCK = 4096
_NO_ROUNDS = np.empty(0, dtype=np.float64)
_NO_ROUNDS.flags.writeable = False


class _Schedule:
    """Queries every family answers; each family defines its own ``value_at``."""

    def first(self, rounds: int) -> np.ndarray:
        """q(0) .. q(rounds - 1) as a read-only float64 array, each exactly its ``value_at``.

        The instance keeps the longest prefix read so far (an attribute, not a
        dataclass field, so equality, hashing and the textual form ignore it),
        so each q(t) is computed once per schedule: a longer read computes only
        the rounds it lacks, ``_FILL_BLOCK`` at a time, and every read returns a
        view of the kept array. ``rounds <= 0`` gives an empty array.
        """
        known = self.__dict__.get("_known", _NO_ROUNDS)
        if rounds > len(known):
            grown = np.empty(rounds, dtype=np.float64)
            grown[: len(known)] = known
            for start in range(len(known), rounds, _FILL_BLOCK):
                stop = min(start + _FILL_BLOCK, rounds)
                grown[start:stop] = [self.value_at(t) for t in range(start, stop)]
            grown.flags.writeable = False
            object.__setattr__(self, "_known", grown)
            known = grown
        return known[: max(rounds, 0)]

    def __getstate__(self):
        """Pickle the fields alone: an unpickled array would be writeable again."""
        return {k: v for k, v in self.__dict__.items() if k != "_known"}

    def sup_from(self, t0: int) -> float:
        return self.value_at(max(t0, 0))

    def constant_from(self) -> tuple[int, float] | None:
        """(round, value) from which q(t) is constant forever; None if unknown."""
        return None

    def tail_sum_bound(self, t: int) -> float:
        """Upper bound on sum_{s >= t} q(s); inf when divergent or unknown."""
        const = self.constant_from()
        if const is None or const[1] != 0.0:
            return math.inf
        return sum((self.value_at(s) for s in range(t, const[0])), 0.0)


@dataclass(frozen=True)
class Constant(_Schedule):
    q: float

    def __post_init__(self):
        object.__setattr__(self, "q", _check_unit("constant credibility", self.q))

    def value_at(self, t: int) -> float:
        return self.q

    def constant_from(self) -> tuple[int, float] | None:
        return 0, self.q


@dataclass(frozen=True)
class PowerLaw(_Schedule):
    """q(t) = (t + 1) ** -alpha, equal to 1 in the first round."""

    alpha: float

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise RangeError(f"power-law exponent must be positive, got {self.alpha}")

    def value_at(self, t: int) -> float:
        return float(t + 1) ** (-self.alpha)

    def tail_sum_bound(self, t: int) -> float:
        """First term plus the integral of (x + 1)**-alpha from t on; inf for alpha <= 1."""
        if self.alpha <= 1.0:
            return math.inf
        return (t + 1.0) ** (-self.alpha) + (t + 1.0) ** (1.0 - self.alpha) / (self.alpha - 1.0)


@dataclass(frozen=True)
class Additive(_Schedule):
    """q(t) = max(1 - t * alpha, 0); exactly 0 from round ``constant_from()[0]`` on.

    That round is ceil(1/alpha), or one later when 1 - ceil(1/alpha) * alpha
    rounds to a positive float (e.g. alpha = 0.19999999999999998).
    """

    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise RangeError(f"additive decay must be in (0, 1), got {self.alpha}")

    def value_at(self, t: int) -> float:
        return max(1.0 - t * self.alpha, 0.0)

    def constant_from(self) -> tuple[int, float] | None:
        start = math.ceil(1.0 / self.alpha)
        return start + (self.value_at(start) > 0.0), 0.0


@dataclass(frozen=True)
class Multiplicative(_Schedule):
    """q(t) = (1 - alpha) ** t."""

    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise RangeError(f"multiplicative decay must be in (0, 1), got {self.alpha}")

    def value_at(self, t: int) -> float:
        return (1.0 - self.alpha) ** t

    def tail_sum_bound(self, t: int) -> float:
        """The geometric series (1 - alpha)**t / alpha."""
        return (1.0 - self.alpha) ** t / self.alpha


@dataclass(frozen=True)
class Table(_Schedule):
    """Explicit per-round values; ``tail`` is used for rounds past the list.

    ``tail`` defaults to the last listed value. The schedule may be arbitrary,
    in particular non-monotone.
    """

    values: tuple[float, ...]
    tail: float | None = field(default=None)

    def __post_init__(self):
        if len(self.values) == 0:
            raise RangeError("table credibility needs at least one value")
        values = tuple(_check_unit("table credibility values", v) for v in self.values)
        object.__setattr__(self, "values", values)
        tail = values[-1] if self.tail is None else _check_unit("table credibility values", self.tail)
        object.__setattr__(self, "tail", tail)

    def value_at(self, t: int) -> float:
        if t < len(self.values):
            return self.values[t]
        return self.tail

    def sup_from(self, t0: int) -> float:
        t0 = max(t0, 0)
        listed = self.values[t0:] if t0 < len(self.values) else ()
        return max((*listed, self.tail))

    def constant_from(self) -> tuple[int, float] | None:
        return len(self.values), self.tail


Credibility = Constant | PowerLaw | Additive | Multiplicative | Table


# textual prefix -> family; every family but Table takes one float parameter
_FAMILIES = {"const": Constant, "power": PowerLaw, "add": Additive, "mult": Multiplicative, "table": Table}
_PREFIXES = {family: prefix for prefix, family in _FAMILIES.items()}


def parse_credibility(text: str) -> Credibility:
    """Parse the textual credibility spec, e.g. ``mult:0.02``."""
    head, sep, rest = text.strip().partition(":")
    if not sep:
        raise RangeError(f"bad credibility spec {text!r}: missing ':'")
    head = head.lower()
    if head not in _FAMILIES:
        raise RangeError(f"unknown credibility family {head!r}")
    try:
        if head != "table":
            return _FAMILIES[head](float(rest))
        body, _, tail_part = rest.partition(";")
        values = tuple(float(v) for v in body.split(",") if v.strip())
        tail = None
        if tail_part:
            key, _, val = tail_part.partition("=")
            if key.strip() != "tail":
                raise RangeError(f"bad table option {tail_part!r}")
            tail = float(val)
        return Table(values, tail)
    except ValueError as exc:
        raise RangeError(f"bad credibility spec {text!r}: {exc}") from exc


def _number(x: float) -> str:
    """The short ``{:g}`` text when it reads back as ``x``, else ``repr``."""
    short = f"{x:g}"
    return short if float(short) == x else repr(float(x))


def format_credibility(cred: Credibility) -> str:
    """Inverse of :func:`parse_credibility`."""
    prefix = _PREFIXES[type(cred)]
    if prefix == "table":
        body = ",".join(_number(v) for v in cred.values)
        return f"table:{body};tail={_number(cred.tail)}"
    (param,) = astuple(cred)
    return f"{prefix}:{_number(param)}"
