"""Exception types raised across the toolkit, and the input checks they share:
an integer is an ``int`` or numpy integer (never a bool, float or str), and a
[0, 1] value fails outside [0, 1], nan and non-numbers (a str too) included;
both raise :class:`RangeError`."""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np


class GossipSimError(Exception):
    """Base class for all toolkit errors."""


class ParityError(GossipSimError):
    """n * d is odd, so no d-regular graph on n vertices exists."""


class DegreeError(GossipSimError):
    """Requested degree is not compatible with the vertex count."""


class RetryExhausted(GossipSimError):
    """Random graph generation gave up after the configured retry budget."""


class EmptyOrFullSet(GossipSimError):
    """Vertex set must be a nonempty proper subset of the vertices."""


class SizeGuardExceeded(GossipSimError):
    """Input is too large for an exhaustive or memory-bound computation path."""


class SetRangeError(GossipSimError):
    """Informed set size outside the range required by the operation."""


class RangeError(GossipSimError):
    """Numeric argument outside its admissible range."""


class KindError(GossipSimError):
    """Operation is not defined for this protocol kind."""


class DomainError(GossipSimError):
    """Formula is undefined at the given parameter value."""


class Unreached(GossipSimError):
    """A partial-sum scan did not cross its threshold within the round cap."""

    def __init__(self, round_cap: int, message: str | None = None):
        self.round_cap = round_cap
        super().__init__(message or f"threshold not reached within {round_cap} rounds")


class GammaNonpositive(GossipSimError):
    """Spectral slack makes the growth rate certificate vacuous."""


class AlphaRange(GossipSimError):
    """Decay exponent outside the range required by the operation."""


class PhiNonpositive(GossipSimError):
    """A positive conductance floor is required."""


class ZetaRange(GossipSimError):
    """Additive-threshold parameter zeta outside (1/n, 1/(2*sqrt(2)))."""


class NonIntegerReciprocal(GossipSimError):
    """1/alpha must be a positive integer for this product."""


class IoError(GossipSimError):
    """File could not be read or written."""


@contextmanager
def _io_errors():
    """Re-raise an ``OSError`` from the block as :class:`IoError`."""
    try:
        yield
    except OSError as exc:
        raise IoError(str(exc)) from exc


class EmptyData(GossipSimError):
    """No usable records were supplied."""


def _is_integer(x) -> bool:
    """A Python ``int`` or numpy integer, or an array of them (an integer dtype); no bool, float or str."""
    return type(x) is int or isinstance(x, np.integer) or isinstance(x, np.ndarray) and x.dtype.kind in "iu"


def _check_unit(name: str, value: float) -> float:
    """``value`` as a float; :class:`RangeError` unless it is a number in [0, 1] (a str is not)."""
    try:
        inside = 0.0 <= value <= 1.0
    except TypeError:
        raise RangeError(f"{name} must be a number in [0, 1], got {value!r}") from None
    if not inside:
        raise RangeError(f"{name} must be in [0, 1], got {value}")
    return float(value)
