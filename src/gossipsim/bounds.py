"""Closed-form bounds on the expected growth and shrink factors.

All bounds are in terms of the round's credibility q, the conductance phi of
the informed set, the degree d, and (for the refined forms) the spectral
expansion lambda. Lower bounds are clamped at 0 instead of going negative
(a negative lower bound carries no information).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, KindError, RangeError, _check_unit, _is_integer
from .protocol import ProtocolKind

__all__ = [
    "BoundSet",
    "GROWTH_CONSTANT",
    "basic_growth_bounds",
    "spectral_factor",
    "refined_spectral_lower",
    "shrink_lower",
    "shrink_bounds",
    "fixed_q_log_rates",
]

# c_grow: PUSH and PULL are 1-growing, PUSH-PULL is 2-growing
GROWTH_CONSTANT = {ProtocolKind.PUSH: 1.0, ProtocolKind.PULL: 1.0, ProtocolKind.PUSH_PULL: 2.0}


@dataclass(frozen=True)
class BoundSet:
    """A [lower, upper] bracket with the rule that produced it.

    ``upper_requires_connected`` marks brackets whose upper side is only
    valid on connected graphs (the PUSH shrink bound).
    """

    lower: float
    upper: float
    source: str
    upper_requires_connected: bool = False

    def __post_init__(self):
        if self.lower > self.upper:
            raise RangeError(f"lower {self.lower} > upper {self.upper} ({self.source})")


def _check_size(name: str, value: float, least: int) -> None:
    if not least <= value < math.inf:
        raise RangeError(f"need a finite {name} >= {least}, got {value}")


def basic_growth_bounds(kind: ProtocolKind, q: float, phi: float) -> BoundSet:
    """Conductance-based bracket for E[|Delta|] / min(|I|, |U|).

    PUSH:      [q(1 - q/2) phi, q phi]
    PULL:      exactly q phi
    PUSH-PULL: [(3/2) q (1 - q/2) phi, 2 q phi]
    """
    q = _check_unit("q", q)
    phi = _check_unit("phi", phi)
    if kind is ProtocolKind.PULL:
        return BoundSet(q * phi, q * phi, "basic/pull")
    if kind is ProtocolKind.PUSH:
        return BoundSet(q * (1.0 - q / 2.0) * phi, q * phi, "basic/push")
    return BoundSet(1.5 * q * (1.0 - q / 2.0) * phi, 2.0 * q * phi, "basic/push-pull")


def spectral_factor(kind: ProtocolKind, beta: float) -> float:
    """Unclamped spectral factor: 1 - 7 sqrt(beta) (PUSH), 2 - 12 sqrt(beta) (PUSH-PULL)."""
    root = math.sqrt(beta)
    if kind is ProtocolKind.PUSH:
        return 1.0 - 7.0 * root
    return 2.0 - 12.0 * root


def refined_spectral_lower(
    kind: ProtocolKind, q: float, lam: float, informed_fraction: float
) -> float:
    """Spectral lower bound on E[|Delta|]/|I| for |I| <= n/2.

    With beta = lambda + |I|/n: PUSH gives q(1 - 7 sqrt(beta)) and PUSH-PULL
    gives q(2 - 12 sqrt(beta)), clamped at 0 (beta large makes them vacuous).
    """
    if kind is ProtocolKind.PULL:
        raise KindError("refined spectral lower bound covers PUSH and PUSH-PULL only")
    q = _check_unit("q", q)
    lam = _check_unit("lambda", lam)
    if not 0.0 <= informed_fraction <= 0.5:
        raise RangeError(f"informed fraction must be in [0, 1/2], got {informed_fraction}")
    return max(0.0, q * spectral_factor(kind, lam + informed_fraction))


def shrink_lower(kind: ProtocolKind, q: float, phi: float) -> float:
    """Lower side of :func:`shrink_bounds`, which does not depend on d."""
    if kind is ProtocolKind.PULL:
        return q * phi
    if kind is ProtocolKind.PUSH:
        return max(0.0, (1.0 - math.exp(-q)) * phi)
    return max(0.0, (1.0 - math.exp(-q) * (1.0 - q)) * phi)


def shrink_bounds(kind: ProtocolKind, q: float, phi: float, d: int) -> BoundSet:
    """Bracket for E[|Delta|] / |U| in the regime |I| >= n/2.

    PUSH:      [(1 - e^-q) phi,  1 - e^{-phi q} (1 - phi q^2 / d)]
               (upper side valid on connected graphs, d >= 2)
    PULL:      exactly q phi
    PUSH-PULL: [(1 - e^-q (1 - q)) phi,  1 - (1-q)^phi (1 - q phi)]

    For a perfect matching (d = 1) with q = 1 the exact factor is phi, which
    both PUSH-PULL sides contain; the PUSH upper formula needs d >= 2.
    """
    q = _check_unit("q", q)
    phi = _check_unit("phi", phi)
    if not _is_integer(d) or d < 1:
        raise RangeError(f"degree must be an integer >= 1, got {d!r}")
    lower = shrink_lower(kind, q, phi)
    if kind is ProtocolKind.PULL:
        return BoundSet(lower, lower, "shrink/pull")
    if kind is ProtocolKind.PUSH:
        upper = 1.0 - math.exp(-phi * q) * (1.0 - phi * q * q / d)
        return BoundSet(
            lower,
            max(lower, upper),
            "shrink/push (upper needs connected, d >= 2)",
            upper_requires_connected=True,
        )
    upper = 1.0 - (1.0 - q) ** phi * (1.0 - q * phi)
    return BoundSet(lower, max(lower, upper), "shrink/push-pull")


def fixed_q_log_rates(kind: ProtocolKind, q: float) -> tuple[float, float]:
    """Leading-order (log-growth, log-shrink) rates per round at constant q in (0, 1].

    A q outside (0, 1] raises :class:`RangeError`; PULL at q = 1 has no shrink
    rate (log(1 - q) diverges) and raises :class:`DomainError`.
    """
    if not 0.0 < q <= 1.0:
        raise RangeError(f"q must be in (0, 1], got {q}")
    if kind is ProtocolKind.PULL and q == 1.0:
        raise DomainError("PULL shrink rate undefined at q = 1 (log(1-q) diverges)")
    grow = math.log1p(GROWTH_CONSTANT[kind] * q)
    if kind is ProtocolKind.PUSH:
        return grow, q
    if kind is ProtocolKind.PULL:
        return grow, -math.log1p(-q)
    return grow, math.inf if q == 1.0 else q - math.log1p(-q)
