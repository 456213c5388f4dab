"""Stopping-time thresholds, phase schedules and decay-specific calculators.

The two aggregate stopping rules work on sums of logarithmic growth
(shrink) factors: the growing rule triggers once
``sum log(1 + nu_t)`` crosses a threshold depending on the size targets
[A, B], and guarantees B informed vertices with high probability; the
shrinking rule is the dual for the uninformed side over [C, D]. Their
thresholds carry a correction factor ``(1 - (1-xi) A^-xi)^2``, xi a
keyword of every predictor that reads it (default ``XI``, the theory's
1e-30; :class:`RangeError` outside (0, 1)). Evaluated naively in doubles
that factor underflows to 0, so :func:`growth_correction` computes it
through ``expm1``. With A = 1 the factor is xi**2 = 1e-60 and the threshold
is astronomically large (still a representable float); starting phases at
A = log n, as the phase schedule does, is the practical path.

Scans stop after ``ROUND_CAP`` rounds: the ``*_rounds`` scans and
:func:`general_strong_T` then raise :class:`Unreached`, and
:func:`general_lower_T` returns ``math.inf``. A constant q outside (0, 1]
or a lambda outside [0, 1] ([0, 1) for :func:`general_strong_T`) raises
:class:`RangeError`, and PULL at q = 1 :class:`DomainError`.

Point predictions (fixed-q runtimes, phase durations) are leading-order:
the vanishing correction factors are dropped, so experiments compare them
against an explicit multiplicative tolerance rather than a hidden
asymptotic.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import asdict, dataclass

from .bounds import GROWTH_CONSTANT, _check_size, basic_growth_bounds, fixed_q_log_rates
from .bounds import shrink_lower, spectral_factor
from .credibility import Additive, Constant, Credibility, Multiplicative, PowerLaw
from .errors import (
    AlphaRange,
    DomainError,
    GammaNonpositive,
    GossipSimError,
    KindError,
    NonIntegerReciprocal,
    PhiNonpositive,
    RangeError,
    Unreached,
    ZetaRange,
    _check_unit,
)
from .protocol import ProtocolKind

__all__ = [
    "ThresholdScaleWarning",
    "growth_correction",
    "tau2_threshold",
    "tau2_rounds",
    "tau3_threshold",
    "tau3_rounds",
    "fixed_q_runtime",
    "Phase",
    "PhasePlan",
    "phase_schedule",
    "GeneralStrongResult",
    "general_strong_T",
    "general_lower_T",
    "powerlaw_expectation_bound",
    "PowerLawThresholds",
    "powerlaw_thresholds",
    "AdditiveThresholds",
    "additive_thresholds",
    "MultiplicativeThresholds",
    "multiplicative_thresholds",
    "predictor_comparison",
    "predict_report",
    "StirlingProductCheck",
    "stirling_product_check",
    "HarmonicSumCheck",
    "harmonic_sum_check",
    "MultiplicativeProductCheck",
    "multiplicative_product_check",
]

# The zeta series is summed term by term below this index, then by its
# Euler-Maclaurin tail (see powerlaw_expectation_bound).
ZETA_EXACT_TERMS = 4096

# The theory's xi, the default of every predictor that takes one.
XI = 1e-30
# Rounds a scan covers before it gives up; read at call time.
ROUND_CAP = 1_000_000


class ThresholdScaleWarning(UserWarning):
    """The requested threshold is astronomically large (A = 1 regime)."""


def _exp_or_inf(x: float) -> float:
    """math.exp(x), or inf where that overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _check_xi(xi: float) -> None:
    if not 0.0 < xi < 1.0:
        raise RangeError(f"xi must be in (0, 1), got {xi}")


def growth_correction(a: float, xi: float) -> float:
    """1 - (1 - xi) * a**(-xi), evaluated without catastrophic cancellation.

    Rewritten as (1 - a**-xi) + xi * a**-xi so that for a = 1 the result is
    exactly xi rather than rounding to 0.
    """
    if not a >= 1.0:
        raise RangeError(f"size threshold must be >= 1, got {a}")
    _check_xi(xi)
    decayed = math.exp(-xi * math.log(a))
    return -math.expm1(-xi * math.log(a)) + xi * decayed


def tau2_threshold(a: float, b: float, c_grow: float, xi: float = XI) -> float:
    """Log-growth total that certifies going from A to B informed vertices.

    (log(B/A) + (log(B/A) + log(1 + c_grow) + 1)^(2/3)) / (1 - (1-xi) A^-xi)^2.
    """
    if not 1.0 <= a <= b:
        raise RangeError(f"need 1 <= A <= B, got A={a}, B={b}")
    if not c_grow > 0:
        raise RangeError(f"c_grow must be positive, got {c_grow}")
    ratio = math.log(b / a)
    numerator = ratio + (ratio + math.log1p(c_grow) + 1.0) ** (2.0 / 3.0)
    return numerator / growth_correction(a, xi) ** 2


def tau3_threshold(c: float, d: float, c_shrink: float) -> float:
    """Log-shrink total that certifies going from C down to D uninformed.

    With gamma = 1 - min(1 / (2 (1 - c_shrink) D), 1/2):
    (1/gamma) * (log(C/D) + (log(C/D) - log(1 - c_shrink) + 1)^(2/3)).
    """
    if not 0.75 <= d <= c:
        raise RangeError(f"need C >= D >= 3/4, got C={c}, D={d}")
    if not 0.0 <= c_shrink < 1.0:
        raise RangeError(f"c_shrink must be in [0, 1), got {c_shrink}")
    gamma = 1.0 - min(1.0 / (2.0 * (1.0 - c_shrink) * d), 0.5)
    ratio = math.log(c / d)
    return (ratio + (ratio - math.log(1.0 - c_shrink) + 1.0) ** (2.0 / 3.0)) / gamma


def tau2_rounds(nu, t1: int, a: float, b: float, c_grow: float, xi: float = XI) -> int:
    """Minimal s >= t1 with sum_{t=t1}^{s-1} log(1 + nu(t)) >= tau2_threshold.

    ``nu`` maps a round index to the deterministic per-round growth lower
    bound. Raises :class:`Unreached` if the sum has not crossed after
    ``ROUND_CAP`` scanned rounds.
    """
    threshold = tau2_threshold(a, b, c_grow, xi)
    if a == 1.0:
        warnings.warn(
            "A = 1 puts the threshold at the 1/xi^2 scale; phase plans starting "
            "at A = log n are the practical route",
            ThresholdScaleWarning,
            stacklevel=2,
        )
    acc = 0.0
    for s in range(t1, t1 + ROUND_CAP + 1):
        if acc >= threshold:
            return s
        rate = nu(s)
        if rate < 0:
            raise RangeError(f"nu({s}) = {rate} must be >= 0")
        acc += math.log1p(rate)
    raise Unreached(ROUND_CAP)


def tau3_rounds(nu, t2: int, c: float, d: float, c_shrink: float) -> int:
    """Minimal s >= t2 with sum_{t=t2}^{s-1} log(1 - nu(t)) <= -tau3_threshold."""
    threshold = tau3_threshold(c, d, c_shrink)
    acc = 0.0
    for s in range(t2, t2 + ROUND_CAP + 1):
        if acc <= -threshold:
            return s
        rate = nu(s)
        if not 0.0 <= rate < 1.0:
            raise RangeError(f"nu({s}) = {rate} must be in [0, 1)")
        acc += math.log1p(-rate)
    raise Unreached(ROUND_CAP)


# -- fixed credibility --------------------------------------------------------


def fixed_q_runtime(kind: ProtocolKind, q: float, n: int) -> float:
    """Leading-order spreading time for constant credibility q on expanders.

    PUSH:      (1/log(1+q) + 1/q) log n
    PULL:      (1/log(1+q) - 1/log(1-q)) log n   (undefined at q = 1)
    PUSH-PULL: (1/log(1+2q) + 1/(q - log(1-q))) log n

    The (1 + o(1)) factor is dropped; treat the result as a leading-order
    point estimate, not a bound.
    """
    grow, shrink = fixed_q_log_rates(kind, q)
    _check_size("n", n, 2)
    return (1.0 / grow + 1.0 / shrink) * math.log(n)


def _runtime_at_constant_q(kind: ProtocolKind, cred: Credibility, n: int) -> float | None:
    """:func:`fixed_q_runtime` at a constant credibility; None for any other
    family, and where the runtime is undefined (q = 0, PULL at q = 1)."""
    if isinstance(cred, Constant):
        try:
            return fixed_q_runtime(kind, cred.q, n)
        except (RangeError, DomainError):
            pass
    return None


@dataclass(frozen=True)
class Phase:
    """One range of informed (growing) or uninformed (shrinking) set sizes.

    ``nu`` is the rigorous per-round factor lower bound at the given
    spectral expansion; ``duration_bound`` is the leading-order number of
    rounds the phase takes.
    """

    start_size: float
    finish_size: float
    mode: str  # "growing" | "shrinking"
    nu: float
    duration_bound: float
    dominant: bool


@dataclass(frozen=True)
class PhasePlan:
    phases: tuple[Phase, ...]

    @property
    def total_rounds(self) -> float:
        return sum(p.duration_bound for p in self.phases)

    @property
    def dominant_rounds(self) -> float:
        return sum(p.duration_bound for p in self.phases if p.dominant)


def phase_schedule(kind: ProtocolKind, q: float, n: int, lam: float = 0.0) -> PhasePlan:
    """Six-phase decomposition 1 -> log n -> n/log n -> n/2 (informed), then
    n/2 -> n/log n -> log n -> 3/4 (uninformed), with per-phase rate floors.

    Phases 2 and 5 dominate the total; all other duration bounds are
    log log n scale. Duration bounds are leading-order.
    """
    _check_size("n", n, 3)
    _check_unit("lambda", lam)
    grow_den, shrink_den = fixed_q_log_rates(kind, q)

    log_n = math.log(n)
    log_log_n = math.log(log_n)

    # not refined_spectral_lower: its |I| <= n/2 guard rejects 1/log n for n <= 7
    if kind is ProtocolKind.PULL:
        nu2 = q * (1.0 - lam) * (1.0 - 1.0 / log_n)
    else:
        nu2 = max(0.0, q * spectral_factor(kind, lam + 1.0 / log_n))

    half = 0.5
    half_gap = (1.0 - lam) / 2.0
    wide = (1.0 - lam) * (1.0 - 1.0 / log_n)
    phases = (
        Phase(1.0, log_n, "growing", basic_growth_bounds(kind, q, half).lower, log_log_n / grow_den, False),
        Phase(log_n, n / log_n, "growing", nu2, log_n / grow_den, True),
        Phase(n / log_n, n / 2.0, "growing", basic_growth_bounds(kind, q, half_gap).lower, log_log_n / grow_den, False),
        Phase(n / 2.0, n / log_n, "shrinking", shrink_lower(kind, q, half_gap), log_log_n / shrink_den, False),
        Phase(n / log_n, log_n, "shrinking", shrink_lower(kind, q, wide), log_n / shrink_den, True),
        Phase(log_n, 0.75, "shrinking", shrink_lower(kind, q, half), log_log_n / shrink_den, False),
    )
    return PhasePlan(phases)


# -- scans over arbitrary credibility -----------------------------------------


@dataclass(frozen=True)
class GeneralStrongResult:
    """Crossing round for the expander growth certificate, plus precondition info."""

    rounds: int
    threshold: float
    gamma: float
    epsilon: float
    epsilon_ok: bool


def _expander_gamma(kind: ProtocolKind, lam: float, log_n: float) -> float:
    """The growth certificate's gamma: 1 - lambda for PULL, 1 - 7 sqrt(lambda + 1/log n) for PUSH."""
    return 1.0 - lam if kind is ProtocolKind.PULL else spectral_factor(kind, lam + 1.0 / log_n)


def _expander_threshold(log_n: float, gamma: float, xi: float) -> float:
    """(1/gamma) (log n + 7 (log n)^(2/3)) / (1-(1-xi)(log n)^-xi)^2."""
    return (log_n + 7.0 * log_n ** (2.0 / 3.0)) / growth_correction(log_n, xi) ** 2 / gamma


def _crossing(q: Credibility, scale: float, target: float, strict: bool) -> int | str:
    """Least T <= ROUND_CAP with sum_{t<=T} log(1 + scale q(t)) >= target
    (> when ``strict``), or, as text, the reason no such T exists.

    A constant tail ends the scan with one division; each term is at most
    log(1 + scale), which bounds what the rounds left before the cap can add.
    """
    const = q.constant_from()
    acc = 0.0
    for t in range(ROUND_CAP + 1):
        if const is not None and t >= const[0]:
            inc = math.log1p(scale * const[1])
            if inc == 0.0:
                return "credibility hit 0 before the threshold"
            jump = (target - acc) / inc
            if jump == math.inf:
                return "constant credibility too small to reach the threshold"
            return t + math.floor(jump) if strict else t + math.ceil(jump) - 1
        if const is None and acc + math.log1p(scale) * (ROUND_CAP - t + 1) < target:
            return "threshold beyond reach of the round cap"
        acc += math.log1p(scale * q.value_at(t))
        if (acc > target) if strict else (acc >= target):
            return t
        bound = acc + scale * q.tail_sum_bound(t + 1)
        if (bound <= target) if strict else (bound < target):
            return "log-growth series converges below the threshold"
    return f"threshold not reached within {ROUND_CAP} rounds"


def general_strong_T(q: Credibility, lam: float, n: int, kind: ProtocolKind, xi: float = XI) -> GeneralStrongResult:
    """Minimal T with sum_{t=0}^{T} log(1 + q(t)) >= threshold(n, lambda, kind).

    The threshold is (1/gamma) (log n + 7 (log n)^(2/3)) / (1-(1-xi)(log n)^-xi)^2
    with gamma = 1 - lambda for PULL and 1 - 7 sqrt(lambda + 1/log n) for PUSH.
    Also reports whether epsilon := 1 - sup_{t >= log n / (2 log 2)} q(t) is at
    least 1/log n, the certificate's late-round precondition. The scan is
    :func:`_crossing`'s; each of its reasons (a zero or too small constant tail,
    a threshold beyond the round cap's reach, a series converging below it, the
    cap itself) raises :class:`Unreached` with that text.
    """
    if kind not in (ProtocolKind.PUSH, ProtocolKind.PULL):
        raise KindError("growth certificate covers PUSH and PULL only")
    if not 0.0 <= lam < 1.0:
        raise RangeError(f"lambda must be in [0, 1), got {lam}")
    _check_size("n", n, 3)
    log_n = math.log(n)
    gamma = _expander_gamma(kind, lam, log_n)
    if gamma <= 0.0:
        raise GammaNonpositive(f"gamma = {gamma} <= 0; spectral slack too large")
    threshold = _expander_threshold(log_n, gamma, xi)
    epsilon = 1.0 - q.sup_from(math.ceil(log_n / (2.0 * math.log(2.0))))
    rounds = _crossing(q, 1.0, threshold, False)
    if isinstance(rounds, str):
        raise Unreached(ROUND_CAP, rounds)
    return GeneralStrongResult(rounds, threshold, gamma, epsilon, epsilon_ok=epsilon >= 1.0 / log_n)


def general_lower_T(q: Credibility, psi: float, n: int, rho: float) -> int | float:
    """Maximal T with sum_{t=0}^{T-1} log(1 + psi q(t)) <= log n + log rho.

    Up to round T the expected informed count is still at most rho * n.
    Returns 0 when even the empty sum exceeds the target, and math.inf when
    the scan (:func:`_crossing`, shared with :func:`general_strong_T`) finds no
    crossing: a zero or too small constant tail, a target beyond the round
    cap's reach, a series converging at or below it, or the cap itself.
    """
    _check_size("n", n, 2)
    if not psi > 0:
        raise RangeError(f"psi must be positive, got {psi}")
    if not 0.0 < rho < 1.0:
        raise RangeError(f"rho must be in (0, 1), got {rho}")
    target = math.log(n) + math.log(rho)
    if target < 0.0:
        return 0
    rounds = _crossing(q, psi, target, True)
    return math.inf if isinstance(rounds, str) else rounds


# -- decay-family calculators -------------------------------------------------


@functools.lru_cache
def _zeta_head(alpha: float, cut: int) -> float:
    """sum_{k < cut} k**-alpha, added exactly once per (alpha, cut)."""
    return math.fsum(k ** (-alpha) for k in range(1, cut))


def powerlaw_expectation_bound(alpha: float, c_grow: float) -> float:
    """exp(c_grow * sum_t (t+1)**-alpha) for alpha > 1: a ceiling on E|I_T|.

    The sum is zeta(alpha): the terms below N are added exactly and the rest
    by the Euler-Maclaurin tail N^(1-a)/(a-1) + N^-a/2 + a N^(-a-1)/12,
    whose first omitted term is a(a+1)(a+2) N^(-a-3)/720. A ceiling beyond
    float range comes back as inf.
    """
    if not alpha > 1.0:
        raise AlphaRange(f"needs alpha > 1, got {alpha}")
    if not c_grow >= 0:
        raise RangeError(f"c_grow must be >= 0, got {c_grow}")
    cut = ZETA_EXACT_TERMS
    head = _zeta_head(alpha, cut)
    tail = (
        cut ** (1.0 - alpha) / (alpha - 1.0)
        + cut ** (-alpha) / 2.0
        + alpha * cut ** (-alpha - 1.0) / 12.0
    )
    return _exp_or_inf(c_grow * (head + tail))


@dataclass(frozen=True)
class PowerLawThresholds:
    """Round thresholds for the slow/complete spread dichotomy, alpha <= 1.

    Up to ``t1_max`` at most ~sqrt(n) vertices are informed; from ``t2_min``
    the rumor has reached everyone (w.h.p. senses). ``alpha_one_branch``
    flags the polynomial-in-n forms used at alpha = 1.
    """

    t1_max: float
    t2_min: float
    alpha_one_branch: bool


def powerlaw_thresholds(alpha: float, phi_lb: float, psi_ub: float, n: int, xi: float = XI) -> PowerLawThresholds:
    """Dichotomy rounds for power-law credibility with alpha in (0, 1].

    For alpha < 1: t1_max = k1 ((1/psi) log n)^(1/(1-alpha)) with
    k1 = ((1-alpha)/2)^(1/(1-alpha)), and t2_min = k2 ((1/phi) log n)^(1/(1-alpha))
    with k2 = (16 (1-alpha) / (phi xi))^(1/(1-alpha)). At alpha = 1 both
    thresholds become polynomial in n. Values beyond float range come back
    as inf.
    """
    if not 0.0 < alpha <= 1.0:
        raise AlphaRange(f"needs alpha in (0, 1], got {alpha}")
    if not phi_lb > 0.0:
        raise PhiNonpositive(f"phi lower bound must be positive, got {phi_lb}")
    if not psi_ub > 0.0:
        raise RangeError(f"psi upper bound must be positive, got {psi_ub}")
    _check_size("n", n, 3)
    _check_xi(xi)
    log_n = math.log(n)

    if alpha == 1.0:
        t1 = _exp_or_inf(log_n / (2.0 * psi_ub) - 1.0)
        t2 = _exp_or_inf((4.0 / phi_lb) * (2.0 / xi + 1.0) * log_n)
        return PowerLawThresholds(t1_max=t1, t2_min=t2, alpha_one_branch=True)

    power = 1.0 / (1.0 - alpha)
    log_t1 = power * (math.log((1.0 - alpha) / 2.0) + math.log(log_n / psi_ub))
    log_t2 = power * (
        math.log(16.0 * (1.0 - alpha) / (phi_lb * xi)) + math.log(log_n / phi_lb)
    )
    return PowerLawThresholds(
        t1_max=_exp_or_inf(log_t1), t2_min=_exp_or_inf(log_t2), alpha_one_branch=False
    )


@dataclass(frozen=True)
class AdditiveThresholds:
    """Critical decay rates for additive credibility q(t) = (1 - t alpha)^+.

    Above ``alpha_upper_regime`` only a vanishing fraction gets informed;
    below ``alpha_lower_regime`` the rumor reaches almost everyone.
    """

    alpha_upper_regime: float
    alpha_lower_regime: float


def additive_thresholds(n: int, zeta: float, gamma_p: float, xi: float = XI) -> AdditiveThresholds:
    """Both critical alpha values for the additive dichotomy.

    Few-informed boundary: log(4/e) / (log n + log zeta) for
    zeta in (1/n, 1/(2 sqrt(2))). Broad-spread boundary:
    log(4/e) / (X + log(2 sqrt(2))) where X is the expander growth
    threshold (1/gamma_p)(log n + 7 (log n)^(2/3)) / (1-(1-xi)(log n)^-xi)^2,
    evaluated in log space since exp(X) overflows.
    """
    _check_size("n", n, 3)
    if not 1.0 / n < zeta < 1.0 / (2.0 * math.sqrt(2.0)):
        raise ZetaRange(f"zeta must be in (1/n, 1/(2*sqrt(2))), got {zeta}")
    if not gamma_p > 0.0:
        raise GammaNonpositive(f"gamma must be positive, got {gamma_p}")
    log_n = math.log(n)
    log_ratio = math.log(4.0 / math.e)

    denominator = log_n + math.log(zeta)
    upper = log_ratio / denominator if denominator > 0.0 else math.inf

    x = _expander_threshold(log_n, gamma_p, xi)
    lower = log_ratio / (x + math.log(2.0 * math.sqrt(2.0)))
    return AdditiveThresholds(alpha_upper_regime=upper, alpha_lower_regime=lower)


@dataclass(frozen=True)
class MultiplicativeThresholds:
    """Critical decay rates for multiplicative credibility q(t) = (1-alpha)^t.

    alpha >= ``alpha_few`` keeps the informed count at ~sqrt(n);
    alpha <= ``alpha_most`` informs almost everyone by round ``t_most``.
    """

    alpha_few: float
    alpha_most: float
    t_most: float


def multiplicative_thresholds(n: int) -> MultiplicativeThresholds:
    _check_size("n", n, 3)
    log_n = math.log(n)
    return MultiplicativeThresholds(
        alpha_few=0.5 / log_n, alpha_most=0.125 / log_n, t_most=4.0 * log_n
    )


def predictor_comparison(
    kind: ProtocolKind, cred: Credibility, n: int, lam: float | None = None
) -> dict | None:
    """Theoretical reference values for a protocol/credibility pair on n vertices.

    Present exactly for the four named credibility families; None for Table
    schedules. Conductance floors that need lambda are included only when a
    measured lambda is supplied, and the power-law (alpha <= 1) and
    multiplicative thresholds only from n = 3. Values are raw floats
    (possibly inf).
    """
    if lam is not None:
        _check_unit("lambda", lam)
    psi = GROWTH_CONSTANT[kind]
    if isinstance(cred, Constant):
        return {"family": "constant", "q": cred.q, "fixed_q_runtime": _runtime_at_constant_q(kind, cred, n)}
    if isinstance(cred, PowerLaw):
        out: dict = {"family": "power-law", "alpha": cred.alpha}
        if cred.alpha > 1.0:
            out["expectation_bound"] = powerlaw_expectation_bound(cred.alpha, psi)
        if cred.alpha > 1.0 or n < 3:
            return out
        phi = None
        if lam is not None:
            phi = basic_growth_bounds(kind, 1.0, (1.0 - lam) / 2.0).lower
        th = powerlaw_thresholds(cred.alpha, phi if phi else 1e-9, psi, n)
        out["t1_max"] = th.t1_max
        if phi:
            out["t2_min"] = th.t2_min
        return out
    if isinstance(cred, Additive):
        out = {"family": "additive", "alpha": cred.alpha, "q_zero_round": cred.constant_from()[0]}
        # n >= 65 keeps the reference zeta = n^(-1/4) inside its valid window
        if lam is not None and n >= 65 and kind in (ProtocolKind.PUSH, ProtocolKind.PULL):
            gamma = _expander_gamma(kind, lam, math.log(n))
            if gamma > 0:
                th = additive_thresholds(n, zeta=n ** -0.25, gamma_p=gamma)
                out["alpha_upper_regime_at_quarter_zeta"] = th.alpha_upper_regime
                out["alpha_lower_regime"] = th.alpha_lower_regime
        return out
    if isinstance(cred, Multiplicative):
        out = {"family": "multiplicative", "alpha": cred.alpha}
        if n >= 3:
            th = multiplicative_thresholds(n)
            regime = "few" if cred.alpha >= th.alpha_few else ("most" if cred.alpha <= th.alpha_most else "between")
            out.update(alpha_few=th.alpha_few, alpha_most=th.alpha_most, t_most=th.t_most, regime=regime)
        return out
    return None


def predict_report(kind: ProtocolKind, cred: Credibility, n: int, lam: float | None = None) -> dict:
    """The predictors that apply to a protocol, q(t), n >= 3 and, if known,
    lambda: what ``gossipsim predict`` prints beside its inputs.

    ``family`` is :func:`predictor_comparison`. A constant q > 0 adds its
    runtime and the six-phase plan (None where the plan is undefined, as for
    PULL at q = 1; lambda unknown reads as 0). The main-phase tau2 and tau3
    thresholds are always present, and for PUSH or PULL with a known lambda
    so is :func:`general_strong_T`, or the text of the error it raised.
    """
    out: dict = {"leading_order": True, "family": predictor_comparison(kind, cred, n, lam=lam)}
    if isinstance(cred, Constant) and cred.q > 0.0:
        out["fixed_q_runtime"] = out["family"]["fixed_q_runtime"]
        try:
            plan = phase_schedule(kind, cred.q, n, lam=lam or 0.0)
            out["phase_plan"] = [asdict(p) for p in plan.phases]
            out["phase_plan_total"] = plan.total_rounds
        except (DomainError, RangeError):
            out["phase_plan"] = None
    log_n = math.log(n)
    out["tau2_threshold_main_phase"] = tau2_threshold(log_n, n / log_n, GROWTH_CONSTANT[kind])
    out["tau3_threshold_main_phase"] = tau3_threshold(n / log_n, max(log_n, 0.75), 0.5)
    if lam is not None and kind in (ProtocolKind.PUSH, ProtocolKind.PULL):
        try:
            res = general_strong_T(cred, lam, n, kind)
            out["general_strong_T"] = {
                "rounds": res.rounds,
                "threshold": res.threshold,
                "gamma": res.gamma,
                "epsilon_ok": res.epsilon_ok,
            }
        except GossipSimError as exc:
            out["general_strong_T"] = {"error": str(exc)}
    return out


# -- numeric claim oracles ----------------------------------------------------


@dataclass(frozen=True)
class StirlingProductCheck:
    lower_ok: bool
    upper_ok: bool
    product: float
    lower_bound: float
    upper_bound: float


def stirling_product_check(alpha: float) -> StirlingProductCheck:
    """Check (1/sqrt(2)) (4/e)^(1/a) e^(-a/2) <= prod_{i<1/a} (2 - i a) <= sqrt(2) (4/e)^(1/a).

    The product and both bounds are compared in log space; 1/alpha must be a
    positive integer so the product is well formed.
    """
    if not alpha > 0.0:
        raise NonIntegerReciprocal(f"alpha must be positive, got {alpha}")
    m = 1.0 / alpha
    if abs(m - round(m)) > 1e-9 or round(m) < 1:
        raise NonIntegerReciprocal(f"1/alpha = {m} is not a positive integer")
    m = int(round(m))
    log_product = math.fsum(math.log(2.0 - i * alpha) for i in range(m))
    log_base = m * (math.log(4.0) - 1.0)
    log_lower = -0.5 * math.log(2.0) + log_base - alpha / 2.0
    log_upper = 0.5 * math.log(2.0) + log_base
    return StirlingProductCheck(
        lower_ok=log_lower <= log_product + 1e-12,
        upper_ok=log_product <= log_upper + 1e-12,
        product=math.exp(log_product),
        lower_bound=math.exp(log_lower),
        upper_bound=math.exp(log_upper),
    )


@dataclass(frozen=True)
class HarmonicSumCheck:
    lower_ok: bool
    upper_ok: bool
    partial_sum: float
    lower_bound: float
    upper_bound: float


def harmonic_sum_check(alpha: float, t: int) -> HarmonicSumCheck:
    """Check (T^(1-a) - 1)/(1-a) <= sum_{k=1}^T k^-a <= T^(1-a)/(1-a) for a in (0,1)."""
    if not 0.0 < alpha < 1.0:
        raise AlphaRange(f"needs alpha in (0, 1), got {alpha}")
    _check_size("T", t, 1)
    if t != int(t):
        raise RangeError(f"need an integer T, got {t}")
    partial = math.fsum(k ** (-alpha) for k in range(1, int(t) + 1))
    lower = (t ** (1.0 - alpha) - 1.0) / (1.0 - alpha)
    upper = t ** (1.0 - alpha) / (1.0 - alpha)
    return HarmonicSumCheck(
        lower_ok=lower <= partial + 1e-12,
        upper_ok=partial <= upper + 1e-12,
        partial_sum=partial,
        lower_bound=lower,
        upper_bound=upper,
    )


@dataclass(frozen=True)
class MultiplicativeProductCheck:
    few_ok: bool
    most_ok: bool
    log_product_few: float
    log_product_most: float
    few_bound: float
    most_bound: float


def multiplicative_product_check(n: float) -> MultiplicativeProductCheck:
    """Check the two product claims behind the multiplicative dichotomy.

    prod_{i>=0} (1 + (1 - 0.5/log n)^i) <= sqrt(n) and
    prod_{i<4 log n} (1 + (1 - 0.125/log n)^i) >= n^(3/2), both in log space.
    """
    log_n = math.log(n) if 1.0 < n < math.inf else math.nan
    if not log_n > 1.0:
        raise RangeError(f"need a finite n with log n > 1, got n = {n}")

    ratio_few = 1.0 - 0.5 / log_n
    total_few = 0.0
    term = 1.0
    while term > 1e-18:
        total_few += math.log1p(term)
        term *= ratio_few
    ratio_most = 1.0 - 0.125 / log_n
    total_most = 0.0
    term = 1.0
    for _ in range(int(math.floor(4.0 * log_n))):
        total_most += math.log1p(term)
        term *= ratio_most

    return MultiplicativeProductCheck(
        few_ok=total_few <= 0.5 * log_n + 1e-9,
        most_ok=total_most >= 1.5 * log_n - 1e-9,
        log_product_few=total_few,
        log_product_most=total_most,
        few_bound=0.5 * log_n,
        most_bound=1.5 * log_n,
    )
