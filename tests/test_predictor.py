from __future__ import annotations

import math

import pytest

from gossipsim import predictor
from gossipsim.bounds import (
    GROWTH_CONSTANT,
    basic_growth_bounds,
    refined_spectral_lower,
    shrink_bounds,
    spectral_factor,
)
from gossipsim.credibility import Additive, Constant, Multiplicative, PowerLaw, Table
from gossipsim.errors import (
    AlphaRange,
    DomainError,
    GammaNonpositive,
    KindError,
    NonIntegerReciprocal,
    PhiNonpositive,
    RangeError,
    Unreached,
    ZetaRange,
)
from gossipsim.predictor import (
    ZETA_EXACT_TERMS,
    ThresholdScaleWarning,
    additive_thresholds,
    fixed_q_runtime,
    general_lower_T,
    general_strong_T,
    growth_correction,
    harmonic_sum_check,
    multiplicative_product_check,
    multiplicative_thresholds,
    phase_schedule,
    powerlaw_expectation_bound,
    powerlaw_thresholds,
    predictor_comparison,
    stirling_product_check,
    tau2_rounds,
    tau2_threshold,
    tau3_rounds,
    tau3_threshold,
)
from gossipsim.protocol import ProtocolKind

Q_GRID = (0.01, 0.3, 0.5, 0.999, 1.0)


def _q_grid(kind: ProtocolKind):
    """The q grid, less PULL at q = 1, where no shrink rate exists."""
    return [q for q in Q_GRID if not (kind is ProtocolKind.PULL and q == 1.0)]


class TestGrowthCorrection:
    def test_exact_at_one(self):
        # naive evaluation of 1 - (1-xi) * 1 underflows to 0; this must not
        assert growth_correction(1.0, 1e-30) == 1e-30

    def test_smooth_in_a(self):
        xi = 1e-30
        # ~ xi * (1 + log a) for small xi
        assert growth_correction(math.e, xi) == pytest.approx(2e-30, rel=1e-9)

    def test_range_errors(self):
        with pytest.raises(RangeError):
            growth_correction(math.nan, 0.5)


class TestTau2Threshold:
    def test_unit_start_scales_like_inverse_xi_squared(self):
        b = 1000.0
        numerator = math.log(b) + (math.log(b) + math.log(2) + 1) ** (2 / 3)
        assert tau2_threshold(1.0, b, 1.0) == pytest.approx(numerator * 1e60, rel=1e-12)

    def test_degenerate_equal_endpoints(self):
        got = tau2_threshold(3.0, 3.0, 1.0, xi=0.5)
        expected = (math.log(2) + 1) ** (2 / 3) / growth_correction(3.0, 0.5) ** 2
        assert got == pytest.approx(expected, rel=1e-12)
        assert got > 0

    def test_frozen_high_precision_value(self):
        # a = 100, b = e^100 / 100, c_grow = 1, xi = 1e-30; reference value
        # evaluated independently with 60-digit arithmetic (mpmath).
        got = tau2_threshold(100.0, math.exp(100.0) / 100.0, 1.0)
        assert got == pytest.approx(3.540663244011288e60, rel=1e-9)

    def test_monotone_in_endpoints(self):
        base = tau2_threshold(8.0, 100.0, 1.0)
        assert tau2_threshold(8.0, 200.0, 1.0) > base
        assert tau2_threshold(16.0, 100.0, 1.0) < base

    def test_range_errors(self, monkeypatch):
        with pytest.raises(RangeError):
            tau2_threshold(0.5, 10.0, 1.0)
        with pytest.raises(RangeError):
            tau2_threshold(10.0, 5.0, 1.0)
        # a NaN c_grow would give a NaN threshold that no scan crosses
        with pytest.raises(RangeError):
            tau2_threshold(2.0, 100.0, math.nan)
        monkeypatch.setattr(predictor, "ROUND_CAP", 10)
        with pytest.raises(RangeError):
            tau2_rounds(lambda t: 0.3, 0, 2.0, 100.0, math.nan)


class TestTau3Threshold:
    def test_min_branch_small_d(self):
        # D = 3/4, c_shrink = 0: gamma = 1 - min(2/3, 1/2) = 1/2
        got = tau3_threshold(10.0, 0.75, 0.0)
        ratio = math.log(10.0 / 0.75)
        assert got == pytest.approx(2 * (ratio + (ratio + 1) ** (2 / 3)), rel=1e-12)

    def test_min_branch_large_d(self):
        c_shrink = 0.5
        d = 100.0
        gamma = 1 - 1 / (2 * (1 - c_shrink) * d)
        ratio = math.log(200.0 / d)
        expected = (ratio + (ratio - math.log(0.5) + 1) ** (2 / 3)) / gamma
        assert tau3_threshold(200.0, d, c_shrink) == pytest.approx(expected, rel=1e-12)

    def test_frozen_high_precision_value(self):
        # c = n/2, d = n/log n for n = 1e6, c_shrink = 0.9 (mpmath reference)
        n = 1e6
        got = tau3_threshold(n / 2, n / math.log(n), 0.9)
        assert got == pytest.approx(4.948008640483337, rel=1e-9)

    def test_monotone_in_ratio(self):
        assert tau3_threshold(300.0, 10.0, 0.5) > tau3_threshold(200.0, 10.0, 0.5)

    def test_range_errors(self):
        with pytest.raises(RangeError):
            tau3_threshold(10.0, 0.5, 0.5)
        with pytest.raises(RangeError):
            tau3_threshold(5.0, 10.0, 0.5)
        # a negative c_shrink used to give a complex threshold
        for c_shrink in (-5.0, math.nan, 1.0):
            with pytest.raises(RangeError):
                tau3_threshold(10.0, 8.0, c_shrink)
            with pytest.raises(RangeError):
                tau3_rounds(lambda t: 0.3, 0, 10.0, 8.0, c_shrink)


class TestStoppingTimeScans:
    def test_constant_rate_closed_form(self):
        for nu in (0.25, 0.6):
            threshold = tau2_threshold(4.0, 900.0, 1.0, xi=0.5)
            expected = 7 + math.ceil(threshold / math.log1p(nu))
            assert tau2_rounds(lambda t: nu, 7, 4.0, 900.0, 1.0, xi=0.5) == expected

    def test_zero_rate_unreached(self, monkeypatch):
        monkeypatch.setattr(predictor, "ROUND_CAP", 500)
        with pytest.raises(Unreached):
            tau2_rounds(lambda t: 0.0, 0, 4.0, 900.0, 1.0, xi=0.5)

    def test_unit_start_warns_and_exhausts(self, monkeypatch):
        monkeypatch.setattr(predictor, "ROUND_CAP", 50)
        with pytest.warns(ThresholdScaleWarning):
            with pytest.raises(Unreached):
                tau2_rounds(lambda t: 1.0, 0, 1.0, 8.0, 1.0)

    def test_decaying_rate_matches_independent_partial_sums(self):
        # independent crossing search over explicitly accumulated sums
        a, b, c_grow = 50.0, 55.0, 1.0
        threshold = tau2_threshold(a, b, c_grow, xi=0.9)
        nu = lambda t: (t + 1) ** -0.5
        acc, s = 0.0, 0
        while acc < threshold:
            acc += math.log1p(nu(s))
            s += 1
        assert tau2_rounds(nu, 0, a, b, c_grow, xi=0.9) == s

    def test_tau3_constant_rate_closed_form(self):
        threshold = tau3_threshold(300.0, 2.0, 0.4)
        expected = 2 + math.ceil(threshold / -math.log1p(-0.3))
        assert tau3_rounds(lambda t: 0.3, 2, 300.0, 2.0, 0.4) == expected

    def test_tau3_zero_rate_unreached(self, monkeypatch):
        monkeypatch.setattr(predictor, "ROUND_CAP", 200)
        with pytest.raises(Unreached):
            tau3_rounds(lambda t: 0.0, 0, 300.0, 2.0, 0.4)

    def test_tau3_geometric_rate_matches_partial_sums(self):
        nu = lambda t: 0.5 * 0.9**t
        threshold = tau3_threshold(10.0, 8.0, 0.5)
        acc, s = 0.0, 0
        while acc > -threshold:
            acc += math.log1p(-nu(s))
            s += 1
        assert tau3_rounds(nu, 0, 10.0, 8.0, 0.5) == s


class TestFixedQRuntime:
    def test_push_full_credibility(self):
        n = round(math.exp(10))
        got = fixed_q_runtime(ProtocolKind.PUSH, 1.0, n)
        assert got == pytest.approx((1 / math.log(2) + 1) * math.log(n), rel=1e-12)
        assert got == pytest.approx(24.43, abs=0.05)

    def test_pull_half(self):
        n = round(math.exp(10))
        got = fixed_q_runtime(ProtocolKind.PULL, 0.5, n)
        expected = (1 / math.log(1.5) + 1 / math.log(2)) * math.log(n)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(39.09, abs=0.05)

    def test_push_pull_half(self):
        n = round(math.exp(10))
        got = fixed_q_runtime(ProtocolKind.PUSH_PULL, 0.5, n)
        expected = (1 / math.log(2) + 1 / (0.5 + math.log(2))) * math.log(n)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(22.81, abs=0.05)

    def test_pull_rejects_certain_acceptance(self):
        with pytest.raises(DomainError):
            fixed_q_runtime(ProtocolKind.PULL, 1.0, 1024)

    def test_small_q_asymptote(self):
        # both PUSH summands approach 1/q
        q = 1e-3
        got = fixed_q_runtime(ProtocolKind.PUSH, q, 1024)
        assert got == pytest.approx(2 * math.log(1024) / q, rel=0.05)

    def test_q_range(self):
        with pytest.raises(RangeError):
            fixed_q_runtime(ProtocolKind.PUSH, 0.0, 1024)

    @pytest.mark.parametrize("kind", list(ProtocolKind))
    def test_equals_dominant_phases(self, kind):
        for q in _q_grid(kind):
            for n in (5, 4096, 2**20):
                plan = phase_schedule(kind, q, n)
                assert fixed_q_runtime(kind, q, n) == pytest.approx(plan.dominant_rounds, rel=1e-12)


class TestPhaseSchedule:
    def test_push_full_credibility_dominant_phases(self):
        n = 2**20
        plan = phase_schedule(ProtocolKind.PUSH, 1.0, n)
        log_n = math.log(n)
        assert plan.phases[1].duration_bound == pytest.approx(log_n / math.log(2))
        assert plan.phases[4].duration_bound == pytest.approx(log_n / 1.0)
        assert [p.dominant for p in plan.phases] == [False, True, False, False, True, False]

    def test_pull_half_phase5(self):
        n = 4096
        plan = phase_schedule(ProtocolKind.PULL, 0.5, n)
        assert plan.phases[4].duration_bound == pytest.approx(math.log(n) / -math.log(0.5))

    def test_chaining_and_boundaries(self):
        plan = phase_schedule(ProtocolKind.PUSH_PULL, 0.7, 10_000, lam=0.1)
        for first, second in zip(plan.phases, plan.phases[1:]):
            assert first.finish_size == second.start_size
        grow = [p for p in plan.phases if p.mode == "growing"]
        shrink = [p for p in plan.phases if p.mode == "shrinking"]
        assert grow[-1].finish_size == pytest.approx(10_000 / 2)
        assert shrink[-1].finish_size == pytest.approx(0.75)
        assert all(p.nu >= 0 for p in plan.phases)

    def test_total_tracks_dominant_phases(self):
        plan = phase_schedule(ProtocolKind.PUSH, 0.8, 2**16)
        slack = plan.total_rounds - plan.dominant_rounds
        assert 0 < slack <= 4 * math.log(math.log(2**16)) * (1 / math.log(1.8) + 1 / 0.8)

    def test_phase1_rate_for_push(self):
        plan = phase_schedule(ProtocolKind.PUSH, 0.6, 1024, lam=0.0)
        assert plan.phases[0].nu == pytest.approx(0.6 * (1 - 0.3) * 0.5)

    def test_pull_rejects_certain_acceptance(self):
        with pytest.raises(DomainError):
            phase_schedule(ProtocolKind.PULL, 1.0, 1024)

    @pytest.mark.parametrize("kind", list(ProtocolKind))
    @pytest.mark.parametrize("n", [5, 8, 4096, 2**20])
    @pytest.mark.parametrize("lam", [0.0, 0.1, 0.35, 1.0])
    def test_rates_are_the_bounds_lower_sides(self, kind, n, lam):
        log_n = math.log(n)
        half_gap = (1.0 - lam) / 2.0
        wide = (1.0 - lam) * (1.0 - 1.0 / log_n)
        for q in _q_grid(kind):
            nus = [p.nu for p in phase_schedule(kind, q, n, lam=lam).phases]
            assert nus[0] == basic_growth_bounds(kind, q, 0.5).lower
            assert nus[2] == basic_growth_bounds(kind, q, half_gap).lower
            assert nus[3:] == [shrink_bounds(kind, q, phi, 2).lower for phi in (half_gap, wide, 0.5)]
            if kind is ProtocolKind.PULL:
                # same product, multiplied in another order
                assert nus[1] == pytest.approx(basic_growth_bounds(kind, q, wide).lower, rel=1e-15, abs=0)
            elif n >= 8:
                assert nus[1] == refined_spectral_lower(kind, q, lam, 1.0 / log_n)
            else:
                # 1/log n > 1/2 is outside refined_spectral_lower's domain
                assert nus[1] == max(0.0, q * spectral_factor(kind, lam + 1.0 / log_n))


class TestGeneralStrongT:
    def test_constant_matches_closed_form_division(self):
        n = 10**6
        res = general_strong_T(Constant(0.5), 0.0, n, ProtocolKind.PULL)
        expected = math.ceil(res.threshold / math.log1p(0.5)) - 1
        assert res.rounds == expected
        assert res.gamma == 1.0
        assert res.epsilon_ok  # sup q = 0.5 <= 1 - 1/log n

    def test_zero_credibility_unreached(self):
        with pytest.raises(Unreached, match="^credibility hit 0 before the threshold$"):
            general_strong_T(Constant(0.0), 0.0, 10**6, ProtocolKind.PULL)

    def test_tiny_constant_tail_unreached(self):
        # threshold / log1p(1e-310) overflows to inf
        with pytest.raises(Unreached, match="^constant credibility too small to reach the threshold$"):
            general_strong_T(Constant(1e-310), 0.0, 10**6, ProtocolKind.PULL)

    def test_multiplicative_converging_series_unreached(self):
        # the threshold is at the 1/xi^2 scale, beyond what log 2 per round
        # sums to within the round cap, so the scan stops before its first round
        n = 10**6
        alpha = 1 / (8 * math.log(n))
        with pytest.raises(Unreached, match="^threshold beyond reach of the round cap$"):
            general_strong_T(Multiplicative(alpha), 0.0, n, ProtocolKind.PULL)

    @pytest.mark.parametrize(
        "q, n, round_cap, reason",
        [
            (PowerLaw(1.5), 10**3, 1_000_000, "log-growth series converges below the threshold"),
            (Additive(0.001), 3, 10, "threshold not reached within 10 rounds"),
        ],
    )
    def test_unreached_reasons_of_a_scanned_series(self, monkeypatch, q, n, round_cap, reason):
        monkeypatch.setattr(predictor, "ROUND_CAP", round_cap)
        with pytest.raises(Unreached, match=f"^{reason}$"):
            general_strong_T(q, 0.0, n, ProtocolKind.PULL, xi=0.5)

    def test_push_gamma_guard(self):
        with pytest.raises(GammaNonpositive):
            general_strong_T(Constant(0.5), 0.5, 10**6, ProtocolKind.PUSH)

    def test_push_pull_rejected(self):
        with pytest.raises(KindError):
            general_strong_T(Constant(0.5), 0.0, 10**6, ProtocolKind.PUSH_PULL)

    def test_epsilon_precondition_reported(self):
        n = 10**6
        res = general_strong_T(Constant(1.0 - 1e-9), 0.0, n, ProtocolKind.PULL)
        assert not res.epsilon_ok


class TestGeneralLowerT:
    def test_constant_geometric_inversion(self):
        n = 2**30
        t = general_lower_T(Constant(1.0), 1.0, n, n**-0.5)
        assert t == math.floor(0.5 * math.log(n) / math.log(2))

    def test_power_law_plateau_sentinel(self):
        assert general_lower_T(PowerLaw(2.0), 1.0, 10**9, 0.5) == math.inf

    def test_zero_credibility_sentinel(self):
        assert general_lower_T(Constant(0.0), 1.0, 1000, 0.5) == math.inf

    def test_tiny_constant_tail_sentinel(self):
        assert general_lower_T(Constant(1e-310), 1.0, 10**6, 0.5) == math.inf

    def test_target_below_zero_gives_zero(self):
        assert general_lower_T(Constant(1.0), 1.0, 100, 1e-3) == 0

    def test_additive_exhausts_then_plateaus(self):
        # q dies at t = 10 having accumulated ~ sum log(1 + q(t)) < log n
        assert general_lower_T(Additive(0.1), 1.0, 10**9, 0.99) == math.inf

    def test_rho_validated(self):
        with pytest.raises(RangeError):
            general_lower_T(Constant(0.5), 1.0, 100, 1.5)

    @pytest.mark.parametrize("psi, n", [(1.0, 0), (1.0, 1), (1.0, math.nan), (math.nan, 100)])
    def test_psi_and_n_validated(self, psi, n):
        with pytest.raises(RangeError):
            general_lower_T(Constant(0.5), psi, n, 0.5)


# Schedules without a constant tail, or with one that starts only after some
# rounds, so both scans step through rounds instead of exiting at once.
SCANNED = (PowerLaw(0.5), Multiplicative(0.001), Table((0.2, 0.9, 0.1), tail=0.3))


def _first_crossing(q, threshold):
    """The least T with sum_{t<=T} log(1 + q(t)) >= threshold, one round at a time."""
    acc, t = 0.0, 0
    while True:
        acc += math.log1p(q.value_at(t))
        if acc >= threshold:
            return t
        t += 1


def _last_below(q, psi, n, rho):
    """The greatest T with sum_{t<T} log(1 + psi q(t)) <= log n + log rho, one round at a time."""
    target = math.log(n) + math.log(rho)
    acc, t = 0.0, 0
    while acc + math.log1p(psi * q.value_at(t)) <= target:
        acc += math.log1p(psi * q.value_at(t))
        t += 1
    return t


class TestScansMatchPartialSums:
    @pytest.mark.parametrize("q", SCANNED, ids=repr)
    @pytest.mark.parametrize("n", [10**3, 10**9])
    def test_strong(self, q, n):
        res = general_strong_T(q, 0.1, n, ProtocolKind.PULL, xi=0.5)
        assert res.rounds == _first_crossing(q, res.threshold)

    @pytest.mark.parametrize("q", SCANNED, ids=repr)
    @pytest.mark.parametrize("psi", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n, rho", [(10**3, 0.5), (10**9, 0.9)])
    def test_lower(self, q, psi, n, rho):
        assert general_lower_T(q, psi, n, rho) == _last_below(q, psi, n, rho)

    def test_threshold_beyond_the_round_cap(self, monkeypatch):
        # log(1 + q) <= log 2 per round, so 11 rounds sum to at most 7.6
        monkeypatch.setattr(predictor, "ROUND_CAP", 10)
        with pytest.raises(Unreached, match="beyond reach of the round cap"):
            general_strong_T(PowerLaw(0.5), 0.1, 10**3, ProtocolKind.PULL, xi=0.5)
        assert general_lower_T(PowerLaw(0.5), 1.0, 10**9, 0.9) == math.inf


class TestPowerLawCalculators:
    def test_expectation_bound_zeta2(self):
        expected = math.exp(math.pi**2 / 6)
        assert powerlaw_expectation_bound(2.0, 1.0) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "alpha, zeta",
        [
            (2.0, math.pi**2 / 6),
            (3.0, 1.2020569031595942854),  # Apery's constant
            (4.0, math.pi**4 / 90),
            (1.5, 2.612375348685488),
        ],
    )
    @pytest.mark.parametrize("c_grow", [0.5, 2.0])
    def test_expectation_bound_matches_zeta(self, alpha, zeta, c_grow):
        expected = math.exp(c_grow * zeta)
        assert powerlaw_expectation_bound(alpha, c_grow) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("alpha", [1.01, 1.2])
    def test_expectation_bound_near_one_is_finite(self, alpha):
        # zeta(alpha) ~ 1/(alpha - 1): the bound is large but must come back.
        value = powerlaw_expectation_bound(alpha, 1.0)
        assert math.isfinite(value)
        assert value > math.exp(1.0 / (alpha - 1.0))

    def test_expectation_bound_overflow_is_inf(self):
        assert powerlaw_expectation_bound(1.001, 1.0) == math.inf

    @pytest.mark.parametrize("alpha", [1.01, 1.5, 2, 3.7])
    @pytest.mark.parametrize("c_grow", [0.0, 0.5, GROWTH_CONSTANT[ProtocolKind.PUSH]])
    def test_expectation_bound_is_the_plain_fsum_formula(self, alpha, c_grow):
        # the zeta head is memoised per alpha; every call must give the bits
        # of the formula summed afresh
        cut = ZETA_EXACT_TERMS
        head = math.fsum(k ** (-alpha) for k in range(1, cut))
        tail = cut ** (1.0 - alpha) / (alpha - 1.0) + cut ** (-alpha) / 2.0 + alpha * cut ** (-alpha - 1.0) / 12.0
        try:
            want = math.exp(c_grow * (head + tail))
        except OverflowError:
            want = math.inf
        for _ in range(2):
            assert powerlaw_expectation_bound(alpha, c_grow).hex() == want.hex()

    def test_expectation_bound_zeta3(self):
        assert powerlaw_expectation_bound(3.0, 1.0) == pytest.approx(3.32695311, abs=1e-6)

    def test_zero_growth_constant(self):
        assert powerlaw_expectation_bound(2.0, 0.0) == 1.0

    def test_alpha_range(self):
        with pytest.raises(AlphaRange):
            powerlaw_expectation_bound(1.0, 1.0)
        with pytest.raises(AlphaRange):
            powerlaw_expectation_bound(math.nan, 1.0)

    def test_growth_constant_range(self):
        with pytest.raises(RangeError):
            powerlaw_expectation_bound(2.0, math.nan)

    def test_thresholds_half(self):
        n = math.exp(100.0)
        th = powerlaw_thresholds(0.5, 1.0, 1.0, n)
        # k1 = ((1-a)/2)^(1/(1-a)) = 1/16, so t1 = (1/16) * 100^2
        assert th.t1_max == pytest.approx(625.0, rel=1e-9)
        # k2 = (16*(1-a)/xi)^2 = (8e30)^2; t2 = k2 * 100^2
        assert th.t2_min == pytest.approx(6.4e65, rel=1e-9)
        assert not th.alpha_one_branch

    def test_alpha_one_branch(self):
        th = powerlaw_thresholds(1.0, 1.0, 1.0, 10**9)
        assert th.alpha_one_branch
        assert th.t1_max == pytest.approx(math.exp(math.log(10**9) / 2 - 1), rel=1e-9)
        assert th.t2_min == math.inf

    def test_phi_guard(self):
        with pytest.raises(PhiNonpositive):
            powerlaw_thresholds(0.5, 0.0, 1.0, 1000)
        with pytest.raises(PhiNonpositive):
            powerlaw_thresholds(0.5, math.nan, 1.0, 100)

    def test_psi_guard(self):
        with pytest.raises(RangeError):
            powerlaw_thresholds(0.5, 0.1, math.nan, 100)

    def test_alpha_guard(self):
        with pytest.raises(AlphaRange):
            powerlaw_thresholds(1.5, 1.0, 1.0, 1000)


class TestAdditiveThresholds:
    def test_point_value(self):
        # n = e^100, zeta = e^-10: log(4/e) / 90
        th = additive_thresholds(math.exp(100.0), math.exp(-10.0), gamma_p=1.0)
        assert th.alpha_upper_regime == pytest.approx((2 * math.log(2) - 1) / 90, rel=1e-12)

    def test_dichotomy_gap(self):
        th = additive_thresholds(math.exp(100.0), 1e-5, gamma_p=1.0)
        assert 0 < th.alpha_lower_regime < th.alpha_upper_regime

    def test_zeta_range(self):
        with pytest.raises(ZetaRange):
            additive_thresholds(1000, 1e-4, 1.0)
        with pytest.raises(ZetaRange):
            additive_thresholds(1000, 0.5, 1.0)

    def test_gamma_range(self):
        with pytest.raises(GammaNonpositive):
            additive_thresholds(100, 0.1, math.nan)


class TestMultiplicativeThresholds:
    def test_point_values(self):
        th = multiplicative_thresholds(round(math.exp(10)))
        assert th.alpha_few == pytest.approx(0.05, rel=1e-3)
        assert th.alpha_most == pytest.approx(0.0125, rel=1e-3)
        assert th.t_most == pytest.approx(40.0, rel=1e-3)

    def test_ordering(self):
        for n in (100, 10**6, 10**9):
            th = multiplicative_thresholds(n)
            assert th.alpha_few > th.alpha_most


class TestStirlingProduct:
    def test_alpha_one(self):
        rep = stirling_product_check(1.0)
        assert rep.product == pytest.approx(2.0)
        assert rep.lower_bound == pytest.approx((4 / math.e) / math.sqrt(2) * math.exp(-0.5))
        assert rep.upper_bound == pytest.approx(math.sqrt(2) * 4 / math.e)
        assert rep.lower_ok and rep.upper_ok

    def test_alpha_half(self):
        rep = stirling_product_check(0.5)
        assert rep.product == pytest.approx(3.0)
        assert rep.upper_bound == pytest.approx(math.sqrt(2) * (4 / math.e) ** 2)
        assert rep.lower_ok and rep.upper_ok

    @pytest.mark.parametrize("k", range(7))
    def test_dyadic_grid(self, k):
        rep = stirling_product_check(1.0 / 2**k)
        assert rep.lower_ok and rep.upper_ok

    def test_non_integer_reciprocal(self):
        with pytest.raises(NonIntegerReciprocal):
            stirling_product_check(0.3)
        with pytest.raises(NonIntegerReciprocal):
            stirling_product_check(math.nan)


class TestClaimOracles:
    @pytest.mark.parametrize("t", [10, 100, 1000])
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_harmonic_sandwich(self, t, alpha):
        rep = harmonic_sum_check(alpha, t)
        assert rep.lower_ok and rep.upper_ok
        assert rep.lower_bound <= rep.partial_sum <= rep.upper_bound

    @pytest.mark.parametrize("log_n", [10.0, 20.0])
    def test_multiplicative_product_parts(self, log_n):
        # Frozen truth from direct evaluation: at decay 0.5/log n the product
        # exceeds sqrt(n) (its log is ~(pi^2/6) log n), so the claimed "few"
        # inequality fails; the 4*log n "most" inequality holds.
        rep = multiplicative_product_check(math.exp(log_n))
        assert not rep.few_ok
        assert rep.log_product_few == pytest.approx((math.pi**2 / 6) * log_n, rel=0.05)
        assert rep.most_ok

    @pytest.mark.parametrize("n", [0, -1.0, math.nan, math.inf])
    def test_multiplicative_product_range(self, n):
        with pytest.raises(RangeError):
            multiplicative_product_check(n)

    def test_corrected_few_constant_would_hold(self):
        # with decay 2/log n the same product stays below sqrt(n)
        for log_n in (10.0, 20.0):
            ratio = 1 - 2.0 / log_n
            total, term = 0.0, 1.0
            while term > 1e-18:
                total += math.log1p(term)
                term *= ratio
            assert total <= 0.5 * log_n


@pytest.mark.parametrize(
    "fn, args",
    [
        (fixed_q_runtime, (ProtocolKind.PUSH, 0.5, math.nan)),
        (phase_schedule, (ProtocolKind.PUSH, 0.5, math.nan)),
        (general_strong_T, (Constant(0.5), 0.1, math.inf, ProtocolKind.PULL)),
        (powerlaw_thresholds, (0.5, 0.1, 1.0, math.nan)),
        (additive_thresholds, (math.inf, 0.1, 1.0)),
        (multiplicative_thresholds, (math.nan,)),
        (harmonic_sum_check, (0.5, math.nan)),
        (harmonic_sum_check, (0.5, 1.5)),
    ],
)
def test_size_guards_reject_nan_inf_and_fractions(fn, args):
    with pytest.raises(RangeError):
        fn(*args)


def test_table_credibility_supported_in_scans():
    table = Table((1.0, 1.0, 0.0), tail=0.0)
    assert general_lower_T(table, 1.0, 10**9, 0.9) == math.inf
    res = general_strong_T(Table((0.5,), tail=0.5), 0.0, 10**4, ProtocolKind.PULL)
    assert res.rounds > 0


class TestPredictorComparison:
    def test_present_for_named_families_only(self):
        assert predictor_comparison(ProtocolKind.PUSH, Constant(1.0), 8)["family"] == "constant"
        assert predictor_comparison(ProtocolKind.PUSH, PowerLaw(2.0), 8)["family"] == "power-law"
        assert predictor_comparison(ProtocolKind.PUSH, Table((0.5,)), 8) is None

    def test_powerlaw_comparison_is_pinned(self):
        out = predictor_comparison(ProtocolKind.PUSH, PowerLaw(2.0), 1024)
        assert out == {"family": "power-law", "alpha": 2.0, "expectation_bound": float.fromhex("0x1.4b9011d932a70p+2")}

    def test_constant_contains_runtime(self):
        out = predictor_comparison(ProtocolKind.PUSH, Constant(0.5), 8)
        assert out["fixed_q_runtime"] == pytest.approx(
            fixed_q_runtime(ProtocolKind.PUSH, 0.5, 8)
        )

    @pytest.mark.parametrize("kind", list(ProtocolKind))
    @pytest.mark.parametrize("lam", [0.0, 0.35, 0.9])
    def test_powerlaw_floor_is_the_growth_lower_side(self, kind, lam):
        n, alpha = 4096, 0.5
        out = predictor_comparison(kind, PowerLaw(alpha), n, lam=lam)
        phi = basic_growth_bounds(kind, 1.0, (1.0 - lam) / 2.0).lower
        th = powerlaw_thresholds(alpha, phi, GROWTH_CONSTANT[kind], n)
        assert (out["t1_max"], out["t2_min"]) == (th.t1_max, th.t2_min)

    def test_pull_q1_runtime_is_none(self):
        out = predictor_comparison(ProtocolKind.PULL, Constant(1.0), 8)
        assert out["fixed_q_runtime"] is None

    def test_multiplicative_regimes(self):
        n = 8
        few = 0.5 / math.log(n)
        out = predictor_comparison(ProtocolKind.PUSH, Multiplicative(few), n)
        assert out["regime"] == "few"
