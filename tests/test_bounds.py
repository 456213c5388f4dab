from __future__ import annotations

import math

import numpy as np
import pytest

from gossipsim.bounds import (
    GROWTH_CONSTANT,
    BoundSet,
    basic_growth_bounds,
    refined_spectral_lower,
    shrink_bounds,
)
from gossipsim.errors import KindError, RangeError
from gossipsim.graphs import (
    complete_graph,
    conductance,
    cycle_graph,
    generate_random_regular,
    is_connected,
    matching_graph,
)
from gossipsim.harness import iter_tiny_instances, tiny_corpus
from gossipsim.protocol import ProtocolKind, exact_delta_expectation, growth_factor

from conftest import mask_of


class TestBasicGrowthBounds:
    def test_pull_is_tight(self):
        b = basic_growth_bounds(ProtocolKind.PULL, 0.5, 0.4)
        assert b.lower == b.upper == pytest.approx(0.2)

    def test_push_row(self):
        b = basic_growth_bounds(ProtocolKind.PUSH, 1.0, 1.0)
        assert (b.lower, b.upper) == (pytest.approx(0.5), pytest.approx(1.0))

    def test_push_pull_row(self):
        b = basic_growth_bounds(ProtocolKind.PUSH_PULL, 1.0, 1.0)
        assert (b.lower, b.upper) == (pytest.approx(0.75), pytest.approx(2.0))

    def test_range_validation(self):
        with pytest.raises(RangeError):
            basic_growth_bounds(ProtocolKind.PUSH, 1.2, 0.5)
        with pytest.raises(RangeError):
            basic_growth_bounds(ProtocolKind.PUSH, 0.5, -0.1)


class TestRefinedSpectralLower:
    def test_clean_expander_limit(self):
        assert refined_spectral_lower(ProtocolKind.PUSH, 1.0, 0.0, 0.0) == pytest.approx(1.0)

    def test_clamps_when_beta_large(self):
        assert refined_spectral_lower(ProtocolKind.PUSH, 1.0, 0.02, 0.01) == 0.0
        assert refined_spectral_lower(ProtocolKind.PUSH_PULL, 0.5, 0.01, 0.03) == 0.0

    def test_push_pull_small_beta(self):
        got = refined_spectral_lower(ProtocolKind.PUSH_PULL, 0.5, 0.0003, 0.0001)
        assert got == pytest.approx(0.5 * (2 - 12 * math.sqrt(0.0004)))

    def test_pull_rejected(self):
        with pytest.raises(KindError):
            refined_spectral_lower(ProtocolKind.PULL, 0.5, 0.0, 0.1)

    def test_fraction_range(self):
        with pytest.raises(RangeError):
            refined_spectral_lower(ProtocolKind.PUSH, 0.5, 0.0, 0.6)


class TestShrinkBounds:
    def test_push_values(self):
        b = shrink_bounds(ProtocolKind.PUSH, 1.0, 1.0, 2)
        assert b.lower == pytest.approx(1 - math.exp(-1))
        assert b.upper == pytest.approx(1 - math.exp(-1) / 2)
        assert b.upper_requires_connected

    def test_push_pull_zero_credibility(self):
        b = shrink_bounds(ProtocolKind.PUSH_PULL, 0.0, 0.7, 3)
        assert (b.lower, b.upper) == (0.0, 0.0)

    def test_pull_row(self):
        b = shrink_bounds(ProtocolKind.PULL, 0.3, 0.5, 4)
        assert b.lower == b.upper == pytest.approx(0.15)

    def test_matching_exact_factor_is_bracketed(self):
        # d = 1, q = 1: the exact shrink factor is phi itself.
        for phi in (0.25, 0.5, 1.0):
            b = shrink_bounds(ProtocolKind.PUSH_PULL, 1.0, phi, 1)
            assert b.lower - 1e-12 <= phi <= b.upper + 1e-12

    def test_degree_range(self):
        with pytest.raises(RangeError):
            shrink_bounds(ProtocolKind.PUSH, 0.5, 0.5, math.nan)


def worst_ratios(kind, q, graphs):
    """Largest E|Delta|/|I| over all informed sets, and E|Delta|/|U| over those with |U| <= n/2."""
    grow = shrink = 0.0
    for g in graphs:
        for bits in range(1, 2**g.n - 1):
            informed = np.array([(bits >> v) & 1 == 1 for v in range(g.n)])
            size = int(informed.sum())
            edel = exact_delta_expectation(kind, g, informed, q)
            grow = max(grow, edel / size)
            if g.n - size <= g.n / 2:
                shrink = max(shrink, edel / (g.n - size))
    return grow, shrink


class TestClassify:
    # A process is c-growing when E|Delta| <= c|I| and c-shrinking when
    # E|Delta| <= c|U| for |U| <= n/2; the constants are checked against the
    # exact oracle with each one written out.

    def test_push_with_margin(self):
        # q = 1 - eps with eps = 0.1: 1-growing and (1 - eps)-shrinking.
        grow, shrink = worst_ratios(ProtocolKind.PUSH, 0.9, [g for _, g in tiny_corpus()])
        assert grow <= 1.0 + 1e-12
        assert shrink <= 0.9 + 1e-12

    def test_push_connected_without_margin(self):
        # At q = 1 a connected graph with d >= 2 still gives (1 - 1/(2e)).
        graphs = [generate_random_regular(8, 3, seed=s) for s in range(3)]
        graphs.append(generate_random_regular(10, 4, seed=0))
        assert all(is_connected(g) for g in graphs)
        grow, shrink = worst_ratios(ProtocolKind.PUSH, 1.0, graphs)
        assert grow <= 1.0 + 1e-12
        assert shrink <= 1.0 - 1.0 / (2.0 * math.e) + 1e-12

    def test_push_pull(self):
        # q = 1 - eps with eps = 0.5: 2-growing and (1 - eps^2)-shrinking.
        grow, shrink = worst_ratios(ProtocolKind.PUSH_PULL, 0.5, [g for _, g in tiny_corpus()])
        assert grow <= 2.0 + 1e-12
        assert shrink <= 0.75 + 1e-12

    def test_no_certificate_without_margin(self):
        # On a matching at q = 1, PUSH and PULL inform every uninformed
        # partner, so no shrink constant below 1 holds without a margin.
        g = matching_graph([(0, 1), (2, 3)])
        for kind in (ProtocolKind.PUSH, ProtocolKind.PULL):
            _, shrink = worst_ratios(kind, 1.0, [g])
            assert shrink == pytest.approx(1.0)

    def test_certificates_hold_on_tiny_instances(self):
        # growth: E|Delta| / |I| <= c_grow (1 for PUSH and PULL, 2 for
        # PUSH-PULL); shrink: E|Delta| / |U| <= c_shrink (1 - eps for PUSH and
        # PULL, 1 - eps^2 for PUSH-PULL) whenever |U| <= n/2 and q <= 1 - eps.
        eps = 0.5
        for _, g, informed, q, kind in iter_tiny_instances():
            if q > 1 - eps:
                continue
            c_shrink = 1.0 - eps * eps if kind is ProtocolKind.PUSH_PULL else 1.0 - eps
            edel = exact_delta_expectation(kind, g, informed, q)
            size = int(informed.sum())
            assert edel / size <= GROWTH_CONSTANT[kind] + 1e-12
            if g.n - size <= g.n / 2:
                assert edel / (g.n - size) <= c_shrink + 1e-12

    def test_connected_push_shrink_certificate(self):
        # PUSH on a connected graph is (1 - 1/(2e))-shrinking even at q = 1;
        # connected regular graphs with n >= 3 have d >= 2, the regime this needs.
        bound = 1.0 - 1.0 / (2.0 * math.e)
        for g in (complete_graph(4), complete_graph(5), cycle_graph(5), cycle_graph(6)):
            for bits in range(1, 2**g.n - 1):
                informed = np.array([(bits >> v) & 1 == 1 for v in range(g.n)])
                size = int(informed.sum())
                if g.n - size > g.n / 2:
                    continue
                edel = exact_delta_expectation(ProtocolKind.PUSH, g, informed, 1.0)
                assert edel / (g.n - size) <= bound + 1e-12


class TestSandwich:
    def test_bracket_on_sampled_instances(self):
        rng = np.random.default_rng(7)
        for i in range(60):
            d = int(rng.integers(2, 8))
            n = int(rng.integers(d + 1, 40))
            if (n * d) % 2:
                n += 1
            g = generate_random_regular(n, d, seed=i)
            connected = is_connected(g)
            size = int(rng.integers(1, n))
            informed = mask_of(n, rng.choice(n, size=size, replace=False))
            q = float(rng.choice([0.1, 0.3, 0.5, 0.8, 1.0]))
            phi = conductance(g, informed)
            for kind in ProtocolKind:
                gf = growth_factor(kind, g, informed, q)
                basic = basic_growth_bounds(kind, q, phi)
                assert basic.lower - 1e-9 <= gf <= basic.upper + 1e-9
                if size >= n / 2:
                    sb = shrink_bounds(kind, q, phi, d)
                    assert gf >= sb.lower - 1e-9
                    if connected:
                        assert gf <= sb.upper + 1e-9


def test_bound_set_orders_endpoints():
    with pytest.raises(RangeError):
        BoundSet(lower=0.5, upper=0.4, source="test")
