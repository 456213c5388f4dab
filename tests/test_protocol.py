from __future__ import annotations

import hashlib
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossipsim.errors import RangeError, SetRangeError, SizeGuardExceeded
from gossipsim.graphs import (
    complete_graph,
    cycle_graph,
    generate_random_regular,
    matching_graph,
    ordered_pairs_between,
)
from gossipsim import protocol
from gossipsim.harness import iter_tiny_instances, verify_suite
from gossipsim.protocol import (
    ProcessState,
    ProtocolKind,
    complete_chain,
    complete_delta_expectation,
    complete_final_law,
    complete_size_law,
    enumerate_joint_distribution,
    exact_delta_expectation,
    growth_factor,
    initial_state,
    sample_delta_sizes,
    step,
    verify_process_properties,
)
from gossipsim.seeds import rng_for

from conftest import mask_from_bits, mask_of

KINDS = list(ProtocolKind)


class TestStep:
    def test_zero_credibility_changes_nothing(self):
        g = complete_graph(5)
        state = initial_state(5, 2)
        for kind in KINDS:
            out = step(kind, g, state, 0.0, rng_for(1))
            assert np.array_equal(out.informed, state.informed)
            assert out.t == 1

    def test_pull_k2_completes_immediately(self):
        g = complete_graph(2)
        for seed in range(20):
            out = step(ProtocolKind.PULL, g, initial_state(2, 1), 1.0, rng_for(seed))
            assert out.informed_count == 2

    def test_push_k3_informs_exactly_one_uniform_neighbor(self):
        g = complete_graph(3)
        hits = np.zeros(3)
        n_steps = 4000
        for seed in range(n_steps):
            out = step(ProtocolKind.PUSH, g, initial_state(3, 1), 1.0, rng_for(9, seed))
            delta = out.informed & ~initial_state(3, 1).informed
            assert delta.sum() == 1
            hits += delta
        # each neighbor hit w.p. 1/2; allow 5 standard errors
        se = math.sqrt(0.25 * n_steps)
        assert abs(hits[1] - n_steps / 2) <= 5 * se

    def test_deterministic_given_stream(self):
        g = generate_random_regular(30, 4, seed=0)
        state = initial_state(30, 3)
        for kind in KINDS:
            a = step(kind, g, state, 0.7, rng_for(4, 2))
            b = step(kind, g, state, 0.7, rng_for(4, 2))
            assert np.array_equal(a.informed, b.informed)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 2**8 - 2), st.floats(0.0, 1.0), st.integers(0, 10**6), st.sampled_from(KINDS))
    def test_monotone_growth(self, bits, q, seed, kind):
        g = cycle_graph(8)
        state = ProcessState(t=0, informed=mask_from_bits(8, bits))
        out = step(kind, g, state, q, rng_for(seed))
        assert np.all(out.informed >= state.informed)
        assert out.t == state.t + 1

    def test_rejects_empty_state(self):
        with pytest.raises(SetRangeError):
            step(ProtocolKind.PUSH, complete_graph(3), ProcessState(0, np.zeros(3, bool)), 1.0, rng_for(0))


class TestExactExpectation:
    def test_pull_closed_form_is_cut_based(self):
        # PULL expectation is q * e(I, U) / d on any regular graph.
        g = generate_random_regular(24, 5, seed=8)
        rng = np.random.default_rng(1)
        for _ in range(25):
            size = int(rng.integers(1, 24))
            informed = mask_of(24, rng.choice(24, size=size, replace=False))
            q = float(rng.random())
            expected = q * ordered_pairs_between(g, informed, ~informed) / g.d
            assert exact_delta_expectation(ProtocolKind.PULL, g, informed, q) == pytest.approx(
                expected, abs=1e-12
            )

    def test_push_k3_single_source(self):
        assert exact_delta_expectation(ProtocolKind.PUSH, complete_graph(3), [0], 1.0) == pytest.approx(1.0)

    def test_push_pull_k2(self):
        assert exact_delta_expectation(ProtocolKind.PUSH_PULL, complete_graph(2), [0], 1.0) == pytest.approx(1.0)

    def test_set_range_errors(self):
        g = complete_graph(4)
        with pytest.raises(SetRangeError):
            exact_delta_expectation(ProtocolKind.PUSH, g, [], 1.0)
        with pytest.raises(SetRangeError):
            exact_delta_expectation(ProtocolKind.PUSH, g, range(4), 1.0)


class TestGrowthFactor:
    def test_pull_equals_q_phi(self):
        from gossipsim.graphs import conductance

        g = generate_random_regular(16, 4, seed=3)
        rng = np.random.default_rng(2)
        for _ in range(20):
            size = int(rng.integers(1, 16))
            informed = mask_of(16, rng.choice(16, size=size, replace=False))
            q = float(rng.random())
            assert growth_factor(ProtocolKind.PULL, g, informed, q) == pytest.approx(
                q * conductance(g, informed), abs=1e-12
            )

    def test_push_k3_single_source(self):
        assert growth_factor(ProtocolKind.PUSH, complete_graph(3), [0], 1.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("kind", KINDS)
    def test_zero_credibility(self, kind):
        assert growth_factor(kind, cycle_graph(6), [0, 1], 0.0) == 0.0


class TestJointDistribution:
    def test_pull_k2_half(self):
        dist = enumerate_joint_distribution(ProtocolKind.PULL, complete_graph(2), [0], 0.5)
        assert dist.support == {frozenset(): pytest.approx(0.5), frozenset({1}): pytest.approx(0.5)}

    def test_push_k3_support(self):
        dist = enumerate_joint_distribution(ProtocolKind.PUSH, complete_graph(3), [0], 1.0)
        assert dist.support == {
            frozenset({1}): pytest.approx(0.5),
            frozenset({2}): pytest.approx(0.5),
        }

    def test_probabilities_sum_to_one(self, tiny_graphs):
        for g in tiny_graphs.values():
            for kind in KINDS:
                dist = enumerate_joint_distribution(kind, g, [0], 0.5)
                assert dist.total_probability() == pytest.approx(1.0, abs=1e-12)

    def test_cross_oracle_mean(self, tiny_graphs):
        for g in tiny_graphs.values():
            for bits in range(1, 2**g.n - 1, 3):
                informed = mask_from_bits(g.n, bits)
                for kind in KINDS:
                    dist = enumerate_joint_distribution(kind, g, informed, 0.5)
                    exact = exact_delta_expectation(kind, g, informed, 0.5)
                    assert dist.mean_size() == pytest.approx(exact, abs=1e-12)

    def test_pull_marginals_are_closed_form(self):
        g = cycle_graph(6)
        informed = mask_of(6, [0, 3])
        dist = enumerate_joint_distribution(ProtocolKind.PULL, g, informed, 0.25)
        k = g.marked_degrees(informed)
        for u, p in dist.marginals.items():
            assert p == pytest.approx(0.25 * k[u] / g.d, abs=1e-12)

    def test_enumeration_guard(self):
        g = complete_graph(30)
        with pytest.raises(SizeGuardExceeded):
            enumerate_joint_distribution(ProtocolKind.PUSH, g, range(15), 0.5)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 30),
        st.integers(1, 2**6 - 2),
        st.sampled_from([0.2, 0.5, 0.8, 1.0]),
        st.sampled_from(KINDS),
    )
    def test_cross_oracle_mean_on_random_graphs(self, seed, bits, q, kind):
        g = generate_random_regular(6, 3, seed=seed % 8)
        informed = mask_from_bits(6, bits)
        dist = enumerate_joint_distribution(kind, g, informed, q)
        exact = exact_delta_expectation(kind, g, informed, q)
        assert dist.mean_size() == pytest.approx(exact, abs=1e-12)
        assert dist.total_probability() == pytest.approx(1.0, abs=1e-12)
        uninformed = {v for v in range(6) if not informed[v]}
        assert all(set(s) <= uninformed for s in dist.support)


class TestProcessProperties:
    def test_pull_holds_with_equality(self, tiny_graphs):
        for g in tiny_graphs.values():
            rep = verify_process_properties(ProtocolKind.PULL, g, [0], 0.5)
            assert rep.neg_corr_ok and rep.var_ok
            assert abs(rep.worst_slack) <= 1e-12

    def test_push_k3_pair_never_joint(self):
        dist = enumerate_joint_distribution(ProtocolKind.PUSH, complete_graph(3), [0], 1.0)
        assert frozenset({1, 2}) not in dist.support
        rep = verify_process_properties(ProtocolKind.PUSH, complete_graph(3), [0], 1.0)
        assert rep.neg_corr_ok
        # Pr[both] = 0 <= 1/2 * 1/2
        assert rep.worst_slack <= -0.25 + 1e-12

    def test_push_pull_c4(self):
        rep = verify_process_properties(ProtocolKind.PUSH_PULL, cycle_graph(4), [0, 1], 0.5)
        assert rep.neg_corr_ok and rep.var_ok


class TestTinyOraclesPinned:
    """The tiny-instance oracles pinned bit for bit across commits. Reprs are
    hashed, so a value that changes type (np.float64 to float, np.True_ to
    True, 0 to 0.0) fails as a changed value would."""

    DIGEST = "181f5a085bf544accfee063f562a53426ff0c7afe40900bfb191f0ebe6bf61aa"

    def test_every_instance_and_the_suite_match_their_digest(self):
        h = hashlib.sha256()
        for name, g, informed, q, kind in iter_tiny_instances():
            dist = enumerate_joint_distribution(kind, g, informed, q)
            report = verify_process_properties(kind, g, informed, q)
            # support and marginals in insertion order, then every report field
            row = (name, informed.tolist(), q, kind.value, list(dist.support.items()),
                   list(dist.marginals.items()), dist.mean_size(), report)
            h.update(repr(row).encode())
        h.update(repr(verify_suite("tiny_exhaustive").checks).encode())
        assert h.hexdigest() == self.DIGEST


class TestSampling:
    @pytest.mark.parametrize(
        "kind,graph,informed,q",
        [
            (ProtocolKind.PUSH, complete_graph(4), [0], 0.5),
            (ProtocolKind.PULL, cycle_graph(5), [0, 2], 0.25),
            (ProtocolKind.PUSH_PULL, matching_graph([(0, 1), (2, 3)]), [0], 1.0),
            (ProtocolKind.PUSH_PULL, generate_random_regular(12, 3, seed=1), [0, 5, 7], 0.7),
        ],
    )
    def test_sampler_matches_exact_mean(self, kind, graph, informed, q):
        n_samples = 100_000
        sizes = sample_delta_sizes(kind, graph, mask_of(graph.n, informed), q, rng_for(77), n_samples)
        exact = exact_delta_expectation(kind, graph, mask_of(graph.n, informed), q)
        se = sizes.std(ddof=1) / math.sqrt(n_samples)
        assert abs(sizes.mean() - exact) <= 5 * se + 1e-12

    def test_sampler_agrees_with_step(self):
        # the batched sampler and the sequential engine draw from the same law
        g = cycle_graph(5)
        informed = mask_of(5, [0, 2])
        stepped = []
        for seed in range(20_000):
            out = step(ProtocolKind.PUSH_PULL, g, ProcessState(0, informed.copy()), 0.5, rng_for(3, seed))
            stepped.append(out.informed_count - 2)
        stepped = np.array(stepped)
        exact = exact_delta_expectation(ProtocolKind.PUSH_PULL, g, informed, 0.5)
        se = stepped.std(ddof=1) / math.sqrt(len(stepped))
        assert abs(stepped.mean() - exact) <= 5 * se


class TestSampledRounds:
    """``sample_delta_sizes`` pinned draw for draw across commits, and its
    receiver mask's memory bound."""

    GRAPHS = {
        "K4": complete_graph(4),
        "C6": cycle_graph(6),
        "M6": matching_graph([(0, 3), (1, 4), (2, 5)]),
        "regular64": generate_random_regular(64, 4, seed=0),
        "complete1024": complete_graph(1024),
    }
    DIGEST = "4588da51703349e4971190ce5508a685b4b42ca52a9f03b8656bc66d6fc363bd"

    def test_outputs_and_stream_position_match_their_digest(self):
        # each call's sizes, then the next float of its stream, so a change
        # that draws more or fewer values than before fails too
        rows = []
        for idx, (name, g) in enumerate(self.GRAPHS.items()):
            informed = mask_of(g.n, [0, g.n // 2, g.n - 1])
            for kind in KINDS:
                for n_samples in (1, 7, 10_000):
                    rng = rng_for(41, idx, n_samples)
                    sizes = sample_delta_sizes(kind, g, informed, 0.5, rng, n_samples)
                    rows.append([name, kind.value, sizes.tolist(), rng.random()])
        text = json.dumps(rows)
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGEST

    def test_push_on_a_large_complete_graph_stays_small(self):
        g = complete_graph(65_536)
        informed = mask_of(g.n, range(5))
        tracemalloc.start()
        try:
            sizes = sample_delta_sizes(ProtocolKind.PUSH, g, informed, 0.5, rng_for(47), 10_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(sizes) == 10_000 and 0 <= sizes.min() and sizes.max() <= 5
        assert peak < 8 << 20


class TestOneRoundLaw:
    def test_sampler_matches_exact_size_law_on_tiny_corpus(self):
        # Fixed before looking at results: N draws per instance from stream
        # (2024, idx); each |Delta| bin within 6 standard errors plus 1/N.
        n_draws = 4000
        failures = []
        for idx, (name, g, informed, q, kind) in enumerate(iter_tiny_instances()):
            law = np.zeros(g.n + 1)
            for members, p in enumerate_joint_distribution(kind, g, informed, q).support.items():
                law[len(members)] += p
            sizes = sample_delta_sizes(kind, g, informed, q, rng_for(2024, idx), n_draws)
            freq = np.bincount(sizes, minlength=g.n + 1) / n_draws
            se = np.sqrt(law * (1.0 - law) / n_draws)
            if np.any(np.abs(freq - law) > 6 * se + 1.0 / n_draws):
                failures.append((name, kind.value, q, informed.tolist()))
        assert idx + 1 == 2160
        assert failures == []

    def test_step_and_sampler_share_one_engine(self):
        cases = [(g, informed, q, kind) for _, g, informed, q, kind in iter_tiny_instances()]
        rng = rng_for(13)
        for g in (complete_graph(64), generate_random_regular(64, 10, seed=5), complete_graph(1024)):
            for _ in range(20):
                informed = rng.random(g.n) < rng.random()
                informed[rng.integers(g.n)] = True
                cases += [(g, informed, q, kind) for q in (0.25, 0.5, 1.0) for kind in KINDS]
        for idx, (g, informed, q, kind) in enumerate(cases):
            stepped = step(kind, g, ProcessState(0, informed), q, rng_for(31, idx))
            sampled = sample_delta_sizes(kind, g, informed, q, rng_for(31, idx), 1)
            assert sampled.dtype == np.int64 and sampled.shape == (1,)
            assert stepped.informed_count - int(informed.sum()) == sampled[0]


class TestCompleteSizeLaw:
    """The exact one-round law of |Delta| on K_n, which gates the count chain."""

    def test_equals_enumeration_on_tiny_complete_graphs(self):
        checks = verify_suite("complete_law").checks
        assert checks["size_law_vs_enumeration"]["ok"] and checks["size_law_mass"]["ok"]
        assert checks["size_law_vs_enumeration"]["instances"] == 468

    @pytest.mark.parametrize(
        "n,counts",
        [(64, range(1, 64)), (1024, [1, 2, 3, 10, 100, 511, 512, 513, 1000, 1023])],
        ids=["K64", "K1024"],
    )
    def test_mean_equals_exact_expectation(self, n, counts):
        g = complete_graph(n)
        for i in counts:
            informed = mask_of(n, range(i))
            for kind in KINDS:
                for q in (0.05, 0.5, 1.0):
                    law = complete_size_law(kind, n, i, q)
                    exact = exact_delta_expectation(kind, g, informed, q)
                    assert law @ np.arange(len(law)) == pytest.approx(exact, rel=1e-12, abs=0)
                    assert abs(law.sum() - 1.0) <= 1e-12
                    assert complete_delta_expectation(kind, n, i, q) == pytest.approx(exact, rel=1e-12, abs=0)

    def test_forward_pass_of_one_round_is_the_size_law(self):
        for kind in KINDS:
            law, dropped = complete_final_law(kind, 64, [0.5], initial_informed=5)
            assert dropped == 0.0
            assert np.array_equal(law[5:], complete_size_law(kind, 64, 5, 0.5))

    def test_rejects_what_the_oracles_reject(self):
        with pytest.raises(SetRangeError):
            complete_size_law(ProtocolKind.PUSH, 8, 8, 0.5)
        with pytest.raises(RangeError):
            complete_size_law(ProtocolKind.PULL, 8, 3, float("nan"))

    @pytest.mark.parametrize(
        "counts", [9, 8, 0, 2.5, [3, 9]], ids=["above-n", "everyone", "zero", "fraction", "one-of-many"]
    )
    def test_expectation_rejects_counts_outside_1_to_n_minus_1(self, counts):
        with pytest.raises(SetRangeError):
            complete_delta_expectation(ProtocolKind.PUSH, 8, counts, 0.5)

    @pytest.mark.parametrize("n", [1, 2.5], ids=["K1", "fraction"])
    def test_expectation_rejects_n_not_an_integer_from_2(self, n):
        with pytest.raises(RangeError):
            complete_delta_expectation(ProtocolKind.PUSH, n, 1, 0.5)


class TestCompleteChain:
    """Direct calls of the K_n count chain; its laws are checked in test_harness."""

    @pytest.mark.parametrize("n", [2, 1024])
    @pytest.mark.parametrize("kind", KINDS)
    def test_no_runtime_warning_at_q1_from_one_informed(self, kind, n):
        # PUSH from i = 1 (and PULL on K_2) quiet-round hazard is -log1p(-1) = inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            counts = complete_chain(kind, n, 1, np.ones(200), rng_for(3, n))
        assert counts[0] == 1 and counts[-1] == n

    @pytest.mark.parametrize("informed", [0, 9, 2.5, -1], ids=["zero", "above-n", "fraction", "negative"])
    def test_rejects_an_informed_count_outside_1_to_n(self, informed):
        with pytest.raises(SetRangeError):
            complete_chain(ProtocolKind.PUSH, 8, informed, np.full(6, 0.5), rng_for(0, 0))

    @pytest.mark.parametrize("n", [1, 0, 8.0], ids=["K1", "K0", "float"])
    def test_rejects_n_not_an_integer_from_2(self, n):
        with pytest.raises(RangeError):
            complete_chain(ProtocolKind.PUSH, n, 1, np.full(6, 0.5), rng_for(0, 0))

    @pytest.mark.parametrize("balls", [1, 2, 33, 4000])
    def test_distinct_counts_the_targets_of_one_array_draw(self, balls):
        rng, ref = rng_for(9, balls), rng_for(9, balls)
        bins = 1000
        count = protocol._distinct(rng, balls, bins, np.empty(bins, dtype=np.int64))
        assert count == len(np.unique(ref.integers(bins, size=balls)))
        assert rng.bit_generator.state == ref.bit_generator.state


def reference_round(kind, g, informed, q, rng):
    """One round with the draw order spelled out: one neighbor per pusher in
    vertex order, then one coin per push; then one neighbor per puller, then
    one coin per pull. Receivers already informed at the round's start ignore
    a push."""
    new = informed.copy()
    if kind.does_push:
        pushers = np.flatnonzero(informed)
        targets = g.sample_neighbors(pushers, rng)
        coins = rng.random(len(pushers)) < q
        new[targets[coins & ~informed[targets]]] = True
    if kind.does_pull:
        pullers = np.flatnonzero(~informed)
        sources = g.sample_neighbors(pullers, rng)
        coins = rng.random(len(pullers)) < q
        new[pullers[informed[sources] & coins]] = True
    return new


class TestOneStream:
    """A trial steps every round on one Generator: ``step`` takes exactly its
    round's draws, in the reference order, and leaves the stream, buffered
    32-bit half included, where the next round starts."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize(
        "graph,informed,q",
        [
            (complete_graph(1024), range(5), 0.01),
            (complete_graph(64), range(3), 0.2),
            (complete_graph(65536), range(7), 0.005),
            (cycle_graph(32), range(2, 31), 0.05),
            (generate_random_regular(256, 8, seed=3), [0, 9, 40, 77], 0.1),
            (generate_random_regular(64, 10, seed=5), range(1, 64, 2), 0.02),
            (generate_random_regular(64, 7, seed=6), [3, 4, 5], 0.05),
            (matching_graph([(0, 1), (2, 3), (4, 5)]), [0, 2, 3], 0.3),
            (matching_graph([(0, 1), (2, 3), (4, 5), (6, 7)]), [1, 6], 0.1),
            (complete_graph(2), [1], 0.4),
        ],
        ids=["K1024", "K64", "K65536", "C32", "regular256", "regular64-odd-half", "regular64-d7", "matching",
             "matching8", "K2"],
    )
    def test_step_takes_its_round_from_the_trial_stream(self, kind, graph, informed, q):
        informing = 0
        for trial in (0, 7):
            state = ProcessState(0, mask_of(graph.n, informed))
            rng, ref = rng_for(5, trial), rng_for(5, trial)
            for _ in range(64):
                got = step(kind, graph, state, q, rng)
                want = reference_round(kind, graph, state.informed, q, ref)
                assert np.array_equal(got.informed, want)
                assert rng.bit_generator.state == ref.bit_generator.state
                informing += got.informed_count > state.informed_count
                state = got
        # rounds that inform somebody and quiet rounds both occur
        assert 0 < informing < 128

    @pytest.mark.parametrize("kind", KINDS)
    def test_out_of_range_credibility_raises_before_any_draw(self, kind):
        g = complete_graph(64)
        state = initial_state(64, 1)
        rng, ref = rng_for(1, 0), rng_for(1, 0)
        for q in [0.0, 1.5, -0.1, np.nan, 0.0]:
            if 0.0 <= q <= 1.0:
                assert np.array_equal(step(kind, g, state, q, rng).informed, state.informed)
                reference_round(kind, g, state.informed, q, ref)
            else:
                with pytest.raises(RangeError):
                    step(kind, g, state, q, rng)
            assert rng.bit_generator.state == ref.bit_generator.state
