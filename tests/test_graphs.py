from __future__ import annotations

import hashlib
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gossipsim import graphs, harness
from gossipsim.errors import (
    DegreeError,
    EmptyOrFullSet,
    ParityError,
    RangeError,
    RetryExhausted,
    SizeGuardExceeded,
)
from gossipsim.graphs import (
    CyclicGraphs,
    GraphSnapshot,
    MatchingSequence,
    ResampledRegular,
    StaticGraph,
    complete_graph,
    conductance,
    cycle_graph,
    from_edge_list,
    generate_random_regular,
    is_connected,
    load_graph,
    matching_graph,
    ordered_pairs_between,
    parse_graph_spec,
    save_graph,
    spectral_lambda,
)
from gossipsim.seeds import mix_seed, rng_for

from conftest import mask_from_bits, mask_of
from reference_regular import reference_attempt, reference_random_regular


def assert_valid_regular(g):
    """Structural invariants checked independently of constructor validation."""
    degrees = np.zeros(g.n, dtype=int)
    seen = set()
    for u, v in g.edges():
        assert u != v
        assert (u, v) not in seen
        seen.add((u, v))
        degrees[u] += 1
        degrees[v] += 1
    assert np.all(degrees == g.d)
    for v in range(g.n):
        nbrs = g.neighbors(v)
        assert len(set(int(x) for x in nbrs)) == g.d
        for w in nbrs:
            assert v in set(int(x) for x in g.neighbors(int(w)))


class TestGenerator:
    def test_n2_d1_is_the_single_edge(self):
        g = generate_random_regular(2, 1, seed=0)
        assert list(g.edges()) == [(0, 1)]

    def test_n4_d3_is_complete(self):
        g = generate_random_regular(4, 3, seed=123)
        assert sorted(g.edges()) == sorted(itertools.combinations(range(4), 2))

    def test_structural_invariants_on_midsize_graph(self):
        g = generate_random_regular(100, 3, seed=7)
        assert_valid_regular(g)

    def test_deterministic_given_seed(self):
        a = generate_random_regular(60, 4, seed=42)
        b = generate_random_regular(60, 4, seed=42)
        assert np.array_equal(a.adj, b.adj)
        c = generate_random_regular(60, 4, seed=43)
        assert not np.array_equal(a.adj, c.adj)

    def test_parity_and_degree_errors(self):
        with pytest.raises(ParityError):
            generate_random_regular(5, 3, seed=0)
        with pytest.raises(DegreeError):
            generate_random_regular(4, 4, seed=0)
        with pytest.raises(DegreeError):
            generate_random_regular(4, 0, seed=0)

    def test_dense_degrees_still_generate(self):
        # Stub re-pairing must cope with degrees where a fresh pairing is
        # almost never simple on the first try.
        g = generate_random_regular(128, 16, seed=5)
        assert_valid_regular(g)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(4, 24), st.integers(1, 5), st.integers(0, 10_000))
    def test_generated_graphs_are_valid(self, n, d, seed):
        if d >= n:
            d = n - 1
        if (n * d) % 2:
            n += 1
        g = generate_random_regular(n, d, seed=seed)
        assert_valid_regular(g)


def _adj_digest(snapshots) -> str:
    h = hashlib.sha256()
    for g in snapshots:
        h.update(g.adj.tobytes())
    return h.hexdigest()


def _regular(n, d, seeds):
    return lambda: [generate_random_regular(n, d, seed=s) for s in seeds]


def _rounds(spec, rounds):
    return lambda: [spec.snapshot(t) for t in range(rounds)]


def _bound_sandwich_graphs():
    """The 1,000 graphs ``harness._verify_bound_sandwich`` builds, in order."""
    built = []

    def recording(*args, **kwargs):
        built.append(generate_random_regular(*args, **kwargs))
        return built[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "generate_random_regular", recording)
        harness._verify_bound_sandwich()
    assert len(built) == 1000
    return built


# sha256 of adj.tobytes(), concatenated over a list of graphs, recorded from
# the pure-Python pairing generator. Any change here changes every recorded
# trajectory on a random regular or matching graph.
GOLDEN_ADJ = [
    pytest.param(
        _regular(2, 1, [0]),
        "4cbbd8ca5215b8d161aec181a74b694f4e24b001d5b081dc0030ed797a8973e0",
        id="regular-2,1,0",
    ),
    pytest.param(
        _regular(4, 3, [123]),
        "fe1d4ffd17dd971fea790839de1fa9b39938f8474ce1637fb29344f94464d34e",
        id="regular-4,3,123",
    ),
    pytest.param(
        _regular(100, 3, [7]),
        "1d56e348a3e7b2e1b107d3ff772d00f7ed571c9da0f98a2c13e4fbb21bb4bf90",
        id="regular-100,3,7",
    ),
    pytest.param(
        _regular(128, 16, [5]),
        "d1417fc9f5b8c8545100e1ecdc139efb6f1efe54add4ff36e7ffb14a89abbc13",
        id="regular-128,16,5",
    ),
    pytest.param(
        _regular(6, 2, range(20)),
        "a64058494a4d409e98e0eb3629a1526970870d3a183d18cd3903a5d0792efda2",
        id="regular-6,2-seeds-0-19",
    ),
    pytest.param(
        _regular(10, 9, range(20)),
        "9b7a677baa7e938d614b4644a875db5b6e73ad0a99d5b9b30b6eb031f432caeb",
        id="regular-10,9-seeds-0-19",
    ),
    pytest.param(
        _rounds(ResampledRegular(512, 8, 3), 200),
        "75a4eea6a3d8da6262ad8f3d99d4c349e813dca4b604b9130d50b862b9d03c3d",
        id="dynamic-regular-512,8,3",
    ),
    pytest.param(
        _regular(256, 16, [mix_seed(4, 256)]),
        "decf0810c7bdcf6b561af6e7206a3b6f62176dabaeafd26c0f20abd0920e6c4b",
        id="regular-256,16-verify-seed",
    ),
    pytest.param(
        _regular(512, 16, [mix_seed(4, 512)]),
        "dce1f9f4a8da0e2ba2f6727d2ed78970af256945e41a26c39aee52ddc64b0e6d",
        id="regular-512,16-verify-seed",
    ),
    pytest.param(
        _regular(4096, 32, [11]),
        "eedea6bd38acad1fe1ea34db913df5469e04534d06769203f568ec2c82212929",
        id="regular-4096,32,11",
    ),
    pytest.param(
        _bound_sandwich_graphs,
        "52abdc0e85a1e84772d1f01893a922646bad2351c853849bed4a796c7ebf2a42",
        id="regular-bound-sandwich",
    ),
    pytest.param(
        _rounds(MatchingSequence(64, 5), 50),
        "997a45b8c9d8b0556b702202f76a0c04a9b0ecc0c657020caed2a178bcdee3b3",
        id="matching-64,5",
    ),
]


def _complement_adjacency(adj: np.ndarray) -> np.ndarray:
    """Sorted adjacency of the complement of the graph with rows ``adj``."""
    n = len(adj)
    return np.array(
        [[w for w in range(n) if w != v and w not in set(row.tolist())] for v, row in enumerate(adj)],
        dtype=np.int64,
    )


class TestGeneratorIdentity:
    """The generator and matching builder reproduce the recorded graphs."""

    @pytest.mark.parametrize("build, digest", GOLDEN_ADJ)
    def test_golden_adjacency(self, build, digest):
        assert _adj_digest(build()) == digest

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 128), st.integers(1, 16), st.integers(0, 2**63 - 1))
    def test_matches_pure_python_pairing(self, n, d, seed):
        d = min(d, n - 1)
        if (n * d) % 2:
            n += 1
        if 2 * d > n - 1:
            expected = _complement_adjacency(reference_random_regular(n, n - 1 - d, seed))
        else:
            expected = reference_random_regular(n, d, seed)
        assert np.array_equal(generate_random_regular(n, d, seed=seed).adj, expected)

    @pytest.mark.parametrize("n, d, seed", [(4, 2, 0), (40, 36, 1), (64, 60, 1), (31, 16, 8)])
    def test_near_complete_degrees_pair_the_complement(self, n, d, seed):
        expected = _complement_adjacency(reference_random_regular(n, n - 1 - d, seed))
        g = generate_random_regular(n, d, seed=seed)
        assert np.array_equal(g.adj, expected)
        assert_valid_regular(g)
        assert is_connected(g)

    @staticmethod
    def _failed_attempts(n, d, seed):
        """Run the generator's and the reference's attempts side by side.

        After every attempt both hold the same edges (or both failed) and
        both streams stand at the same position. Returns the failures.
        """
        d = n - 1 - d if 2 * d > n - 1 else d
        rng, twin = rng_for(seed), rng_for(seed)
        failed = 0
        while True:
            keys = graphs._pair_stubs(n, d, rng)
            edges = reference_attempt(n, d, twin)
            assert rng.bit_generator.state == twin.bit_generator.state
            if edges is None:
                assert keys is None
                failed += 1
                continue
            assert sorted(divmod(k, n) for k in keys.tolist()) == sorted(edges)
            return failed

    # Failure counts are the reference's; (64, 60), (40, 36) and (10, 9)
    # pair the complement degree 3, 3 and 0. The d = 16 cases are sandwich
    # sizes whose attempts run many re-pairing passes before most rejections.
    @pytest.mark.parametrize(
        "n, d, seed, failed",
        [
            (8, 3, 2, 1),
            (8, 3, 14, 4),
            (6, 2, 1, 4),
            (12, 5, 15, 7),
            (31, 14, 24, 18),
            (128, 16, 22, 8),
            (64, 60, 0, 4),
            (40, 36, 10, 6),
            (10, 9, 0, 0),
            (512, 8, 3, 0),
            (40, 16, 7, 11),
            (48, 16, 3, 9),
            (56, 16, 9, 9),
        ],
    )
    def test_attempts_draw_as_the_reference(self, n, d, seed, failed):
        assert self._failed_attempts(n, d, seed) == failed

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 64), st.integers(1, 16), st.integers(0, 2**63 - 1))
    def test_attempts_draw_as_the_reference_on_random_sizes(self, n, d, seed):
        d = min(d, n - 1)
        if (n * d) % 2:
            n += 1
        self._failed_attempts(n, d, seed)

    def test_single_attempt_rejection_raises(self, monkeypatch):
        # Seed 2 on (8, 3): the first pairing leaves only adjacent stubs.
        with pytest.raises(RetryExhausted):
            reference_random_regular(8, 3, 2, max_retries=1)
        monkeypatch.setattr(graphs, "MAX_ATTEMPTS", 1)
        with pytest.raises(RetryExhausted, match="in 1 attempts"):
            generate_random_regular(8, 3, seed=2)
        expected = reference_random_regular(8, 3, 2, max_retries=2)
        monkeypatch.setattr(graphs, "MAX_ATTEMPTS", 2)
        assert np.array_equal(generate_random_regular(8, 3, seed=2).adj, expected)

    def test_resampled_snapshot_calls_module_generator(self, monkeypatch):
        # The benchmark tracer counts builds by patching this module global.
        calls = []
        original = graphs.generate_random_regular

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(graphs, "generate_random_regular", counting)
        spec = ResampledRegular(n=32, d=4, seed=9)
        for t in range(5):
            spec.snapshot(t)
        assert len(calls) == 5


class TestConductance:
    def test_k2_singleton(self):
        assert conductance(complete_graph(2), [0]) == 1.0

    def test_c4_adjacent_pair(self):
        assert conductance(cycle_graph(4), [0, 1]) == pytest.approx(0.5)

    def test_k4_singleton(self):
        assert conductance(complete_graph(4), [0]) == 1.0

    def test_empty_and_full_rejected(self):
        g = complete_graph(4)
        with pytest.raises(EmptyOrFullSet):
            conductance(g, [])
        with pytest.raises(EmptyOrFullSet):
            conductance(g, range(4))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**12 - 2), st.integers(0, 500))
    def test_symmetric_and_unit_range(self, bits, seed):
        g = generate_random_regular(12, 3, seed=seed % 5)
        bits = bits or 1
        s = mask_from_bits(12, bits)
        phi = conductance(g, s)
        assert 0.0 <= phi <= 1.0
        assert phi == pytest.approx(conductance(g, ~s))

    def test_pair_counts_match_brute_force(self):
        rng = np.random.default_rng(5)
        for seed in range(5):
            g = generate_random_regular(10, 3, seed=seed)
            edge_list = list(g.edges())
            for _ in range(20):
                a = mask_from_bits(10, int(rng.integers(1, 2**10 - 1)))
                b = mask_from_bits(10, int(rng.integers(1, 2**10 - 1)))
                expected_ordered = sum(
                    int(a[u] and b[v]) + int(a[v] and b[u]) for u, v in edge_list
                )
                assert ordered_pairs_between(g, a, b) == expected_ordered


def _dense_lambda(g) -> float:
    """Reference lambda from a dense symmetric solve of A/d."""
    a = np.zeros((g.n, g.n))
    for v in range(g.n):
        a[v, g.neighbors(v)] = 1.0
    eigenvalues = np.linalg.eigvalsh(a / g.d)
    assert eigenvalues[-1] == pytest.approx(1.0, abs=1e-9)
    return float(max(-eigenvalues[0], eigenvalues[-2]))


def _two_k4():
    k4 = list(itertools.combinations(range(4), 2))
    return from_edge_list(8, k4 + [(u + 4, v + 4) for u, v in k4])


SPECTRAL_CASES = (
    [pytest.param(lambda n=n: complete_graph(n), id=f"K{n}") for n in range(2, 65)]
    + [pytest.param(lambda n=n: cycle_graph(n), id=f"C{n}") for n in range(3, 41)]
    + [
        pytest.param(lambda: matching_graph([(0, 1), (2, 3)]), id="M4"),
        pytest.param(lambda: matching_graph([(0, 1), (2, 3), (4, 5)]), id="M6"),
        pytest.param(_two_k4, id="2K4"),
    ]
    + [
        pytest.param(lambda n=n, d=d, s=s: generate_random_regular(n, d, seed=s), id=f"regular-{n},{d},{s}")
        for n, d, s in [
            (8, 3, 2), (12, 4, 4), (16, 12, 1), (30, 4, 2), (40, 36, 1), (64, 60, 1),
            (100, 3, 7), (128, 16, 5), (256, 16, mix_seed(4, 256)), (512, 16, mix_seed(4, 512)),
            (1024, 8, 9), (2048, 32, 3),
        ]
    ]
)


class TestSpectral:
    @pytest.mark.parametrize("build", SPECTRAL_CASES)
    def test_matches_dense_reference(self, build):
        g = build()
        lam = spectral_lambda(g).lam
        assert type(lam) is float
        assert lam == pytest.approx(_dense_lambda(g), abs=1e-12)

    @pytest.mark.parametrize("n", [3, 8, 17, 33, 64])
    def test_complete_graph_lambda(self, n):
        assert spectral_lambda(complete_graph(n)).lam == pytest.approx(1 / (n - 1), abs=1e-9)

    def test_matching_lambda_is_one(self):
        assert spectral_lambda(matching_graph([(0, 1), (2, 3)])).lam == pytest.approx(1.0, abs=1e-9)

    def test_c4_lambda_is_one(self):
        assert spectral_lambda(cycle_graph(4)).lam == pytest.approx(1.0, abs=1e-9)

    def test_criterion_5b_graph(self):
        # The value the dense solver gave for this graph.
        g = generate_random_regular(4096, 32, seed=11)
        assert spectral_lambda(g).lam == pytest.approx(0.3468326749286823, abs=1e-10)

    def test_repeat_calls_are_bit_identical(self):
        g = generate_random_regular(512, 16, seed=mix_seed(4, 512))
        first, second = spectral_lambda(g).lam, spectral_lambda(g).lam
        assert np.float64(first).tobytes() == np.float64(second).tobytes()

    def test_complement_rows_built_in_uneven_blocks(self, monkeypatch):
        # 7 rows per block: ten blocks, the last one short
        monkeypatch.setattr(graphs, "COMPLEMENT_BLOCK", 7 * 64)
        g = generate_random_regular(64, 60, seed=1)
        assert np.array_equal(g.adj, _complement_adjacency(reference_random_regular(64, 3, 1)))
        assert spectral_lambda(g).lam == pytest.approx(_dense_lambda(g), abs=1e-12)

    def test_size_guard(self):
        with pytest.raises(SizeGuardExceeded):
            spectral_lambda(complete_graph(graphs.SPECTRAL_SIZE_GUARD + 1))

    def test_basis_budget_stops_a_slowly_mixing_graph(self, monkeypatch):
        # C_20000's gap at the -1 end is ~5e-8, so Lanczos would run on for
        # thousands of steps; the step cap stops it after 457.
        monkeypatch.setattr(graphs, "LANCZOS_STEPS", 457)
        with pytest.raises(SizeGuardExceeded, match="457 steps"):
            spectral_lambda(cycle_graph(20_000))

    @pytest.mark.parametrize("build", SPECTRAL_CASES)
    def test_checks_call_no_dense_solver(self, build, monkeypatch):
        g = build()

        def refuse(*args, **kwargs):
            raise AssertionError("a Lanczos check called a dense eigensolver")

        for name in ("eigh", "eigvalsh", "eig"):
            monkeypatch.setattr(np.linalg, name, refuse)
        assert 0.0 <= spectral_lambda(g).lam <= 1.0

    def test_refusal_at_the_default_cap_stays_small(self):
        # C_20000 runs all 3663 steps; the dense check peaked at 686 MB RSS
        # here, while the Sturm check keeps only lists of steps floats.
        tracemalloc.start()
        try:
            with pytest.raises(SizeGuardExceeded, match="3663 steps"):
                spectral_lambda(cycle_graph(20_000))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_working_memory_is_linear_in_n(self):
        # 363 steps on 16384 vertices: a stored Krylov basis alone would be
        # ~48 MB; the adjacency is 1 MB.
        g = generate_random_regular(16384, 8, seed=1)
        tracemalloc.start()
        try:
            spectral_lambda(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_generator_working_memory_is_a_few_adjacencies(self):
        # Pairing, arc sort and symmetry check work in place, so the peak is
        # ~2.8x the adjacency; a fresh array per stage reads ~8x.
        tracemalloc.start()
        try:
            g = generate_random_regular(16384, 32, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert hashlib.sha256(g.adj.tobytes()).hexdigest() == (
            "21a4ce452a614296ae572722a6e0e1c97d945bce3c016a0e3bfdd3c9992e3660"
        )
        assert peak < 4 * g.adj.nbytes


RITZ_KINDS = ("spread", "weak", "positive", "negative", "ghost")


def _tridiagonal(kind: str, k: int) -> tuple[np.ndarray, np.ndarray]:
    """A fixed-seed random unreduced symmetric tridiagonal: (diagonal, off-diagonal)."""
    rng = np.random.default_rng([k, RITZ_KINDS.index(kind)])
    if kind == "ghost":
        # one block repeated behind 1e-10 couplings, as Lanczos repeats a
        # converged Ritz value: the top two eigenvalues nearly coincide
        m = max(1, k // 3)
        block, inner = rng.uniform(-1, 1, m), rng.uniform(0.1, 1, m - 1)
        diag = np.resize(block, k)
        off = np.resize(np.append(inner, 1e-10), k - 1)
    elif kind == "weak":
        diag, off = rng.uniform(-0.3, 0.3, k), 10.0 ** rng.uniform(-12, 0, k - 1)
    elif kind in ("positive", "negative"):
        # Gershgorin discs inside (0.2, 2.8): the whole spectrum on one side of 0
        diag, off = rng.uniform(1, 2, k), rng.uniform(1e-3, 0.4, k - 1)
        diag = diag if kind == "positive" else -diag
    else:
        diag, off = rng.uniform(-1, 1, k), rng.uniform(0.01, 1, k - 1)
    return diag, off


class TestRitzCheck:
    """The Lanczos check's Sturm bisection against a dense symmetric solve.

    A last component below 1e-14 is compared absolutely: eigh's eigenvectors
    carry an absolute error of order eps / gap, so such a component has no
    relative digits to compare.
    """

    @pytest.mark.parametrize("k", [1, 2, 3, 7, 31, 100, 257, 300])
    @pytest.mark.parametrize("kind", RITZ_KINDS)
    def test_extremes_match_the_dense_solver(self, kind, k):
        diag, off = _tridiagonal(kind, k)
        values, vectors = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        gaps = (np.inf, np.inf) if k == 1 else (values[-1] - values[-2], values[1] - values[0])
        if kind == "ghost" and k > 1:
            assert gaps[0] < 1e-6
        offdiag = off.tolist()
        squares = [0.0] + [b * b for b in offdiag]
        ends = ((1, values[-1], vectors[:, -1], gaps[0]), (-1, -values[0], vectors[:, 0], gaps[1]))
        for sign, ref, vector, gap in ends:
            signed = (sign * diag).tolist()
            theta, s = graphs._top_ritz(signed, offdiag, squares, max(signed), 2.0)
            assert abs(theta - ref) <= 1e-14
            assert 0.0 <= s <= 1.0
            if gap > 1e-6:
                assert s == pytest.approx(abs(vector[-1]), rel=1e-8, abs=1e-14)

    def test_warm_bracket_gives_the_cold_result(self):
        # from the interlacing bound of a leading block, with a step far too
        # small, the outward search and bisection end on the same float
        diag, off = _tridiagonal("spread", 100)
        signed, offdiag = diag.tolist(), off.tolist()
        squares = [0.0] + [b * b for b in offdiag]
        cold = graphs._top_ritz(signed, offdiag, squares, max(signed), 2.0)
        inner, _ = graphs._top_ritz(signed[:60], offdiag[:59], squares[:60], max(signed[:60]), 2.0)
        assert graphs._top_ritz(signed, offdiag, squares, inner, 1e-20) == cold


def min_conductance(g, k):
    """phi_k: the least conductance over nonempty vertex sets of size <= k."""
    return min(
        conductance(g, combo)
        for size in range(1, k + 1)
        for combo in itertools.combinations(range(g.n), size)
    )


class TestPhiK:
    def test_k4_k2(self):
        # Singletons give 1; a pair has 4 cut edges over volume 6.
        pair_phi = conductance(complete_graph(4), [0, 1])
        assert pair_phi == pytest.approx(2 / 3)
        assert min_conductance(complete_graph(4), 2) == pytest.approx(pair_phi)

    def test_c6_k3(self):
        assert min_conductance(cycle_graph(6), 3) == pytest.approx(1 / 3)

    @pytest.mark.parametrize("g", [complete_graph(5), cycle_graph(5)])
    def test_k1_is_one(self, g):
        assert min_conductance(g, 1) == pytest.approx(1.0)

    def test_matches_exhaustive_conductance(self):
        # conductance against cut edges counted from the edge list
        g = generate_random_regular(8, 3, seed=9)
        edge_list = list(g.edges())
        for size in (1, 2, 3):
            for combo in itertools.combinations(range(8), size):
                cut = sum(1 for u, v in edge_list if (u in combo) != (v in combo))
                assert conductance(g, combo) == pytest.approx(cut / (3 * size))


def mixing_slacks(g, s, t):
    """Slack of each expander mixing inequality on masks (S, T); nonnegative means it holds.

    Weak: |e(S,T) - d|S||T|/n| <= lambda * d * sqrt(|S||T|).
    Strong: |e(S,T) - d|S||T|/n| <= lambda * (d/n) * sqrt(|S||Sc||T||Tc|).
    Corollary: (1 +- lambda) * (d/n) * |S||Sc| brackets e(S, V \\ S).
    Returns the ordered pair count e(S, T) and the weak, strong, lower and
    upper corollary slacks.
    """
    lam = spectral_lambda(g).lam
    n, d = g.n, g.d
    ns, nt = int(s.sum()), int(t.sum())
    pairs = ordered_pairs_between(g, s, t)
    deviation = abs(pairs - d * ns * nt / n)
    weak = lam * d * math.sqrt(ns * nt) - deviation
    strong = lam * (d / n) * math.sqrt(ns * (n - ns) * nt * (n - nt)) - deviation
    cut = ordered_pairs_between(g, s, ~s)
    expected_cut = (d / n) * ns * (n - ns)
    return pairs, weak, strong, cut - (1.0 - lam) * expected_cut, (1.0 + lam) * expected_cut - cut


def mixing_holds(slacks):
    return all(x >= -1e-9 for x in slacks[1:])


class TestMixingLemma:
    def test_k4_split(self):
        slacks = mixing_slacks(complete_graph(4), mask_of(4, [0]), mask_of(4, [1, 2, 3]))
        assert slacks[0] == 3
        assert mixing_holds(slacks)
        assert slacks[2] == pytest.approx(0.0, abs=1e-9)

    def test_matching_trivial_at_lambda_one(self):
        g = matching_graph([(0, 1), (2, 3)])
        assert mixing_holds(mixing_slacks(g, mask_of(4, [0, 2]), mask_of(4, [1, 3])))

    def test_c6_opposite_paths(self):
        slacks = mixing_slacks(cycle_graph(6), mask_of(6, [0, 1, 2]), mask_of(6, [3, 4, 5]))
        assert slacks[0] == 2
        assert mixing_holds(slacks)

    def test_sampled_pairs_hold(self):
        g = generate_random_regular(12, 4, seed=4)
        rng = np.random.default_rng(0)
        for disjoint in (True, False):
            for _ in range(50):
                s = mask_from_bits(12, int(rng.integers(1, 2**12 - 1)))
                t = mask_from_bits(12, int(rng.integers(1, 2**12 - 1)))
                if disjoint:
                    t &= ~s
                if not t.any():
                    continue
                assert mixing_holds(mixing_slacks(g, s, t))


class TestConductanceLowerBound:
    # phi(S) >= (1 - lambda)(1 - |S|/n) for every |S| <= n/2.

    def test_certified_on_k4_pairs(self):
        g = complete_graph(4)
        lam = spectral_lambda(g).lam
        bound = (1.0 - lam) * (1.0 - 2 / 4)
        assert bound == pytest.approx(1 / 3)
        for pair in itertools.combinations(range(4), 2):
            assert conductance(g, pair) >= bound - 1e-9

    def test_certified_on_small_graphs(self):
        for seed in range(3):
            g = generate_random_regular(12, 4, seed=seed)
            lam = spectral_lambda(g).lam
            for bits in range(1, 2**12 - 1, 97):
                s = mask_from_bits(12, bits)
                size = int(s.sum())
                if size > 6:
                    continue
                assert conductance(g, s) >= (1.0 - lam) * (1.0 - size / 12) - 1e-9


class TestDynamicSpecs:
    def test_static_and_cyclic(self):
        a, b = cycle_graph(6), complete_graph(6)
        assert StaticGraph(a).snapshot(5) is a
        cyc = CyclicGraphs((a, b))
        assert cyc.snapshot(0) is a and cyc.snapshot(1) is b and cyc.snapshot(2) is a

    def test_cyclic_rejects_mixed_sizes(self):
        with pytest.raises(RangeError):
            CyclicGraphs((cycle_graph(6), complete_graph(4)))

    def test_resampled_deterministic(self):
        spec = ResampledRegular(n=16, d=3, seed=5)
        first = spec.snapshot(7).adj.copy()
        assert np.array_equal(ResampledRegular(n=16, d=3, seed=5).snapshot(7).adj, first)
        assert not np.array_equal(spec.snapshot(8).adj, first)

    def test_matching_sequence_deterministic(self):
        spec = MatchingSequence(n=10, seed=3)
        first = spec.snapshot(2).adj.copy()
        assert np.array_equal(MatchingSequence(n=10, seed=3).snapshot(2).adj, first)
        assert spec.snapshot(2).d == 1

    def test_matching_graph_rejects_bad_pairs(self):
        assert matching_graph([(3, 0), (1, 2)]).adj.ravel().tolist() == [3, 2, 1, 0]
        for pairs in ([(0, 1), (1, 2)], [(0, 0), (1, 2)], [(0, 1), (2, 4)], [(0, -1)]):
            with pytest.raises(RangeError):
                matching_graph(pairs)

    @pytest.mark.parametrize(
        "text, error",
        [
            ("dynamic-regular:5,3", ParityError),
            ("dynamic-regular:8,8", DegreeError),
            ("dynamic-regular:8,0", DegreeError),
        ],
    )
    def test_resampled_rejects_impossible_degrees(self, text, error):
        with pytest.raises(error):
            parse_graph_spec(text)

    def test_matching_sequence_needs_even_n(self):
        with pytest.raises(ParityError):
            MatchingSequence(n=7, seed=0)

    @pytest.mark.parametrize("text", ["matching:0", "matching:-2"])
    def test_matching_sequence_needs_two_vertices(self, text):
        with pytest.raises(RangeError, match="need at least 2 vertices"):
            parse_graph_spec(text)

    def test_connectivity_probe(self):
        assert is_connected(cycle_graph(8))
        assert not is_connected(matching_graph([(0, 1), (2, 3)]))


C4_ROWS = [[1, 3], [0, 2], [1, 3], [0, 2]]


class TestSnapshotValidation:
    def test_c4_rows_are_valid(self):
        assert list(GraphSnapshot(4, 2, np.array(C4_ROWS)).edges()) == [(0, 1), (0, 3), (1, 2), (2, 3)]

    @pytest.mark.parametrize(
        "rows, error, message",
        [
            ([[1, 2, 3]] * 4, DegreeError, "shape"),
            ([[1, 4], [0, 2], [1, 3], [0, 2]], RangeError, "out of range"),
            ([[-1, 3], [0, 2], [1, 3], [0, 2]], RangeError, "out of range"),
            ([[0, 3], [0, 2], [1, 3], [0, 2]], RangeError, "self-loop"),
            ([[3, 1], [0, 2], [1, 3], [0, 2]], RangeError, "ascending"),
            ([[1, 1], [0, 2], [1, 3], [0, 2]], RangeError, "ascending"),
            ([[1, 2], [0, 2], [1, 3], [0, 2]], RangeError, "not symmetric"),
        ],
        ids=["shape", "above-n", "negative", "self-loop", "unsorted", "duplicate", "asymmetric"],
    )
    def test_bad_adjacency_raises_typed_error(self, rows, error, message):
        with pytest.raises(error, match=message):
            GraphSnapshot(4, 2, np.array(rows))

    @pytest.mark.parametrize(
        "n, d, error",
        [(5, 3, ParityError), (4, 4, DegreeError), (4, 0, DegreeError), (1, 0, RangeError)],
    )
    def test_impossible_degree_raises_typed_error(self, n, d, error):
        with pytest.raises(error):
            GraphSnapshot(n, d)

    # Generated snapshots skip the symmetry sort, since their arcs come in both
    # directions by construction; the public constructor runs it.
    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 96), st.integers(1, 95), st.integers(0, 2**63 - 1))
    @example(40, 36, 1)
    @example(10, 9, 0)
    def test_generated_adjacency_passes_the_full_check(self, n, d, seed):
        d = min(d, n - 1)
        if (n * d) % 2:
            n += 1
        g = generate_random_regular(n, d, seed=seed)
        assert np.array_equal(GraphSnapshot(n, d, g.adj.copy()).adj, g.adj)

    # Key arrays that neither the generator nor an edge list passes. Each
    # raises the error it raised when the symmetry sort also ran; no caller
    # passes a negative key, which fails in numpy's degree count.
    @pytest.mark.parametrize(
        "n, keys, error, message",
        [
            (4, [1, 1, 11, 11], RangeError, "neighbor rows must be strictly ascending (sorted, no duplicates)"),
            (4, [0, 5, 10, 15], RangeError, "self-loop in adjacency"),
            (4, [1, 3, 6, 16], DegreeError, "graph is not regular, degrees [1, 2, 3]"),
            (4, [-1, 3, 6, 11], ValueError, "'list' argument must have no negative elements"),
            (4, [1, 3, 6], DegreeError, "graph is not regular, degrees [1, 2]"),
            (4, [], DegreeError, "degree must be >= 1, got 0"),
            (2, [1, 1, 1, 1], DegreeError, "degree 4 must be < n = 2"),
        ],
        ids=["duplicate", "self-loop", "above-n-squared", "negative", "irregular", "empty", "degree-n"],
    )
    def test_bad_keys_raise_as_with_the_symmetry_sort(self, n, keys, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            graphs._snapshot_from_keys(n, np.array(keys, dtype=np.int64))


class TestIntegerSizes:
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: generate_random_regular(10.0, 3, seed=1), "vertex count must be an integer, got 10.0"),
            (lambda: generate_random_regular(10, 3.0, seed=1), "degree must be an integer, got 3.0"),
            (lambda: generate_random_regular(4, True, seed=1), "degree must be an integer, got True"),
            (lambda: generate_random_regular(math.nan, 3, seed=1), "vertex count must be an integer, got nan"),
            (lambda: ResampledRegular(10.0, 3, 0), "vertex count must be an integer, got 10.0"),
            (lambda: GraphSnapshot(n=4.0, d=3), "vertex count must be an integer, got 4.0"),
            (lambda: complete_graph(4.0), "vertex count must be an integer, got 4.0"),
            (lambda: MatchingSequence(8.0, 0), "vertex count must be an integer, got 8.0"),
            (lambda: from_edge_list(4.0, [(0, 1), (1, 2), (2, 3), (3, 0)]), "vertex count must be an integer"),
            (lambda: parse_graph_spec("regular:-8,3"), "need at least 2 vertices, got -8"),
        ],
        ids=["generator-n", "generator-d", "generator-bool-d", "generator-nan", "resampled", "snapshot",
             "complete", "matching", "edge-list", "negative-n"],
    )
    def test_non_integer_sizes_raise_range_error(self, build, message):
        with pytest.raises(RangeError, match=re.escape(message)):
            build()

    def test_numpy_integer_sizes_are_accepted(self):
        g = generate_random_regular(np.int64(10), np.int64(3), seed=1)
        assert np.array_equal(g.adj, generate_random_regular(10, 3, seed=1).adj)


class TestGraphFile:
    def test_roundtrip(self, tmp_path):
        g = generate_random_regular(20, 3, seed=1)
        path = tmp_path / "g.txt"
        save_graph(g, path)
        loaded = load_graph(path)
        assert np.array_equal(loaded.adj, g.adj)

    def test_save_graph_bytes_unchanged(self, tmp_path):
        # digest recorded before edges() was vectorised: the edge order must not change
        path = tmp_path / "g.txt"
        save_graph(generate_random_regular(4096, 32, seed=11), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "fc99615b94944ce78a7f9e770d65bf272c5b62a6d6bb619306944847746debb6"
        )

    def test_roundtrip_of_implicit_complete_graph(self, tmp_path):
        g = complete_graph(6)
        path = tmp_path / "k6.txt"
        save_graph(g, path)
        loaded = load_graph(path)
        assert loaded.d == 5
        assert sorted(loaded.edges()) == sorted(g.edges())

    def test_loader_rejects_non_regular(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 1\n0 1\n")
        with pytest.raises(DegreeError):
            load_graph(path)

    def test_loader_rejects_unordered_edge(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 1\n1 0\n")
        with pytest.raises(RangeError):
            load_graph(path)

    def test_loader_rejects_wrong_header_degree(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n0 1\n")
        with pytest.raises(DegreeError):
            load_graph(path)


    @pytest.mark.parametrize(
        "n, edges, error, message",
        [
            (4, [(0, 1), (2, 2), (1, 0)], RangeError, "self-loop (2,2)"),
            (4, [(0, 1), (3, 2), (1, 0), (2, 3)], RangeError, "duplicate edge (0, 1)"),
            (4, [(0, 1), (2, 3), (1, 4)], RangeError, "edge (1,4) out of range"),
            (4, [(0, 1), (1, 2), (2, 3)], DegreeError, "degrees [1, 2]"),
            (4, [], DegreeError, "degree must be >= 1"),
        ],
    )
    def test_edge_list_errors_name_first_offender(self, n, edges, error, message):
        with pytest.raises(error) as info:
            from_edge_list(n, edges)
        assert message in str(info.value)

    def test_irregular_edge_list_with_a_whole_degree_names_the_degrees(self):
        # 8 arcs on 4 vertices fill 4 rows of 2, but vertex 0 has 3 neighbours
        with pytest.raises(DegreeError, match=re.escape("degrees [1, 2, 3]")):
            from_edge_list(4, [(0, 1), (0, 2), (0, 3), (1, 2)])

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([(0.5, 1), (1, 2), (2, 3), (3, 0)], "edge (0.5,1) has a non-integer vertex"),
            ([(0, 1), (1, 2.25), (2, 9)], "edge (1,2.25) has a non-integer vertex"),
        ],
    )
    def test_edge_list_rejects_fractional_vertices(self, edges, message):
        # int() would truncate 0.5 to 0 and return the 4-cycle
        with pytest.raises(RangeError, match=re.escape(message)):
            from_edge_list(4, edges)


class TestGraphSpecParsing:
    def test_forms(self):
        assert parse_graph_spec("complete:16").graph.is_complete
        assert parse_graph_spec("cycle:9").graph.d == 2
        assert parse_graph_spec("regular:16,3,seed=4").graph.d == 3
        assert parse_graph_spec("dynamic-regular:16,3,seed=4") == ResampledRegular(16, 3, 4)
        assert parse_graph_spec("matching:8") == MatchingSequence(8, 0)

    def test_file_form(self, tmp_path):
        path = tmp_path / "g.txt"
        save_graph(cycle_graph(5), path)
        assert parse_graph_spec(f"file:{path}").graph.n == 5

    def test_bad_specs(self):
        for text in ("complete", "ring:5", "regular:10", "complete:x"):
            with pytest.raises(RangeError):
                parse_graph_spec(text)


def test_vertex_mask_validation():
    with pytest.raises(RangeError):
        mask = mask_of(4, [0])
        conductance(complete_graph(5), mask)
    with pytest.raises(RangeError):
        conductance(complete_graph(5), [7])
