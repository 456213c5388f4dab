"""Regular graphs: construction, dynamic sequences, conductance and spectra.

A :class:`GraphSnapshot` is one simple d-regular graph on vertices
``0..n-1``. Adjacency is stored as an ``(n, d)`` integer array with sorted
rows, which keeps every per-round protocol operation a single vectorized
gather. Complete graphs are represented implicitly (no adjacency array) so
that very large instances fit in memory; both representations answer the
same queries.

Dynamic graphs are small frozen specs that ``describe()`` themselves and
produce ``snapshot(t)`` deterministically: round t of a resampled sequence
draws from ``rng_for(mix_seed(spec_seed, t))`` (see :mod:`gossipsim.seeds`),
so a sequence is reproducible across runs and across trials.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DegreeError,
    EmptyOrFullSet,
    ParityError,
    RangeError,
    RetryExhausted,
    SizeGuardExceeded,
    _io_errors,
)
from .seeds import mix_seed, rng_for

__all__ = [
    "GraphSnapshot",
    "SpectralReport",
    "StaticGraph",
    "CyclicGraphs",
    "ResampledRegular",
    "MatchingSequence",
    "DynamicGraphSpec",
    "as_vertex_mask",
    "complete_graph",
    "cycle_graph",
    "matching_graph",
    "from_edge_list",
    "generate_random_regular",
    "conductance",
    "ordered_pairs_between",
    "spectral_lambda",
    "is_connected",
    "save_graph",
    "load_graph",
    "parse_graph_spec",
]

# spectral_lambda keeps a few length-n vectors and the tridiagonal; its one
# large allocation is a check's eigh of that tridiagonal, ~5 steps^2 floats.
# It raises SizeGuardExceeded rather than let that pass LANCZOS_FLOATS
# (512 MiB), so at most 3663 steps run. A random 32-regular graph at n = 10^5
# converges in ~700; n above 2^17 is refused up front.
SPECTRAL_SIZE_GUARD = 1 << 17
LANCZOS_FLOATS = 1 << 26
SPECTRAL_SEED = 0x5EC7
LANCZOS_CHECK = 10
LANCZOS_TOL = 1e-13
# Cells in one row block of a boolean (rows, n) scratch array: the complement
# rows here and protocol.sample_delta_sizes' receiver mask.
COMPLEMENT_BLOCK = 1 << 22


def _check_regular(n: int, d: int) -> None:
    """Raise the typed error for an (n, d) that no d-regular graph has."""
    if (n * d) % 2 != 0:
        raise ParityError(f"n*d must be even, got n={n}, d={d}")
    if d >= n:
        raise DegreeError(f"degree {d} must be < n = {n}")
    if d < 1:
        raise DegreeError(f"degree must be >= 1, got {d}")


@dataclass(eq=False)
class GraphSnapshot:
    """One simple d-regular graph at one round.

    ``adj`` is an ``(n, d)`` array whose row ``v`` lists the neighbors of
    ``v`` in ascending order, or ``None`` for the implicit complete graph
    (every other vertex is a neighbor). Construction validates regularity,
    symmetry and simplicity.
    """

    n: int
    d: int
    adj: np.ndarray | None = None

    def __post_init__(self):
        if self.n < 2:
            raise RangeError(f"need at least 2 vertices, got {self.n}")
        _check_regular(self.n, self.d)
        if self.adj is not None:
            self.adj = np.ascontiguousarray(self.adj, dtype=np.int64)
            self._validate_adjacency()

    @property
    def is_complete(self) -> bool:
        return self.adj is None

    def _validate_adjacency(self):
        adj = self.adj
        if adj.shape != (self.n, self.d):
            raise DegreeError(f"adjacency shape {adj.shape} != ({self.n}, {self.d})")
        if adj.min() < 0 or adj.max() >= self.n:
            raise RangeError("neighbor index out of range")
        ids = np.arange(self.n)
        if np.any(adj == ids[:, None]):
            raise RangeError("self-loop in adjacency")
        if self.d > 1 and not np.all(adj[:, 1:] > adj[:, :-1]):
            raise RangeError("neighbor rows must be strictly ascending (sorted, no duplicates)")
        # rows ascend, so the forward arc keys are already sorted
        rows = np.repeat(ids, self.d)
        forward = rows * self.n + adj.ravel()
        backward = np.sort(adj.ravel() * self.n + rows)
        if not np.array_equal(forward, backward):
            raise RangeError("adjacency is not symmetric")

    # -- queries ----------------------------------------------------------

    def neighbors(self, v: int) -> np.ndarray:
        if self.adj is not None:
            return self.adj[v]
        others = np.arange(self.n - 1, dtype=np.int64)
        others[v:] += 1
        return others

    def sample_neighbors(self, vertices: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One uniformly random neighbor per vertex in ``vertices``."""
        if len(vertices) == 0:
            return np.empty(0, dtype=np.int64)
        if self.adj is not None:
            return self.adj[vertices, rng.integers(self.d, size=len(vertices))]
        draw = rng.integers(self.n - 1, size=len(vertices))
        return draw + (draw >= vertices)

    def marked_degrees(self, mark: np.ndarray) -> np.ndarray:
        """Number of marked neighbors of every vertex; ``mark`` is a bool mask."""
        if self.adj is not None:
            return mark[self.adj].sum(axis=1)
        return int(mark.sum()) - mark.astype(np.int64)

    def edges(self):
        """Iterate undirected edges as (u, v) with u < v."""
        if self.adj is not None:
            # neighbour rows are ascending, so row-major order is (u, v) order
            rows = np.repeat(np.arange(self.n), self.d)
            cols = self.adj.ravel()
            keep = rows < cols
            yield from zip(rows[keep].tolist(), cols[keep].tolist())
        else:
            yield from itertools.combinations(range(self.n), 2)


@dataclass(frozen=True)
class SpectralReport:
    """Nontrivial spectral radius of the normalized adjacency matrix.

    ``lam`` is the largest magnitude among all eigenvalues except one copy
    of the trivial top eigenvalue 1.
    """

    lam: float


def as_vertex_mask(n: int, s) -> np.ndarray:
    """Normalize a vertex set (bool mask or iterable of ints) to a bool mask."""
    if isinstance(s, np.ndarray) and s.dtype == bool:
        if s.shape != (n,):
            raise RangeError(f"mask length {s.shape} != ({n},)")
        return s
    mask = np.zeros(n, dtype=bool)
    idx = np.asarray(list(s), dtype=np.int64)
    if len(idx) and (idx.min() < 0 or idx.max() >= n):
        raise RangeError("vertex id out of range")
    mask[idx] = True
    return mask


# -- constructors ----------------------------------------------------------


def _isin_sorted(sorted_keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Mask of ``values`` present in the ascending array ``sorted_keys``."""
    if not len(sorted_keys):
        return np.zeros(len(values), dtype=bool)
    at = np.searchsorted(sorted_keys, values)
    return sorted_keys[np.minimum(at, len(sorted_keys) - 1)] == values


def _kept_pairs(lo: np.ndarray, hi: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Pairs ``lo <= hi`` added in order to an edge set: the mask of those thrown
    out (self-loops, later copies) and the kept keys ``lo*n + hi``, ascending."""
    keys = lo * n + hi
    thrown = lo == hi
    ordered = np.sort(keys[~thrown])
    dup = ordered[1:] == ordered[:-1]
    repeated = ordered[1:][dup]
    if len(repeated):
        # Only keys whose low bits match a repeated key's can be later copies:
        # a bit table on those bits finds them without a lookup per key.
        low_bits = (1 << len(keys).bit_length()) - 1
        table = np.zeros(low_bits + 1, dtype=bool)
        table[repeated & low_bits] = True
        idx = np.flatnonzero(table[keys & low_bits])
        repeated, seen = set(repeated.tolist()), set()
        for i, key in zip(idx.tolist(), keys[idx].tolist()):
            if key in seen:
                thrown[i] = True
            elif key in repeated:
                seen.add(key)
    return thrown, np.concatenate([ordered[:1], ordered[1:][~dup]])


def _complement_rows(n: int, adj: np.ndarray) -> np.ndarray:
    """Row v: the vertices other than v missing from ``adj[v]``, ascending.

    Built ``COMPLEMENT_BLOCK // n`` rows at a time, so memory is the result
    plus one block, never n x n.
    """
    width = n - 1 - adj.shape[1]
    out = np.empty((n, width), dtype=np.int64)
    block = max(1, COMPLEMENT_BLOCK // n)
    for start in range(0, n, block):
        rows = np.arange(start, min(start + block, n))
        local = np.arange(len(rows))
        absent = np.ones((len(rows), n), dtype=bool)
        absent[local[:, None], adj[rows]] = False
        absent[local, rows] = False
        out[rows] = np.nonzero(absent)[1].reshape(len(rows), width)
    return out


def _snapshot_from_keys(n: int, keys: np.ndarray, complement: bool = False) -> GraphSnapshot:
    """Snapshot from distinct in-range edge keys ``u*n + v`` with ``u < v``, or of
    the complement of that graph.

    Both directions of every edge are sorted together in one pass, so each
    vertex's neighbors come out as a contiguous ascending run.
    """
    lo = keys // n
    arcs = np.sort(np.concatenate([keys, (keys - lo * n) * n + lo]))
    rows = arcs // n
    degrees = np.bincount(rows, minlength=n)
    if len(degrees) == 0 or degrees.min() != degrees.max():
        raise DegreeError(f"graph is not regular, degrees {np.unique(degrees).tolist()}")
    adj = (arcs - rows * n).reshape(n, int(degrees[0]))
    if complement:
        adj = _complement_rows(n, adj)
    return GraphSnapshot(n=n, d=adj.shape[1], adj=adj)


def from_edge_list(n: int, edges) -> GraphSnapshot:
    """Build a snapshot from undirected edges, validating d-regularity.

    Errors name the first offending edge in input order.
    """
    pairs = np.array([(int(u), int(v)) for u, v in edges], dtype=np.int64).reshape(-1, 2)
    outside = np.flatnonzero((pairs < 0).any(axis=1) | (pairs >= n).any(axis=1))
    if len(outside):
        u, v = pairs[outside[0]].tolist()
        raise RangeError(f"edge ({u},{v}) out of range for n = {n}")
    lo, hi = pairs.min(axis=1), pairs.max(axis=1)
    thrown, keys = _kept_pairs(lo, hi, n)
    bad = np.flatnonzero(thrown)
    if len(bad):
        i = bad[0]
        if lo[i] == hi[i]:
            u, v = pairs[i].tolist()
            raise RangeError(f"self-loop ({u},{v})")
        raise RangeError(f"duplicate edge {(int(lo[i]), int(hi[i]))}")
    return _snapshot_from_keys(n, keys)


def complete_graph(n: int) -> GraphSnapshot:
    """K_n, stored implicitly so that very large n stays cheap."""
    return GraphSnapshot(n=n, d=n - 1, adj=None)


def cycle_graph(n: int) -> GraphSnapshot:
    if n < 3:
        raise RangeError(f"cycle needs n >= 3, got {n}")
    ids = np.arange(n, dtype=np.int64)
    adj = np.sort(np.stack([(ids - 1) % n, (ids + 1) % n], axis=1), axis=1)
    return GraphSnapshot(n=n, d=2, adj=adj)


def matching_graph(pairs) -> GraphSnapshot:
    """Perfect matching (d = 1) from a list of disjoint vertex pairs."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    n = 2 * len(pairs)
    if n and (pairs.min() < 0 or pairs.max() >= n):
        raise RangeError(f"matching vertex out of range for n = {n}")
    adj = np.full((n, 1), -1, dtype=np.int64)
    adj[pairs[:, 0], 0] = pairs[:, 1]
    adj[pairs[:, 1], 0] = pairs[:, 0]
    return GraphSnapshot(n=n, d=1, adj=adj)


def _pair_stubs(n: int, d: int, rng: np.random.Generator) -> np.ndarray | None:
    """One stub-pairing attempt: the edge keys ``u*n + v`` (u < v), or None.

    Each pass shuffles the remaining stubs and pairs neighbours in the
    shuffled order. A pair is kept when it is no self-loop, not already an
    edge and the first pair with its key in the pass, which is what checking
    the pairs one at a time against a growing edge set keeps. The endpoints
    of the other pairs (smaller end first) go to the next pass grouped by
    vertex, in order of first appearance. The attempt fails when no two
    distinct leftover vertices can still be joined.

    The first pass runs on arrays (``_kept_pairs``), the later ones on Python ints.
    """
    stubs = np.repeat(np.arange(n, dtype=np.int64), d)
    rng.shuffle(stubs)
    lo = np.minimum(stubs[0::2], stubs[1::2])
    hi = np.maximum(stubs[0::2], stubs[1::2])
    thrown, first = _kept_pairs(lo, hi, n)
    rejected = list(zip(lo[thrown].tolist(), hi[thrown].tolist()))
    later: set[int] = set()
    while rejected:
        # Smaller end first, counted in order of first appearance.
        leftovers = Counter(itertools.chain.from_iterable(rejected))
        # A leftover vertex still holds a stub, so it has at most d - 1 edges:
        # more than d leftover vertices always include a non-adjacent pair.
        if len(leftovers) <= d:
            joins = [u * n + v for u, v in itertools.combinations(sorted(leftovers), 2)]
            joins = [key for key in joins if key not in later]
            if _isin_sorted(first, np.array(joins, dtype=np.int64)).all():
                return None
        stubs = np.array([v for v, c in leftovers.items() for _ in range(c)], dtype=np.int64)
        rng.shuffle(stubs)
        ends = iter(stubs.tolist())
        pairs = [(u, v) if u < v else (v, u) for u, v in zip(ends, ends)]
        keys = [u * n + v for u, v in pairs]
        in_first = _isin_sorted(first, np.array(keys, dtype=np.int64)).tolist()
        rejected = []
        for pair, key, old in zip(pairs, keys, in_first):
            if pair[0] == pair[1] or old or key in later:
                rejected.append(pair)
            else:
                later.add(key)
    return np.concatenate([first, np.fromiter(later, dtype=np.int64, count=len(later))])


def generate_random_regular(
    n: int, d: int, seed: int, max_retries: int = 10_000
) -> GraphSnapshot:
    """Random simple d-regular graph from the stub-pairing model.

    Stubs are paired uniformly at random; pairs that would create a
    self-loop or multi-edge are thrown back and re-paired, and the whole
    graph is rejected and redrawn when no valid pairing of the leftover
    stubs exists (Steger & Wormald 1999). For d > (n-1)/2, where almost
    every pairing is rejected, the (n-1-d)-regular graph is paired from the
    same stream and its complement returned. Deterministic given ``seed``;
    raises :class:`RetryExhausted` after ``max_retries`` whole-graph
    rejections.
    """
    _check_regular(n, d)
    rng = rng_for(seed)
    complement = 2 * d > n - 1
    for _ in range(max_retries):
        keys = _pair_stubs(n, n - 1 - d if complement else d, rng)
        if keys is not None:
            return _snapshot_from_keys(n, keys, complement)
    raise RetryExhausted(f"no simple {d}-regular graph found in {max_retries} attempts")


# -- cuts and conductance ---------------------------------------------------


def ordered_pairs_between(g: GraphSnapshot, a, b) -> int:
    """Number of ordered adjacent pairs (x, y) with x in A and y in B."""
    a = as_vertex_mask(g.n, a)
    b = as_vertex_mask(g.n, b)
    return int(g.marked_degrees(b)[a].sum())


def conductance(g: GraphSnapshot, s) -> float:
    """Cut edges of S over the smaller of vol(S) and vol(V \\ S)."""
    s = as_vertex_mask(g.n, s)
    size = int(s.sum())
    if size == 0 or size == g.n:
        raise EmptyOrFullSet(f"set size {size} of {g.n}")
    cut = ordered_pairs_between(g, s, ~s)
    return cut / (g.d * min(size, g.n - size))


# -- spectra ---------------------------------------------------------------


def spectral_lambda(g: GraphSnapshot) -> SpectralReport:
    """Spectral expansion of ``g`` by Lanczos on the deflated walk operator.

    The operator ``x -> A x / d - mean(x)`` maps the all-ones vector to 0
    and acts as A/d on its orthogonal complement, so its largest eigenvalue
    magnitude is lambda: every eigenvalue of A/d except one copy of the
    trivial 1 (disconnected and bipartite graphs give 1). No n x n matrix is
    formed; a step is one gather of each vertex's d neighbours, or of its
    n-1-d non-neighbours when that is fewer. Plain three-term Lanczos keeps
    no Krylov basis, so besides those rows memory is O(n) plus the
    tridiagonal: lost
    orthogonality only adds ghost copies of Ritz values that have already
    converged (Paige 1980). The extreme Ritz values of the tridiagonal are
    accepted once both residuals ``beta_k |s_k|`` are at most
    ``LANCZOS_TOL`` (the operator norm is at most 1), or when the Krylov
    space is exhausted. Checks come at steps 10, 20, ... and then a quarter
    further each time. Raises :class:`SizeGuardExceeded` when neither has
    happened before one more check's ``eigh`` would pass ``LANCZOS_FLOATS``.
    The start vector comes from a fixed seed stream, so lambda is the same
    float on every call.
    """
    n, d, adj = g.n, g.d, g.adj
    if n > SPECTRAL_SIZE_GUARD:
        raise SizeGuardExceeded(f"n = {n} exceeds the Lanczos size guard {SPECTRAL_SIZE_GUARD}")
    # The most steps with 5 * steps^2 <= LANCZOS_FLOATS.
    max_steps = min(n - 1, math.isqrt(LANCZOS_FLOATS // 5))

    # Summing the d gathered rows of adj.T beats summing n rows of length d.
    # Past d = (n-1)/2 the complement's rows are fewer: A x = sum(x) - x - A_c x.
    complement = 2 * d > n - 1
    if adj is None:
        cols = np.empty((0, n), dtype=np.int64)
    else:
        cols = np.ascontiguousarray((_complement_rows(n, adj) if complement else adj).T)

    def walk(x):
        total = x.sum()
        gathered = np.add.reduce(x[cols])
        if complement:
            gathered = total - x - gathered
        return gathered / d - total / n

    q = rng_for(SPECTRAL_SEED).standard_normal(n)
    q -= q.mean()
    q /= np.linalg.norm(q)
    prev, beta = q, 0.0
    alphas: list[float] = []
    betas: list[float] = []
    next_check = min(LANCZOS_CHECK, max_steps)
    while True:
        w = walk(q) - beta * prev
        alphas.append(float(q @ w))
        w -= alphas[-1] * q
        beta = math.sqrt(w @ w)
        steps = len(alphas)
        exhausted = beta <= LANCZOS_TOL or steps == n - 1
        if exhausted or steps == next_check:
            t = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
            theta, s = np.linalg.eigh(t)
            residual = beta * np.abs(s[-1, [0, -1]]).max()
            if exhausted or residual <= LANCZOS_TOL:
                return SpectralReport(lam=min(float(max(-theta[0], theta[-1])), 1.0))
            if steps == max_steps:
                raise SizeGuardExceeded(
                    f"Lanczos on n = {n} has not converged in {steps} steps, and more "
                    f"would pass its budget of {LANCZOS_FLOATS} floats"
                )
            next_check = min(steps + max(LANCZOS_CHECK, steps // 4), max_steps)
        betas.append(beta)
        prev, q = q, w / beta


def is_connected(g: GraphSnapshot) -> bool:
    if g.is_complete:
        return True
    visited = np.zeros(g.n, dtype=bool)
    reached = np.zeros(g.n, dtype=bool)
    frontier = np.array([0], dtype=np.int64)
    visited[0] = True
    while len(frontier):
        reached[g.adj[frontier]] = True
        frontier = np.flatnonzero(reached & ~visited)
        visited[frontier] = True
    return bool(visited.all())


# -- file format -------------------------------------------------------------


def save_graph(g: GraphSnapshot, path) -> None:
    """Write the graph as a header line ``n d`` plus one ``u v`` line per edge."""
    with _io_errors(), open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{g.n} {g.d}\n")
        for u, v in g.edges():
            fh.write(f"{u} {v}\n")


def load_graph(path) -> GraphSnapshot:
    """Read the ``n d`` / ``u v`` format and validate all snapshot invariants."""
    with _io_errors():
        text = Path(path).read_text(encoding="utf-8")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise RangeError(f"{path}: empty graph file")
    try:
        n, d = (int(x) for x in lines[0].split())
        edges = []
        for ln in lines[1:]:
            u, v = (int(x) for x in ln.split())
            if not u < v:
                raise RangeError(f"{path}: edge {u} {v} must satisfy u < v")
            edges.append((u, v))
    except ValueError as exc:
        raise RangeError(f"{path}: malformed line: {exc}") from exc
    g = from_edge_list(n, edges)
    if g.d != d:
        raise DegreeError(f"{path}: header degree {d} but edges give degree {g.d}")
    return g


# -- dynamic graph sequences -------------------------------------------------


@dataclass(frozen=True, eq=False)
class StaticGraph:
    """The same snapshot every round."""

    graph: GraphSnapshot

    @property
    def n(self) -> int:
        return self.graph.n

    def snapshot(self, t: int) -> GraphSnapshot:
        return self.graph

    def describe(self) -> str:
        kind = "complete" if self.graph.is_complete else "static"
        return f"{kind}(n={self.n}, d={self.graph.d})"


@dataclass(frozen=True, eq=False)
class CyclicGraphs:
    """Cycle through a fixed list of snapshots, one per round."""

    graphs: tuple[GraphSnapshot, ...]

    def __post_init__(self):
        if not self.graphs:
            raise RangeError("need at least one snapshot")
        if len({g.n for g in self.graphs}) != 1:
            raise RangeError("all snapshots must share the same vertex count")

    @property
    def n(self) -> int:
        return self.graphs[0].n

    def snapshot(self, t: int) -> GraphSnapshot:
        return self.graphs[t % len(self.graphs)]

    def describe(self) -> str:
        return f"cyclic({len(self.graphs)} graphs, n={self.n})"


@dataclass(frozen=True)
class ResampledRegular:
    """A fresh random d-regular graph each round, seeded per round."""

    n: int
    d: int
    seed: int

    def __post_init__(self):
        _check_regular(self.n, self.d)

    def snapshot(self, t: int) -> GraphSnapshot:
        return generate_random_regular(self.n, self.d, seed=mix_seed(self.seed, t))

    def describe(self) -> str:
        return f"dynamic-regular(n={self.n}, d={self.d}, seed={self.seed})"


@dataclass(frozen=True)
class MatchingSequence:
    """A fresh uniformly random perfect matching (d = 1) each round."""

    n: int
    seed: int

    def __post_init__(self):
        if self.n < 2:
            raise RangeError(f"need at least 2 vertices, got {self.n}")
        if self.n % 2 != 0:
            raise ParityError(f"matching sequence needs even n, got {self.n}")

    def snapshot(self, t: int) -> GraphSnapshot:
        perm = rng_for(mix_seed(self.seed, t)).permutation(self.n)
        return matching_graph(perm.reshape(-1, 2))

    def describe(self) -> str:
        return f"matching-sequence(n={self.n}, seed={self.seed})"


DynamicGraphSpec = StaticGraph | CyclicGraphs | ResampledRegular | MatchingSequence


def parse_graph_spec(text: str) -> DynamicGraphSpec:
    """Parse the CLI graph spec.

    Supported forms: ``complete:N``, ``cycle:N``, ``regular:N,D[,seed=S]``
    (one static random regular graph), ``dynamic-regular:N,D[,seed=S]``
    (resampled each round), ``matching:N[,seed=S]`` and ``file:PATH``.
    """
    head, sep, rest = text.strip().partition(":")
    if not sep:
        raise RangeError(f"bad graph spec {text!r}: missing ':'")
    head = head.lower()
    if head == "file":
        return StaticGraph(load_graph(rest))

    parts = [p.strip() for p in rest.split(",") if p.strip()]
    seed = 0
    plain: list[int] = []
    try:
        for p in parts:
            if p.startswith("seed="):
                seed = int(p[5:])
            else:
                plain.append(int(p))
        if head == "complete" and len(plain) == 1:
            return StaticGraph(complete_graph(plain[0]))
        if head == "cycle" and len(plain) == 1:
            return StaticGraph(cycle_graph(plain[0]))
        if head == "regular" and len(plain) == 2:
            return StaticGraph(generate_random_regular(plain[0], plain[1], seed=seed))
        if head == "dynamic-regular" and len(plain) == 2:
            return ResampledRegular(n=plain[0], d=plain[1], seed=seed)
        if head == "matching" and len(plain) == 1:
            return MatchingSequence(n=plain[0], seed=seed)
    except ValueError as exc:
        raise RangeError(f"bad graph spec {text!r}: {exc}") from exc
    raise RangeError(f"bad graph spec {text!r}")
