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
from collections.abc import Iterable
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
    _is_integer,
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

# spectral_lambda keeps a few length-n vectors, the walk's (d, n) gather and
# the tridiagonal as lists of floats; a check bisects on those lists in O(steps)
# memory. It raises SizeGuardExceeded after LANCZOS_STEPS steps without
# convergence (the cap bounds time: each check costs O(steps) per bisection).
# A random 32-regular graph at n = 10^5 converges in ~700; n above 2^17 is
# refused up front.
SPECTRAL_SIZE_GUARD = 1 << 17
LANCZOS_STEPS = 3663
SPECTRAL_SEED = 0x5EC7
LANCZOS_CHECK = 10
LANCZOS_TOL = 1e-13
# Cells in one row block of a boolean (rows, n) scratch array: the complement
# rows here and protocol.sample_delta_sizes' receiver mask.
COMPLEMENT_BLOCK = 1 << 22
# Whole-graph pairings generate_random_regular draws before it gives up.
MAX_ATTEMPTS = 10_000


def _check_vertex_count(n: int) -> None:
    """Raise :class:`RangeError` unless ``n`` is an integer of at least 2."""
    if not _is_integer(n):
        raise RangeError(f"vertex count must be an integer, got {n!r}")
    if n < 2:
        raise RangeError(f"need at least 2 vertices, got {n}")


def _check_regular(n: int, d: int) -> None:
    """Raise the typed error for an (n, d) that no d-regular graph has."""
    _check_vertex_count(n)
    if not _is_integer(d):
        raise RangeError(f"degree must be an integer, got {d!r}")
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
    simplicity (:meth:`_check_rows`) and symmetry (:meth:`_check_symmetric`).
    The generator's and the edge list's snapshots, whose arcs come in both
    directions by construction, are built by ``_snapshot_from_keys`` and run
    every check but the symmetry sort.
    """

    n: int
    d: int
    adj: np.ndarray | None = None

    def __post_init__(self):
        _check_regular(self.n, self.d)
        if self.adj is not None:
            adj = np.asarray(self.adj)
            if not _is_integer(adj):
                raise RangeError(f"adjacency entries must be integers, got dtype {adj.dtype}")
            self.adj = np.ascontiguousarray(adj, dtype=np.int64)
            self._check_rows()
            self._check_symmetric()

    @property
    def is_complete(self) -> bool:
        return self.adj is None

    def _check_rows(self):
        """Shape, neighbor range, no self-loop and strictly ascending rows."""
        adj = self.adj
        if adj.shape != (self.n, self.d):
            raise DegreeError(f"adjacency shape {adj.shape} != ({self.n}, {self.d})")
        if adj.min() < 0 or adj.max() >= self.n:
            raise RangeError("neighbor index out of range")
        if (adj == np.arange(self.n)[:, None]).any():
            raise RangeError("self-loop in adjacency")
        if self.d > 1 and not (adj[:, 1:] > adj[:, :-1]).all():
            raise RangeError("neighbor rows must be strictly ascending (sorted, no duplicates)")

    def _check_symmetric(self):
        """Every arc u -> v has its reverse v -> u; needs :meth:`_check_rows` first."""
        # Rows ascend, so the arc keys u*n + v are sorted in row-major order;
        # the graph is symmetric when the sorted reversed keys v*n + u are the
        # same keys, row u being adj[u] + u*n.
        adj, ids = self.adj, np.arange(self.n)
        backward = adj * self.n
        backward += ids[:, None]
        backward.ravel().sort()
        backward -= ids[:, None] * self.n
        if not (backward == adj).all():
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
    """The vertex set ``s`` as a bool mask: a bool array or list is a mask of
    length n, integers (:func:`errors._is_integer`) are distinct vertex ids in
    [0, n), and anything else, an int 0/1 array too, raises :class:`RangeError`."""
    if not isinstance(s, np.ndarray):
        items = list(s) if isinstance(s, Iterable) else [None]
        is_mask = len(items) > 0 and all(type(x) in (bool, np.bool_) for x in items)
        if not is_mask and not all(map(_is_integer, items)):
            raise RangeError(f"a vertex set is a bool mask or integer vertex ids, got {s!r}")
        try:
            s = np.array(items, dtype=bool if is_mask else np.int64)
        except OverflowError:
            raise RangeError("vertex id out of range") from None
    if s.dtype == bool:
        if s.shape != (n,):
            raise RangeError(f"mask length {s.shape} != ({n},)")
        return s
    if s.ndim != 1 or not _is_integer(s):
        raise RangeError(f"a vertex set is a bool mask or integer vertex ids, got a {s.ndim}-d {s.dtype} array")
    if len(s) and (s.min() < 0 or s.max() >= n):
        raise RangeError("vertex id out of range")
    mask = np.zeros(n, dtype=bool)
    mask[s] = True
    if np.count_nonzero(mask) != len(s):
        ids, uses = np.unique(s, return_counts=True)
        raise RangeError(f"vertex id {ids[uses > 1][0]} appears more than once")
    return mask


# -- constructors ----------------------------------------------------------


def _kept_pairs(keys: np.ndarray, thrown: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pairs ``lo <= hi``, keyed ``lo*n + hi``, added in order to an edge set,
    with ``thrown`` marking the self-loops: that mask with the later copies
    marked too (in place), and the kept keys, ascending."""
    ordered = keys[~thrown]
    ordered.sort()
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
    vertex's neighbors come out as a contiguous ascending run; subtracting
    row u's base u*n from that run, in place, leaves its adjacency row.

    Every key adds its arc and the reverse arc, so the rows are symmetric
    whatever the keys, and so is their complement: the snapshot runs
    :func:`_check_regular` and :meth:`GraphSnapshot._check_rows`, which catch
    uneven or out-of-range keys, duplicates and self-loops with the public
    constructor's errors, but not the symmetry sort.
    """
    m = len(keys)
    arcs = np.empty(2 * m, dtype=np.int64)
    arcs[:m] = keys
    reversed_keys = arcs[m:]
    np.remainder(keys, n, out=reversed_keys)
    reversed_keys *= n
    reversed_keys += keys // n
    arcs.sort()
    d, extra = divmod(2 * m, n)
    if not extra:
        adj = arcs.reshape(n, d)
        bases = np.arange(0, n * n, n)[:, None]
        adj -= bases
        # The sorted arcs give every vertex d neighbours exactly when each
        # row's first and last arc lie in that row.
        if d == 0 or (adj[:, 0].min() >= 0 and adj[:, -1].max() < n):
            if complement:
                adj = _complement_rows(n, adj)
            g = object.__new__(GraphSnapshot)
            g.n, g.d, g.adj = n, adj.shape[1], adj
            _check_regular(g.n, g.d)
            g._check_rows()
            return g
        adj += bases
    degrees = np.bincount(arcs // n, minlength=n)
    raise DegreeError(f"graph is not regular, degrees {np.unique(degrees).tolist()}")


def from_edge_list(n: int, edges) -> GraphSnapshot:
    """Build a snapshot from undirected edges, validating d-regularity.

    Errors name the first offending edge in input order.
    """
    _check_vertex_count(n)
    edges = list(edges)
    inexact = next((e for e in edges if not all(map(_is_integer, e))), None)
    if inexact is not None:
        raise RangeError(f"edge ({inexact[0]},{inexact[1]}) has a non-integer vertex")
    pairs = np.array([(u, v) for u, v in edges], dtype=np.int64).reshape(-1, 2)
    outside = np.flatnonzero((pairs < 0).any(axis=1) | (pairs >= n).any(axis=1))
    if len(outside):
        u, v = pairs[outside[0]].tolist()
        raise RangeError(f"edge ({u},{v}) out of range for n = {n}")
    lo, hi = pairs.min(axis=1), pairs.max(axis=1)
    thrown, keys = _kept_pairs(lo * n + hi, lo == hi)
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
    _check_vertex_count(n)
    if n < 3:
        raise RangeError(f"cycle needs n >= 3, got {n}")
    ids = np.arange(n, dtype=np.int64)
    adj = np.sort(np.stack([(ids - 1) % n, (ids + 1) % n], axis=1), axis=1)
    return GraphSnapshot(n=n, d=2, adj=adj)


def matching_graph(pairs) -> GraphSnapshot:
    """Perfect matching (d = 1) from disjoint integer vertex pairs covering 0..n-1."""
    try:
        pairs = np.asarray(pairs)
    except ValueError:  # numpy refuses ragged rows
        raise RangeError("matching pairs must be (u, v) pairs, got ragged rows") from None
    if pairs.shape[1:] != (2,):
        raise RangeError(f"matching pairs must be (u, v) pairs, got shape {pairs.shape}")
    n = 2 * len(pairs)
    _check_vertex_count(n)
    if not _is_integer(pairs):
        raise RangeError(f"matching pairs must be integer vertex ids, got dtype {pairs.dtype}")
    if pairs.min() < 0 or pairs.max() >= n:
        raise RangeError(f"matching vertex out of range for n = {n}")
    uses = np.bincount(pairs.ravel().astype(np.int64), minlength=n)
    if (uses != 1).any():
        v = int(np.argmax(uses != 1))
        raise RangeError(f"matching vertex {v} appears {uses[v]} times, not exactly once")
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

    The first pass runs on arrays (``_kept_pairs``). The later passes only
    ever pair stubs of vertices the first pass left over, so they run on
    Python ints against a set of the edges among those vertices: the
    first-pass ones, picked out in one array pass, plus each one added since.
    A list shuffles to the same permutation, from the same draws, as an
    int64 array. The output is pinned by the tests' ``GOLDEN_ADJ`` digests,
    the pure-Python reference pairing and its per-attempt stream test.
    """
    stubs = np.repeat(np.arange(n, dtype=np.int64), d)
    rng.shuffle(stubs)
    lo = np.minimum(stubs[0::2], stubs[1::2])
    hi = np.maximum(stubs[0::2], stubs[1::2])
    del stubs
    loops = lo == hi
    keys = lo  # built in place; lo is read back as keys // n
    keys *= n
    keys += hi
    thrown, first = _kept_pairs(keys, loops)
    rlo, rhi = keys[thrown] // n, hi[thrown]
    left = np.zeros(n, dtype=bool)
    left[rlo] = True
    left[rhi] = True
    # A thrown pair adds nothing: a later copy has its kept copy's key, and a
    # self-loop's key is never looked up.
    edges = set(keys[left[keys // n] & left[hi]].tolist())
    later: list[int] = []
    # Each rejected pair's ends, smaller end first, in pair order.
    rejected = [v for pair in zip(rlo.tolist(), rhi.tolist()) for v in pair]
    while rejected:
        # Counted in order of first appearance.
        leftovers = Counter(rejected)
        # A leftover vertex still holds a stub, so it has at most d - 1 edges:
        # more than d leftover vertices always include a non-adjacent pair.
        if len(leftovers) <= d and all(
            u * n + v in edges for u, v in itertools.combinations(sorted(leftovers), 2)
        ):
            return None
        stubs = list(leftovers.elements())
        rng.shuffle(stubs)
        pairs = iter(stubs)
        rejected = []
        for u, v in zip(pairs, pairs):
            if u > v:
                u, v = v, u
            key = u * n + v
            if u == v or key in edges:
                rejected += (u, v)
            else:
                edges.add(key)
                later.append(key)
    return np.concatenate([first, np.array(later, dtype=np.int64)])


def generate_random_regular(n: int, d: int, seed: int) -> GraphSnapshot:
    """Random simple d-regular graph from the stub-pairing model.

    Stubs are paired uniformly at random; pairs that would create a
    self-loop or multi-edge are thrown back and re-paired, and the whole
    graph is rejected and redrawn when no valid pairing of the leftover
    stubs exists (Steger & Wormald 1999). For d > (n-1)/2, where almost
    every pairing is rejected, the (n-1-d)-regular graph is paired from the
    same stream and its complement returned. Deterministic given ``seed``;
    raises :class:`RetryExhausted` after ``MAX_ATTEMPTS`` whole-graph
    rejections. The snapshot, or its complement, comes from
    ``_snapshot_from_keys``: symmetric by construction, it runs every
    snapshot check but the symmetry sort.
    """
    _check_regular(n, d)
    rng = rng_for(seed)
    complement = 2 * d > n - 1
    attempts = MAX_ATTEMPTS
    for _ in range(attempts):
        keys = _pair_stubs(n, n - 1 - d if complement else d, rng)
        if keys is not None:
            return _snapshot_from_keys(n, keys, complement)
    raise RetryExhausted(f"no simple {d}-regular graph found in {attempts} attempts")


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


def _above(x: float, diag: list[float], squares: list[float]) -> bool:
    """Whether ``x`` lies above every eigenvalue of a symmetric tridiagonal T.

    T has diagonal ``diag`` and squared off-diagonal ``squares[1:]``
    (``squares[0]`` is 0). This is a Sturm count of k: x is above T's
    spectrum exactly when every pivot of the LDL^T factorisation of T - xI
    is negative, so the count stops at the first pivot that is not, and it
    never divides by a zero pivot.
    """
    pivot = -1.0
    for a, b2 in zip(diag, squares):
        if pivot >= 0.0:
            return False
        pivot = a - x - b2 / pivot
    return pivot < 0.0


def _top_ritz(
    diag: list[float], offdiag: list[float], squares: list[float], inner: float, step: float
) -> tuple[float, float]:
    """Largest eigenvalue theta of a symmetric tridiagonal (see :func:`_above`)
    and |s_k|, the last component of its unit eigenvector.

    ``inner`` must not lie above theta. The outer bound steps out from it by
    ``step`` (at least 2^-52, so that a zero step still moves), four times
    further each time a Sturm count does not confirm it, and bisection closes
    the bracket to adjacent floats; theta is its lower end.
    """
    lo, step = inner, max(step, 2.0**-52)
    hi = lo + step
    while not _above(hi, diag, squares):
        lo, step = hi, 4.0 * step
        hi = lo + step
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if _above(mid, diag, squares):
            hi = mid
        else:
            lo = mid
    return lo, _last_component(diag, offdiag, squares, lo)


def _last_component(diag: list[float], offdiag: list[float], squares: list[float], theta: float) -> float:
    """|s_k|, the last component of the unit eigenvector of a symmetric
    tridiagonal T (see :func:`_above`) for its eigenvalue ``theta``.

    The eigenvector solves the twisted factorisation of T - theta I at the
    index r where |gamma_r| = 1 / |(T - theta I)^-1_rr| is least (Dhillon &
    Parlett 2004): z_r = 1, and above and below r each z_i is its
    neighbour's times a ratio of an off-diagonal to a pivot of the LDL^T
    (above) or UDU^T (below) factorisation. These products lose no digits to
    cancellation; the plain three-term recurrence from z_k = 1 loses s_k
    altogether when the vector is small at the top, as a random tridiagonal's
    localised vector is. A zero pivot is replaced by a tiny one.
    """
    down: list[float] = []  # LDL^T pivots, top to bottom
    pivot = -1.0
    for a, b2 in zip(diag, squares):
        pivot = a - theta - b2 / pivot or -1e-270
        down.append(pivot)
    up: list[float] = []  # UDU^T pivots, bottom to top
    pivot = -1.0
    for a, b2 in zip(reversed(diag), itertools.chain((0.0,), reversed(squares))):
        pivot = a - theta - b2 / pivot or -1e-270
        up.append(pivot)
    up.reverse()
    gammas = [abs(p + u - a + theta) for p, u, a in zip(down, up, diag)]
    r = gammas.index(min(gammas))
    total, z = 1.0, 1.0
    for i in range(r - 1, -1, -1):
        z *= -offdiag[i] / down[i]
        total += z * z
    z = 1.0
    for i in range(r + 1, len(diag)):
        z *= -offdiag[i - 1] / up[i]
        total += z * z
    return abs(z) / math.sqrt(total)


def spectral_lambda(g: GraphSnapshot) -> SpectralReport:
    """Spectral expansion of ``g`` by Lanczos on the deflated walk operator.

    The operator ``x -> A x / d - mean(x)`` maps the all-ones vector to 0
    and acts as A/d on its orthogonal complement, so its largest eigenvalue
    magnitude is lambda: every eigenvalue of A/d except one copy of the
    trivial 1 (disconnected and bipartite graphs give 1). No n x n matrix is
    formed; a step is one gather of each vertex's d neighbours, or of its
    n-1-d non-neighbours when that is fewer. Plain three-term Lanczos keeps
    no Krylov basis, so besides those rows memory is O(n) plus the
    tridiagonal: lost orthogonality only adds ghost copies of Ritz values
    that have already converged (Paige 1980). The extreme Ritz values of the
    tridiagonal are accepted once both residuals ``beta_k |s_k|`` are at
    most ``LANCZOS_TOL`` (the operator norm is at most 1), or when the
    Krylov space is exhausted. Checks come at steps 10, 20, ... and then a
    quarter further each time; each finds the two extreme Ritz values by
    Sturm bisection (Barth, Martin & Wilkinson 1967) in O(steps) time per
    count and memory, with no LAPACK call. Raises :class:`SizeGuardExceeded`
    when neither has happened in ``LANCZOS_STEPS`` steps. The start vector
    comes from a fixed seed stream, so lambda is the same float on every
    call.
    """
    n, d, adj = g.n, g.d, g.adj
    if n > SPECTRAL_SIZE_GUARD:
        raise SizeGuardExceeded(f"n = {n} exceeds the Lanczos size guard {SPECTRAL_SIZE_GUARD}")
    max_steps = min(n - 1, LANCZOS_STEPS)

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
    # T's diagonal, off-diagonal and the off-diagonal's squares after a 0.
    # T's bottom is minus the top of -T, which has the same squares and |s_k|.
    alphas: list[float] = []
    negated: list[float] = []
    betas: list[float] = []
    squares = [0.0]
    # Each end's bracket start (inner bound, step): at first the largest
    # diagonal entry, which no Ritz value lies below, and the operator's
    # spectral diameter 2; then the last check's Ritz value, an inner bound by
    # interlacing, and its squared residual r^2, since a Ritz value moves by
    # about r^2 / gap (Kato-Temple) and a step too short costs one count per x4.
    top = bottom = None
    next_check = min(LANCZOS_CHECK, max_steps)
    while True:
        w = walk(q) - beta * prev
        alpha = float(q @ w)
        alphas.append(alpha)
        negated.append(-alpha)
        w -= alpha * q
        beta = math.sqrt(w @ w)
        steps = len(alphas)
        exhausted = beta <= LANCZOS_TOL or steps == n - 1
        if exhausted or steps == next_check:
            if top is None:
                top, bottom = (max(alphas), 2.0), (max(negated), 2.0)
            theta_top, s_top = _top_ritz(alphas, betas, squares, *top)
            theta_bottom, s_bottom = _top_ritz(negated, betas, squares, *bottom)
            if exhausted or beta * max(s_top, s_bottom) <= LANCZOS_TOL:
                return SpectralReport(lam=min(max(theta_top, theta_bottom), 1.0))
            if steps == max_steps:
                raise SizeGuardExceeded(f"Lanczos on n = {n} has not converged in {steps} steps, its step cap")
            top, bottom = (theta_top, (beta * s_top) ** 2), (theta_bottom, (beta * s_bottom) ** 2)
            next_check = min(steps + max(LANCZOS_CHECK, steps // 4), max_steps)
        betas.append(beta)
        squares.append(beta * beta)
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
        _check_vertex_count(self.n)
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
