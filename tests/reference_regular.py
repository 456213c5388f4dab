"""Pure-Python stub pairing: the oracle for ``generate_random_regular``.

This is the generator written one pair at a time against a Python set of
edges, with leftover stubs kept in a dict in order of first appearance. The
vectorised generator must return the same graph for every (n, d, seed), so
tests compare the two adjacency arrays bit for bit. Keep it slow and plain.
"""

from __future__ import annotations

import itertools

import numpy as np

from gossipsim.errors import RetryExhausted
from gossipsim.seeds import rng_for


def _suitable(edges: set, leftovers: dict) -> bool:
    if not leftovers:
        return True
    for u, v in itertools.combinations(list(leftovers), 2):
        if (min(u, v), max(u, v)) not in edges:
            return True
    return False


def reference_attempt(n: int, d: int, rng: np.random.Generator) -> set[tuple[int, int]] | None:
    """One pairing attempt drawn from ``rng``: its edges (u < v), or None."""
    edges: set[tuple[int, int]] = set()
    stubs = np.repeat(np.arange(n, dtype=np.int64), d)
    while len(stubs):
        leftovers: dict[int, int] = {}
        rng.shuffle(stubs)
        it = iter(stubs.tolist())
        for u, v in zip(it, it):
            if u > v:
                u, v = v, u
            if u != v and (u, v) not in edges:
                edges.add((u, v))
            else:
                leftovers[u] = leftovers.get(u, 0) + 1
                leftovers[v] = leftovers.get(v, 0) + 1
        if not _suitable(edges, leftovers):
            return None
        stubs = np.array(
            [node for node, count in leftovers.items() for _ in range(count)],
            dtype=np.int64,
        )
    return edges


def reference_random_regular(n: int, d: int, seed: int, max_retries: int = 10_000) -> np.ndarray:
    """Sorted ``(n, d)`` adjacency of the stub-pairing graph for ``seed``."""
    rng = rng_for(seed)
    for _ in range(max_retries):
        edges = reference_attempt(n, d, rng)
        if edges is not None:
            lists: list[list[int]] = [[] for _ in range(n)]
            for u, v in edges:
                lists[u].append(v)
                lists[v].append(u)
            return np.array([sorted(x) for x in lists], dtype=np.int64)
    raise RetryExhausted(f"no simple {d}-regular graph found in {max_retries} attempts")
