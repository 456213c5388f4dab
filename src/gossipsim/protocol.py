"""One-round protocol engines and exact per-round oracles.

A round of PUSH has every informed vertex send to one uniformly random
neighbor; a round of PULL has every uninformed vertex request from one
uniformly random neighbor; PUSH-PULL does both. Every transmission that
reaches an uninformed vertex is accepted independently with probability q,
so a vertex receiving k transmissions in the round is informed with
probability 1 - (1-q)**k. All vertices act on the informed set as it stood
at the start of the round (a vertex informed mid-round neither pushes nor
stops pulling until the next round).

Besides the sampler (:func:`step`), this module computes the exact one-round
law: closed-form expected |Delta| per state, and for tiny instances the full
joint distribution of the newly informed set, obtained by enumerating
neighbor choices only (acceptance coins are folded analytically, which cuts
the state space from (2d)**k to at most d**k profiles). On K_n, where only
|I| matters, it also gives the exact law of |Delta| for any n, its forward
pass through q(t), and the event-driven count chain that samples it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import RangeError, SetRangeError, SizeGuardExceeded, _check_unit, _is_integer
from .graphs import COMPLEMENT_BLOCK, GraphSnapshot, _check_vertex_count, as_vertex_mask

__all__ = [
    "ProtocolKind",
    "ProcessState",
    "DeltaDistribution",
    "ProcessPropertyReport",
    "initial_state",
    "step",
    "sample_delta_sizes",
    "exact_delta_expectation",
    "growth_factor",
    "enumerate_joint_distribution",
    "verify_process_properties",
    "complete_delta_expectation",
    "complete_size_law",
    "complete_final_law",
    "complete_chain",
]

ENUMERATION_PROFILE_GUARD = 1_000_000


class ProtocolKind(Enum):
    PUSH = "push"
    PULL = "pull"
    PUSH_PULL = "push-pull"

    @classmethod
    def parse(cls, text: str) -> "ProtocolKind":
        for kind in cls:
            if kind.value == text.strip().lower():
                return kind
        raise RangeError(f"unknown protocol {text!r}")

    @property
    def does_push(self) -> bool:
        return self in (ProtocolKind.PUSH, ProtocolKind.PUSH_PULL)

    @property
    def does_pull(self) -> bool:
        return self in (ProtocolKind.PULL, ProtocolKind.PUSH_PULL)


@dataclass(eq=False)
class ProcessState:
    """Round index plus the informed-vertex bitset; the set only ever grows."""

    t: int
    informed: np.ndarray

    @property
    def informed_count(self) -> int:
        return int(self.informed.sum())


def initial_state(n: int, informed_count: int = 1) -> ProcessState:
    _check_vertex_count(n)
    _check_initial_count(n, informed_count)
    informed = np.zeros(n, dtype=bool)
    informed[:informed_count] = True
    return ProcessState(t=0, informed=informed)


def _check_initial_count(most: int, informed_count) -> None:
    if not _is_integer(informed_count) or not 1 <= informed_count <= most:
        raise SetRangeError(f"initial informed count {informed_count!r} not an integer in [1, {most}]")


def _round_state(g: GraphSnapshot, informed) -> np.ndarray:
    """The informed set a round starts from, as a mask; it must be nonempty."""
    informed = as_vertex_mask(g.n, informed)
    if not informed.any():
        raise SetRangeError("informed set must be nonempty")
    return informed


def _round_halves(kind, g, informed, q, rng, draws: int = 1):
    """The one-round law, sampled ``draws`` times independently from one state.

    Yields the push half, then the pull half, as two ``(draws, m)`` arrays:
    the vertex each of the half's m transmissions per round would inform, and
    whether it does (it carries the rumor into U and its coin accepts it). Each
    half draws its m * draws neighbor choices before its coins, so one draw
    consumes the stream exactly as a single round does.
    """
    if kind.does_push:
        pushers = informed.nonzero()[0]
        flat = pushers if draws == 1 else np.tile(pushers, draws)
        targets = g.sample_neighbors(flat, rng).reshape(draws, len(pushers))
        yield targets, (rng.random(targets.shape) < q) & ~informed[targets]
    if kind.does_pull:
        pullers = (~informed).nonzero()[0]
        flat = pullers if draws == 1 else np.tile(pullers, draws)
        sources = g.sample_neighbors(flat, rng).reshape(draws, len(pullers))
        yield flat.reshape(sources.shape), informed[sources] & (rng.random(sources.shape) < q)


def step(
    kind: ProtocolKind,
    g: GraphSnapshot,
    state: ProcessState,
    q: float,
    rng: np.random.Generator,
) -> ProcessState:
    """Run one synchronous round and return the state at t + 1."""
    q = _check_unit("credibility", q)
    informed = _round_state(g, state.informed)
    new = informed.copy()
    for receivers, accepted in _round_halves(kind, g, informed, q, rng):
        new[receivers[accepted]] = True
    return ProcessState(t=state.t + 1, informed=new)


def sample_delta_sizes(
    kind: ProtocolKind,
    g: GraphSnapshot,
    informed,
    q: float,
    rng: np.random.Generator,
    n_samples: int,
) -> np.ndarray:
    """|Delta| for ``n_samples`` independent one-round draws from a fixed state.

    The same round law as :func:`step`, drawn ``n_samples`` times at once.
    Draw r marks its receivers on row r of a boolean vertex mask, as ``step``
    marks its one row, so a vertex informed by both halves or by several
    transmissions counts once, and |Delta| is the row's count. A draw thus
    costs O(n) plus its transmissions, as a ``step`` does. One mask of at
    most ``COMPLEMENT_BLOCK // n`` rows is cleared and reused block after
    block, so large graphs never get an ``(n_samples, n)`` array.
    """
    q = _check_unit("credibility", q)
    informed = _round_state(g, informed)
    if not _is_integer(n_samples) or n_samples < 0:
        raise RangeError(f"n_samples must be a non-negative integer, got {n_samples!r}")
    block = max(1, COMPLEMENT_BLOCK // g.n)
    hit = np.empty((min(block, n_samples), g.n), dtype=bool)
    sizes = np.empty(n_samples, dtype=np.int64)
    for start in range(0, n_samples, block):
        stop = min(start + block, n_samples)
        mask = hit[: stop - start]
        mask[:] = False
        # cell (r, v) of the contiguous block is r * n + v of its flat view
        rows = np.arange(len(mask))[:, None] * g.n
        for receivers, accepted in _round_halves(kind, g, informed, q, rng, draws=len(mask)):
            mask.reshape(-1)[(receivers + rows)[accepted]] = True
        sizes[start:stop] = np.count_nonzero(mask, axis=1)
    return sizes


def _proper_subset(g: GraphSnapshot, informed) -> tuple[np.ndarray, int]:
    """Mask and size of the informed set, which must be a nonempty proper subset."""
    informed = as_vertex_mask(g.n, informed)
    size = int(np.count_nonzero(informed))
    if not 1 <= size <= g.n - 1:
        raise SetRangeError(f"informed size {size} not in [1, {g.n - 1}]")
    return informed, size


def exact_delta_expectation(kind: ProtocolKind, g: GraphSnapshot, informed, q: float) -> float:
    """Exact E[|Delta|] for one round from the given state.

    Per uninformed vertex u with k informed neighbors: PULL informs it with
    probability q*k/d, PUSH with 1 - (1 - q/d)**k, and PUSH-PULL with
    1 - (1 - q/d)**k * (1 - q*k/d) (push and pull failures are independent).
    """
    q = _check_unit("credibility", q)
    informed, _ = _proper_subset(g, informed)
    k = g.marked_degrees(informed)[~informed].astype(np.float64)
    return float(_inform_probability(kind, q, k, float(g.d)).sum())


def _inform_probability(kind: ProtocolKind, q, k, d: float):
    """P(an uninformed vertex with k informed neighbors is informed this round)."""
    if kind is ProtocolKind.PULL:
        return q * k / d
    push_miss = np.power(1.0 - q / d, k)
    if kind is ProtocolKind.PUSH:
        return 1.0 - push_miss
    return 1.0 - push_miss * (1.0 - q * k / d)


def growth_factor(kind: ProtocolKind, g: GraphSnapshot, informed, q: float) -> float:
    """E[|Delta|] / min(|I|, |U|), the combined growth/shrink factor."""
    informed, size = _proper_subset(g, informed)
    return exact_delta_expectation(kind, g, informed, q) / min(size, g.n - size)


# -- complete graphs: the count chain and its exact law ----------------------
#
# On K_n only |I| matters. With i informed and u = n - i uninformed, a push
# lands in U with probability u/(n-1), uniformly there, and a pull succeeds
# with probability i/(n-1); every transmission is accepted with probability q.


def complete_delta_expectation(kind: ProtocolKind, n: int, informed_count, q):
    """:func:`exact_delta_expectation` on K_n, elementwise over counts and q.

    Every uninformed vertex has k = i informed neighbors, so the per-vertex
    probability is taken u times instead of summed over u. Each count must be
    an integer in [1, n - 1], as for :func:`complete_size_law`.
    """
    _check_vertex_count(n)
    i = np.asarray(informed_count)
    outside = ~((1 <= i) & (i <= n - 1) & _is_integer(i))
    if outside.any():
        raise SetRangeError(f"informed size {i[outside].flat[0]} not an integer in [1, {n - 1}]")
    return (n - i) * _inform_probability(kind, q, i, n - 1.0)


def _add_trials(law: np.ndarray, steps: np.ndarray, hit: np.ndarray) -> np.ndarray:
    """Row r of ``law`` (a count's pmf) after ``steps[r]`` more trials in turn.

    A trial raises the count from j to j + 1 with probability ``hit[r, j]``.
    Rows are sorted by steps, so the rows still stepping are a prefix. The
    last column's mass never moves: the caller sizes ``law`` so that it can't.
    """
    order = np.argsort(-steps, kind="stable")
    law, steps, hit = law[order], steps[order], hit[order]
    stay = 1.0 - hit
    top = int(np.flatnonzero(law.any(axis=0))[-1])
    for k in range(int(steps.max(initial=0))):
        rows = int(np.count_nonzero(steps > k))
        top = min(top + 1, law.shape[1] - 1)
        moved = law[:rows, :top] * hit[:rows, :top]
        law[:rows, :top] *= stay[:rows, :top]
        law[:rows, 1 : top + 1] += moved
    out = np.empty_like(law)
    out[order] = law
    return out


def _complete_size_laws(kind: ProtocolKind, n: int, counts: np.ndarray, q: float) -> np.ndarray:
    """Row r: the pmf of |Delta| on K_n from ``counts[r]`` informed, over 0..max u."""
    u = n - counts
    j = np.arange(u.max() + 1)
    law = np.zeros((len(counts), len(j)))
    law[:, 0] = 1.0
    # Pulls first: each uninformed vertex succeeds on its own. Then each
    # pusher informs a new vertex with probability q (u - j)/(n - 1), where j
    # counts the vertices of U informed so far, pulled ones included.
    if kind.does_pull:
        law = _add_trials(law, u, np.broadcast_to((q * counts / (n - 1))[:, None], law.shape))
    if kind.does_push:
        law = _add_trials(law, counts, q * np.maximum(u[:, None] - j, 0) / (n - 1))
    return law


def complete_size_law(kind: ProtocolKind, n: int, informed_count: int, q: float) -> np.ndarray:
    """Exact pmf of |Delta| for one round on K_n from ``informed_count`` informed.

    Entry k is P(|Delta| = k), k = 0..n - informed_count. PULL gives a
    Binomial(u, q i/(n-1)); PUSH the pusher-by-pusher law (with j vertices hit
    so far, a pusher informs a new one with probability q (u - j)/(n-1));
    PUSH-PULL that law run on from the pull binomial.
    """
    _check_vertex_count(n)
    q = _check_unit("credibility", q)
    _check_initial_count(n - 1, informed_count)
    return _complete_size_laws(kind, n, np.array([informed_count]), q)[0]


FORWARD_PRUNE = 1e-16


def complete_final_law(kind: ProtocolKind, n: int, q_values, initial_informed: int = 1) -> tuple[np.ndarray, float]:
    """Exact law of |I_T| on K_n after T = len(q_values) rounds, and the mass dropped.

    Round t uses credibility ``q_values[t]``. Each round pushes the law of
    |I_t| through :func:`complete_size_law` for every live count at once;
    counts whose probability falls below ``FORWARD_PRUNE`` are dropped, and
    their total is returned with the law (entry m is P(|I_T| = m)). n must be
    an integer >= 2 (:class:`RangeError`) and ``initial_informed`` an integer
    in [1, n] (:class:`SetRangeError`).
    """
    _check_vertex_count(n)
    _check_initial_count(n, initial_informed)
    law = np.zeros(n + 1)
    law[initial_informed] = 1.0
    dropped = 0.0
    for q in q_values:
        live = np.flatnonzero(law[:n])
        small = law[live] < FORWARD_PRUNE
        dropped += law[live[small]].sum()
        law[live[small]] = 0.0
        live = live[~small]
        if not len(live):
            break
        rows = _complete_size_laws(kind, n, live, _check_unit("credibility", q))
        weights = law[live, None] * rows
        law[live] = 0.0
        targets = np.minimum(live[:, None] + np.arange(rows.shape[1]), n)
        law += np.bincount(targets.ravel(), weights=weights.ravel(), minlength=n + 1)
    return law, float(dropped)


def _log_miss(p: float) -> float:
    return math.log1p(-p) if p < 1.0 else -math.inf


def _binomial_at_least_one(rng: np.random.Generator, trials: int, p: float) -> int:
    """Binomial(trials, p) conditioned on at least one success, without rejection.

    The first success's index is a geometric truncated to 1..trials, drawn by
    inversion; the trials after it are an unconditioned binomial.
    """
    log_miss = _log_miss(p)
    if log_miss == -math.inf:
        return trials
    mass = -math.expm1(trials * log_miss)
    first = min(1 + int(math.log1p(-rng.random() * mass) / log_miss), trials)
    return 1 + int(rng.binomial(trials - first, p))


def _distinct(rng: np.random.Generator, balls: int, bins: int, scratch: np.ndarray) -> int:
    """Number of distinct bins that ``balls`` uniform draws into ``bins`` hit.

    One ball hits one bin: its target is drawn as a scalar, the same draw as
    a ``size=1`` array at a third of the cost, and dropped. For more balls,
    each hit bin keeps one of the indices written to it, so the count needs
    no sort and ``scratch`` (at least ``bins`` long) no reset.
    """
    if balls == 1:
        rng.integers(bins)
        return 1
    targets = rng.integers(bins, size=balls)
    index = np.arange(balls)
    scratch[targets] = index
    return int(np.count_nonzero(scratch[targets] == index))


def _informative_delta(kind, n, i, q, rng, scratch) -> int:
    """|Delta| at a round on K_n, conditioned on the round informing someone."""
    u = n - i
    push, pull = q * (u / (n - 1)), q * (i / (n - 1))
    if kind is ProtocolKind.PULL:
        return _binomial_at_least_one(rng, u, pull)
    if kind is ProtocolKind.PUSH:
        return _distinct(rng, _binomial_at_least_one(rng, i, push), u, scratch)
    # P(some push is accepted | the round informs someone)
    push_log, pull_log = i * _log_miss(push), u * _log_miss(pull)
    if rng.random() < math.expm1(push_log) / math.expm1(push_log + pull_log):
        occupied = _distinct(rng, _binomial_at_least_one(rng, i, push), u, scratch)
        return occupied + int(rng.binomial(u - occupied, pull))
    return _binomial_at_least_one(rng, u, pull)


def _quiet_hazards(kind: ProtocolKind, n: int, i: int, q: np.ndarray) -> np.ndarray:
    """-log P(a round on K_n from i informed informs nobody), per q.

    q = 1 from i = 1 gives PUSH log1p(-1) = -inf, so the caller ignores
    division warnings.
    """
    u = n - i
    if kind is ProtocolKind.PUSH:
        return np.log1p(q * -(u / (n - 1))) * -i
    if kind is ProtocolKind.PULL:
        return np.log1p(q * -(i / (n - 1))) * -u
    return np.log1p(q * -(u / (n - 1))) * -i + np.log1p(q * -(i / (n - 1))) * -u


def complete_chain(kind: ProtocolKind, n: int, informed_count: int, q: np.ndarray, rng) -> list[int]:
    """|I_0|, |I_1|, ... of one trial on K_n until it completes or ``len(q)`` rounds pass.

    Round t has credibility ``q[t]``. Event-driven: one Exp(1) draw against
    the cumulative hazard of quiet rounds finds the next round that informs
    someone, the rounds before it repeat the count, and that round's |Delta|
    is drawn from its law conditioned on being positive. The hazards are
    summed over windows of rounds [t, min(bad, 2t + 64)), where ``bad`` is the
    first round with q outside [0, 1] (``len(q)`` if none); a window that
    passes without an event takes its total off the threshold. A trial pays
    one range test of q (a min and a max), then a few array calls per window
    and a few scalar draws per informative round. A PUSH round's |Delta| is
    the number of distinct vertices of U hit by its accepted pushes: 1 for
    one push (its target drawn as a scalar), else counted by a scatter into
    a scratch array.

    n must be an integer >= 2 (:class:`RangeError`) and ``informed_count`` an
    integer in [1, n] (:class:`SetRangeError`); a count of n returns ``[n]``.
    A q outside [0, 1] at a round the trial reaches raises
    :class:`RangeError`, as :func:`step` does.
    """
    _check_vertex_count(n)
    _check_initial_count(n, informed_count)
    bad = len(q)
    if bad and not (q.min() >= 0.0 and q.max() <= 1.0):
        bad = int(np.argmin((q >= 0.0) & (q <= 1.0)))  # the first round with q outside [0, 1]
    i, t = int(informed_count), 0
    counts = [i]
    scratch = np.empty(n, dtype=np.int64)
    threshold = rng.standard_exponential()
    with np.errstate(divide="ignore"):
        while i < n and t < len(q):
            if t == bad:
                _check_unit("credibility", float(q[t]))
            stop = min(bad, 2 * t + 64)
            cumulative = _quiet_hazards(kind, n, i, q[t:stop]).cumsum()
            event = int(cumulative.searchsorted(threshold, side="right"))
            if event < stop - t:
                counts.extend([i] * event)
                i += _informative_delta(kind, n, i, float(q[t + event]), rng, scratch)
                counts.append(i)
                t += event + 1
                threshold = rng.standard_exponential()
            else:
                counts.extend([i] * (stop - t))
                t = stop
                threshold -= cumulative[-1]
    return counts


# -- exact joint distribution (tiny instances) -------------------------------


@dataclass
class DeltaDistribution:
    """Exact law of the newly informed set for one round.

    ``support`` maps each possible Delta (frozenset of vertex ids) to its
    probability; ``marginals`` maps each uninformed vertex to its informing
    probability. Probabilities sum to 1 up to float rounding.
    """

    support: dict[frozenset, float]
    marginals: dict[int, float]

    def mean_size(self) -> float:
        return sum(p * len(s) for s, p in self.support.items())

    def total_probability(self) -> float:
        return sum(self.support.values())


def _choice_branches(kind: ProtocolKind, g: GraphSnapshot, informed: np.ndarray):
    """Per-chooser outcome branches, acceptance coins not yet applied.

    Each branch list holds (uninformed-slot or None, probability) pairs: the
    slot that receives one transmission, or None when the choice is wasted.
    Choosers that cannot cause a transmission are dropped outright. The
    uninformed vertices, slots and probabilities are Python numbers.
    """
    is_informed = informed.tolist()
    uninformed = [u for u, x in enumerate(is_informed) if not x]
    slot_of = {u: i for i, u in enumerate(uninformed)}
    d = g.d
    branches = []
    if kind.does_push:
        for v in [v for v, x in enumerate(is_informed) if x]:
            slots = [slot_of[u] for u in g.neighbors(v).tolist() if not is_informed[u]]
            if not slots:
                continue
            branch = [(s, 1.0 / d) for s in slots]
            if len(slots) < d:
                branch.append((None, (d - len(slots)) / d))
            branches.append(branch)
    if kind.does_pull:
        k = g.marked_degrees(informed).tolist()
        for slot, u in enumerate(uninformed):
            hit = k[u] / d
            if hit == 0.0:
                continue
            branch = [(slot, hit)]
            if hit < 1.0:
                branch.append((None, 1.0 - hit))
            branches.append(branch)
    return uninformed, branches


def _transmission_count_law(branches) -> tuple[int, dict[int, float]]:
    """Joint law of per-uninformed-vertex transmission counts.

    Convolves choosers one at a time; the number of *profiles* this covers is
    the product of branch sizes (at most d per chooser), which the caller
    guards. A count vector is keyed by the mixed-radix int sum of
    ``count[slot] * base**slot``: a chooser sends at most one transmission,
    so ``base = len(branches) + 1`` exceeds every count. Returns ``base`` and
    the law, in the order the profiles first appear.
    """
    base = len(branches) + 1
    law: dict[int, float] = {0: 1.0}
    for branch in branches:
        bumps = [(0 if slot is None else base**slot, bp) for slot, bp in branch]
        nxt: dict[int, float] = {}
        for key, p in law.items():
            for bump, bp in bumps:
                nxt[key + bump] = nxt.get(key + bump, 0.0) + p * bp
        law = nxt
    return base, law


def _as_is(value):
    """The identity: the type of every value of a law with no pull branch."""
    return value


def _informing_law(kind: ProtocolKind, g: GraphSnapshot, informed, q: float):
    """The exact one-round law behind both tiny-instance oracles.

    Returns the uninformed vertices (a list), the slots some profile reaches, per
    transmission-count profile (probability, [1 - (1-q)**k per reachable
    slot]), and the type the oracles return their values as. The profiles,
    then the 2**r subsets of the r reachable slots, are guarded at
    ``ENUMERATION_PROFILE_GUARD`` before any is enumerated.

    Everything is computed on Python floats. The oracles return their values
    as ``np.float64`` when a pull branch is in the law (a pulling protocol
    with a reachable slot) and as computed otherwise, converting them on the
    way out; the tests pin these types as well as the values.
    """
    q = _check_unit("credibility", q)
    informed, _ = _proper_subset(g, informed)
    uninformed, branches = _choice_branches(kind, g, informed)
    profiles = 1
    for branch in branches:
        profiles *= len(branch)
        if profiles > ENUMERATION_PROFILE_GUARD:
            raise SizeGuardExceeded(
                f"would enumerate > {ENUMERATION_PROFILE_GUARD} choice profiles"
            )
    # a branch's every slot is some profile's, so these are the slots the law reaches
    reachable = sorted({slot for branch in branches for slot, _ in branch if slot is not None})
    if 2 ** len(reachable) > ENUMERATION_PROFILE_GUARD:
        raise SizeGuardExceeded(
            f"the subsets of {len(reachable)} reachable vertices exceed the guard"
        )
    base, law = _transmission_count_law(branches)
    inform = [1.0 - (1.0 - q) ** k for k in range(base)]
    weights = [base**slot for slot in reachable]
    entries = [(p, [inform[key // w % base] for w in weights]) for key, p in law.items()]
    scalar = np.float64 if kind.does_pull and reachable else _as_is
    return uninformed, reachable, entries, scalar


def enumerate_joint_distribution(
    kind: ProtocolKind, g: GraphSnapshot, informed, q: float
) -> DeltaDistribution:
    """Exact distribution of Delta by enumerating neighbor-choice profiles.

    Given a profile, each uninformed vertex that received k transmissions is
    informed independently with probability 1 - (1-q)**k; the coins are never
    enumerated. Subset ``bits`` of the r reachable vertices (bit j: the j-th
    is informed) has probability p * f_0 * ... * f_{r-1}, multiplied left to
    right, where f_j is the j-th informing probability or its complement. A
    profile's 2**r products are built by doubling a list once per reachable
    vertex, each new half being the old list times f_j; zero products are
    skipped, and the rest added to the support in subset order, profile
    after profile. The 2**r frozensets are built once per call.
    """
    uninformed, reachable, entries, scalar = _informing_law(kind, g, informed, q)
    marginals = {u: 0.0 for u in uninformed}
    members = [uninformed[slot] for slot in reachable]
    subsets: list[list[int]] = [[]]
    for u in members:
        subsets += [s + [u] for s in subsets]
    keys = [frozenset(s) for s in subsets]
    support: dict[frozenset, float] = {}
    for p, inform_p in entries:
        for u, pu in zip(members, inform_p):
            marginals[u] += p * pu
        probs = [p]
        for pu in inform_p:
            miss = 1.0 - pu
            probs = [x * miss for x in probs] + [x * pu for x in probs]
        for key, prob in zip(keys, probs):
            if prob != 0.0:
                support[key] = support.get(key, 0.0) + prob
    for u in members:
        marginals[u] = scalar(marginals[u])
    return DeltaDistribution(
        support={key: scalar(prob) for key, prob in support.items()}, marginals=marginals
    )


@dataclass
class ProcessPropertyReport:
    """Outcome of checking negative correlation and the variance bound.

    ``worst_slack`` is the largest value of Pr[S subset of Delta] minus the
    product of the member marginals over all checked S; negative correlation
    holds when it is <= tolerance. ``var_margin`` is E|Delta| - Var|Delta|.
    """

    neg_corr_ok: bool
    var_ok: bool
    worst_slack: float
    var_margin: float
    subsets_checked: int
    mean_size: float
    exact_mean: float


def verify_process_properties(kind: ProtocolKind, g: GraphSnapshot, informed, q: float) -> ProcessPropertyReport:
    """Check Pr[S in Delta] <= prod of marginals for every S, and Var <= E.

    Subsets containing an unreachable vertex hold with equality (both sides
    are 0), so only subsets of reachable vertices are enumerated. Each
    profile's products of informing probabilities over every subset come
    from one doubling list, as in :func:`enumerate_joint_distribution`, and
    add to the subsets' joint probabilities in profile order.
    """
    _, reachable, entries, scalar = _informing_law(kind, g, informed, q)
    marginal = [0] * len(reachable)
    joint = [0] * 2 ** len(reachable)
    second = 0.0
    for p, pu in entries:
        marginal = [acc + p * x for acc, x in zip(marginal, pu)]
        m = sum(pu)
        var = sum(x * (1.0 - x) for x in pu)
        second += p * (var + m * m)
        products = [1]
        for x in pu:
            products += [y * x for y in products]
        joint = [acc + p * y for acc, y in zip(joint, products)]
    mean = sum(marginal)
    variance = second - mean * mean
    product = [1]
    for x in marginal:
        product += [y * x for y in product]
    # every subset of two or more reachable vertices: bits with two or more set
    slacks = [joint[bits] - product[bits] for bits in range(len(joint)) if bits & (bits - 1)]
    worst = scalar(max(slacks)) if slacks else 0.0
    mean, variance = scalar(mean), scalar(variance)

    return ProcessPropertyReport(
        neg_corr_ok=worst <= 1e-12,
        var_ok=variance <= mean + 1e-12,
        worst_slack=worst,
        var_margin=mean - variance,
        subsets_checked=len(slacks),
        mean_size=mean,
        exact_mean=exact_delta_expectation(kind, g, informed, q),
    )
