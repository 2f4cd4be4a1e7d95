"""Two-set compatibility domains, circle partitions, and the rank/distance formulas.

Covers: the domain of all m-subsets weakly separated from a fixed pair,
boundary intervals, the alternating circle partition of a complementary pair
with its balancedness test, closed-form ranks and cluster distances, the
left/right domain over [0, n], the suffix-pair witness collection that lower
bounds unbalanced domains, and nested chains inside maximal chord separated
collections.  Four-region element profiles are lemma checks, in ``tests/_lemmas.py``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from math import comb

from .cliques import (
    Collection,
    _require_maximal,
    build_compat_graph,
    max_clique_size,
)
from .ground import (
    GroundSetMismatch,
    Subset,
    _arc,
    _check_ground_size,
    _check_pair,
    _pair_symmetries,
    _power_set,
    _separated_from_all,
    cyclic_interval,
    is_weakly_separated,
)


class ChainNotFound(RuntimeError):
    """No nested chain with the required decorated quadruples exists.

    Distinguished from precondition errors: if the preconditions hold, this
    outcome contradicts the theory the search is certifying.
    """


@dataclass(frozen=True)
class CirclePartition:
    """The alternating run structure of a half-size set A inside [2k].

    The circle is rotated by ``offset`` so that interval 1 starts at element 1
    (1 lands in A and 2k outside it).  Odd-indexed intervals partition the
    rotated A, even-indexed ones its complement; ``lengths`` are their sizes.
    """

    k: int
    u: int
    intervals: tuple[Subset, ...]
    lengths: tuple[int, ...]
    offset: int

    @property
    def is_balanced(self) -> bool:
        ps = self.lengths
        return all(ps[i] + ps[j] < self.k for i in range(len(ps)) for j in range(i + 1, len(ps)))


def circle_partition(a: Subset) -> CirclePartition:
    n = a.n
    if n % 2:
        raise ValueError(f"ground set size must be even, got {n}")
    k = n // 2
    if len(a) != k:
        raise ValueError(f"expected a {k}-subset of [{n}], got cardinality {len(a)}")
    offset = next(
        r for r in range(n) if 1 in a.rotate(r) and n not in a.rotate(r)
    )
    rotated = a.rotate(offset)
    intervals: list[Subset] = []
    lengths: list[int] = []
    start = 1
    inside = True
    for x in range(2, n + 2):
        now = x <= n and x in rotated
        if x <= n and now == inside:
            continue
        intervals.append(cyclic_interval(start, x - 1, n))
        lengths.append(x - start)
        start, inside = x, now
    return CirclePartition(k, len(lengths) // 2, tuple(intervals), tuple(lengths), offset)


def is_balanced(a: Subset) -> bool:
    """True iff every two run lengths of the circle partition sum below k."""
    return circle_partition(a).is_balanced


@dataclass(frozen=True)
class PairContext:
    """A same-size pair (I, J) reduced to the complementary pair on [2k].

    Elements of the symmetric difference are renumbered order-preservingly to
    1..2k; the images of I \\ J and J \\ I are complementary there.  k = 0 is
    the degenerate I = J case: no partition, trivially weakly separated.
    """

    i: Subset
    j: Subset
    m: int
    k: int
    sym_diff: tuple[int, ...]
    reduced_i: Subset | None
    reduced_j: Subset | None
    partition: CirclePartition | None
    balanced: bool

    @property
    def degenerate(self) -> bool:
        return self.k == 0


def reduce_pair(i: Subset, j: Subset) -> PairContext:
    _check_pair(i, j)
    m = len(i)
    diff = Subset(i.mask ^ j.mask, i.n)
    sym = diff.elements()
    k = len(sym) // 2
    if k == 0:
        return PairContext(i, j, m, 0, (), None, None, None, False)
    red_i = Subset.of((p + 1 for p, x in enumerate(sym) if x in i), 2 * k)
    part = circle_partition(red_i)
    return PairContext(i, j, m, k, sym, red_i, red_i.complement(), part, part.is_balanced)


def boundary_intervals(k: int, n: int) -> Collection:
    """The n cyclic intervals of length k (weakly separated from everything of size k)."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    return Collection(Subset(_arc(i, i + k - 1, n), n) for i in range(1, n + 1))


def build_domain_AIJ(i: Subset, j: Subset) -> Collection:
    """All m-subsets of [n] weakly separated from both I and J, in canonical order: one walk per set over the grid."""
    _check_pair(i, j)
    return Collection._canonical(_separated_from_all((i.mask, j.mask), i.n, len(i)), i.n)


def _grid_rank(n: int, k: int) -> int:
    """The size k(n-k)+1 of every maximal weakly separated collection of k-subsets of [n]."""
    return k * (n - k) + 1


def _chord_rank(n: int) -> int:
    """The size sum of C(n, t), t <= 3, of every maximal chord separated collection of [n]."""
    return sum(comb(n, t) for t in range(4))


def _distance_form(k: int, lengths: tuple[int, ...]) -> int:
    """The closed-form distance 1 + k^2 - 2k - sum C(p_i, 2) over the run lengths p_i."""
    return 1 + k * k - 2 * k - sum(comb(p, 2) for p in lengths)


def rank_formula(ctx: PairContext) -> int:
    """Closed-form rank of the pair domain; defined for balanced pairs only."""
    if not ctx.balanced:
        raise ValueError("rank formula requires a balanced pair")
    assert ctx.partition is not None
    m, n = ctx.m, ctx.i.n
    return _grid_rank(n, m) - _distance_form(ctx.k, ctx.partition.lengths)


@dataclass(frozen=True)
class ClusterDistance:
    """A cluster-distance value; ``exact`` is False when only an upper bound is asserted."""

    value: int
    exact: bool


def cluster_distance(i: Subset, j: Subset, method: str = "exact") -> ClusterDistance:
    """Distance from the pair to joint membership in one maximal collection.

    "exact" searches: ambient rank m(n-m)+1 minus the maximum weakly separated
    collection size inside the pair domain.  "formula" evaluates the closed
    form 1 + k^2 - 2k - sum C(p_i, 2) on the reduced pair; it is exact for
    balanced pairs and an upper bound otherwise.  Weakly separated pairs give
    0 under either method.
    """
    if method not in ("exact", "formula"):
        raise ValueError(f"unknown method {method!r}")
    _check_pair(i, j)
    if is_weakly_separated(i, j):
        return ClusterDistance(0, True)
    if method == "exact":
        m, n = len(i), i.n
        g = build_compat_graph(build_domain_AIJ(i, j), "weak")
        maps = partial(_pair_symmetries, i.mask, j.mask, n)  # listed only if a join part is searched
        return ClusterDistance(_grid_rank(n, m) - max_clique_size(g, maps), True)
    ctx = reduce_pair(i, j)
    assert ctx.partition is not None
    return ClusterDistance(_distance_form(ctx.k, ctx.partition.lengths), ctx.balanced)


# --- the left/right domain over [0, n] ---------------------------------------
#
# Subsets of [0, n] are carried on the ground set [n + 1] via x -> x + 1; all
# public output uses the 0-based labels.

def lr_domain(n: int) -> Collection:
    """All subsets of [0, n] containing exactly one of 0 and n; size 2^n."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    _check_ground_size(n + 1)
    # on the ground set [n + 1], 0 and n are the lowest and the highest bit;
    # each subset t of [0, n-1] that lacks 0 gains n instead
    return Collection.from_masks([t if t & 1 else t | 1 << n for t in _power_set(n)], n + 1)


def lr_chain(w: Collection, n: int) -> tuple[tuple[int, ...], ...]:
    """The nested chain S_0 c S_1 c ... c S_(n-1) of a maximal collection of lr_domain(n), as label tuples.

    For each m < n there must be exactly one m-subset S of [1, n-1] with both
    S + {0} and S + {n} in the collection; violations signal that the input
    was not a maximal weakly separated collection inside the domain.
    """
    if w.n != n + 1:
        raise GroundSetMismatch(f"expected a collection over [{n + 1}], got [{w.n}]")
    if not all((m ^ m >> n) & 1 for m in w.masks):
        raise ValueError("collection has members outside the left/right domain")
    # the left/right domain is pure of rank C(n,2)+n+1
    _require_maximal(w.masks, comb(n, 2) + n + 1)
    return _lr_chain_of(w.masks, n, {})


def _lr_chain_of(
    masks: tuple[int, ...], n: int, labels: dict[int, tuple[int, ...]]
) -> tuple[tuple[int, ...], ...]:
    """The chain of a maximal collection of lr_domain(n), given as its masks, unchecked.

    ``labels`` maps chain-set masks to their labels and is filled as sets are
    met, so callers that share one across collections decode each set once.
    """
    members = set(masks)
    # by size, each S with both S + {0} and S + {n} present
    levels: list[list[int]] = [[] for _ in range(n)]
    for m in masks:
        if m & 1 and (m ^ 1) | 1 << n in members:
            levels[m.bit_count() - 1].append(m ^ 1)
    chain: list[tuple[int, ...]] = []
    prev = 0
    for size, found in enumerate(levels):
        if len(found) != 1:
            raise ChainNotFound(f"level {size}: expected exactly one chain set, found {len(found)}")
        body = found[0]
        if prev & ~body:
            raise ChainNotFound(f"level {size}: chain sets are not nested")
        prev = body
        if body not in labels:
            labels[body] = tuple(x for x in range(1, n) if body >> x & 1)
        chain.append(labels[body])
    return tuple(chain)


# --- unbalanced lower-bound witness ------------------------------------------

@dataclass(frozen=True)
class UnbalancedBound:
    """Lower-bound data for the domain of a non-separated complementary pair.

    ``a`` and ``b`` are the odd and even run lengths; ``chi[i][j]`` is 1 when
    the runs of a_(i+1) and b_(j+1) are non-adjacent on the circle and long
    enough to pair up.  ``witness`` realizes ``bound`` inside the domain.
    """

    a: tuple[int, ...]
    b: tuple[int, ...]
    chi: tuple[tuple[int, ...], ...]
    bound: int
    witness: Collection


def unbalanced_witness(a: Subset) -> UnbalancedBound:
    """Construct the explicit witness collection meeting the closed-form bound.

    Three families over the canonically rotated circle: per-run suffix pairs,
    cross-run suffix pairs for every qualifying non-adjacent pair of an odd
    and an even run, whichever comes first on the circle, and the
    boundary intervals.  The result is rotated back to the input coordinates.
    Requires the set and its complement to be non-separated (at least four runs).
    """
    part = circle_partition(a)
    n, k, u = a.n, part.k, part.u
    if u < 2:
        raise ValueError(
            "set and complement are weakly separated; the witness construction needs at least four runs"
        )
    lengths = part.lengths
    starts = list(itertools.accumulate(lengths, initial=1))
    av, bv = lengths[0::2], lengths[1::2]

    # the boundary family is invariant under rotation, so the rotated frame holds it as is
    witness = set(boundary_intervals(k, n).masks)
    for idx, p in enumerate(lengths):
        s0 = starts[idx]
        for x, y in itertools.combinations(range(s0, s0 + p), 2):
            witness.add(_arc(x - k + s0 + p - y, x - 1, n) | _arc(y, s0 + p - 1, n))

    # the runs of a_(i+1) and b_(j+1) are adjacent on the circle iff j = i or j = i-1 (mod u)
    chi = tuple(
        tuple(int((j - i) % u not in (0, u - 1) and av[i] + bv[j] >= k) for j in range(u))
        for i in range(u)
    )
    cross_total = 0
    for i in range(u):
        for j in range(u):
            if not chi[i][j]:
                continue
            s0, t0 = starts[2 * i], starts[2 * j + 1]
            ai, bj = av[i], bv[j]
            cross_total += ai + bj - k + 1
            for x in range(s0, s0 + ai):
                for y in range(t0, t0 + bj):
                    piece = _arc(x, s0 + ai - 1, n) | _arc(y, t0 + bj - 1, n)
                    if piece.bit_count() == k:
                        witness.add(piece)
    bound = 2 * k + sum(comb(x, 2) for x in lengths) + cross_total
    if len(witness) != bound:
        raise RuntimeError(f"witness construction produced {len(witness)} sets, bound says {bound}")
    rotated_back = Collection(Subset(m, n).rotate(-part.offset) for m in witness)
    return UnbalancedBound(av, bv, chi, bound, rotated_back)


# --- chains inside maximal chord separated collections ------------------------

def _decorated(mask: int, n: int) -> tuple[int, int, int, int]:
    """The four decorated variants S, S+{1}, S+{n}, S+{1,n} of the set S given by mask."""
    lo, hi = 1, 1 << (n - 1)
    return mask, mask | lo, mask | hi, mask | lo | hi


def chord_chain(w: Collection, u: Subset, v: Subset) -> list[Subset]:
    """Nested chain U = S_u c ... c S_v = V with all four decorated variants present.

    Each chain member S must have S, S+{1}, S+{n}, S+{1,n} in the collection.
    The collection must be maximal chord separated over the full power set and
    already contain the eight decorated variants of U and V.  Such a collection
    holds a chain to V from each S in V whose variants it holds, so the walk
    adds the lowest bit whose variants are present and never backtracks; its
    chain is the lexicographically least.  Raises ChainNotFound when no bit
    can be added, which would contradict that guarantee.
    """
    n = w.n
    if u.n != n or v.n != n:
        raise GroundSetMismatch("chain endpoints live on a different ground set")
    interior = cyclic_interval(2, n - 1, n).mask if n >= 3 else 0
    if u.mask & ~v.mask or (u.mask | v.mask) & ~interior:
        raise ValueError("need U inside V inside [2, n-1]")
    members = set(w.masks)
    for mask in (u.mask, v.mask):
        if not members.issuperset(_decorated(mask, n)):
            raise ValueError("an endpoint is missing one of its four decorated variants")
    # the chord separated power set is pure (Galashin)
    _require_maximal(w.masks, _chord_rank(n), "chord")

    mask, chain = u.mask, [u]
    while mask != v.mask:
        free = v.mask & ~mask
        while free and not members.issuperset(_decorated(mask | free & -free, n)):
            free &= free - 1
        if not free:
            raise ChainNotFound(
                "no nested chain with all decorated variants present; "
                "this contradicts the guarantee for maximal chord separated collections"
            )
        mask |= free & -free
        chain.append(Subset(mask, n))
    return chain
