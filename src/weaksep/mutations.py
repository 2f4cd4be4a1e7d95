"""Square-move dynamics on maximal weakly separated collections.

The mutation graph is implicit: nodes are canonical collections, edges are
single square moves.  Exploration is breadth-first with canonical-order
frontiers, so node streams, distances, and witness paths are deterministic.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .cliques import (
    Collection,
    _first_addable,
    _first_unrelated_pair,
    build_compat_graph,
    complete_to_maximal,
    enumerate_maximal_cliques,
)
from .ground import (
    GroundSetMismatch,
    Subset,
    _k_subset_masks,
    _weakly_separated_masks,
    is_weakly_separated,
)

DEFAULT_BUDGET = 10**6

# instances with more ambient-grid cells than this need the explicit big flag
BIG_GATE = 12


class NotMaximal(ValueError):
    """The collection is not a maximal weakly separated collection of its grid."""


class BigInstance(ValueError):
    """Instance exceeds the desk-scale gate; pass big=True to run it anyway."""


@dataclass(frozen=True)
class SquareMove:
    """The exchange S+{a,c} -> S+{b,d} for cyclically ordered a, b, c, d outside S."""

    s: Subset
    a: int
    b: int
    c: int
    d: int

    @property
    def removed(self) -> Subset:
        return Subset(self.s.mask | 1 << (self.a - 1) | 1 << (self.c - 1), self.s.n)

    @property
    def added(self) -> Subset:
        return Subset(self.s.mask | 1 << (self.b - 1) | 1 << (self.d - 1), self.s.n)

    def inverse(self) -> "SquareMove":
        b, c, d, a = self.a, self.b, self.c, self.d
        if a < c:
            return SquareMove(self.s, a, b, c, d)
        return SquareMove(self.s, c, d, a, b)

    def to_json(self) -> dict:
        return {"remove": self.removed.to_json(), "add": self.added.to_json()}


@functools.cache
def _squares(x: int, n: int) -> tuple[tuple[tuple, frozenset[int]], ...]:
    """Every square move that removes the set x, as ((s, a, b, c, d, added), sides) rows.

    The one definition of a square: x = S+{a,c} with a < c, b strictly inside
    the arc (a, c) and d strictly inside the arc (c, a), S disjoint from
    {a, b, c, d}; the move adds S+{b,d} and needs the four side sets
    S+{a,b}, S+{b,c}, S+{c,d}, S+{d,a}.  Rows run by (a, c), then d, then b.
    Built per removed set on first use, never over a whole grid.
    """
    rows = []
    for a, c in itertools.combinations([i + 1 for i in range(n) if x >> i & 1], 2):
        ba, bc = 1 << (a - 1), 1 << (c - 1)
        s = x & ~ba & ~bc
        inside = [b for b in range(a + 1, c) if not x >> (b - 1) & 1]
        for d in (*range(c + 1, n + 1), *range(1, a)):
            bd = 1 << (d - 1)
            if s & bd:
                continue
            for b in inside:
                bb = 1 << (b - 1)
                rows.append((
                    (s, a, b, c, d, s | bb | bd),
                    frozenset((s | ba | bb, s | bb | bc, s | bc | bd, s | bd | ba)),
                ))
    return tuple(rows)


def _moves_of(masks: tuple[int, ...], member: frozenset[int], n: int) -> list[tuple]:
    """All applicable square moves of a collection, as (s, a, b, c, d, to) tuples.

    No maximality contract here; callers guarantee it.  Each move appears once,
    normalised as in ``_squares``, in the canonical order of the collection.
    """
    return [move for x in masks for move, sides in _squares(x, n) if sides <= member]


def _square_row(member: frozenset[int], n: int, removed: int, added: int) -> tuple | None:
    """The move of ``_squares(removed, n)`` that adds ``added``, if all its sets are members."""
    if removed in member:
        for move, sides in _squares(removed, n):
            if move[5] == added and sides <= member:
                return move
    return None


def _is_move_of(member: frozenset[int], n: int, s: int, a: int, b: int, c: int, d: int) -> bool:
    """Whether ``_moves_of`` lists the move (s, a, b, c, d), tested without listing them."""
    if not all(1 <= v <= n for v in (a, b, c, d)):
        return False
    removed = s | 1 << (a - 1) | 1 << (c - 1)
    move = _square_row(member, n, removed, s | 1 << (b - 1) | 1 << (d - 1))
    return move is not None and move[:5] == (s, a, b, c, d)


def _neighbors(node: tuple[int, ...], n: int) -> list[tuple[tuple[int, ...], tuple]]:
    member = frozenset(node)
    out = []
    for s, a, b, c, d, to in _moves_of(node, member, n):
        removed = s | 1 << (a - 1) | 1 << (c - 1)
        child = tuple(sorted((set(node) - {removed}) | {to}))
        out.append((child, (s, a, b, c, d)))
    return out


def _require_grid_collection(c: Collection) -> tuple[int, int]:
    sizes = {m.bit_count() for m in c.masks}
    if len(sizes) != 1:
        raise ValueError("collection mixes cardinalities; square moves need one grid")
    return c.n, sizes.pop()


def _check_maximal(c: Collection) -> tuple[int, int]:
    n, k = _require_grid_collection(c)
    if _first_unrelated_pair(c.masks, n) is not None:
        raise NotMaximal("collection is not weakly separated")
    addable = _first_addable(_k_subset_masks(n, k), c.masks, n)
    if addable is not None:
        raise NotMaximal(f"collection is not maximal: {Subset(addable, n)} is addable")
    return n, k


def find_square_moves(c: Collection) -> list[SquareMove]:
    """All applicable square moves of a maximal collection, in deterministic order."""
    n, _ = _check_maximal(c)
    member = frozenset(c.masks)
    return [
        SquareMove(Subset(s, n), a, b, cc, d)
        for s, a, b, cc, d, _ in _moves_of(c.masks, member, n)
    ]


def apply_square_move(c: Collection, m: SquareMove) -> Collection:
    """Exchange the move's diagonal; the result is again maximal weakly separated."""
    removed, added = m.removed.mask, m.added.mask
    # a row with the same removed, added and s fixes {a, c} and {b, d}, so
    # exactly the four labellings of the square are accepted
    move = _square_row(frozenset(c.masks), c.n, removed, added) if m.s.n == c.n else None
    if move is None or move[0] != m.s.mask:
        raise ValueError("move is not applicable to this collection")
    if __debug__:
        assert all(
            _weakly_separated_masks(added, x) for x in c.masks if x != removed
        ), "exchange broke weak separation"
    return Collection.from_masks(
        tuple(x for x in c.masks if x != removed) + (added,), c.n
    )


@dataclass(frozen=True)
class MutationGraph:
    """BFS closure of a seed under square moves, possibly budget-truncated."""

    n: int
    k: int
    node_count: int
    edge_count: int
    complete: bool
    nodes: tuple[tuple[int, ...], ...]

    def node_collections(self) -> list[Collection]:
        return [Collection.from_masks(t, self.n) for t in self.nodes]

    def to_json(self) -> dict:
        return {
            "nodes": self.node_count,
            "edges": self.edge_count,
            "complete": self.complete,
        }


def explore_mutation_graph(seed: Collection, budget: int = DEFAULT_BUDGET) -> MutationGraph:
    """Breadth-first closure of a maximal collection under square moves.

    Budget exhaustion is an ordinary outcome reported via ``complete=False``.
    The edge count is over explored endpoints only.
    """
    n, k = _check_maximal(seed)
    root = seed.masks
    visited: set[tuple[int, ...]] = {root}
    # every visited node is expanded once; an edge is counted at its later end
    done: set[tuple[int, ...]] = set()
    edges = 0
    frontier = [root]
    truncated = False
    while frontier:
        layer: set[tuple[int, ...]] = set()
        for node in frontier:
            for child, _ in _neighbors(node, n):
                if child in done:
                    edges += 1
                elif child not in visited:
                    layer.add(child)
            done.add(node)
        room = budget - len(visited)
        if room <= 0:
            truncated = bool(layer)
            break
        ordered = sorted(layer)
        if len(ordered) > room:
            ordered = ordered[:room]
            truncated = True
        visited.update(ordered)
        frontier = ordered
    return MutationGraph(n, k, len(visited), edges, not truncated, tuple(sorted(visited)))


@dataclass(frozen=True)
class DistanceResult:
    """Outcome of a mutation-distance search.

    ``distance`` is None exactly when the budget ran out before certainty;
    ``upper_bound`` then carries the best unconfirmed candidate, if any was
    seen.  Otherwise applying ``path`` to ``source`` yields ``target``.
    """

    distance: int | None
    path: tuple[SquareMove, ...]
    source: Collection | None
    target: Collection | None
    nodes_explored: int
    upper_bound: int | None = None

    @property
    def budget_exhausted(self) -> bool:
        return self.distance is None

    def to_json(self) -> dict:
        out = {
            "distance": "budget-exhausted" if self.distance is None else self.distance,
            "nodes_explored": self.nodes_explored,
            "path": [m.to_json() for m in self.path],
        }
        if self.distance is None:
            out["upper_bound"] = self.upper_bound
        return out


def _maximal_collections_containing(s: Subset) -> list[tuple[int, ...]]:
    """Every maximal weakly separated collection of the grid that contains s.

    These are exactly the maximal cliques of the graph on all same-size
    subsets compatible with s: a maximal clique missing s could absorb it, so
    every one of them contains it.
    """
    n, k = s.n, len(s)
    dom = [m for m in _k_subset_masks(n, k) if _weakly_separated_masks(m, s.mask)]
    g = build_compat_graph(Collection.from_masks(dom, n), "weak")
    return [c.masks for c in enumerate_maximal_cliques(g)]


def mutation_distance(
    i: Subset, j: Subset, budget: int = DEFAULT_BUDGET, big: bool = False
) -> DistanceResult:
    """Minimum number of square moves from a collection holding i to one holding j.

    Bidirectional layered BFS over the implicit graph: sources are all maximal
    collections containing i, targets all containing j.  Layers are expanded
    whole (smaller frontier first) and the search only stops once the explored
    radii cover the best meeting sum, which makes the distance exact.
    """
    if i.n != j.n:
        raise GroundSetMismatch(f"ground sets differ: [{i.n}] vs [{j.n}]")
    if len(i) != len(j):
        raise ValueError(f"cardinalities differ: {len(i)} vs {len(j)}")
    n, k = i.n, len(i)
    if k * (n - k) > BIG_GATE and not big:
        raise BigInstance(
            f"grid {k}x({n}-{k}) exceeds the desk-scale gate; pass big=True to proceed"
        )
    if is_weakly_separated(i, j):
        both = _grid_completion(i, j)
        return DistanceResult(0, (), both, both, 0)

    # side maps: node -> (parent, move, depth); roots have parent None
    fwd: dict[tuple[int, ...], tuple] = {m: (None, None, 0) for m in _maximal_collections_containing(i)}
    bwd: dict[tuple[int, ...], tuple] = {m: (None, None, 0) for m in _maximal_collections_containing(j)}
    fwd_frontier, bwd_frontier = sorted(fwd), sorted(bwd)
    fwd_depth = bwd_depth = 0
    best: int | None = None
    meet: tuple[int, ...] | None = None

    def scan(fresh: list[tuple[int, ...]]) -> None:
        nonlocal best, meet
        for node in fresh:
            if node in fwd and node in bwd:
                total = fwd[node][2] + bwd[node][2]
                if best is None or total < best or (total == best and (meet is None or node < meet)):
                    best, meet = total, node

    scan(sorted(set(fwd) & set(bwd)))
    while best is None or fwd_depth + bwd_depth < best:
        candidates = [
            (len(fwd_frontier), True),
            (len(bwd_frontier), False),
        ]
        candidates = [c for c in candidates if c[0] > 0]
        if not candidates:
            break
        grow_fwd = min(candidates)[1]
        side, frontier, depth = (
            (fwd, fwd_frontier, fwd_depth + 1) if grow_fwd else (bwd, bwd_frontier, bwd_depth + 1)
        )
        if len(fwd) + len(bwd) >= budget:
            return DistanceResult(None, (), None, None, len(fwd) + len(bwd), best)
        layer: dict[tuple[int, ...], tuple] = {}
        for node in frontier:
            for child, move in _neighbors(node, n):
                if child not in side and child not in layer:
                    layer[child] = (node, move, depth)
        for child in sorted(layer):
            side[child] = layer[child]
        if grow_fwd:
            fwd_frontier, fwd_depth = sorted(layer), depth
        else:
            bwd_frontier, bwd_depth = sorted(layer), depth
        scan(sorted(layer))
    if meet is None:
        raise RuntimeError(
            "both frontiers exhausted without meeting; the mutation graph "
            "components of the two endpoints are disjoint"
        )

    fwd_moves, src = _walk_back(meet, fwd)
    bwd_moves, dst = _walk_back(meet, bwd)
    path = tuple(
        SquareMove(Subset(s, n), a, b, c, d)
        for s, a, b, c, d in reversed(fwd_moves)
    ) + tuple(SquareMove(Subset(s, n), a, b, c, d).inverse() for s, a, b, c, d in bwd_moves)
    return DistanceResult(
        best,
        path,
        Collection.from_masks(src, n),
        Collection.from_masks(dst, n),
        len(fwd) + len(bwd),
    )


def _walk_back(node: tuple[int, ...], side: dict) -> tuple[list[tuple], tuple[int, ...]]:
    moves = []
    cur = node
    while side[cur][0] is not None:
        parent, move, _ = side[cur]
        moves.append(move)
        cur = parent
    return moves, cur


def _grid_completion(i: Subset, j: Subset) -> Collection:
    n, k = i.n, len(i)
    return complete_to_maximal(
        Collection.from_masks({i.mask, j.mask}, n),
        Collection.from_masks(_k_subset_masks(n, k), n),
    )
