"""Square-move dynamics on maximal weakly separated collections.

The mutation graph is implicit: nodes are canonical collections, edges are
single square moves.  Inside the engine a collection of the C(n,k) grid is
one int with a bit per grid set (``ground._Grid``), from seeding to the
explored graph; nodes are decoded to sorted mask tuples only at the public
boundary.  Each grid keeps one table entry per set: its squares, flat, and
the (flip, move) pairs of each pattern of held side sets, so expanding a node
is one lookup per member with a square and a child is ``node ^ flip``; the
cyclic intervals have no square.  Seeding stops at the budget and counts the
rest by census, a pair's once if one of its maps swaps it.  A seed is known by
its side's set bit, and a seed layer moves only that set, each child from one
seed, so it needs no order; deeper layers run in canonical order, so every output is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .cliques import (
    Collection,
    NotMaximal,
    _bron_kerbosch,
    _clique_sizes,
    _greedy_maximal,
    _require_maximal,
    build_compat_graph,
)
from .domains import _grid_rank, build_domain_AIJ
from .ground import (
    Subset,
    _check_pair,
    _Grid,
    _grid,
    _pair_symmetries,
    _weakly_separated_masks,
    is_weakly_separated,
)

DEFAULT_BUDGET = 10**6

# instances with more ambient-grid cells than this need the explicit big flag
BIG_GATE = 12


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


def _neighbors(grid: _Grid, node: int, members: int = -1) -> list[tuple[int, tuple]]:
    """The applicable square moves of the node's members in ``members``, as (flip, move) pairs.

    No maximality contract here; callers guarantee it.  A move applies when
    the node has all its side bits; its child is ``node ^ flip``, flip being
    the bits of the removed and the added set.  The pairs are the table's own
    tuples, so none is built per child.  Members are walked from the high bit
    down, that is in ascending mask order, each with its moves in ``squares``
    order; idle members (no square) and those outside ``members`` are skipped.
    A member's moves depend only on the side sets the node holds, so they are
    kept under that pattern in its ``grid.table`` entry, built on first visit.
    """
    out = []
    table = grid.table
    rest = node & members & ~grid.idle
    while rest:
        pos = rest.bit_length() - 1
        bit = 1 << pos
        rest ^= bit
        near, _, known = table[pos] if pos in table else grid.entry(pos)
        flips = known.get(held := node & near)
        out += _held_moves(grid, pos, held) if flips is None else flips
    return out


def _held_moves(grid: _Grid, pos: int, held: int) -> tuple[tuple[int, tuple], ...]:
    """The moves of the set at bit ``pos`` in a node holding the side bits ``held``, kept in its entry."""
    bit, (_, squares, known) = 1 << pos, grid.table[pos]
    flips = known[held] = tuple((bit ^ grid[m[5]], m) for sides, m in squares if held & sides == sides)
    return flips


def _check_applicable(c: Collection, m: SquareMove) -> tuple[_Grid, int]:
    """The grid of c and the child node of m's exchange.

    Raises NotMaximal unless c is maximal, as ``find_square_moves`` does, and
    ValueError unless ``_neighbors`` lists the exchange among the moves of a
    held removed set.  The one applicability rule: a listed move with the same
    s and the same child fixes {a, c} and {b, d}, so exactly the four
    labellings of a listed square are accepted.  A listed move removes a held
    set, so only one of m's removed set gives that child: its entry decides.
    """
    grid = _check_maximal(c)
    n, s = c.n, m.s.mask
    if m.s.n == n and all(1 <= v <= n for v in (m.a, m.b, m.c, m.d)):
        removed, added = m.removed.mask, m.added.mask
        if removed.bit_count() == added.bit_count() == grid.k:
            node, bit = grid.node(c.masks), grid[removed]
            flip = bit ^ grid[added]
            if any(move[0] == s and f == flip for f, move in _neighbors(grid, node, bit)):
                return grid, node ^ flip
    raise ValueError("move is not applicable to this collection")


def _check_maximal(c: Collection) -> _Grid:
    """The grid of a maximal weakly separated collection; raises NotMaximal for any other."""
    sizes = {m.bit_count() for m in c.masks}
    if not sizes:
        raise NotMaximal("the empty collection is not maximal")
    if len(sizes) != 1:
        raise ValueError("collection mixes cardinalities; square moves need one grid")
    n, k = c.n, sizes.pop()
    # the grid is pure (Oh-Postnikov-Speyer)
    _require_maximal(c.masks, _grid_rank(n, k))
    return _grid(n, k)


def find_square_moves(c: Collection) -> list[SquareMove]:
    """All applicable square moves of a maximal collection, in deterministic order."""
    grid = _check_maximal(c)
    return [
        SquareMove(Subset(s, c.n), a, b, cc, d)
        for _, (s, a, b, cc, d, _) in _neighbors(grid, grid.node(c.masks))
    ]


def apply_square_move(c: Collection, m: SquareMove) -> Collection:
    """Exchange the move's diagonal; the result is again maximal weakly separated."""
    grid, child = _check_applicable(c, m)
    masks = grid.masks(child)
    if __debug__:
        added = m.added.mask
        assert all(_weakly_separated_masks(added, x) for x in masks), "exchange broke weak separation"
    return Collection._canonical(masks, c.n)


@dataclass(frozen=True)
class MutationGraph:
    """BFS closure of a seed under square moves, possibly budget-truncated.

    The visited nodes are kept as ints of the grid that numbered them,
    descending, which is canonical order; ``nodes`` decodes them through it.
    """

    n: int
    k: int
    node_count: int
    edge_count: int
    complete: bool
    ints: tuple[int, ...]
    grid: _Grid = field(compare=False, repr=False)

    @property
    def nodes(self) -> tuple[tuple[int, ...], ...]:
        """The visited nodes as ascending mask tuples, in canonical order."""
        return tuple(map(self.grid.masks, self.ints))

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
    grid = _check_maximal(seed)
    root = grid.node(seed.masks)
    visited = {root}
    # every visited node is expanded once; an edge is counted at its later end
    done = set()
    edges = 0
    frontier = [root]
    truncated = False
    while frontier:
        layer = set()
        for node in frontier:
            for flip, _ in _neighbors(grid, node):
                if (child := node ^ flip) in done:
                    edges += 1
                elif child not in visited:
                    layer.add(child)
            done.add(node)
        # descending ints are ascending tuples, so the smallest tuples are kept
        frontier = sorted(layer, reverse=True)[: max(budget - len(visited), 0)]
        truncated = truncated or len(frontier) < len(layer)
        visited.update(frontier)
    ints = tuple(sorted(visited, reverse=True))
    return MutationGraph(grid.n, grid.k, len(visited), edges, not truncated, ints, grid)


@dataclass(frozen=True)
class DistanceResult:
    """Outcome of a mutation-distance search.

    ``distance`` is None exactly when the budget ran out before the two
    sides met; path, source and target are then empty.  Otherwise applying
    ``path`` to ``source`` yields ``target``.
    """

    distance: int | None
    path: tuple[SquareMove, ...]
    source: Collection | None
    target: Collection | None
    nodes_explored: int

    @property
    def budget_exhausted(self) -> bool:
        return self.distance is None

    def to_json(self) -> dict:
        return {
            "distance": "budget-exhausted" if self.distance is None else self.distance,
            "nodes_explored": self.nodes_explored,
            "path": [m.to_json() for m in self.path],
        }


class _Full(Exception):
    """Raised by a seeding visit past its cap."""


def _maximal_collections_containing(
    s: Subset, grid: _Grid, cap: int, swap: Callable[[int], int] | None = None
) -> list[int] | int:
    """Every maximal weakly separated collection of the grid that contains s, as nodes.

    These are exactly the maximal cliques of the graph on all same-size
    subsets compatible with s: a maximal clique missing s could absorb it, so
    every one of them contains it.  They come in Bron-Kerbosch visit order.
    If there are more than ``cap``, the visit past it stops the enumeration
    and only their number, from the clique census, is returned.  A map ``swap``
    that keeps weak separation packs each node W with its image: the low C(n,k)
    bits are W, the high ones swap(W), a maximal collection holding swap(s).
    """
    g = build_compat_graph(build_domain_AIJ(s, s), "weak")
    weight = [grid[x] | (grid[swap(x)] << grid.top + 1 if swap else 0) for x in g.vertices.masks]
    found: list[int] = []

    def visit(node: int) -> None:
        if len(found) >= cap:
            raise _Full
        found.append(node)

    try:
        # weighted by grid bits, each clique is visited as its finished node
        _bron_kerbosch(g.adj, weight, visit)
    except _Full:
        return sum(_clique_sizes(g.adj).values())
    return found


def mutation_distance(
    i: Subset, j: Subset, budget: int = DEFAULT_BUDGET, big: bool = False
) -> DistanceResult:
    """Minimum number of square moves from a collection holding i to one holding j.

    Bidirectional layered BFS over the implicit graph: sources are all maximal
    collections containing i, targets all containing j.  Side j may seed what
    side i leaves of the budget; seeds past it are only counted.  A pair that
    one of its maps swaps is listed once, to half the budget: each seed of i
    comes with its image, a seed of j; past it both sides take its count.
    Layers are expanded whole, smaller frontier first.  A node met while one
    side grows to depth d has depth sum at most d plus the other side's depth,
    so the first layer where the sides meet holds the distance: the least depth
    sum met there, ties going to the largest int, which is the smallest tuple.
    Seeds are all listed before the BFS, so a seed is known by its side's set
    bit and is kept in no dict, and a seed layer moves only that set: any other
    move leads to a seed.  The added diagonal is not weakly separated from the
    set, so each child has one seed parent and seeds are expanded unsorted and
    untested; every parent, meet, path and count is that of an all-member scan.
    """
    _check_pair(i, j)
    n, k = i.n, len(i)
    if k * (n - k) > BIG_GATE and not big:
        raise BigInstance(
            f"grid {k}x({n}-{k}) exceeds the desk-scale gate; pass --big (big=True) to proceed"
        )
    if is_weakly_separated(i, j):
        both = _grid_completion(i, j)
        return DistanceResult(0, (), both, both, 0)

    grid = _grid(n, k)
    swap = next((f for f in _pair_symmetries(i.mask, j.mask, n) if f(i.mask) == j.mask), None)
    if swap:
        # one count for both sides, or the packed seeds split into i's nodes (low bits) and j's, then dropped
        seeds, cut = _maximal_collections_containing(i, grid, (budget - 1) // 2, swap), grid.top + 1
        seeds = [seeds] * 2 if isinstance(seeds, int) else [[w % (1 << cut) for w in seeds], [w >> cut for w in seeds]]
    else:
        found = _maximal_collections_containing(i, grid, budget)
        rest = budget - len(found) if isinstance(found, list) else 0  # side j may list what side i leaves
        seeds = [found, _maximal_collections_containing(j, grid, rest)]
    if (total := sum(x if isinstance(x, int) else len(x) for x in seeds)) >= budget:
        return DistanceResult(None, (), None, None, total)
    # per side, 0 from i and 1 from j: node -> (parent, move, depth) at depth 1 or more.  Every
    # collection holding the side's set is listed, so a seed is known by that set's bit.
    bits, sides, frontiers, depths, met = [grid[i.mask], grid[j.mask]], [{}, {}], seeds, [0, 0], []
    while not met:
        # the smaller non-empty frontier grows; a tie grows the j side
        live = [s for s in (1, 0) if frontiers[s]]
        if not live:
            raise RuntimeError(
                "both frontiers exhausted without meeting; the mutation graph "
                "components of the two endpoints are disjoint"
            )
        grow = min(live, key=lambda s: len(frontiers[s]))
        if (explored := total + sum(map(len, sides))) >= budget:
            return DistanceResult(None, (), None, None, explored)
        side, other, depth, own, far = sides[grow], sides[1 - grow], depths[grow] + 1, bits[grow], bits[1 - grow]
        layer: dict[int, tuple] = {}
        if depth == 1:
            # each child has one seed parent, so seeds need no order and children no test
            near, _, known = grid.entry(pos := own.bit_length() - 1)
            for node in frontiers[grow]:
                flips = known.get(held := node & near)
                for flip, move in _held_moves(grid, pos, held) if flips is None else flips:
                    layer[child := node ^ flip] = (node, move, 1)
                    if child & far or child in other:
                        met.append(child)
        else:
            # descending ints are ascending tuples, the canonical expansion order
            for node in sorted(frontiers[grow], reverse=True):
                for flip, move in _neighbors(grid, node):
                    if (child := node ^ flip) not in side and child not in layer and not child & own:
                        layer[child] = (node, move, depth)
                        if child & far or child in other:
                            met.append(child)
        side.update(layer)
        frontiers[grow], depths[grow] = layer, depth
    # the least depth sum met, ties going to the largest int, which is the smallest tuple
    best, meet = min((depth + (other[c][2] if c in other else 0), -c) for c in met)
    meet = -meet

    (to_meet, src), (from_meet, dst) = (_walk_back(meet, side) for side in sides)
    path = tuple(SquareMove(Subset(m[0], n), *m[1:5]) for m in reversed(to_meet)) + tuple(
        SquareMove(Subset(m[0], n), *m[1:5]).inverse() for m in from_meet
    )
    return DistanceResult(
        best,
        path,
        Collection.from_masks(grid.masks(src), n),
        Collection.from_masks(grid.masks(dst), n),
        total + sum(map(len, sides)),
    )


def _walk_back(node: int, side: dict) -> tuple[list[tuple], int]:
    """The moves from a node back to its seed, the first node not in ``side``; one per depth."""
    moves = []
    for _ in range(side[node][2] if node in side else 0):
        node, move, _ = side[node]
        moves.append(move)
    return moves, node


def _grid_completion(i: Subset, j: Subset) -> Collection:
    # a set the greedy adds is separated from I and J, so their domain holds every candidate
    return Collection.from_masks(_greedy_maximal({i.mask, j.mask}, build_domain_AIJ(i, j).masks), i.n)
