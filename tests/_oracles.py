"""Independent reference implementations used only to cross-check the library.

Everything here works on plain Python sets and brute force, deliberately
sharing no code with the package: definition-level scans for the separation
predicates and full subset enumeration for maximal cliques.  The
exceptions are ``plain_bron_kerbosch``, the unfolded kernel that the library's
enumeration replaced, kept so that the two can be compared on graphs too
large for brute force, ``naive_p4_counts`` with ``naive_pyramid_position``
and ``ALPHA``, the walk over the forward pyramid's faces that the library's
single box walk replaced, ``pairwise_adjacency``, the loop of one predicate
call per pair that the library's row walk replaced, ``naive_chord_chain``,
the backtracking search that the library's chord chain walk replaced,
``all_member_neighbors``, the node expansion that the library's skip of
square-less members replaced, and ``all_member_distance``, the distance
search that moved every member of its seed layers.
"""

import itertools


def naive_surrounds(i: set, j: set) -> bool:
    imj = i - j
    jmi = j - i
    for split_point in range(len(imj) + 1):
        lo = set(sorted(imj)[:split_point])
        hi = imj - lo
        if all(x < y for x in lo for y in jmi) and all(y < x for x in hi for y in jmi):
            return True
    return not imj


def naive_weakly_separated(s: set, t: set) -> bool:
    return (len(s) <= len(t) and naive_surrounds(s, t)) or (
        len(t) <= len(s) and naive_surrounds(t, s)
    )


def naive_chord_separated(s: set, t: set, n: int) -> bool:
    smt = sorted(s - t)
    tms = sorted(t - s)
    for a, c in itertools.combinations(smt, 2):
        for b, d in itertools.combinations(tms, 2):
            # the four points alternate iff exactly one of b, d lies on the
            # open arc (a, c) taken linearly
            if (a < b < c) != (a < d < c):
                return False
    return True


def naive_relation_rows(n: int, relation: str) -> list[int]:
    """Row s: the masks t != s of the power set of [n] related to mask s, as a bitset over masks."""
    sets = [{x + 1 for x in range(n) if m >> x & 1} for m in range(1 << n)]
    rows = [0] * (1 << n)
    for a, b in itertools.combinations(range(1 << n), 2):
        s, t = sets[a], sets[b]
        if naive_weakly_separated(s, t) if relation == "weak" else naive_chord_separated(s, t, n):
            rows[a] |= 1 << b
            rows[b] |= 1 << a
    return rows


def pairwise_adjacency(masks, related) -> tuple:
    """The compatibility rows by one call of ``related`` per pair of masks."""
    adj = [0] * len(masks)
    for u, v in itertools.combinations(range(len(masks)), 2):
        if related(masks[u], masks[v]):
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return tuple(adj)


def naive_cyclic_run(a: int, b: int, n: int) -> set:
    """The elements met walking clockwise around [n] from a to b, both included."""
    run = [a]
    while run[-1] != b:
        run.append(run[-1] % n + 1)
    return set(run)


def naive_is_necklace(sets: list[set], n: int) -> bool:
    """The Grassmann necklace rule read off its definition, on n plain subsets of [n].

    All sets have one size; I_(i+1) = I_i when i is not in I_i, and otherwise
    I_(i+1) = I_i - {i} + {j} for some j in [n] (j = i keeps the set).
    """
    if len({len(s) for s in sets}) != 1:
        return False
    for i in range(1, n + 1):
        cur, nxt = sets[i - 1], sets[i % n]
        if i not in cur:
            if nxt != cur:
                return False
        elif not any(nxt == (cur - {i}) | {j} for j in range(1, n + 1)):
            return False
    return True


def naive_gale_leq(a: set, b: set, base: int, n: int) -> bool:
    """A <=_base B read off the definition, on plain subsets of [n].

    Both sets are sorted in the order base < base+1 < ... < base-1; A may have
    no more elements than B, and A's m-th may not come after B's m-th.
    """
    order = list(range(base, n + 1)) + list(range(1, base))
    sa, sb = sorted(a, key=order.index), sorted(b, key=order.index)
    return len(sa) <= len(sb) and all(order.index(x) <= order.index(y) for x, y in zip(sa, sb))


def naive_maximal_cliques(adj: list[int]) -> set[frozenset]:
    """All maximal cliques of a graph on at most ~14 vertices, by full enumeration."""
    m = len(adj)
    cliques = []
    for bits in range(1 << m):
        verts = [v for v in range(m) if bits >> v & 1]
        if all(adj[u] >> v & 1 for u, v in itertools.combinations(verts, 2)):
            cliques.append(bits)
    # a clique with a larger clique around it also has one a single vertex larger
    known = set(cliques)
    out = set()
    for bits in cliques:
        if not any(bits | 1 << v in known for v in range(m) if not bits >> v & 1):
            out.add(frozenset(v for v in range(m) if bits >> v & 1))
    return out


def naive_co_components(adj: list[int]) -> set[frozenset]:
    """The vertex sets of the complement graph's components, by merging non-adjacent pairs."""
    m = len(adj)
    group = {v: frozenset([v]) for v in range(m)}
    for u, v in itertools.combinations(range(m), 2):
        if not adj[u] >> v & 1 and group[u] is not group[v]:
            merged = group[u] | group[v]
            for w in merged:
                group[w] = merged
    return set(group.values())


def naive_pair_stabilizer(i: set, j: set, n: int) -> set[tuple]:
    """The maps x -> r ± x of [n], with complement when |I| = n/2, that send {I, J} onto itself.

    Each map is named by its images of {1}, ..., {n} and of the empty set, as
    sets; the identity is left out, and maps that act alike are named once.
    """
    everything, found = set(range(1, n + 1)), set()
    for r, sign in itertools.product(range(n), (1, -1)):
        for flip in (False, True) if 2 * len(i) == n else (False,):
            def image(s):
                out = {(sign * (x - 1) + r) % n + 1 for x in s}
                return everything - out if flip else out

            if {frozenset(image(i)), frozenset(image(j))} == {frozenset(i), frozenset(j)}:
                found.add(tuple(frozenset(image(s)) for s in [{x} for x in range(1, n + 1)] + [set()]))
    found.discard(tuple(frozenset(s) for s in [{x} for x in range(1, n + 1)] + [set()]))
    return found


def plain_bron_kerbosch(adj, weight, visit) -> None:
    """Bron-Kerbosch with pivoting and no folding: every candidate is branched on.

    Pivots on max candidate-degree over P and X, ties toward the lowest
    index, and visits each maximal clique as the sum of its vertices'
    weights.  This is the kernel that ``cliques._bron_kerbosch`` replaced.
    """

    def expand(acc, p, x):
        if p == 0 and x == 0:
            visit(acc)
            return
        pivot, best = -1, -1
        q = p | x
        while q:
            u = (q & -q).bit_length() - 1
            q &= q - 1
            d = (p & adj[u]).bit_count()
            if d > best:
                best, pivot = d, u
        cand = p & ~adj[pivot]
        while cand:
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            expand(acc + weight[v], p & adj[v], x & adj[v])
            p &= ~(1 << v)
            x |= 1 << v

    if adj:
        expand(0, (1 << len(adj)) - 1, 0)


def all_member_neighbors(grid, node) -> list[tuple]:
    """The (flip, move) pairs of a node of a ``ground._Grid``, from every member.

    The expansion loop that ``mutations._neighbors`` ran before it skipped the
    members without a square: each member, from the high bit down, reads its
    table entry and lists the moves of the side pattern the node holds.
    """
    out = []
    rest = node
    while rest:
        pos = rest.bit_length() - 1
        bit = 1 << pos
        rest ^= bit
        near, squares, known = grid.entry(pos)
        held = node & near
        if held not in known:
            known[held] = tuple((bit ^ grid[move[5]], move) for sides, move in squares if held & sides == sides)
        out += known[held]
    return out


def all_member_distance(grid, seeds, budget) -> tuple:
    """The bidirectional BFS that ``mutations.mutation_distance`` ran before seed layers moved one set.

    ``seeds`` holds both sides' seed nodes, listed whole; every layer, the
    seed layers too, is expanded by ``all_member_neighbors``.  Returns
    (distance, path, source, target, nodes_explored), the path as (s, a, b,
    c, d) tuples from source to target and the two ends as nodes.
    """
    sides = [dict.fromkeys(found, (None, None, 0)) for found in seeds]
    frontiers, depths, best = list(sides), [0, 0], None
    while best is None:
        grow = min([s for s in (1, 0) if frontiers[s]], key=lambda s: len(frontiers[s]))
        if sum(map(len, sides)) >= budget:
            return None, (), None, None, sum(map(len, sides))
        side, other, depth = sides[grow], sides[1 - grow], depths[grow] + 1
        layer = {}
        for node in sorted(frontiers[grow], reverse=True):
            for flip, move in all_member_neighbors(grid, node):
                child = node ^ flip
                if child not in side and child not in layer:
                    layer[child] = (node, move, depth)
                    if child in other:
                        total = depth + other[child][2]
                        if best is None or total < best or (total == best and child > meet):
                            best, meet = total, child
        side.update(layer)
        frontiers[grow], depths[grow] = layer, depth
    ends, halves = [], []
    for side in sides:
        node, moves = meet, []
        while side[node][0] is not None:
            node, move, _ = side[node]
            moves.append(move[:5])
        ends.append(node)
        halves.append(moves)
    # the target side's moves run backwards: b, c, d, a become a, b, c, d
    back = [(s, d, a, b, c) if d < b else (s, b, c, d, a) for s, a, b, c, d in halves[1]]
    return best, (*reversed(halves[0]), *back), ends[0], ends[1], sum(map(len, sides))


def naive_no_interior(sets: list[set], split: tuple) -> tuple[int, int] | None:
    """First ordered pair (apex, inside) of indices whose projections violate the pyramid rule.

    Every ordered pair is scanned in both orientations: ``inside`` lies
    strictly within the +1 or the -1 pyramid at ``apex``.  ``None`` when no
    pair does.
    """
    bounds = [sum(split[:t]) for t in range(5)]
    points = [
        [len([x for x in s if bounds[t] < x <= bounds[t + 1]]) for t in range(4)] for s in sets
    ]
    for idx, apex in enumerate(points):
        for jdx, v in enumerate(points):
            if idx == jdx:
                continue
            for orientation in (1, -1):
                d = [orientation * (v[t] - apex[t]) for t in range(4)]
                if d[0] < 0 and d[1] > 0 and d[2] < 0 and d[3] > 0:
                    return idx, jdx
    return None


def naive_is_maximal(sets: list[set], candidates: list[set], related) -> bool:
    """Whether the sets are pairwise related and no other candidate is related to all of them.

    ``related`` is a predicate on two plain sets; ``candidates`` is the whole
    domain, scanned one by one.
    """
    have = {frozenset(x) for x in sets}
    if not all(related(set(s), set(t)) for s, t in itertools.combinations(have, 2)):
        return False
    return not any(
        frozenset(c) not in have and all(related(set(c), set(s)) for s in have)
        for c in candidates
    )


def naive_square_moves(sets: list[set], n: int) -> set[tuple]:
    """Every square move of a collection of k-sets, as (S, a, b, c, d, added) with sets.

    Definition-level scan: every (k-2)-set S and every cyclically ordered
    p1 < p2 < p3 < p4 outside it.  Either diagonal may be the removed member,
    S+{p1,p3} or S+{p2,p4}; it is a move when that member and the four side
    sets are all in the collection.  Labels are normalised with a < c.
    """
    have = {frozenset(x) for x in sets}
    k = len(next(iter(have)))
    out = set()
    for s in itertools.combinations(range(1, n + 1), k - 2):
        rest = [x for x in range(1, n + 1) if x not in s]
        for p1, p2, p3, p4 in itertools.combinations(rest, 4):
            for a, b, c, d in ((p1, p2, p3, p4), (p2, p3, p4, p1)):
                needed = [{a, c}, {a, b}, {b, c}, {c, d}, {d, a}]
                if all(frozenset(s) | pair in have for pair in needed):
                    out.add((frozenset(s), a, b, c, d, frozenset(s) | {b, d}))
    return out


def naive_squares(x: set, n: int) -> list[tuple]:
    """The squares of the set x in listing order, as (S, a, b, c, d, added, sides) with sets.

    Read off the definition: x = S+{a,c} with a < c, b strictly between a and
    c, d met walking clockwise from c round to a, and S disjoint from
    {a, b, c, d}.  Listed by (a, c), then d along that walk, then b
    ascending.  ``sides`` is [S+{a,b}, S+{b,c}, S+{c,d}, S+{d,a}].
    """
    out = []
    for a, c in itertools.combinations(sorted(x), 2):
        s = frozenset(x) - {a, c}
        d = c % n + 1
        while d != a:
            for b in range(a + 1, c):
                if b not in s and d not in s:
                    sides = [s | {a, b}, s | {b, c}, s | {c, d}, s | {d, a}]
                    out.append((s, a, b, c, d, s | {b, d}, sides))
            d = d % n + 1
    return out


def naive_interval_index(x: int, split: tuple) -> int:
    """Which of the four consecutive intervals of [n] under the split holds x, from 0.

    Interval t is the elements after the first split[0] + ... + split[t-1]
    and up to the next split[t].
    """
    start = 0
    for t, length in enumerate(split):
        if start < x <= start + length:
            return t
        start += length
    raise ValueError(f"{x} lies outside the split {split}")


def naive_shift_sign(a: int, b: int, c: int, d: int, split: tuple) -> int | None:
    """None unless a, b, c, d lie in four distinct intervals; then +1 when a and c
    lie in the first and third, -1 when they lie in the second and fourth."""
    cells = [naive_interval_index(x, split) for x in (a, b, c, d)]
    if len(set(cells)) != 4:
        return None
    return 1 if {cells[0], cells[2]} == {0, 2} else -1


def pyramid_decomposition(apex: tuple, orientation: int, v: tuple) -> tuple | None:
    """Nonnegative integers (t1, t2, t3, t4) with v = apex + orientation * sum t_e * edge_e, if any.

    The edges are (0,0,-1,1), (0,1,-1,0), (-1,1,0,0), (-1,0,0,1), and v must
    have the apex's coordinate sum.  Solves the linear system directly, with
    t2 as the free parameter set to its least feasible value.
    """
    d = [orientation * (v[t] - apex[t]) for t in range(4)]
    # t3 = d[1] - t2, t1 = -d[2] - t2, t4 = d[3] + d[2] + t2, all nonnegative
    lo = max(0, -d[3] - d[2])
    hi = min(d[1], -d[2])
    if lo > hi:
        return None
    return (-d[2] - lo, lo, d[1] - lo, d[3] + d[2] + lo)


ALPHA = ((0, 0, -1, 1), (0, 1, -1, 0), (-1, 1, 0, 0), (-1, 0, 0, 1))


def naive_pyramid_position(apex: tuple, orientation: int, v: tuple) -> str:
    """Where a level-matched v lies against the pyramid at apex: interior, boundary or outside.

    The pyramid is the apex plus nonnegative spans of the four ``ALPHA``
    edges; orientation -1 negates the edges.
    """
    # facet form of membership: the four functionals vanish pairwise on
    # adjacent edge vectors, so sign tests replace span decompositions
    d = tuple(orientation * (v[t] - apex[t]) for t in range(4))
    if d[0] > 0 or d[1] < 0 or d[2] > 0 or d[3] < 0:
        return "outside"
    if d[0] < 0 and d[1] > 0 and d[2] < 0 and d[3] > 0:
        return "interior"
    return "boundary"


def naive_p4_counts(p: tuple) -> tuple[int, int]:
    """(z, interior) for the four run lengths p, by walking the forward pyramid's faces.

    z counts the distinct points of the four faces, each spanned by two
    adjacent ``ALPHA`` edges from the apex (p1, 0, p3, 0), that lie strictly
    inside the opposite pyramid at (0, p2, 0, p4); interior counts the
    level-k points of the closed forward pyramid strictly inside the opposite
    one, k being half the sum of p.
    """
    k = sum(p) // 2
    apex_p = (p[0], 0, p[2], 0)
    apex_q = (0, p[1], 0, p[3])
    z_points = set()
    for face in range(4):
        e1, e2 = ALPHA[face], ALPHA[(face + 1) % 4]
        for t1 in range(2 * k + 1):
            for t2 in range(2 * k + 1):
                v = tuple(apex_p[t] + t1 * e1[t] + t2 * e2[t] for t in range(4))
                if naive_pyramid_position(apex_q, -1, v) == "interior":
                    z_points.add(v)
    interior = 0
    for v1 in range(p[0] + 1):
        for v2 in range(p[1] + 1):
            for v3 in range(p[2] + 1):
                v = (v1, v2, v3, k - v1 - v2 - v3)
                if v[3] < 0:
                    continue
                if (
                    naive_pyramid_position(apex_p, 1, v) != "outside"
                    and naive_pyramid_position(apex_q, -1, v) == "interior"
                ):
                    interior += 1
    return len(z_points), interior


def naive_chord_chain(members: set, u: int, v: int, n: int) -> list | None:
    """The lexicographically least chain u = S_0 c ... c S_t = v, as masks, or None.

    Depth-first search over one added bit at a time, lowest bit first, with a
    set of dead ends; each chain mask S needs S, S+{1}, S+{n}, S+{1,n} among
    ``members``.  This is the search the library's greedy walk replaced.
    """
    lo, hi = 1, 1 << (n - 1)
    dead = set()

    def extend(mask):
        if mask == v:
            return [mask]
        if mask in dead:
            return None
        free = v & ~mask
        while free:
            bit = free & -free
            free &= free - 1
            nxt = mask | bit
            if {nxt, nxt | lo, nxt | hi, nxt | lo | hi} <= members:
                rest = extend(nxt)
                if rest is not None:
                    return [mask] + rest
        dead.add(mask)
        return None

    return extend(u)
