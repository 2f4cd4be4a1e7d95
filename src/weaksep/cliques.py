"""Canonical collections, compatibility graphs, and exact clique machinery.

A domain plus a pairwise relation becomes a graph, each vertex's row built by one walk over
the elements, half the rows mirrored if the domain holds every complement; maximal weakly
separated collections are its maximal cliques.  Enumeration (Bron-Kerbosch with pivoting,
forced candidates folded, branches of at most two candidates read off without recursing)
and maximum-clique size (branch and bound with greedy colour classes as bitsets) are coded
independently to cross-validate.
Bron-Kerbosch memoises each branch by its candidate and excluded sets, keyed
``~(P << m | X)``: a branch met again replays its recorded visits, in order,
instead of recursing.  Records name their children by key, so the memo holds
each subtree once; it lives for one call and is cleared whenever it holds
``_BRANCHES`` (8,000) records; on an n = 10 seeding graph it peaks at 1.8 MB, the census's at 1.1 MB.
Purity needs only the number of maximal cliques of each size, so it walks the
same recursion without visits: each branch returns its census as one int whose
base-2^digit digits count the cliques per size, memoised under ``P << m | X``,
and a branch met again costs one add.  Moon and Moser's bound of 3^(m/3)
maximal cliques on m vertices sets the digit width, so no digit carries.  The
maximum splits the graph into the components of its complement, whose maxima
add up, and runs the branch and bound on each part of three or more vertices,
only their vertices relabelled by non-increasing degree; given automorphisms,
its root drops each searched vertex's orbit.  The census runs unsplit on the
vertices that are not universal, relabelled by non-decreasing degree, enumeration in the
domain's order: both check the maximum.  If complement keeps the domain, it maps vertex v
to m-1-v, and the census root counts a branch and its image once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import itemgetter, or_
from typing import Callable, Iterable, Iterator, Sequence

from .ground import (
    GroundSetMismatch,
    Subset,
    _check_ground_size,
    _chord_separated_masks,
    _complement_closed,
    _separated_rows,
    _weakly_separated_masks,
)

RELATIONS = ("weak", "chord")


class NotMaximal(ValueError):
    """The collection is not a maximal collection of its domain under the relation."""


class Collection:
    """A duplicate-free list of subsets over one ground set, in ascending mask order.

    The canonical order makes equality, hashing, and serialized output
    well-defined regardless of construction order.
    """

    __slots__ = ("n", "masks")

    def __init__(self, items: Iterable[Subset]):
        items = list(items)
        if not items:
            raise ValueError("empty collection needs an explicit ground size; use Collection.from_masks([], n)")
        n = items[0].n
        for s in items:
            if s.n != n:
                raise GroundSetMismatch(f"mixed ground sets in collection: [{n}] vs [{s.n}]")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "masks", tuple(sorted(set(s.mask for s in items))))

    @classmethod
    def from_masks(cls, masks: Iterable[int], n: int) -> "Collection":
        _check_ground_size(n)
        obj = cls._canonical(tuple(sorted(set(masks))), n)
        for m in obj.masks:
            if not 0 <= m < (1 << n):
                raise ValueError(f"mask {m:#x} has bits outside [1, {n}]")
        return obj

    @classmethod
    def _canonical(cls, masks: tuple[int, ...], n: int) -> "Collection":
        """Wrap masks that are already ascending, distinct and inside [n], unchecked."""
        obj = cls.__new__(cls)
        object.__setattr__(obj, "n", n)
        object.__setattr__(obj, "masks", masks)
        return obj

    def subsets(self) -> tuple[Subset, ...]:
        return tuple(Subset(m, self.n) for m in self.masks)

    def __len__(self) -> int:
        return len(self.masks)

    def __iter__(self) -> Iterator[Subset]:
        return iter(self.subsets())

    def __contains__(self, s: Subset) -> bool:
        return s.n == self.n and s.mask in self.masks

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Collection)
            and self.n == other.n
            and self.masks == other.masks
        )

    def __hash__(self) -> int:
        return hash((self.n, self.masks))

    def __repr__(self) -> str:
        return f"Collection(n={self.n}, {[list(Subset(m, self.n).elements()) for m in self.masks]})"

    def to_json(self) -> list[list[int]]:
        return [Subset(m, self.n).to_json() for m in self.masks]


def _relation_predicate(relation: str) -> Callable[[int, int], bool]:
    if relation == "weak":
        return _weakly_separated_masks
    if relation == "chord":
        return _chord_separated_masks
    raise ValueError(f"unknown relation {relation!r}; expected one of {RELATIONS}")


def _first_unrelated_pair(masks: Sequence[int], relation: str = "weak") -> tuple[int, int] | None:
    """The first pair (a, b), a before b in ``masks``, that the relation rejects."""
    pred = _relation_predicate(relation)
    for idx, a in enumerate(masks):
        for b in masks[idx + 1:]:
            if not pred(a, b):
                return a, b
    return None


def _require_maximal(masks: Sequence[int], rank: int, relation: str = "weak") -> None:
    """Raise NotMaximal unless the masks are pairwise related and exactly ``rank`` many.

    The one maximality rule.  It holds in a pure domain of that rank: every
    related collection there lies in a maximal one of exactly ``rank`` sets.
    """
    word = "weakly" if relation == "weak" else relation
    if _first_unrelated_pair(masks, relation) is not None:
        raise NotMaximal(f"collection is not {word} separated")
    if len(masks) != rank:
        raise NotMaximal(f"collection is not maximal {word} separated: {len(masks)} sets, not {rank}")


@dataclass(frozen=True)
class CompatGraph:
    """A domain with one adjacency bitset per vertex (symmetric, irreflexive)."""

    vertices: Collection
    adj: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.adj)


def build_compat_graph(domain: Collection, relation: str = "weak") -> CompatGraph:
    """Materialize the graph whose edges are exactly the related pairs.

    Row S is one walk of ``ground._separated_rows`` over the elements, which
    labels every other set T with A at x in S\\T and B at x in T\\S: T is chord
    separated from S iff the labels form at most three runs, one difference
    surrounding the other, and weakly iff moreover they avoid ABA when |T| < |S|
    and BAB when |T| > |S|, since the smaller difference must miss the other's
    span and |S\\T| - |T\\S| = |S| - |T|.  No pair predicate is called.
    """
    _relation_predicate(relation)  # refuses an unknown relation
    return CompatGraph(domain, tuple(_separated_rows(domain.masks, domain.n, relation == "weak")))


# one bound, in branch records, for both memos below; the n = 10 seeding graph fills neither
_BRANCHES = 8000


def _bron_kerbosch(adj: tuple[int, ...], weight: Sequence[int], visit: Callable[[int], None]) -> None:
    """Visit every maximal clique once, as the sum of its vertices' weights.

    Forced candidates, adjacent to every other candidate, lie in every maximal
    clique of their branch and are folded into it at once.  The pivot is the
    remaining vertex of P or X with the most candidate neighbours, ties toward
    the lowest index, which fixes the recursion tree and the visit order.  A
    child with at most two candidates is settled in its caller's loop: one
    candidate, or two adjacent ones, make one clique, two non-adjacent ones a
    clique each, in the order the recursion would visit them.  Weights must
    not be negative.

    A branch does the same work wherever its (P, X) pair comes up, so each one
    is recorded under the key ``~(P << m | X)``, negative so that it stands
    apart from the visits in a record.  A record lists the branch's visits
    relative to the weight it entered with, and each child it recursed into as
    that child's key followed by the child's entry weight, relative in the
    same way.  A branch met again replays its record in order, replaying the
    children it names or expanding those no longer held, so the visits and
    their order stay the same.  Repeats come from anywhere in the tree, so the
    memo spans the whole call; since records name their children instead of
    holding their visits, clearing it whenever it holds ``_BRANCHES`` records
    bounds its memory.  A visit may raise to stop the enumeration; the
    exception passes through unchanged.
    """
    m = len(adj)
    low = (1 << m) - 1
    memo: dict[int, tuple[int, ...]] = {}

    def remember(key: int, record: Sequence[int]) -> None:
        if len(memo) >= _BRANCHES:
            memo.clear()
        memo[key] = tuple(record)

    def replay(acc: int, record: tuple[int, ...]) -> None:
        items = iter(record)
        for r in items:
            if r >= 0:
                visit(acc + r)
                continue
            # a child's key, then its entry weight relative to this record
            off = next(items)
            sub = memo.get(r)
            if sub is None:
                expand(acc + off, ~r >> m, ~r & low, r)
            else:
                replay(acc + off, sub)

    def expand(acc: int, p: int, x: int, key: int) -> None:
        # p is never empty; a branch with at most two candidates is settled by its
        # caller, unless it is the root
        top = p.bit_count() - 1
        pivot, best, forced, own = -1, -1, 0, 0
        q = p
        while q:
            u = (q & -q).bit_length() - 1
            q &= q - 1
            d = (p & adj[u]).bit_count()
            if d == top:
                forced |= 1 << u
                own += weight[u]
                x &= adj[u]
            elif d > best:
                best, pivot = d, u
        # what remains of P and X is adjacent to every forced vertex, so degrees
        # into p keep their order without them, and no other candidate is forced
        rest = p & ~forced
        if not rest:
            if not x:
                visit(acc + own)
            remember(key, () if x else (own,))
            return
        q = x
        while q:
            u = (q & -q).bit_length() - 1
            q &= q - 1
            d = (p & adj[u]).bit_count()
            if d > top:
                remember(key, ())
                return  # u extends every clique of this branch
            if d > best or (d == best and u < pivot):
                best, pivot = d, u
        record: list[int] = []
        p = rest
        cand = p & ~adj[pivot]
        while cand:
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            row = adj[v]
            inner = p & row
            xv, rv = x & row, own + weight[v]
            if inner.bit_count() > 2:
                child = ~(inner << m | xv)
                record += (child, rv)
                sub = memo.get(child)
                if sub is None:
                    expand(acc + rv, inner, xv, child)
                else:
                    replay(acc + rv, sub)
            elif not inner:
                if not xv:
                    visit(acc + rv)
                    record.append(rv)
            else:
                # one or two candidates: the child's cliques are read off, each
                # visited unless a vertex of X extends it
                u, w = (inner & -inner).bit_length() - 1, inner.bit_length() - 1
                if u == w:
                    if not xv & adj[u]:
                        r = rv + weight[u]
                        visit(acc + r)
                        record.append(r)
                elif adj[u] >> w & 1:
                    if not xv & adj[u] & adj[w]:
                        r = rv + weight[u] + weight[w]
                        visit(acc + r)
                        record.append(r)
                else:
                    if not xv & adj[u]:
                        r = rv + weight[u]
                        visit(acc + r)
                        record.append(r)
                    if not xv & adj[w]:
                        r = rv + weight[w]
                        visit(acc + r)
                        record.append(r)
            p &= ~(1 << v)
            x |= 1 << v
        remember(key, record)

    try:
        if m:
            expand(0, low, 0, ~(low << m))
    finally:
        # the closures name each other, so drop them, also when a visit raises,
        # rather than leave a cycle that holds adj, weight, visit and the memo
        expand = replay = None


def _clique_census(adj: Sequence[int], digit: int, twin: Sequence[int] | None = None) -> int:
    """The maximal cliques counted by size, as the int whose base-2^digit digit r counts size r.

    ``_bron_kerbosch``'s recursion, with its folding, pivot and settling of
    short branches, so the same cliques.  A branch returns its census relative
    to the size it entered with, 0 if a vertex of X extends it: its children's
    censuses are summed one size above what it folded and shifted once.  A
    child is memoised under ``P << m | X``, cleared at ``_BRANCHES`` records,
    so a repeat costs a lookup and an add.  Every digit of every partial sum
    counts distinct maximal cliques, so a digit wider than the largest count
    never carries.

    ``twin``, if given, is a fixed-point-free involution σ of the vertices that
    keeps adj, so the root's P and X are unions of pairs {v, σv}.  The root
    walks its candidates and their twins pair by pair: if v and σv are not
    adjacent, σv's branch is the image of v's, so v's census counts twice; if
    they are, σv is searched right after v, while σ still fixes P and X.
    """
    m = len(adj)
    memo: dict[int, int] = {}
    one, two = 1 << digit, 1 << 2 * digit  # one or two vertices more

    def census(p: int, x: int) -> int:
        # p is never empty; as in _bron_kerbosch's expand
        top = p.bit_count() - 1
        pivot, best, forced, own = -1, -1, 0, 0
        q = p
        while q:
            u = (q & -q).bit_length() - 1
            q &= q - 1
            d = (p & adj[u]).bit_count()
            if d == top:
                forced |= 1 << u
                own += 1
                x &= adj[u]
            elif d > best:
                best, pivot = d, u
        rest = p & ~forced
        if not rest:
            return 0 if x else 1 << digit * own
        q = x
        while q:
            u = (q & -q).bit_length() - 1
            q &= q - 1
            d = (p & adj[u]).bit_count()
            if d > top:
                return 0
            if d > best or (d == best and u < pivot):
                best, pivot = d, u
        total = 0  # relative to own + 1, the size each child enters with
        p = rest
        cand = p & ~adj[pivot]
        while cand:
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            row = adj[v]
            inner = p & row
            xv = x & row
            if inner.bit_count() > 2:
                key = inner << m | xv
                sub = memo.get(key)
                if sub is None:
                    sub = census(inner, xv)
                    if len(memo) >= _BRANCHES:
                        memo.clear()
                    memo[key] = sub
                total += sub
            elif not inner:
                if not xv:
                    total += 1
            else:
                u, w = (inner & -inner).bit_length() - 1, inner.bit_length() - 1
                if u == w:
                    if not xv & adj[u]:
                        total += one
                elif adj[u] >> w & 1:
                    if not xv & adj[u] & adj[w]:
                        total += two
                else:
                    if not xv & adj[u]:
                        total += one
                    if not xv & adj[w]:
                        total += one
            p &= ~(1 << v)
            x |= 1 << v
        return total << digit * (own + 1)

    def root() -> int:
        # census's root, its folding and pivot included; a candidate brings its twin
        own = sum(1 << v for v in range(m) if adj[v] | 1 << v == (1 << m) - 1)
        p = (1 << m) - 1 & ~own
        if not p:
            return 1 << digit * own.bit_count()
        pivot = max((u for u in range(m) if p >> u & 1), key=lambda u: adj[u].bit_count())
        cand, x, total = p & ~adj[pivot], 0, 0
        while cand:
            v = (cand & -cand).bit_length() - 1
            w = twin[v]
            cand &= ~(1 << v | 1 << w)
            adjacent = adj[v] >> w & 1
            for u in (v, w)[:1 + adjacent]:
                inner, xu = p & adj[u], x & adj[u]
                total += (census(inner, xu) if inner else int(not xu)) << 1 - adjacent
                p, x = p & ~(1 << u), x | 1 << u
            p, x = p & ~(1 << w), x | 1 << w
        return total << digit * (own.bit_count() + 1)

    out = (census((1 << m) - 1, 0) if twin is None else root()) if m else 0
    census = None  # it names itself, a cycle that would hold adj and the memo
    return out


def enumerate_maximal_cliques(g: CompatGraph) -> list[Collection]:
    """All inclusion-maximal cliques, each once, in canonical stream order."""
    masks = g.vertices.masks
    found: list[tuple[int, ...]] = []

    def visit(r: int) -> None:
        out = []
        while r:  # vertices are in ascending mask order, so low bit first
            out.append(masks[(r & -r).bit_length() - 1])
            r &= r - 1
        found.append(tuple(out))

    _bron_kerbosch(g.adj, [1 << v for v in range(len(masks))], visit)
    found.sort()
    return [Collection._canonical(t, g.vertices.n) for t in found]


def _co_components(adj: Sequence[int]) -> list[int]:
    """The vertex sets of the complement graph's components, as bitsets, by lowest vertex.

    Every vertex of one part is adjacent to every vertex of every other part,
    so the graph is the join of its parts.
    """
    parts = []
    rest = (1 << len(adj)) - 1
    while rest:
        part = todo = rest & -rest
        while todo:  # grow the part along non-edges
            u = (todo & -todo).bit_length() - 1
            todo &= todo - 1
            new = rest & ~adj[u] & ~part
            part |= new
            todo |= new
        rest &= ~part
        parts.append(part)
    return parts


def _branch_and_bound(adj: Sequence[int], p: int, orbit: Callable[[int], int] | None = None) -> int:
    """The largest clique inside the vertex set ``p``, by greedy-coloring bounds.

    A branch colours its candidates greedily, lowest index first, into
    classes of one bitset each (San Segundo et al. 2011), then branches from
    the highest colour down, highest index first within a class, until the
    colour cannot lift it past the best: Tomita et al.'s order (WALCOM 2010).

    ``orbit(v)``, if given, is v's orbit as a bitset under a group of automorphisms
    that each map ``p`` onto or off itself, as for a join part.  Once the root has
    searched v it drops v's whole orbit, members still waiting in its classes
    too: p stays a union of orbits, so an image of v has a best clique as large.
    """
    best = 0
    rest = [~(row | 1 << v) for v, row in enumerate(adj)]  # v's non-neighbours, which may join its class

    def expand(size: int, p: int, orbit: Callable[[int], int] | None = None) -> None:
        nonlocal best
        classes = []
        uncolored = p
        while uncolored:
            cls, q = 0, uncolored
            while q:
                b = q & -q
                cls |= b
                q &= rest[b.bit_length() - 1]
            uncolored &= ~cls
            classes.append(cls)
        for color in range(len(classes), 0, -1):
            cls = classes[color - 1]
            while cls:
                if size + color <= best:
                    return
                v = cls.bit_length() - 1
                b = 1 << v
                cls ^= b
                if not p & b:
                    continue  # the root dropped it with the orbit of a vertex it searched
                nxt = p & adj[v]
                if nxt:
                    expand(size + 1, nxt)
                elif size + 1 > best:
                    best = size + 1
                p &= ~orbit(v) if orbit else ~b

    expand(0, p, orbit)
    expand = None  # it names itself, a cycle that would hold adj until a full collection
    return best


def _degree_order(adj: Sequence[int], vertices: Iterable[int], descending: bool) -> list[int]:
    """The given vertices by degree, highest first if ``descending`` else lowest first, ties by index.

    Descending, the colouring meets high-degree vertices first and bounds tighter
    (Tomita et al. 2010); ascending, the census meets fewer branches (Eppstein et
    al. 2010).
    """
    return sorted(vertices, key=lambda v: (-adj[v].bit_count() if descending else adj[v].bit_count(), v))


def _relabelled(adj: Sequence[int], order: Sequence[int]) -> list[int]:
    """The subgraph on ``order``, ``order[t]`` renamed t: from each row's binary text, bits order[-1], ..., order[0] as one numeral."""
    if len(order) <= 1:
        return [0] * len(order)
    pick, digits = itemgetter(*[len(adj) - 1 - v for v in reversed(order)]), f"0{len(adj)}b"
    return [int("".join(pick(format(adj[v], digits))), 2) for v in order]


def max_clique_size(g: CompatGraph, symmetries: Callable[[], Sequence[Callable[[int], int]]] = tuple) -> int:
    """Exact maximum-clique size: the sum of the maxima of the graph's join parts.

    The parts are the complement's components.  A part of one vertex (a
    universal vertex) or two (a non-edge) adds 1; only the vertices of the
    other parts are relabelled, and each such part runs the branch and bound
    alone, its root pruned by the orbits under the pair's maps (those that
    move the part never meet it).  ``symmetries`` lists those maps of vertex
    masks, which with the identity form a group of automorphisms; it is
    called only if some part is searched.  Without maps the search is plain,
    and the enumerator stays unsplit, so the answers cross-check each other.
    """
    parts = _co_components(g.adj)
    searched = [part for part in parts if part.bit_count() > 2]
    if not searched:
        return len(parts)
    # edges between parts are complete, so the degree order restricted to a
    # part is the part's own: each part gets the tree of the whole relabel
    kept = reduce(or_, searched)
    order = _degree_order(g.adj, [v for v in range(kept.bit_length()) if kept >> v & 1], True)
    adj = _relabelled(g.adj, order)
    searched = [sum(1 << t for t, v in enumerate(order) if part >> v & 1) for part in searched]
    maps = symmetries()
    masks = [g.vertices.masks[v] for v in order] if maps else []
    index = {mask: 1 << t for t, mask in enumerate(masks)}

    def orbit(v: int) -> int:
        # an automorphism permutes the parts, so v's images lie in searched
        # parts, and those outside its own part never meet the search
        return reduce(or_, (index[f(masks[v])] for f in maps), 1 << v)

    return len(parts) - len(searched) + sum(_branch_and_bound(adj, part, orbit if maps else None) for part in searched)


@dataclass(frozen=True)
class PurityReport:
    """The maximal-clique sizes of a domain under one relation, as size -> count."""

    domain_size: int
    clique_sizes: dict[int, int]

    @property
    def is_pure(self) -> bool:
        return len(self.clique_sizes) <= 1

    @property
    def rank(self) -> int | None:
        """The one clique size of a pure non-empty domain, else None."""
        return next(iter(self.clique_sizes)) if len(self.clique_sizes) == 1 else None

    @property
    def max_size(self) -> int:
        return max(self.clique_sizes, default=0)

    @property
    def clique_count(self) -> int:
        return sum(self.clique_sizes.values())

    def to_json(self) -> dict:
        return {
            "domain_size": self.domain_size,
            "pure": self.is_pure,
            "rank": self.rank,
            "clique_sizes": {str(k): v for k, v in sorted(self.clique_sizes.items())},
            "clique_count": self.clique_count,
        }


def _clique_sizes(adj: Sequence[int], twin: Sequence[int] | None = None) -> dict[int, int]:
    """The maximal cliques counted by size, as size -> count, on the graph relabelled by ascending degree.

    A universal vertex lies in every maximal clique, so the census counts the
    other m vertices (a complete graph's all) and each size gains one per
    universal vertex.  They have at most 3^(m/3) < 2^(17m/32) maximal cliques
    (Moon and Moser 1965), so census digits of ``m * 17 // 32 + 2`` bits never
    carry.  ``twin``, ``_clique_census``'s involution, keeps the universal
    vertices together, so it is restricted and relabelled with the graph.
    """
    m = len(adj)
    keep = [v for v in range(m) if adj[v].bit_count() < m - 1] or range(m)
    order = _degree_order(adj, keep, False)
    digit, universal = len(order) * 17 // 32 + 2, m - len(order)
    if twin is not None:
        label = {v: t for t, v in enumerate(order)}
        twin = [label[twin[v]] for v in order]
    census, low = _clique_census(_relabelled(adj, order), digit, twin), (1 << digit) - 1
    return {r + universal: c for r in range(len(order) + 1) if (c := census >> digit * r & low)}


def purity_report(domain: Collection, relation: str = "weak") -> PurityReport:
    """Count the domain's maximal cliques by size, without listing them, and decide purity.

    Complement, S -> [n] \\ S, keeps weak and chord separation for sets of any
    sizes, so in a domain that holds every complement, as lr domains, chord
    power sets and complementary pair domains do, it is the census's ``twin``.
    """
    m, adj = len(domain), build_compat_graph(domain, relation).adj
    twin = range(m - 1, -1, -1) if _complement_closed(domain.masks, domain.n) else None
    return PurityReport(m, _clique_sizes(adj, twin))


def _greedy_maximal(masks: Iterable[int], candidates: Iterable[int], relation: str = "weak") -> list[int]:
    """Grow pairwise related masks to a maximal collection, trying each candidate once, in order.

    In ascending mask order that is the lexicographically least one holding the masks.
    """
    related = _relation_predicate(relation)
    chosen = list(masks)
    member = set(chosen)
    # one pass: a candidate passed over stays unaddable as chosen grows, and
    # near candidates tend to clash with the same member, so it is tried first
    last = None
    for m in candidates:
        if m in member or (last is not None and not related(m, last)):
            continue
        last = next((x for x in chosen if not related(m, x)), None)
        if last is None:
            chosen.append(m)
    return chosen


def complete_to_maximal(partial: Collection, domain: Collection) -> Collection:
    """Grow a weakly separated collection greedily to a maximal one in the domain.

    Candidates are taken in canonical (ascending mask) order, so the result is
    deterministic.  The input must lie inside the domain and be pairwise
    weakly separated.
    """
    if partial.n != domain.n:
        raise GroundSetMismatch(f"ground sets differ: [{partial.n}] vs [{domain.n}]")
    domain_set = set(domain.masks)
    for m in partial.masks:
        if m not in domain_set:
            raise ValueError(f"partial collection member {Subset(m, partial.n)} not in domain")
    bad = _first_unrelated_pair(partial.masks)
    if bad is not None:
        a, b = bad
        raise ValueError(
            f"partial collection is not weakly separated: "
            f"{Subset(a, partial.n)} vs {Subset(b, partial.n)}"
        )
    return Collection.from_masks(_greedy_maximal(partial.masks, domain.masks), domain.n)
