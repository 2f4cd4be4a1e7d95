"""Four-interval lattice projection and the pyramid counts behind exact distances.

Subsets project to integer 4-vectors of interval-intersection counts, living
on the hyperplane of constant coordinate sum.  Around each projected point sit
two opposite infinite square pyramids that no compatible point may enter;
square moves shift projections along (-1, 1, -1, 1) or leave the multiset
alone.  Counting lattice points on and between the pyramids of a
four-interval complementary pair reproduces the closed-form distance values.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import comb

from .cliques import Collection
from .domains import _distance_form, circle_partition
from .ground import Subset
from .mutations import MutationGraph, SquareMove, _check_applicable, _neighbors

ALPHA = ((0, 0, -1, 1), (0, 1, -1, 0), (-1, 1, 0, 0), (-1, 0, 0, 1))
SHIFT = (-1, 1, -1, 1)


def _split_windows(split: tuple[int, int, int, int], n: int) -> tuple[int, ...]:
    if len(split) != 4 or any(x < 1 for x in split):
        raise ValueError(f"split must be four positive integers, got {split}")
    if sum(split) != n:
        raise ValueError(f"split {split} does not sum to the ground size {n}")
    return tuple(((1 << x) - 1) << lo for x, lo in zip(split, (0, *accumulate(split))))


def _counts(mask: int, windows: tuple[int, ...]) -> tuple[int, int, int, int]:
    return tuple((mask & w).bit_count() for w in windows)


def phi_subset(s: Subset, split: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    """Interval-intersection counts of one subset under the 4-way split of [n]."""
    return _counts(s.mask, _split_windows(split, s.n))


def phi(c: Collection, split: tuple[int, int, int, int]) -> list[tuple[int, int, int, int]]:
    """Projections of every member, in the collection's canonical order."""
    windows = _split_windows(split, c.n)
    return [_counts(m, windows) for m in c.masks]


def _position(apex: tuple[int, ...], orientation: int, v: tuple[int, ...]) -> str:
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


@dataclass(frozen=True)
class P4Counts:
    """Lattice counts attached to a four-run complementary pair.

    ``z_count`` is the number of integral points on the boundary faces of the
    forward pyramid that lie strictly inside the opposite one; the interior
    count uses the half-open convention (closed forward pyramid, open
    opposite), which is what the closed forms count.
    """

    p: tuple[int, int, int, int]
    z_count: int
    z_formula: int
    interior_pq_count: int
    cuboid_formula: int

    @property
    def match(self) -> bool:
        return self.z_count == self.z_formula and self.interior_pq_count == self.cuboid_formula

    def to_json(self) -> dict:
        return {
            "p": list(self.p),
            "z_count": self.z_count,
            "z_formula": self.z_formula,
            "pq_interior": self.interior_pq_count,
            "cuboid_formula": self.cuboid_formula,
            "match": self.match,
        }


def normalize_p4(p: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    """Rotate the run-length tuple until the first entry is a maximum.

    Single-step rotations swap the roles of the set and its complement, so all
    four rotations describe one geometry; ties break toward the
    lexicographically largest tuple for determinism.
    """
    rotations = [tuple(p[(t + r) % 4] for t in range(4)) for r in range(4)]
    valid = [q for q in rotations if q[0] >= max(q[1:])]
    return max(valid)


def p4_counts(a: Subset) -> P4Counts:
    """Exhaustive lattice counts for a set whose circle partition has four runs."""
    part = circle_partition(a)
    if part.u != 2:
        raise ValueError(f"expected exactly four runs, got {2 * part.u}")
    p = part.lengths
    k = part.k
    apex_p = (p[0], 0, p[2], 0)
    apex_q = (0, p[1], 0, p[3])

    z_points: set[tuple[int, ...]] = set()
    for face in range(4):
        e1, e2 = ALPHA[face], ALPHA[(face + 1) % 4]
        for t1 in range(2 * k + 1):
            for t2 in range(2 * k + 1):
                v = tuple(apex_p[t] + t1 * e1[t] + t2 * e2[t] for t in range(4))
                if _position(apex_q, -1, v) == "interior":
                    z_points.add(v)
    z_formula = _distance_form(k, p)

    interior = 0
    for v1 in range(p[0] + 1):
        for v2 in range(p[1] + 1):
            for v3 in range(p[2] + 1):
                v4 = k - v1 - v2 - v3
                if v4 < 0:
                    continue
                v = (v1, v2, v3, v4)
                if _position(apex_p, 1, v) != "outside" and _position(apex_q, -1, v) == "interior":
                    interior += 1
    q = normalize_p4(p)
    cuboid = q[1] * q[2] * q[3] - 2 * comb(q[2] + 1, 3)
    return P4Counts(p, len(z_points), z_formula, interior, cuboid)


@dataclass(frozen=True)
class NoInteriorVerdict:
    """Result of scanning a collection for forbidden pyramid-interior pairs."""

    ok: bool
    apex: Subset | None = None
    inside: Subset | None = None


def _interior_pair(points: list[tuple[int, ...]]) -> tuple[int, int] | None:
    """The first (i, j), i < j, with either point strictly inside the other's pyramids.

    v is interior to the +1 pyramid at a exactly when a is interior to the -1
    pyramid at v, so each unordered pair is tested once, in both orientations.
    """
    for idx, apex in enumerate(points):
        for jdx in range(idx + 1, len(points)):
            v = points[jdx]
            d = tuple(v[t] - apex[t] for t in range(4))
            if (d[0] < 0 and d[1] > 0 and d[2] < 0 and d[3] > 0) or (
                d[0] > 0 and d[1] < 0 and d[2] > 0 and d[3] < 0
            ):
                return idx, jdx
    return None


def check_no_interior(c: Collection, split: tuple[int, int, int, int]) -> NoInteriorVerdict:
    """Verify no member projects inside another's pyramids; the earlier member is the apex."""
    pair = _interior_pair(phi(c, split))
    if pair is None:
        return NoInteriorVerdict(True)
    return NoInteriorVerdict(False, Subset(c.masks[pair[0]], c.n), Subset(c.masks[pair[1]], c.n))


@dataclass(frozen=True)
class MoveProjection:
    """How one square move acts on the projected multiset: a shift or nothing."""

    kind: str
    sign: int | None


def _shift_sign(a: int, b: int, c: int, d: int, windows: tuple[int, ...]) -> int | None:
    """The sign of the shift when a, b, c, d sit in four distinct intervals, else None.

    The sign is +1 when {a, c} lies in the first and third intervals, so all
    four labellings of one square agree.
    """
    ac = 1 << (a - 1) | 1 << (c - 1)
    if _counts(ac | 1 << (b - 1) | 1 << (d - 1), windows) != (1, 1, 1, 1):
        return None
    return 1 if ac & (windows[0] | windows[2]) == ac else -1


def move_projection_effect(
    c: Collection, m: SquareMove, split: tuple[int, int, int, int]
) -> MoveProjection:
    """Shift exactly when the move's four elements sit in four distinct intervals.

    Otherwise the image set of the projected collection is unchanged: the
    removed member shares its projection with a member that stays, and the
    added member lands on a projection already present.
    """
    _check_applicable(c, m)
    sign = _shift_sign(m.a, m.b, m.c, m.d, _split_windows(split, c.n))
    return MoveProjection("unchanged", None) if sign is None else MoveProjection("shift", sign)


def check_projection_laws(
    graph: MutationGraph, split: tuple[int, int, int, int]
) -> tuple[int, bool]:
    """Check the no-interior rule on each node and the projection effect of its moves.

    Nodes, moves and children are ints of the grid that built the graph, and
    its nodes are maximal, so nothing is checked or encoded again.  Returns
    ``(moves_checked, consistent)``; every move of every node is counted.
    """
    windows = _split_windows(split, graph.n)
    grid = graph.grid
    points: dict[int, list[tuple[int, ...]]] = {}

    def project(node: int) -> list[tuple[int, ...]]:
        if node not in points:
            points[node] = [_counts(m, windows) for m in grid.masks(node)]
        return points[node]

    checked = 0
    consistent = True
    for node in graph.ints:
        consistent &= _interior_pair(project(node)) is None
        for flip, (s, a, b, c, d, added) in _neighbors(grid, node):
            checked += 1
            sign = _shift_sign(a, b, c, d, windows)
            if sign is None:
                consistent &= set(project(node)) == set(project(node ^ flip))
            else:
                src = _counts(s | 1 << (a - 1) | 1 << (c - 1), windows)
                dst = _counts(added, windows)
                consistent &= all(dst[t] - src[t] == sign * SHIFT[t] for t in range(4))
    return checked, consistent
