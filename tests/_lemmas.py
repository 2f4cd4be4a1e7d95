"""Helpers of the paper's lemma checks that the library itself never calls.

No CLI verb, demo or benchmark needs them, so they live beside the tests that
use them, built on the library's own predicates:

- 0-based labels on [0, n] and back.  Subsets of [0, n] are carried on the
  ground set [n + 1] via x -> x + 1, as ``weaksep.lr_domain`` carries them.
- The four-region profile of an element of a balanced pair domain.
- Simple and generalized cyclic patterns, and the split of everything
  compatible with a simple pattern into its inside and outside domains.
"""

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from weaksep import Collection, GroundSetMismatch, Subset, gale_leq, is_weakly_separated
from weaksep.cliques import _first_unrelated_pair
from weaksep.domains import CirclePartition, PairContext
from weaksep.ground import _arc, _check_same_ground, _power_set, _weakly_separated_masks


def lr_subset(labels, n: int) -> Subset:
    """Subset of [0, n] given by 0-based labels, embedded in the ground set [n+1]."""
    return Subset.of((x + 1 for x in labels), n + 1)


def lr_labels(s: Subset) -> tuple[int, ...]:
    return tuple(x - 1 for x in s.elements())


# --- four-region element profile ---------------------------------------------

class ProfileNotFound(RuntimeError):
    """No valid four-region profile exists for the given element."""


def intervals_unrotated(part: CirclePartition) -> tuple[Subset, ...]:
    """The partition's intervals mapped back to the original circle coordinates."""
    return tuple(iv.rotate(-part.offset) for iv in part.intervals)


@dataclass(frozen=True)
class ElementProfile:
    """Certificate that a domain element decomposes into four circle regions.

    Walking clockwise: (alpha, beta) lies between I and J on one side, then
    [beta, gamma] avoids everything outside the intersection, (gamma, delta)
    lies between I and J again, and [delta, alpha] covers the whole union.
    Endpoint run indices are 1-based positions into the pair's circle
    partition; None when the corresponding region misses the symmetric
    difference entirely.
    """

    alpha: int
    beta: int
    gamma: int
    delta: int
    left_endpoint: int | None
    right_endpoint: int | None
    internal: tuple[int, ...]


def characterize_element(ctx: PairContext, r: Subset) -> ElementProfile:
    """Search for the lexicographically least valid four-tuple (alpha, beta, gamma, delta).

    The endpoint regions are the open arcs (alpha, beta) and (gamma, delta);
    the half-open variants are not total over balanced domains.  An open arc
    that lies between I and J meets the symmetric difference in elements of
    one sign, an arc of the reduced circle, so it lies inside one run.
    Exhaustive over all cyclically arranged tuples, so O(n^4) validity checks
    per element.
    """
    if not ctx.balanced:
        raise ValueError("element profiles are defined for balanced pairs only")
    _check_same_ground(r, ctx.i)
    if len(r) != ctx.m or not (is_weakly_separated(r, ctx.i) and is_weakly_separated(r, ctx.j)):
        raise ValueError("element is not a member of the pair domain")
    n = r.n
    imask, jmask, rmask = ctx.i.mask, ctx.j.mask, r.mask
    diff = imask ^ jmask
    inter = imask & jmask
    union = imask | jmask
    assert ctx.partition is not None
    # preimages in [n] of the circle-partition runs: pure-mask containment
    # tests replace explicit projections (proj is an order bijection on the
    # symmetric difference)
    pos_to_elem = ctx.sym_diff
    preimages = []
    for iv in intervals_unrotated(ctx.partition):
        pm = 0
        for p in iv.elements():
            pm |= 1 << (pos_to_elem[p - 1] - 1)
        preimages.append(pm)

    def between(region: int) -> bool:
        ri, rr, rj = imask & region, rmask & region, jmask & region
        return (ri & ~rr == 0 and rr & ~rj == 0) or (rj & ~rr == 0 and rr & ~ri == 0)

    def run_index(region: int) -> int | None:
        cell = region & diff
        if cell == 0:
            return None
        return next(pos + 1 for pos, pre in enumerate(preimages) if cell & ~pre == 0)

    for alpha, beta, gamma, delta in itertools.product(range(1, n + 1), repeat=4):
        ob = (beta - alpha) % n
        og = (gamma - alpha) % n
        od = (delta - alpha - 1) % n + 1
        if ob == 0 or og < ob or od <= og:
            continue
        # the open arcs (alpha, beta) and (gamma, delta), empty between neighbours
        reg1 = _arc(alpha + 1, beta - 1, n) if ob > 1 else 0
        reg2 = _arc(beta, gamma, n)
        reg3 = _arc(gamma + 1, delta - 1, n) if (delta - gamma) % n > 1 else 0
        reg4 = _arc(delta, alpha, n)
        if not between(reg1):
            continue
        if rmask & reg2 & ~inter:
            continue
        if not between(reg3):
            continue
        if union & reg4 & ~rmask:
            continue
        left = run_index(reg3)
        right = run_index(reg1)
        internal = tuple(
            pos + 1
            for pos, pre in enumerate(preimages)
            if pre & ~rmask == 0 and pos + 1 not in (left, right)
        )
        return ElementProfile(alpha, beta, gamma, delta, left, right, internal)
    raise ProfileNotFound(
        f"no valid four-region profile for {r}; the element or the context is out of contract"
    )



# --- cyclic patterns and their inside/outside split -------------------------

def _pattern_masks(sets: Sequence[Subset], step: int) -> list[int]:
    """The masks of a cyclic pattern: two or more distinct, pairwise weakly separated
    sets over one ground set, each ``step`` elements from the next.  Raises ValueError otherwise."""
    if len(sets) < 2:
        raise ValueError("pattern needs at least two sets")
    if any(s.n != sets[0].n for s in sets):
        raise GroundSetMismatch("pattern mixes ground sets")
    masks = [s.mask for s in sets]
    if len(set(masks)) != len(masks):
        raise ValueError("pattern sets must be pairwise distinct")
    for a, (x, y) in enumerate(zip(masks, masks[1:] + masks[:1])):
        if (x ^ y).bit_count() != step:
            count = "one element" if step == 1 else f"{step} elements"
            raise ValueError(f"step {a}: symmetric difference must have {count}")
    if _first_unrelated_pair(masks) is not None:
        raise ValueError("pattern is not weakly separated")
    return masks


@dataclass(frozen=True)
class SimpleCyclicPattern:
    """A cyclic, pairwise weakly separated sequence of distinct sets with unit steps."""

    sets: tuple[Subset, ...]

    def __post_init__(self) -> None:
        _pattern_masks(self.sets, 1)

    @classmethod
    def make(cls, sets: Iterable[Subset]) -> "SimpleCyclicPattern":
        sets = list(sets)
        if sets and sets[0] == sets[-1]:
            sets = sets[:-1]
        return cls(tuple(sets))

    @property
    def n(self) -> int:
        return self.sets[0].n

    def slope_indices(self) -> tuple[int, ...]:
        r = len(self.sets)
        return tuple(
            i
            for i in range(r)
            if len(self.sets[(i - 1) % r]) != len(self.sets[(i + 1) % r])
        )


def is_generalized_cyclic_pattern(sets: Sequence[Subset]) -> bool:
    """Validity check only: distinct, equal-size, weakly separated, two-element steps."""
    if sets and sets[0] == sets[-1]:
        sets = sets[:-1]
    try:
        masks = _pattern_masks(sets, 2)
    except ValueError:
        return False
    return len({m.bit_count() for m in masks}) == 1


def simple_pattern_split(p: SimpleCyclicPattern) -> tuple[Collection, Collection]:
    """Split everything compatible with the pattern into inside and outside domains.

    Compatible sets of size h are classified by the parity of how many size-h
    slopes sit below them in the base Gale order: odd lands inside, even
    outside.  The two domains overlap exactly in the pattern and union to the
    full compatible family.
    """
    n = p.n
    pattern_masks = {s.mask for s in p.sets}
    slopes_by_size: dict[int, list[Subset]] = {}
    for i in p.slope_indices():
        slopes_by_size.setdefault(len(p.sets[i]), []).append(p.sets[i])
    inside = set(pattern_masks)
    outside = set(pattern_masks)
    members = [s.mask for s in p.sets]
    for mask in _power_set(n):
        if not all(_weakly_separated_masks(mask, m) for m in members):
            continue
        x = Subset(mask, n)
        below = sum(1 for s in slopes_by_size.get(len(x), []) if gale_leq(s, x, 1))
        (inside if below % 2 else outside).add(mask)
    return Collection.from_masks(inside, n), Collection.from_masks(outside, n)

