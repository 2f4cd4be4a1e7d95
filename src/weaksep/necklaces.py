"""Decorated permutations, necklaces, and positroid membership.

A necklace is the cyclic sequence of k-subsets obeying the one-element
transition rule; it is equivalent data to a permutation with colored fixed
points.  Alignments count the quadruples that cost length; the inside domain
of a necklace pairs weak separation with Gale-order membership.  Cyclic
patterns and their splits are lemma checks, in ``tests/_lemmas.py``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

from .cliques import Collection
from .domains import circle_partition
from .ground import (
    GroundSetMismatch,
    Subset,
    _gale_leq_masks,
    _separated_from_all,
    cyclically_ordered,
)


@dataclass(frozen=True)
class DecoratedPermutation:
    """A permutation of [n] in one-line form plus a +1/-1 color on each fixed point."""

    images: tuple[int, ...]
    colors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of [{n}]: {self.images}")
        fixed = {i for i in range(1, n + 1) if self.images[i - 1] == i}
        colored = {i for i, _ in self.colors}
        if colored != fixed:
            raise ValueError(f"colors cover {sorted(colored)}, fixed points are {sorted(fixed)}")
        if any(c not in (1, -1) for _, c in self.colors):
            raise ValueError("colors must be +1 or -1")

    @classmethod
    def make(cls, images: Sequence[int], colors: Mapping[int, int] | None = None) -> "DecoratedPermutation":
        colors = colors or {}
        return cls(tuple(images), tuple(sorted(colors.items())))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def inverse_images(self) -> tuple[int, ...]:
        inv = [0] * self.n
        for i, img in enumerate(self.images, start=1):
            inv[img - 1] = i
        return tuple(inv)

    def to_json(self) -> dict:
        return {
            "permutation": list(self.images),
            "colors": {str(i): c for i, c in self.colors},
        }


def tau_kn(k: int, n: int) -> DecoratedPermutation:
    """The shift i -> i + k (mod n); all-fixed when k is 0 or n, colored by side."""
    if n < 1 or not 0 <= k <= n:
        raise ValueError(f"need n >= 1 and 0 <= k <= n, got k={k}, n={n}")
    images = tuple((i + k - 1) % n + 1 for i in range(1, n + 1))
    if k % n == 0:
        color = 1 if k == 0 else -1
        return DecoratedPermutation.make(images, {i: color for i in range(1, n + 1)})
    return DecoratedPermutation.make(images)


def block_reversal_permutation(lengths: Sequence[int]) -> tuple[int, ...]:
    """One-line permutation reversing each consecutive block of the given lengths."""
    out: list[int] = []
    start = 1
    for p in lengths:
        out.extend(range(start + p - 1, start - 1, -1))
        start += p
    return tuple(out)


def canonical_permutation(a: Subset) -> DecoratedPermutation:
    """The block-reversal of the circle partition composed with the half shift.

    Composition order is (sigma o pi)(i) = sigma(pi(i)); the result never has
    fixed points, because a block would have to contain both i and i + k.
    """
    part = circle_partition(a)
    n, k = a.n, part.k
    rev = block_reversal_permutation(part.lengths)
    shift = tau_kn(k, n).images
    return DecoratedPermutation.make(tuple(rev[shift[i] - 1] for i in range(n)))


class AlignmentLength(NamedTuple):
    alignments: int
    length: int


def length_of(p: DecoratedPermutation, k: int) -> AlignmentLength:
    """Count alignments and return the length k(n-k) minus that count.

    A pair {i, j} aligns when i, p(i), p(j), j are cyclically ordered and all
    four distinct, in either orientation of the pair; fixed points therefore
    never participate.
    """
    n = p.n
    images = p.images
    al = 0
    for i, j in itertools.combinations(range(1, n + 1), 2):
        pi, pj = images[i - 1], images[j - 1]
        if cyclically_ordered(i, pi, pj, j, n) or cyclically_ordered(j, pj, pi, i, n):
            al += 1
    return AlignmentLength(al, k * (n - k) - al)


@dataclass(frozen=True)
class GrassmannNecklace:
    """Cyclic sequence I_1..I_n of k-subsets with the one-element transition rule."""

    sets: tuple[Subset, ...]

    def __post_init__(self) -> None:
        sets = self.sets
        n = len(sets)
        if n == 0:
            raise ValueError("necklace needs at least one set")
        k = len(sets[0])
        for s in sets:
            if s.n != n:
                raise GroundSetMismatch(f"necklace of length {n} holds subsets of [{s.n}]")
            if len(s) != k:
                raise ValueError("necklace sets must share one cardinality")
        _transitions(sets)

    @property
    def n(self) -> int:
        return len(self.sets)

    @property
    def k(self) -> int:
        return len(self.sets[0])

    @property
    def connected(self) -> bool:
        return len({s.mask for s in self.sets}) == self.n

    def to_json(self) -> list[list[int]]:
        return [s.to_json() for s in self.sets]


def _transitions(sets: Sequence[Subset]) -> tuple[list[int], dict[int, int]]:
    """The images and fixed-point colors that the transitions I_i -> I_(i+1) encode.

    i maps to the element that enters; it is fixed when the set repeats,
    colored +1 when i is absent from I_i and -1 when present.  Raises
    ValueError on a transition that breaks the necklace rule.
    """
    n = len(sets)
    images: list[int] = []
    colors: dict[int, int] = {}
    for i in range(1, n + 1):
        cur, nxt, bit = sets[i - 1].mask, sets[i % n].mask, 1 << (i - 1)
        if cur == nxt:
            images.append(i)
            colors[i] = -1 if cur & bit else 1
        elif not cur & bit:
            raise ValueError(f"transition {i}: set must repeat when {i} is absent")
        elif cur & ~nxt != bit or (nxt & ~cur).bit_count() != 1:
            raise ValueError(f"transition {i}: must remove {i} and add one element")
        else:
            images.append((nxt & ~cur).bit_length())
    return images, colors


def necklace_from_perm(p: DecoratedPermutation, k: int) -> GrassmannNecklace:
    """Necklace whose i-th set collects j with j <_i inverse(j), plus dark fixed points.

    The cardinality of every set must come out to k; a mismatch means the
    permutation does not encode a k-necklace.
    """
    n = p.n
    inv = p.inverse_images()
    dark = 0
    for i, c in p.colors:
        if c == -1:
            dark |= 1 << (i - 1)
    sets = []
    for i in range(1, n + 1):
        mask = dark
        for j in range(1, n + 1):
            if inv[j - 1] != j and (j - i) % n < (inv[j - 1] - i) % n:
                mask |= 1 << (j - 1)
        if mask.bit_count() != k:
            raise ValueError(
                f"set {i} has cardinality {mask.bit_count()}, not {k}; "
                "the permutation does not encode a necklace of this rank"
            )
        sets.append(Subset(mask, n))
    return GrassmannNecklace(tuple(sets))


def perm_from_necklace(nk: GrassmannNecklace) -> DecoratedPermutation:
    """Read the permutation off the transitions; fixed points colored by membership."""
    return DecoratedPermutation.make(*_transitions(nk.sets))


def positroid_contains(nk: GrassmannNecklace, j: Subset) -> bool:
    """Gale-order membership: every necklace set is below j in its own shifted order."""
    if j.n != nk.n:
        raise GroundSetMismatch(f"subset of [{j.n}] against a necklace over [{nk.n}]")
    if len(j) != nk.k:
        raise ValueError(f"expected a {nk.k}-subset, got cardinality {len(j)}")
    return all(_gale_leq_masks(s.mask, j.mask, i, nk.n) for i, s in enumerate(nk.sets, 1))


def domain_in_for_necklace(nk: GrassmannNecklace) -> Collection:
    """All k-subsets weakly separated from every necklace set and inside the positroid."""
    n, neck = nk.n, [s.mask for s in nk.sets]
    separated = _separated_from_all(neck, n, nk.k)
    inside = tuple(m for m in separated if all(_gale_leq_masks(s, m, i, n) for i, s in enumerate(neck, 1)))
    return Collection._canonical(inside, n)  # the grid's survivors are already ascending
