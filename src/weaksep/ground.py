"""Subsets of the cyclic ground set [n] and the separation predicates.

Everything downstream (domains, clique searches, necklaces, mutation graphs)
consumes the vocabulary defined here: one-word bitmask subsets, cyclic
intervals, the surrounds relation, weak and chord separation, and the shifted
Gale order.  All values are immutable and all functions are pure.  The pair
predicates have a row form, ``_separated_rows``, which decides one set against
a whole list by the runs of labels A (only it holds the element) and B (only
the other does), the predicates' surround rules read along one walk; the same
walk over a cached grid's element columns lists a pair or necklace domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from math import comb
from typing import Callable, Iterable, Iterator, Sequence

MAX_GROUND = 64


class GroundSetMismatch(ValueError):
    """Raised when two subsets over different ground sets meet in one operation."""


def _check_ground_size(n: int) -> None:
    if not 1 <= n <= MAX_GROUND:
        raise ValueError(f"ground set size must be in [1, {MAX_GROUND}], got {n}")


# 2^20 sets already make about 10^12 pair tests, far beyond any search that finishes
_MAX_POWER_SET_BITS = 20


def _check_domain_size(count: int, name: str) -> None:
    """Refuse a domain of ``count`` sets, ``name`` in the message, before it is listed."""
    if count > 1 << _MAX_POWER_SET_BITS:
        raise ValueError(
            f"a domain of {name} sets is too large to search; the limit is 2^{_MAX_POWER_SET_BITS}"
        )


def _power_set(n: int) -> range:
    """The masks of all 2^n subsets of [n], refused above the cap before any is listed."""
    _check_ground_size(n)
    _check_domain_size(1 << n, f"2^{n}")
    return range(1 << n)


@dataclass(frozen=True)
class Subset:
    """A subset of [n] = {1, ..., n} stored as a bitmask (bit i-1 <=> element i).

    The ground size is part of the value: subsets over different ground sets
    never compare equal, and mixing them in a predicate is a hard error rather
    than an implicit re-embedding.
    """

    mask: int
    n: int

    def __post_init__(self) -> None:
        _check_ground_size(self.n)
        if not 0 <= self.mask < (1 << self.n):
            raise ValueError(f"mask {self.mask:#x} has bits outside [1, {self.n}]")

    @classmethod
    def of(cls, elements: Iterable[int], n: int) -> "Subset":
        mask = 0
        for x in elements:
            if not 1 <= x <= n:
                raise ValueError(f"element {x} outside [1, {n}]")
            mask |= 1 << (x - 1)
        return cls(mask, n)

    @classmethod
    def parse(cls, text: str, n: int) -> "Subset":
        """Parse the textual form "1,2,4"; the empty string is the empty set."""
        text = text.strip()
        if not text:
            return cls(0, n)
        try:
            elements = [int(part) for part in text.split(",")]
        except ValueError as exc:
            raise ValueError(f"bad subset syntax {text!r}") from exc
        return cls.of(elements, n)

    def elements(self) -> tuple[int, ...]:
        return tuple(i + 1 for i in range(self.n) if self.mask >> i & 1)

    def to_json(self) -> list[int]:
        return list(self.elements())

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, x: int) -> bool:
        return 1 <= x <= self.n and self.mask >> (x - 1) & 1 == 1

    def __str__(self) -> str:
        return "{" + ",".join(map(str, self.elements())) + "}"

    def complement(self) -> "Subset":
        return Subset(self.mask ^ ((1 << self.n) - 1), self.n)

    def rotate(self, r: int) -> "Subset":
        """Shift every element by r positions around the circle (r may be negative)."""
        r %= self.n
        return Subset(_rotated(self.mask, r, self.n), self.n) if r else self


def _whole_grid(n: int, k: int) -> Iterator[int]:
    """Masks of the k-subsets of [n] in ascending (colex) order, refused above the cap before any is listed."""
    _check_domain_size(comb(n, k), f"C({n},{k})")

    def colex(x: int) -> Iterator[int]:
        for _ in range(comb(n, k)):
            yield x
            low = x & -x  # Gosper's hack: the lowest run of ones moves its top bit up, the rest down
            ripple = x + low
            x = ripple | (x ^ ripple) >> low.bit_length() + 1

    return colex((1 << k) - 1)


# distinct (n, k) grids whose view (here) and set bits and move tables (``mutations``) stay cached
_GRIDS = 8


@lru_cache(maxsize=_GRIDS)
def _grid_view(n: int, k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The k-subsets of [n] as ascending masks, and column e: the positions of the masks holding e+1, as a bitset.

    ``_whole_grid`` lists the masks, so its cap refuses a grid first.  In colex
    order the r-subsets of [m] are those of [m-1], then the C(m-1, r-1) that
    hold m, and a set's position is that of its part in [m] plus an offset that
    its part above m fixes.  At level m, q[r] holds the offsets of every part
    above m that completes an r-subset of [m], so column m is, over r, the block
    of ones of the sets holding m times q[r]; no two products overlap.
    """
    masks = tuple(_whole_grid(n, k))
    q, cols = [0] * (k + 2), [0] * n
    q[k] = 1
    for m in range(n, 0, -1):
        for r in range(max(1, k - n + m), min(k, m) + 1):
            cols[m - 1] |= (q[r] << comb(m - 1, r - 1)) - q[r] << comb(m - 1, r)
        for r in range(max(0, k - n + m - 1), min(k, m - 1) + 1):  # m is outside the part, or its lowest element
            q[r] |= q[r + 1] << comb(m - 1, r + 1)
    return masks, tuple(cols)


def _separated_from_all(sets: Iterable[int], n: int, k: int) -> tuple[int, ...]:
    """The k-subsets of [n] weakly separated from every k-subset in ``sets``, as ascending masks.

    One ``_label_walks`` walk per set over the cached columns: sets of one size
    are separated unless their labels hold both ABA and BAB.
    """
    masks, columns = _grid_view(n, k)
    full = keep = (1 << len(masks)) - 1
    for aba, bab in _label_walks([format(s, f"0{n}b")[::-1] for s in set(sets)], columns, full):
        keep &= ~(aba & bab)
    text = format(keep, "b")[::-1]  # digit p is the mask at position p
    out, p = [], text.find("1")
    while p >= 0:
        out.append(masks[p])
        p = text.find("1", p + 1)
    return tuple(out)


def _check_same_ground(a: Subset, b: Subset) -> None:
    if a.n != b.n:
        raise GroundSetMismatch(f"ground sets differ: [{a.n}] vs [{b.n}]")


def _check_pair(i: Subset, j: Subset) -> None:
    """A pair of sets of one size over one ground set, as every pair verb needs."""
    _check_same_ground(i, j)
    if len(i) != len(j):
        raise ValueError(f"cardinalities differ: {len(i)} vs {len(j)}")


def _rotated(mask: int, r: int, n: int) -> int:
    """The mask with every element moved r places up around [n], 0 <= r < n; unchecked."""
    return ((mask << r) | (mask >> (n - r))) & ((1 << n) - 1)


def _arc(a: int, b: int, n: int) -> int:
    """Mask of the arc a, a+1, ..., b around [n], both ends taken mod n; unchecked."""
    return _rotated((1 << ((b - a) % n + 1)) - 1, (a - 1) % n, n)


def _pair_symmetries(i: int, j: int, n: int) -> list[Callable[[int], int]]:
    """The maps of masks other than the identity that send the pair {I, J}, of one size, onto itself.

    The candidates are the n rotations, each with and without the reflection
    x -> n+1-x and, when |I| = n/2, with and without complement.  They keep weak
    separation between sets of one size, so a kept map is an automorphism of
    A_{I,J}'s graph; with the identity the kept maps are the pair's stabilizer,
    a group.  I's image is walked one shift per step, J's taken only on a hit.
    ``cluster_distance`` prunes by them; ``mutation_distance`` lists a pair they swap once.
    """
    found = []
    for flip in (0, (1 << n) - 1) if 2 * i.bit_count() == n else (0,):
        for mirror in (False, True) if n > 2 else (False,):  # below 3 the reflection is a rotation
            a, b = _image(n, 0, mirror, flip, i), _image(n, 0, mirror, flip, j)
            for r in range(n):
                if a in (i, j) and {a, _rotated(b, r, n)} == {i, j} and (r or mirror or flip):
                    found.append(partial(_image, n, r, mirror, flip))
                a = _rotated(a, 1, n)
    return found


def _image(n: int, r: int, mirror: bool, flip: int, mask: int) -> int:
    """The mask reflected by x -> n+1-x if ``mirror``, moved r places up, then xor ``flip``; unchecked."""
    if mirror:  # the digits lowest first, read as a numeral of n digits, put bit t at bit n-1-t
        mask = int(bin(mask)[:1:-1], 2) << n - mask.bit_length()
    return _rotated(mask, r, n) ^ flip


def cyclic_interval(a: int, b: int, n: int) -> Subset:
    """The interval [a, b] = {a, a+1, ..., b} with wraparound modulo n."""
    _check_ground_size(n)
    if not 1 <= a <= n or not 1 <= b <= n:
        raise ValueError(f"interval endpoints ({a}, {b}) outside [1, {n}]")
    return Subset(_arc(a, b, n), n)


def is_cyclic_interval(s: Subset) -> bool:
    """True iff s is [a, b] for some a, b, or s is empty or full (by convention).

    That is, s is chord separated from its complement: s or its complement
    avoids the span of the other, so one of the two is a linear run.
    """
    return _chord_separated_masks(s.mask, s.complement().mask)


# Mask-level predicate cores.  The empty-set conventions max(emptyset) = -inf
# and min(emptyset) = +inf are built in: an empty side satisfies any bound.

def _surrounds_masks(imask: int, jmask: int) -> bool:
    # I \ J misses the span of J \ I, the bits from its lowest to its highest
    jmi = jmask & ~imask
    return not jmi or not imask & ~jmask & (1 << jmi.bit_length()) - (jmi & -jmi)


def _weakly_separated_masks(smask: int, tmask: int) -> bool:
    # The smaller set surrounds the larger.  The differences differ in size by
    # |S| - |T|, so the smaller difference must miss the span of the other.  An
    # empty difference's span reads as bit 0, but only an empty one meets it.
    s, t = smask & ~tmask, tmask & ~smask
    sc, tc = s.bit_count(), t.bit_count()
    return (sc <= tc and not s & (1 << t.bit_length()) - (t & -t)) or (
        tc <= sc and not t & (1 << s.bit_length()) - (s & -s)
    )


def _chord_separated_masks(smask: int, tmask: int) -> bool:
    # Some arc holds S\T and misses T\S: a wrapping arc leaves T\S's span free
    # of S\T, and a plain one has S\T's span free of T\S.
    return _surrounds_masks(smask, tmask) or _surrounds_masks(tmask, smask)


def _label_walks(texts: Iterable[str], has: Sequence[int], full: int) -> Iterator[tuple[int, int]]:
    """For each set S, as digits, the bitsets of the Ts whose labels hold ABA, and BAB.

    ``has[t]`` is the Ts holding the element of digit t.  T is labelled A at x
    in S\\T and B at x in T\\S; three bitset steps per element mark all the Ts
    whose labels so far hold A, AB, ABA, B, BA or BAB.  Labels in at most three
    runs (A*B*A* or B*A*B*, one difference surrounding the other) hold at most
    one of ABA and BAB, four or more runs both.
    """
    for text in texts:
        a = ab = aba = b = ba = bab = 0
        for bit, col in zip(text, has):
            if bit == "1":
                col ^= full
                aba |= ab & col
                ba |= b & col
                a |= col
            else:
                bab |= ba & col
                ab |= a & col
                b |= col
        yield aba, bab


def _separated_rows(masks: Sequence[int], n: int, weak: bool) -> list[int]:
    """Row v is the bitset of the masks weakly (else chord) separated from ``masks[v]``, itself left out.

    For S = masks[v], ``_label_walks`` walks the elements from n down to 1.
    """
    m, digits = len(masks), f"0{n}b"
    full, texts = (1 << m) - 1, [format(s, digits) for s in masks]
    # has[t]: the masks whose digit t is 1, highest element first as texts are
    has = [int("".join(col)[::-1], 2) for col in zip(*texts)]
    below = [0] * (n + 2)  # below[c]: the masks of fewer than c elements
    for v, s in enumerate(masks):
        below[s.bit_count() + 1] |= 1 << v
    for c in range(1, n + 2):
        below[c] |= below[c - 1]
    rows = []
    for v, (aba, bab) in enumerate(_label_walks(texts, has, full)):
        bad = aba & bab
        if weak:
            c = masks[v].bit_count()
            bad |= aba & below[c] | bab & ~below[c + 1]
        rows.append(full ^ bad ^ 1 << v)
    return rows


def surrounds(i: Subset, j: Subset) -> bool:
    """True iff I \\ J splits as I1 | I2 with I1 < J \\ I < I2 in the linear order.

    Empty parts are allowed, so every set surrounds a set containing it.
    """
    _check_same_ground(i, j)
    return _surrounds_masks(i.mask, j.mask)


def is_weakly_separated(s: Subset, t: Subset) -> bool:
    """True iff the smaller of the two sets surrounds the larger."""
    _check_same_ground(s, t)
    return _weakly_separated_masks(s.mask, t.mask)


def is_chord_separated(s: Subset, t: Subset) -> bool:
    """True iff no cyclically ordered a, b, c, d has a, c in S\\T and b, d in T\\S."""
    _check_same_ground(s, t)
    return _chord_separated_masks(s.mask, t.mask)


def gale_leq(a: Subset, b: Subset, base: int) -> bool:
    """Componentwise comparison of the sorted sets under <_i, i = base: i < i+1 < ... < i-1.

    True iff |A| <= |B| and the m-th smallest element of A under <_i is at
    most the m-th smallest element of B, for every m up to |A|.
    """
    _check_same_ground(a, b)
    if not 1 <= base <= a.n:
        raise ValueError(f"base {base} outside [1, {a.n}]")
    return _gale_leq_masks(a.mask, b.mask, base, a.n)


def _gale_leq_masks(a: int, b: int, base: int, n: int) -> bool:
    """``gale_leq`` on masks, unchecked: with ``base`` rotated to bit 0, B's m-th lowest bit is not below A's."""
    r = (1 - base) % n
    a, b = _rotated(a, r, n), _rotated(b, r, n)
    while a and a & -a <= b & -b:
        a, b = a & a - 1, b & b - 1
    return not a


def cyclically_ordered(a: int, b: int, c: int, d: int, n: int) -> bool:
    """True iff walking clockwise from a meets b, then c, then d, all four distinct."""
    if len({a, b, c, d}) != 4:
        return False
    return (b - a) % n < (c - a) % n < (d - a) % n
