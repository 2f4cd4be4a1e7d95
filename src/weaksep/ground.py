"""Subsets of the cyclic ground set [n], the separation predicates and the k-subset grids.

Everything downstream (domains, clique searches, necklaces, mutation graphs)
consumes the vocabulary defined here: one-word bitmask subsets, cyclic
intervals, the surrounds relation, weak and chord separation, and the shifted
Gale order.  The pair predicates have a row form, ``_separated_rows``, which
decides one set against a whole list by the runs of labels A (only it holds
the element) and B (only the other does), the predicates' surround rules read
along one walk; the same walk over a grid's element columns lists a pair or
necklace domain.  Each C(n,k) grid is one cached ``_Grid``: its sets, listed
once, their element columns, and the bits and square-move table that fill per
set on first use.  All other values are immutable and all functions are pure.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations
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
    """Masks of the k-subsets of [n] in ascending (colex) order; past the cap or ``MAX_GROUND``, refused unlisted."""
    _check_domain_size(comb(n, k), f"C({n},{k})")
    _check_ground_size(n)

    def colex(x: int) -> Iterator[int]:
        for _ in range(comb(n, k)):
            yield x
            low = x & -x  # Gosper's hack: the lowest run of ones moves its top bit up, the rest down
            ripple = x + low
            x = ripple | (x ^ ripple) >> low.bit_length() + 1

    return colex((1 << k) - 1)


# distinct (n, k) grids that stay cached, each with its set bits and move table
_GRIDS = 8


class _Grid(dict):
    """One C(n,k) grid: its sets, their element columns and bits, and the square-move table.

    ``sets`` holds the k-subsets of [n] as ``_whole_grid`` lists them, in
    ascending (colex) mask order, so its cap refuses a grid before any set is
    listed.  Column e is the bitset of the positions p of the sets holding e+1.
    In colex order the r-subsets of [m] are those of [m-1], then the C(m-1,
    r-1) that hold m, and a set's position is that of its part in [m] plus an
    offset that its part above m fixes.  At level m, q[r] holds the offsets of
    every part above m that completes an r-subset of [m], so column m is, over
    r, the block of ones of the sets holding m times q[r]; no two products overlap.

    ``grid[x]`` is the bit 1 << (N-1-p) of x = sets[p], N = C(n,k): a
    collection is the sum of its members' bits, and among collections of one
    size int order is the reverse of sorted-tuple order.  ``table`` keeps one
    entry per set (``entry``): its squares and the moves of each pattern of
    side sets a node has held, so ``mutations._neighbors`` scans a set's
    squares once per pattern, not once per node.  Bits and entries are filled
    per set on first use; the table grows only with the patterns met and lives
    as long as the grid, which the ``_GRIDS``-entry LRU of ``_grid`` bounds.
    ``idle`` holds the bits whose built entry has no square, so that expansion
    skips them; once every entry is built these are exactly the cyclic intervals.
    """

    def __init__(self, n: int, k: int) -> None:
        super().__init__()
        self.n, self.k = n, k
        self.sets = tuple(_whole_grid(n, k))
        self.top = len(self.sets) - 1
        q, cols = [0] * (k + 2), [0] * n
        q[k] = 1
        for m in range(n, 0, -1):
            for r in range(max(1, k - n + m), min(k, m) + 1):
                cols[m - 1] |= (q[r] << comb(m - 1, r - 1)) - q[r] << comb(m - 1, r)
            for r in range(max(0, k - n + m - 1), min(k, m - 1) + 1):  # m is outside the part, or its lowest element
                q[r] |= q[r + 1] << comb(m - 1, r + 1)
        self.columns = tuple(cols)
        # bit position -> (near, squares, {held: flips}); see ``entry`` and ``mutations._neighbors``
        self.table: dict[int, tuple[int, tuple, dict[int, tuple]]] = {}
        self.idle = 0

    def __missing__(self, x: int) -> int:
        p = bisect_left(self.sets, x)
        if p > self.top or self.sets[p] != x:
            raise ValueError(f"mask {x:#x} is not a {self.k}-subset of [{self.n}]")
        bit = self[x] = 1 << self.top - p
        return bit

    def node(self, masks: Iterable[int]) -> int:
        return sum(map(self.__getitem__, masks))

    def masks(self, node: int) -> tuple[int, ...]:
        """The members of a node in ascending mask order."""
        out = []
        while node:
            pos = node.bit_length() - 1
            out.append(self.sets[self.top - pos])
            node ^= 1 << pos
        return tuple(out)

    def entry(self, pos: int) -> tuple[int, tuple[tuple[int, tuple], ...], dict[int, tuple]]:
        """The table entry (near, squares, {held: flips}) of the set x at bit ``pos``.

        The one definition of a square: x = S+{a,c} with a < c, b strictly
        inside the arc (a, c) and d strictly inside the arc (c, a), S disjoint
        from {a, b, c, d}.  ``squares`` holds each as (sides, move): the move
        (s, a, b, c, d, added) adds S+{b,d}, and ``sides`` is the bits of the
        four side sets S+{a,b}, S+{b,c}, S+{c,d} and S+{d,a} that it needs.
        Squares run by (a, c), then d, then b.  ``near`` is the union of all
        sides; a node's moves of x depend only on which of them it holds.
        """
        if pos in self.table:
            return self.table[pos]
        x, n, squares, near = self.sets[self.top - pos], self.n, [], 0
        for a, c in combinations([i + 1 for i in range(n) if x >> i & 1], 2):
            ba, bc = 1 << (a - 1), 1 << (c - 1)
            s = x & ~ba & ~bc
            for d in (*range(c + 1, n + 1), *range(1, a)):
                for b in range(a + 1, c):
                    bb, bd = 1 << (b - 1), 1 << (d - 1)
                    if not s & (bb | bd):
                        sides = self[s | ba | bb] | self[s | bb | bc] | self[s | bc | bd] | self[s | bd | ba]
                        near |= sides
                        squares.append((sides, (s, a, b, c, d, s | bb | bd)))
        if not squares:
            self.idle |= 1 << pos
        out = self.table[pos] = (near, tuple(squares), {})
        return out


_grid = lru_cache(maxsize=_GRIDS)(_Grid)


def _separated_from_all(sets: Iterable[int], n: int, k: int) -> tuple[int, ...]:
    """The k-subsets of [n] weakly separated from every k-subset in ``sets``, as ascending masks.

    One ``_label_walks`` walk per set over the cached grid's columns: sets of
    one size are separated unless their labels hold both ABA and BAB.
    """
    masks = (grid := _grid(n, k)).sets
    full = keep = (1 << len(masks)) - 1
    for aba, bab in _label_walks([format(s, f"0{n}b")[::-1] for s in set(sets)], grid.columns, full):
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
