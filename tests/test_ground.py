import itertools
import random
from collections import Counter
from math import comb

import pytest

from weaksep import (
    GroundSetMismatch,
    Subset,
    cyclic_interval,
    gale_leq,
    is_chord_separated,
    is_cyclic_interval,
    is_weakly_separated,
    surrounds,
)
from weaksep import ground, mutations
from weaksep.ground import _gale_leq_masks, _grid, _separated_from_all, _whole_grid

from _oracles import naive_chord_separated, naive_cyclic_run, naive_gale_leq, naive_weakly_separated


def sub(elems, n):
    return Subset.of(elems, n)


def all_subsets(n):
    return [Subset(m, n) for m in range(1 << n)]


class TestSubset:
    def test_elements_roundtrip(self):
        s = sub([1, 2, 4], 6)
        assert s.elements() == (1, 2, 4)
        assert len(s) == 3
        assert 4 in s and 3 not in s

    def test_parse(self):
        assert Subset.parse("1,2,4", 6) == sub([1, 2, 4], 6)
        assert Subset.parse("", 6) == Subset(0, 6)
        with pytest.raises(ValueError):
            Subset.parse("1,2,7", 6)
        with pytest.raises(ValueError):
            Subset.parse("1,x", 6)

    def test_ground_size_limits(self):
        with pytest.raises(ValueError):
            Subset(0, 0)
        with pytest.raises(ValueError):
            Subset(0, 65)
        Subset(1 << 63, 64)

    def test_mask_outside_ground(self):
        with pytest.raises(ValueError):
            Subset(1 << 6, 6)

    def test_different_n_never_equal(self):
        assert sub([1], 4) != sub([1], 5)

    def test_mixed_ground_is_error(self):
        with pytest.raises(GroundSetMismatch):
            is_weakly_separated(sub([1], 4), sub([1], 5))
        with pytest.raises(GroundSetMismatch):
            is_chord_separated(sub([1], 4), sub([1], 5))
        with pytest.raises(GroundSetMismatch):
            surrounds(sub([1], 4), sub([1], 5))
        with pytest.raises(GroundSetMismatch):
            gale_leq(sub([1], 4), sub([1], 5), 1)


class TestCyclicInterval:
    def test_plain(self):
        assert cyclic_interval(2, 4, 6) == sub([2, 3, 4], 6)

    def test_wraparound(self):
        assert cyclic_interval(5, 2, 6) == sub([5, 6, 1, 2], 6)

    def test_singleton(self):
        assert cyclic_interval(3, 3, 6) == sub([3], 6)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            cyclic_interval(0, 3, 6)
        with pytest.raises(ValueError):
            cyclic_interval(1, 7, 6)

    def test_is_interval(self):
        assert is_cyclic_interval(sub([5, 6, 1], 6))
        assert not is_cyclic_interval(sub([1, 3], 4))
        assert is_cyclic_interval(Subset(0, 5))
        assert is_cyclic_interval(Subset((1 << 5) - 1, 5))

    def test_every_interval_detected(self):
        # the runs of consecutive elements, walked on plain sets, plus the empty set
        for n in range(1, 7):
            runs = {frozenset(naive_cyclic_run(a, b, n)) for a in range(1, n + 1) for b in range(1, n + 1)}
            for s in all_subsets(n):
                assert is_cyclic_interval(s) == (frozenset(s.elements()) in runs or s.mask == 0)

    def test_matches_run_oracle(self):
        for n in range(1, 9):
            for a in range(1, n + 1):
                for b in range(1, n + 1):
                    assert set(cyclic_interval(a, b, n).elements()) == naive_cyclic_run(a, b, n)

    def test_wide_ground_runs(self):
        # every run is an interval; a run of length 3..n-2 without its second element is not
        rng = random.Random(20261019)
        for _ in range(2000):
            n = rng.randint(5, 64)
            a = rng.randint(1, n)
            run = naive_cyclic_run(a, (a + rng.randint(2, n - 3) - 1) % n + 1, n)
            assert is_cyclic_interval(Subset.of(run, n))
            assert not is_cyclic_interval(Subset.of(run - {a % n + 1}, n))


class TestSurrounds:
    def test_examples(self):
        assert surrounds(sub([1, 5], 6), sub([3], 6))
        assert not surrounds(sub([3], 6), sub([1, 5], 6))
        assert surrounds(Subset(0, 6), sub([2, 4], 6))

    def test_matches_oracle(self):
        from _oracles import naive_surrounds

        for n in (4, 5):
            for s in all_subsets(n):
                for t in all_subsets(n):
                    assert surrounds(s, t) == naive_surrounds(
                        set(s.elements()), set(t.elements())
                    ), (s, t)


class TestWeakSeparation:
    def test_paper_pairs(self):
        assert not is_weakly_separated(sub([1, 2, 4], 6), sub([3, 5, 6], 6))
        assert not is_weakly_separated(sub([2], 4), sub([1, 3], 4))

    def test_self(self):
        for n in (1, 4, 7):
            for s in all_subsets(n)[:16]:
                assert is_weakly_separated(s, s)

    def test_matches_oracle_exhaustive(self):
        for n in range(1, 9):
            for s in all_subsets(n):
                for t in all_subsets(n):
                    assert is_weakly_separated(s, t) == naive_weakly_separated(
                        set(s.elements()), set(t.elements())
                    )

    def test_matches_oracle_wide_ground(self):
        # S xor T thinned to density 1/2..1/16, then T taken as S xor that,
        # S with it, S without it, S rotated (equal sizes) or S itself, so
        # mixed and equal sizes meet both verdicts, nested and equal sets
        # the one they always get
        rng = random.Random(20261020)
        verdicts = Counter()
        for trial in range(3000):
            n = rng.randint(8, 64)
            diff = rng.getrandbits(n)
            for _ in range(rng.randint(0, 3)):
                diff &= rng.getrandbits(n)
            s = Subset(rng.getrandbits(n), n)
            kind = trial % 5
            t = (
                Subset(s.mask ^ diff, n),
                Subset(s.mask | diff, n),
                Subset(s.mask & ~diff, n),
                s.rotate(rng.randrange(n)),
                s,
            )[kind]
            verdict = is_weakly_separated(s, t)
            assert verdict == naive_weakly_separated(set(s.elements()), set(t.elements())), (s, t)
            verdicts[kind, verdict] += 1
        assert sorted(verdicts) == [(0, False), (0, True), (1, True), (2, True), (3, False), (3, True), (4, True)]

    def test_symmetry(self):
        for n in range(1, 7):
            for s in all_subsets(n):
                for t in all_subsets(n):
                    assert is_weakly_separated(s, t) == is_weakly_separated(t, s)
        rng = random.Random(20240811)
        for _ in range(10_000):
            n = rng.randint(7, 12)
            s = Subset(rng.getrandbits(n), n)
            t = Subset(rng.getrandbits(n), n)
            assert is_weakly_separated(s, t) == is_weakly_separated(t, s)
            assert is_chord_separated(s, t) == is_chord_separated(t, s)

    def test_intervals_universal_at_equal_size(self):
        for n in range(2, 8):
            for a in range(1, n + 1):
                for b in range(1, n + 1):
                    iv = cyclic_interval(a, b, n)
                    for t in all_subsets(n):
                        if len(t) == len(iv):
                            assert is_weakly_separated(iv, t)

    def test_complement_invariance_at_equal_size(self):
        for n in range(1, 7):
            for s in all_subsets(n):
                for t in all_subsets(n):
                    if len(s) == len(t):
                        assert is_weakly_separated(s, t) == is_weakly_separated(
                            s.complement(), t.complement()
                        )


class TestChordSeparation:
    def test_paper_pairs(self):
        assert is_chord_separated(sub([1, 3], 4), sub([2], 4))
        assert not is_chord_separated(sub([1, 3], 4), sub([2, 4], 4))
        assert not is_chord_separated(sub([1, 2, 4], 6), sub([3, 5, 6], 6))

    def test_matches_oracle_exhaustive(self):
        for n in range(1, 9):
            for s in all_subsets(n):
                for t in all_subsets(n):
                    assert is_chord_separated(s, t) == naive_chord_separated(
                        set(s.elements()), set(t.elements()), n
                    )

    def test_matches_oracle_wide_ground(self):
        # S xor T thinned to density 1/2..1/16, so both verdicts occur at every width
        rng = random.Random(20261019)
        for _ in range(3000):
            n = rng.randint(8, 64)
            diff = rng.getrandbits(n)
            for _ in range(rng.randint(0, 3)):
                diff &= rng.getrandbits(n)
            s = Subset(rng.getrandbits(n), n)
            t = Subset(s.mask ^ diff, n)
            assert is_chord_separated(s, t) == naive_chord_separated(
                set(s.elements()), set(t.elements()), n
            ), (s, t)

    def test_equal_size_equivalence(self):
        for n in range(1, 7):
            for s in all_subsets(n):
                for t in all_subsets(n):
                    if len(s) == len(t):
                        assert is_chord_separated(s, t) == is_weakly_separated(s, t)

    def test_rotation_invariance(self):
        rng = random.Random(7)
        for _ in range(2000):
            n = rng.randint(2, 10)
            s = Subset(rng.getrandbits(n), n)
            t = Subset(rng.getrandbits(n), n)
            base = is_chord_separated(s, t)
            for r in range(n):
                assert is_chord_separated(s.rotate(r), t.rotate(r)) == base


class TestGaleOrder:
    def test_examples(self):
        assert gale_leq(sub([1, 3], 4), sub([2, 4], 4), 1)
        assert not gale_leq(sub([2, 4], 4), sub([1, 3], 4), 1)
        assert gale_leq(sub([2, 4], 4), sub([2, 4], 4), 3)

    def test_smaller_into_larger(self):
        assert gale_leq(sub([1], 4), sub([1, 2], 4), 1)
        assert not gale_leq(sub([1, 2], 4), sub([1], 4), 1)

    @pytest.mark.parametrize("base", [0, 5])
    def test_base_outside_ground_is_error(self, base):
        with pytest.raises(ValueError, match=f"base {base} outside"):
            gale_leq(sub([1], 4), sub([2], 4), base)

    def test_partial_order_on_fixed_cardinality(self):
        for n in range(2, 7):
            for k in range(1, min(4, n + 1)):
                subsets = [Subset.of(c, n) for c in itertools.combinations(range(1, n + 1), k)]
                for base in range(1, n + 1):
                    for a in subsets:
                        assert gale_leq(a, a, base)
                        for b in subsets:
                            if gale_leq(a, b, base) and gale_leq(b, a, base):
                                assert a == b
                            for c in subsets:
                                if gale_leq(a, b, base) and gale_leq(b, c, base):
                                    assert gale_leq(a, c, base)


    def test_mask_kernel_matches_sorted_oracle(self):
        # every pair of subsets, of equal and of unequal sizes, under every base
        for n in range(1, 8):
            sets = [{x + 1 for x in range(n) if m >> x & 1} for m in range(1 << n)]
            for (a, sa), (b, sb) in itertools.product(enumerate(sets), repeat=2):
                for base in range(1, n + 1):
                    assert _gale_leq_masks(a, b, base, n) == naive_gale_leq(sa, sb, base, n), (n, sa, sb, base)


class TestTransform:
    def test_complement(self):
        assert sub([1, 2, 4], 6).complement() == sub([3, 5, 6], 6)

    def test_rotate(self):
        assert sub([5, 6], 6).rotate(2) == sub([1, 2], 6)
        s = sub([2, 5], 7)
        assert s.rotate(0) == s


class TestKSubsetMasks:
    def test_matches_combinations(self):
        for n in range(1, 9):
            for k in range(n + 1):
                expected = sorted(sum(1 << b for b in c) for c in itertools.combinations(range(n), k))
                got = list(_whole_grid(n, k))
                assert got == expected, (n, k)
                assert len(got) == comb(n, k)

    def test_extreme_sizes(self):
        assert list(_whole_grid(5, 0)) == [0]
        assert list(_whole_grid(5, 5)) == [0b11111]
        assert list(_whole_grid(4, 5)) == []


class TestGridView:
    def test_columns_transpose_the_grid(self):
        for n in range(1, 13):
            for k in range(n + 1):
                grid = _grid(n, k)
                masks, columns = grid.sets, grid.columns
                assert masks == tuple(_whole_grid(n, k)), (n, k)
                transposed = tuple(sum(1 << p for p, m in enumerate(masks) if m >> e & 1) for e in range(n))
                assert columns == transposed, (n, k)

    def test_both_grid_caches_share_one_bound(self):
        # a domain walk and a move search on one (n, k) read the same cached grid,
        # so both share the one cache, which keeps at most ``_GRIDS`` of them
        _grid.cache_clear()
        for n in range(3, ground._GRIDS + 5):
            _separated_from_all([0b11], n, 2)
            first = Subset.of([1, 2], n)
            graph = mutations.explore_mutation_graph(mutations._grid_completion(first, first), budget=3)
            assert graph.grid is _grid(n, 2), n
        info = _grid.cache_info()
        assert info.misses == ground._GRIDS + 2
        assert info.currsize == info.maxsize == ground._GRIDS
