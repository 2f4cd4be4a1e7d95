import itertools
import random

import pytest

from weaksep import (
    DecoratedPermutation,
    GrassmannNecklace,
    Subset,
    block_reversal_permutation,
    build_compat_graph,
    canonical_permutation,
    circle_partition,
    cyclically_ordered,
    domain_in_for_necklace,
    enumerate_maximal_cliques,
    is_weakly_separated,
    length_of,
    necklace_from_perm,
    perm_from_necklace,
    positroid_contains,
    tau_kn,
)
from weaksep import ground
from weaksep.ground import _weakly_separated_masks, _whole_grid
from _lemmas import SimpleCyclicPattern, is_generalized_cyclic_pattern, lr_subset, simple_pattern_split
from _oracles import naive_gale_leq, naive_is_necklace
from math import comb


def sub(elems, n):
    return Subset.of(elems, n)


FIG4_PERM = (4, 8, 7, 10, 9, 3, 2, 1, 6, 5)
FIG4_ROWS = [
    (1, 2, 3, 5, 6),
    (2, 3, 4, 5, 6),
    (3, 4, 5, 6, 8),
    (4, 5, 6, 7, 8),
    (5, 6, 7, 8, 10),
    (6, 7, 8, 9, 10),
    (3, 7, 8, 9, 10),
    (2, 3, 8, 9, 10),
    (1, 2, 3, 9, 10),
    (1, 2, 3, 6, 10),
]


def half_sets(k):
    return [Subset.of(c, 2 * k) for c in itertools.combinations(range(1, 2 * k + 1), k)]


class TestDecoratedPermutation:
    def test_validation(self):
        with pytest.raises(ValueError):
            DecoratedPermutation.make((1, 1, 3))
        with pytest.raises(ValueError):
            DecoratedPermutation.make((1, 2), {1: 1})  # 2 is also fixed
        with pytest.raises(ValueError):
            DecoratedPermutation.make((2, 1), {1: 1})  # no fixed points
        DecoratedPermutation.make((1, 2), {1: 1, 2: -1})

    def test_inverse(self):
        p = DecoratedPermutation.make(FIG4_PERM)
        inv = p.inverse_images()
        assert all(p(inv[i - 1]) == i for i in range(1, 11))


class TestTauKn:
    def test_five_ten(self):
        assert tau_kn(5, 10).images == (6, 7, 8, 9, 10, 1, 2, 3, 4, 5)

    def test_two_four(self):
        assert tau_kn(2, 4).images == (3, 4, 1, 2)

    def test_degenerate_shifts(self):
        p0 = tau_kn(0, 4)
        assert p0.images == (1, 2, 3, 4) and all(c == 1 for _, c in p0.colors)
        pn = tau_kn(4, 4)
        assert pn.images == (1, 2, 3, 4) and all(c == -1 for _, c in pn.colors)


class TestCanonicalPermutation:
    def test_block_reversal(self):
        part = circle_partition(sub([1, 2, 3, 7, 8], 10))
        assert block_reversal_permutation(part.lengths) == (3, 2, 1, 6, 5, 4, 8, 7, 10, 9)

    def test_composition(self):
        assert canonical_permutation(sub([1, 2, 3, 7, 8], 10)).images == FIG4_PERM

    def test_single_block_case(self):
        for k in (2, 3, 4):
            p = canonical_permutation(Subset.of(range(1, k + 1), 2 * k))
            al, length = length_of(p, k)
            assert length == k * k - 2 * comb(k, 2) == k

    def test_no_fixed_points(self):
        for k in (2, 3):
            for a in half_sets(k):
                assert not canonical_permutation(a).colors


class TestLengthOf:
    def test_shift_has_no_alignments(self):
        assert length_of(tau_kn(2, 4), 2) == (0, 4)

    def test_running_example(self):
        p = canonical_permutation(sub([1, 2, 3, 7, 8], 10))
        assert length_of(p, 5) == (8, 17)

    def test_identity_all_light(self):
        p = tau_kn(0, 5)
        assert length_of(p, 0) == (0, 0)

    def test_closed_form_exhaustive(self):
        for k in range(1, 6):
            for a in half_sets(k):
                part = circle_partition(a)
                p = canonical_permutation(a)
                expected = k * k - sum(comb(x, 2) for x in part.lengths)
                assert length_of(p, k).length == expected, a

    def test_alignment_block_structure(self):
        # a pair aligns exactly when both shifted images fall in one run
        for k in (2, 3, 4):
            n = 2 * k
            shift = tau_kn(k, n).images
            for a in half_sets(k):
                part = circle_partition(a)
                p = DecoratedPermutation.make(
                    tuple(
                        block_reversal_permutation(part.lengths)[shift[i] - 1]
                        for i in range(n)
                    )
                )
                runs = [iv.mask for iv in part.intervals]
                for i, j in itertools.combinations(range(1, n + 1), 2):
                    pi, pj = p(i), p(j)
                    aligned = cyclically_ordered(i, pi, pj, j, n) or cyclically_ordered(
                        j, pj, pi, i, n
                    )
                    same_run = any(
                        run >> (shift[i - 1] - 1) & 1 and run >> (shift[j - 1] - 1) & 1
                        for run in runs
                    )
                    assert aligned == same_run, (a, i, j)


class TestNecklaceFromPerm:
    def test_figure_rows(self):
        nk = necklace_from_perm(DecoratedPermutation.make(FIG4_PERM), 5)
        assert [s.elements() for s in nk.sets] == FIG4_ROWS
        assert nk.connected

    def test_boundary_necklace(self):
        nk = necklace_from_perm(tau_kn(2, 4), 2)
        assert [s.elements() for s in nk.sets] == [(1, 2), (2, 3), (3, 4), (1, 4)]

    def test_constant_necklace(self):
        p = DecoratedPermutation.make((1, 2, 3), {1: -1, 2: -1, 3: -1})
        nk = necklace_from_perm(p, 3)
        assert all(s.elements() == (1, 2, 3) for s in nk.sets)
        assert not nk.connected

    def test_wrong_rank_rejected(self):
        with pytest.raises(ValueError):
            necklace_from_perm(DecoratedPermutation.make(FIG4_PERM), 4)


class TestPermFromNecklace:
    def test_figure_table(self):
        nk = GrassmannNecklace(tuple(sub(r, 10) for r in FIG4_ROWS))
        assert perm_from_necklace(nk).images == FIG4_PERM

    def test_boundary_intervals_give_shift(self):
        rows = [sub([(i + t - 1) % 6 + 1 for t in range(3)], 6) for i in range(1, 7)]
        assert perm_from_necklace(GrassmannNecklace(tuple(rows))) == tau_kn(3, 6)

    def test_constant_necklace_colors(self):
        rows = tuple(sub([1, 2], 4) for _ in range(4))
        p = perm_from_necklace(GrassmannNecklace(rows))
        assert p.images == (1, 2, 3, 4)
        assert dict(p.colors) == {1: -1, 2: -1, 3: 1, 4: 1}

    def test_invalid_transition_rejected(self):
        with pytest.raises(ValueError):
            GrassmannNecklace((sub([1, 2], 4), sub([3, 4], 4), sub([3, 4], 4), sub([1, 4], 4)))

    def test_accepts_exactly_the_definition(self):
        # every sequence of n subsets of [n], n <= 4, against the rule on plain
        # sets; each accepted necklace survives the trip through its permutation
        accepted = 0
        for n in range(1, 5):
            subsets = [Subset(m, n) for m in range(1 << n)]
            for row in itertools.product(subsets, repeat=n):
                try:
                    nk = GrassmannNecklace(row)
                except ValueError:
                    nk = None
                assert (nk is not None) == naive_is_necklace([set(s.elements()) for s in row], n)
                if nk is not None:
                    accepted += 1
                    assert necklace_from_perm(perm_from_necklace(nk), nk.k) == nk
        assert accepted == 88

    def test_round_trip_canonical(self):
        for k in range(1, 6):
            for a in half_sets(k):
                p = canonical_permutation(a)
                nk = necklace_from_perm(p, k)
                assert perm_from_necklace(nk) == p
                assert necklace_from_perm(perm_from_necklace(nk), k) == nk

    def test_round_trip_random_decorated(self):
        # arbitrary permutations with colored fixed points: the rank is the
        # anti-exceedance count plus the dark fixed points
        import random

        rng = random.Random(97)
        for _ in range(300):
            n = rng.randint(1, 9)
            images = list(range(1, n + 1))
            rng.shuffle(images)
            colors = {
                i: rng.choice((1, -1))
                for i in range(1, n + 1)
                if images[i - 1] == i
            }
            p = DecoratedPermutation.make(images, colors)
            inv = p.inverse_images()
            k = sum(1 for j in range(1, n + 1) if inv[j - 1] != j and j < inv[j - 1])
            k += sum(1 for i, c in colors.items() if c == -1)
            nk = necklace_from_perm(p, k)
            assert perm_from_necklace(nk) == p
            assert necklace_from_perm(perm_from_necklace(nk), k) == nk


class TestPositroid:
    def test_boundary_necklace_contains_everything(self):
        nk = necklace_from_perm(tau_kn(3, 6), 3)
        for c in itertools.combinations(range(1, 7), 3):
            assert positroid_contains(nk, sub(c, 6))

    def test_first_set_always_inside(self):
        for perm in ((4, 8, 7, 10, 9, 3, 2, 1, 6, 5),):
            nk = necklace_from_perm(DecoratedPermutation.make(perm), 5)
            assert positroid_contains(nk, nk.sets[0])

    def test_figure_case_fixed_value(self):
        nk = necklace_from_perm(DecoratedPermutation.make(FIG4_PERM), 5)
        # evaluate independently with explicit shifted-sorted comparison
        j = sub([1, 2, 3, 4, 5], 10)
        expected = True
        for i in range(1, 11):
            key = lambda x: (x - i) % 10
            si = sorted((x for x in nk.sets[i - 1].elements()), key=key)
            sj = sorted(j.elements(), key=key)
            if any(key(x) > key(y) for x, y in zip(si, sj)):
                expected = False
        assert positroid_contains(nk, j) == expected

    def test_wrong_size_rejected(self):
        nk = necklace_from_perm(tau_kn(2, 4), 2)
        with pytest.raises(ValueError):
            positroid_contains(nk, sub([1], 4))


class TestDomainIn:
    def test_boundary_necklace_full_grid(self):
        nk = necklace_from_perm(tau_kn(3, 6), 3)
        assert len(domain_in_for_necklace(nk)) == 20

    def test_boundary_purity(self):
        nk = necklace_from_perm(tau_kn(3, 6), 3)
        dom = domain_in_for_necklace(nk)
        cliques = enumerate_maximal_cliques(build_compat_graph(dom))
        length = length_of(tau_kn(3, 6), 3).length
        assert all(len(c) == length + 1 == 10 for c in cliques)

    def test_figure_necklace_domain(self):
        p = DecoratedPermutation.make(FIG4_PERM)
        nk = necklace_from_perm(p, 5)
        dom = domain_in_for_necklace(nk)
        assert len(dom) < comb(10, 5)
        cliques = enumerate_maximal_cliques(build_compat_graph(dom))
        assert all(len(c) == length_of(p, 5).length + 1 == 18 for c in cliques)

    def test_grid_too_large_rejected_before_listing(self, monkeypatch):
        # C(40,20) candidates; a grid listed past the cap would fail here at once
        def scanned_grid(n, k):
            whole_grid(n, k)  # the cached grid lists through the capped lister, whose cap must refuse
            raise AssertionError("a candidate was listed before the size check")

        whole_grid = ground._whole_grid
        monkeypatch.setattr(ground, "_whole_grid", scanned_grid)
        nk = necklace_from_perm(tau_kn(20, 40), 20)
        with pytest.raises(ValueError, match=r"a domain of C\(40,20\) sets is too large to search"):
            domain_in_for_necklace(nk)


    def test_seeded_domains_match_grid_filter(self):
        # the grid filtered by the pair predicate against each necklace set and by the sorted Gale oracle
        rng = random.Random(41)
        for n in (6, 7, 8):
            checked = 0
            while checked < 6:
                images = rng.sample(range(1, n + 1), n)
                if any(images[i - 1] == i for i in range(1, n + 1)):
                    continue
                p = DecoratedPermutation.make(images)
                k = sum(1 for j in range(1, n + 1) if j < p.inverse_images()[j - 1])
                nk = necklace_from_perm(p, k)
                if not nk.connected:
                    continue
                neck = [set(s.elements()) for s in nk.sets]
                expected = tuple(
                    m
                    for m in _whole_grid(n, k)
                    if all(_weakly_separated_masks(m, s.mask) for s in nk.sets)
                    and all(naive_gale_leq(s, set(Subset(m, n).elements()), i, n) for i, s in enumerate(neck, 1))
                )
                assert domain_in_for_necklace(nk).masks == expected, images
                checked += 1


def connected_necklaces(n):
    """All connected necklaces over [n], via fixed-point-free permutations."""
    out = []
    for images in itertools.permutations(range(1, n + 1)):
        if any(images[i - 1] == i for i in range(1, n + 1)):
            continue
        p = DecoratedPermutation.make(images)
        k = sum(1 for j in range(1, n + 1) if j < p.inverse_images()[j - 1])
        try:
            nk = necklace_from_perm(p, k)
        except ValueError:
            continue
        if nk.connected:
            out.append((p, k, nk))
    return out


class TestNecklacePurity:
    def test_inside_domain_rank_and_connectivity_small(self):
        from weaksep.mutations import _grid, _neighbors

        for n in range(2, 6):
            for p, k, nk in connected_necklaces(n):
                dom = domain_in_for_necklace(nk)
                cliques = enumerate_maximal_cliques(build_compat_graph(dom))
                length = length_of(p, k).length
                assert all(len(c) == length + 1 for c in cliques), (n, p.images)
                grid = _grid(n, k)
                node_set = {grid.node(c.masks) for c in cliques}
                seen = {grid.node(cliques[0].masks)}
                frontier = list(seen)
                while frontier:
                    nxt = []
                    for node in frontier:
                        for flip, _ in _neighbors(grid, node):
                            child = node ^ flip
                            if child in node_set and child not in seen:
                                seen.add(child)
                                nxt.append(child)
                    frontier = nxt
                assert seen == node_set, (n, p.images)

    def test_round_trip_on_connected_necklaces(self):
        for n in range(2, 6):
            for p, k, nk in connected_necklaces(n):
                assert perm_from_necklace(nk) == p


class TestSimpleCyclicPattern:
    def lr_pattern(self, chain, n):
        sets = [lr_subset(chain[0], n)]
        for s in chain:
            sets.append(lr_subset([0] + list(s), n))
        sets.append(lr_subset([0] + list(chain[-1]) + [n], n))
        for s in reversed(chain):
            sets.append(lr_subset(list(s) + [n], n))
        return SimpleCyclicPattern.make(sets)

    def test_validation(self):
        with pytest.raises(ValueError):
            SimpleCyclicPattern((sub([1], 3), sub([1, 2, 3], 3)))
        with pytest.raises(ValueError):
            SimpleCyclicPattern((sub([1], 3), sub([1], 3)))

    def test_make_drops_closing_repeat(self):
        p = SimpleCyclicPattern.make(
            [sub([], 3), sub([1], 3), sub([1, 2], 3), sub([2], 3), sub([], 3)]
        )
        assert len(p.sets) == 4

    def test_split_over_too_large_ground_rejected(self):
        # the split scans all 2^21 subsets of [21], beyond the 2^20-set cap
        p = SimpleCyclicPattern((sub([], 21), sub([1], 21)))
        with pytest.raises(ValueError, match="2\\^21 sets is too large"):
            simple_pattern_split(p)

    def test_lr_proof_pattern_split(self):
        p = self.lr_pattern([(), (1,)], 2)
        din, dout = simple_pattern_split(p)
        pattern = {s.mask for s in p.sets}
        assert set(din.masks) == pattern | {lr_subset([1], 2).mask, lr_subset([0, 2], 2).mask}
        assert set(dout.masks) == pattern
        assert set(din.masks) & set(dout.masks) == pattern

    def test_split_covers_compatible_family(self):
        p = self.lr_pattern([(), (2,), (1, 2)], 3)
        din, dout = simple_pattern_split(p)
        n = p.n
        compatible = {
            m
            for m in range(1 << n)
            if all(is_weakly_separated(Subset(m, n), s) for s in p.sets)
        }
        assert set(din.masks) | set(dout.masks) == compatible
        assert set(din.masks) & set(dout.masks) == {s.mask for s in p.sets}

    def test_inside_outside_ranks_and_purity(self):
        for n, chain in ((2, [(), (1,)]), (3, [(), (1,), (1, 2)]), (3, [(), (2,), (1, 2)])):
            p = self.lr_pattern(chain, n)
            din, dout = simple_pattern_split(p)
            inside = {len(c) for c in enumerate_maximal_cliques(build_compat_graph(din))}
            outside = {len(c) for c in enumerate_maximal_cliques(build_compat_graph(dout))}
            assert inside == {n - 1 + len(p.sets)}, (n, chain)
            assert outside == {comb(n, 2) + n + 3}, (n, chain)

    def test_cross_separation(self):
        p = self.lr_pattern([(), (1,), (1, 2)], 3)
        din, dout = simple_pattern_split(p)
        for x in din:
            for y in dout:
                assert is_weakly_separated(x, y)


class TestGeneralizedPattern:
    def test_connected_necklace_qualifies(self):
        nk = necklace_from_perm(tau_kn(2, 4), 2)
        assert is_generalized_cyclic_pattern(list(nk.sets))

    def test_unit_steps_do_not_qualify(self):
        p = [sub([], 3), sub([1], 3), sub([1, 2], 3), sub([2], 3)]
        assert not is_generalized_cyclic_pattern(p)

    def test_incompatible_pair_fails(self):
        # {1,3} and {2,4} alternate, so the cycle is not weakly separated
        seq = [sub([1, 3], 4), sub([2, 3], 4), sub([2, 4], 4), sub([1, 4], 4)]
        assert not is_generalized_cyclic_pattern(seq)
