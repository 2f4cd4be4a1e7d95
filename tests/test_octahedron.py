import itertools
import random
from math import comb

import pytest

from weaksep import (
    Collection,
    SquareMove,
    Subset,
    apply_square_move,
    check_no_interior,
    complete_to_maximal,
    explore_mutation_graph,
    find_square_moves,
    move_projection_effect,
    normalize_p4,
    p4_counts,
    phi,
    phi_subset,
)
from weaksep import ground, octahedron
from weaksep.mutations import MutationGraph, _grid
from weaksep.octahedron import ALPHA, SHIFT, _position, check_projection_laws

from _oracles import naive_interval_index, naive_no_interior, naive_shift_sign, pyramid_decomposition


def sub(elems, n):
    return Subset.of(elems, n)


def grid(n, k):
    return Collection(Subset.of(c, n) for c in itertools.combinations(range(1, n + 1), k))


def shift(effect):
    """The 4-vector by which a "shift" effect moves the projected point."""
    return tuple(effect.sign * x for x in SHIFT)


def collections(graph):
    return [Collection.from_masks(node, graph.n) for node in graph.nodes]


def accepts(fn, *args):
    """Whether fn takes the move in args, or rejects it as not applicable."""
    try:
        fn(*args)
    except ValueError as exc:
        assert str(exc) == "move is not applicable to this collection"
        return False
    return True


def splits_of(n):
    return [
        (x, y, z, n - x - y - z)
        for x in range(1, n - 2)
        for y in range(1, n - x - 1)
        for z in range(1, n - x - y)
    ]


class TestPhi:
    def test_examples(self):
        assert phi_subset(sub([1, 2, 4], 6), (2, 1, 1, 2)) == (2, 0, 1, 0)
        assert phi_subset(sub([3, 5, 6], 6), (2, 1, 1, 2)) == (0, 1, 0, 2)
        assert phi_subset(Subset(0, 6), (2, 1, 1, 2)) == (0, 0, 0, 0)

    def test_level_is_cardinality(self):
        for split in splits_of(7):
            for m in range(1 << 7):
                s = Subset(m, 7)
                assert sum(phi_subset(s, split)) == len(s)

    def test_matches_interval_oracle(self):
        for n in range(4, 9):
            for split in splits_of(n):
                for m in range(1 << n):
                    s = Subset(m, n)
                    cells = [naive_interval_index(x, split) for x in s.elements()]
                    assert phi_subset(s, split) == tuple(map(cells.count, range(4))), (m, split)

    def test_collection_order(self):
        c = Collection([sub([3, 5, 6], 6), sub([1, 2, 4], 6)])
        assert phi(c, (2, 1, 1, 2)) == [(2, 0, 1, 0), (0, 1, 0, 2)]

    def test_bad_split(self):
        with pytest.raises(ValueError):
            phi_subset(sub([1], 6), (2, 2, 1, 2))
        with pytest.raises(ValueError):
            phi_subset(sub([1], 6), (3, 1, 0, 2))


class TestPyramidPosition:
    def test_interior_example(self):
        assert _position((2, 0, 1, 0), 1, (0, 1, 0, 2)) == "interior"

    def test_apex_is_boundary(self):
        assert _position((2, 0, 1, 0), 1, (2, 0, 1, 0)) == "boundary"

    def test_edge_point_is_boundary(self):
        assert _position((2, 0, 1, 0), 1, (2, 0, 0, 1)) == "boundary"

    def test_facets_match_span_decomposition(self):
        rng = random.Random(11)
        apex = (3, 1, 2, 2)
        for orientation in (1, -1):
            for _ in range(10_000):
                ts = [rng.randint(0, 6) for _ in range(4)]
                v = tuple(
                    apex[t] + orientation * sum(ts[e] * ALPHA[e][t] for e in range(4))
                    for t in range(4)
                )
                assert _position(apex, orientation, v) != "outside"
            # converse: every sign-satisfying integral offset decomposes
            for d1 in range(-8, 1):
                for d2 in range(0, 9):
                    for d3 in range(-8, 1):
                        d4 = -(d1 + d2 + d3)
                        if d4 < 0 or d4 > 8:
                            continue
                        off = (d1, d2, d3, d4)
                        v = tuple(apex[t] + orientation * off[t] for t in range(4))
                        ts = pyramid_decomposition(apex, orientation, v)
                        assert ts is not None and all(t >= 0 for t in ts)
                        rebuilt = tuple(
                            apex[t] + orientation * sum(ts[e] * ALPHA[e][t] for e in range(4))
                            for t in range(4)
                        )
                        assert rebuilt == v

    def test_outside_never_decomposes(self):
        rng = random.Random(5)
        for _ in range(2000):
            v = [rng.randint(-4, 4) for _ in range(3)]
            v.append(3 - sum(v))
            outside = _position((2, 0, 1, 0), 1, tuple(v)) == "outside"
            assert outside == (pyramid_decomposition((2, 0, 1, 0), 1, tuple(v)) is None)


class TestP4Counts:
    def test_six_element_case(self):
        pc = p4_counts(sub([1, 2, 4], 6))
        assert pc.p == (2, 1, 1, 2)
        assert pc.z_count == pc.z_formula == 2
        assert pc.interior_pq_count == pc.cuboid_formula == 2
        assert pc.match

    def test_eight_element_case(self):
        pc = p4_counts(sub([1, 2, 5, 6], 8))
        assert pc.z_count == pc.z_formula == 5
        assert pc.interior_pq_count == pc.cuboid_formula == 6

    def test_wrong_run_count_rejected(self):
        with pytest.raises(ValueError):
            p4_counts(sub([1, 2], 4))  # two runs
        with pytest.raises(ValueError):
            p4_counts(sub([1, 3, 5], 6))  # six runs

    def test_normalization(self):
        assert normalize_p4((2, 1, 1, 2)) == (2, 2, 1, 1)
        assert normalize_p4((1, 2, 2, 1)) == (2, 2, 1, 1)
        assert normalize_p4((3, 3, 2, 2)) == (3, 3, 2, 2)

    def test_formulas_exhaustive_small(self):
        for k in range(2, 7):
            for p1 in range(1, k):
                for p2 in range(1, k):
                    p = (p1, p2, k - p1, k - p2)
                    elements = list(range(1, p1 + 1)) + [p1 + p2 + t for t in range(1, p[2] + 1)]
                    pc = p4_counts(Subset.of(elements, 2 * k))
                    assert pc.p == p and pc.match, p


class TestCheckNoInterior:
    def test_maximal_collection_passes(self):
        c = complete_to_maximal(Collection.from_masks([], 6), grid(6, 3))
        for split in splits_of(6):
            assert check_no_interior(c, split).ok

    def test_incompatible_pair_violates(self):
        c = Collection([sub([1, 2, 4], 6), sub([3, 5, 6], 6)])
        verdict = check_no_interior(c, (2, 1, 1, 2))
        assert not verdict.ok
        assert {verdict.apex, verdict.inside} == {sub([1, 2, 4], 6), sub([3, 5, 6], 6)}

    def test_singleton_passes(self):
        assert check_no_interior(Collection([sub([2, 3], 5)]), (1, 1, 1, 2)).ok

    @staticmethod
    def assert_matches_oracle(c, split):
        subsets = c.subsets()
        expected = naive_no_interior([set(s.elements()) for s in subsets], split)
        verdict = check_no_interior(c, split)
        if expected is None:
            assert verdict.ok, (c, split)
        else:
            assert not verdict.ok, (c, split)
            assert (verdict.apex, verdict.inside) == (subsets[expected[0]], subsets[expected[1]])
        return expected is not None

    def test_matches_oracle_on_three_of_six_graph(self):
        seed = complete_to_maximal(Collection.from_masks([], 6), grid(6, 3))
        for node in collections(explore_mutation_graph(seed)):
            for split in splits_of(6):
                assert not self.assert_matches_oracle(node, split)

    def test_matches_oracle_on_seeded_non_separated_collections(self):
        rng = random.Random(17)
        violations = 0
        for n in (6, 7, 8):
            splits = splits_of(n)
            for _ in range(40):
                k = rng.randint(2, n - 2)
                cells = list(itertools.combinations(range(1, n + 1), k))
                c = Collection(sub(e, n) for e in rng.sample(cells, rng.randint(2, 12)))
                for split in rng.sample(splits, 3):
                    violations += self.assert_matches_oracle(c, split)
        assert violations > 50


class TestMoveProjection:
    def test_four_distinct_intervals_shift(self):
        c = complete_to_maximal(Collection([sub([1, 3], 4)]), grid(4, 2))
        move = find_square_moves(c)[0]
        effect = move_projection_effect(c, move, (1, 1, 1, 1))
        assert effect.kind == "shift" and shift(effect) == (-1, 1, -1, 1)

    def test_shared_interval_unchanged(self):
        seed = complete_to_maximal(Collection([sub([1, 3, 5], 6)]), grid(6, 3))
        split = (2, 1, 1, 2)
        found = False
        for move in find_square_moves(seed):
            effect = move_projection_effect(seed, move, split)
            if effect.kind == "unchanged":
                found = True
                before = set(phi(seed, split))
                after = set(phi(apply_square_move(seed, move), split))
                assert before == after
        assert found

    def test_shift_sign_matches_interval_oracle(self):
        # every cyclically ordered quadruple is a rotation of an increasing one
        for n in range(4, 9):
            for split in splits_of(n):
                windows = octahedron._split_windows(split, n)
                for p in itertools.combinations(range(1, n + 1), 4):
                    for r in range(4):
                        a, b, c, d = p[r:] + p[:r]
                        assert octahedron._shift_sign(a, b, c, d, windows) == naive_shift_sign(
                            a, b, c, d, split
                        ), (a, b, c, d, split)

    def test_inapplicable_move_rejected(self):
        c = complete_to_maximal(Collection([sub([1, 3], 4)]), grid(4, 2))
        # a crossed labelling, then labels outside [1, 4]
        for labels in ((1, 2, 4, 3), (0, 2, 3, 4), (1, 2, 3, 5)):
            bogus = SquareMove(Subset(0, 4), *labels)
            assert not accepts(move_projection_effect, c, bogus, (1, 1, 1, 1))
            assert not accepts(apply_square_move, c, bogus)

    def test_applicability_matches_move_list(self):
        # every tuple with |s| = k - 2 and a, b, c, d distinct outside s, in
        # every order: both move functions accept exactly the four labellings
        # of each listed move, and the four give one child and one effect
        n, k = 6, 3
        seed = complete_to_maximal(Collection.from_masks([], n), grid(n, k))
        for node in collections(explore_mutation_graph(seed)):
            labellings = {}
            for m in find_square_moves(node):
                for a, b, c, d in (
                    (m.a, m.b, m.c, m.d),
                    (m.c, m.d, m.a, m.b),
                    (m.a, m.d, m.c, m.b),
                    (m.c, m.b, m.a, m.d),
                ):
                    labellings[SquareMove(m.s, a, b, c, d)] = m
            accepted = set()
            for s in itertools.combinations(range(1, n + 1), k - 2):
                rest = [x for x in range(1, n + 1) if x not in s]
                for a, b, c, d in itertools.permutations(rest, 4):
                    move = SquareMove(sub(s, n), a, b, c, d)
                    applied = accepts(apply_square_move, node, move)
                    assert accepts(move_projection_effect, node, move, (1, 2, 1, 2)) == applied
                    if applied:
                        accepted.add(move)
            assert accepted == labellings.keys()
            for move, listed in labellings.items():
                assert apply_square_move(node, move) == apply_square_move(node, listed)
                for split in splits_of(n):
                    effect = move_projection_effect(node, move, split)
                    assert effect == move_projection_effect(node, listed, split)

    def test_shift_really_shifts(self):
        c = complete_to_maximal(Collection([sub([1, 3], 4)]), grid(4, 2))
        move = find_square_moves(c)[0]
        split = (1, 1, 1, 1)
        effect = move_projection_effect(c, move, split)
        src = phi_subset(move.removed, split)
        dst = phi_subset(move.added, split)
        assert tuple(dst[t] - src[t] for t in range(4)) == shift(effect)


class TestExplorationConsistency:
    def test_graph_outlives_its_cached_grid(self):
        # a graph decodes and expands through the grid that numbered it, which
        # the grid LRU may since have dropped for a fresh, empty one
        seed = complete_to_maximal(Collection.from_masks([], 6), grid(6, 3))
        graph = explore_mutation_graph(seed)
        split = (2, 2, 1, 1)
        nodes, laws = graph.nodes, check_projection_laws(graph, split)
        assert len(nodes) == 34 and laws[0] > 0 and laws[1]
        for n in range(7, 7 + ground._GRIDS):
            other = complete_to_maximal(Collection.from_masks([], n), grid(n, 2))
            explore_mutation_graph(other, budget=3)
        assert _grid(6, 3) is not graph.grid
        assert graph.nodes == nodes
        assert check_projection_laws(graph, split) == laws

    def test_interior_pair_breaks_the_laws(self):
        # {1,2,4} projects strictly inside a pyramid of {3,5,6} under (2,1,1,2)
        table = _grid(6, 3)
        node = table.node((sub([1, 2, 4], 6).mask, sub([3, 5, 6], 6).mask))
        graph = MutationGraph(6, 3, 1, 0, True, (node,), table)
        assert check_projection_laws(graph, (2, 1, 1, 2)) == (0, False)

    def test_wrong_shift_breaks_the_laws(self, monkeypatch):
        seed = complete_to_maximal(Collection.from_masks([], 4), grid(4, 2))
        graph = explore_mutation_graph(seed)
        assert check_projection_laws(graph, (1, 1, 1, 1)) == (2, True)
        monkeypatch.setattr(octahedron, "SHIFT", tuple(-x for x in octahedron.SHIFT))
        assert check_projection_laws(graph, (1, 1, 1, 1)) == (2, False)

    def test_projection_laws_on_small_grids(self):
        for n in (4, 5, 6):
            seed = complete_to_maximal(Collection.from_masks([], n), grid(n, 2))
            graph = explore_mutation_graph(seed)
            nodes = collections(graph)
            for split in splits_of(n):
                for node in nodes:
                    assert check_no_interior(node, split).ok
                    for move in find_square_moves(node):
                        effect = move_projection_effect(node, move, split)
                        before = set(phi(node, split))
                        after = set(phi(apply_square_move(node, move), split))
                        if effect.kind == "unchanged":
                            assert before == after
                        else:
                            src = phi_subset(move.removed, split)
                            dst = phi_subset(move.added, split)
                            assert tuple(dst[t] - src[t] for t in range(4)) == shift(effect)

    def test_distance_consistency_with_counts(self):
        # every four-run complementary shape with k <= 4: max collection size
        # and exact distance line up with the counts; move distance checked on
        # the desk-scale shapes
        from weaksep import (
            build_compat_graph,
            build_domain_AIJ,
            circle_partition,
            cluster_distance,
            max_clique_size,
            mutation_distance,
        )

        for k in (2, 3, 4):
            n = 2 * k
            for combo in itertools.combinations(range(1, n + 1), k):
                a = Subset.of(combo, n)
                if circle_partition(a).u != 2:
                    continue
                comp = a.complement()
                counts = p4_counts(a)
                mx = max_clique_size(build_compat_graph(build_domain_AIJ(a, comp)))
                assert mx == 2 * k + sum(comb(x, 2) for x in counts.p), a
                assert cluster_distance(a, comp).value == counts.z_formula, a
                if k <= 3:
                    assert mutation_distance(a, comp).distance == counts.cuboid_formula, a
