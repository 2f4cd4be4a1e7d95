"""The symmetries of a pair and the branch and bound that prunes its root by them.

``ground._pair_symmetries`` lists the rotations, reflections and (for |I| =
n/2) complements that fix {I, J}; ``cluster_distance`` hands them to
``max_clique_size``, whose root drops each searched vertex's whole orbit.
Called without them, ``max_clique_size`` is the plain search, which checks
the pruned one here.
"""

import gc
import itertools
import os
import random
from functools import cache, partial, reduce
from operator import or_

import pytest

from weaksep import (
    Collection,
    CompatGraph,
    Subset,
    build_compat_graph,
    build_domain_AIJ,
    circle_partition,
    cluster_distance,
    enumerate_maximal_cliques,
    is_weakly_separated,
    max_clique_size,
)
from weaksep import cliques
from weaksep.cliques import _branch_and_bound, _co_components, _degree_order, _relabelled
from weaksep.ground import _pair_symmetries

from _oracles import naive_pair_stabilizer

LONG = os.environ.get("WEAKSEP_LONG") == "1"


def sub(elems, n):
    return Subset.of(elems, n)


def mirror(a):
    return Subset.of([a.n + 1 - x for x in a.elements()], a.n)


@cache
def small_pairs():
    """Every unordered non-separated pair of equal-size sets with n <= 7."""
    out = []
    for n in range(1, 8):
        for k in range(n + 1):
            sets = [Subset.of(c, n) for c in itertools.combinations(range(1, n + 1), k)]
            out += [(a, b) for a, b in itertools.combinations(sets, 2) if not is_weakly_separated(a, b)]
    return out


@cache
def dihedral_pairs_of_eight():
    """One pair per dihedral orbit of non-separated pairs of 4-subsets of [8]."""
    seen, out = set(), []
    for a, b in itertools.combinations([Subset.of(c, 8) for c in itertools.combinations(range(1, 9), 4)], 2):
        if (a, b) in seen or is_weakly_separated(a, b):
            continue
        for x, y in ((a, b), (mirror(a), mirror(b))):
            for r in range(8):
                seen |= {(x.rotate(r), y.rotate(r)), (y.rotate(r), x.rotate(r))}
        out.append((a, b))
    return out


@cache
def complement_classes(n):
    """One half-size set per complement class whose pair is not weakly separated, the one holding 1."""
    sets = [Subset.of(c, n) for c in itertools.combinations(range(1, n + 1), n // 2) if 1 in c]
    return [(a, a.complement()) for a in sets if circle_partition(a).u >= 2]


def complementary_orbits(n):
    """One pair per orbit of rotation, reflection and I <-> J of the non-separated complementary pairs."""
    seen, out = set(), []
    for c in itertools.combinations(range(1, n + 1), n // 2):
        a = Subset.of(c, n)
        if a.mask in seen:
            continue
        for b in (a, a.complement()):
            seen |= {x.rotate(r).mask for x in (b, mirror(b)) for r in range(n)}
        if circle_partition(a).u >= 2:
            out.append((a, a.complement()))
    return out


def swept_pairs():
    return small_pairs() + dihedral_pairs_of_eight() + complement_classes(10)


def fingerprint(f, n):
    """A map of masks by its images of the singletons and of the empty set, which fix it."""
    return tuple(f(1 << x) for x in range(n)) + (f(0),)


def as_sets(images, n):
    return tuple(frozenset(x + 1 for x in range(n) if m >> x & 1) for m in images)


class TestPairSymmetries:
    def test_sweep_sizes(self):
        assert (len(small_pairs()), len(dihedral_pairs_of_eight()), len(complement_classes(10))) == (456, 65, 121)

    def test_maps_are_the_whole_stabilizer(self):
        # every map fixes {I, J} and is not the identity; with the identity the
        # maps are closed under composition; and they are exactly the maps the
        # brute-force oracle finds
        for i, j in swept_pairs():
            n = i.n
            maps = _pair_symmetries(i.mask, j.mask, n)
            prints = {fingerprint(f, n) for f in maps}
            assert len(prints) == len(maps), (i, j)
            assert fingerprint(lambda s: s, n) not in prints, (i, j)
            for f in maps:
                assert {f(i.mask), f(j.mask)} == {i.mask, j.mask}, (i, j)
            for f, g in itertools.product(maps, repeat=2):
                composed = fingerprint(lambda s: f(g(s)), n)
                assert composed in prints or composed == fingerprint(lambda s: s, n), (i, j)
            assert {as_sets(p, n) for p in prints} == naive_pair_stabilizer(set(i.elements()), set(j.elements()), n), (i, j)

    def test_maps_are_automorphisms_of_the_pair_graph(self):
        for i, j in swept_pairs():
            g = build_compat_graph(build_domain_AIJ(i, j))
            masks = g.vertices.masks
            index = {mask: t for t, mask in enumerate(masks)}
            for f in _pair_symmetries(i.mask, j.mask, i.n):
                image = [index[f(mask)] for mask in masks]
                assert sorted(image) == list(range(len(masks))), (i, j)
                for v, row in enumerate(g.adj):
                    moved = sum(1 << image[w] for w in range(len(masks)) if row >> w & 1)
                    assert moved == g.adj[image[v]], (i, j, v)

    def test_four_one_one_four_has_three(self):
        # the reflection x -> 11-x swaps I and J, complement does too, and so
        # their product fixes each
        i = sub([1, 2, 3, 4, 6], 10)
        maps = _pair_symmetries(i.mask, i.complement().mask, 10)
        assert len(maps) == 3
        assert sorted(fingerprint(f, 10)[-1] for f in maps) == [0, 1023, 1023]
        assert {f(i.mask) for f in maps} == {i.mask, i.complement().mask}

    def test_most_pairs_have_none(self):
        i, j = sub([1, 2, 4], 7), sub([1, 3, 5], 7)
        assert _pair_symmetries(i.mask, j.mask, 7) == [] and naive_pair_stabilizer({1, 2, 4}, {1, 3, 5}, 7) == set()
        assert sum(not _pair_symmetries(i.mask, j.mask, i.n) for i, j in swept_pairs()) == 282


class TestPrunedAgreesWithPlain:
    def test_pair_sweep(self):
        for i, j in swept_pairs():
            n, k = i.n, len(i)
            plain = max_clique_size(build_compat_graph(build_domain_AIJ(i, j)))
            assert cluster_distance(i, j).value == k * (n - k) + 1 - plain, (i, j)

    def test_fourteen_element_pair(self):
        i = sub([1, 2, 3, 4, 8, 9, 10], 14)
        g = build_compat_graph(build_domain_AIJ(i, i.complement()))
        maps = _pair_symmetries(i.mask, i.complement().mask, 14)
        assert len(maps) == 3
        assert max_clique_size(g, lambda: maps) == max_clique_size(g) == 32
        assert cluster_distance(i, i.complement()).value == 18

    def test_circulant_graphs_under_rotation_groups(self):
        # a circulant graph is mapped onto itself by every rotation, and by
        # the reflection v -> -v since its steps come in pairs +-s
        rng = random.Random(32)
        for trial in range(150):
            m = rng.randint(3, 40)
            steps = {s for s in range(1, m // 2 + 1) if rng.random() < rng.choice((0.3, 0.6, 0.85))}
            steps |= {m - s for s in steps}
            adj = [sum(1 << (v + s) % m for s in steps) for v in range(m)]
            plain = _branch_and_bound(adj, (1 << m) - 1)
            for d in (d for d in range(1, m + 1) if m % d == 0):
                for signs in ((1,), (1, -1)):
                    def orbit(v, d=d, signs=signs):
                        return sum({1 << (sign * v + t) % m for sign in signs for t in range(0, m, d)})

                    assert _branch_and_bound(adj, (1 << m) - 1, orbit) == plain, (trial, m, sorted(steps), d, signs)

    def test_transitive_group_branches_the_root_once(self):
        # under all rotations every vertex lies in one orbit, so the root
        # searches one vertex and drops the rest
        m, steps = 13, (1, 5, 8, 12)
        adj = [sum(1 << (v + s) % m for s in steps) for v in range(m)]
        seen = []

        def orbit(v):
            seen.append(v)
            return (1 << m) - 1

        assert _branch_and_bound(adj, (1 << m) - 1, orbit) == _branch_and_bound(adj, (1 << m) - 1) == 2
        assert len(seen) == 1

    def test_parts_swapped_by_a_map(self):
        # of the three maps, the product of the other two fixes each of the
        # two 14-set join parts and the other two exchange them, so one
        # orbit rule must serve maps of both kinds
        i, j = sub([1, 2, 5, 6, 7], 10), sub([3, 4, 8, 9, 10], 10)
        g = build_compat_graph(build_domain_AIJ(i, j))
        maps = _pair_symmetries(i.mask, j.mask, 10)
        assert len(maps) == 3
        masks = g.vertices.masks
        index = {mask: t for t, mask in enumerate(masks)}
        parts = [part for part in _co_components(g.adj) if part.bit_count() > 2]
        assert [part.bit_count() for part in parts] == [14, 14]
        images = [[sum(1 << index[f(masks[v])] for v in range(len(g)) if part >> v & 1) for part in parts] for f in maps]
        assert sorted(images) == sorted([parts, parts[::-1], parts[::-1]])
        assert max_clique_size(g, lambda: maps) == max_clique_size(g)

    def test_pruned_route_leaves_no_reference_cycles(self):
        i = sub([1, 2, 3, 4, 6], 10)
        g = build_compat_graph(build_domain_AIJ(i, i.complement()))
        maps = _pair_symmetries(i.mask, i.complement().mask, 10)
        gc.collect()
        gc.disable()
        try:
            assert max_clique_size(g, lambda: maps) == 22
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.skipif(not LONG, reason="the complementary orbits of twelve run under WEAKSEP_LONG=1")
    def test_long_complementary_orbits_of_twelve(self):
        # 33 of the 34 orbits; the plain branch and bound on {1,2,3,4,5,7} did
        # not finish in 20 s, so it is out of reach
        orbits = complementary_orbits(12)
        assert len(orbits) == 34 and orbits[0][0] == sub([1, 2, 3, 4, 5, 7], 12)
        for i, j in orbits[1:]:
            g = build_compat_graph(build_domain_AIJ(i, j))
            assert max_clique_size(g, partial(_pair_symmetries, i.mask, j.mask, 12)) == max_clique_size(g), i


def compacted(adj, part, orbit):
    """A searched part as the branch and bound sees it: its subgraph and each root orbit in it, renumbered in order."""
    vertices = [v for v in range(len(adj)) if part >> v & 1]
    rows = tuple(sum(1 << t for t, w in enumerate(vertices) if adj[v] >> w & 1) for v in vertices)
    if orbit is None:
        return rows, ()
    return rows, tuple(sum(1 << t for t, w in enumerate(vertices) if orbit(v) >> w & 1) for v in vertices)


def full_relabel_parts(g, maps):
    """The searched parts as the route that relabelled the whole graph before the split handed them on."""
    order = _degree_order(g.adj, range(len(g.adj)), True)
    adj = _relabelled(g.adj, order)
    masks = [g.vertices.masks[v] for v in order]
    index = {mask: 1 << t for t, mask in enumerate(masks)}

    def orbit(v):
        return reduce(or_, (index[f(masks[v])] for f in maps), 1 << v)

    return [compacted(adj, part, orbit if maps else None) for part in _co_components(adj) if part.bit_count() > 2]


class TestSearchedPartsOnly:
    def test_branch_and_bound_gets_the_full_relabel_parts(self, monkeypatch):
        # the relabel of the searched vertices alone hands each part on with
        # the subgraph and root orbits it had in the whole graph relabelled,
        # so each part gets the same tree; parts come in order of their
        # lowest vertex before the relabel, not after
        received = []

        def recording(adj, p, orbit=None):
            received.append(compacted(adj, p, orbit))
            return plain(adj, p, orbit)

        plain = cliques._branch_and_bound
        monkeypatch.setattr(cliques, "_branch_and_bound", recording)
        halves = sub([1, 2, 3, 4, 8, 9, 10], 14)  # two 62-set parts
        pairs = small_pairs()[::4] + swept_pairs()[456:] + [(halves, halves.complement())]
        cases = [(i, j, _pair_symmetries(i.mask, j.mask, i.n)) for i, j in pairs]
        cases += [(i, j, []) for i, j, _ in cases[::3]]
        searched = 0
        for i, j, maps in cases:
            g = build_compat_graph(build_domain_AIJ(i, j))
            received.clear()
            max_clique_size(g, lambda: maps)
            assert sorted(received) == sorted(full_relabel_parts(g, maps)), (i, j, len(maps))
            searched += len(received)
        assert searched > 200

    def test_no_relabel_without_a_searched_part(self, monkeypatch):
        # parts of one or two vertices add 1 each; nothing is relabelled and no map listed
        def refuse(*args):
            raise AssertionError("relabelled or listed without a searched part")

        monkeypatch.setattr(cliques, "_relabelled", refuse)
        monkeypatch.setattr(cliques, "_degree_order", refuse)
        small = 0
        for i, j in swept_pairs():
            g = build_compat_graph(build_domain_AIJ(i, j))
            if all(part.bit_count() <= 2 for part in _co_components(g.adj)):
                assert max_clique_size(g, refuse) == max(len(c) for c in enumerate_maximal_cliques(g)), (i, j)
                small += 1
        assert small > 50


def counted(maps):
    """A lister of ``maps`` and the list of its calls."""
    calls = []

    def listing():
        calls.append(len(maps))
        return maps

    return listing, calls


class TestMapsListedLazily:
    @staticmethod
    def as_graph(adj):
        return CompatGraph(Collection.from_masks(range(1, len(adj) + 1), 6), tuple(adj))

    def test_not_listed_without_a_searched_part(self):
        # every join part of a complete graph has one vertex, and removing a
        # matching pairs them up; neither part size reaches the branch and bound
        for m in range(8):
            whole = (1 << m) - 1
            complete = [whole ^ 1 << v for v in range(m)]
            matched = [row & ~(1 << (v ^ 1)) if v ^ 1 < m else row for v, row in enumerate(complete)]
            for adj, best in ((complete, m), (matched, (m + 1) // 2)):
                listing, calls = counted([])
                assert max_clique_size(self.as_graph(adj), listing) == best, (m, adj)
                assert calls == [], (m, adj)

    def test_listed_once_for_two_searched_parts(self):
        i, j = sub([1, 2, 5, 6, 7], 10), sub([3, 4, 8, 9, 10], 10)
        g = build_compat_graph(build_domain_AIJ(i, j))
        listing, calls = counted(_pair_symmetries(i.mask, j.mask, 10))
        assert max_clique_size(g, listing) == max_clique_size(g)
        assert calls == [3]
