import functools
import gc
import itertools
import json
import os
import random
import sys
from collections import Counter

import pytest

from weaksep import (
    Collection,
    GroundSetMismatch,
    Subset,
    boundary_intervals,
    build_compat_graph,
    build_domain_AIJ,
    circle_partition,
    complete_to_maximal,
    domain_in_for_necklace,
    enumerate_maximal_cliques,
    lr_domain,
    max_clique_size,
    necklace_from_perm,
    purity_report,
    tau_kn,
    unbalanced_witness,
)
from weaksep import cliques, ground
from weaksep.cliques import (
    CompatGraph,
    PurityReport,
    _branch_and_bound,
    _bron_kerbosch,
    _clique_census,
    _clique_sizes,
    _co_components,
    _degree_order,
    _relabelled,
)
from weaksep.ground import _chord_separated_masks, _power_set, _weakly_separated_masks, _whole_grid
from weaksep.mutations import _grid, _maximal_collections_containing

from _oracles import (
    naive_chord_separated,
    naive_co_components,
    naive_maximal_cliques,
    naive_relation_rows,
    naive_weakly_separated,
    pairwise_adjacency,
    plain_bron_kerbosch,
)

LONG = os.environ.get("WEAKSEP_LONG") == "1"


def sub(elems, n):
    return Subset.of(elems, n)


def coll(sets, n):
    return Collection(Subset.of(s, n) for s in sets)


def random_graph(rng, m, density):
    adj = [0] * m
    for i in range(m):
        for j in range(i + 1, m):
            if rng.random() < density:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def permuted(adj, perm):
    """The graph with vertex u renamed perm[u]."""
    moved = [0] * len(adj)
    for u, row in enumerate(adj):
        for v in range(len(adj)):
            if row >> v & 1:
                moved[perm[u]] |= 1 << perm[v]
    return moved


def as_graph(adj):
    return CompatGraph(Collection.from_masks(range(1, len(adj) + 1), 6), tuple(adj))


def degree_ordered(adj, descending):
    return _relabelled(adj, _degree_order(adj, range(len(adj)), descending))


@functools.lru_cache(maxsize=None)
def reference_rows(n, relation):
    return naive_relation_rows(n, relation)


def assert_rows_match_reference(domain):
    """Both relations' rows equal those the brute-force predicates give on the power set of [n]."""
    masks = domain.masks
    for relation in cliques.RELATIONS:
        table = reference_rows(domain.n, relation)
        expected = tuple(sum(1 << u for u, t in enumerate(masks) if table[s] >> t & 1) for s in masks)
        assert build_compat_graph(domain, relation).adj == expected, (domain, relation)


class TestCollection:
    def test_canonical_order_and_dedup(self):
        c = Collection([sub([3], 4), sub([1], 4), sub([3], 4)])
        assert [s.elements() for s in c] == [(1,), (3,)]
        assert len(c) == 2

    def test_equality_and_hash(self):
        a = coll([[1, 2], [3, 4]], 4)
        b = coll([[3, 4], [1, 2]], 4)
        assert a == b and hash(a) == hash(b)

    def test_mixed_ground_rejected(self):
        with pytest.raises(GroundSetMismatch):
            Collection([sub([1], 4), sub([1], 5)])

    def test_contains(self):
        c = coll([[1, 2]], 4)
        assert sub([1, 2], 4) in c
        assert sub([1, 2], 5) not in c

    def test_empty_via_from_masks(self):
        c = Collection.from_masks([], 4)
        assert len(c) == 0 and c.to_json() == []


class TestBuildCompatGraph:
    def test_boundary_intervals_complete(self):
        g = build_compat_graph(boundary_intervals(3, 6), "weak")
        assert all(adj.bit_count() == 5 for adj in g.adj)

    def test_incompatible_pair(self):
        g = build_compat_graph(coll([[1, 2, 4], [3, 5, 6]], 6), "weak")
        assert g.adj == (0, 0)

    def test_singleton(self):
        g = build_compat_graph(coll([[2]], 5), "weak")
        assert g.adj == (0,)

    def test_empty_domain_has_no_vertices(self):
        empty = Collection.from_masks([], 4)
        for relation in cliques.RELATIONS:
            g = build_compat_graph(empty, relation)
            assert len(g) == 0 and g.adj == () and g.vertices == empty
            assert purity_report(empty, relation) == PurityReport(0, {})
            assert enumerate_maximal_cliques(g) == []
            assert max_clique_size(g) == 0

    def test_unknown_relation(self):
        with pytest.raises(ValueError):
            build_compat_graph(coll([[1]], 3), "strong")


class TestSeparatedRows:
    """``build_compat_graph``'s row walk against the brute-force predicates of ``_oracles``."""

    def test_every_pair_domain_up_to_eight(self):
        domains = {
            build_domain_AIJ(Subset(a, n), Subset(b, n))
            for n in range(1, 9)
            for k in range(1, n)
            for a, b in itertools.combinations(_whole_grid(n, k), 2)
        }
        assert len(domains) == 6003
        for dom in domains:
            assert_rows_match_reference(dom)

    def test_lr_domains_and_power_sets(self):
        # power sets hold every size, so weak separation's size rule decides many pairs
        for n in range(1, 7):
            assert_rows_match_reference(lr_domain(n))
        for n in range(1, 8):
            assert_rows_match_reference(Collection.from_masks(_power_set(n), n))

    def test_seeded_mixed_size_mask_sets(self):
        rng = random.Random(33)
        for _ in range(2000):
            n = rng.randint(1, 9)
            masks = rng.sample(range(1 << n), rng.randint(0, min(24, 1 << n)))
            assert_rows_match_reference(Collection.from_masks(masks, n))

    def test_empty_and_one_vertex_domains(self):
        for n in (1, 2, 5, 9):
            assert_rows_match_reference(Collection.from_masks([], n))
            for mask in range(1 << n):
                assert_rows_match_reference(Collection.from_masks([mask], n))

    def test_calls_no_pair_predicate(self, monkeypatch):
        dom = lr_domain(5)
        expected = {relation: build_compat_graph(dom, relation) for relation in cliques.RELATIONS}

        def refuse(*args):
            raise AssertionError("a pair predicate was called")

        for module in (cliques, ground):
            for name in ("_weakly_separated_masks", "_chord_separated_masks", "_surrounds_masks"):
                monkeypatch.setattr(module, name, refuse, raising=False)
        for relation in cliques.RELATIONS:
            assert build_compat_graph(dom, relation) == expected[relation]

    def test_fourteen_pair_against_pairwise_loop(self):
        i = sub([1, 2, 3, 4, 5, 8, 9], 14)  # the (5,2,2,5) pair
        dom = build_domain_AIJ(i, i.complement())
        assert len(dom) == 282
        for relation, related in (("weak", _weakly_separated_masks), ("chord", _chord_separated_masks)):
            assert build_compat_graph(dom, relation).adj == pairwise_adjacency(dom.masks, related)

    @pytest.mark.skipif(not LONG, reason="the n=14 pair against the brute-force predicates runs under WEAKSEP_LONG=1")
    def test_long_fourteen_pair_against_naive_predicates(self):
        i = sub([1, 2, 3, 4, 5, 8, 9], 14)
        dom = build_domain_AIJ(i, i.complement())
        sets = [set(s.elements()) for s in dom]
        for relation, related in (
            ("weak", naive_weakly_separated),
            ("chord", lambda s, t: naive_chord_separated(s, t, 14)),
        ):
            assert build_compat_graph(dom, relation).adj == pairwise_adjacency(sets, related)


class TestEnumerateMaximalCliques:
    def test_four_cycle(self):
        # the four extra members of one pair domain form a 4-cycle: four
        # maximal cliques of size 2 and no triangles
        square = coll([[1, 2, 3, 4, 9], [1, 3, 4, 5, 6], [5, 6, 7, 8, 10], [2, 7, 8, 9, 10]], 10)
        cliques = enumerate_maximal_cliques(build_compat_graph(square, "weak"))
        assert len(cliques) == 4
        assert all(len(c) == 2 for c in cliques)

    def test_edgeless(self):
        c = coll([[1, 2], [1, 3], [2, 3]], 3)
        g = build_compat_graph(c, "weak")
        # these three are actually pairwise compatible; force an edgeless graph
        from weaksep.cliques import CompatGraph

        g = CompatGraph(c, (0, 0, 0))
        cliques = enumerate_maximal_cliques(g)
        assert [len(x) for x in cliques] == [1, 1, 1]

    def test_complete_triangle(self):
        cliques = enumerate_maximal_cliques(build_compat_graph(boundary_intervals(1, 3), "weak"))
        assert len(cliques) == 1 and len(cliques[0]) == 3

    def test_matches_naive_oracle_on_random_graphs(self):
        rng = random.Random(42)
        from weaksep.cliques import CompatGraph

        for trial in range(40):
            m = rng.randint(1, 12)
            adj = random_graph(rng, m, 0.45)
            vertices = Collection.from_masks(range(1, m + 1), 6)
            g = CompatGraph(vertices, tuple(adj))
            got = {
                frozenset(vertices.masks.index(s.mask) for s in c)
                for c in enumerate_maximal_cliques(g)
            }
            assert got == naive_maximal_cliques(adj)
            assert max_clique_size(g) == max(len(c) for c in got)

    def test_every_emitted_clique_is_maximal(self):
        dom = build_domain_AIJ(sub([1, 2, 4, 6, 8], 10), sub([3, 5, 7, 9, 10], 10))
        g = build_compat_graph(dom, "weak")
        members = list(range(len(dom)))
        for c in enumerate_maximal_cliques(g):
            idx = [g.vertices.masks.index(s.mask) for s in c]
            chosen = 0
            for v in idx:
                chosen |= 1 << v
            for v in members:
                if not chosen >> v & 1:
                    assert g.adj[v] & chosen != chosen

    def test_cliques_equal_the_checked_route(self):
        # cliques are wrapped without the sort, dedup and range check of
        # from_masks; they must come out as that route would build them
        rng = random.Random(21)
        for trial in range(60):
            n = rng.randint(3, 7)
            dom = Collection.from_masks(rng.sample(range(1 << n), rng.randint(1, min(30, 1 << n))), n)
            for c in enumerate_maximal_cliques(build_compat_graph(dom)):
                checked = Collection.from_masks(c.masks, n)
                assert c == checked and hash(c) == hash(checked), trial
                assert type(c.masks) is tuple and c.to_json() == checked.to_json(), trial

    def test_deterministic_stream(self):
        dom = build_domain_AIJ(sub([1, 2, 4], 6), sub([3, 5, 6], 6))
        g = build_compat_graph(dom, "weak")
        runs = [json.dumps([c.to_json() for c in enumerate_maximal_cliques(g)]) for _ in range(2)]
        assert runs[0] == runs[1]


class TestWeightedBronKerbosch:
    def test_bit_and_unit_weights_match_naive_oracle(self):
        # weight 1 << v visits each clique as its vertex bitset, weight 1 as
        # its size; densities from sparse to near-complete, up to 12 vertices
        rng = random.Random(9)
        for trial in range(60):
            m = rng.randint(1, 12)
            adj = random_graph(rng, m, rng.choice((0.1, 0.3, 0.5, 0.7, 0.9)))
            expected = naive_maximal_cliques(adj)
            bitsets, sizes = [], []
            _bron_kerbosch(tuple(adj), [1 << v for v in range(m)], bitsets.append)
            _bron_kerbosch(tuple(adj), [1] * m, sizes.append)
            cliques = [frozenset(v for v in range(m) if r >> v & 1) for r in bitsets]
            assert len(cliques) == len(set(cliques)), (trial, m)
            assert set(cliques) == expected, (trial, m)
            assert sorted(sizes) == sorted(len(c) for c in expected), (trial, m)
            # both weightings walk one recursion tree, so the visits pair up
            assert sizes == [len(c) for c in cliques], (trial, m)

    def test_empty_graph_visits_nothing(self):
        seen = []
        _bron_kerbosch((), [], seen.append)
        assert seen == []

    def check_against_oracle(self, adj, label):
        bitsets = []
        _bron_kerbosch(tuple(adj), [1 << v for v in range(len(adj))], bitsets.append)
        cliques = [frozenset(v for v in range(len(adj)) if r >> v & 1) for r in bitsets]
        assert len(cliques) == len(set(cliques)), label
        assert set(cliques) == naive_maximal_cliques(adj), label

    def test_dense_graphs_match_naive_oracle(self):
        # dense graphs have many candidates adjacent to all the others, so
        # most branches fold vertices
        rng = random.Random(11)
        for trial in range(40):
            m = rng.randint(2, 14)
            adj = random_graph(rng, m, rng.uniform(0.8, 0.97))
            self.check_against_oracle(adj, (trial, m))

    def test_planted_universal_vertices_match_naive_oracle(self):
        rng = random.Random(12)
        for trial in range(40):
            m = rng.randint(2, 13)
            adj = random_graph(rng, m, rng.choice((0.2, 0.5, 0.8)))
            for u in rng.sample(range(m), rng.randint(1, max(1, m // 3))):
                for v in range(m):
                    if v != u:
                        adj[u] |= 1 << v
                        adj[v] |= 1 << u
            self.check_against_oracle(adj, (trial, m))

    def test_covered_candidates_match_naive_oracle(self):
        # a vertex w planted with the neighbourhood of an earlier vertex u and
        # not adjacent to it: once u's branch is done, u sits in X and covers
        # every candidate of w's branch
        rng = random.Random(13)
        for trial in range(40):
            m = rng.randint(2, 12)
            adj = random_graph(rng, m, rng.choice((0.3, 0.5, 0.7, 0.9)))
            u = rng.randrange(m)
            adj.append(adj[u])
            for v in range(m):
                if adj[u] >> v & 1:
                    adj[v] |= 1 << m
            self.check_against_oracle(adj, (trial, m))

    def test_large_complete_graph_is_one_visit(self):
        # folding takes every vertex at the root: no recursion at all
        m = 1500
        full = (1 << m) - 1
        seen = []
        _bron_kerbosch(tuple(full & ~(1 << v) for v in range(m)), [1 << v for v in range(m)], seen.append)
        assert seen == [full]


def census_sizes(adj):
    """``_clique_census`` at ``purity_report``'s digit width, read back as size -> count."""
    digit = len(adj) * 17 // 32 + 2
    census = _clique_census(tuple(adj), digit)
    out, size = {}, 0
    while census:
        census, count = divmod(census, 1 << digit)
        if count:
            out[size] = count
        size += 1
    return out


def size_counts(bitsets):
    return dict(Counter(r.bit_count() for r in bitsets))


def same_visits(g: CompatGraph) -> int:
    """Both kernels visit the same multiset of vertex bitsets, which the census counts by size; returns how many."""
    weight = [1 << v for v in range(len(g))]
    fast, plain = [], []
    _bron_kerbosch(g.adj, weight, fast.append)
    plain_bron_kerbosch(g.adj, weight, plain.append)
    assert sorted(fast) == sorted(plain)
    assert census_sizes(g.adj) == size_counts(plain)
    return len(fast)


def complementary_pair_domains(n):
    """The domain of every non-separated complementary pair of half-size sets holding 1."""
    return [
        build_domain_AIJ(a, a.complement())
        for a in (Subset.of(c, n) for c in itertools.combinations(range(1, n + 1), n // 2) if 1 in c)
        if circle_partition(a).u >= 2
    ]


class TestFoldAgainstPlainKernel:
    def test_every_graph_on_at_most_six_vertices(self):
        # all 33,868 labelled graphs: every child with one or two candidates,
        # adjacent or not, meets every way an X vertex can cover its cliques
        graphs = replaying = 0
        for m in range(7):
            pairs = list(itertools.combinations(range(m), 2))
            for edges in range(1 << len(pairs)):
                adj = [0] * m
                for e, (u, v) in enumerate(pairs):
                    if edges >> e & 1:
                        adj[u] |= 1 << v
                        adj[v] |= 1 << u
                for weight in ([1 << v for v in range(m)], [1] * m):
                    plain = []
                    fast, replayed, _ = traced_visits(adj, weight)
                    plain_bron_kerbosch(adj, weight, plain.append)
                    assert sorted(fast) == sorted(plain), (m, edges, weight)
                # the unit weights, visited last, give the clique sizes
                assert census_sizes(adj) == dict(Counter(plain)), (m, edges)
                graphs += 1
                # e.g. a root vertex folded, then two candidates whose children
                # share P and X: 25 graphs on five vertices and 991 on six
                replaying += replayed > 0
        assert graphs == 33868 and replaying == 1016

    def test_grids(self):
        for n, k in ((6, 3), (7, 3), (8, 4)):
            grid = Collection.from_masks(_whole_grid(n, k), n)
            assert same_visits(build_compat_graph(grid)) > 0, (n, k)

    def test_every_tenth_pair_domain_of_ten(self):
        domains = complementary_pair_domains(10)
        assert len(domains) == 121
        for dom in domains[::10]:
            same_visits(build_compat_graph(dom))

    @pytest.mark.skipif(not LONG, reason="all pair domains of ten and the n=12 pair run under WEAKSEP_LONG=1")
    def test_long_all_pair_domains_of_ten_and_twelve(self):
        for dom in complementary_pair_domains(10):
            same_visits(build_compat_graph(dom))
        i = sub([1, 2, 3, 7, 8, 9], 12)
        assert same_visits(build_compat_graph(build_domain_AIJ(i, i.complement()))) == 73984


def traced_visits(adj, weight):
    """The kernel's visits, and how many came from a replay and from a child a replay re-expanded."""
    out, replayed, reexpanded = [], 0, 0

    def visit(r):
        nonlocal replayed, reexpanded
        # the caller's frame says which path made the visit
        caller = sys._getframe(1)
        if caller.f_code.co_name == "replay":
            replayed += 1
        elif caller.f_back.f_code.co_name == "replay":
            reexpanded += 1
        out.append(r)

    _bron_kerbosch(tuple(adj), weight, visit)
    return out, replayed, reexpanded


def unbalanced_ten():
    """The runs (4,1,1,4) pair domain at n=10: 114 sets, 52,758 maximal cliques."""
    i = sub([1, 2, 3, 5, 10], 10)
    return build_domain_AIJ(i, i.complement())


class TestBranchMemo:
    # a memo that keeps only its latest record, one cleared every five
    # records, and the default; the visits, their order and the census must
    # not depend on it
    BOUNDS = (0, 1, 5, cliques._BRANCHES)

    def graphs(self):
        out = [build_compat_graph(dom) for dom in complementary_pair_domains(8)]
        for n, k in ((6, 3), (7, 3), (8, 4)):
            out.append(build_compat_graph(Collection.from_masks(_whole_grid(n, k), n)))
        return out + [build_compat_graph(unbalanced_ten())]

    def test_every_bound_matches_plain_kernel(self, monkeypatch):
        graphs = self.graphs()
        assert len(graphs) == 35
        for g in graphs:
            m = len(g)
            weight = [1 << v for v in range(m)]
            plain = []
            plain_bron_kerbosch(g.adj, weight, plain.append)
            runs = []
            for bound in self.BOUNDS:
                monkeypatch.setattr(cliques, "_BRANCHES", bound)
                bitsets, replayed, reexpanded = traced_visits(g.adj, weight)
                sizes, _, _ = traced_visits(g.adj, [1] * m)
                assert sorted(bitsets) == sorted(plain), (m, bound)
                assert census_sizes(g.adj) == size_counts(plain), (m, bound)
                # both weightings replay the same records, so the visits pair up
                assert sizes == [r.bit_count() for r in bitsets], (m, bound)
                runs.append(bitsets)
                if m == 114 and bound >= 5:
                    assert replayed > 0, bound
                if m == 114 and bound == 5:
                    # replayed records name children cleared since
                    assert reexpanded > 0
            assert all(run == runs[0] for run in runs), m

    def test_twelve_pair_census(self):
        # runs (2,4,4,2): 90 sets, many repeated branches; runs (3,3,3,3): 76 sets
        for elems, size, rank, count in (([1, 6, 7, 8, 9, 12], 90, 26, 162264), ([1, 2, 3, 7, 8, 9], 76, 24, 73984)):
            i = sub(elems, 12)
            dom = build_domain_AIJ(i, i.complement())
            report = purity_report(dom)
            assert len(dom) == size and report.clique_sizes == {rank: count}
            assert max_clique_size(build_compat_graph(dom)) == rank


def twin_graph(rng, m, density):
    """A random graph on an even m vertices kept by a random fixed-point-free involution, and the involution.

    The twins are a shuffled matching, so rarely next to each other in index
    order, and each pair of twins is adjacent with probability one half.
    """
    order = rng.sample(range(m), m)
    twin = [0] * m
    for u, v in zip(order[::2], order[1::2]):
        twin[u], twin[v] = v, u
    adj = [0] * m
    for u, v in itertools.combinations(range(m), 2):
        image = tuple(sorted((twin[u], twin[v])))
        if (u, v) <= image and rng.random() < (0.5 if v == twin[u] else density):
            for a, b in ((u, v), image):
                adj[a] |= 1 << b
                adj[b] |= 1 << a
    assert permuted(adj, twin) == adj
    return adj, twin


def complement_twins(dom):
    """For each position in the domain, the position of that set's complement."""
    index = {mask: v for v, mask in enumerate(dom.masks)}
    return [index[(1 << dom.n) - 1 ^ mask] for mask in dom.masks]


class TestCliqueCensus:
    def test_twin_root_matches_plain_census(self):
        # the root must search an adjacent twin right after its partner; one
        # that walked its candidates in index order got 243 of these wrong,
        # where every real domain, weak power sets included, came out right
        rng = random.Random(35)
        for trial in range(400):
            m = 2 * rng.randint(1, 20)
            adj, twin = twin_graph(rng, m, rng.uniform(0.2, 0.8))
            digit = m * 17 // 32 + 2
            census = _clique_census(adj, digit)
            assert _clique_census(adj, digit, twin) == census, trial
            if m <= 12:
                sizes = Counter(len(c) for c in naive_maximal_cliques(adj))
                assert census == sum(count << digit * size for size, count in sizes.items()), trial

    def test_random_graphs_match_plain_kernel(self):
        rng = random.Random(17)
        for density in (0.1, 0.3, 0.5, 0.7, 0.9):
            for m in (1, 2, 3, 7, 12, rng.randint(13, 40), 40):
                adj = random_graph(rng, m, density)
                plain = []
                plain_bron_kerbosch(adj, [1 << v for v in range(m)], plain.append)
                assert census_sizes(adj) == size_counts(plain), (density, m)

    def test_lr_and_chord_domains(self):
        graphs = [build_compat_graph(lr_domain(n)) for n in range(1, 7)]
        graphs += [build_compat_graph(Collection.from_masks(_power_set(n), n), "chord") for n in range(1, 6)]
        for g in graphs:
            same_visits(g)

    def test_relabelled_census_matches_given_order(self):
        # _clique_sizes counts on the graph relabelled by ascending degree,
        # census_sizes in the given order
        rng = random.Random(28)
        graphs = [[], [0], [0, 0], [2, 1]]
        for density in (0.1, 0.3, 0.5, 0.7, 0.9):
            graphs += [random_graph(rng, m, density) for m in (3, 7, 12, rng.randint(13, 40), 40)]
        for n in (4, 6, 8):
            graphs += [list(build_compat_graph(dom).adj) for dom in complementary_pair_domains(n)]
        assert len(graphs) == 4 + 25 + 1 + 7 + 31
        for adj in graphs:
            plain = []
            plain_bron_kerbosch(adj, [1 << v for v in range(len(adj))], plain.append)
            assert _clique_sizes(adj) == census_sizes(adj) == size_counts(plain), adj

    def test_relabelled_pair_domains(self):
        # five seeded relabellings each of runs (4,1,1,4) at n=10 and (3,3,3,3) at n=12
        rng = random.Random(29)
        i = sub([1, 2, 3, 7, 8, 9], 12)
        for dom, sizes in ((unbalanced_ten(), {21: 6740, 22: 46018}), (build_domain_AIJ(i, i.complement()), {24: 73984})):
            adj = build_compat_graph(dom).adj
            m = len(adj)
            for trial in range(5):
                assert _clique_sizes(permuted(adj, rng.sample(range(m), m))) == sizes, (m, trial)

    def test_universal_vertices_stay_out_of_the_relabel(self, monkeypatch):
        # random graphs with 0-5 universal vertices joined on, K1-K6, the
        # graph with no vertex and an edgeless one; the relabel sees only the
        # vertices that are not universal, or a complete graph whole
        relabelled = []

        def relabel(adj, order):
            relabelled.append(len(order))
            return plain(adj, order)

        plain = cliques._relabelled
        monkeypatch.setattr(cliques, "_relabelled", relabel)
        rng = random.Random(39)
        graphs = [[((1 << m) - 1) ^ 1 << v for v in range(m)] for m in range(7)] + [[0] * 4]
        for density in (0.2, 0.5, 0.8):
            for m in (2, 5, 9, 12, 20):
                for universal in range(6):
                    adj = join([random_graph(rng, m, density)], universal)
                    graphs.append(permuted(adj, rng.sample(range(len(adj)), len(adj))))
        for adj in graphs:
            m = len(adj)
            kept = sum(row.bit_count() < m - 1 for row in adj) or m
            plain_visits = []
            plain_bron_kerbosch(adj, [1 << v for v in range(m)], plain_visits.append)
            relabelled.clear()
            assert _clique_sizes(adj) == census_sizes(adj) == size_counts(plain_visits), adj
            assert relabelled == [kept], adj

    def test_twins_restrict_to_the_kept_vertices(self):
        # twin graphs with 0, 2 or 4 universal vertices twinned in pairs, and
        # complement-closed domains, whose universal sets are twinned too
        rng = random.Random(40)
        cases = []
        for trial in range(150):
            adj, twin = twin_graph(rng, 2 * rng.randint(1, 12), rng.uniform(0.2, 0.8))
            m, universal = len(adj), 2 * rng.randint(0, 2)
            adj, twin = join([adj], universal), twin + [v ^ 1 for v in range(m, m + universal)]
            perm = rng.sample(range(len(adj)), len(adj))
            moved = [0] * len(adj)
            for v in range(len(adj)):
                moved[perm[v]] = perm[twin[v]]
            cases.append((permuted(adj, perm), moved))
        halves = (sub([1, 3], 4), sub([1, 2, 4], 6), sub([1, 2, 5, 6], 8))
        domains = [build_domain_AIJ(a, a.complement()) for a in halves]
        domains += [lr_domain(n) for n in range(1, 6)] + [Collection.from_masks(_power_set(n), n) for n in range(1, 5)]
        cases += [(list(build_compat_graph(dom).adj), complement_twins(dom)) for dom in domains]
        with_universal = 0
        for adj, twin in cases:
            m = len(adj)
            with_universal += any(row.bit_count() == m - 1 for row in adj)
            plain_visits = []
            plain_bron_kerbosch(adj, [1 << v for v in range(m)], plain_visits.append)
            assert _clique_sizes(adj, twin) == census_sizes(adj) == size_counts(plain_visits), (adj, twin)
        assert with_universal > 100

    def test_moon_moser_extremes_do_not_carry(self, monkeypatch):
        # complete multipartite graphs with parts of three, and one part of
        # two or four, have the most maximal cliques of any graph on m
        # vertices (Moon and Moser 1965): one vertex from each part.
        # purity_report reads them at its own digit width
        for t in range(1, 34):
            for parts, count in (([3] * t, 3**t), ([3] * t + [2], 2 * 3**t), ([3] * (t - 1) + [4], 4 * 3 ** (t - 1))):
                m = sum(parts)
                if m > 100:
                    continue
                g = CompatGraph(Collection.from_masks(range(m), 7), tuple(join([[0] * k for k in parts], 0)))
                monkeypatch.setattr(cliques, "build_compat_graph", lambda domain, relation: g)
                assert purity_report(g.vertices).clique_sizes == {len(parts): count}, parts


def stopped_enumeration(adj, stop):
    """Run Bron-Kerbosch until its visit raises, after ``stop`` visits."""
    seen = []

    def visit(r):
        if len(seen) == stop:
            raise LookupError
        seen.append(r)

    with pytest.raises(LookupError):
        _bron_kerbosch(adj, [1] * len(adj), visit)


def test_kernels_leave_no_reference_cycles():
    # the recursive closures are dropped on return, also when a visit raises,
    # so a call leaves nothing for the cycle collector to find
    dom = unbalanced_ten()
    g = build_compat_graph(dom)
    adj = degree_ordered(g.adj, True)
    calls = [
        lambda: _bron_kerbosch(g.adj, [1] * len(g), [].append),
        lambda: stopped_enumeration(g.adj, 10),
        lambda: _maximal_collections_containing(sub([1, 2, 5, 6], 8), _grid(8, 4), 10),
        lambda: _clique_census(g.adj, len(g)),
        lambda: _clique_census(g.adj, len(g), complement_twins(dom)),
        lambda: _branch_and_bound(adj, (1 << 40) - 1),
        lambda: purity_report(dom),
        lambda: enumerate_maximal_cliques(g),
        lambda: max_clique_size(g),
    ]
    gc.collect()
    gc.disable()
    try:
        for idx, call in enumerate(calls):
            call()
            assert gc.collect() == 0, idx
    finally:
        gc.enable()


class TestDegreeOrdered:
    @staticmethod
    def check(adj):
        """The graph relabelled by ``_degree_order`` is ``permuted`` under it, either way, ties by index."""
        m = len(adj)
        for descending, sign in ((True, -1), (False, 1)):
            by_degree = sorted(range(m), key=lambda v: (sign * adj[v].bit_count(), v))
            label = [0] * m
            for i, v in enumerate(by_degree):
                label[v] = i
            out = degree_ordered(adj, descending)
            assert out == permuted(adj, label), descending
            assert [row.bit_count() for row in out] == sorted((row.bit_count() for row in adj), reverse=descending)

    def test_up_to_two_vertices(self):
        # itemgetter of one index returns a string, of none it raises
        for adj in ([], [0], [0, 0], [2, 1]):
            self.check(adj)

    def test_none_or_one_vertex_of_a_larger_graph(self):
        # the guard reads the order, not the graph
        for adj in ([0, 0], [2, 1], [6, 5, 3], random_graph(random.Random(39), 9, 0.5)):
            assert _relabelled(adj, []) == []
            for v in range(len(adj)):
                assert _relabelled(adj, [v]) == [0], (adj, v)

    def test_some_vertices_give_their_subgraph(self):
        # the subgraph on the picked vertices, in the order given
        rng = random.Random(41)
        for m in (3, 9, 70):
            adj = random_graph(rng, m, 0.5)
            for size in (2, m // 2, m - 1):
                order = rng.sample(range(m), size)
                expected = [sum(1 << t for t, w in enumerate(order) if adj[v] >> w & 1) for v in order]
                assert _relabelled(adj, order) == expected, (m, order)

    def test_random_graphs_wider_than_a_word(self):
        rng = random.Random(27)
        for density in (0.05, 0.5, 0.95):
            for m in (3, 63, 64, 65, rng.randint(66, 120), 120):
                self.check(random_graph(rng, m, density))

    def test_unbalanced_pair_domain_ten(self):
        self.check(list(build_compat_graph(unbalanced_ten()).adj))


class TestMaxCliqueSize:
    def test_paper_maxima(self):
        d1 = build_domain_AIJ(sub([1, 2, 4], 6), sub([3, 5, 6], 6))
        assert max_clique_size(build_compat_graph(d1, "weak")) == 8
        d2 = build_domain_AIJ(sub([1, 3, 5], 6), sub([2, 4, 6], 6))
        assert max_clique_size(build_compat_graph(d2, "weak")) == 6

    def test_single_vertex(self):
        assert max_clique_size(build_compat_graph(coll([[1]], 3), "weak")) == 1

    def test_random_graphs_agree_with_bk_and_relabelling(self):
        # graphs past the naive oracle's 12 vertices, so that a wrong
        # relabelling shows; density 0.9 stops at 40 vertices, where BK still
        # lists few enough maximal cliques
        rng = random.Random(3)
        for density, top in ((0.1, 60), (0.3, 60), (0.5, 60), (0.7, 60), (0.9, 40)):
            for m in (1, 5, 9, 12, rng.randint(13, top), top):
                adj = random_graph(rng, m, density)
                vertices = Collection.from_masks(range(1, m + 1), 6)
                best = max_clique_size(CompatGraph(vertices, tuple(adj)))
                sizes = []
                _bron_kerbosch(tuple(adj), [1] * m, sizes.append)
                assert best == max(sizes), (density, m)
                moved = permuted(adj, rng.sample(range(m), m))
                assert max_clique_size(CompatGraph(vertices, tuple(moved))) == best, (density, m)
                if m <= 12:
                    assert best == max(len(c) for c in naive_maximal_cliques(adj)), (density, m)

    def test_unbalanced_pair_ten(self):
        # runs (4,1,1,4), 114 vertices: the slowest pair of the n=10 census
        i = sub([1, 2, 3, 5, 10], 10)
        dom = build_domain_AIJ(i, i.complement())
        best = max_clique_size(build_compat_graph(dom, "weak"))
        assert best == purity_report(dom).max_size == unbalanced_witness(i).bound == 22

    def test_agrees_with_enumeration_on_domains(self):
        pairs = [([1, 2, 4], [3, 5, 6], 6), ([1, 3, 5], [2, 4, 6], 6), ([1, 2], [3, 4], 4)]
        for i, j, n in pairs:
            g = build_compat_graph(build_domain_AIJ(sub(i, n), sub(j, n)), "weak")
            best = max(len(c) for c in enumerate_maximal_cliques(g))
            assert max_clique_size(g) == best


def join(parts, universal):
    """The join of the part graphs, in order, then ``universal`` vertices adjacent to all."""
    m = sum(len(a) for a in parts) + universal
    full = (1 << m) - 1
    adj, base = [], 0
    for a in parts:
        block = ((1 << len(a)) - 1) << base
        adj += [full & ~block | row << base for row in a]
        base += len(a)
    return adj + [full & ~(1 << v) for v in range(base, m)]


def checked_split(adj):
    """The parts of ``_co_components``, checked to be the complement's components, as vertex sets."""
    m = len(adj)
    parts = [frozenset(v for v in range(m) if p >> v & 1) for p in _co_components(adj)]
    assert sorted(v for part in parts for v in part) == list(range(m))
    for a, b in itertools.combinations(parts, 2):
        assert all(adj[u] >> v & 1 for u in a for v in b)
    for part in parts:
        seen, stack = {min(part)}, [min(part)]
        while stack:
            u = stack.pop()
            for v in part - seen:
                if not adj[u] >> v & 1:
                    seen.add(v)
                    stack.append(v)
        assert seen == part
    assert set(parts) == naive_co_components(adj)
    return parts


def unsplit_max(adj):
    """The branch and bound on all vertices at once, as before the split."""
    return _branch_and_bound(degree_ordered(adj, True), (1 << len(adj)) - 1)


class TestJoinSplit:
    def test_empty_graph(self):
        assert _co_components([]) == []
        assert max_clique_size(as_graph([])) == 0

    def test_complete_graph_is_all_singletons(self):
        for m in range(1, 11):
            adj = [((1 << m) - 1) & ~(1 << v) for v in range(m)]
            assert checked_split(adj) == [frozenset([v]) for v in range(m)]
            assert max_clique_size(as_graph(adj)) == m

    def test_edgeless_graph_is_one_part(self):
        for m in range(1, 11):
            assert checked_split([0] * m) == [frozenset(range(m))]
            assert max_clique_size(as_graph([0] * m)) == 1

    def test_random_graphs_split_into_co_components(self):
        rng = random.Random(11)
        for density in (0.1, 0.5, 0.9, 0.97):
            for m in (1, 2, 5, 12, 30):
                checked_split(random_graph(rng, m, density))

    def test_planted_joins_relabelled(self):
        rng = random.Random(13)
        for trial in range(80):
            parts = [random_graph(rng, rng.randint(1, 8), rng.choice((0.2, 0.5, 0.8))) for _ in range(rng.randint(2, 4))]
            universal = rng.randint(0, 3)
            m = sum(map(len, parts)) + universal
            adj = permuted(join(parts, universal), rng.sample(range(m), m))
            # a planted part may split further, never merge with another
            assert len(checked_split(adj)) >= len(parts) + universal, trial
            best = max_clique_size(as_graph(adj))
            planted = sum(max(len(c) for c in naive_maximal_cliques(a)) for a in parts) + universal
            sizes = []
            _bron_kerbosch(tuple(adj), [1] * m, sizes.append)
            assert best == planted == unsplit_max(adj) == max(sizes), trial
            if m <= 12:
                assert best == max(len(c) for c in naive_maximal_cliques(adj)), trial

    def test_pair_domains_split_as_measured(self):
        # runs (4,1,1,4) at n=10: 10 universal sets joined to a 104-set core;
        # runs (4,3,3,4) at n=14: 14 universal sets joined to two 62-set halves
        for elems, n, shape in (([1, 2, 3, 5, 10], 10, [104] + [1] * 10), ([1, 2, 3, 4, 8, 9, 10], 14, [62, 62] + [1] * 14)):
            i = sub(elems, n)
            g = build_compat_graph(build_domain_AIJ(i, i.complement()))
            assert sorted(map(len, checked_split(g.adj)), reverse=True) == shape

    def test_every_tenth_pair_domain_of_ten_matches_unsplit(self):
        for dom in complementary_pair_domains(10)[::10]:
            g = build_compat_graph(dom)
            checked_split(g.adj)
            assert max_clique_size(g) == unsplit_max(g.adj), dom

    @pytest.mark.skipif(not LONG, reason="all pair domains of ten run under WEAKSEP_LONG=1")
    def test_long_all_pair_domains_of_ten_match_unsplit(self):
        for dom in complementary_pair_domains(10):
            g = build_compat_graph(dom)
            checked_split(g.adj)
            assert max_clique_size(g) == unsplit_max(g.adj), dom


def dihedral_orbits(n):
    """The non-separated complementary pairs of half-size sets, by orbit of rotation and reflection.

    A_{I,J} is A_{J,I}, so each pair is named by its set holding 1.
    """
    orbits = {}
    for a in (Subset.of(c, n) for c in itertools.combinations(range(1, n + 1), n // 2) if 1 in c):
        if circle_partition(a).u < 2:
            continue
        images = [b.rotate(r) for b in (a, Subset.of([n + 1 - x for x in a.elements()], n)) for r in range(n)]
        key = min(b.mask if 1 in b.elements() else b.complement().mask for b in images)
        orbits.setdefault(key, []).append(a)
    return list(orbits.values())


class TestPurityReport:
    def test_orbit_invariance(self):
        # rotation and reflection only relabel a domain's graph, so every
        # member of an orbit has one census
        for n in (4, 6, 8):
            for orbit in dihedral_orbits(n):
                sizes = [purity_report(build_domain_AIJ(a, a.complement())).clique_sizes for a in orbit]
                assert all(s == sizes[0] for s in sizes), orbit
        orbit = next(o for o in dihedral_orbits(10) if sub([1, 2, 3, 5, 10], 10) in o)
        assert len(orbit) == 10
        for a in orbit:
            assert purity_report(build_domain_AIJ(a, a.complement())).clique_sizes == {21: 6740, 22: 46018}, a

    def test_complement_closed_domains_take_the_twin_root(self, monkeypatch):
        # every complementary orbit to n=10, lr domains, and weak and chord
        # power sets: the census gets complement as twin and counts what
        # enumeration lists; a domain without every complement gets none
        twins = []

        def census(adj, digit, twin=None):
            twins.append(twin is not None)
            return plain(adj, digit, twin)

        plain = cliques._clique_census
        monkeypatch.setattr(cliques, "_clique_census", census)
        domains = [(build_domain_AIJ(o[0], o[0].complement()), "weak") for n in (4, 6, 8, 10) for o in dihedral_orbits(n)]
        domains += [(lr_domain(n), "weak") for n in range(1, 7)]
        domains += [(Collection.from_masks(_power_set(n), n), "weak") for n in range(1, 7)]
        domains += [(Collection.from_masks(_power_set(n), n), "chord") for n in range(1, 6)]
        assert len(domains) == 1 + 2 + 6 + 12 + 6 + 6 + 5
        for dom, relation in domains:
            sizes = Counter(len(c) for c in enumerate_maximal_cliques(build_compat_graph(dom, relation)))
            assert purity_report(dom, relation).clique_sizes == sizes, (dom, relation)
        assert twins == [True] * len(domains)
        twins.clear()
        necklace = necklace_from_perm(tau_kn(2, 5), 2)
        for dom in (build_domain_AIJ(sub([1, 2, 4], 7), sub([3, 5, 6], 7)), domain_in_for_necklace(necklace)):
            sizes = Counter(len(c) for c in enumerate_maximal_cliques(build_compat_graph(dom)))
            assert purity_report(dom).clique_sizes == sizes, dom
        assert twins == [False, False]

    @pytest.mark.skipif(not LONG, reason="the 422-set census of the last n=12 orbit runs under WEAKSEP_LONG=1")
    def test_long_last_orbit_of_twelve_is_impure(self):
        # its clique number, 32, is the witness bound (the branch and bound with
        # the pair's maps agrees)
        i = sub([1, 2, 3, 4, 5, 7], 12)
        dom = build_domain_AIJ(i, i.complement())
        rep = purity_report(dom)
        assert len(dom) == 422 and rep.clique_sizes == {30: 688560, 31: 41450152, 32: 125478928}
        assert rep.max_size == unbalanced_witness(i).bound == 32

    def test_grassmannian_rank(self):
        full = Collection(Subset.of(c, 6) for c in itertools.combinations(range(1, 7), 3))
        rep = purity_report(full, "weak")
        assert rep.is_pure and rep.rank == 10

    def test_power_set_rank(self):
        rep = purity_report(Collection.from_masks(range(1 << 4), 4), "weak")
        assert rep.is_pure and rep.rank == 11

    def test_pair_domain(self):
        rep = purity_report(build_domain_AIJ(sub([1, 2, 4, 6, 8], 10), sub([3, 5, 7, 9, 10], 10)))
        assert rep.is_pure and rep.rank == 12 and rep.clique_count == 4

    def test_empty_domain(self):
        rep = purity_report(Collection.from_masks([], 4))
        assert rep.domain_size == 0 and rep.rank is None
        assert rep.is_pure and rep.clique_count == 0 and rep.max_size == 0
        assert rep.to_json() == {
            "domain_size": 0,
            "pure": True,
            "rank": None,
            "clique_sizes": {},
            "clique_count": 0,
        }


class TestCompleteToMaximal:
    def grid(self, n, k):
        return Collection(Subset.of(c, n) for c in itertools.combinations(range(1, n + 1), k))

    def test_single_set_grows_to_rank(self):
        out = complete_to_maximal(coll([[1, 2, 4]], 6), self.grid(6, 3))
        assert len(out) == 10 and sub([1, 2, 4], 6) in out

    def test_already_maximal_returned_unchanged(self):
        dom = build_domain_AIJ(sub([1, 2, 4], 6), sub([3, 5, 6], 6))
        partial = Collection(
            list(boundary_intervals(3, 6)) + [sub([1, 2, 5], 6), sub([1, 3, 4], 6)]
        )
        out = complete_to_maximal(partial, dom)
        assert out == partial and len(out) == 8

    def test_empty_partial(self):
        out = complete_to_maximal(Collection.from_masks([], 4), self.grid(4, 2))
        assert len(out) == 5

    def test_output_is_maximal_and_contains_input(self):
        dom = self.grid(6, 3)
        partial = coll([[2, 3, 5]], 6)
        out = complete_to_maximal(partial, dom)
        assert partial.masks[0] in out.masks
        from weaksep import is_weakly_separated

        for s in dom:
            if s not in out:
                assert any(not is_weakly_separated(s, t) for t in out)

    def test_partial_not_separated_rejected(self):
        with pytest.raises(ValueError):
            complete_to_maximal(coll([[1, 2, 4], [3, 5, 6]], 6), self.grid(6, 3))

    def test_partial_outside_domain_rejected(self):
        with pytest.raises(ValueError):
            complete_to_maximal(coll([[1, 2]], 6), self.grid(6, 3))

    def test_clash_first_order_keeps_results(self):
        # trying the last clashing set first changes the test order only:
        # the greedy completion is as by definition
        rng = random.Random(7)
        for _ in range(60):
            n = rng.randint(3, 7)
            dom = Collection.from_masks(rng.sample(range(1 << n), rng.randint(1, min(40, 1 << n))), n)
            chosen = []
            for m in dom.masks:
                if all(_weakly_separated_masks(m, c) for c in chosen):
                    chosen.append(m)
            out = complete_to_maximal(Collection.from_masks([], n), dom)
            assert out.masks == tuple(sorted(chosen))
