import collections
import dataclasses
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from _oracles import (
    all_member_distance,
    all_member_neighbors,
    naive_is_maximal,
    naive_square_moves,
    naive_squares,
    naive_weakly_separated,
    plain_bron_kerbosch,
)

from weaksep import (
    BigInstance,
    Collection,
    NotMaximal,
    SquareMove,
    Subset,
    apply_square_move,
    boundary_intervals,
    build_compat_graph,
    build_domain_AIJ,
    complete_to_maximal,
    cluster_distance,
    enumerate_maximal_cliques,
    explore_mutation_graph,
    find_square_moves,
    is_weakly_separated,
    move_projection_effect,
    mutation_distance,
    purity_report,
)
from weaksep import ground, mutations
from weaksep.cliques import _greedy_maximal
from weaksep.ground import _pair_symmetries, _whole_grid
from weaksep.mutations import DistanceResult, _grid, _maximal_collections_containing, _neighbors


SRC = Path(__file__).resolve().parent.parent / "src"


def sub(elems, n):
    return Subset.of(elems, n)


def coll(sets, n):
    return Collection(Subset.of(s, n) for s in sets)


def grid(n, k):
    return Collection(Subset.of(c, n) for c in itertools.combinations(range(1, n + 1), k))


def explored(n, k, budget=mutations.DEFAULT_BUDGET):
    seed = complete_to_maximal(Collection.from_masks([], n), grid(n, k))
    return explore_mutation_graph(seed, budget=budget)


def elements(mask, n):
    return frozenset(i + 1 for i in range(n) if mask >> i & 1)


def non_separated_pairs(top):
    """Every unordered pair of same-size subsets, n <= top, that is not weakly separated."""
    for n in range(2, top + 1):
        for k in range(1, n):
            for i, j in itertools.combinations(_whole_grid(n, k), 2):
                s, t = Subset(i, n), Subset(j, n)
                if not is_weakly_separated(s, t):
                    yield s, t


SMALL = coll([[1, 2], [2, 3], [3, 4], [1, 4], [1, 3]], 4)


class TestFindSquareMoves:
    def test_single_move(self):
        moves = find_square_moves(SMALL)
        assert len(moves) == 1
        m = moves[0]
        assert m.removed == sub([1, 3], 4) and m.added == sub([2, 4], 4)
        assert (m.a, m.b, m.c, m.d) == (1, 2, 3, 4) and len(m.s) == 0

    def test_singleton_grid_has_no_moves(self):
        c = grid(3, 1)
        assert find_square_moves(c) == []

    def test_moves_have_all_side_sets(self):
        c = complete_to_maximal(coll([[1, 3, 5]], 6), grid(6, 3))
        for m in find_square_moves(c):
            for pair in ((m.a, m.b), (m.b, m.c), (m.c, m.d), (m.d, m.a)):
                side = Subset(m.s.mask | 1 << (pair[0] - 1) | 1 << (pair[1] - 1), 6)
                assert side in c
            assert m.removed in c and m.added not in c

    def test_not_maximal_flagged(self):
        with pytest.raises(NotMaximal):
            find_square_moves(coll([[1, 2], [2, 3]], 4))
        with pytest.raises(NotMaximal):
            find_square_moves(coll([[1, 3], [2, 4], [1, 2], [2, 3], [3, 4], [1, 4]], 4))

    def test_maximality_matches_naive_oracle(self):
        # explored nodes, each of them with one set removed, and random separated collections
        cases = []
        for n, k in ((5, 2), (6, 3), (7, 3)):
            for idx, node in enumerate(explored(n, k).nodes):
                drop = node[idx % len(node)]
                cases += [(node, n), (tuple(x for x in node if x != drop), n)]
        rng = random.Random(0)
        for _ in range(300):
            n = rng.randint(4, 7)
            k = rng.randint(2, n - 2)
            order = [sub(c, n).mask for c in itertools.combinations(range(1, n + 1), k)]
            rng.shuffle(order)
            chosen = []
            for x in order[: rng.randint(1, len(order))]:
                if all(naive_weakly_separated(elements(x, n), elements(y, n)) for y in chosen):
                    chosen.append(x)
            cases.append((tuple(chosen), n))
        for masks, n in cases:
            try:
                mutations._check_maximal(Collection.from_masks(masks, n))
                listed = True
            except NotMaximal:
                listed = False
            sets = [elements(x, n) for x in masks]
            k = len(sets[0])
            candidates = [set(c) for c in itertools.combinations(range(1, n + 1), k)]
            assert listed == naive_is_maximal(sets, candidates, naive_weakly_separated), (masks, n)

    def test_grid_checked_once(self, monkeypatch):
        calls = []
        real = mutations._check_maximal
        monkeypatch.setattr(mutations, "_check_maximal", lambda c: calls.append(c) or real(c))
        find_square_moves(SMALL)
        assert len(calls) == 1

    def test_moves_match_naive_oracle(self):
        for n, k in ((5, 2), (6, 3), (7, 3)):
            grid = _grid(n, k)
            for node in explored(n, k).nodes:
                listed = {
                    (elements(s, n), a, b, c, d, elements(to, n))
                    for _, (s, a, b, c, d, to) in _neighbors(grid, grid.node(node))
                }
                assert listed == naive_square_moves([elements(x, n) for x in node], n)

    def test_children_exchange_the_move_diagonal(self):
        for n, k in ((6, 3), (7, 3)):
            grid = _grid(n, k)
            for node in explored(n, k).nodes:
                for flip, (s, a, b, c, d, to) in _neighbors(grid, grid.node(node)):
                    removed = s | 1 << (a - 1) | 1 << (c - 1)
                    assert set(grid.masks(grid.node(node) ^ flip)) == set(node) - {removed} | {to}


class TestApplySquareMove:
    def test_exchange(self):
        m = find_square_moves(SMALL)[0]
        out = apply_square_move(SMALL, m)
        assert out == coll([[1, 2], [2, 3], [3, 4], [1, 4], [2, 4]], 4)

    def test_involution(self):
        m = find_square_moves(SMALL)[0]
        out = apply_square_move(SMALL, m)
        back = [r for r in find_square_moves(out) if r.removed == m.added]
        assert len(back) == 1
        assert apply_square_move(out, back[0]) == SMALL
        assert back[0] == m.inverse()

    def test_missing_source_rejected(self):
        m = SquareMove(Subset(0, 4), 1, 2, 3, 4)
        broken = coll([[1, 2], [2, 3], [3, 4], [1, 4], [2, 4]], 4)
        with pytest.raises(ValueError):
            apply_square_move(broken, m)

    def test_non_cyclic_labelling_rejected(self):
        # a, c, b, d of a real move are not cyclically ordered
        m = find_square_moves(SMALL)[0]
        relabelled = SquareMove(m.s, m.a, m.c, m.b, m.d)
        with pytest.raises(ValueError, match="move is not applicable to this collection"):
            apply_square_move(SMALL, relabelled)

    def test_mixed_sizes_rejected(self):
        # every set the move names is present, but {1} puts the collection on no grid
        m = find_square_moves(SMALL)[0]
        mixed = Collection([*SMALL, Subset.of([1], 4)])
        with pytest.raises(ValueError, match="collection mixes cardinalities; square moves need one grid"):
            apply_square_move(mixed, m)

    @pytest.mark.parametrize(
        "sets, n, m",
        [
            # every set the move names is present, but {1,3} and {2,4} cross
            ([[1, 2], [1, 3], [2, 3], [2, 4], [1, 4]], 4, SquareMove(Subset(0, 4), 1, 3, 2, 4)),
            # {1,3} and {3,5} are not weakly separated
            ([[1, 3], [1, 2], [2, 3], [3, 4], [1, 4], [3, 5]], 6, SquareMove(Subset(0, 6), 1, 2, 3, 4)),
            # separated, but five sets where a maximal collection of the grid has nine
            ([[1, 3], [1, 2], [2, 3], [3, 4], [1, 4]], 6, SquareMove(Subset(0, 6), 1, 2, 3, 4)),
        ],
    )
    def test_non_maximal_rejected(self, sets, n, m):
        c = coll(sets, n)
        with pytest.raises(NotMaximal):
            apply_square_move(c, m)
        with pytest.raises(NotMaximal):
            move_projection_effect(c, m, (1, 1, 1, n - 3))

    def test_four_labellings_apply_alike(self):
        for node in (Collection.from_masks(t, 6) for t in explored(6, 3).nodes):
            for m in find_square_moves(node):
                a, b, c, d = m.a, m.b, m.c, m.d
                out = {
                    apply_square_move(node, SquareMove(m.s, *labels))
                    for labels in ((a, b, c, d), (c, d, a, b), (a, d, c, b), (c, b, a, d))
                }
                assert out == {apply_square_move(node, m)}


class TestExplore:
    def test_two_by_two_grid(self):
        g = explore_mutation_graph(complete_to_maximal(coll([[1, 3]], 4), grid(4, 2)))
        assert g.node_count == 2 and g.edge_count == 1 and g.complete

    def test_three_six_grid(self):
        seed = complete_to_maximal(Collection.from_masks([], 6), grid(6, 3))
        g = explore_mutation_graph(seed)
        assert g.complete and g.node_count == 34
        b36 = set(boundary_intervals(3, 6).masks)
        for node in g.nodes:
            assert len(node) == 10
            assert b36 <= set(node)
            for a, b in itertools.combinations(node, 2):
                assert is_weakly_separated(Subset(a, 6), Subset(b, 6))

    def test_budget_one(self):
        seed = complete_to_maximal(coll([[1, 3]], 4), grid(4, 2))
        g = explore_mutation_graph(seed, budget=1)
        assert g.node_count == 1 and not g.complete

    def test_cut_graph_is_never_complete(self):
        # a cut layer stays cut even when the kept nodes open no further layer
        for root in explored(6, 3).nodes:
            seed = Collection.from_masks(root, 6)
            for budget in range(1, 35):
                g = explore_mutation_graph(seed, budget=budget)
                assert g.complete == (g.node_count == 34), (root, budget)

    def test_edge_count_matches_brute_force(self):
        # truncated graphs too: an edge joins two nodes that differ in one set
        for n, k in ((6, 3), (7, 3)):
            total = explored(n, k).node_count
            budgets = [1, 2]
            while budgets[-1] < total:
                budgets.append(budgets[-1] + budgets[-2])
            for budget in budgets:
                g = explored(n, k, budget)
                sets = [set(node) for node in g.nodes]
                expected = sum(len(u ^ v) == 2 for u, v in itertools.combinations(sets, 2))
                assert g.edge_count == expected, (n, k, budget)
                assert g.complete == (budget >= total)

    def test_each_node_expanded_once(self, monkeypatch):
        calls = []
        real = mutations._neighbors
        monkeypatch.setattr(
            mutations, "_neighbors", lambda grid, node: calls.append(node) or real(grid, node)
        )
        g = explored(6, 3)
        assert len(calls) == len(set(calls)) == g.node_count

    def test_connectivity_matches_clique_enumeration(self):
        # the 2-row grids carry the Catalan counts 2, 5, 14
        for n, k, count in ((4, 2, 2), (5, 2, 5), (6, 2, 14), (6, 3, 34)):
            seed = complete_to_maximal(Collection.from_masks([], n), grid(n, k))
            g = explore_mutation_graph(seed)
            expected = {c.masks for c in enumerate_maximal_cliques(build_compat_graph(grid(n, k)))}
            assert set(g.nodes) == expected, (n, k)
            assert g.node_count == count, (n, k)


class TestMutationDistance:
    def test_one_move_apart(self):
        r = mutation_distance(sub([1, 3], 4), sub([2, 4], 4))
        assert r.distance == 1 and len(r.path) == 1
        # matches the closed form for the all-singleton four-run shape
        assert r.distance == 1 * 1 * 1 - 2 * 0

    def test_paper_six_case(self):
        r = mutation_distance(sub([1, 2, 4], 6), sub([3, 5, 6], 6))
        assert r.distance == 2

    def test_weakly_separated_pair(self):
        r = mutation_distance(sub([1, 2], 4), sub([2, 3], 4))
        assert r.distance == 0 and r.path == ()
        assert sub([1, 2], 4) in r.source and sub([2, 3], 4) in r.source

    def test_weakly_separated_pair_gets_least_completion(self):
        # source and target are the least maximal collection, as a sorted mask
        # tuple, among the maximal cliques of the grid graph that hold both sets
        pairs = 0
        for n in range(2, 7):
            for k in range(1, n):
                cliques = [
                    tuple(sorted(c.masks)) for c in enumerate_maximal_cliques(build_compat_graph(grid(n, k)))
                ]
                for i, j in itertools.product(grid(n, k).masks, repeat=2):
                    if not is_weakly_separated(Subset(i, n), Subset(j, n)):
                        continue
                    r = mutation_distance(Subset(i, n), Subset(j, n))
                    least = min(c for c in cliques if i in c and j in c)
                    assert tuple(sorted(r.source.masks)) == least and r.target == r.source
                    pairs += 1
        assert pairs == 1106

    def test_path_witnesses_distance(self):
        i, j = sub([1, 2, 4], 6), sub([3, 5, 6], 6)
        r = mutation_distance(i, j)
        assert i in r.source and j in r.target
        cur = r.source
        for move in r.path:
            cur = apply_square_move(cur, move)
        assert cur == r.target
        assert len(r.path) == r.distance

    def test_lower_bounded_by_cluster_distance(self):
        pairs = [([1, 2, 4], [3, 5, 6], 6), ([1, 3, 5], [2, 4, 6], 6), ([1, 3], [2, 4], 4)]
        for i, j, n in pairs:
            d = cluster_distance(sub(i, n), sub(j, n)).value
            big_d = mutation_distance(sub(i, n), sub(j, n)).distance
            assert d <= big_d

    def test_budget_exhaustion_reported(self):
        r = mutation_distance(sub([1, 2, 4], 6), sub([3, 5, 6], 6), budget=3)
        assert r.budget_exhausted and r.distance is None
        assert r.to_json()["distance"] == "budget-exhausted"

    def test_result_carries_no_upper_bound(self):
        # the search stops at the first meeting, so it never holds an unconfirmed candidate
        assert "upper_bound" not in {f.name for f in dataclasses.fields(DistanceResult)}

    def test_budget_sweep_is_exact_or_exhausted(self):
        # every budget up to the unbudgeted count gives the full answer or a
        # bare exhausted result that explored at least the budget
        pairs = calls = 0
        for s, t in non_separated_pairs(6):
            full = mutation_distance(s, t)
            whole = (full.distance, full.path, full.source, full.target, full.nodes_explored)
            for budget in range(1, full.nodes_explored + 1):
                r = mutation_distance(s, t, budget=budget)
                got = (r.distance, r.path, r.source, r.target, r.nodes_explored)
                if got != whole:
                    assert got[:4] == (None, (), None, None), (s, t, budget)
                    assert r.nodes_explored >= budget, (s, t, budget)
                calls += 1
            pairs += 1
        assert (pairs, calls) == (78, 1543)

    def test_seeding_budget_boundaries(self):
        # 390 seeds per side: a budget the 780 seeds reach ends the search
        # before its first layer, with all 780 counted whether built or not
        i, j = sub([1, 2, 5, 6], 8), sub([3, 4, 7, 8], 8)
        for budget, nodes in [(0, 780), (389, 780), (390, 780), (391, 780), (779, 780), (780, 780), (781, 1104)]:
            r = mutation_distance(i, j, budget=budget, big=True)
            assert r.to_json() == {"distance": "budget-exhausted", "nodes_explored": nodes, "path": []}, budget
        r = mutation_distance(i, j, big=True)
        assert (r.distance, r.nodes_explored) == (6, 4356)

    def test_seeding_stops_at_the_budget(self):
        # the (3,2,2,3) pair at n = 10 has 244,037 seeds per side; the search
        # builds at most the budget's worth and counts the rest by census.
        # Building them all grows a fresh process by about 60 MB.  (Under
        # tracemalloc the census's big-int sums run some 30 times slower.)
        script = (
            "import json, resource\n"
            "from weaksep import Subset, mutation_distance\n"
            "i = Subset.of([1, 2, 3, 6, 7], 10)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "r = mutation_distance(i, i.complement(), budget=20000, big=True)\n"
            "grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before\n"
            "print(json.dumps([r.to_json(), grown]))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        report, grown_kb = json.loads(done.stdout)
        assert report == {"distance": "budget-exhausted", "nodes_explored": 488074, "path": []}
        assert grown_kb < 8 << 10

    def test_big_instance_gate(self):
        with pytest.raises(BigInstance):
            mutation_distance(sub([1, 2, 5, 6], 8), sub([3, 4, 7, 8], 8))

    def test_determinism(self):
        a = mutation_distance(sub([1, 2, 4], 6), sub([3, 5, 6], 6))
        b = mutation_distance(sub([1, 2, 4], 6), sub([3, 5, 6], 6))
        assert a.to_json() == b.to_json()

    def test_matches_full_graph_oracle(self):
        # unidirectional BFS over the whole graph versus the bidirectional
        # engine, for every same-size pair of two small grids; the graph is
        # built from the clique census and the plain-set move oracle alone
        for n, k in ((6, 2), (6, 3)):
            cliques = enumerate_maximal_cliques(build_compat_graph(grid(n, k)))
            nodes = [frozenset(elements(x, n) for x in c.masks) for c in cliques]
            index = {node: t for t, node in enumerate(nodes)}
            adj = [
                [
                    index[node - {s | {a, c}} | {to}]
                    for s, a, b, c, d, to in naive_square_moves(list(node), n)
                ]
                for node in nodes
            ]

            def oracle(i_set, j_set):
                dist = {}
                queue = collections.deque()
                for t, node in enumerate(nodes):
                    if i_set in node:
                        dist[t] = 0
                        queue.append(t)
                while queue:
                    t = queue.popleft()
                    if j_set in nodes[t]:
                        return dist[t]
                    for s in adj[t]:
                        if s not in dist:
                            dist[s] = dist[t] + 1
                            queue.append(s)
                raise AssertionError("target unreachable")

            for i_combo in itertools.combinations(range(1, n + 1), k):
                for j_combo in itertools.combinations(range(1, n + 1), k):
                    i, j = sub(i_combo, n), sub(j_combo, n)
                    assert mutation_distance(i, j).distance == oracle(
                        frozenset(i_combo), frozenset(j_combo)
                    )


class TestGrid:
    def test_encoding_round_trips_and_reverses_order(self):
        for n, k in ((6, 3), (7, 3)):
            grid = _grid(n, k)
            nodes = explored(n, k).nodes
            ints = [grid.node(node) for node in nodes]
            assert [grid.masks(v) for v in ints] == list(nodes)
            for (s, u), (t, v) in itertools.combinations(zip(nodes, ints), 2):
                assert (s < t) == (u > v)

    def test_bits_follow_ascending_mask_rank(self):
        # the grid lister and the grid bits share one numbering: listed set i is bit N-1-i
        for n in range(1, 10):
            for k in range(n + 1):
                masks = list(_whole_grid(n, k))
                assert masks == sorted(sub(c, n).mask for c in itertools.combinations(range(1, n + 1), k))
                grid = mutations._Grid(n, k)
                top = len(masks) - 1
                assert [grid[m] for m in masks] == [1 << (top - r) for r in range(len(masks))]

    def test_entries_list_the_squares_of_the_definition(self):
        # squares, their order and their side bits, for every set of every grid with n <= 8
        for n in range(1, 9):
            for k in range(n + 1):
                grid = mutations._Grid(n, k)
                for combo in itertools.combinations(range(1, n + 1), k):
                    x = sub(combo, n).mask
                    near, squares, _ = grid.entry(grid[x].bit_length() - 1)
                    expected = naive_squares(set(combo), n)
                    assert [(elements(m[0], n), *m[1:5], elements(m[5], n)) for _, m in squares] == [
                        sq[:6] for sq in expected
                    ], (n, combo)
                    assert [sides for sides, _ in squares] == [
                        grid.node(sub(side, n).mask for side in sq[6]) for sq in expected
                    ], (n, combo)
                    assert near == grid.node({sub(side, n).mask for sq in expected for side in sq[6]})

    def test_foreign_mask_rejected(self):
        grid = mutations._Grid(6, 3)
        for bad in (0b11, 0b1111, 1 << 6 | 0b11):
            with pytest.raises(ValueError):
                grid[bad]

    def test_grid_table_is_bounded(self):
        info = _grid.cache_info()
        for n in range(3, info.maxsize + 5):
            explored(n, 2, budget=3)
        assert _grid.cache_info().currsize == info.maxsize == ground._GRIDS

    def test_completion_from_the_pair_domain_is_the_whole_grid_greedy(self):
        # every set the greedy adds is separated from I and J, so listing only their domain changes nothing
        for n in range(2, 8):
            for k in range(1, n):
                for i, j in itertools.combinations_with_replacement(_whole_grid(n, k), 2):
                    if is_weakly_separated(Subset(i, n), Subset(j, n)):
                        whole = Collection.from_masks(_greedy_maximal({i, j}, _whole_grid(n, k)), n)
                        assert mutations._grid_completion(Subset(i, n), Subset(j, n)) == whole, (n, i, j)

    def test_wide_grid_builds_rows_per_set(self):
        _grid.cache_clear()
        seed = mutations._grid_completion(sub(range(1, 9), 16), sub(range(1, 9), 16))
        g = explore_mutation_graph(seed, budget=10)
        grid = _grid(16, 8)
        assert g.node_count == 10 and not g.complete
        # table entries only for members of the explored nodes, a sliver of
        # the 12,870 sets
        assert len(grid.table) == len(set().union(*g.nodes)) < 100
        assert {grid.sets[grid.top - pos] for pos in grid.table} == set().union(*g.nodes)


def scanned_neighbors(grid, node):
    """The (flip, move) pairs of a node by a direct scan of its members' squares, in mask order."""
    out = []
    for x in grid.masks(node):
        for sides, move in grid.entry(grid[x].bit_length() - 1)[1]:
            if node & sides == sides:
                out.append((grid[x] ^ grid[move[5]], move))
    return out


def table_entries(grid):
    return {(pos, held) for pos, (_, _, known) in grid.table.items() for held in known}


CLOSURES = [(6, 3), (7, 3), pytest.param(8, 4, marks=pytest.mark.skipif(
    os.environ.get("WEAKSEP_LONG") != "1", reason="runs under WEAKSEP_LONG=1"))]


class TestMoveTable:
    def test_neighbors_reads_no_closure_cells(self):
        # a comprehension in the hot loop would turn its locals into cells
        assert _neighbors.__code__.co_cellvars == ()

    @pytest.mark.parametrize("n, k", CLOSURES)
    def test_lookups_match_a_direct_scan(self, n, k):
        # the warm grid answers from its table, a fresh one fills it; both
        # must list the moves in the order of the squares themselves
        _grid.cache_clear()
        nodes = explored(n, k).nodes
        warm = _grid(n, k)
        for masks in nodes:
            node = warm.node(masks)
            listed = _neighbors(warm, node)
            fresh = mutations._Grid(n, k)
            assert _neighbors(fresh, fresh.node(masks)) == listed, masks
            assert scanned_neighbors(warm, node) == listed, masks

    @pytest.mark.parametrize("n, k", CLOSURES)
    def test_entries_are_the_patterns_of_explored_members(self, n, k):
        _grid.cache_clear()
        nodes = explored(n, k).nodes
        grid = _grid(n, k)
        entries = table_entries(grid)
        expected = set()
        for masks in nodes:
            node = grid.node(masks)
            for x in masks:
                pos = grid[x].bit_length() - 1
                expected.add((pos, node & grid.table[pos][0]))
        assert entries == expected
        # a second closure meets only patterns already tabled
        explored(n, k)
        assert table_entries(grid) == entries


class TestIdleMembers:
    def test_idle_bits_are_the_cyclic_intervals(self):
        # the intervals, and only they, have no square; a fresh grid marks none
        for n in range(4, 10):
            for k in range(2, n - 1):
                g = mutations._Grid(n, k)
                assert g.idle == 0
                for x in _whole_grid(n, k):
                    g.entry(g[x].bit_length() - 1)
                assert g.idle == g.node(boundary_intervals(k, n).masks), (n, k)

    @pytest.mark.parametrize("n, k", [(7, 3), (8, 4)])
    def test_neighbors_match_an_all_member_scan(self, n, k):
        graph = explored(n, k)
        fresh = mutations._Grid(n, k)
        for node, masks in zip(graph.ints, graph.nodes):
            assert _neighbors(graph.grid, node) == all_member_neighbors(fresh, fresh.node(masks)), masks
        # every set lies in an explored node, so every entry is built
        assert graph.grid.idle == graph.grid.node(boundary_intervals(k, n).masks)


def dihedral_orbit_members(n, k):
    """One non-separated pair of k-sets of [n] per orbit of the dihedral group, the least in it."""
    def images(mask):
        turns = [(mask << r | mask >> n - r) & (1 << n) - 1 for r in range(n)]
        return turns + [sum(1 << n - 1 - i for i in range(n) if t >> i & 1) for t in turns]

    for i, j in itertools.combinations(_whole_grid(n, k), 2):
        s, t = Subset(i, n), Subset(j, n)
        if not is_weakly_separated(s, t) and [i, j] == min(map(sorted, zip(images(i), images(j)))):
            yield s, t


class TestSeedLayer:
    """A seed layer moves only its side's set, each child from one seed; the search is that of an all-member scan."""

    @pytest.mark.parametrize("n, k", [(6, 3), (7, 3)])
    def test_seed_children_are_those_that_drop_the_set(self, n, k):
        grid = _grid(n, k)
        dropped = 0
        for x in _whole_grid(n, k):
            bit = grid[x]
            for seed in _maximal_collections_containing(Subset(x, n), grid, 10**6):
                listed = [(seed ^ flip, move) for flip, move in _neighbors(grid, seed, bit)]
                every = [(seed ^ flip, move) for flip, move in _neighbors(grid, seed)]
                assert listed == [(child, move) for child, move in every if not child & bit], (x, seed)
                # the child holds the added diagonal, which is not weakly separated from x,
                # so its one neighbour holding x is this seed: the seed layer meets no duplicate
                for child, _ in listed:
                    back = [child ^ flip for flip, _ in all_member_neighbors(grid, child) if (child ^ flip) & bit]
                    assert back == [seed], (x, seed, child)
                dropped += len(listed)
        assert dropped > 0

    @staticmethod
    def assert_matches_all_member_search(s, t, big=False):
        grid = _grid(s.n, len(s))
        seeds = [_maximal_collections_containing(x, grid, 10**6) for x in (s, t)]
        r = mutation_distance(s, t, big=big)
        path = tuple((m.s.mask, m.a, m.b, m.c, m.d) for m in r.path)
        got = (r.distance, path, grid.node(r.source.masks), grid.node(r.target.masks), r.nodes_explored)
        assert got == all_member_distance(grid, seeds, 10**6), (s, t)

    def test_distances_match_an_all_member_search_to_n7(self):
        pairs = list(non_separated_pairs(7))
        for s, t in pairs:
            self.assert_matches_all_member_search(s, t)
        assert len(pairs) == 456

    def test_distances_match_an_all_member_search_on_n8_orbits(self):
        pairs = list(dihedral_orbit_members(8, 4))
        for s, t in pairs:
            self.assert_matches_all_member_search(s, t, big=True)
        assert len(pairs) == 65


class TestSeeding:
    def test_seeds_are_the_grid_collections_holding_the_set(self):
        # seeds come out of the enumeration as finished grid nodes; they must
        # be exactly the full-grid maximal cliques that contain s, each once
        for n, k in ((6, 3), (7, 3)):
            table = _grid(n, k)
            full = [c.masks for c in enumerate_maximal_cliques(build_compat_graph(grid(n, k)))]
            for combo in itertools.combinations(range(1, n + 1), k):
                s = sub(combo, n)
                seeds = _maximal_collections_containing(s, table, mutations.DEFAULT_BUDGET)
                assert len(seeds) == len(set(seeds)), (n, combo)
                expected = {table.node(masks) for masks in full if s.mask in masks}
                assert set(seeds) == expected, (n, combo)

    def test_non_separated_pairs_share_no_seed(self):
        # a collection holding both i and j is weakly separated, so the two
        # sides of mutation_distance never meet among their seeds
        pairs = 0
        for s, t in non_separated_pairs(7):
            table = _grid(s.n, len(s))
            seeds = set(_maximal_collections_containing(s, table, mutations.DEFAULT_BUDGET))
            assert seeds.isdisjoint(_maximal_collections_containing(t, table, mutations.DEFAULT_BUDGET)), (s, t)
            pairs += 1
        assert pairs == 456

    def test_seeds_past_the_cap_are_counted(self):
        # at the cap the seeds are all built; below it, only counted
        for n, k in ((6, 3), (7, 3)):
            table = _grid(n, k)
            for combo in itertools.combinations(range(1, n + 1), k):
                s = sub(combo, n)
                seeds = _maximal_collections_containing(s, table, mutations.DEFAULT_BUDGET)
                assert _maximal_collections_containing(s, table, len(seeds)) == seeds, (n, combo)
                for cap in (-1, 0, len(seeds) - 1):
                    assert _maximal_collections_containing(s, table, cap) == len(seeds), (n, combo, cap)


def seeded_orbit_members():
    """Each dihedral orbit pair to n = 8, with its grid and both sides' seeds from the plain kernel on the whole grid."""
    for n, k in ((4, 2), (5, 2), (6, 2), (6, 3), (7, 2), (7, 3), (8, 2), (8, 3), (8, 4)):
        table, whole = _grid(n, k), build_compat_graph(grid(n, k))
        every: list[int] = []
        plain_bron_kerbosch(whole.adj, list(map(table.__getitem__, whole.vertices.masks)), every.append)
        for s, t in dihedral_orbit_members(n, k):
            yield table, s, t, [[w for w in every if w & table[x.mask]] for x in (s, t)]


def swapping_maps(s, t):
    return [f for f in _pair_symmetries(s.mask, t.mask, s.n) if f(s.mask) == t.mask]


class TestTwinSeeds:
    """A map of the pair that swaps i and j sends the seeds of i one-to-one onto those of j, so one listing serves both."""

    def test_complements_have_as_many_seeds(self):
        classes = 0
        for n in (2, 4, 6, 8):
            table, full = _grid(n, n // 2), (1 << n) - 1
            for x in _whole_grid(n, n // 2):
                if x < x ^ full:
                    s, t = Subset(x, n), Subset(x ^ full, n)
                    count = len(_maximal_collections_containing(s, table, 10**6))
                    assert len(_maximal_collections_containing(t, table, 10**6)) == count, s
                    # past a smaller cap both are counted by census
                    assert _maximal_collections_containing(s, table, count // 2) == count, s
                    assert _maximal_collections_containing(t, table, count // 2) == count, s
                    classes += 1
        assert classes == 49
        i = sub([1, 2, 3, 6, 7], 10)
        table = _grid(10, 5)
        assert [_maximal_collections_containing(s, table, 0) for s in (i, i.complement())] == [244037] * 2

    def test_one_listing_holds_the_seeds_of_both_sides(self):
        # for each map that swaps the pair, the low halves of the packed seeds
        # are the seeds of s and the high halves those of t
        swapped = 0
        for table, s, t, seeds in seeded_orbit_members():
            maps = swapping_maps(s, t)
            swapped += bool(maps)
            for f in maps:
                packed = _maximal_collections_containing(s, table, 10**6, f)
                halves = [{w & (1 << table.top + 1) - 1 for w in packed}, {w >> table.top + 1 for w in packed}]
                assert len(packed) == len(seeds[0]) == len(seeds[1]) and halves == list(map(set, seeds)), (s, t)
                assert _maximal_collections_containing(s, table, len(packed) - 1, f) == len(packed), (s, t)
        assert swapped == 55

    def test_budgets_around_the_seed_counts_match_an_independent_seeding(self):
        # every dihedral orbit to n = 8; budgets straddle side i's count c and,
        # for a pair that one listing serves, the total 2c
        pairs = swapped = twins = 0
        for table, s, t, seeds in seeded_orbit_members():
            pairs += 1
            swapped += bool(swapping_maps(s, t))
            twins += s.mask ^ t.mask == (1 << s.n) - 1
            c = len(seeds[0])
            for budget in (c - 1, c, c + 1, 2 * c - 1, 2 * c, 2 * c + 1):
                r = mutation_distance(s, t, budget=budget, big=True)
                path = tuple((m.s.mask, m.a, m.b, m.c, m.d) for m in r.path)
                ends = tuple(None if e is None else table.node(e.masks) for e in (r.source, r.target))
                got = (r.distance, path, *ends, r.nodes_explored)
                assert got == all_member_distance(table, seeds, budget), (s, t, budget)
        assert (pairs, swapped, twins) == (137, 55, 9)

    def test_a_swapped_pair_is_seeded_once(self, monkeypatch):
        calls = []

        def counted(s, grid, cap, swap=None):
            calls.append((s, cap, swap is not None))
            return _maximal_collections_containing(s, grid, cap, swap)

        monkeypatch.setattr(mutations, "_maximal_collections_containing", counted)
        i = sub([1, 2, 3, 6, 7], 10)
        r = mutation_distance(i, i.complement(), budget=20000, big=True)
        assert (r.to_json(), calls) == (
            {"distance": "budget-exhausted", "nodes_explored": 488074, "path": []},
            [(i, 9999, True)],
        )
        # 390 seeds per side: one listing builds both sides under the budget and counts them past it
        s, t = sub([1, 2, 5, 6], 8), sub([3, 4, 7, 8], 8)
        for budget, explored in [(780, 780), (781, 1104)]:
            calls.clear()
            r = mutation_distance(s, t, budget=budget, big=True)
            assert (calls, r.nodes_explored) == ([(s, (budget - 1) // 2, True)], explored), budget
        # a pair that no map swaps (a rotation sends i to j, but not j to i)
        # seeds both sides, however small the budget
        s, t = sub([1, 2, 3, 5], 9), sub([2, 3, 4, 6], 9)
        assert swapping_maps(s, t) == []
        for budget in (0, 10**6):
            calls.clear()
            r = mutation_distance(s, t, budget=budget, big=True)
            assert [(x, swap) for x, _, swap in calls] == [(s, False), (t, False)], budget
            assert r.budget_exhausted == (budget == 0), budget


@pytest.mark.skipif(os.environ.get("WEAKSEP_LONG") != "1", reason="runs under WEAKSEP_LONG=1")
class TestBigGrid:
    def test_ten_four_run_pair_seed_count(self):
        # the (3,2,2,3) pair at n = 10 that the budget call seeds from both ends
        i = sub([1, 2, 3, 6, 7], 10)
        grid = _grid(10, 5)
        for s in (i, i.complement()):
            seeds = _maximal_collections_containing(s, grid, mutations.DEFAULT_BUDGET)
            assert len(seeds) == len(set(seeds)) == 244037
            assert purity_report(build_domain_AIJ(s, s)).clique_count == 244037

    def test_ten_four_run_seeds_match_plain_kernel(self):
        # the memoised kernel builds the same nodes as the unmemoised one
        s = sub([1, 2, 3, 6, 7], 10)
        grid = _grid(10, 5)
        g = build_compat_graph(build_domain_AIJ(s, s))
        plain: list[int] = []
        plain_bron_kerbosch(g.adj, list(map(grid.__getitem__, g.vertices.masks)), plain.append)
        seeds = _maximal_collections_containing(s, grid, mutations.DEFAULT_BUDGET)
        assert len(plain) == 244037 and sorted(seeds) == sorted(plain)

    def test_four_of_eight_graph_matches_clique_census(self):
        # the gated 4-of-8 grid is in fact fully explorable: 5470 maximal
        # collections, found identically by moves and by clique enumeration
        seed = complete_to_maximal(Collection.from_masks([], 8), grid(8, 4))
        g = explore_mutation_graph(seed)
        assert g.complete and g.node_count == 5470 and g.edge_count == 18960
        expected = {c.masks for c in enumerate_maximal_cliques(build_compat_graph(grid(8, 4)))}
        assert set(g.nodes) == expected

