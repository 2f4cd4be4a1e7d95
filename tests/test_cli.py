import io
import json
import shlex
import sys
from pathlib import Path

import pytest

from weaksep import Subset, cli, cliques, domains, ground, mutations, octahedron
from weaksep.cliques import Collection, build_compat_graph, enumerate_maximal_cliques, purity_report
from weaksep.cli import EXIT_BAD_INPUT, EXIT_BUDGET, EXIT_INTERNAL, EXIT_OK, emit_report, run


def invoke(argv):
    buf = io.BytesIO()

    class Out:
        buffer = buf

        @staticmethod
        def write(text):
            buf.write(text.encode())

        @staticmethod
        def flush():
            pass

    old = sys.stdout
    sys.stdout = Out()
    try:
        code = run(argv)
    finally:
        sys.stdout = old
    return code, buf.getvalue()


def invoke_json(argv):
    code, payload = invoke(argv)
    return code, json.loads(payload) if payload else None


class TestCheck:
    def test_incompatible_pair(self):
        code, report = invoke_json(["check", "--n", "6", "--a", "1,2,4", "--b", "3,5,6"])
        assert code == EXIT_OK
        assert report == {"weakly_separated": False, "chord_separated": False}

    def test_chord_only_pair(self):
        code, report = invoke_json(["check", "--n", "4", "--a", "1,3", "--b", "2"])
        assert code == EXIT_OK
        assert report == {"weakly_separated": False, "chord_separated": True}

    def test_out_of_range_element(self):
        code, _ = invoke(["check", "--n", "6", "--a", "1,2,7", "--b", "3,5,6"])
        assert code == EXIT_BAD_INPUT

    def test_unknown_verb(self):
        code, _ = invoke(["frobnicate"])
        assert code == EXIT_BAD_INPUT

    def test_missing_flag(self):
        code, _ = invoke(["check", "--n", "6", "--a", "1,2"])
        assert code == EXIT_BAD_INPUT


class TestDistance:
    def test_exact(self):
        code, report = invoke_json(
            ["distance", "--n", "6", "--i", "1,3,5", "--j", "2,4,6", "--method", "exact"]
        )
        assert code == EXIT_OK and report == {"d": 4}

    def test_formula_upper_bound(self):
        code, report = invoke_json(
            ["distance", "--n", "6", "--i", "1,2,4", "--j", "3,5,6", "--method", "formula"]
        )
        assert code == EXIT_OK and report == {"d": 2, "upper_bound_only": True}


class TestPurity:
    def test_grid(self):
        code, report = invoke_json(["purity", "--n", "6", "--k", "3"])
        assert code == EXIT_OK
        assert report["pure"] and report["rank"] == 10 and report["domain_size"] == 20

    def test_pair_domain(self):
        code, report = invoke_json(
            ["purity", "--n", "10", "--i", "1,2,4,6,8", "--j", "3,5,7,9,10"]
        )
        assert report["rank"] == 12 and report["clique_count"] == 4

    def test_powerset_rank_and_count(self):
        code, report = invoke_json(["purity", "--n", "4", "--powerset"])
        assert code == EXIT_OK
        assert report["rank"] == 11 and report["clique_count"] == 10

    def test_conflicting_domain_flags(self):
        code, _ = invoke(["purity", "--n", "4", "--k", "2", "--powerset"])
        assert code == EXIT_BAD_INPUT

    def test_clique_stream_jsonl(self):
        code, payload = invoke(["purity", "--n", "4", "--k", "2", "--format", "jsonl"])
        lines = [json.loads(line) for line in payload.decode().splitlines()]
        assert code == EXIT_OK and len(lines) == 2
        assert all(len(c) == 5 for c in lines)

    def test_impure_census(self):
        # an unbalanced pair: maximal collections of two sizes
        argv = ["purity", "--n", "7", "--i", "1,2,4", "--j", "3,5,6"]
        code, report = invoke_json(argv)
        assert code == EXIT_OK
        assert report["pure"] is False and report["rank"] is None
        assert report["clique_sizes"] == {"10": 5, "11": 10} and report["clique_count"] == 15
        rep = purity_report(domains.build_domain_AIJ(Subset.of([1, 2, 4], 7), Subset.of([3, 5, 6], 7)))
        assert rep.max_size == 11 and rep.to_json() == report

    def test_empty_domain_in_both_formats(self):
        code, payload = invoke(["purity", "--n", "4", "--k", "5"])
        assert code == EXIT_OK
        assert payload == b'{"clique_count":0,"clique_sizes":{},"domain_size":0,"pure":true,"rank":null}\n'
        code, payload = invoke(["purity", "--n", "4", "--k", "5", "--format", "jsonl"])
        assert code == EXIT_OK and payload == b""


@pytest.mark.parametrize(
    "argv, option, value",
    [
        (["purity", "--n", "4", "--powerset"], "stream", []),
        (["purity", "--n", "4", "--k", "2"], "relation", ["chord"]),
        (["chord", "--n", "4"], "stream", []),
    ],
)
def test_removed_options_rejected(argv, option, value, capsys):
    # the deleted options are named without their dashes
    code, payload = invoke([*argv, "--" + option, *value])
    err = capsys.readouterr().err
    assert code == EXIT_BAD_INPUT and payload == b""
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "--" + option in errors[0]


@pytest.mark.parametrize("verb", ["purity", "explore"])
def test_negative_k_rejected(verb, capsys):
    code, payload = invoke([verb, "--n", "4", "--k", "-1"])
    err = capsys.readouterr().err
    assert code == EXIT_BAD_INPUT and payload == b""
    expected = f"weaksep {verb}: error: argument --k: expected an integer >= 0, got '-1'"
    assert err.splitlines()[-1] == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["explore", "--n", "6", "--k", "3", "--budget", "-3"],
        ["explore", "--n", "6", "--k", "3", "--budget", "0"],
        ["mutdist", "--n", "4", "--i", "1,2", "--j", "3,4", "--budget", "-5"],
        ["mutdist", "--n", "4", "--i", "1,2", "--j", "3,4", "--budget", "0"],
    ],
)
def test_budget_below_one_rejected(argv, capsys):
    code, payload = invoke(argv)
    err = capsys.readouterr().err
    assert code == EXIT_BAD_INPUT and payload == b""
    assert "Traceback" not in err
    expected = f"argument --budget: expected an integer >= 1, got '{argv[-1]}'"
    assert err.splitlines()[-1].endswith(expected)


@pytest.mark.parametrize(
    "argv, line",
    [
        (["purity", "--n", "5", "--i", "1,2"], "error: --i and --j must be given together"),
        (["necklace", "--a", "1,2"], "error: --a needs --n"),
        (["necklace"], "error: give either --perm with --k, or --a with --n"),
        (["octahedron", "--a", "1,2"], "error: --a needs --n"),
        (["octahedron", "--p", "1,2,3"], "error: --p needs four comma-separated lengths"),
        (["octahedron"], "error: give either --a with --n, or --p"),
        (
            ["mutdist", "--n", "6", "--i", "1,2,4", "--j", "3,5,6", "--budget", "x"],
            "weaksep mutdist: error: argument --budget: expected an integer >= 1, got 'x'",
        ),
        (
            ["necklace", "--n", "5", "--perm", "2,1", "--k", "1"],
            "error: --perm, --k and --colors cannot be combined with --a or --n",
        ),
        (
            ["necklace", "--a", "1,2,3,7,8", "--n", "10", "--k", "3"],
            "error: --perm, --k and --colors cannot be combined with --a or --n",
        ),
        (["octahedron", "--n", "7", "--p", "2,1,1,2"], "error: --p cannot be combined with --a or --n"),
        (
            ["octahedron", "--a", "1,2,5,6", "--n", "8", "--p", "1,1,1,1"],
            "error: --p cannot be combined with --a or --n",
        ),
        (
            ["necklace", "--perm", "2,x", "--k", "1"],
            "error: --perm expects integers separated by ',', got '2,x'",
        ),
        (
            ["necklace", "--perm", "1,2", "--k", "1", "--colors", "1"],
            "error: --colors expects 2 integers separated by ':', got '1'",
        ),
        (["octahedron", "--p", "1,x,1,1"], "error: --p expects integers separated by ',', got '1,x,1,1'"),
        (
            ["explore", "--n", "6", "--k", "3", "--split", "1,x"],
            "error: --split expects integers separated by ',', got '1,x'",
        ),
        (["octahedron", "--p=2,-1,1,4"], "error: --p lengths must be at least 1, got '2,-1,1,4'"),
        (["octahedron", "--p=0,1,1,0"], "error: --p lengths must be at least 1, got '0,1,1,0'"),
    ],
)
def test_input_errors_exit_2(argv, line, capsys):
    code, payload = invoke(argv)
    err = capsys.readouterr().err
    assert code == EXIT_BAD_INPUT and payload == b""
    assert [e for e in err.splitlines() if "error:" in e] == [line]


class TestMutdist:
    def test_distance_with_path(self):
        code, report = invoke_json(["mutdist", "--n", "6", "--i", "1,2,4", "--j", "3,5,6"])
        assert code == EXIT_OK
        assert report["distance"] == 2 and len(report["path"]) == 2

    def test_budget_exhaustion_exit_code(self):
        code, report = invoke_json(
            ["mutdist", "--n", "6", "--i", "1,2,4", "--j", "3,5,6", "--budget", "2"]
        )
        assert code == EXIT_BUDGET
        assert report == {"distance": "budget-exhausted", "nodes_explored": 20, "path": []}

    def test_big_gate(self, capsys):
        code, payload = invoke(["mutdist", "--n", "8", "--i", "1,2,5,6", "--j", "3,4,7,8"])
        assert code == EXIT_BAD_INPUT and payload == b""
        assert capsys.readouterr().err == (
            "error: grid 4x(8-4) exceeds the desk-scale gate; pass --big (big=True) to proceed\n"
        )


def raiser(exc):
    def fail(*args, **kwargs):
        raise exc

    return fail


def assert_internal_error(argv, capsys, message):
    code, payload = invoke(argv)
    err = capsys.readouterr().err
    assert code == EXIT_INTERNAL and payload == b""
    assert err == f"error: {message}\n"


class TestInternalErrors:
    """A search the theory says cannot fail exits 4 with one error line, not a traceback."""

    def test_chain_not_found(self, monkeypatch, capsys):
        monkeypatch.setattr(domains, "_lr_chain_of", raiser(domains.ChainNotFound("no chain")))
        assert_internal_error(["lr", "--n", "4", "--chains"], capsys, "no chain")

    def test_runtime_error_exits_4(self, monkeypatch, capsys):
        monkeypatch.setattr(octahedron, "p4_counts", raiser(RuntimeError("no profile")))
        assert_internal_error(["octahedron", "--p", "2,1,1,2"], capsys, "no profile")

    def test_disjoint_frontiers(self, monkeypatch, capsys):
        # with no square moves the two seed sets, which share no collection,
        # can never meet, so mutation_distance raises its own RuntimeError;
        # the moves go at their one definition, in a fresh grid whose entries hold no square
        class Squareless(mutations._Grid):
            def entry(self, pos):
                out = self.table[pos] = (0, (), {})
                return out

        monkeypatch.setattr(mutations, "_grid", Squareless)
        argv = ["mutdist", "--n", "6", "--i", "1,2,4", "--j", "3,5,6"]
        message = (
            "both frontiers exhausted without meeting; the mutation graph "
            "components of the two endpoints are disjoint"
        )
        assert_internal_error(argv, capsys, message)

    @pytest.mark.parametrize("exc", [KeyError("lost"), TypeError("bad operand")])
    def test_any_other_exception(self, exc, monkeypatch, capsys):
        # only ValueError means bad input; everything else is a fault of the program
        monkeypatch.setitem(cli._COMMANDS, "check", raiser(exc))
        assert_internal_error(["check", "--n", "4", "--a", "1", "--b", "2"], capsys, str(exc))


class TestNecklaceVerb:
    def test_from_permutation(self):
        code, report = invoke_json(
            ["necklace", "--perm", "4,8,7,10,9,3,2,1,6,5", "--k", "5"]
        )
        assert code == EXIT_OK
        assert report["necklace"][0] == [1, 2, 3, 5, 6]
        assert report["length"] == 17 and report["alignments"] == 8

    def test_from_half_set(self):
        code, report = invoke_json(["necklace", "--a", "1,2,3,7,8", "--n", "10"])
        assert report["permutation"] == [4, 8, 7, 10, 9, 3, 2, 1, 6, 5]
        assert report["tau_a"] == [3, 2, 1, 6, 5, 4, 8, 7, 10, 9]

    def test_colors_roundtrip(self):
        code, report = invoke_json(
            ["necklace", "--perm", "1,2", "--k", "2", "--colors", "1:-1,2:-1"]
        )
        assert report["necklace"] == [[1, 2], [1, 2]]
        assert report["connected"] is False

    def test_missing_k(self):
        code, _ = invoke(["necklace", "--perm", "3,4,1,2"])
        assert code == EXIT_BAD_INPUT


HALF_40 = ",".join(map(str, range(1, 21)))
# a pair that is not weakly separated, so its domain is a filtered C(40,20) listing
ODD_40 = ",".join(map(str, range(1, 41, 2)))
EVEN_40 = ",".join(map(str, range(2, 41, 2)))


class TestLrChordOcta:
    def test_lr(self):
        code, report = invoke_json(["lr", "--n", "3", "--chains"])
        assert report["rank"] == 7 and report["pure"]
        assert sorted(report["chains"]) == [[[], [1], [1, 2]], [[], [2], [1, 2]]]

    def test_chord(self):
        code, report = invoke_json(["chord", "--n", "4"])
        assert report["rank"] == 15 == report["expected_size"]

    def test_chord_chain(self):
        code, report = invoke_json(["chord", "--n", "4", "--u", "", "--v", "2,3"])
        assert report["chain"][0] == [] and report["chain"][-1] == [2, 3]

    def test_chord_lone_endpoint_rejected_before_census(self, monkeypatch, capsys):
        def census(*args, **kwargs):
            raise AssertionError("census ran before the --u/--v check")

        monkeypatch.setattr(cli, "purity_report", census)
        code, payload = invoke(["chord", "--n", "4", "--u", "2"])
        assert code == EXIT_BAD_INPUT and payload == b""
        assert capsys.readouterr().err == "error: --u and --v must be given together\n"

    def test_lr_ground_too_large(self, capsys):
        code, payload = invoke(["lr", "--n", "64"])
        assert code == EXIT_BAD_INPUT and payload == b""
        assert capsys.readouterr().err == "error: ground set size must be in [1, 64], got 65\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["chord", "--n", "40"],
            ["purity", "--n", "40", "--powerset"],
            ["lr", "--n", "40"],
            ["explore", "--n", "40", "--k", "20"],
            ["purity", "--n", "40", "--k", "20"],
            ["mutdist", "--n", "40", "--i", HALF_40, "--j", HALF_40, "--big"],
            ["domain", "--n", "40", "--i", ODD_40, "--j", EVEN_40],
            ["distance", "--n", "40", "--i", ODD_40, "--j", EVEN_40],
            ["purity", "--n", "40", "--i", ODD_40, "--j", EVEN_40],
            ["mutdist", "--n", "40", "--i", ODD_40, "--j", EVEN_40, "--big"],
        ],
    )
    def test_power_set_too_large_rejected_before_listing(self, argv, monkeypatch, capsys):
        # 2^40 or C(40,20) masks would exhaust memory, and filtering C(40,20) candidates
        # would not end; the cap refuses them before any is listed or tested
        def listed(cls, masks, n):
            raise AssertionError("a domain was listed before the size check")

        def scanned(*args):
            raise AssertionError("a candidate was tested before the size check")

        def scanned_grid(n, k):
            whole_grid(n, k)  # every filtered domain walks the cached grid, which lists through the capped lister
            scanned()

        whole_grid = ground._whole_grid
        monkeypatch.setattr(Collection, "from_masks", classmethod(listed))
        monkeypatch.setattr(Collection, "_canonical", classmethod(listed))
        monkeypatch.setattr(ground, "_whole_grid", scanned_grid)
        code, payload = invoke(argv)
        assert code == EXIT_BAD_INPUT and payload == b""
        size = "2^40" if argv[0] in ("chord", "lr") or "--powerset" in argv else "C(40,20)"
        assert capsys.readouterr().err == f"error: a domain of {size} sets is too large to search; the limit is 2^20\n"

    def test_wide_move_grid_rejected_before_listing(self, monkeypatch, capsys):
        # a move search numbers its sets by the listed grid, so a maximal seed on
        # C(23,11) sets meets the cap before any set is listed or any move is sought
        n, k = 23, 11
        rectangle = {(*range(1, a + 1), *range(a + b + 1, b + k + 1)) for a in range(k + 1) for b in range(n - k + 1)}
        assert len(rectangle) == k * (n - k) + 1 == 133

        def scanned_grid(n, k):
            whole_grid(n, k)
            raise AssertionError("a grid was listed before the size check")

        whole_grid = ground._whole_grid
        monkeypatch.setattr(ground, "_whole_grid", scanned_grid)
        seed = ";".join(",".join(map(str, s)) for s in sorted(rectangle))
        code, payload = invoke(["explore", "--n", str(n), "--k", str(k), "--budget", "1", "--seed", seed])
        assert code == EXIT_BAD_INPUT and payload == b""
        assert capsys.readouterr().err == "error: a domain of C(23,11) sets is too large to search; the limit is 2^20\n"

    def test_formula_distance_lists_nothing(self):
        # the closed form needs no domain, so the listing cap does not apply
        code, report = invoke_json(["distance", "--n", "40", "--i", ODD_40, "--j", EVEN_40, "--method", "formula"])
        assert code == EXIT_OK and report == {"d": 361}

    def test_octahedron_by_lengths(self):
        code, report = invoke_json(["octahedron", "--p", "2,1,1,2"])
        assert report == {
            "cuboid_formula": 2,
            "match": True,
            "p": [2, 1, 1, 2],
            "pq_interior": 2,
            "z_count": 2,
            "z_formula": 2,
        }

    def test_octahedron_by_set(self):
        code, report = invoke_json(["octahedron", "--a", "1,2,4", "--n", "6"])
        assert report["match"] and report["p"] == [2, 1, 1, 2]

    def test_octahedron_bad_lengths(self):
        code, _ = invoke(["octahedron", "--p", "2,1,1,3"])
        assert code == EXIT_BAD_INPUT


def _interior_subsets(n):
    """Every subset of [2, n-1], as a mask."""
    return [m << 1 for m in range(1 << (n - 2))]


def _flag(mask, n):
    return ",".join(str(x + 1) for x in range(n) if mask >> x & 1)


class TestOnceOnlyVerbs:
    """`lr --chains` and `chord --u/--v` answer as the public, fully checked routes do."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_lr_chains_match_checked_route(self, n):
        code, report = invoke_json(["lr", "--n", str(n), "--chains"])
        dom = domains.lr_domain(n)
        want = purity_report(dom).to_json()
        want["chains"] = [
            [list(s) for s in domains.lr_chain(w, n)]
            for w in enumerate_maximal_cliques(build_compat_graph(dom))
        ]
        assert code == EXIT_OK and report == want

    @pytest.mark.parametrize("n", range(3, 7))
    def test_chord_witness_is_first_holding_clique(self, n):
        dom = Collection.from_masks(range(1 << n), n)
        found = enumerate_maximal_cliques(build_compat_graph(dom, "chord"))
        pairs = [(u, v) for u in _interior_subsets(n) for v in _interior_subsets(n) if not u & ~v]
        assert len(pairs) == 3 ** (n - 2)
        for u, v in pairs:
            code, report = invoke_json(["chord", "--n", str(n), "--u", _flag(u, n), "--v", _flag(v, n)])
            needed = {m for s in (u, v) for m in domains._decorated(s, n)}
            first = next(w for w in found if needed <= set(w.masks))
            assert code == EXIT_OK and report["witness_collection"] == first.to_json()
            chain = domains.chord_chain(first, Subset(u, n), Subset(v, n))
            assert report["chain"] == [s.to_json() for s in chain]

    def test_chord_invalid_pairs_exit_2(self, capsys):
        n = 4
        bad = [
            (u, v)
            for u in range(1 << n)
            for v in range(1 << n)
            if u & ~v or (u | v) & (1 | 1 << (n - 1))
        ]
        assert len(bad) == 247
        for u, v in bad:
            code, payload = invoke(["chord", "--n", str(n), "--u", _flag(u, n), "--v", _flag(v, n)])
            assert code == EXIT_BAD_INPUT and payload == b""
            assert capsys.readouterr().err == "error: need U inside V inside [2, n-1]\n"

    @pytest.mark.parametrize(
        "argv", [["lr", "--n", "5", "--chains"], ["chord", "--n", "5", "--u", "3", "--v", "2,3,4"]]
    )
    def test_one_graph_one_enumeration(self, argv, monkeypatch):
        calls = {"graph": 0, "bk": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        graph = counted("graph", cliques.build_compat_graph)
        monkeypatch.setattr(cliques, "build_compat_graph", graph)
        monkeypatch.setattr(cli, "build_compat_graph", graph)
        # a clique pass lists the cliques (`lr --chains`) or only counts them (`chord`)
        monkeypatch.setattr(cliques, "_bron_kerbosch", counted("bk", cliques._bron_kerbosch))
        monkeypatch.setattr(cliques, "_clique_census", counted("bk", cliques._clique_census))
        code, _ = invoke(argv)
        assert code == EXIT_OK and calls == {"graph": 1, "bk": 1}


class TestExplore:
    def test_summary(self):
        code, report = invoke_json(["explore", "--n", "6", "--k", "3"])
        assert report == {"complete": True, "edges": 60, "nodes": 34}

    @pytest.mark.parametrize("fmt", ["json", "jsonl"])
    def test_budget_exhaustion_exit_code(self, fmt):
        # the partial graph is printed as it would be if complete, and the exit code says it is not
        code, payload = invoke(["explore", "--n", "6", "--k", "3", "--budget", "5", "--format", fmt])
        assert code == EXIT_BUDGET
        if fmt == "json":
            assert payload == b'{"complete":false,"edges":4,"nodes":5}\n'
        else:
            assert len(payload.decode().splitlines()) == 5

    def test_jsonl_nodes(self):
        code, payload = invoke(["explore", "--n", "4", "--k", "2", "--format", "jsonl"])
        lines = payload.decode().splitlines()
        assert len(lines) == 2
        assert all(len(json.loads(line)) == 5 for line in lines)

    @pytest.mark.parametrize("n, k", [(6, 3), (7, 3)])
    def test_jsonl_rows_match_graph_nodes(self, n, k):
        code, payload = invoke(["explore", "--n", str(n), "--k", str(k), "--format", "jsonl"])
        first = Subset.of(range(1, k + 1), n)
        graph = mutations.explore_mutation_graph(mutations._grid_completion(first, first))
        rows = [json.loads(line) for line in payload.decode().splitlines()]
        assert code == EXIT_OK and len(rows) == len(graph.nodes)
        for row, node in zip(rows, graph.nodes):
            assert row == [[x + 1 for x in range(n) if m >> x & 1] for m in node]

    def test_custom_seed(self):
        seed = "1,2;2,3;3,4;1,4;1,3"
        code, report = invoke_json(["explore", "--n", "4", "--k", "2", "--seed", seed])
        assert report["nodes"] == 2

    def test_empty_seed_is_the_empty_set(self):
        code, report = invoke_json(["explore", "--n", "4", "--k", "0", "--seed", ""])
        assert code == EXIT_OK and report["nodes"] == 1

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["--k", "5"], "--k 5 exceeds --n 4"),
            (["--k", "5", "--seed", "1,2;2,3;3,4;1,4;1,3"], "--k 5 exceeds --n 4"),
            (
                ["--k", "1", "--seed", "1,2;2,3;3,4;1,4;1,3"],
                "every seed set must have --k 1 elements",
            ),
            (
                ["--k", "2", "--seed", "1,2;2,3;3,4;1,4;1,3;1,2,3"],
                "every seed set must have --k 2 elements",
            ),
            (["--k", "2", "--seed", ""], "every seed set must have --k 2 elements"),
            (["--k", "2", "--split", ""], "--split expects integers separated by ',', got ''"),
        ],
    )
    def test_k_must_fit_n_and_seed(self, argv, error, capsys):
        code, payload = invoke(["explore", "--n", "4", *argv])
        assert code == EXIT_BAD_INPUT and payload == b""
        assert capsys.readouterr().err == f"error: {error}\n"

    def test_split_verifies_projection_laws(self):
        code, report = invoke_json(
            ["explore", "--n", "4", "--k", "2", "--split", "1,1,1,1"]
        )
        assert code == EXIT_OK
        assert report["projection_laws"]["consistent"] is True
        assert report["projection_laws"]["moves_checked"] == 2

    def test_bad_split_rejected_before_exploring(self, monkeypatch, capsys):
        def explore(*args, **kwargs):
            raise AssertionError("explored before the --split check")

        monkeypatch.setattr(cli.mutations, "explore_mutation_graph", explore)
        code, payload = invoke(["explore", "--n", "5", "--k", "2", "--split", "9,9,9,9"])
        assert code == EXIT_BAD_INPUT and payload == b""
        assert capsys.readouterr().err == (
            "error: split (9, 9, 9, 9) does not sum to the ground size 5\n"
        )

    def test_split_rejected_with_jsonl(self, capsys):
        argv = ["explore", "--n", "5", "--k", "2", "--format", "jsonl", "--split", "2,1,1,1"]
        code, payload = invoke(argv)
        assert code == EXIT_BAD_INPUT and payload == b""
        assert capsys.readouterr().err == "error: --split cannot be combined with --format jsonl\n"


class TestDeterminism:
    def test_byte_identical_repeats(self):
        argv = ["purity", "--n", "10", "--i", "1,2,4,6,8", "--j", "3,5,7,9,10"]
        assert invoke(argv) == invoke(argv)
        argv = ["mutdist", "--n", "6", "--i", "1,2,4", "--j", "3,5,6"]
        assert invoke(argv) == invoke(argv)


class TestSharedParser:
    # one parser serves every call, so no call may leave state for the next

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_budget_does_not_stick(self):
        argv = ["mutdist", "--n", "8", "--i", "1,2,5,6", "--j", "3,4,7,8", "--big"]
        code, report = invoke_json(argv + ["--budget", "5"])
        assert code == EXIT_BUDGET and report["distance"] == "budget-exhausted"
        code, report = invoke_json(argv)
        assert code == EXIT_OK and report["distance"] == 6

    def test_rejected_argv_leaves_parser_usable(self, capsys):
        code, _ = invoke(["purity", "--n", "4", "--bogus"])
        assert code == EXIT_BAD_INPUT
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err
        code, report = invoke_json(["check", "--n", "6", "--a", "1,2,4", "--b", "3,5,6"])
        assert code == EXIT_OK and report["weakly_separated"] is False

    def test_each_call_gets_a_fresh_namespace(self):
        code, report = invoke_json(["purity", "--n", "6", "--k", "3"])
        assert code == EXIT_OK and report["rank"] == 10
        # a --k left over from the call above would clash with --i/--j
        code, report = invoke_json(["purity", "--n", "10", "--i", "1,2,4,6,8", "--j", "3,5,7,9,10"])
        assert code == EXIT_OK and report["rank"] == 12
        args = cli.build_parser().parse_args(["purity", "--n", "10", "--i", "1", "--j", "2"])
        assert args.k is None and not args.powerset


class TestEmitReport:
    def test_json_sorted_keys(self):
        assert emit_report({"b": 1, "a": 2}) == b'{"a":2,"b":1}\n'

    def test_empty_collection_renders_as_brackets(self):
        assert emit_report([]) == b"[]\n"

    def test_jsonl(self):
        assert cli._jsonl(['{"x":1}', '{"y":2}']) == b'{"x":1}\n{"y":2}\n'
        assert cli._jsonl([]) == b""


def test_readme_cli_block_runs():
    """Every ``weaksep`` line of the README's CLI block exits 0; complete JSON comments match."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    ran, matched = 0, set()
    for line, after in zip(lines, lines[1:] + [""]):
        if not line.startswith("weaksep "):
            continue
        argv = shlex.split(line, comments=True)[1:]
        code, payload = invoke(argv)
        assert code == EXIT_OK, line
        ran += 1
        expected = after.removeprefix("# ")
        if after.startswith("# {"):
            try:
                json.loads(expected)
            except ValueError:
                continue  # an elided report such as "path":[...]
            assert payload == (expected + "\n").encode(), line
            matched.add(argv[0])
    assert ran >= 10 and {"check", "distance", "purity"} <= matched
