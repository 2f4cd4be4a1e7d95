"""Command-line front end: flag parsing, report emission, deterministic bytes.

One verb per library capability; every report is a single JSON document with
sorted keys (JSONL for node streams), so identical invocations give identical
bytes.  Exit codes: 0 success, 2 invalid input, 3 budget exhausted, 4 internal
error (any other failure, such as a search that the theory says cannot fail).
No failure prints a traceback; each prints one ``error:`` line.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from functools import cache
from typing import Any, Iterable

from . import cliques, domains, mutations, necklaces, octahedron
from .cliques import Collection, build_compat_graph, enumerate_maximal_cliques, purity_report
from .ground import Subset, _grid, _power_set, is_chord_separated, is_weakly_separated

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def emit_report(result: Any) -> bytes:
    """Serialize a report deterministically: sorted keys, canonical order, one newline."""
    return (json.dumps(result, sort_keys=True, separators=(",", ":")) + "\n").encode()


def _jsonl(lines: Iterable[str]) -> bytes:
    """JSONL bytes, each line newline-terminated; no lines give no bytes."""
    return "".join(line + "\n" for line in lines).encode()


def _emit_collections(nodes, masks, n: int) -> bytes:
    """JSONL, one row per mask tuple; rows repeat the sets of ``masks``, each written as JSON once."""
    texts = {m: json.dumps(Subset(m, n).to_json(), separators=(",", ":")) for m in masks}
    return _jsonl("[" + ",".join(map(texts.__getitem__, node)) + "]" for node in nodes)


def _int_from(low: int):
    """An argparse type for integers no smaller than low."""

    def parse(text: str) -> int:
        try:
            if int(text) >= low:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")

    return parse


def _ints(flag: str, text: str, sep: str = ",", count: int | None = None) -> list[int]:
    """The integers of a flag's text split at sep, exactly count of them if given.

    Anything else raises a ValueError whose message names the flag and quotes the text.
    """
    try:
        values = [int(x) for x in text.split(sep)]
    except ValueError:
        values = []
    if not values or count not in (None, len(values)):
        what = f"{count} integers" if count else "integers"
        raise ValueError(f"{flag} expects {what} separated by {sep!r}, got {text!r}")
    return values


@cache  # parse_args leaves the parser as it was, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weaksep",
        description="Weakly separated collections: purity, distances, necklaces, moves",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    parser.verbs = sub.choices  # verb -> its parser

    p = sub.add_parser("check", help="separation predicates for one pair")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)

    p = sub.add_parser("domain", help="all same-size subsets compatible with a pair")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--i", required=True)
    p.add_argument("--j", required=True)
    p.add_argument("--format", default="json", choices=["json", "jsonl"])

    p = sub.add_parser("purity", help="maximal-clique size census of a domain")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--i")
    p.add_argument("--j")
    p.add_argument("--k", type=_int_from(0))
    p.add_argument("--powerset", action="store_true")
    p.add_argument("--format", default="json", choices=["json", "jsonl"])

    p = sub.add_parser("distance", help="cluster distance of a pair")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--i", required=True)
    p.add_argument("--j", required=True)
    p.add_argument("--method", default="exact", choices=["exact", "formula"])

    p = sub.add_parser("mutdist", help="mutation distance by bidirectional search")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--i", required=True)
    p.add_argument("--j", required=True)
    p.add_argument("--budget", type=_int_from(1), default=mutations.DEFAULT_BUDGET)
    p.add_argument("--big", action="store_true")

    p = sub.add_parser("necklace", help="necklace of a permutation or of a half-size set")
    p.add_argument("--n", type=int)
    p.add_argument("--perm")
    p.add_argument("--k", type=int)
    p.add_argument("--colors")
    p.add_argument("--a")

    p = sub.add_parser("lr", help="purity of the left/right domain")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--chains", action="store_true")

    p = sub.add_parser("chord", help="chord-separation census of the power set")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--u")
    p.add_argument("--v")

    p = sub.add_parser("octahedron", help="lattice counts of a four-run pair")
    p.add_argument("--n", type=int)
    p.add_argument("--a")
    p.add_argument("--p")

    p = sub.add_parser("explore", help="breadth-first closure under square moves")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=_int_from(0), required=True)
    p.add_argument("--seed")
    p.add_argument("--budget", type=_int_from(1), default=mutations.DEFAULT_BUDGET)
    p.add_argument("--format", default="json", choices=["json", "jsonl"])
    p.add_argument("--split", help="verify the projection laws under this 4-way split")

    return parser


def _cmd_check(args) -> tuple[int, bytes]:
    a = Subset.parse(args.a, args.n)
    b = Subset.parse(args.b, args.n)
    report = {
        "weakly_separated": is_weakly_separated(a, b),
        "chord_separated": is_chord_separated(a, b),
    }
    return EXIT_OK, emit_report(report)


def _cmd_domain(args) -> tuple[int, bytes]:
    i = Subset.parse(args.i, args.n)
    j = Subset.parse(args.j, args.n)
    dom = domains.build_domain_AIJ(i, j)
    if args.format == "jsonl":
        return EXIT_OK, _jsonl(json.dumps(s, separators=(",", ":")) for s in dom.to_json())
    report = {"n": args.n, "i": i.to_json(), "j": j.to_json(), "size": len(dom), "sets": dom.to_json()}
    return EXIT_OK, emit_report(report)


def _purity_domain(args) -> Collection:
    chosen = [args.i is not None or args.j is not None, args.k is not None, args.powerset]
    if sum(chosen) != 1:
        raise ValueError("choose exactly one of --i/--j, --k, or --powerset")
    if args.powerset:
        return Collection.from_masks(_power_set(args.n), args.n)
    if args.k is not None:
        return Collection._canonical(_grid(args.n, args.k).sets, args.n)
    if args.i is None or args.j is None:
        raise ValueError("--i and --j must be given together")
    return domains.build_domain_AIJ(
        Subset.parse(args.i, args.n), Subset.parse(args.j, args.n)
    )


def _cmd_purity(args) -> tuple[int, bytes]:
    domain = _purity_domain(args)
    if args.format == "jsonl":
        cliques = enumerate_maximal_cliques(build_compat_graph(domain, "weak"))
        return EXIT_OK, _emit_collections((c.masks for c in cliques), domain.masks, domain.n)
    return EXIT_OK, emit_report(purity_report(domain, "weak").to_json())


def _cmd_distance(args) -> tuple[int, bytes]:
    i = Subset.parse(args.i, args.n)
    j = Subset.parse(args.j, args.n)
    result = domains.cluster_distance(i, j, args.method)
    report: dict[str, Any] = {"d": result.value}
    if not result.exact:
        report["upper_bound_only"] = True
    return EXIT_OK, emit_report(report)


def _cmd_mutdist(args) -> tuple[int, bytes]:
    i = Subset.parse(args.i, args.n)
    j = Subset.parse(args.j, args.n)
    result = mutations.mutation_distance(i, j, budget=args.budget, big=args.big)
    code = EXIT_BUDGET if result.budget_exhausted else EXIT_OK
    return code, emit_report(result.to_json())


def _cmd_necklace(args) -> tuple[int, bytes]:
    if {args.perm, args.k, args.colors} != {None} and {args.a, args.n} != {None}:
        raise ValueError("--perm, --k and --colors cannot be combined with --a or --n")
    if args.perm is not None:
        if args.k is None:
            raise ValueError("--perm needs --k")
        images = _ints("--perm", args.perm)
        pairs = args.colors.split(",") if args.colors else []
        colors = dict(_ints("--colors", piece, ":", 2) for piece in pairs)
        perm = necklaces.DecoratedPermutation.make(images, colors)
        k = args.k
        extra: dict[str, Any] = {}
    elif args.a is not None:
        if args.n is None:
            raise ValueError("--a needs --n")
        a = Subset.parse(args.a, args.n)
        part = domains.circle_partition(a)
        perm = necklaces.canonical_permutation(a)
        k = part.k
        extra = {"tau_a": list(necklaces.block_reversal_permutation(part.lengths))}
    else:
        raise ValueError("give either --perm with --k, or --a with --n")
    nk = necklaces.necklace_from_perm(perm, k)
    al, length = necklaces.length_of(perm, k)
    report = {
        "necklace": nk.to_json(),
        "connected": nk.connected,
        "alignments": al,
        "length": length,
        "k": k,
        **perm.to_json(),
        **extra,
    }
    return EXIT_OK, emit_report(report)


def _cmd_lr(args) -> tuple[int, bytes]:
    dom = domains.lr_domain(args.n)
    if not args.chains:
        return EXIT_OK, emit_report(purity_report(dom, "weak").to_json())
    # the graph's edges are the weakly separated pairs, and the census below
    # states the one clique size, so each clique is a maximal collection as is
    found = enumerate_maximal_cliques(build_compat_graph(dom, "weak"))
    report = cliques.PurityReport(len(dom), Counter(len(w) for w in found)).to_json()
    labels: dict[int, tuple[int, ...]] = {}  # one decode per chain set, as JSON arrays
    report["chains"] = [domains._lr_chain_of(w.masks, args.n, labels) for w in found]
    return EXIT_OK, emit_report(report)


def _cmd_chord(args) -> tuple[int, bytes]:
    if (args.u is None) != (args.v is None):
        raise ValueError("--u and --v must be given together")
    dom = Collection.from_masks(_power_set(args.n), args.n)
    report = purity_report(dom, "chord").to_json()
    report["expected_size"] = domains._chord_rank(args.n)
    if args.u is not None:
        u = Subset.parse(args.u, args.n)
        v = Subset.parse(args.v, args.n)
        needed = {m for s in (u, v) for m in domains._decorated(s.mask, args.n)}
        w = Collection.from_masks(cliques._greedy_maximal(needed, dom.masks, "chord"), args.n)
        report["chain"] = [s.to_json() for s in domains.chord_chain(w, u, v)]
        report["witness_collection"] = w.to_json()
    return EXIT_OK, emit_report(report)


def _cmd_octahedron(args) -> tuple[int, bytes]:
    if args.p is not None and {args.a, args.n} != {None}:
        raise ValueError("--p cannot be combined with --a or --n")
    if args.a is not None:
        if args.n is None:
            raise ValueError("--a needs --n")
        a = Subset.parse(args.a, args.n)
    elif args.p is not None:
        p = _ints("--p", args.p)
        if len(p) != 4:
            raise ValueError("--p needs four comma-separated lengths")
        if min(p) < 1:
            raise ValueError(f"--p lengths must be at least 1, got {args.p!r}")
        if p[0] + p[2] != p[1] + p[3]:
            raise ValueError("run lengths must satisfy p1+p3 = p2+p4")
        a = Subset.of([*range(1, p[0] + 1), *range(p[0] + p[1] + 1, sum(p[:3]) + 1)], sum(p))
    else:
        raise ValueError("give either --a with --n, or --p")
    return EXIT_OK, emit_report(octahedron.p4_counts(a).to_json())


def _cmd_explore(args) -> tuple[int, bytes]:
    if args.k > args.n:
        raise ValueError(f"--k {args.k} exceeds --n {args.n}")
    if args.split is not None:
        if args.format == "jsonl":
            raise ValueError("--split cannot be combined with --format jsonl")
        split = tuple(_ints("--split", args.split))
        octahedron._split_windows(split, args.n)
    if args.seed is not None:
        seed = Collection(Subset.parse(part, args.n) for part in args.seed.split(";"))
        if any(m.bit_count() != args.k for m in seed.masks):
            raise ValueError(f"every seed set must have --k {args.k} elements")
    else:
        first = Subset.of(range(1, args.k + 1), args.n)
        seed = mutations._grid_completion(first, first)
    graph = mutations.explore_mutation_graph(seed, budget=args.budget)
    code = EXIT_OK if graph.complete else EXIT_BUDGET
    if args.format == "jsonl":
        nodes = graph.nodes
        return code, _emit_collections(nodes, set().union(*nodes), args.n)
    report = graph.to_json()
    if args.split is not None:
        checked, consistent = octahedron.check_projection_laws(graph, split)
        report["projection_laws"] = {"moves_checked": checked, "consistent": consistent}
    return code, emit_report(report)


_COMMANDS = {
    "check": _cmd_check,
    "domain": _cmd_domain,
    "purity": _cmd_purity,
    "distance": _cmd_distance,
    "mutdist": _cmd_mutdist,
    "necklace": _cmd_necklace,
    "lr": _cmd_lr,
    "chord": _cmd_chord,
    "octahedron": _cmd_octahedron,
    "explore": _cmd_explore,
}


def run(argv: list[str]) -> int:
    """Parse, dispatch, and print one report; returns the process exit code."""
    parser = build_parser()
    try:
        # the full parser hands the verb's parser the same tokens: ask it alone, unless some are left over
        verb = parser.verbs.get(argv[0]) if argv else None
        args, rest = verb.parse_known_args(argv[1:], argparse.Namespace(verb=argv[0])) if verb else (None, None)
        if verb is None or rest:
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_BAD_INPUT if exc.code else EXIT_OK
    try:
        code, payload = _COMMANDS[args.verb](args)
    except Exception as exc:  # every input check raises ValueError; anything else is a fault here
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BAD_INPUT if isinstance(exc, ValueError) else EXIT_INTERNAL
    sys.stdout.buffer.write(payload)
    sys.stdout.buffer.flush()
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
