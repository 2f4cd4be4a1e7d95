"""Verdict checks by routes independent of the timed computation.

``Verifier.check`` returns None for a correct verdict and a one-line reason
otherwise; it never raises on a bad verdict.  Expensive reference values (a
Bron-Kerbosch maximum, a clique count of a whole grid) are computed once per
call and reused for every pass.  ``corrupt`` makes a deliberately wrong copy
of a verdict, which ``self_check`` uses to show that the checks reject it.
"""

from __future__ import annotations

import json
from math import comb

from weaksep import cliques
from weaksep.cliques import Collection, build_compat_graph, complete_to_maximal, enumerate_maximal_cliques
from weaksep.domains import build_domain_AIJ, circle_partition, rank_formula, reduce_pair, unbalanced_witness
from weaksep.ground import Subset
from weaksep.mutations import SquareMove, apply_square_move
from weaksep.necklaces import length_of
from weaksep.octahedron import p4_counts

from workloads import Call, k_masks


def ambient_rank(i: Subset) -> int:
    m, n = len(i), i.n
    return m * (n - m) + 1


def formula_distance(ctx) -> int:
    """The closed form 1 + k^2 - 2k - sum C(p, 2) on the reduced pair."""
    return 1 + ctx.k * ctx.k - 2 * ctx.k - sum(comb(p, 2) for p in ctx.partition.lengths)


def grid(n: int, k: int) -> Collection:
    return Collection.from_masks(k_masks(n, k), n)


class Verifier:
    def __init__(self) -> None:
        self._memo: dict[tuple, object] = {}

    def _once(self, key: tuple, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def bk_max(self, i: Subset, j: Subset) -> int:
        """Largest weakly separated collection in the pair domain, by enumeration."""
        return self._once(
            ("bk", i.mask, j.mask, i.n),
            # a module attribute, so that a traced run times this enumeration
            lambda: cliques.purity_report(build_domain_AIJ(i, j), "weak").max_size,
        )

    def grid_cliques(self, n: int, k: int) -> int:
        return self._once(("grid", n, k), lambda: len(enumerate_maximal_cliques(build_compat_graph(grid(n, k)))))

    def check(self, call: Call, code: int, out: bytes) -> str | None:
        if code == -1:
            return "raised " + out.decode().strip().splitlines()[-1]
        if code != call.expect_code:
            return f"exit code {code}, expected {call.expect_code}"
        try:
            report = json.loads(out)
        except ValueError:
            return "output is not one JSON document"
        try:
            return getattr(self, "_check_" + call.kind)(call.data, report)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            return f"malformed or inconsistent verdict: {exc!r}"

    def _check_purity(self, data: dict, report: dict) -> str | None:
        i, j = data["i"], data["j"]
        ctx = reduce_pair(i, j)
        top = max(int(size) for size in report["clique_sizes"])
        if report["pure"] != (len(report["clique_sizes"]) == 1) or report["rank"] != (top if report["pure"] else None):
            return "rank and purity disagree with the clique-size census"
        if ctx.balanced:
            if not report["pure"] or report["rank"] != rank_formula(ctx):
                return f"balanced pair: rank {report['rank']}, formula {rank_formula(ctx)}"
        else:
            floor = ambient_rank(i) - formula_distance(ctx)
            if top < floor:
                return f"largest collection {top} below the closed-form floor {floor}"
            if data.get("complementary"):
                bound = unbalanced_witness(i).bound
                if top < bound:
                    return f"largest collection {top} below the witness bound {bound}"
        if data.get("cliques") is not None and report["clique_count"] != data["cliques"]:
            return f"clique count {report['clique_count']}, pinned {data['cliques']}"
        return None

    def _check_lr(self, data: dict, report: dict) -> str | None:
        n = data["n"]
        want = comb(n, 2) + n + 1
        if report["domain_size"] != 2**n or not report["pure"] or report["rank"] != want:
            return f"lr: size {report['domain_size']}, rank {report['rank']}, expected {2**n} and {want}"
        return None

    def _check_chord(self, data: dict, report: dict) -> str | None:
        n = data["n"]
        want = sum(comb(n, t) for t in range(4))
        if report["domain_size"] != 2**n or not report["pure"] or report["rank"] != want:
            return f"chord: size {report['domain_size']}, rank {report['rank']}, expected {2**n} and {want}"
        return None

    def _check_necklace(self, data: dict, report: dict) -> str | None:
        want = length_of(data["perm"], data["k"]).length + 1
        if not report["pure"] or report["rank"] != want:
            return f"necklace domain rank {report['rank']}, length + 1 is {want}"
        return None

    def _check_distance(self, data: dict, report: dict) -> str | None:
        i, j = data["i"], data["j"]
        d = report["d"]
        if report.get("upper_bound_only") or not isinstance(d, int):
            return "exact method returned no exact distance"
        ctx = reduce_pair(i, j)
        formula = formula_distance(ctx)
        if ctx.balanced and d != formula:
            return f"balanced pair: d {d}, formula {formula}"
        if d > formula:
            return f"d {d} above the closed-form bound {formula}"
        if data.get("complementary"):
            ceiling = ambient_rank(i) - unbalanced_witness(i).bound
            if d > ceiling:
                return f"d {d} above the witness ceiling {ceiling}"
        top = self.bk_max(i, j)
        if ambient_rank(i) - d != top:
            return f"d {d} disagrees with the enumerated maximum {top}"
        return None

    def _check_mutdist(self, data: dict, report: dict) -> str | None:
        i, j = data["i"], data["j"]
        d, path = report["distance"], report["path"]
        if not isinstance(d, int) or len(path) != d:
            return f"distance {d!r} with a path of {len(path)} moves"
        reason = replay(i, j, path)
        if reason:
            return reason
        floor = ambient_rank(i) - self.bk_max(i, j)
        if d < floor:
            return f"distance {d} below the cluster distance {floor}"
        if i.mask ^ j.mask == (1 << i.n) - 1 and circle_partition(i).u == 2:
            cuboid = p4_counts(i).cuboid_formula
            if d != cuboid:
                return f"four-run pair: distance {d}, cuboid formula {cuboid}"
        return None

    def _check_budget(self, data: dict, report: dict) -> str | None:
        nodes = report["nodes_explored"]
        if report["distance"] != "budget-exhausted" or report["path"]:
            return "budget call returned a distance"
        if nodes < data["budget"] or nodes != data["nodes"]:
            return f"budget call explored {nodes} nodes, pinned {data['nodes']}"
        return None

    def _check_explore(self, data: dict, report: dict) -> str | None:
        n, k = data["n"], data["k"]
        want = self.grid_cliques(n, k)
        if not report["complete"] or report["nodes"] != want:
            return f"explore: {report['nodes']} nodes, the grid has {want} maximal collections"
        for key in ("nodes", "edges"):
            if key in data and report[key] != data[key]:
                return f"explore: {key} {report[key]}, pinned {data[key]}"
        laws = report.get("projection_laws")
        if laws is not None:
            if not laws["consistent"]:
                return "projection laws inconsistent"
            if laws["moves_checked"] != 2 * report["edges"]:
                return f"{laws['moves_checked']} moves checked for {report['edges']} edges"
        return None


def _square_move(removed: int, added: int, n: int) -> SquareMove | None:
    s = removed & added
    ac, bd = removed & ~s, added & ~s
    if ac.bit_count() != 2 or bd.bit_count() != 2:
        return None
    a, c = Subset(ac, n).elements()
    inner = [x for x in Subset(bd, n).elements() if a < x < c]
    if len(inner) != 1:
        return None
    b = inner[0]
    (d,) = [x for x in Subset(bd, n).elements() if x != b]
    return SquareMove(Subset(s, n), a, b, c, d)


def replay(i: Subset, j: Subset, path: list) -> str | None:
    """Replay a reported path from a maximal collection that holds i.

    The start is the greedy completion of i and every set the path needs
    before it adds it; each step then goes through ``apply_square_move``, and
    the last collection must hold j.
    """
    n = i.n
    moves = []
    for step in path:
        move = _square_move(Subset.of(step["remove"], n).mask, Subset.of(step["add"], n).mask, n)
        if move is None:
            return f"path step {step} is not a square move"
        moves.append(move)
    core, added, removed = {i.mask}, set(), set()
    for m in moves:
        s = m.s.mask
        bit = {x: 1 << (x - 1) for x in (m.a, m.b, m.c, m.d)}
        needed = [m.removed.mask] + [
            s | bit[x] | bit[y] for x, y in ((m.a, m.b), (m.b, m.c), (m.c, m.d), (m.d, m.a))
        ]
        for x in needed:
            if x in removed:
                return "path needs a set it removed earlier"
            if x not in added:
                core.add(x)
        removed.add(m.removed.mask)
        added.discard(m.removed.mask)
        added.add(m.added.mask)
        removed.discard(m.added.mask)
    try:
        current = complete_to_maximal(Collection.from_masks(core, n), grid(n, len(i)))
        for m in moves:
            current = apply_square_move(current, m)
    except ValueError as exc:
        return f"path does not replay: {exc}"
    if j not in current:
        return "replayed path does not reach a collection holding j"
    return None


def corrupt(call: Call, out: bytes) -> bytes | None:
    """A wrong verdict for a self-check, or None if this verdict offers none."""
    report = json.loads(out)
    kind = call.kind
    if kind in ("purity", "lr", "chord", "necklace"):
        if report["rank"] is None:
            return None
        report["rank"] += 1
    elif kind == "distance":
        report["d"] += 1
    elif kind == "mutdist":
        if not report["path"]:
            return None
        report["path"] = report["path"][:-1]
        report["distance"] -= 1
    elif kind == "budget":
        report["nodes_explored"] -= 1
    elif kind == "explore":
        report["nodes"] += 1
    return json.dumps(report).encode()


def self_check(verifier: Verifier, calls: list[Call], outputs: dict[int, tuple[int, bytes]]) -> tuple[int, int]:
    """Corrupt one verdict of every kind and count how many the checks reject."""
    tried = rejected = 0
    done: set[str] = set()
    for idx, call in enumerate(calls):
        if call.kind in done or idx not in outputs:
            continue
        code, out = outputs[idx]
        if verifier.check(call, code, out) is not None:
            continue
        bad = corrupt(call, out)
        if bad is None:
            continue
        done.add(call.kind)
        tried += 1
        rejected += verifier.check(call, code, bad) is not None
    return tried, rejected
