"""Seeded instance generation for the three benchmark workloads.

Every workload is a list of ``Call`` records, one timed call each.  A call is
either a CLI verb (``argv``, run in-process through ``weaksep.cli.run``) or,
for the necklace domains that no verb exposes, a library call.  The seed picks
the sampled part of each workload; the exhaustive part is fixed.  Sampled
populations are stratified, one seeded member per symmetry orbit or run shape,
so that the work of a pass hardly depends on the seed while the concrete sets
do.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field

from weaksep import cliques, necklaces
from weaksep.domains import build_domain_AIJ, circle_partition
from weaksep.ground import Subset, is_weakly_separated
from weaksep.necklaces import DecoratedPermutation, necklace_from_perm

# the four-run pair (3,2,2,3) at n = 10 whose seeding overshoots the budget
BUDGET_PAIR = ((1, 2, 3, 6, 7), 10)
BUDGET = 20000
# n = 12 complementary shapes are kept while their domain has at most this many sets
N12_MAX_DOMAIN = 100
# non-complementary distance pairs are kept while their domain has at most this
# many sets, which keeps them below 10 ms and so out of the slow tail that
# call_p90_ms reads; 20 per n put that percentile among the denser 30 ms calls
NONCOMP_MAX_DOMAIN = 36
NONCOMP_PER_N = 20
NECKLACES = ((7, 8), (8, 8))  # (n, how many) seeded connected necklaces
# (n, k, seeded members per dihedral orbit) of the move-distance pairs
MUTDIST_ORBITS = ((7, 3, 3), (8, 4, 1))


@dataclass
class Call:
    """One timed call: a CLI argv, or a library necklace call when ``argv`` is None."""

    kind: str
    argv: list[str] | None
    data: dict = field(default_factory=dict)
    expect_code: int = 0


def fmt(s: Subset) -> str:
    return ",".join(map(str, s.elements()))


def k_masks(n: int, k: int) -> list[int]:
    return [sum(1 << b for b in combo) for combo in itertools.combinations(range(n), k)]


def dihedral(mask: int, n: int, r: int, reflect: bool) -> int:
    """Image of a mask under rotation by r and an optional reflection x -> n+1-x."""
    full = (1 << n) - 1
    x = ((mask << r) | (mask >> (n - r))) & full if r else mask
    return int(format(x, f"0{n}b")[::-1], 2) if reflect else x


def random_symmetry(rng: random.Random, n: int) -> tuple[int, bool]:
    return rng.randrange(n), rng.random() < 0.5


def canonical_shape(lengths) -> tuple[int, ...]:
    """Least rotation or reflection of a cyclic run-length sequence."""
    seq = list(lengths)
    return min(
        tuple(s[r:] + s[:r]) for s in (seq, seq[::-1]) for r in range(len(seq))
    )


def complement_classes(n: int) -> list[Subset]:
    """One half-size set per complement class whose pair is not weakly separated.

    The representative is the member of the class that contains 1.
    """
    out = []
    for m in k_masks(n, n // 2):
        if m & 1 and circle_partition(Subset(m, n)).u >= 2:
            out.append(Subset(m, n))
    return out


def pair_call(kind: str, verb: str, i: Subset, j: Subset, *extra: str, expect_code: int = 0, **data) -> Call:
    argv = [verb, "--n", str(i.n), "--i", fmt(i), "--j", fmt(j), *extra]
    return Call(kind, argv, {"i": i, "j": j, **data}, expect_code)


def necklace_call(perm: DecoratedPermutation, k: int) -> Call:
    return Call("necklace", None, {"perm": perm, "k": k, "necklace": necklace_from_perm(perm, k)})


def run_library_call(call: Call) -> bytes:
    """The necklace route: inside domain of the necklace, then its purity report."""
    # module attributes, so that a traced run sees both layer boundaries
    report = cliques.purity_report(necklaces.domain_in_for_necklace(call.data["necklace"]), "weak")
    return (json.dumps(report.to_json(), sort_keys=True, separators=(",", ":")) + "\n").encode()


def seeded_necklace(rng: random.Random, n: int) -> tuple[DecoratedPermutation, int]:
    """A uniformly drawn derangement whose necklace is connected."""
    while True:
        images = list(range(1, n + 1))
        rng.shuffle(images)
        if any(images[t] == t + 1 for t in range(n)):
            continue
        perm = DecoratedPermutation.make(images)
        inv = perm.inverse_images()
        k = sum(1 for x in range(1, n + 1) if x < inv[x - 1])
        try:
            nk = necklace_from_perm(perm, k)
        except ValueError:
            continue
        if nk.connected:
            return perm, k


def n12_shape_sample(rng: random.Random) -> list[Subset]:
    """One seeded complement class of every n = 12 shape with a small domain."""
    n = 12
    by_shape: dict[tuple[int, ...], list[Subset]] = {}
    for a in complement_classes(n):
        by_shape.setdefault(canonical_shape(circle_partition(a).lengths), []).append(a)
    out = []
    for shape in sorted(by_shape):
        members = by_shape[shape]
        a = members[0]
        if len(build_domain_AIJ(a, a.complement())) <= N12_MAX_DOMAIN:
            out.append(rng.choice(members))
    return out


def purity_calls(rng: random.Random) -> list[Call]:
    calls = [
        pair_call("purity", "purity", a, a.complement(), complementary=True)
        for a in complement_classes(10)
    ]
    for a in n12_shape_sample(rng):
        pinned = 73984 if canonical_shape(circle_partition(a).lengths) == (3, 3, 3, 3) else None
        calls.append(pair_call("purity", "purity", a, a.complement(), complementary=True, cliques=pinned))
    calls.append(Call("lr", ["lr", "--n", "6"], {"n": 6}))
    calls.append(Call("chord", ["chord", "--n", "5"], {"n": 5}))
    for n, count in NECKLACES:
        for _ in range(count):
            calls.append(necklace_call(*seeded_necklace(rng, n)))
    return calls


def noncomp_pairs(rng: random.Random, n: int, count: int) -> list[tuple[Subset, Subset]]:
    """Seeded non-separated pairs that are not complementary, with a small domain."""
    full = (1 << n) - 1
    out = []
    while len(out) < count:
        m = rng.randint(2, n - 2)
        i = Subset.of(rng.sample(range(1, n + 1), m), n)
        j = Subset.of(rng.sample(range(1, n + 1), m), n)
        if is_weakly_separated(i, j) or (i.mask ^ j.mask) == full:
            continue
        if len(build_domain_AIJ(i, j)) <= NONCOMP_MAX_DOMAIN:
            out.append((i, j))
    return out


def distance_calls(rng: random.Random) -> list[Call]:
    calls = [
        pair_call("distance", "distance", a, a.complement(), "--method", "exact", complementary=True)
        for a in complement_classes(10)
    ]
    for n in (7, 8, 9, 10):
        for i, j in noncomp_pairs(rng, n, NONCOMP_PER_N):
            calls.append(pair_call("distance", "distance", i, j, "--method", "exact", complementary=False))
    return calls


def pair_orbits(n: int, k: int) -> list[list[tuple[int, int]]]:
    """Non-separated pairs of k-subsets of [n], grouped into dihedral orbits."""
    seen: set[tuple[int, int]] = set()
    orbits = []
    for a, b in itertools.combinations(sorted(k_masks(n, k)), 2):
        if (a, b) in seen or is_weakly_separated(Subset(a, n), Subset(b, n)):
            continue
        orbit = set()
        for r in range(n):
            for reflect in (False, True):
                x, y = dihedral(a, n, r, reflect), dihedral(b, n, r, reflect)
                orbit.add((min(x, y), max(x, y)))
        seen |= orbit
        orbits.append(sorted(orbit))
    return orbits


def seeded_member(rng: random.Random, orbit: list[tuple[int, int]], n: int) -> tuple[Subset, Subset]:
    a, b = rng.choice(orbit)
    if rng.random() < 0.5:
        a, b = b, a
    return Subset(a, n), Subset(b, n)


def moves_calls(rng: random.Random) -> list[Call]:
    calls = []
    for n, k, reps in MUTDIST_ORBITS:
        for orbit in pair_orbits(n, k):
            # complementary orbits, the slowest searches, get one more member, so
            # that the calls beyond call_p90_ms are the fixed heavy ones
            complementary = orbit[0][0] ^ orbit[0][1] == (1 << n) - 1
            for _ in range(reps + complementary):
                i, j = seeded_member(rng, orbit, n)
                calls.append(pair_call("mutdist", "mutdist", i, j, "--big"))
    calls.append(Call("explore", ["explore", "--n", "8", "--k", "4"], {"n": 8, "k": 4, "nodes": 5470, "edges": 18960}))
    calls.append(Call("explore", ["explore", "--n", "7", "--k", "3", "--split", "2,2,2,1"], {"n": 7, "k": 3}))
    elements, n = BUDGET_PAIR
    r, reflect = random_symmetry(rng, n)
    i = Subset(dihedral(Subset.of(elements, n).mask, n, r, reflect), n)
    calls.append(
        pair_call(
            "budget", "mutdist", i, i.complement(), "--big", "--budget", str(BUDGET),
            expect_code=3, budget=BUDGET, nodes=488074,
        )
    )
    return calls


WORKLOADS = {"purity": purity_calls, "distance": distance_calls, "moves": moves_calls}

# tiny calls of each verb, run once before timing so that lazy imports and
# first-use costs do not land on the first timed call
WARMUP = {
    "purity": [
        ["purity", "--n", "6", "--i", "1,2,4", "--j", "3,5,6"],
        ["lr", "--n", "3"],
        ["chord", "--n", "3"],
    ],
    "distance": [["distance", "--n", "6", "--i", "1,2,4", "--j", "3,5,6"]],
    "moves": [
        ["mutdist", "--n", "6", "--i", "1,2,4", "--j", "3,5,6"],
        ["explore", "--n", "5", "--k", "2"],
        ["explore", "--n", "6", "--k", "3", "--split", "2,2,1,1"],
    ],
}


def build(workload: str, seed: int) -> list[Call]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
