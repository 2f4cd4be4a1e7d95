"""Input checks that the rest of the suite never trips: each raises its own
exception type with its own message, and the pattern check answers False or
True on the shapes that only it decides.  The pattern checks are lemma helpers
from ``_lemmas``; the rest are the library's."""

import pytest
from _lemmas import SimpleCyclicPattern, is_generalized_cyclic_pattern

from weaksep import (
    Collection,
    DecoratedPermutation,
    GrassmannNecklace,
    GroundSetMismatch,
    NotMaximal,
    Subset,
    chord_chain,
    cluster_distance,
    complete_to_maximal,
    explore_mutation_graph,
    find_square_moves,
    lr_chain,
    lr_domain,
    necklace_from_perm,
    positroid_contains,
    tau_kn,
)


def sub(elems, n):
    return Subset.of(elems, n)


def seq(n, *sets):
    return tuple(sub(s, n) for s in sets)


# a unit-step cycle over [4] through the crossing pair {1,3}, {2,4}
CROSSING_CYCLE = seq(4, [1, 3], [1, 2, 3], [1, 2, 3, 4], [1, 2, 4], [2, 4], [2], [], [3])

CASES = [
    (
        lambda: Collection([]),
        ValueError,
        "empty collection needs an explicit ground size; use Collection.from_masks([], n)",
    ),
    (lambda: Collection.from_masks([8], 3), ValueError, "mask 0x8 has bits outside [1, 3]"),
    (
        lambda: complete_to_maximal(Collection.from_masks([1], 3), Collection.from_masks([1], 4)),
        GroundSetMismatch,
        "ground sets differ: [3] vs [4]",
    ),
    (lambda: cluster_distance(sub([1, 3], 4), sub([2, 4], 4), "nope"), ValueError, "unknown method 'nope'"),
    (lambda: lr_domain(0), ValueError, "need n >= 1, got 0"),
    (lambda: lr_chain(lr_domain(3), 4), GroundSetMismatch, "expected a collection over [5], got [4]"),
    (
        lambda: chord_chain(Collection.from_masks(range(8), 3), sub([], 4), sub([2], 3)),
        GroundSetMismatch,
        "chain endpoints live on a different ground set",
    ),
    (
        lambda: find_square_moves(Collection.from_masks([1, 3], 3)),
        ValueError,
        "collection mixes cardinalities; square moves need one grid",
    ),
    (
        lambda: find_square_moves(Collection.from_masks([], 4)),
        NotMaximal,
        "the empty collection is not maximal",
    ),
    (
        lambda: explore_mutation_graph(Collection.from_masks([], 5)),
        NotMaximal,
        "the empty collection is not maximal",
    ),
    (lambda: tau_kn(5, 4), ValueError, "need n >= 1 and 0 <= k <= n, got k=5, n=4"),
    (lambda: DecoratedPermutation.make([1, 2], {1: 2, 2: 1}), ValueError, "colors must be +1 or -1"),
    (lambda: GrassmannNecklace(()), ValueError, "necklace needs at least one set"),
    (
        lambda: GrassmannNecklace(seq(3, [1], [2])),
        GroundSetMismatch,
        "necklace of length 2 holds subsets of [3]",
    ),
    (
        lambda: GrassmannNecklace(seq(2, [1], [1, 2])),
        ValueError,
        "necklace sets must share one cardinality",
    ),
    (
        lambda: GrassmannNecklace(seq(2, [2], [1])),
        ValueError,
        "transition 1: set must repeat when 1 is absent",
    ),
    (
        lambda: GrassmannNecklace(seq(3, [1, 2], [2, 3], [1, 2])),
        ValueError,
        "transition 2: must remove 2 and add one element",
    ),
    (
        lambda: positroid_contains(necklace_from_perm(tau_kn(1, 3), 1), sub([1], 4)),
        GroundSetMismatch,
        "subset of [4] against a necklace over [3]",
    ),
    (lambda: SimpleCyclicPattern(seq(3, [1])), ValueError, "pattern needs at least two sets"),
    (lambda: SimpleCyclicPattern(seq(3, [1], [1])), ValueError, "pattern sets must be pairwise distinct"),
    (
        lambda: SimpleCyclicPattern(seq(3, [1], [2])),
        ValueError,
        "step 0: symmetric difference must have one element",
    ),
    (
        lambda: SimpleCyclicPattern((sub([1], 3), sub([1, 2], 4))),
        GroundSetMismatch,
        "pattern mixes ground sets",
    ),
    pytest.param(
        # one mask over two ground sets is a ground mismatch, not a repeated set
        lambda: SimpleCyclicPattern((Subset(1, 3), Subset(1, 4))),
        GroundSetMismatch,
        "pattern mixes ground sets",
        id="pattern of one mask over two ground sets",
    ),
    (lambda: SimpleCyclicPattern(CROSSING_CYCLE), ValueError, "pattern is not weakly separated"),
]


@pytest.mark.parametrize("call, exc, message", CASES)
def test_input_check_raises(call, exc, message):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is exc
    assert str(info.value) == message


BOUNDARY_4_2 = [[1, 2], [2, 3], [3, 4], [1, 4]]


@pytest.mark.parametrize(
    "sets, expected",
    [
        (seq(4, [1, 2]), False),
        (seq(4, [1, 2], [2, 3], [1, 2], [2, 3]), False),
        (seq(4, [1, 2], [1, 3], [3, 4]), False),
        (seq(4, *BOUNDARY_4_2, [1, 2]), True),
    ],
    ids=["one-set", "duplicates", "step-four", "closing-repeat"],
)
def test_generalized_cyclic_pattern_shapes(sets, expected):
    assert is_generalized_cyclic_pattern(sets) is expected
