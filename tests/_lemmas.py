"""Helpers of the paper's lemma checks that the library itself never calls.

Subsets of [0, n] are carried on the ground set [n + 1] via x -> x + 1, as
``weaksep.lr_domain`` carries them; these two convert 0-based labels to such
subsets and back.
"""

from weaksep import Subset


def lr_subset(labels, n: int) -> Subset:
    """Subset of [0, n] given by 0-based labels, embedded in the ground set [n+1]."""
    return Subset.of((x + 1 for x in labels), n + 1)


def lr_labels(s: Subset) -> tuple[int, ...]:
    return tuple(x - 1 for x in s.elements())
