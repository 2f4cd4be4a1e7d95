"""Weakly separated collections over the cyclic ground set [n].

Separation predicates, pure-domain verification by exact clique search,
circle partitions with closed-form ranks and cluster distances, necklaces and
decorated permutations, square-move mutation graphs, and the four-interval
lattice projection.
"""

from .cliques import (
    Collection,
    CompatGraph,
    NotMaximal,
    build_compat_graph,
    complete_to_maximal,
    enumerate_maximal_cliques,
    max_clique_size,
    purity_report,
)
from .domains import (
    ChainNotFound,
    boundary_intervals,
    build_domain_AIJ,
    chord_chain,
    circle_partition,
    cluster_distance,
    is_balanced,
    lr_chain,
    lr_domain,
    rank_formula,
    reduce_pair,
    unbalanced_witness,
)
from .ground import (
    GroundSetMismatch,
    Subset,
    cyclic_interval,
    cyclically_ordered,
    gale_leq,
    is_chord_separated,
    is_cyclic_interval,
    is_weakly_separated,
    surrounds,
)
from .mutations import (
    BigInstance,
    SquareMove,
    apply_square_move,
    explore_mutation_graph,
    find_square_moves,
    mutation_distance,
)
from .necklaces import (
    DecoratedPermutation,
    GrassmannNecklace,
    block_reversal_permutation,
    canonical_permutation,
    domain_in_for_necklace,
    length_of,
    necklace_from_perm,
    perm_from_necklace,
    positroid_contains,
    tau_kn,
)
from .octahedron import (
    check_no_interior,
    move_projection_effect,
    normalize_p4,
    p4_counts,
    phi,
    phi_subset,
)

__version__ = "0.1.0"
