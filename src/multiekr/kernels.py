"""The hot kernels: the pair predicates, the adjacency and the clique search.

Each has one implementation, in pure Python (``multiekr._kernels_py``);
multiset and set families alike go through the same pair predicates.
``max_t_clique`` decides once, by ``_kernels_py._canonical_levels``,
whether the list is the canonical one that the searches pass, and hands
that list's column levels, or None, to ``_kernels_py.adjacency_bitsets``:
a walk of the multiset trie builds the canonical list's rows, the pair
checks any other list's, in one layout. It runs
``_kernels_py.branch_and_bound`` on the rows; a refutation of the
canonical list also prunes by the column orbits of
``_kernels_py.column_orbits``, partitions of the candidate sets refined
from the same levels.
"""

from __future__ import annotations

from . import _kernels_py
from ._kernels_py import (  # noqa: F401 (re-exported: the only copies)
    all_pairs_at_least,
    all_pairs_at_least_in_region,
    column_orbits,
    compatible_with_all,
)

DEFAULT_NODE_BUDGET = 20_000_000


def max_t_clique(
    vectors: list[tuple[int, ...]],
    k: int,
    t: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
    stop_at: int = 0,
    lower_bound: int = 0,
) -> tuple[int, list[int], int]:
    """Exact maximum clique in the t-intersection graph of the vectors.

    Builds the adjacency rows, in the layout that
    ``_kernels_py.adjacency_bitsets`` states, and runs the branch and bound
    on them.
    ``stop_at`` > 0 halts as soon as the incumbent reaches that size;
    ``lower_bound`` seeds the incumbent size without a witness.

    The list is recognised once, here: ``_kernels_py._canonical_levels``
    returns the column levels of ``multiset_vectors(n, s, cap)`` in its own
    order, s >= 1, and None for any other list, which the adjacency build
    then reads pair by pair. When ``lower_bound`` > 0 and the list is
    canonical, and so closed under column permutations, the search also
    prunes by their orbits, built from the same levels, at the nodes that
    ``_kernels_py.branch_and_bound`` states: the size is the same, the
    node count smaller, and a witness (found only when the maximum exceeds
    ``lower_bound``) may differ from the plain search's.

    Returns (best_size, witness_indices, nodes). Raises BudgetError when
    more than ``node_budget`` tree nodes would be expanded, ParameterError
    when an entry exceeds k or is negative and DimensionError when the
    vectors differ in length.
    """
    if not vectors:
        return 0, [], 0
    levels = _kernels_py._canonical_levels(vectors, k)
    adj = _kernels_py.adjacency_bitsets(vectors, k, t, levels)
    orbits = column_orbits(vectors, levels) if lower_bound > 0 and levels is not None else None
    return _kernels_py.branch_and_bound(adj, node_budget, stop_at, lower_bound, orbits)


def backend_name() -> str:
    """Which branch and bound runs: always "python", the only one."""
    return "python"
