"""The hot kernels: the pair predicates, the adjacency and the clique search.

Each has one implementation, in pure Python (``multiekr._kernels_py``);
multiset and set families alike go through the same pair predicates.
``max_t_clique`` builds the rows that ``_kernels_py.adjacency_bitsets``
lays out and runs ``_kernels_py.branch_and_bound`` on them; a refutation
also prunes by the column orbits of ``_kernels_py.column_orbits``, and
reads the list's column levels once for both. The canonical list that the
searches pass has its rows built by a walk of its multiset trie, any other
list by the prefix-sharing pass; the rows and their layout are the same
either way.
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
    ``lower_bound`` seeds the incumbent size without a witness. When
    ``lower_bound`` > 0 and :func:`column_orbits` finds the list closed
    under column permutations, the search prunes their orbits at depths 0
    and 1: the size is the same, the node count smaller, and a witness
    (found only when the maximum exceeds ``lower_bound``) may differ from
    the plain search's.

    A refutation (``lower_bound`` > 0) reads the list's column levels once,
    here, and passes them to both the adjacency build and the column
    orbits; a list whose entries do not fit in a byte has no levels, and
    its refutation no orbit pruning. Any other search leaves the levels to
    the adjacency build, which reads them only for the canonical list of
    s-multisets, s >= 2, so a find on 1-multisets never reads them.

    Returns (best_size, witness_indices, nodes). Raises BudgetError when
    more than ``node_budget`` tree nodes would be expanded, ParameterError
    when an entry exceeds k and DimensionError when the vectors differ in
    length.
    """
    if not vectors:
        return 0, [], 0
    levels = _kernels_py._column_levels(vectors, k) if lower_bound > 0 else None
    adj = _kernels_py.adjacency_bitsets(vectors, k, t, levels)
    orbits = column_orbits(vectors, levels) if levels is not None else None
    return _kernels_py.branch_and_bound(adj, node_budget, stop_at, lower_bound, orbits)


def backend_name() -> str:
    """Which branch and bound runs: always "python", the only one."""
    return "python"
