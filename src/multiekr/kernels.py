"""The hot kernels, and the choice of clique search backend.

The pair predicates, ``intersection_size`` and the adjacency build have one
implementation each, in pure Python (``multiekr._kernels_py``). Only the
branch and bound exists twice: a hand-written C extension
(``multiekr._clique_c``) and the pure-Python original. The compiled search
is used when it imports, the pure one otherwise. Both use the same
branching order, so sizes, witnesses and node counts are identical either
way.

A refutation (``lower_bound`` > 0) over a vertex list that every column
permutation maps onto itself also prunes by symmetry: a column permutation
preserves sums of minima, so it is an automorphism of the t-intersection
graph, and the search explores one vertex per orbit at depths 0 and 1
(orbital branching, Ostrowski et al. 2011; isomorphism pruning, Margot
2002). Every other search runs unchanged.
"""

from __future__ import annotations

from collections import Counter
from math import comb
from typing import Callable

from . import _kernels_py
from ._kernels_py import (  # noqa: F401 (re-exported: the only copies)
    all_pairs_at_least,
    all_pairs_at_least_in_region,
    compatible_with_all,
    intersection_size,
)

DEFAULT_NODE_BUDGET = 20_000_000

try:
    from ._clique_c import branch_and_bound
except ImportError:
    branch_and_bound = _kernels_py.branch_and_bound

BACKEND: str = (
    "python" if branch_and_bound is _kernels_py.branch_and_bound else "compiled"
)


def column_closed(vectors: list[tuple[int, ...]]) -> bool:
    """True when every column permutation maps the vector list onto itself.

    O(N): the vectors are distinct, and each shape (sorted multiplicity
    vector) occurs exactly as often as it has distinct arrangements.
    """
    if len(set(vectors)) != len(vectors):
        return False
    for shape, count in Counter(tuple(sorted(v)) for v in vectors).items():
        arrangements, left = 1, len(shape)
        for same in Counter(shape).values():
            arrangements *= comb(left, same)
            left -= same
        if count != arrangements:
            return False
    return True


def column_orbits(
    vectors: list[tuple[int, ...]],
) -> Callable[[tuple[int, ...]], list[int]]:
    """Orbit ids under the column permutations that fix given vertices.

    ``orbits(fixed)`` groups the columns by their values on the vertices in
    ``fixed``; a permutation fixes them all exactly when it maps each group
    onto itself. Sorting a vector's values within each group gives the one
    member of its orbit that is sorted there, and the id is that member's
    index. At the root (``fixed == ()``) the orbit is the vector's shape.
    Valid only for a column-closed list, which holds every such member.
    O(N) per call.
    """
    index = {vec: i for i, vec in enumerate(vectors)}
    columns = range(len(vectors[0]) if vectors else 0)

    def orbits(fixed: tuple[int, ...]) -> list[int]:
        groups: dict[tuple[int, ...], list[int]] = {}
        for c in columns:
            groups.setdefault(tuple(vectors[v][c] for v in fixed), []).append(c)
        movable = [group for group in groups.values() if len(group) > 1]
        out = []
        for w in vectors:
            sorted_w = list(w)
            for group in movable:
                for c, x in zip(group, sorted([w[c] for c in group])):
                    sorted_w[c] = x
            out.append(index[tuple(sorted_w)])
        return out

    return orbits


def max_t_clique(
    vectors: list[tuple[int, ...]],
    k: int,
    t: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
    stop_at: int = 0,
    lower_bound: int = 0,
) -> tuple[int, list[int], int]:
    """Exact maximum clique in the t-intersection graph of the vectors.

    Builds the adjacency and runs the active backend's branch and bound.
    ``stop_at`` > 0 halts as soon as the incumbent reaches that size;
    ``lower_bound`` seeds the incumbent size without a witness. When
    ``lower_bound`` > 0 and the list is closed under column permutations,
    the search prunes column-permutation orbits at depths 0 and 1: the size
    is the same, the node count smaller, and a witness (found only when the
    maximum exceeds ``lower_bound``) may differ from the plain search's.

    Returns (best_size, witness_indices, nodes). Raises BudgetError when
    more than ``node_budget`` tree nodes would be expanded.
    """
    if not vectors:
        return 0, [], 0
    adj = _kernels_py.adjacency_bitsets(vectors, k, t)
    orbits = None
    if lower_bound > 0 and column_closed(vectors):
        orbits = column_orbits(vectors)
    return branch_and_bound(adj, node_budget, stop_at, lower_bound, orbits)


def backend_name() -> str:
    """Which branch and bound is active: "compiled" or "python"."""
    return BACKEND
