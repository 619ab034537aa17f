"""The hot kernels: the pair predicates, the adjacency and the clique search.

Each has one implementation, in pure Python (``multiekr._kernels_py``);
multiset and set families alike go through the same pair predicates.
``max_t_clique`` builds the rows that ``_kernels_py.adjacency_bitsets``
lays out and runs ``_kernels_py.branch_and_bound`` on them.

A refutation (``lower_bound`` > 0) over a vertex list that every column
permutation maps onto itself also prunes by symmetry: a column permutation
preserves sums of minima, so it is an automorphism of the t-intersection
graph, and the search explores one vertex per orbit at depths 0 and 1
(orbital branching, Ostrowski et al. 2011; isomorphism pruning, Margot
2002). ``column_orbits`` checks that closure while it numbers the root
orbits. Its callback ``orbits(fixed, members)`` numbers only the given
members: all vertices at the root, and below a root branch on v the
depth-1 candidates (v's neighbours still in the root candidate set), so a
call costs what that subproblem costs, not what the whole graph costs.
Every other search runs unchanged.
"""

from __future__ import annotations

from collections import Counter
from math import factorial, prod
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence

from . import _kernels_py
from ._kernels_py import (  # noqa: F401 (re-exported: the only copies)
    all_pairs_at_least,
    all_pairs_at_least_in_region,
    compatible_with_all,
)

DEFAULT_NODE_BUDGET = 20_000_000


def column_orbits(
    vectors: list[tuple[int, ...]],
) -> Optional[Callable[[tuple[int, ...], list[int]], Sequence[int]]]:
    """Orbit ids under the column permutations that fix given vertices.

    Returns None unless every column permutation maps the list onto itself:
    the vectors are distinct and each shape (sorted vector) occurs as often
    as it has arrangements, checked in the O(N) pass that numbers the
    shapes. Otherwise returns ``orbits(fixed, members)``, which takes the
    vertices to number as an ascending index list and returns one id per
    member: two members get equal ids exactly when they lie in one orbit of
    the column permutations that fix every vertex in ``fixed``.

    ``orbits((), members)`` gives the shape ids, numbered by first
    appearance in the whole list: every column permutation preserves a
    shape, and on a closed list any two vectors of one shape are a
    permutation apart. The search passes all N vertices there.
    ``orbits((v,), members)`` gives the orbits of the permutations that fix
    v, which are those that keep each class of equal entries of v. One maps
    w to w' exactly when w and w' have the same shape and the same multiset
    of values on every class where v is nonzero, singleton classes
    included; the zero class follows from the shape. The search passes the
    depth-1 candidates below v, and a call is O(|members|·|supp v|). Deeper
    calls raise ValueError: the search prunes orbits at depths 0 and 1 only.
    """
    shapes: dict[tuple[int, ...], int] = {}
    root = tuple(shapes.setdefault(tuple(sorted(w)), len(shapes)) for w in vectors)
    if len(set(vectors)) != len(vectors):
        return None
    counts = Counter(root)
    for shape, sid in shapes.items():
        same = map(factorial, Counter(shape).values())
        if counts[sid] != factorial(len(shape)) // prod(same):
            return None

    def orbits(fixed: tuple[int, ...], members: list[int]) -> Sequence[int]:
        if not fixed:
            return root if len(members) == len(root) else [root[w] for w in members]
        if len(fixed) > 1:
            raise ValueError("column_orbits fixes at most one vertex")
        classes: dict[int, list[int]] = {}
        for c, a in enumerate(vectors[fixed[0]]):
            if a:
                classes.setdefault(a, []).append(c)
        chosen = [vectors[w] for w in members]
        keys: list[Iterable] = [map(root.__getitem__, members)]
        for cols in classes.values():
            values = map(itemgetter(*cols), chosen)
            keys.append(values if len(cols) == 1 else map(tuple, map(sorted, values)))
        ids: dict[tuple, int] = {}
        return [ids.setdefault(key, len(ids)) for key in zip(*keys)]

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

    Returns (best_size, witness_indices, nodes). Raises BudgetError when
    more than ``node_budget`` tree nodes would be expanded.
    """
    if not vectors:
        return 0, [], 0
    adj = _kernels_py.adjacency_bitsets(vectors, k, t)
    orbits = column_orbits(vectors) if lower_bound > 0 else None
    return _kernels_py.branch_and_bound(adj, node_budget, stop_at, lower_bound, orbits)


def backend_name() -> str:
    """Which branch and bound runs: always "python", the only one."""
    return "python"
