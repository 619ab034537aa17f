"""The hot kernels, and the choice of clique search backend.

The pair predicates, ``intersection_size`` and the adjacency build have one
implementation each, in pure Python (``multiekr._kernels_py``). Only the
branch and bound exists twice: a hand-written C extension
(``multiekr._clique_c``) and the pure-Python original. The compiled search
is used when it imports, the pure one otherwise. Both use the same
branching order, so sizes, witnesses and node counts are identical either
way.
"""

from __future__ import annotations

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
    ``lower_bound`` seeds the incumbent size without a witness.

    Returns (best_size, witness_indices, nodes). Raises BudgetError when
    more than ``node_budget`` tree nodes would be expanded.
    """
    if not vectors:
        return 0, [], 0
    adj = _kernels_py.adjacency_bitsets(vectors, k, t)
    return branch_and_bound(adj, node_budget, stop_at, lower_bound)


def backend_name() -> str:
    """Which branch and bound is active: "compiled" or "python"."""
    return BACKEND
