"""Exact maximum t-intersecting family search and extremal constructions.

The maximum search is an exact branch-and-bound over the canonical multiset
order (a maximum-clique search in the t-intersection graph). An independent
oracle — Bron–Kerbosch over maximal cliques with Tomita pivoting, and no
size bound — is kept alongside for cross-checking at small instance sizes;
it never shares the pruned path's machinery beyond the definition of
intersection itself.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Optional

from . import kernels
from .bounds import multiset_bound, multiset_bound_proven, ak
from .compression import down_compress, is_stable
from .core import (
    Family,
    Multiset,
    count_multisets,
    enumerate_multisets,
    first_row,
    intersection_size,
    is_t_intersecting,
    is_t_kernel,
)
from .errors import (
    BudgetError,
    CertificationError,
    DimensionError,
    ParameterError,
    PreconditionError,
)

DEFAULT_VERTEX_BUDGET = 4000
DEFAULT_NODE_BUDGET = kernels.DEFAULT_NODE_BUDGET
ORACLE_VERTEX_LIMIT = 70


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one exact maximum search."""

    n: int
    k: int
    t: int
    cap: Optional[int]
    max_size: int
    witness: Family
    method: str
    nodes_explored: int
    elapsed: float

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "t": self.t,
            "cap": self.cap,
            "max_size": self.max_size,
            "method": self.method,
            "nodes_explored": self.nodes_explored,
            "witness": [list(m.mult) for m in self.witness],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _oracle_max_clique(
    vectors: list[tuple[int, ...]], t: int, node_budget: int
) -> tuple[int, list[int], int]:
    """Largest maximal clique, by Bron–Kerbosch with Tomita pivoting.

    Every maximal t-intersecting subfamily is reported once and the first
    largest one wins; no size bound prunes anything. The graph is built
    from the definition alone: the sum of minima runs over the nonzero
    columns of one side of each pair, since min(0, b) = 0.
    """
    nv = len(vectors)
    supports = [[(c, a) for c, a in enumerate(v) if a] for v in vectors]
    neighbors = [0] * nv
    for i in range(nv):
        si = supports[i]
        for j in range(i + 1, nv):
            vj = vectors[j]
            if sum(min(a, vj[c]) for c, a in si) >= t:
                neighbors[i] |= 1 << j
                neighbors[j] |= 1 << i
    state = [0, [], 0]  # best_size, best, nodes

    def visit(cur: list[int], cand: int, excl: int) -> None:
        state[2] += 1
        if state[2] > node_budget:
            raise BudgetError(f"oracle exceeded node budget {node_budget}")
        if not cand:
            if not excl and len(cur) > state[0]:
                state[0] = len(cur)
                state[1] = cur.copy()
            return
        # pivot: the first vertex of cand | excl with most neighbours in cand
        pivot_degree = -1
        rest = cand | excl
        while rest:
            low = rest & -rest
            rest ^= low
            u = low.bit_length() - 1
            degree = (cand & neighbors[u]).bit_count()
            if degree > pivot_degree:
                pivot_degree, pivot = degree, u
        branch = cand & ~neighbors[pivot]
        while branch:
            low = branch & -branch
            branch ^= low
            v = low.bit_length() - 1
            cur.append(v)
            visit(cur, cand & neighbors[v], excl & neighbors[v])
            cur.pop()
            cand ^= low
            excl |= low

    import sys

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 2 * nv + 200))
    try:
        visit([], (1 << nv) - 1, 0)
    finally:
        sys.setrecursionlimit(old_limit)
        del visit  # it refers to itself; without this the graph waits for gc
    return state[0], sorted(state[1]), state[2]


def max_t_intersecting(
    n: int,
    k: int,
    t: int,
    cap: Optional[int] = None,
    *,
    budget_vertices: int = DEFAULT_VERTEX_BUDGET,
    budget_nodes: int = DEFAULT_NODE_BUDGET,
    method: str = "pruned",
) -> SearchResult:
    """Exact maximum size of a t-intersecting family of k-multisets of [n].

    ``method`` selects the engine: "pruned" is the branch-and-bound with
    candidate-count and coloring bounds (plus, for n >= 2k-t, early stop at
    the proven AK bound, which cannot change the exact result); "oracle" is
    the independent cross-check, the largest maximal clique by pivoted
    Bron–Kerbosch. Budgets are hard: exceeding the vertex or node budget
    raises BudgetError rather than degrading.
    """
    if not 1 <= t <= k:
        raise ParameterError(f"need 1 <= t <= k, got t={t}, k={k}")
    if n < 1:
        raise ParameterError("need n >= 1")
    if method not in ("pruned", "oracle"):
        raise ParameterError(f"unknown method {method!r}")
    n_vertices = count_multisets(n, k, cap)
    if n_vertices > budget_vertices:
        raise BudgetError(
            f"instance has {n_vertices} vertices, over the budget "
            f"{budget_vertices}"
        )
    vectors = [m.mult for m in enumerate_multisets(n, k, cap)]
    started = time.perf_counter()

    if method == "oracle":
        size, indices, nodes = _oracle_max_clique(vectors, t, budget_nodes)
    else:
        stop_at = 0
        if multiset_bound_proven(n, k, t):
            stop_at = multiset_bound(n, k, t)
        size, indices, nodes = kernels.max_t_clique(
            vectors, k, t, node_budget=budget_nodes, stop_at=stop_at
        )
    elapsed = time.perf_counter() - started
    witness = Family(
        [vectors[idx] for idx in indices], n=n, k=k, height_cap=cap
    )
    result = SearchResult(
        n=n,
        k=k,
        t=t,
        cap=cap,
        max_size=size,
        witness=witness,
        method=method,
        nodes_explored=nodes,
        elapsed=elapsed,
    )
    if len(witness) != size or not is_t_intersecting(witness, t):
        raise CertificationError("search produced an inconsistent witness")
    return result


# --------------------------------------------------------------------------
# constructions


def build_star_multiset_family(
    n: int, k: int, t: int, center: Multiset
) -> Family:
    """All k-multisets of [n] that contain the fixed t-multiset ``center``."""
    if center.n != n:
        raise DimensionError(f"center has n={center.n}, expected {n}")
    if center.k != t:
        raise ParameterError(f"center has cardinality {center.k}, expected t={t}")
    if not 0 <= t <= k:
        raise ParameterError(f"need 0 <= t <= k, got t={t}, k={k}")
    members = []
    for extra in enumerate_multisets(n, k - t):
        members.append(tuple(a + b for a, b in zip(center.mult, extra.mult)))
    return Family(members, n=n, k=k)


def build_kernel_family(n: int, k: int, region: Multiset, r: int) -> Family:
    """All k-multisets F of [n] with |F cap region| >= r.

    Any two members meet inside the region in at least 2r - |region|
    elements, so the family is (2r - |region|)-intersecting by
    construction.
    """
    if region.n != n:
        raise DimensionError(f"region has n={region.n}, expected {n}")
    if not 0 <= r <= region.k:
        raise ParameterError(f"need 0 <= r <= |region|, got r={r}")
    if region.k > k:
        raise ParameterError(
            f"region cardinality {region.k} exceeds member cardinality {k}"
        )
    members = [
        m.mult
        for m in enumerate_multisets(n, k)
        if kernels.intersection_size(m.mult, region.mult) >= r
    ]
    return Family(members, n=n, k=k)


@dataclass(frozen=True)
class SetFamily:
    """Duplicate-free k-subsets of {1, ..., n_ground}, canonically sorted."""

    n_ground: int
    members: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen = set()
        size = None
        for member in self.members:
            if list(member) != sorted(set(member)):
                raise ParameterError(f"member {member!r} is not a sorted set")
            if member and (member[0] < 1 or member[-1] > self.n_ground):
                raise ParameterError(f"member {member!r} leaves the ground set")
            if size is None:
                size = len(member)
            elif len(member) != size:
                raise ParameterError("members have mixed sizes")
            seen.add(member)
        object.__setattr__(self, "members", tuple(sorted(seen)))

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def member_size(self) -> int:
        return len(self.members[0]) if self.members else 0

    def is_t_intersecting(self, t: int) -> bool:
        sets = [set(m) for m in self.members]
        for i in range(len(sets)):
            for j in range(i, len(sets)):
                if len(sets[i] & sets[j]) < t:
                    return False
        return True


def build_ak_set_family(n_ground: int, k: int, t: int, i: int) -> SetFamily:
    """A(n_ground, k, t, i) by direct enumeration of k-subsets."""
    if not 0 <= t <= k <= n_ground:
        raise ParameterError(f"need 0 <= t <= k <= N, got {(n_ground, k, t)}")
    if i < 0 or t + 2 * i > n_ground or t + i > k:
        raise ParameterError(f"index i={i} out of range for {(n_ground, k, t)}")
    window = t + 2 * i
    need = t + i
    members = [
        combo
        for combo in combinations(range(1, n_ground + 1), k)
        if sum(1 for x in combo if x <= window) >= need
    ]
    return SetFamily(n_ground, tuple(members))


def build_optimal_multiset_family(n: int, k: int, t: int) -> Family:
    """A t-intersecting family of k-multisets meeting the AK bound.

    Realized as a support threshold: take every k-multiset whose support
    meets the first t + 2*i_star columns in at least t + i_star places,
    where i_star is the maximizing index of the bound. The result is
    certified at runtime — t-intersection is rechecked and the size must
    equal multiset_bound(n, k, t); a CertificationError means the
    realization is wrong at this instance, never that the bound is.
    """
    if not 1 <= t <= k:
        raise ParameterError(f"need 1 <= t <= k, got t={t}, k={k}")
    if n < 2 * k - t:
        raise PreconditionError(
            f"construction needs n >= 2k - t; got n={n}, k={k}, t={t}"
        )
    value, i_star = ak(n + k - 1, k, t)
    window = t + 2 * i_star
    need = t + i_star
    if window > n:
        raise PreconditionError(
            f"support window t + 2*i_star = {window} exceeds n = {n}"
        )
    members = [
        m.mult
        for m in enumerate_multisets(n, k)
        if sum(1 for v in m.mult[:window] if v > 0) >= need
    ]
    family = Family(members, n=n, k=k)
    if not is_t_intersecting(family, t):
        raise CertificationError(
            f"support-threshold family is not {t}-intersecting at {(n, k, t)}"
        )
    if len(family) != value:
        raise CertificationError(
            f"support-threshold family has size {len(family)}, expected the "
            f"bound {value} at {(n, k, t)}"
        )
    return family


# --------------------------------------------------------------------------
# lifting multiset families to set families


def lift_to_sets(family: Family, t: int) -> SetFamily:
    """Expand a first-row-kernel family into sets on n + k - 1 points.

    Each member contributes its support G (an s-subset of the first n
    points) united with every (k-s)-subset of the k-1 extra points. The
    result is t-intersecting and its size is sum_s |G_s| * C(k-1, k-s),
    which is at least the input size.
    """
    n, k = family.n, family.k
    if not is_t_kernel(family, first_row(n), t):
        raise PreconditionError("the first row is not a t-kernel of the family")
    supports: dict[int, set[tuple[int, ...]]] = {}
    for member in family:
        sup = tuple(sorted(member.support()))
        supports.setdefault(len(sup), set()).add(sup)
    extras = range(n + 1, n + k)
    members = []
    for s, group in supports.items():
        for sup in group:
            for extension in combinations(extras, k - s):
                members.append(tuple(sorted(sup + extension)))
    lifted = SetFamily(n + k - 1, tuple(members))
    expected = sum(
        len(group) * comb(k - 1, k - s) for s, group in supports.items()
    )
    if len(lifted) != expected:
        raise CertificationError("lift produced colliding members")
    return lifted


def support_profile(family: Family) -> dict[int, int]:
    """|G_s| per support size s: distinct first-row restrictions."""
    supports: dict[int, set[frozenset[int]]] = {}
    for member in family:
        sup = member.support()
        supports.setdefault(len(sup), set()).add(sup)
    return {s: len(group) for s, group in sorted(supports.items())}


# --------------------------------------------------------------------------
# theorem verification


@dataclass(frozen=True)
class VerifyReport:
    """Search outcome versus the proven bound for one (n, k, t)."""

    n: int
    k: int
    t: int
    max_size: int
    bound: int
    sharp: bool
    witness: Family
    compressed_stable: bool
    method: str
    nodes_explored: int
    elapsed: float

    def summary(self) -> str:
        tag = "SHARP" if self.sharp else "NOT-SHARP"
        stable = "yes" if self.compressed_stable else "no"
        return (
            f"n={self.n} k={self.k} t={self.t} max={self.max_size} "
            f"bound={self.bound} {tag} stable={stable}"
        )

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "t": self.t,
            "max_size": self.max_size,
            "bound": self.bound,
            "sharp": self.sharp,
            "compressed_stable": self.compressed_stable,
            "method": self.method,
            "nodes_explored": self.nodes_explored,
        }


def verify_theorem(
    n: int,
    k: int,
    t: int,
    *,
    budget_vertices: int = DEFAULT_VERTEX_BUDGET,
    budget_nodes: int = DEFAULT_NODE_BUDGET,
) -> VerifyReport:
    """Compare the exact search maximum against the proven AK bound.

    Requires n >= 2k - t (below that no bound is claimed; run the search
    directly for exploratory data). A non-sharp outcome is reported, not
    patched. The report also notes whether the witness, after
    down-compression, satisfies the exchange-closure stability check.
    """
    if not 1 <= t <= k:
        raise ParameterError(f"need 1 <= t <= k, got t={t}, k={k}")
    if n < 2 * k - t:
        raise PreconditionError(
            f"verify_theorem needs n >= 2k - t; got n={n}, k={k}, t={t}"
        )
    result = max_t_intersecting(
        n,
        k,
        t,
        budget_vertices=budget_vertices,
        budget_nodes=budget_nodes,
    )
    bound = multiset_bound(n, k, t)
    compressed = down_compress(result.witness, t)
    return VerifyReport(
        n=n,
        k=k,
        t=t,
        max_size=result.max_size,
        bound=bound,
        sharp=result.max_size == bound,
        witness=result.witness,
        compressed_stable=is_stable(compressed),
        method=result.method,
        nodes_explored=result.nodes_explored,
        elapsed=result.elapsed,
    )
